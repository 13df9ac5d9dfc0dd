"""The benchmark's three workloads: what each runs, why, and how it is checked.

Load shape, the same for all three: a closed loop with one client, in one
process and one thread.  The client runs the workload's fixed op list (one
"pass") over and over, and starts each op only after the previous one has
returned.  An op is one call of a public ``paintpot.cli`` command, the way a
user runs it.  Each op is of kind ``a`` or ``b``; its latency feeds the
``op_a_*`` or ``op_b_*`` metrics, and its checked output feeds ``error_rad``.

offline_estimate
    a: ``cli.run_estimate`` over a wheel readings log; b: over a tilt log.
    Why: the estimate filter plus the CLI's CSV parse and trace write do all
    the work, and the simulator and the cubic inversion do none.  The logs
    and bundles come from ``inputs.py``, so a simulator or fitter change
    cannot change them and should read as no change here.
    error_rad: RMS of the wrapped error against the generator's true angles,
    over every row of both logs.

closed_loop
    a: ``cli.run_experiment_command`` on ``pan_pi_to_0`` and
    ``pan_negpi_to_0``; b: on ``tilt_sweep``.  The seeds derive from the
    workload seed.  One op is a 700-row self-calibration sweep, a fit, a
    500-step loop (501 trace rows) and the trace and summary writes.
    Why: per-reading bisection in ``sensor_sim.read_*`` ->
    ``cubic.invert_cubic`` dominates, and the estimator runs one step at a
    time rather than over a log.
    error_rad: mean of the summaries' ``avg_abs_error``.

calibration
    a: ``cli.run_sweep`` on the wheel reference sensor; b: ``cli.run_calibrate``
    on that sweep.  Why: the simulator reads angles known in advance (the
    form a vectorized inversion targets), ``characterize`` does real work
    (parser, fit, ``CubicModel`` checks, valid ranges) and ``estimate``
    does none.  A gain here that costs the per-step path shows in
    ``closed_loop``.
    error_rad: the worst ``fit_report`` rms over the pass's bundles.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
from paintpot import cli, presets

ESTIMATE_ROWS = 10_000  # per log: 100 s at 100 Hz
EXPERIMENT_SEEDS = 8  # seeds per preset in one closed_loop pass
SWEEPS = 4  # sweeps, each then calibrated, in one calibration pass
SWEEP_RATE_HZ = 14.0  # the sweep setting of the experiment presets
SWEEP_DURATION_S = 50.0

# Criterion 5 of tests/test_acceptance.py: bound on each preset's avg_abs_error.
ACCEPTANCE_BOUNDS = {"pan_pi_to_0": 0.09, "pan_negpi_to_0": 0.08, "tilt_sweep": 0.04}


class CheckFailed(Exception):
    """An op's output is malformed, non-finite, or out of its bound."""


@dataclass
class Op:
    kind: str  # "a" or "b"
    label: str
    run: Callable[[], object]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    check: Callable[[], object]  # validates the outputs; returns the op's error figure or None
    expected: Counter = field(default_factory=Counter)  # exact counts one run must produce


@dataclass
class Plan:
    ops: list[Op]
    setup: list[str]  # what the program loads at set-up: bundle=, config= or sensor= items
    error_rad: Callable[[list], float]  # combines the ops' error figures
    kinds: tuple[str, str]  # what op kinds a and b are
    # Per-workload names of the shared metrics: (name, shared metric, unit, conversion).
    aliases: list[tuple[str, str, str, Callable[[float], float]]]
    invariants: Callable[[Counter], list[str]] = lambda calls: []


def _same(value: float) -> float:
    return value


def _finite(value: float, where: str) -> float:
    if not math.isfinite(value):
        raise CheckFailed(f"{where}: non-finite value {value!r}")
    return value


def _read_csv(path: str, header: str) -> list[list[float]]:
    """Rows of a manifest-headed CSV output, every field parsed and finite."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if len(lines) < 3 or not lines[0].startswith("# manifest "):
        raise CheckFailed(f"{path}: missing manifest line or data rows")
    json.loads(lines[0][len("# manifest ") :])
    if lines[1] != header:
        raise CheckFailed(f"{path}: header {lines[1]!r}, expected {header!r}")
    rows = []
    for number, line in enumerate(lines[2:], start=3):
        try:
            row = [float(x) for x in line.split(",")]
        except ValueError as exc:
            raise CheckFailed(f"{path}:{number}: {exc}") from exc
        if len(row) != header.count(",") + 1:
            raise CheckFailed(f"{path}:{number}: {len(row)} fields")
        for value in row:
            _finite(value, f"{path}:{number}")
        rows.append(row)
    return rows


def _read_json(path: str) -> dict:
    """A JSON output, with every number in it finite."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))

    def walk(node):
        if isinstance(node, dict):
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)
        elif isinstance(node, float):
            _finite(node, path)

    walk(data)
    return data


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def offline_estimate(seed: int) -> Plan:
    ops, setup = [], []
    for kind, sensor, make_log, bundle in (
        ("a", "wheel", inputs.wheel_log, inputs.wheel_bundle()),
        ("b", "tilt", inputs.tilt_log, inputs.tilt_bundle()),
    ):
        bundle_path, readings, out = f"{sensor}_bundle.json", f"{sensor}_readings.csv", f"{sensor}_trace.csv"
        text, truth = make_log(inputs.derived_seed(seed, sensor), ESTIMATE_ROWS)
        _write(bundle_path, json.dumps(bundle, indent=2, sort_keys=True) + "\n")
        _write(readings, text)
        setup.append(f"bundle={bundle_path}")

        def check(out=out, truth=truth, wrap=sensor == "wheel"):
            rows = np.array(_read_csv(out, "t,mu,sigma,n_features"))
            if len(rows) != len(truth):
                raise CheckFailed(f"{out}: {len(rows)} rows for {len(truth)} readings")
            if not np.all(rows[:, 2] > 0.0) or not np.all(np.isin(rows[:, 3], (0, 1, 2))):
                raise CheckFailed(f"{out}: sigma <= 0 or a bad feature count")
            error = rows[:, 1] - truth
            if wrap:
                error = np.remainder(error + math.pi, math.tau) - math.pi
            return float(np.sum(error**2)), len(error)

        ops.append(
            Op(
                kind=kind,
                label=f"estimate_{sensor}",
                run=lambda b=bundle_path, r=readings, o=out: cli.run_estimate(b, r, o),
                inputs=(bundle_path, readings),
                outputs=(out,),
                check=check,
                expected=Counter(steps=ESTIMATE_ROWS - 1),
            )
        )

    def rmse(figures):
        return math.sqrt(sum(s for s, _ in figures) / sum(n for _, n in figures))

    def rows_per_s(ms):
        return ESTIMATE_ROWS * 1000.0 / ms

    def coverage(calls):
        """The wheel log must reach every feature outcome the filter has."""
        problems = [
            f"no wheel step used {used} features"
            for used in (0, 1, 2)
            if not calls[f"estimate.wheel_steps_using.{used}"]
        ]
        if not calls["estimate.features.out_of_window"]:
            problems.append("no out-of-window reading")
        if calls["estimate.features.in_window"] <= calls["estimate.features.used"]:
            problems.append("no gated feature")
        return problems

    aliases = [
        ("estimate_wheel_rows_per_s", "op_a_p50_ms", "rows/s", rows_per_s),
        ("estimate_tilt_rows_per_s", "op_b_p50_ms", "rows/s", rows_per_s),
        ("estimate_rmse_rad", "error_rad", "rad", _same),
    ]
    return Plan(ops, setup, rmse, ("estimate wheel log", "estimate tilt log"), aliases, coverage)


def closed_loop(seed: int) -> Plan:
    ops, setup = [], []
    for j in range(EXPERIMENT_SEEDS):
        for name, preset in presets.EXPERIMENT_PRESETS.items():
            config = f"{name}_{j}.json"
            _write(config, inputs.experiment_config(preset, inputs.derived_seed(seed, name, j)))
            setup.append(f"config={config}")
            prefix = f"{name}_{j}"
            trace, summary = f"{prefix}_trace.csv", f"{prefix}_summary.json"
            steps = round(preset["trajectory"]["t_total"] * preset["rate_hz"])
            cal = preset["calibration"]
            sweep_rows = round(cal["rate_hz"] * cal["duration_s"])

            def check(name=name, trace=trace, summary=summary, steps=steps):
                if len(_read_csv(trace, "t,theta_true,theta_est,theta_ref,u_cmd,f0_avail,f1_avail")) != steps + 1:
                    raise CheckFailed(f"{trace}: expected {steps + 1} rows")
                result = _read_json(summary)
                error = result["avg_abs_error"]
                if result["n_steps"] != steps + 1 or not error <= ACCEPTANCE_BOUNDS[name]:
                    raise CheckFailed(f"{summary}: avg_abs_error {error} over {ACCEPTANCE_BOUNDS[name]}")
                return error

            ops.append(
                Op(
                    kind="a" if preset["kind"] == "wheel" else "b",
                    label=f"experiment_{name}",
                    run=lambda c=config, p=prefix: cli.run_experiment_command(c, p),
                    inputs=(config,),
                    outputs=(trace, summary),
                    check=check,
                    expected=Counter(steps=steps, reads=sweep_rows + steps + 1),
                )
            )
    aliases = [
        ("experiment_wheel_p50_ms", "op_a_p50_ms", "ms", _same),
        ("experiment_wheel_tail_ms", "op_a_tail_ms", "ms", _same),
        ("experiment_tilt_p50_ms", "op_b_p50_ms", "ms", _same),
        ("experiment_tilt_tail_ms", "op_b_tail_ms", "ms", _same),
        ("experiment_avg_abs_error_rad", "error_rad", "rad", _same),
    ]
    return Plan(ops, setup, statistics.fmean, ("wheel experiment", "tilt experiment"), aliases)


def calibration(seed: int) -> Plan:
    ops = []
    rows = round(SWEEP_RATE_HZ * SWEEP_DURATION_S)
    for j in range(SWEEPS):
        sweep, bundle = f"sweep_{j}.csv", f"bundle_{j}.json"
        sweep_seed = inputs.derived_seed(seed, "sweep", j)

        def check_sweep(sweep=sweep):
            table = np.array(_read_csv(sweep, "t,theta,v0,v1"))
            counts = table[:, 2:]
            if len(table) != rows or np.any(counts != np.round(counts)) or np.any((counts < 0) | (counts > 1023)):
                raise CheckFailed(f"{sweep}: expected {rows} rows of integer counts in [0, 1023]")

        def check_bundle(bundle=bundle):
            data = _read_json(bundle)
            wipers = data["fit_report"]["wipers"]
            if data["sensor_kind"] != "wheel" or len(data["models"]) != 2 or len(wipers) != 2:
                raise CheckFailed(f"{bundle}: not a two-wiper wheel bundle")
            for model in data["models"]:
                for c in ("c3", "c2", "c1", "c0"):
                    _finite(float(model[c]), bundle)
            return max(w["rms"] for w in wipers)

        ops.append(
            Op(
                kind="a",
                label="sweep",
                run=lambda o=sweep, s=sweep_seed: cli.run_sweep(
                    "wheel_reference", o, s, SWEEP_RATE_HZ, SWEEP_DURATION_S
                ),
                inputs=(),
                outputs=(sweep,),
                check=check_sweep,
                expected=Counter(reads=rows),
            )
        )
        ops.append(
            Op(
                kind="b",
                label="calibrate",
                run=lambda i=sweep, o=bundle: cli.run_calibrate(i, "wheel", o, k=0.2, dt=0.01),
                inputs=(sweep,),
                outputs=(bundle,),
                check=check_bundle,
                expected=Counter(ingest_rows=rows),
            )
        )
    aliases = [
        ("sweep_p50_ms", "op_a_p50_ms", "ms", _same),
        ("sweep_tail_ms", "op_a_tail_ms", "ms", _same),
        ("calibrate_p50_ms", "op_b_p50_ms", "ms", _same),
        ("calibrate_tail_ms", "op_b_tail_ms", "ms", _same),
        ("calibration_fit_rms_rad", "error_rad", "rad", _same),
    ]
    return Plan(ops, ["sensor=wheel_reference"], max, ("wheel sweep", "wheel calibrate"), aliases)


def count_invariants(plan: Plan, calls: Counter, by_parent: Counter) -> list[str]:
    """Exact count checks of one traced pass against the plan's op list."""
    expected = sum((op.expected for op in plan.ops), Counter())
    steps = calls["estimate.WheelEstimator.step"] + calls["estimate.TiltEstimator.step"]
    wheel_reads, tilt_reads = calls["sensor_sim.read_wheel"], calls["sensor_sim.read_tilt"]
    problems = []
    if steps != expected["steps"]:
        problems.append(f"estimate.step.calls {steps} != {expected['steps']}")
    if wheel_reads + tilt_reads != expected["reads"]:
        problems.append(f"sensor_sim.read.calls {wheel_reads + tilt_reads} != {expected['reads']}")
    if calls["characterize.ingest.rows"] != expected["ingest_rows"]:
        problems.append(f"characterize.ingest.rows {calls['characterize.ingest.rows']} != {expected['ingest_rows']}")
    for read, per_read, reads in (("sensor_sim.read_wheel", 2, wheel_reads), ("sensor_sim.read_tilt", 1, tilt_reads)):
        inverts = by_parent["cubic.invert_cubic", read]
        if inverts > per_read * reads:
            problems.append(f"{inverts} inversions in {reads} calls of {read}")
    return problems + plan.invariants(calls)


WORKLOADS = {
    "offline_estimate": offline_estimate,
    "closed_loop": closed_loop,
    "calibration": calibration,
}
