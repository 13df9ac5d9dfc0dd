"""Command-line front door: sweep, calibrate, estimate, experiment.

Every command is deterministic for a fixed seed and embeds a reproduction
manifest in its outputs (a ``#`` comment line in CSVs, a ``manifest`` key
in JSON).  Exit codes: 0 success, 2 configuration or schema error,
3 numerical or fit failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from paintpot import characterize, estimate, presets, sensor_sim, trajectory
from paintpot.characterize import CalibrationDataset, ModelBundle
from paintpot.errors import (
    DomainError,
    FitError,
    InitializationError,
    InversionError,
    SpecError,
)
from paintpot.geometry import wrap_angle

_SWEEP_STREAM = 1  # rng substream for in-experiment calibration sweeps


@dataclass(frozen=True)
class RunManifest:
    """Reproduction record echoed into every command output."""

    command: str
    inputs: dict
    outputs: tuple[str, ...]
    seed: int | None
    config_sha256: str

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": dict(self.inputs),
            "outputs": list(self.outputs),
            "seed": self.seed,
            "config_sha256": self.config_sha256,
        }

    def comment(self) -> str:
        return "manifest " + json.dumps(self.to_dict(), sort_keys=True)


def _config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()


def _resolve_sensor_spec(ref: str) -> tuple[sensor_sim.WheelSensorSpec | sensor_sim.TiltSensorSpec, dict]:
    if ref in presets.SENSOR_PRESETS:
        spec = presets.SENSOR_PRESETS[ref]()
        return spec, sensor_sim.sensor_spec_to_dict(spec)
    spec = sensor_sim.load_sensor_spec(ref)
    return spec, sensor_sim.sensor_spec_to_dict(spec)


def synthesize_sweep_dataset(
    spec: sensor_sim.WheelSensorSpec | sensor_sim.TiltSensorSpec,
    rate_hz: float,
    duration_s: float,
    rng: np.random.Generator,
) -> CalibrationDataset:
    """Constant-speed sweep across the full range and back, as a dataset.

    Mimics the characterization rig: the joint traverses its whole range in
    each direction while time, tracked angle, and raw counts are logged.
    """
    if rate_hz <= 0.0:
        raise SpecError("rate_hz must be positive")
    if duration_s <= 0.0:
        raise SpecError("duration_s must be positive")
    n = int(round(rate_hz * duration_s))
    if n < 2:
        raise SpecError("sweep too short to contain any motion")
    wheel = isinstance(spec, sensor_sim.WheelSensorSpec)
    lo, hi = (-math.pi, math.pi) if wheel else (-spec.angle_limit, spec.angle_limit)
    half = duration_s / 2.0
    samples = []
    for i in range(n):
        t = i / rate_hz
        frac = t / half if t <= half else (duration_s - t) / half
        theta = lo + (hi - lo) * frac
        if wheel:
            theta = wrap_angle(theta)
            r0, r1 = sensor_sim.read_wheel(theta, spec, rng)
            samples.append(characterize.CalibrationSample(t, theta, r0.count, r1.count))
        else:
            theta = min(max(theta, lo), hi)
            reading = sensor_sim.read_tilt(theta, spec, rng)
            samples.append(characterize.CalibrationSample(t, theta, reading.count))
    kind = "wheel" if wheel else "tilt"
    return CalibrationDataset.from_samples(kind, samples, adc_max=spec.adc_max)


def _write_sweep_csv(dataset: CalibrationDataset, path: Path, manifest: RunManifest) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"# {manifest.comment()}\n")
        if dataset.sensor_kind == "wheel":
            handle.write("t,theta,v0,v1\n")
            for i in range(len(dataset)):
                handle.write(
                    f"{dataset.t[i]:.17g},{dataset.theta[i]:.17g},"
                    f"{dataset.v0[i]},{dataset.v1[i]}\n"
                )
        else:
            handle.write("t,theta,v0\n")
            for i in range(len(dataset)):
                handle.write(f"{dataset.t[i]:.17g},{dataset.theta[i]:.17g},{dataset.v0[i]}\n")


def run_sweep(spec_ref: str, out: str, seed: int, rate_hz: float, duration_s: float) -> None:
    """``sweep``: synthesize a calibration log for a sensor spec."""
    if seed < 0:
        raise SpecError("seed must be >= 0")
    spec, spec_dict = _resolve_sensor_spec(spec_ref)
    config = {"spec": spec_dict, "rate_hz": rate_hz, "duration_s": duration_s, "seed": seed}
    manifest = RunManifest(
        command="sweep",
        inputs={"spec": spec_ref},
        outputs=(out,),
        seed=seed,
        config_sha256=_config_hash(config),
    )
    rng = np.random.default_rng(seed)
    dataset = synthesize_sweep_dataset(spec, rate_hz, duration_s, rng)
    _write_sweep_csv(dataset, Path(out), manifest)


def _filter_params(bundle: ModelBundle, k: float, dt: float, q: float, sigma0: float) -> dict:
    params = {"k": k, "dt": dt, "q": q, "sigma0": sigma0}
    if bundle.sensor_kind == "wheel":
        params["r0"], params["r1"] = (
            estimate.default_measurement_variance(bundle.models[i], bundle.report.wipers[i])
            for i in (0, 1)
        )
    else:
        params["r"] = estimate.default_measurement_variance(
            bundle.models[0], bundle.report.wipers[0]
        )
    return params


def run_calibrate(
    in_csv: str,
    kind: str,
    out: str,
    k: float = estimate.DEFAULT_TRANSMISSION_RATIO,
    dt: float = estimate.DEFAULT_TIMESTEP,
    q: float = estimate.DEFAULT_PROCESS_NOISE,
    sigma0: float = estimate.DEFAULT_SIGMA0,
) -> None:
    """``calibrate``: trim/shift, fit, windows, residual report, to JSON."""
    dataset = characterize.ingest_log(in_csv, kind)
    bundle = characterize.calibrate(dataset)
    bundle = bundle.with_filter_params(_filter_params(bundle, k, dt, q, sigma0))
    config = {"kind": kind, "filter": bundle.filter_params}
    manifest = RunManifest(
        command="calibrate",
        inputs={"log": in_csv},
        outputs=(out,),
        seed=None,
        config_sha256=_config_hash(config),
    )
    characterize.save_bundle(bundle, Path(out), manifest=manifest.to_dict())


# Raw fields are converted every 1024 rows, so the text of a long log is
# never held in memory at once, only its values.
_CHUNK_ROWS = 1024


def _malformed(fields: list[str], converters) -> ValueError | None:
    """The error of the first field, left to right, that fails to convert."""
    for convert, text in zip(converters, fields):
        try:
            convert(text.strip())
        except ValueError as exc:
            return exc
    return None


def _convert_rows(rows: list[list[str]], converters, columns: list[list]) -> ValueError | None:
    """Append the fields of ``rows``, converted, to ``columns``, one column each.

    Stops before the first row with a malformed field and returns its error.
    """
    fields = list(zip(*rows))
    try:
        converted = [list(map(f, c)) for f, c in zip(converters, fields)]
        error = None
    except ValueError:
        n, error = next(
            (n, exc) for n, exc in enumerate(_malformed(row, converters) for row in rows) if exc
        )
        converted = [list(map(f, c[:n])) for f, c in zip(converters, fields)]
    for column, values in zip(columns, converted):
        column.extend(values)
    return error


def _parse_readings(
    path: str, kind: str, adc_max: int
) -> tuple[list[float], list[list[int]], list[float]]:
    """Parse a readings CSV ``t,v0[,v1],omega`` into columns ``(t, counts, omega)``.

    ``counts`` holds one column per wiper.  The file is read once with
    ``csv.reader``; rows are converted column by column, a chunk at a
    time, and numpy masks check the values.  Lines starting with ``#``
    are skipped but counted, so errors name the physical line.

    Raises :class:`SpecError` naming the line of the first bad row, as
    ``ingest_log`` does for calibration logs.  A row is checked for, in
    this order: its field count, malformed fields (left to right),
    non-finite ``t`` or ``omega``, a decreasing ``t``, and counts outside
    [0, adc_max] (left to right).
    """
    expected = ["t", "v0", "v1", "omega"] if kind == "wheel" else ["t", "v0", "omega"]
    width = len(expected)
    converters = (float, *[int] * (width - 2), float)
    columns: list[list] = [[] for _ in expected]
    lines: list[int] = []  # physical line of each row
    rows: list[list[str]] = []
    # The first row with a wrong field count or a malformed field ends the
    # rows that are value-checked; its error is raised if none of them fails.
    error = malformed = None
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = None
        for row in reader:
            if not row or row[0].lstrip().startswith("#"):
                continue
            if header is None:
                header = [f.strip() for f in row]
                if header != expected:
                    raise SpecError(
                        f"line {reader.line_num}: header must be {','.join(expected)!r}, "
                        f"got {','.join(header)!r}"
                    )
            elif len(row) != width:
                error = SpecError(f"line {reader.line_num}: expected {width} fields, got {len(row)}")
                break
            else:
                rows.append(row)
                lines.append(reader.line_num)
                if len(rows) == _CHUNK_ROWS:
                    malformed = _convert_rows(rows, converters, columns)
                    rows = []
                    if malformed is not None:
                        break
    if header is None:
        raise SpecError("empty readings file")
    if not lines and error is None:
        raise SpecError("readings file has a header but no data rows")
    if malformed is None:
        malformed = _convert_rows(rows, converters, columns)
    if malformed is not None:
        error = SpecError(f"line {lines[len(columns[0])]}: {malformed}")
    t, *counts, omega = columns

    t_values, omega_values = np.array(t), np.array(omega)
    # Counts stay Python ints (object arrays), so no count overflows.
    count_values = [np.array(column, dtype=object) for column in counts]
    failures = [
        ~(np.isfinite(t_values) & np.isfinite(omega_values)),
        t_values < np.concatenate(([-np.inf], t_values[:-1])),
        *((values < 0) | (values > adc_max) for values in count_values),
    ]
    failing = np.flatnonzero(np.logical_or.reduce(failures))
    if failing.size:
        row = int(failing[0])
        check = next(k for k, mask in enumerate(failures) if mask[row])
        if check == 0:
            raise SpecError(f"line {lines[row]}: non-finite value")
        if check == 1:
            raise SpecError(f"line {lines[row]}: timestamp {t[row]} decreases")
        count = counts[check - 2][row]
        raise SpecError(f"line {lines[row]}: count {count} outside [0, {adc_max}]")
    if error is not None:
        raise error
    return t, counts, omega


def run_estimate(model_json: str, readings_csv: str, out: str) -> None:
    """``estimate``: run the filter offline over a logged reading stream.

    A readings log carries no availability flag, so every logged reading
    is marked available: a wiper riding its gap reports a rail count, and
    only the count window (the wheel's valid ranges, the tilt model's
    window) keeps it out of the update.
    """
    bundle = characterize.load_bundle(model_json)
    tm = estimate.transition_from_bundle(bundle)
    sigma0 = float(bundle.filter_params.get("sigma0", estimate.DEFAULT_SIGMA0))
    t, counts, omega = _parse_readings(readings_csv, bundle.sensor_kind, bundle.adc_max)
    manifest = RunManifest(
        command="estimate",
        inputs={"model": model_json, "readings": readings_csv},
        outputs=(out,),
        seed=None,
        config_sha256=_config_hash(characterize.bundle_to_dict(bundle)),
    )
    # One reading per wiper and logged count, shared by every row with it.
    by_count = [
        [sensor_sim.AdcReading(wiper, count, True) for count in range(max(column) + 1)]
        for wiper, column in enumerate(counts)
    ]
    rows = zip(t, *counts, omega)
    if bundle.sensor_kind == "wheel":
        obs = estimate.wheel_observation_from_bundle(bundle)
        estimator = estimate.WheelEstimator(obs, tm, sigma0)
        wiper0, wiper1 = by_count
        t0, c0, c1, _ = next(rows)
        readings0 = (wiper0[c0], wiper1[c1])
        belief = estimator.initialize(readings0)
        trace = [(t0, belief.mu, belief.sigma, len(estimate.extract_features(readings0, obs)))]
        step = estimator.step
        for t_i, c0, c1, u in rows:
            belief, used = step(u, (wiper0[c0], wiper1[c1]))
            trace.append((t_i, belief.mu, belief.sigma, used[0] + used[1]))
    else:
        obs = estimate.tilt_observation_from_bundle(bundle)
        estimator = estimate.TiltEstimator(obs, tm, sigma0)
        (wiper0,) = by_count
        t0, c0, _ = next(rows)
        belief = estimator.initialize(wiper0[c0])
        trace = [(t0, belief.mu, belief.sigma, 1)]
        step = estimator.step
        for t_i, c0, u in rows:
            belief, used = step(u, wiper0[c0])
            trace.append((t_i, belief.mu, belief.sigma, used))
    with open(out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"# {manifest.comment()}\n")
        handle.write("t,mu,sigma,n_features\n")
        handle.writelines("%.17g,%.17g,%.17g,%d\n" % row for row in trace)


def _resolve_experiment_config(ref: str) -> dict:
    if ref in presets.EXPERIMENT_PRESETS:
        return json.loads(json.dumps(presets.EXPERIMENT_PRESETS[ref]))
    path = Path(ref)
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: invalid JSON: {exc}") from exc


def _experiment_from_dict(cfg: dict) -> trajectory.ExperimentConfig:
    try:
        kind = cfg["kind"]
        seed = int(cfg.get("seed", 0))
        rate_hz = float(cfg.get("rate_hz", 100.0))
        traj_cfg = cfg["trajectory"]
        x0 = float(traj_cfg["x0"])
        xf = float(traj_cfg["xf"])
        t_total = float(traj_cfg["t_total"])
        ctl_cfg = cfg.get("controller", {})
        trans_cfg = cfg.get("transition", {})
        sensor = sensor_sim.sensor_spec_from_dict(cfg["sensor"])
    except (KeyError, TypeError) as exc:
        raise SpecError(f"experiment config missing field: {exc}") from exc
    if seed < 0:
        raise SpecError("seed must be >= 0")
    if rate_hz <= 0.0:
        raise SpecError("rate_hz must be positive")
    dt = 1.0 / rate_hz
    tm = estimate.TransitionModel(
        k=float(trans_cfg.get("k", estimate.DEFAULT_TRANSMISSION_RATIO)),
        dt=dt,
        q=float(trans_cfg.get("q", estimate.DEFAULT_PROCESS_NOISE)),
    )
    sigma0 = float(cfg.get("sigma0", estimate.DEFAULT_SIGMA0))

    if "models" in cfg:
        bundle = characterize.bundle_from_dict(cfg["models"])
    else:
        cal_cfg = cfg.get("calibration", {})
        sweep_rng = np.random.default_rng((seed, _SWEEP_STREAM))
        dataset = synthesize_sweep_dataset(
            sensor,
            float(cal_cfg.get("rate_hz", 14.0)),
            float(cal_cfg.get("duration_s", 50.0)),
            sweep_rng,
        )
        bundle = characterize.calibrate(dataset)
    if bundle.sensor_kind != kind:
        raise SpecError(f"model bundle kind {bundle.sensor_kind!r} does not match {kind!r}")
    bundle = bundle.with_filter_params(
        {**bundle.filter_params, "k": tm.k, "dt": tm.dt, "q": tm.q, "sigma0": sigma0}
    )
    if kind == "wheel":
        obs = estimate.wheel_observation_from_bundle(bundle)
    else:
        obs = estimate.tilt_observation_from_bundle(bundle)

    traj = trajectory.plan_quintic(x0, xf, t_total)
    gains = trajectory.ControllerGains(
        kp=float(ctl_cfg.get("kp", 6.0)),
        omega_max=float(ctl_cfg.get("omega_max", 10.0)),
    )
    plant_q = cfg.get("plant_q")
    return trajectory.ExperimentConfig(
        kind=kind,
        sensor=sensor,
        obs=obs,
        tm=tm,
        traj=traj,
        gains=gains,
        rate_hz=rate_hz,
        seed=seed,
        plant_q=None if plant_q is None else float(plant_q),
        sigma0=sigma0,
    )


def run_experiment_command(config_ref: str, out_prefix: str) -> trajectory.ExperimentResult:
    """``experiment``: one closed-loop replica run; trace CSV + JSON summary."""
    cfg = _resolve_experiment_config(config_ref)
    config = _experiment_from_dict(cfg)
    result = trajectory.run_experiment(config)
    trace_path = Path(f"{out_prefix}_trace.csv")
    summary_path = Path(f"{out_prefix}_summary.json")
    manifest = RunManifest(
        command="experiment",
        inputs={"config": config_ref},
        outputs=(str(trace_path), str(summary_path)),
        seed=config.seed,
        config_sha256=_config_hash(cfg),
    )
    with open(trace_path, "w", encoding="utf-8", newline="\n") as handle:
        result.write_trace(handle, comment=manifest.comment())
    summary = {
        "manifest": manifest.to_dict(),
        "config": cfg,
        **result.summary_dict(),
    }
    with open(summary_path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return result


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paintpot",
        description="Painted-potentiometer sensing pipeline: simulate, calibrate, estimate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="synthesize a calibration sweep CSV")
    p_sweep.add_argument("--spec", required=True, help="sensor spec JSON path or preset name")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--rate-hz", type=float, default=14.0)
    p_sweep.add_argument("--duration-s", type=float, default=50.0)

    p_cal = sub.add_parser("calibrate", help="fit models from a calibration CSV")
    p_cal.add_argument("--in", dest="in_csv", required=True, help="calibration CSV path")
    p_cal.add_argument("--kind", choices=("wheel", "tilt"), required=True)
    p_cal.add_argument("--out", required=True, help="output model bundle JSON path")
    p_cal.add_argument("--k", type=float, default=estimate.DEFAULT_TRANSMISSION_RATIO)
    p_cal.add_argument("--dt", type=float, default=estimate.DEFAULT_TIMESTEP)
    p_cal.add_argument("--q", type=float, default=estimate.DEFAULT_PROCESS_NOISE)
    p_cal.add_argument("--sigma0", type=float, default=estimate.DEFAULT_SIGMA0)

    p_est = sub.add_parser("estimate", help="run a filter over a readings CSV")
    p_est.add_argument("--model", required=True, help="model bundle JSON path")
    p_est.add_argument("--readings", required=True, help="readings CSV path")
    p_est.add_argument("--out", required=True, help="output trace CSV path")

    p_exp = sub.add_parser("experiment", help="run a closed-loop replica experiment")
    p_exp.add_argument(
        "--config",
        required=True,
        help=f"config JSON path or preset: {', '.join(sorted(presets.EXPERIMENT_PRESETS))}",
    )
    p_exp.add_argument("--out-prefix", required=True, help="prefix for _trace.csv/_summary.json")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            run_sweep(args.spec, args.out, args.seed, args.rate_hz, args.duration_s)
        elif args.command == "calibrate":
            run_calibrate(args.in_csv, args.kind, args.out, args.k, args.dt, args.q, args.sigma0)
        elif args.command == "estimate":
            run_estimate(args.model, args.readings, args.out)
        elif args.command == "experiment":
            run_experiment_command(args.config, args.out_prefix)
        return 0
    except (SpecError, DomainError) as exc:
        print(f"paintpot: configuration error: {exc}", file=sys.stderr)
        return 2
    except (FitError, InversionError, InitializationError) as exc:
        print(f"paintpot: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"paintpot: I/O error: {exc}", file=sys.stderr)
        return 4


def console_main() -> None:
    sys.exit(main())
