"""Command-line front door: sweep, calibrate, estimate, experiment.

Every command is deterministic for a fixed seed (a sweep draws its noise
in one block) and embeds a reproduction manifest in its outputs (a ``#``
comment line in CSVs, a ``manifest`` key in JSON).  Exit codes: 0 success,
2 configuration or schema error, 3 numerical or fit failure, 4 I/O failure;
an experiment-config value that is not a finite number, or is out of its
range, exits 2 naming its key path.
"""

from __future__ import annotations

import argparse
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
    read_json,
    write_json,
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


def _resolve_sensor_spec(ref: str) -> tuple[sensor_sim.SensorSpec, dict]:
    """The sensor a preset, a kind (its reference sensor) or a spec file names, and its dict."""
    preset = presets.SENSOR_PRESETS.get(ref) or presets.SENSOR_PRESETS.get(f"{ref}_reference")
    spec = preset() if preset else sensor_sim.load_sensor_spec(ref)
    return spec, sensor_sim.sensor_spec_to_dict(spec)


def synthesize_sweep_dataset(
    spec: sensor_sim.SensorSpec, rate_hz: float, duration_s: float, rng: np.random.Generator
) -> CalibrationDataset:
    """Constant-speed sweep across the full range and back, as a dataset.

    Mimics the characterization rig: the joint traverses its whole range in
    each direction while time, tracked angle, and each wiper's raw count
    are logged.  A wheel's range is (-pi, pi], a tilt's +-``angle_limit``.
    All rows' count noise is one ``rng`` draw, row by row, wiper by wiper.
    """
    for name, value in (("rate_hz", rate_hz), ("duration_s", duration_s)):
        if not 0.0 < value < math.inf:
            raise SpecError(f"{name} must be positive and finite, got {value!r}")
    n = int(round(rate_hz * duration_s))
    if n < 2:
        raise SpecError("sweep too short to contain any motion")
    limit = spec.angle_limit
    lo, hi = (-math.pi, math.pi) if limit is None else (-limit, limit)
    half = duration_s / 2.0
    noise = rng.normal(0.0, spec.noise_std, (n, len(spec.wipers)))
    # Flat lists of floats and ints, and each row's draws a tuple made when
    # it is used: no per-row container stays alive to bring on a garbage
    # collection.
    t_col, theta_col, counts = [0.0] * n, [0.0] * n, []
    read, add_count, span = sensor_sim.read, counts.append, hi - lo
    for i, draws in enumerate(zip(*noise.T.tolist())):
        t = i / rate_hz
        frac = t / half if t <= half else (duration_s - t) / half
        theta = lo + span * frac
        theta = wrap_angle(theta) if limit is None else min(max(theta, lo), hi)
        for reading in read(theta, spec, draws):
            add_count(reading.count)
        t_col[i], theta_col[i] = t, theta
    return CalibrationDataset(
        tracks=spec.tracks,
        t=np.array(t_col, dtype=float),
        theta=np.array(theta_col, dtype=float),
        counts=np.array(counts, dtype=np.int64).reshape(n, len(spec.wipers)),
        adc_max=spec.adc_max,
    )


def _write_sweep_csv(dataset: CalibrationDataset, path: Path, manifest: RunManifest) -> None:
    width = dataset.counts.shape[1]
    header = ",".join(["t", "theta", *(f"v{i}" for i in range(width))])
    row_format = "%.17g,%.17g" + ",%d" * width + "\n"
    columns = [dataset.t.tolist(), dataset.theta.tolist(), *dataset.counts.T.tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"# {manifest.comment()}\n")
        handle.write(header + "\n")
        handle.writelines(row_format % row for row in zip(*columns))


def run_sweep(spec_ref: str, out: str, seed: int, rate_hz: float, duration_s: float) -> None:
    """``sweep``: synthesize a calibration log for a sensor spec."""
    if seed < 0:
        raise SpecError("seed must be >= 0")
    spec, spec_dict = _resolve_sensor_spec(spec_ref)
    config = {"spec": spec_dict, "rate_hz": rate_hz, "duration_s": duration_s, "seed": seed}
    manifest = RunManifest("sweep", {"spec": spec_ref}, (out,), seed, _config_hash(config))
    rng = np.random.default_rng(seed)
    dataset = synthesize_sweep_dataset(spec, rate_hz, duration_s, rng)
    _write_sweep_csv(dataset, Path(out), manifest)


def _check_sigma0(sigma0: float, name: str) -> None:
    if not 0.0 < sigma0 < math.inf:
        raise SpecError(f"{name} must be positive and finite, got {sigma0!r}")


def _filter_params(bundle: ModelBundle, k: float, dt: float, q: float, sigma0: float) -> dict:
    keys = estimate.variance_keys(len(bundle.models))
    rs = map(estimate.default_measurement_variance, bundle.models, bundle.report.wipers)
    return {"k": k, "dt": dt, "q": q, "sigma0": sigma0, **dict(zip(keys, rs))}


def run_calibrate(
    in_csv: str,
    spec_ref: str,
    out: str,
    k: float = estimate.DEFAULT_TRANSMISSION_RATIO,
    dt: float = estimate.DEFAULT_TIMESTEP,
    q: float = estimate.DEFAULT_PROCESS_NOISE,
    sigma0: float = estimate.DEFAULT_SIGMA0,
) -> None:
    """``calibrate``: trim/shift, fit, windows, residual report, to JSON."""
    estimate.TransitionModel(k, dt, q)  # checks k, dt and q
    _check_sigma0(sigma0, "sigma0")
    spec, _ = _resolve_sensor_spec(spec_ref)
    dataset = characterize.ingest_log(in_csv, spec)
    bundle = characterize.calibrate(dataset)
    bundle = bundle.with_filter_params(_filter_params(bundle, k, dt, q, sigma0))
    config = {"kind": bundle.sensor_kind, "filter": bundle.filter_params}
    manifest = RunManifest("calibrate", {"log": in_csv}, (out,), None, _config_hash(config))
    characterize.save_bundle(bundle, Path(out), manifest=manifest.to_dict())


def run_estimate(model_json: str, readings_csv: str, out: str) -> None:
    """``estimate``: run the filter offline over a logged reading stream.

    A readings log carries no availability flag, so every logged reading
    is marked available: a wiper riding its gap reports a rail count, and
    only the counts its wiper admits (the wheel's valid ranges, the tilt
    model's window) keep it out of the update.
    """
    bundle = characterize.load_bundle(model_json)
    tm = estimate.transition_from_bundle(bundle)
    sigma0 = estimate.filter_value(bundle.filter_params, "sigma0", estimate.DEFAULT_SIGMA0)
    _check_sigma0(sigma0, "filter.sigma0")
    header = ["t", *(f"v{i}" for i in range(len(bundle.models))), "omega"]
    t, *counts, omega = characterize.read_columns(readings_csv, header, bundle.adc_max, "readings")
    obs = estimate.observation_from_bundle(bundle)
    inputs = {"model": model_json, "readings": readings_csv}
    config_sha256 = _config_hash(characterize.bundle_to_dict(bundle))
    manifest = RunManifest("estimate", inputs, (out,), None, config_sha256)
    # One reading per wiper and logged count, shared by every row with it.
    by_count = [
        [sensor_sim.AdcReading(wiper, count, True) for count in range(max(column) + 1)]
        for wiper, column in enumerate(counts)
    ]
    readings = zip(*(map(table.__getitem__, column) for table, column in zip(by_count, counts)))
    estimator = (estimate.WheelEstimator if obs.wrap else estimate.TiltEstimator)(obs, tm, sigma0)
    first = next(readings)
    beliefs = [estimator.initialize(first)]
    n_features = [len(estimate.extract_features(first, obs))]
    n_used = sum if obs.wrap else int  # a wheel step reports a flag per wiper
    for belief, used in map(estimator.step, omega[1:], readings):
        beliefs.append(belief)
        n_features.append(n_used(used))
    sigma_text: dict[float, str] = {}  # the variance settles and repeats: format each value once
    digits = [str(n) for n in range(len(obs.wipers) + 1)]
    with open(out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"# {manifest.comment()}\n")
        handle.write("t,mu,sigma,n_features\n")
        handle.writelines([
            "%.17g,%.17g,%s,%s\n"
            % (t_i, mu, sigma_text.get(sigma) or sigma_text.setdefault(sigma, "%.17g" % sigma), digits[n])
            for t_i, (mu, sigma), n in zip(t, beliefs, n_features)
        ])


def _resolve_experiment_config(ref: str) -> dict:
    if ref in presets.EXPERIMENT_PRESETS:
        return json.loads(json.dumps(presets.EXPERIMENT_PRESETS[ref]))
    return read_json(Path(ref))


def _config_number(
    cfg: dict, path: str, default: float | None = None, integer: bool = False, low: str = ""
):
    """The finite number, or with ``integer`` the int, at the dotted key
    ``path`` of an experiment config, else ``default``; ``low``, ``"> 0"`` or
    ``">= 0"``, bounds it from below.  Faults name ``path``."""
    *sections, key = path.split(".")
    for section in sections:
        cfg = cfg.get(section, {})
        if not isinstance(cfg, dict):
            raise SpecError(f"{section} must be a JSON object, got {cfg!r}")
    value = cfg.get(key, default)
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number) or (integer and not number.is_integer()):
        expected = "an integer" if integer else "a finite number"
        raise SpecError(f"{path} must be {expected}, got {value!r}")
    if low and not (number > 0.0 or number == 0.0 and low == ">= 0"):
        raise SpecError(f"{path} must be {low}, got {value!r}")
    if integer:  # an int as given: a float would round a seed above 2**53
        return int(value) if isinstance(value, int) else int(number)
    return number


def _experiment_from_dict(cfg: dict) -> trajectory.ExperimentConfig:
    """The run an experiment config describes; each number goes through :func:`_config_number`."""
    try:
        kind = cfg["kind"]
        sensor = sensor_sim.sensor_spec_from_dict(cfg["sensor"])
    except (KeyError, TypeError) as exc:
        raise SpecError(f"experiment config missing field: {exc}") from exc
    seed = _config_number(cfg, "seed", 0, integer=True, low=">= 0")
    rate_hz = _config_number(cfg, "rate_hz", 100.0, low="> 0")
    tm = estimate.TransitionModel(
        k=_config_number(cfg, "transition.k", estimate.DEFAULT_TRANSMISSION_RATIO),
        dt=1.0 / rate_hz,
        q=_config_number(cfg, "transition.q", estimate.DEFAULT_PROCESS_NOISE, low=">= 0"),
    )
    sigma0 = _config_number(cfg, "sigma0", estimate.DEFAULT_SIGMA0)
    _check_sigma0(sigma0, "sigma0")
    plant_q = None if cfg.get("plant_q") is None else _config_number(cfg, "plant_q")
    traj = trajectory.plan_quintic(
        _config_number(cfg, "trajectory.x0"),
        _config_number(cfg, "trajectory.xf"),
        _config_number(cfg, "trajectory.t_total", low="> 0"),
    )
    gains = trajectory.ControllerGains(
        kp=_config_number(cfg, "controller.kp", 6.0, low=">= 0"),
        omega_max=_config_number(cfg, "controller.omega_max", 10.0, low="> 0"),
    )

    if "models" in cfg:
        bundle = characterize.bundle_from_dict(cfg["models"])
    else:
        sweep_rng = np.random.default_rng((seed, _SWEEP_STREAM))
        rate = _config_number(cfg, "calibration.rate_hz", 14.0, low="> 0")
        duration = _config_number(cfg, "calibration.duration_s", 50.0, low="> 0")
        try:
            dataset = synthesize_sweep_dataset(sensor, rate, duration, sweep_rng)
        except SpecError as exc:  # a sweep too short: its length comes from both keys
            raise SpecError(f"calibration.rate_hz and calibration.duration_s: {exc}") from None
        bundle = characterize.calibrate(dataset)
    if bundle.sensor_kind != kind:
        raise SpecError(f"model bundle kind {bundle.sensor_kind!r} does not match {kind!r}")
    return trajectory.ExperimentConfig(
        sensor=sensor,
        obs=estimate.observation_from_bundle(bundle),
        tm=tm,
        traj=traj,
        gains=gains,
        rate_hz=rate_hz,
        seed=seed,
        plant_q=plant_q,
        sigma0=sigma0,
    )


def run_experiment_command(config_ref: str, out_prefix: str) -> trajectory.ExperimentResult:
    """``experiment``: one closed-loop replica run; trace CSV + JSON summary."""
    cfg = _resolve_experiment_config(config_ref)
    config = _experiment_from_dict(cfg)
    result = trajectory.run_experiment(config)
    trace_path = Path(f"{out_prefix}_trace.csv")
    summary_path = Path(f"{out_prefix}_summary.json")
    inputs, outputs = {"config": config_ref}, (str(trace_path), str(summary_path))
    manifest = RunManifest("experiment", inputs, outputs, config.seed, _config_hash(cfg))
    summary = {
        "manifest": manifest.to_dict(),
        "config": cfg,
        **result.summary_dict(),
    }
    try:
        json.dumps(summary, allow_nan=False)
    except ValueError as exc:  # the summary echoes the config
        raise SpecError(f"{config_ref}: the config holds a non-finite number: {exc}") from exc
    with open(trace_path, "w", encoding="utf-8", newline="\n") as handle:
        result.write_trace(handle, comment=manifest.comment())
    write_json(summary_path, summary)  # last: its presence shows the run finished
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
    p_cal.add_argument("--spec", "--kind", required=True, help="sensor spec JSON path, preset name or kind")
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
            run_calibrate(args.in_csv, args.spec, args.out, args.k, args.dt, args.q, args.sigma0)
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
