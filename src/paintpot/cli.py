"""Command-line front door: sweep, calibrate, estimate, experiment.

Every command is deterministic for a fixed seed and embeds a reproduction
manifest in its outputs (a ``#`` comment line in CSVs, a ``manifest`` key
in JSON).  Exit codes: 0 success, 2 configuration or schema error,
3 numerical or fit failure, 4 I/O failure.
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
    preset = presets.SENSOR_PRESETS.get(ref)
    spec = preset() if preset else sensor_sim.load_sensor_spec(ref)
    return spec, sensor_sim.sensor_spec_to_dict(spec)


def synthesize_sweep_dataset(
    spec: sensor_sim.SensorSpec, rate_hz: float, duration_s: float, rng: np.random.Generator
) -> CalibrationDataset:
    """Constant-speed sweep across the full range and back, as a dataset.

    Mimics the characterization rig: the joint traverses its whole range in
    each direction while time, tracked angle, and each wiper's raw count
    are logged.  A wheel's range is (-pi, pi], a tilt's +-``angle_limit``.
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
    # Flat lists of floats and ints: no per-row container stays alive to
    # bring on a garbage collection.
    t_col, theta_col, counts = [], [], []
    for i in range(n):
        t = i / rate_hz
        frac = t / half if t <= half else (duration_s - t) / half
        theta = lo + (hi - lo) * frac
        theta = wrap_angle(theta) if limit is None else min(max(theta, lo), hi)
        for reading in sensor_sim.read(theta, spec, rng):
            counts.append(reading.count)
        t_col.append(t)
        theta_col.append(theta)
    return CalibrationDataset(
        sensor_kind=spec.kind,
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


def _check_sigma0(sigma0: float, name: str) -> None:
    if not 0.0 < sigma0 < math.inf:
        raise SpecError(f"{name} must be positive and finite, got {sigma0!r}")


def _filter_params(bundle: ModelBundle, k: float, dt: float, q: float, sigma0: float) -> dict:
    keys = estimate.variance_keys(len(bundle.models))
    rs = map(estimate.default_measurement_variance, bundle.models, bundle.report.wipers)
    return {"k": k, "dt": dt, "q": q, "sigma0": sigma0, **dict(zip(keys, rs))}


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
    estimate.TransitionModel(k, dt, q)  # checks k, dt and q
    _check_sigma0(sigma0, "sigma0")
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
    readings = zip(*(map(table.__getitem__, column) for table, column in zip(by_count, counts)))
    estimator = (estimate.WheelEstimator if obs.wrap else estimate.TiltEstimator)(obs, tm, sigma0)
    first = next(readings)
    belief = estimator.initialize(first)
    trace = [(t[0], belief.mu, belief.sigma, len(estimate.extract_features(first, obs)))]
    n_used = sum if obs.wrap else int  # a wheel step reports a flag per wiper
    step = estimator.step
    for t_i, u, row in zip(t[1:], omega[1:], readings):
        belief, used = step(u, row)
        trace.append((t_i, belief.mu, belief.sigma, n_used(used)))
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
    obs = estimate.observation_from_bundle(bundle)

    traj = trajectory.plan_quintic(x0, xf, t_total)
    gains = trajectory.ControllerGains(
        kp=float(ctl_cfg.get("kp", 6.0)),
        omega_max=float(ctl_cfg.get("omega_max", 10.0)),
    )
    plant_q = cfg.get("plant_q")
    return trajectory.ExperimentConfig(
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
    summary = {
        "manifest": manifest.to_dict(),
        "config": cfg,
        **result.summary_dict(),
    }
    try:
        text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # the summary echoes the config
        raise SpecError(f"{config_ref}: the config holds a non-finite number: {exc}") from exc
    with open(trace_path, "w", encoding="utf-8", newline="\n") as handle:
        result.write_trace(handle, comment=manifest.comment())
    with open(summary_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text + "\n")
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
