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
import json
import math
import sys
from itertools import chain, repeat
from operator import attrgetter
from pathlib import Path

import numpy as np

from paintpot import characterize, estimate, presets, sensor_sim, trajectory
from paintpot.characterize import CalibrationDataset
from paintpot.errors import (
    DomainError,
    FitError,
    InitializationError,
    InversionError,
    SpecError,
    json_text,
    malformed,
    number_at,
    object_at,
    read_json,
    refuse_unknown_keys,
    run_manifest,
    write_csv,
    write_text,
)
from paintpot.geometry import wrap_angle  # noqa: F401  (bench/tracing.py hooks this name)

_SWEEP_STREAM = 1  # rng substream for in-experiment calibration sweeps


def _resolve_sensor(ref: str, parse=sensor_sim.sensor_spec_from_dict):
    """The sensor a preset or a kind (its reference sensor) names, or ``parse`` of the spec file ``ref``."""
    preset = presets.SENSOR_PRESETS.get(ref) or presets.SENSOR_PRESETS.get(f"{ref}_reference")
    return preset() if preset else parse(read_json(ref))


def synthesize_sweep_dataset(
    spec: sensor_sim.SensorSpec, rate_hz: float, duration_s: float, rng: np.random.Generator
) -> CalibrationDataset:
    """Constant-speed sweep across the full range and back, as a dataset.

    Mimics the characterization rig: the joint traverses its whole range in
    each direction while time, tracked angle, and each wiper's raw count
    are logged.  A wheel's range is (-pi, pi], a tilt's +-``angle_limit``.
    The schedule is known in advance, so it is computed as arrays; each
    row then takes one :func:`~paintpot.sensor_sim.read`.  All rows' count
    noise is one ``rng`` draw, row by row, wiper by wiper.
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
    t = np.arange(n) / rate_hz
    # Out to the far end and back: frac is in [0, 1], so every angle lies in [lo, hi].
    theta = lo + (hi - lo) * (np.where(t <= half, t, duration_s - t) / half)
    if limit is None:
        theta[theta == -math.pi] = math.pi  # wrap_angle's only change on [-pi, pi]
    noise = rng.normal(0.0, spec.noise_std, (n, len(spec.wipers)))
    # Each row's draws are a tuple made when it is read, so no per-row
    # container stays alive to bring on a garbage collection.
    readings = map(sensor_sim.read, theta.tolist(), repeat(spec), zip(*noise.T.tolist()))
    counts = np.fromiter(map(attrgetter("count"), chain.from_iterable(readings)), np.int64, noise.size)
    return CalibrationDataset(spec.tracks, t, theta, counts.reshape(noise.shape), spec.adc_max)


def run_sweep(spec_ref: str, out: str, seed: int, rate_hz: float, duration_s: float) -> None:
    """``sweep``: synthesize a calibration log for a sensor spec."""
    if seed < 0:
        raise SpecError("seed must be >= 0")
    spec = _resolve_sensor(spec_ref)
    spec_dict = sensor_sim.sensor_spec_to_dict(spec)
    config = {"spec": spec_dict, "rate_hz": rate_hz, "duration_s": duration_s, "seed": seed}
    manifest = run_manifest("sweep", {"spec": spec_ref}, (out,), seed, config)
    rng = np.random.default_rng(seed)
    dataset = synthesize_sweep_dataset(spec, rate_hz, duration_s, rng)
    width = len(spec.wipers)
    header = ",".join(["t", "theta", *(f"v{i}" for i in range(width))])
    columns = [dataset.t.tolist(), dataset.theta.tolist(), *dataset.counts.T.tolist()]
    write_csv(out, manifest, header, "%.17g,%.17g" + ",%d" * width + "\n", columns)


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
    params = {"k": k, "dt": dt, "q": q, "sigma0": sigma0}
    estimate.TransitionModel(k, dt, q)  # checks k, dt and q
    number_at(params, "sigma0", low="> 0")  # and sigma0
    geometry = _resolve_sensor(spec_ref, sensor_sim.sensor_geometry_from_dict)  # no truth cubics
    dataset = characterize.ingest_log(in_csv, geometry)
    bundle = characterize.calibrate(dataset)
    rs = map(estimate.default_measurement_variance, bundle.models, bundle.report.wipers)
    bundle = bundle.with_filter_params({**params, **dict(zip(characterize.variance_keys(len(bundle.models)), rs))})
    config = {"kind": bundle.sensor_kind, "filter": bundle.filter_params}
    manifest = run_manifest("calibrate", {"log": in_csv}, (out,), None, config)
    characterize.save_bundle(bundle, out, manifest=manifest)


def run_estimate(model_json: str, readings_csv: str, out: str) -> None:
    """``estimate``: run the filter offline over a logged reading stream.

    A readings log carries no availability flag, so every logged reading
    is marked available: a wiper riding its gap reports a rail count, and
    only the counts its wiper admits (the wheel's valid ranges, the tilt
    model's window) keep it out of the update.

    The filter steps once per row, keeping each row's mean, variance and
    feature count in flat columns; the trace then goes out through
    :func:`~paintpot.errors.write_csv` a block of rows at a time, each
    distinct variance formatted once.
    """
    bundle = characterize.load_bundle(model_json)
    tm = estimate.transition_from_bundle(bundle)
    sigma0 = number_at({"filter": bundle.filter_params}, "filter.sigma0", estimate.DEFAULT_SIGMA0, low="> 0")
    header = ["t", *(f"v{i}" for i in range(len(bundle.models))), "omega"]
    columns = characterize.read_columns(readings_csv, header, bundle.adc_max, "readings")
    t, *counts, omega = (column.tolist() for column in columns)
    obs = estimate.observation_from_bundle(bundle)
    inputs = {"model": model_json, "readings": readings_csv}
    manifest = run_manifest("estimate", inputs, (out,), None, characterize.bundle_to_dict(bundle))
    # One (wiper, count, available) reading per wiper and logged count, shared by every row with it.
    by_count = [
        list(zip(repeat(wiper), range(max(column) + 1), repeat(True))) for wiper, column in enumerate(counts)
    ]
    readings = zip(*(map(table.__getitem__, column) for table, column in zip(by_count, counts)))
    estimator = (estimate.WheelEstimator if obs.wrap else estimate.TiltEstimator)(obs, tm, sigma0)
    first = next(readings)
    (mu, sigma), n = estimator.initialize(first), len(t)  # no per-row belief outlives its step
    mus, sigmas, n_features = [mu] * n, [sigma] * n, [len(estimate.extract_features(first, obs))] * n
    steps = enumerate(map(estimator.step, omega[1:], readings), 1)
    if obs.wrap:  # a wheel step reports a flag per wiper
        for row, ((mu, sigma), (used0, used1)) in steps:
            mus[row], sigmas[row], n_features[row] = mu, sigma, used0 + used1
    else:
        for row, ((mu, sigma), used) in steps:
            mus[row], sigmas[row], n_features[row] = mu, sigma, used
    sigma_text: dict[float, str] = {}  # the variance settles and repeats: format each value once
    digits = [str(n) for n in range(len(obs.wipers) + 1)]
    # Each text column replaces its number column, so the two are never both kept while writing.
    sigmas = [sigma_text.get(sigma) or sigma_text.setdefault(sigma, "%.17g" % sigma) for sigma in sigmas]
    n_features = list(map(digits.__getitem__, n_features))  # a bool indexes as 0 or 1
    write_csv(out, manifest, "t,mu,sigma,n_features", "%.17g,%.17g,%s,%s\n", [t, mus, sigmas, n_features])


def _resolve_experiment_config(ref: str) -> dict:
    if ref in presets.EXPERIMENT_PRESETS:
        return json.loads(json.dumps(presets.EXPERIMENT_PRESETS[ref]))
    return read_json(Path(ref))


# The keys an experiment config may hold: at its top level ("") and in each section read here.
_EXPERIMENT_KEYS = {
    "": ("kind", "sensor", "seed", "rate_hz", "transition", "sigma0", "plant_q", "trajectory", "controller",
         "models", "calibration"),
    "trajectory": ("x0", "xf", "t_total"),
    "controller": ("kp", "omega_max"),
    "transition": ("k", "q"),
    "calibration": ("rate_hz", "duration_s"),
}


def _experiment_from_dict(cfg: dict) -> trajectory.ExperimentConfig:
    """The run an experiment config describes; each number goes through
    :func:`~paintpot.errors.number_at`, and a key not in ``_EXPERIMENT_KEYS``
    is refused (:func:`~paintpot.errors.refuse_unknown_keys`)."""
    refuse_unknown_keys(cfg, _EXPERIMENT_KEYS, "experiment-config")
    with malformed("experiment config"):
        kind, sensor = cfg["kind"], sensor_sim.sensor_spec_from_dict(cfg["sensor"], "sensor.")
    seed = number_at(cfg, "seed", 0, integer=True, low=">= 0")
    rate_hz = number_at(cfg, "rate_hz", 100.0, low="> 0")
    tm = estimate.TransitionModel(
        k=number_at(cfg, "transition.k", estimate.DEFAULT_TRANSMISSION_RATIO),
        dt=1.0 / rate_hz,
        q=number_at(cfg, "transition.q", estimate.DEFAULT_PROCESS_NOISE, low=">= 0"),
    )
    sigma0 = number_at(cfg, "sigma0", estimate.DEFAULT_SIGMA0, low="> 0")
    plant_q = None if cfg.get("plant_q") is None else number_at(cfg, "plant_q")
    traj = trajectory.plan_quintic(
        number_at(cfg, "trajectory.x0"),
        number_at(cfg, "trajectory.xf"),
        number_at(cfg, "trajectory.t_total", low="> 0"),
    )
    gains = trajectory.ControllerGains(
        kp=number_at(cfg, "controller.kp", 6.0, low=">= 0"),
        omega_max=number_at(cfg, "controller.omega_max", 10.0, low="> 0"),
    )

    rate = number_at(cfg, "calibration.rate_hz", 14.0, low="> 0")
    duration = number_at(cfg, "calibration.duration_s", 50.0, low="> 0")
    if "models" in cfg:
        bundle = characterize.bundle_from_dict(object_at(cfg, "models"), "models.")
        # An inline filter value must be the one the run uses (dt within run_experiment's tolerance).
        runs_with = {"k": ("transition.k", tm.k, 0.0), "dt": ("1/rate_hz", tm.dt, 1e-9 * tm.dt),
                     "q": ("transition.q", tm.q, 0.0), "sigma0": ("sigma0", sigma0, 0.0)}
        for key, (path, value, tol) in runs_with.items():
            given = number_at(cfg, f"models.filter.{key}", value)
            if abs(given - value) > tol:
                raise SpecError(f"models.filter.{key} {given!r} differs from {path} {value!r}, which the run uses")
    else:
        sweep_rng = np.random.default_rng((seed, _SWEEP_STREAM))
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
    manifest = run_manifest("experiment", inputs, outputs, config.seed, cfg)
    # The summary echoes the config, so its text is made, and checked, before any output.
    summary = json_text({"manifest": manifest, "config": cfg, **result.summary_dict()}, config_ref)
    names = ("t", "theta_true", "theta_est", "theta_ref", "u_cmd", "f0_avail", "f1_avail")
    columns = [getattr(result, name).tolist() for name in names]
    write_csv(trace_path, manifest, ",".join(names), "%.17g," * 5 + "%d,%d\n", columns)
    write_text(summary_path, summary)  # last: its presence shows the run finished
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
