"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from paintpot import cli
from paintpot.characterize import (
    FitReport,
    ModelBundle,
    calibrate,
    compute_valid_ranges,
    invert_cubic,
)
from paintpot.cubic import CubicModel
from paintpot.estimate import (
    Feature,
    GaussianBelief,
    TransitionModel,
    extract_features,
    observation_from_bundle,
    predict,
    update_tilt,
    update_wheel,
)
from paintpot.geometry import WHEEL_TRACKS
from paintpot.presets import (
    TILT_TRUTH,
    WHEEL_TRUTH_W0,
    WHEEL_TRUTH_W1,
    reference_tilt_spec,
    reference_wheel_spec,
)
from paintpot.sensor_sim import AdcReading, read_wheel
from paintpot.trajectory import plan_quintic, sample

from oracles import five_region_shifted_states, grid_bayes_posterior

PI = math.pi
TWO_PI = 2.0 * math.pi


def _report(number, name):
    print(f"\n[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_filter_matches_grid_bayes_oracle():
    # One predict+update cycle per mode (wheel single, wheel dual, tilt)
    # against a brute-force grid posterior, 1e-6 relative, 100 cases, <10 s.
    rng = np.random.default_rng(1001)
    tilt_chart = CubicModel(0.0, 0.0, 2.0**-8, -1.0, (0.0, 1023.0))
    started = time.perf_counter()
    for case in range(100):
        mode = ("wheel_single", "wheel_dual", "tilt")[case % 3]
        sigma = float(10.0 ** rng.uniform(-4.0, -2.0))
        mu = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.2))
        k = float(rng.uniform(0.05, 0.5))
        dt = float(rng.uniform(0.005, 0.02))
        q = float(10.0 ** rng.uniform(-3.0, -1.0))
        u = float(rng.uniform(-1.0, 1.0))
        tm = TransitionModel(k=k, dt=dt, q=q)
        belief = GaussianBelief(mu, sigma)

        # Oracle prior, recomputed from the Gaussian-sum identity rather
        # than taken from the code under test.
        mu_bar = mu + k * dt * u
        sigma_bar = sigma + dt * dt * q

        bar = predict(belief, u, tm)

        if mode == "tilt":
            count = int(np.clip(round((mu_bar + rng.normal(0.0, 0.05) + 1.0) * 256.0), 1, 1022))
            z = float(tilt_chart.evaluate(count))
            r = float(10.0 ** rng.uniform(-4.0, -2.0))
            bundle = ModelBundle((None,), (tilt_chart,), (), FitReport(()), 1023, {"r": r})
            obs = observation_from_bundle(bundle)
            posterior, accepted = update_tilt(bar, AdcReading(0, count, True), obs)
            assert accepted
            zs, rs = [z], [obs.wipers[0].r]
        else:
            n_feats = 1 if mode == "wheel_single" else 2
            zs, rs, feats = [], [], []
            for i in range(n_feats):
                r = float(10.0 ** rng.uniform(-4.0, -2.0))
                z = mu_bar + float(rng.uniform(-2.0, 2.0)) * math.sqrt(sigma_bar + r)
                zs.append(z)
                rs.append(r)
                feats.append(Feature(i, z, r))
            z_bars = [WHEEL_TRACKS[f.index].shift(bar.mu) for f in feats]
            posterior = update_wheel(bar, feats, z_bars)

        mean, var = grid_bayes_posterior(mu_bar, sigma_bar, zs, rs, n_points=1_000_000)
        assert posterior.mu == pytest.approx(mean, rel=1e-6)
        assert posterior.sigma == pytest.approx(var, rel=1e-6)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s"
    _report(1, "filter-oracle equivalence")


def test_criterion_2_dual_update_equals_sequential_updates():
    rng = np.random.default_rng(1002)
    for _ in range(1000):
        sigma = float(10.0 ** rng.uniform(-5.0, -1.0))
        mu = float(rng.uniform(-1.5, 1.5))
        r0 = float(10.0 ** rng.uniform(-5.0, -1.0))
        r1 = float(10.0 ** rng.uniform(-5.0, -1.0))
        z0 = mu + float(rng.normal(0.0, math.sqrt(sigma + r0)))
        z1 = mu + float(rng.normal(0.0, math.sqrt(sigma + r1)))
        belief = GaussianBelief(mu, sigma)
        dual = update_wheel(belief, [Feature(0, z0, r0), Feature(1, z1, r1)], [mu, mu])
        first = update_wheel(belief, [Feature(0, z0, r0)], [mu])
        seq = update_wheel(
            first, [Feature(1, z1, r1)], [WHEEL_TRACKS[1].shift(first.mu)]
        )
        assert dual.mu == pytest.approx(seq.mu, rel=1e-12, abs=1e-12)
        assert dual.sigma == pytest.approx(seq.sigma, rel=1e-12)
    _report(2, "sequential-fusion equivalence")


def test_criterion_3_characterization_round_trip():
    rng = np.random.default_rng(1003)
    wheel_spec = reference_wheel_spec(noise_std=1.0)
    ds = cli.synthesize_sweep_dataset(wheel_spec, 14.0, 50.0, rng)
    bundle = calibrate(ds)
    for model, truth in zip(bundle.models, (WHEEL_TRUTH_W0, WHEEL_TRUTH_W1)):
        grid = np.linspace(model.v_window[0], model.v_window[1], 2000)
        deviation = float(np.max(np.abs(model.evaluate(grid) - truth.evaluate(grid))))
        assert deviation < 0.02, f"fitted wheel curve off truth by {deviation:.4f} rad"
        lo, hi = model.angle_range()
        for theta in np.linspace(lo, hi, 200):
            v = invert_cubic(model, float(theta))
            assert abs(float(model.evaluate(v)) - theta) < 1e-9

    tilt_spec = reference_tilt_spec(noise_std=1.0)
    tds = cli.synthesize_sweep_dataset(tilt_spec, 14.0, 50.0, rng)
    tbundle = calibrate(tds)
    model = tbundle.models[0]
    grid = np.linspace(model.v_window[0], model.v_window[1], 2000)
    deviation = float(np.max(np.abs(model.evaluate(grid) - TILT_TRUTH.evaluate(grid))))
    assert deviation < 0.02, f"fitted tilt curve off truth by {deviation:.4f} rad"
    lo, hi = model.angle_range()
    for theta in np.linspace(lo, hi, 200):
        v = invert_cubic(model, float(theta))
        assert abs(float(model.evaluate(v)) - theta) < 1e-9
    _report(3, "characterization round trip")


def test_criterion_4_feature_availability_and_branch_structure():
    spec = reference_wheel_spec(noise_std=0.0)
    ranges = compute_valid_ranges(WHEEL_TRUTH_W0, WHEEL_TRUTH_W1)
    params = {"r0": 1e-4, "r1": 1e-4}
    truth = (WHEEL_TRUTH_W0, WHEEL_TRUTH_W1)
    obs = observation_from_bundle(ModelBundle(WHEEL_TRACKS, truth, ranges, FitReport(()), 1023, params))
    rng = np.random.default_rng(1004)
    thetas = np.linspace(-PI, PI, 10_000, endpoint=True)[1:]
    for theta in thetas:
        readings = read_wheel(float(theta), spec, rng.normal(0.0, spec.noise_std, 2))
        assert len(extract_features(readings, obs)) >= 1

    # One interior point per region of the five-branch structure.
    interior = [-0.95 * PI, -0.75 * PI, 0.0, 0.75 * PI, 0.95 * PI]
    for theta in interior:
        expected = five_region_shifted_states(theta)
        readings = read_wheel(theta, spec, rng.normal(0.0, spec.noise_std, 2))
        features = {f.index: f for f in extract_features(readings, obs)}
        for wiper, want in enumerate(expected):
            if want is None:
                assert wiper not in features
            else:
                assert wiper in features
                assert features[wiper].z == pytest.approx(want, abs=0.02)
                assert WHEEL_TRACKS[wiper].shift(theta) == pytest.approx(
                    want, abs=1e-12
                )
    _report(4, "feature availability / five-region structure")


@pytest.mark.parametrize(
    "preset,threshold,expect_wiper0_gap",
    [
        ("pan_pi_to_0", 0.09, True),
        ("pan_negpi_to_0", 0.08, False),
        ("tilt_sweep", 0.04, False),
    ],
)
def test_criterion_5_experiment_replicas(tmp_path, preset, threshold, expect_wiper0_gap):
    started = time.perf_counter()
    result = cli.run_experiment_command(preset, str(tmp_path / preset))
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"{preset} took {elapsed:.1f}s"
    assert result.avg_abs_error <= threshold, (
        f"{preset}: avg error {result.avg_abs_error:.4f} above {threshold}"
    )
    summary = json.loads((tmp_path / f"{preset}_summary.json").read_text())
    assert summary["avg_abs_error"] == result.avg_abs_error

    if expect_wiper0_gap:
        unavailable = ~result.f0_avail
        best = current = 0
        for flag in unavailable:
            current = current + 1 if flag else 0
            best = max(best, current)
        assert best >= 10, "wiper-0 feature never dropped out across the gap"
        jumps = result.estimate_step_jumps()
        assert float(jumps.max()) < 0.05, f"estimate jumped {float(jumps.max()):.4f} rad"
    _report(5, f"experiment replica {preset}")


def test_criterion_6_quintic_boundary_conditions_and_monotonicity():
    rng = np.random.default_rng(1006)
    for _ in range(1000):
        x0 = float(rng.uniform(-2.0 * PI, 2.0 * PI))
        xf = float(rng.uniform(-2.0 * PI, 2.0 * PI))
        t_total = float(rng.uniform(0.2, 10.0))
        traj = plan_quintic(x0, xf, t_total)
        assert abs(traj.position(0.0) - x0) < 1e-9
        assert abs(traj.velocity(0.0)) < 1e-9
        assert abs(traj.acceleration(0.0)) < 1e-9
        assert abs(traj.position(t_total) - xf) < 1e-9
        assert abs(traj.velocity(t_total)) < 1e-9
        assert abs(traj.acceleration(t_total)) < 1e-9
        positions = [sample(traj, float(t))[0] for t in np.linspace(0.0, t_total, 101)]
        diffs = np.diff(positions)
        sign = math.copysign(1.0, xf - x0) if xf != x0 else 0.0
        assert np.all(sign * diffs >= 0.0)
    _report(6, "quintic invariants")


def test_criterion_7_variance_laws():
    rng = np.random.default_rng(1007)
    for _ in range(10_000):
        sigma = float(10.0 ** rng.uniform(-6.0, 0.0))
        mu = float(rng.uniform(-1.5, 1.5))
        tm = TransitionModel(
            k=float(rng.uniform(0.05, 1.0)),
            dt=float(rng.uniform(0.001, 0.05)),
            q=float(10.0 ** rng.uniform(-4.0, 0.0)),
        )
        belief = GaussianBelief(mu, sigma)
        bar = predict(belief, float(rng.uniform(-3.0, 3.0)), tm)
        # Bit-exact: prediction adds exactly u_gain^2 * q, independent of u.
        assert bar.sigma == belief.sigma + tm.u_gain * tm.u_gain * tm.q

        n_features = int(rng.integers(0, 3))
        features = [
            Feature(
                i,
                bar.mu + float(rng.normal(0.0, 0.01)),
                float(10.0 ** rng.uniform(-6.0, 0.0)),
            )
            for i in range(n_features)
        ]
        z_bars = [WHEEL_TRACKS[f.index].shift(bar.mu) for f in features]
        posterior = update_wheel(bar, features, z_bars)
        if n_features == 0:
            assert posterior.sigma == bar.sigma
        else:
            assert posterior.sigma < bar.sigma
    _report(7, "variance laws")


def test_criterion_8_cli_byte_determinism(tmp_path):
    def rerun_identical(argv, outputs):
        blobs = []
        for _ in range(2):
            assert cli.main(argv) == 0
            blobs.append([Path(p).read_bytes() for p in outputs])
        assert blobs[0] == blobs[1], f"outputs differ across reruns: {argv}"

    sweep_csv = tmp_path / "sweep.csv"
    rerun_identical(
        ["sweep", "--spec", "wheel_reference", "--out", str(sweep_csv), "--seed", "7"],
        [sweep_csv],
    )

    bundle_json = tmp_path / "bundle.json"
    rerun_identical(
        ["calibrate", "--in", str(sweep_csv), "--kind", "wheel", "--out", str(bundle_json),
         "--k", "0.2", "--dt", "0.01"],
        [bundle_json],
    )

    readings_csv = tmp_path / "readings.csv"
    spec = reference_wheel_spec(noise_std=1.0)
    rng = np.random.default_rng(77)
    with open(readings_csv, "w", newline="\n") as handle:
        handle.write("t,v0,v1,omega\n")
        for i in range(100):
            r0, r1 = read_wheel(0.5 + 0.001 * i, spec, rng.normal(0.0, spec.noise_std, 2))
            handle.write(f"{i * 0.01:.17g},{r0.count},{r1.count},0.5\n")
    trace_csv = tmp_path / "trace.csv"
    rerun_identical(
        ["estimate", "--model", str(bundle_json), "--readings", str(readings_csv),
         "--out", str(trace_csv)],
        [trace_csv],
    )

    prefix = tmp_path / "exp"
    rerun_identical(
        ["experiment", "--config", "pan_pi_to_0", "--out-prefix", str(prefix)],
        [tmp_path / "exp_trace.csv", tmp_path / "exp_summary.json"],
    )
    _report(8, "CLI determinism")
