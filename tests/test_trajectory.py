import math

import numpy as np
import pytest

from paintpot.characterize import FitReport, ModelBundle, compute_valid_ranges
from paintpot.errors import SpecError
from paintpot.estimate import TransitionModel, observation_from_bundle
from paintpot.presets import (
    TILT_TRUTH,
    WHEEL_TRUTH_W0,
    WHEEL_TRUTH_W1,
    reference_tilt_spec,
    reference_wheel_spec,
)
from paintpot.trajectory import (
    ControllerGains,
    ExperimentConfig,
    control_step,
    plan_quintic,
    run_experiment,
    sample,
)

from oracles import quintic_coefficients, wrap_brute

PI = math.pi


class TestPlanQuintic:
    def test_null_motion_is_all_zero(self):
        traj = plan_quintic(0.0, 0.0, 2.0)
        assert (traj.a0, traj.a1, traj.a2, traj.a3, traj.a4, traj.a5) == (0.0,) * 6

    def test_unit_move_coefficients(self):
        traj = plan_quintic(0.0, 1.0, 1.0)
        assert (traj.a3, traj.a4, traj.a5) == (10.0, -15.0, 6.0)
        assert (traj.a0, traj.a1, traj.a2) == (0.0, 0.0, 0.0)

    def test_matches_boundary_system_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            x0, xf = rng.uniform(-2.0 * PI, 2.0 * PI, 2)
            t_total = float(rng.uniform(0.2, 10.0))
            traj = plan_quintic(float(x0), float(xf), t_total)
            want = quintic_coefficients(float(x0), float(xf), t_total)
            got = [traj.a0, traj.a1, traj.a2, traj.a3, traj.a4, traj.a5]
            assert np.allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_midpoint_symmetry(self):
        traj = plan_quintic(-0.7, 1.9, 3.3)
        assert traj.position(3.3 / 2.0) == pytest.approx((1.9 - 0.7) / 2.0, abs=1e-12)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(SpecError):
            plan_quintic(0.0, 1.0, 0.0)


class TestSample:
    def test_start(self):
        traj = plan_quintic(0.3, 1.1, 2.0)
        assert sample(traj, 0.0) == (0.3, 0.0)

    def test_end_and_beyond(self):
        traj = plan_quintic(0.3, 1.1, 2.0)
        assert sample(traj, 2.0) == (1.1, 0.0)
        assert sample(traj, 99.0) == (1.1, 0.0)

    def test_midpoint_of_unit_move(self):
        traj = plan_quintic(0.0, 1.0, 1.0)
        pos, vel = sample(traj, 0.5)
        assert pos == 0.5
        assert vel == 1.875

    def test_reference_is_monotone(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            x0, xf = rng.uniform(-PI, PI, 2)
            traj = plan_quintic(float(x0), float(xf), float(rng.uniform(0.5, 8.0)))
            positions = [sample(traj, t)[0] for t in np.linspace(0, traj.t_total, 501)]
            diffs = np.diff(positions)
            sign = math.copysign(1.0, xf - x0) if xf != x0 else 0.0
            assert np.all(sign * diffs >= 0.0)


class TestControlStep:
    def test_zero_error_zero_feedforward(self):
        tm = TransitionModel(k=0.5, dt=0.01, q=0.0)
        assert control_step(0.4, 0.4, 0.0, ControllerGains(kp=2.0), tm) == 0.0

    def test_proportional_arithmetic(self):
        tm = TransitionModel(k=0.5, dt=0.01, q=0.0)
        omega = control_step(0.0, 0.1, 0.0, ControllerGains(kp=2.0), tm)
        assert omega == pytest.approx(0.4, abs=1e-15)

    def test_wheel_error_wraps_across_seam(self):
        tm = TransitionModel(k=1.0, dt=0.01, q=0.0)
        omega = control_step(0.95 * PI, -0.95 * PI, 0.0, ControllerGains(kp=1.0), tm)
        assert omega == pytest.approx(wrap_brute(-0.95 * PI - 0.95 * PI), abs=1e-12)
        assert omega == pytest.approx(0.1 * PI, abs=1e-9)

    def test_tilt_error_is_plain_difference(self):
        tm = TransitionModel(k=1.0, dt=0.01, q=0.0)
        omega = control_step(1.2, -1.2, 0.0, ControllerGains(kp=1.0), tm, wrap=False)
        assert omega == pytest.approx(-2.4, abs=1e-12)

    def test_saturates_at_omega_max(self):
        tm = TransitionModel(k=0.01, dt=0.01, q=0.0)
        gains = ControllerGains(kp=10.0, omega_max=5.0)
        assert control_step(0.0, 3.0, 0.0, gains, tm) == 5.0
        assert control_step(3.0, 0.0, 0.0, gains, tm) == -5.0


def wheel_config(seed=0, noise_std=1.0, plant_q=0.02, x0=PI, xf=0.0):
    spec = reference_wheel_spec(noise_std=noise_std)
    ranges = compute_valid_ranges(WHEEL_TRUTH_W0, WHEEL_TRUTH_W1)
    r = 1e-4 if noise_std > 0 else 2.5e-5
    truth = (WHEEL_TRUTH_W0, WHEEL_TRUTH_W1)
    obs = observation_from_bundle(ModelBundle("wheel", truth, ranges, FitReport(()), 1023, {"r0": r, "r1": r}))
    tm = TransitionModel(k=0.2, dt=0.01, q=0.05)
    return ExperimentConfig(
        sensor=spec,
        obs=obs,
        tm=tm,
        traj=plan_quintic(x0, xf, 5.0),
        gains=ControllerGains(kp=6.0, omega_max=12.0),
        rate_hz=100.0,
        seed=seed,
        plant_q=plant_q,
        sigma0=1e-4,
    )


class TestRunExperiment:
    def test_zero_noise_loop_tracks_tightly(self):
        config = wheel_config(noise_std=0.0, plant_q=0.0)
        result = run_experiment(config)
        assert result.avg_abs_error < 0.01

    def test_same_seed_is_bit_identical(self):
        a = run_experiment(wheel_config(seed=5))
        b = run_experiment(wheel_config(seed=5))
        assert np.array_equal(a.theta_est, b.theta_est)
        assert np.array_equal(a.theta_true, b.theta_true)
        assert np.array_equal(a.u_cmd, b.u_cmd)

    def test_wiper0_gap_is_contiguous_and_estimate_stays_smooth(self):
        result = run_experiment(wheel_config(seed=3))
        unavailable = ~result.f0_avail
        assert unavailable.any()
        # Longest unavailable run covers the gap transit.
        best, current = 0, 0
        for flag in unavailable:
            current = current + 1 if flag else 0
            best = max(best, current)
        assert best >= 10
        assert float(result.estimate_step_jumps().max()) < 0.05

    def test_kind_mismatch_rejected(self):
        config = wheel_config()
        bad = ExperimentConfig(
            sensor=reference_tilt_spec(),
            obs=config.obs,
            tm=config.tm,
            traj=config.traj,
            gains=config.gains,
            rate_hz=config.rate_hz,
            seed=0,
        )
        with pytest.raises(SpecError):
            run_experiment(bad)

    def test_observation_model_of_the_other_joint_rejected(self):
        config = wheel_config()
        tilt = ModelBundle("tilt", (TILT_TRUTH,), (), FitReport(()), 1023, {"r": 1e-4})
        bad = ExperimentConfig(
            sensor=config.sensor,
            obs=observation_from_bundle(tilt),
            tm=config.tm,
            traj=config.traj,
            gains=config.gains,
            rate_hz=config.rate_hz,
            seed=0,
        )
        with pytest.raises(SpecError, match="does not match"):
            run_experiment(bad)

    def test_rate_and_dt_must_agree(self):
        config = wheel_config()
        bad = ExperimentConfig(
            sensor=config.sensor,
            obs=config.obs,
            tm=TransitionModel(k=0.2, dt=0.02, q=0.05),
            traj=config.traj,
            gains=config.gains,
            rate_hz=100.0,
            seed=0,
        )
        with pytest.raises(SpecError):
            run_experiment(bad)
