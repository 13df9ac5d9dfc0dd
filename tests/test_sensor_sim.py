import math
import re

import numpy as np
import pytest

from paintpot.cubic import CubicModel
from paintpot.errors import DomainError, SpecError
from paintpot.geometry import TILT_LIMIT, WHEEL_TRACKS
from paintpot.presets import (
    TILT_TRUTH,
    WHEEL_TRUTH_W0,
    reference_wheel_spec,
)
from paintpot.sensor_sim import (
    SensorSpec,
    WiperSpec,
    quantize,
    read_tilt,
    read_wheel,
    simulate_plant_step,
)

from oracles import bisect_root, cubic_value, wrap_brute

PI = math.pi

# Linear charts that cover each wiper's full shifted range.
LINEAR_W0 = CubicModel(0.0, 0.0, 2.0 * PI / 1023.0, -PI, (0.0, 1023.0))
LINEAR_W1 = CubicModel(0.0, 0.0, 2.0 * PI / 1023.0, -0.7 * PI, (0.0, 1023.0))
LINEAR_TILT = CubicModel(0.0, 0.0, PI / 1023.0, -PI / 2.0, (0.0, 1023.0))


def linear_wheel_spec(noise_std=0.0):
    wipers = tuple(map(WiperSpec, (LINEAR_W0, LINEAR_W1), WHEEL_TRACKS))
    return SensorSpec(wipers, noise_std=noise_std)


def tilt_spec(truth):
    return SensorSpec((WiperSpec(truth),), TILT_LIMIT, noise_std=0.0)


def reference_spec(noise_std=0.0):
    return reference_wheel_spec(noise_std=noise_std)


class TestWheelIdealVoltage:
    def test_gap_region_unavailable(self):
        assert linear_wheel_spec().wipers[0].voltage(0.75 * PI) is None

    def test_linear_truth_at_zero(self):
        v = linear_wheel_spec().wipers[0].voltage(0.0)
        assert v == pytest.approx(511.5, abs=1e-6)

    def test_reference_truth_matches_bisection_oracle(self):
        spec = reference_spec()
        v = spec.wipers[0].voltage(0.0)
        expected = bisect_root(
            lambda x: cubic_value(5.0281e-9, -1.2255e-5, 1.7856e-2, -7.2750, x) - 0.0,
            0.0,
            1023.0,
            tol=1e-12,
        )
        assert v == pytest.approx(expected, abs=1e-5)
        assert abs(WHEEL_TRUTH_W0.evaluate(v)) < 1e-9

    def test_out_of_domain_angle_raises(self):
        with pytest.raises(DomainError):
            read_wheel(1.5 * PI, linear_wheel_spec(), np.random.default_rng(0))

    def test_negative_pi_maps_to_pi(self):
        spec = linear_wheel_spec()
        a = read_wheel(-PI, spec, np.random.default_rng(0))
        assert a == read_wheel(PI, spec, np.random.default_rng(0))
        assert a[1].count == round(spec.wipers[1].voltage(PI))


class TestQuantize:
    @pytest.mark.parametrize(
        "noise_std,adc_max,message",
        [
            (0.0, 1000, "adc_max must be 2**bits - 1"),
            (0.0, 0, "adc_max must be 2**bits - 1"),
            (-1.0, 1000, "adc_max must be 2**bits - 1"),
            (-1.0, 1023, "noise_std must be >= 0"),
        ],
    )
    def test_invalid_settings_raise(self, noise_std, adc_max, message):
        with pytest.raises(SpecError, match=re.escape(message)):
            quantize(500.0, noise_std, np.random.default_rng(0), adc_max)

    def test_half_rounds_away_from_zero(self):
        rng = np.random.default_rng(0)
        assert quantize(511.5, 0.0, rng, 1023) == 512

    def test_clamps_below_zero(self):
        rng = np.random.default_rng(0)
        assert quantize(-3.2, 0.0, rng, 1023) == 0

    def test_clamps_above_max(self):
        rng = np.random.default_rng(0)
        assert quantize(2000.0, 0.0, rng, 1023) == 1023

    def test_noise_statistics(self):
        # Monte-Carlo oracle: mean stays at the input, std gains ~1/12
        # quantization variance on top of the injected noise.
        rng = np.random.default_rng(42)
        draws = np.array([quantize(511.5, 2.0, rng, 1023) for _ in range(100_000)])
        assert abs(draws.mean() - 511.5) < 0.05
        assert abs(draws.std() - 2.0) < 0.05
        assert draws.min() >= 0 and draws.max() <= 1023


class TestReadWheel:
    @pytest.mark.parametrize("theta", [1.5 * PI, -3.2, math.nan])
    def test_out_of_domain_angle_raises(self, theta):
        with pytest.raises(DomainError):
            read_wheel(theta, linear_wheel_spec(), np.random.default_rng(0))

    def test_negative_pi_reads_as_pi(self):
        spec = reference_spec(noise_std=1.0)
        assert read_wheel(-PI, spec, np.random.default_rng(4)) == read_wheel(
            PI, spec, np.random.default_rng(4)
        )

    def test_center_has_both_wipers(self):
        r0, r1 = read_wheel(0.0, linear_wheel_spec(), np.random.default_rng(0))
        assert r0.available and r1.available

    def test_negative_gap_drops_wiper1(self):
        r0, r1 = read_wheel(-0.75 * PI, linear_wheel_spec(), np.random.default_rng(0))
        assert r0.available
        assert not r1.available

    def test_pi_boundary_has_both_wipers(self):
        r0, r1 = read_wheel(PI, linear_wheel_spec(), np.random.default_rng(0))
        assert r0.available and r1.available

    def test_noiseless_reads_are_deterministic(self):
        spec = reference_spec()
        a = read_wheel(0.3, spec, np.random.default_rng(1))
        b = read_wheel(0.3, spec, np.random.default_rng(99))
        assert a == b

    def test_at_least_one_wiper_available_everywhere(self):
        spec = reference_spec()
        thetas = np.linspace(-PI, PI, 10_000, endpoint=True)[1:]
        rng = np.random.default_rng(3)
        for theta in thetas:
            r0, r1 = read_wheel(float(theta), spec, rng)
            assert r0.available or r1.available


class TestReadTilt:
    def test_linear_center(self):
        spec = tilt_spec(LINEAR_TILT)
        reading = read_tilt(0.0, spec, np.random.default_rng(0))
        assert reading.count == 512  # 511.5 rounded half away from zero
        assert reading.available

    def test_linear_lower_endpoint(self):
        spec = tilt_spec(LINEAR_TILT)
        assert read_tilt(-PI / 2.0, spec, np.random.default_rng(0)).count == 0

    def test_reference_truth_matches_bisection_oracle(self):
        spec = tilt_spec(TILT_TRUTH)
        reading = read_tilt(0.5, spec, np.random.default_rng(0))
        expected = bisect_root(
            lambda x: cubic_value(4.7517e-9, -8.7608e-6, 8.6756e-3, -2.7173, x) - 0.5,
            0.0,
            1023.0,
            tol=1e-12,
        )
        assert reading.count == round(expected)

    def test_out_of_range_raises(self):
        spec = tilt_spec(LINEAR_TILT)
        with pytest.raises(DomainError):
            read_tilt(1.7, spec, np.random.default_rng(0))


class TestSimulatePlantStep:
    def test_rest_stays_at_rest(self):
        step = simulate_plant_step(0.0, 0.0, 0.1, 0.01, 0.0, np.random.default_rng(0))
        assert step.theta == 0.0
        assert not step.saturated

    def test_euler_step_without_noise(self):
        step = simulate_plant_step(0.0, 1.0, 0.1, 0.01, 0.0, np.random.default_rng(0))
        assert step.theta == pytest.approx(0.001, abs=1e-15)

    def test_wraps_at_seam(self):
        theta0 = PI - 0.0005
        step = simulate_plant_step(theta0, 1.0, 0.1, 0.01, 0.0, np.random.default_rng(0))
        assert step.theta == pytest.approx(wrap_brute(theta0 + 0.001), abs=1e-12)
        assert step.theta < 0.0

    def test_affine_in_omega_without_noise(self):
        # Power-of-two omega scaling keeps the float arithmetic exact, so
        # affinity can be asserted bit-for-bit.
        rng = np.random.default_rng(0)
        base = simulate_plant_step(0.25, 0.5, 0.125, 0.0625, 0.0, rng).theta - 0.25
        doubled = simulate_plant_step(0.25, 1.0, 0.125, 0.0625, 0.0, rng).theta - 0.25
        assert doubled == 2.0 * base

    def test_tilt_clamps_and_flags(self):
        step = simulate_plant_step(
            PI / 2.0 - 1e-4, 10.0, 1.0, 0.01, 0.0, np.random.default_rng(0), TILT_LIMIT
        )
        assert step.theta == PI / 2.0
        assert step.saturated
