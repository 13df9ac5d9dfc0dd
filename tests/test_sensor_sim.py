import bisect
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paintpot.cubic import CubicModel
from paintpot.errors import DomainError, InversionError, SpecError
from paintpot.geometry import TILT_LIMIT, WHEEL_TRACKS, Interval, WiperTrack
from paintpot.presets import (
    TILT_TRUTH,
    WHEEL_TRUTH_W0,
    WHEEL_TRUTH_W1,
    reference_tilt_spec,
    reference_wheel_spec,
)
from paintpot.sensor_sim import (
    SensorSpec,
    WiperSpec,
    quantize,
    read,
    read_tilt,
    read_wheel,
    sensor_spec_from_dict,
    sensor_spec_to_dict,
    simulate_plant_step,
)

from oracles import (
    bisect_root,
    cubic_value,
    invert_cubic_reference,
    read_reference,
    wiper_voltage,
    wrap_brute,
)

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


def draws(seed, spec):
    """The count-noise draws one read of ``spec`` made from a fresh seeded rng."""
    return np.random.default_rng(seed).normal(0.0, spec.noise_std, len(spec.wipers)).tolist()


def noiseless(width):
    """The ``width`` draws a fresh ``default_rng(0)`` makes at scale 0."""
    return np.random.default_rng(0).normal(0.0, 0.0, width).tolist()


class TestWheelIdealVoltage:
    def test_gap_region_unavailable(self):
        assert wiper_voltage(linear_wheel_spec().wipers[0], 0.75 * PI) is None

    def test_linear_truth_at_zero(self):
        v = wiper_voltage(linear_wheel_spec().wipers[0], 0.0)
        assert v == pytest.approx(511.5, abs=1e-6)

    def test_reference_truth_matches_bisection_oracle(self):
        spec = reference_spec()
        v = wiper_voltage(spec.wipers[0], 0.0)
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
            read_wheel(1.5 * PI, linear_wheel_spec(), noiseless(2))

    def test_negative_pi_maps_to_pi(self):
        spec = linear_wheel_spec()
        a = read_wheel(-PI, spec, noiseless(2))
        assert a == read_wheel(PI, spec, noiseless(2))
        _, (_, count, _) = a
        assert count == round(wiper_voltage(spec.wipers[1], PI))


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
        # SensorSpec checks both settings, adc_max first; quantize, which
        # takes drawn noise, checks adc_max.
        with pytest.raises(SpecError, match=re.escape(message)):
            SensorSpec((WiperSpec(LINEAR_TILT),), TILT_LIMIT, adc_max=adc_max, noise_std=noise_std)
        if message.startswith("adc_max"):
            with pytest.raises(SpecError, match=re.escape(message)):
                quantize(500.0, adc_max)

    def test_half_rounds_away_from_zero(self):
        assert quantize(511.5 + noiseless(1)[0], 1023) == 512

    def test_clamps_below_zero(self):
        assert quantize(-3.2 + noiseless(1)[0], 1023) == 0

    def test_clamps_above_max(self):
        assert quantize(2000.0 + noiseless(1)[0], 1023) == 1023

    @pytest.mark.parametrize("adc_max", [1, 1023])
    def test_rounding_edges_match_half_away_from_zero_then_clamp(self, adc_max):
        # The rounding rule as written before quantize rounded half up.
        def reference(voltage):
            rounded = math.floor(voltage + 0.5) if voltage >= 0.0 else math.ceil(voltage - 0.5)
            return min(max(rounded, 0), adc_max)

        edges = [-1.5, -0.5, -0.0, 0.0, 0.5, 1.5, adc_max - 0.5, adc_max + 0.5, adc_max + 1.5, 1e300, -1e300]
        for edge in edges:
            for voltage in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)):
                assert quantize(voltage, adc_max) == reference(voltage)
        assert quantize(math.inf, adc_max) == adc_max and quantize(-math.inf, adc_max) == 0
        with pytest.raises(ValueError):
            quantize(math.nan, adc_max)

    def test_noise_statistics(self):
        # Monte-Carlo oracle: mean stays at the input, std gains ~1/12
        # quantization variance on top of the injected noise.
        rng = np.random.default_rng(42)
        draws = np.array([quantize(511.5 + rng.normal(0.0, 2.0), 1023) for _ in range(100_000)])
        assert abs(draws.mean() - 511.5) < 0.05
        assert abs(draws.std() - 2.0) < 0.05
        assert draws.min() >= 0 and draws.max() <= 1023


class TestReadWheel:
    @pytest.mark.parametrize("theta", [1.5 * PI, -3.2, math.nan])
    def test_out_of_domain_angle_raises(self, theta):
        with pytest.raises(DomainError):
            read_wheel(theta, linear_wheel_spec(), noiseless(2))

    def test_negative_pi_reads_as_pi(self):
        spec = reference_spec(noise_std=1.0)
        assert read_wheel(-PI, spec, draws(4, spec)) == read_wheel(PI, spec, draws(4, spec))

    def test_center_has_both_wipers(self):
        (_, _, available0), (_, _, available1) = read_wheel(0.0, linear_wheel_spec(), noiseless(2))
        assert available0 and available1

    def test_negative_gap_drops_wiper1(self):
        (_, _, available0), (_, _, available1) = read_wheel(-0.75 * PI, linear_wheel_spec(), noiseless(2))
        assert available0
        assert not available1

    def test_pi_boundary_has_both_wipers(self):
        (_, _, available0), (_, _, available1) = read_wheel(PI, linear_wheel_spec(), noiseless(2))
        assert available0 and available1

    def test_noiseless_reads_are_deterministic(self):
        spec = reference_spec()
        a = read_wheel(0.3, spec, draws(1, spec))
        b = read_wheel(0.3, spec, draws(99, spec))
        assert a == b

    def test_at_least_one_wiper_available_everywhere(self):
        spec = reference_spec()
        thetas = np.linspace(-PI, PI, 10_000, endpoint=True)[1:]
        rng = np.random.default_rng(3)
        for theta in thetas:
            (_, _, available0), (_, _, available1) = read_wheel(float(theta), spec, rng.normal(0.0, spec.noise_std, 2))
            assert available0 or available1


class TestReadTilt:
    def test_linear_center(self):
        spec = tilt_spec(LINEAR_TILT)
        _, count, available = read_tilt(0.0, spec, noiseless(1))
        assert count == 512  # 511.5 rounded half away from zero
        assert available

    def test_linear_lower_endpoint(self):
        spec = tilt_spec(LINEAR_TILT)
        _, count, _ = read_tilt(-PI / 2.0, spec, noiseless(1))
        assert count == 0

    def test_reference_truth_matches_bisection_oracle(self):
        spec = tilt_spec(TILT_TRUTH)
        _, count, _ = read_tilt(0.5, spec, noiseless(1))
        expected = bisect_root(
            lambda x: cubic_value(4.7517e-9, -8.7608e-6, 8.6756e-3, -2.7173, x) - 0.5,
            0.0,
            1023.0,
            tol=1e-12,
        )
        assert count == round(expected)

    def test_out_of_range_raises(self):
        spec = tilt_spec(LINEAR_TILT)
        with pytest.raises(DomainError):
            read_tilt(1.7, spec, noiseless(1))


class TestSimulatePlantStep:
    def test_rest_stays_at_rest(self):
        theta, saturated = simulate_plant_step(0.0, 0.0, 0.1, 0.01, noiseless(1)[0])
        assert theta == 0.0
        assert not saturated

    def test_euler_step_without_noise(self):
        theta, _ = simulate_plant_step(0.0, 1.0, 0.1, 0.01, noiseless(1)[0])
        assert theta == pytest.approx(0.001, abs=1e-15)

    def test_wraps_at_seam(self):
        theta0 = PI - 0.0005
        theta, _ = simulate_plant_step(theta0, 1.0, 0.1, 0.01, noiseless(1)[0])
        assert theta == pytest.approx(wrap_brute(theta0 + 0.001), abs=1e-12)
        assert theta < 0.0

    def test_affine_in_omega_without_noise(self):
        # Power-of-two omega scaling keeps the float arithmetic exact, so
        # affinity can be asserted bit-for-bit.
        rng = np.random.default_rng(0)
        base = simulate_plant_step(0.25, 0.5, 0.125, 0.0625, rng.normal(0.0, 0.0))[0] - 0.25
        doubled = simulate_plant_step(0.25, 1.0, 0.125, 0.0625, rng.normal(0.0, 0.0))[0] - 0.25
        assert doubled == 2.0 * base

    def test_tilt_clamps_and_flags(self):
        theta, saturated = simulate_plant_step(PI / 2.0 - 1e-4, 10.0, 1.0, 0.01, noiseless(1)[0], TILT_LIMIT)
        assert theta == PI / 2.0
        assert saturated


class TestBlockDraws:
    """Sweeps and runs draw their noise in one block; the outputs they write
    match one-draw-per-call outputs only while numpy keeps this property."""

    @pytest.mark.parametrize("loc", [0.0, -0.0])
    @pytest.mark.parametrize(
        "scales", [[1.0, 1.0], [math.sqrt(0.02), 1.0, 1.0], [0.0, 2.0], [0.0], [1.0, 0.0, 0.0]]
    )
    def test_block_draw_equals_successive_scalar_draws_bit_for_bit(self, scales, loc):
        # With loc -0.0 a zero scale yields -0.0 or 0.0 by the sign of the
        # underlying normal, so the byte comparison pins the sign of zero.
        n, width = 7, len(scales)
        for seed in range(5):
            block = np.random.default_rng(seed).normal(loc, scales, (n, width))
            rng = np.random.default_rng(seed)
            scalar = [rng.normal(loc, scale) for _ in range(n) for scale in scales]
            assert block.tobytes() == np.array(scalar).tobytes()
            assert np.asarray(block.tolist()).tobytes() == block.tobytes()

    def test_zero_scale_keeps_the_sign_of_a_negative_zero_loc(self):
        # The case above is only a sign-of-zero check if both signs occur.
        signs = np.signbit(np.random.default_rng(3).normal(-0.0, 0.0, 64))
        assert signs.any() and not signs.all()


# A wheel whose gaps are not the standard ones: wiper 0 blind over
# [1.5, 2.0] and turning down past 2.0, wiper 1 blind over [-2.9, -2.5]
# and turning up past -2.9.
ODD_GAPS = (WiperTrack(Interval(1.5, 2.0), -2.0 * PI), WiperTrack(Interval(-2.9, -2.5), 2.0 * PI))
REFERENCE_WHEEL_WIPERS = tuple(map(WiperSpec, (WHEEL_TRUTH_W0, WHEEL_TRUTH_W1), WHEEL_TRACKS))
# A 9-bit wheel, whose truths reach past its top count, and an 11-bit tilt
# stopping at +-1 rad: a read clamps its counts at each one's rails.
READ_SPECS = {
    "wheel": reference_wheel_spec(noise_std=2.0),
    "tilt": reference_tilt_spec(noise_std=2.0),
    "odd_gaps": SensorSpec(tuple(map(WiperSpec, (WHEEL_TRUTH_W0, WHEEL_TRUTH_W1), ODD_GAPS)), noise_std=2.0),
    "wheel_adc_511": SensorSpec(REFERENCE_WHEEL_WIPERS, adc_max=511, noise_std=2.0),
    "tilt_limit_1_adc_2047": SensorSpec((WiperSpec(TILT_TRUTH),), 1.0, adc_max=2047, noise_std=2.0),
}


def edge_angles(spec):
    """Each gap end (one of them the shift edge), +-pi and the tilt limits,
    each with its neighbouring floats."""
    if spec.wrap:
        edges = [end for wiper in spec.wipers for end in (wiper.track.gap.lo, wiper.track.gap.hi)]
        edges += [PI, -PI, 0.0]
    else:
        edges = [spec.angle_limit, -spec.angle_limit, 0.0]
    return [a for edge in edges for a in (math.nextafter(edge, -4.0), edge, math.nextafter(edge, 4.0))]


class TestReadMatchesReference:
    """``read`` equals ``oracles.read_reference`` (each wiper's voltage, then
    ``quantize``, then an ``(index, count, available)`` triple) reading for
    reading, error for error."""

    @settings(max_examples=400, deadline=None)
    @given(name=st.sampled_from(sorted(READ_SPECS)), data=st.data())
    def test_random_angles_and_draws(self, name, data):
        spec = READ_SPECS[name]
        theta = data.draw(st.one_of(
            st.sampled_from(edge_angles(spec)),
            st.floats(-PI, PI),
            st.floats(-4.0, 4.0),
            st.just(math.nan),
        ))
        noise = data.draw(st.lists(
            st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.5, -0.5, 0.0, -0.0]), st.floats(-2e3, 2e3)),
            min_size=len(spec.wipers), max_size=len(spec.wipers),
        ))
        if abs(theta) <= (PI if spec.wrap else spec.angle_limit) and data.draw(st.booleans()):
            # Draws that leave each wiper's count a hair from a rounding
            # boundary, so a voltage off by far less than a count shows.
            hair = data.draw(st.sampled_from([-1e-9, 1e-9]))
            for index, wiper in enumerate(spec.wipers):
                voltage = wiper_voltage(wiper, PI if theta == -PI else theta)
                if voltage is not None:
                    noise[index] = math.floor(voltage) + 0.5 - voltage + hair
        try:
            want = read_reference(theta, spec, noise)
        except DomainError as exc:
            with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
                read(theta, spec, noise)
            return
        got = read(theta, spec, noise)
        assert type(got) is tuple and got == want
        assert all(type(count) is int and type(available) is bool for _, count, available in got)

    @pytest.mark.parametrize("name", sorted(READ_SPECS))
    def test_every_edge_angle(self, name):
        spec = READ_SPECS[name]
        noise = [0.25] * len(spec.wipers)
        limit = PI if spec.wrap else spec.angle_limit
        reads = []
        for theta in edge_angles(spec):
            if abs(theta) <= limit:
                reads.append(read(theta, spec, noise))
                assert reads[-1] == read_reference(theta, spec, noise)
            else:
                with pytest.raises(DomainError):
                    read(theta, spec, noise)
        # On a wheel the angles reach into both gaps.
        for index in range(len(spec.wipers) if spec.wrap else 0):
            assert any(not available for _, _, available in (r[index] for r in reads))


def monotone_cubic(window, a, b, margin, half, center, falling):
    """A cubic on ``window`` that rises (or falls) by ``2*half`` about
    ``center``: ``a*u**3 + b*u**2 + c*u`` of ``u = (V - lo)/width``, with
    ``c`` chosen so the slope in ``u`` is at least ``margin``."""
    lo, hi = window
    width = hi - lo
    ends = [0.0, 3.0 * a + 2.0 * b] + ([-b * b / (3.0 * a)] if a and 0.0 < -b / (3.0 * a) < 1.0 else [])
    c = margin - min(ends)
    scale = 2.0 * half / (a + b + c)
    a3, a2, a1 = scale * a / width**3, scale * b / width**2, scale * c / width
    coefficients = (a3, a2 - 3.0 * a3 * lo, a1 - 2.0 * a2 * lo + 3.0 * a3 * lo * lo,
                    center - half - a1 * lo + a2 * lo * lo - a3 * lo**3)
    sign = -1.0 if falling else 1.0
    return CubicModel(*(sign * x for x in coefficients), window)


# theta = 2**-26 * (V - 512.25)**3: a slope of exactly 0 at V = 512.25,
# inside a knot interval, with every coefficient and the vertex exact.
FLAT_POINT = (2.0**-26, -3.0 * 2.0**-26 * 512.25, 3.0 * 2.0**-26 * 512.25**2, -(2.0**-26) * 512.25**3 + 0.1)
FLAT_CUBICS = [CubicModel(*(sign * x for x in FLAT_POINT), (0.0, 1023.0)) for sign in (1.0, -1.0)]

cubics = st.one_of(
    st.sampled_from(FLAT_CUBICS),
    st.builds(
        monotone_cubic,
        window=st.tuples(st.floats(-50.0, 50.0), st.floats(100.0, 1100.0)).map(lambda w: (w[0], w[0] + w[1])),
        a=st.floats(-1.0, 1.0), b=st.floats(-1.0, 1.0), margin=st.floats(0.01, 1.0),
        half=st.floats(0.2, 3.0), center=st.floats(-0.1, 0.1), falling=st.booleans(),
    ),
)


class TestReadTable:
    """A spec's read table, and its truths' charts and slacks, are built on
    its first read: a run that parses many specs builds none of them."""

    @pytest.mark.parametrize("preset", [reference_wheel_spec, reference_tilt_spec])
    def test_a_made_or_parsed_spec_builds_no_table_until_it_is_read(self, preset):
        data = sensor_spec_to_dict(preset())
        parsed = sensor_spec_from_dict(data)
        # Fresh cubics, which no other test has charted.
        made = SensorSpec(tuple(WiperSpec(CubicModel.from_dict(w.truth.to_dict(), "truth"), w.track)
                                for w in parsed.wipers), parsed.angle_limit)
        for spec in (parsed, made):
            truths = [wiper.truth for wiper in spec.wipers]
            assert "read_table" not in vars(spec)
            assert not any("chart" in vars(truth) or "slack" in vars(truth) for truth in truths)
            read(0.3, spec, [0.0] * len(truths))
            assert len(vars(spec)["read_table"]) == len(truths)
            assert all("chart" in vars(truth) and "slack" in vars(truth) for truth in truths)


class TestSlack:
    """A read takes each count from its chart's regula-falsi point wherever
    the interval's slack settles it; the count must be the one the
    inverted voltage makes."""

    @pytest.mark.parametrize("truth", [WHEEL_TRUTH_W0, WHEEL_TRUTH_W1, TILT_TRUTH])
    def test_reference_truths_have_finite_slack(self, truth):
        slack = truth.slack[-1]
        assert len(slack) == len(truth.chart[0]) and all(map(math.isfinite, slack[1:]))

    @pytest.mark.parametrize("truth", FLAT_CUBICS)
    def test_a_flat_point_has_infinite_slack(self, truth):
        knots, slack = truth.chart[0], truth.slack[-1]
        (k,) = [k for k in range(1, len(knots)) if knots[k - 1] < 512.25 < knots[k]]
        assert truth.derivative(512.25) == 0.0
        assert slack[k] == math.inf and all(map(math.isfinite, slack[1:k] + slack[k + 1:]))

    @settings(max_examples=300, deadline=None)
    @given(truth=cubics, data=st.data())
    def test_count_is_the_inverted_voltage_quantized(self, truth, data):
        spec = SensorSpec((WiperSpec(truth),), PI, noise_std=0.0)
        knots, angles = truth.chart
        low, high = truth.angle_range()
        ends = [x for end in (low, high) for x in (math.nextafter(end, -4.0), end, math.nextafter(end, 4.0))]
        for _ in range(4):
            theta = data.draw(st.one_of(
                st.sampled_from(angles), st.sampled_from(ends), st.floats(low, high),
                st.floats(low - 1e-3, high + 1e-3),
            ))
            try:
                voltage = invert_cubic_reference(truth, theta)
            except InversionError as exc:
                with pytest.raises(InversionError, match=f"^{re.escape(str(exc))}$"):
                    read_tilt(theta, spec, [0.0])
                continue
            hair = data.draw(st.sampled_from([-1e-9, 0.0, 1e-9, None]))
            draw = data.draw(st.floats(-3.0, 3.0)) if hair is None else math.floor(voltage) + 0.5 - voltage + hair
            _, count, _ = read_tilt(theta, spec, [draw])
            assert count == quantize(voltage + draw, spec.adc_max)
            sign, find, low_key, high_key, keys, _, slack = truth.slack
            key = sign * theta
            if low + 1e-6 < theta < high - 1e-6:
                assert low_key < key < high_key
            if low_key < key < high_key:
                # The bound itself: the regula-falsi point of the interval
                # the inversion brackets lies within its slack of the result.
                k = find(keys, key)
                rising = truth.derivative(truth.v_window[0]) > 0.0
                assert k == (bisect.bisect_right(angles, theta) if rising
                             else bisect.bisect_left(angles, -theta, key=operator.neg))
                assert keys[k - 1] <= key <= keys[k]
                f_lo = keys[k - 1] - key
                v = knots[k - 1] - f_lo * (knots[k] - knots[k - 1]) / (keys[k] - key - f_lo)
                assert abs(v - voltage) <= slack[k]
