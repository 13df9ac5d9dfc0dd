import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from paintpot.characterize import (
    CalibrationDataset,
    CalibrationSample,
    ValidRange,
    calibrate,
    compute_valid_ranges,
    fit_cubic,
    fit_report,
    ingest_log,
    invert_cubic,
    trim_and_shift,
)
from paintpot.cli import synthesize_sweep_dataset
from paintpot.cubic import CubicModel
from paintpot.errors import FitError, InversionError, SpecError
from paintpot.presets import WHEEL_TRUTH_W0, WHEEL_TRUTH_W1, reference_wheel_spec

from oracles import bisect_root, cubic_value, monotone_on_grid

PI = math.pi
TWO_PI = 2.0 * math.pi


def wheel_dataset(rows):
    samples = [CalibrationSample(t, th, v0, v1) for t, th, v0, v1 in rows]
    return CalibrationDataset.from_samples("wheel", samples)


class TestIngestLog:
    def test_parses_wheel_rows(self):
        csv = "t,theta,v0,v1\n0.0,0.1,500,510\n0.1,0.2,505,515\n0.2,0.3,511,520\n"
        ds = ingest_log(io.StringIO(csv), "wheel")
        assert len(ds) == 3
        assert ds.v1 is not None
        assert ds.theta[1] == pytest.approx(0.2)

    def test_count_out_of_range_names_line(self):
        csv = "t,theta,v0,v1\n0.0,0.1,500,510\n0.1,0.2,1500,515\n"
        with pytest.raises(SpecError, match="line 3"):
            ingest_log(io.StringIO(csv), "wheel")

    def test_tilt_without_v1_accepted(self):
        csv = "t,theta,v0\n0.0,-0.5,200\n0.1,0.0,500\n"
        ds = ingest_log(io.StringIO(csv), "tilt")
        assert ds.sensor_kind == "tilt"
        assert ds.v1 is None

    def test_decreasing_timestamp_rejected(self):
        csv = "t,theta,v0,v1\n0.0,0.1,500,510\n-0.1,0.2,505,515\n"
        with pytest.raises(SpecError, match="line 3"):
            ingest_log(io.StringIO(csv), "wheel")

    def test_wrong_header_rejected(self):
        csv = "time,angle,v0,v1\n0.0,0.1,500,510\n"
        with pytest.raises(SpecError, match="header"):
            ingest_log(io.StringIO(csv), "wheel")

    def test_comment_lines_skipped(self):
        csv = "# manifest {}\nt,theta,v0\n0.0,0.0,500\n"
        assert len(ingest_log(io.StringIO(csv), "tilt")) == 1

    def test_malformed_field_names_line(self):
        csv = "t,theta,v0,v1\n0.0,0.1,50x,510\n"
        with pytest.raises(SpecError, match="line 2"):
            ingest_log(io.StringIO(csv), "wheel")


class TestTrimAndShift:
    def test_high_segment_shifts_down_for_wiper0(self):
        ds = wheel_dataset([(0.0, 0.9 * PI, 900, 100), (0.1, 0.0, 500, 500)])
        w0, _ = trim_and_shift(ds)
        assert w0.theta[0] == pytest.approx(0.9 * PI - TWO_PI)
        assert w0.v[0] == 900

    def test_gap_samples_dropped_for_wiper0(self):
        ds = wheel_dataset([(0.0, 0.75 * PI, 850, 100), (0.1, 0.0, 500, 500)])
        w0, w1 = trim_and_shift(ds)
        assert len(w0.theta) == 1  # only the theta=0 sample survives
        assert w0.theta[0] == 0.0
        assert len(w1.theta) == 2

    def test_low_segment_shifts_up_for_wiper1(self):
        ds = wheel_dataset([(0.0, -0.9 * PI, 100, 80), (0.1, 0.0, 500, 500)])
        _, w1 = trim_and_shift(ds)
        assert w1.theta[0] == pytest.approx(-0.9 * PI + TWO_PI)
        assert w1.v[0] == 80

    def test_tilt_passes_through(self):
        samples = [CalibrationSample(0.0, -0.3, 200), CalibrationSample(0.1, 0.4, 700)]
        ds = CalibrationDataset.from_samples("tilt", samples)
        pairs = trim_and_shift(ds)
        assert len(pairs) == 1
        assert np.array_equal(pairs[0].theta, [-0.3, 0.4])

    def test_empty_partition_is_an_error(self):
        ds = wheel_dataset([(0.0, 0.75 * PI, 850, 100), (0.1, 0.8 * PI, 860, 120)])
        with pytest.raises(FitError, match="wiper 0"):
            trim_and_shift(ds)

    def test_noiseless_output_is_a_function_of_voltage(self):
        # Same count implies angles within one count's angle equivalent.
        spec = reference_wheel_spec(noise_std=0.0)
        ds = synthesize_sweep_dataset(spec, 14.0, 50.0, np.random.default_rng(2))
        grid = np.linspace(0.0, 1023.0, 2048)
        bound = float(np.max(np.abs(WHEEL_TRUTH_W0.derivative(grid)))) + 1e-12
        w0, _ = trim_and_shift(ds)
        by_count: dict[float, list[float]] = {}
        for theta, count in zip(w0.theta, w0.v):
            by_count.setdefault(count, []).append(theta)
        for thetas in by_count.values():
            assert max(thetas) - min(thetas) <= bound

    def test_noiseless_shifted_chart_is_continuous(self):
        # Sorted by voltage, jumps never exceed a few sweep steps: the
        # full-turn discontinuity is gone.  The floor guards against a
        # zero median from duplicated counts across the two passes.
        spec = reference_wheel_spec(noise_std=0.0)
        ds = synthesize_sweep_dataset(spec, 14.0, 50.0, np.random.default_rng(2))
        sweep_step = 2.0 * TWO_PI / len(ds)
        for pairs in trim_and_shift(ds):
            order = np.argsort(pairs.v, kind="stable")
            jumps = np.abs(np.diff(pairs.theta[order]))
            floor = max(float(np.median(jumps)), sweep_step)
            assert float(jumps.max()) <= 3.0 * floor


class TestFitCubic:
    def test_exact_recovery_from_noiseless_pairs(self):
        v = np.arange(0.0, 1001.0, 100.0)
        theta = 1e-9 * v**3 + 0.0 * v**2 + 0.003 * v - 1.5
        model = fit_cubic(theta, v)
        assert model.c3 == pytest.approx(1e-9, abs=1e-12)
        assert model.c2 == pytest.approx(0.0, abs=1e-12)
        assert model.c1 == pytest.approx(0.003, abs=1e-12)
        assert model.c0 == pytest.approx(-1.5, abs=1e-12)
        assert model.v_window == (0.0, 1000.0)

    def test_recovery_under_angle_noise(self):
        rng = np.random.default_rng(5)
        v = rng.uniform(0.0, 1023.0, 700)
        theta = WHEEL_TRUTH_W0.evaluate(v) + rng.normal(0.0, 0.01, v.size)
        model = fit_cubic(theta, v)
        grid = np.linspace(model.v_window[0], model.v_window[1], 2000)
        assert np.max(np.abs(model.evaluate(grid) - WHEEL_TRUTH_W0.evaluate(grid))) < 0.01

    def test_too_few_pairs_rejected(self):
        with pytest.raises(FitError, match="at least 8"):
            fit_cubic([0.0, 0.1, 0.2], [0.0, 500.0, 1000.0])

    def test_too_few_distinct_counts_rejected(self):
        v = np.array([0.0, 0.0, 512.0, 512.0, 1023.0, 1023.0, 0.0, 512.0])
        with pytest.raises(FitError, match="distinct"):
            fit_cubic(np.linspace(0, 1, 8), v)

    def test_narrow_span_rejected(self):
        v = np.linspace(400.0, 600.0, 20)
        with pytest.raises(FitError, match="span"):
            fit_cubic(0.001 * v, v)

    def test_reordering_does_not_change_the_curve(self):
        rng = np.random.default_rng(6)
        v = rng.uniform(0.0, 1023.0, 300)
        theta = WHEEL_TRUTH_W1.evaluate(v) + rng.normal(0.0, 0.005, v.size)
        a = fit_cubic(theta, v)
        perm = rng.permutation(v.size)
        b = fit_cubic(theta[perm], v[perm])
        grid = np.linspace(a.v_window[0], a.v_window[1], 1000)
        assert np.max(np.abs(a.evaluate(grid) - b.evaluate(grid))) < 1e-9

    def test_sweep_reproduces_reference_shape(self):
        # End-to-end anchor: the fitted wiper-0 curve extrapolates close to
        # the generating constant at V=0 and hits the chart top at its
        # valid-range edge.
        spec = reference_wheel_spec()
        ds = synthesize_sweep_dataset(spec, 14.0, 50.0, np.random.default_rng(7))
        bundle = calibrate(ds)
        m0 = bundle.models[0]
        assert m0.evaluate(0.0) == pytest.approx(-7.2750, abs=0.1)
        assert m0.evaluate(bundle.valid_ranges[0].v_max) == pytest.approx(
            2.0 * PI / 3.0, abs=0.05
        )


def slope_shaped_cubic(c3, m, q, window):
    """Cubic whose derivative is ``3*c3*((v - m)**2 - q)``: roots m +- sqrt(q) if q >= 0."""
    return CubicModel(c3, -3.0 * c3 * m, 3.0 * c3 * (m * m - q), 0.0, window)


class TestCubicModelMonotonicity:
    @settings(max_examples=400, deadline=None)
    @given(
        a=st.floats(1e-9, 1e-5),
        sign=st.sampled_from((-1.0, 1.0)),
        lo=st.floats(0.0, 500.0),
        span=st.floats(20.0, 1023.0),
        m_frac=st.floats(-1.0, 2.0),
        q_frac=st.floats(-1.0, 1.0),
    )
    def test_closed_form_agrees_with_dense_grid(self, a, sign, lo, span, m_frac, q_frac):
        hi = lo + span
        m, q = lo + m_frac * span, q_frac * span * span
        step = span / 100_000
        # Skip the cases a grid cannot judge: roots closer than two grid
        # steps to each other or to a window end, and slopes lost to
        # cancellation in the coefficients.
        assume(abs(q) > max(4.0 * step * step, 1e-9 * m * m))
        if q > 0.0:
            roots = (m - math.sqrt(q), m + math.sqrt(q))
            assume(all(abs(r - lo) > 2.0 * step and abs(r - hi) > 2.0 * step for r in roots))
        c3, c2, c1 = sign * a / 3.0, -sign * a * m, sign * a * (m * m - q)
        try:
            CubicModel(c3, c2, c1, 0.0, (lo, hi))
            accepted = True
        except FitError:
            accepted = False
        assert accepted == monotone_on_grid(c3, c2, c1, lo, hi)

    def test_increasing_and_decreasing_accepted(self):
        assert CubicModel(0.0, 0.0, 1e-3, 0.0, (0.0, 1023.0)).increasing
        assert not slope_shaped_cubic(-1e-6, 2000.0, 1.0, (0.0, 1023.0)).increasing

    def test_sign_change_between_grid_points_rejected(self):
        # The slope is negative only on (100.4, 100.6), between the integer
        # points a 1024-point grid over [0, 1023] would sample.
        with pytest.raises(FitError, match="not monotone"):
            slope_shaped_cubic(1e-6, 100.5, 0.01, (0.0, 1023.0))

    @pytest.mark.parametrize("window", [(100.0, 900.0), (-800.0, 100.0)], ids=["lo", "hi"])
    def test_zero_slope_at_a_window_end_rejected(self, window):
        with pytest.raises(FitError, match="not monotone"):
            slope_shaped_cubic(2.0**-20, 100.0, 0.0, window)

    def test_flat_point_inside_accepted(self):
        model = slope_shaped_cubic(2.0**-20, 511.25, 0.0, (0.0, 1023.0))
        assert model.derivative(511.25) == 0.0 and model.increasing

    def test_nan_coefficient_rejected(self):
        with pytest.raises(FitError):
            CubicModel(0.0, math.nan, 1e-3, 0.0, (0.0, 1023.0))


class TestInvertCubic:
    def test_linear_at_zero(self):
        model = CubicModel(0.0, 0.0, 2.0 * PI / 1023.0, -PI, (0.0, 1023.0))
        assert invert_cubic(model, 0.0) == pytest.approx(511.5, abs=1e-6)

    def test_reference_lower_target(self):
        target = 5.0 * PI / 6.0 - TWO_PI
        v = invert_cubic(WHEEL_TRUTH_W0, target)
        assert 0.0 <= v <= 1023.0
        assert abs(WHEEL_TRUTH_W0.evaluate(v) - target) < 1e-9

    def test_target_above_range_raises(self):
        model = CubicModel(0.0, 0.0, 0.001, -1.0, (0.0, 1023.0))
        with pytest.raises(InversionError):
            invert_cubic(model, 5.0)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(8)
        lo, hi = WHEEL_TRUTH_W1.angle_range()
        for theta in rng.uniform(lo, hi, 200):
            v = invert_cubic(WHEEL_TRUTH_W1, float(theta))
            assert abs(WHEEL_TRUTH_W1.evaluate(v) - theta) < 1e-9

    @settings(max_examples=300, deadline=None)
    @given(
        c3=st.floats(-2e-8, 2e-8),
        c2=st.floats(-3e-5, 3e-5),
        c1=st.floats(-2e-2, 2e-2),
        c0=st.floats(-4.0, 4.0),
        lo=st.floats(0.0, 500.0),
        span=st.floats(20.0, 1023.0),
        frac=st.floats(0.001, 0.999),
    )
    def test_random_monotone_cubics_agree_with_oracle(self, c3, c2, c1, c0, lo, span, frac):
        hi = lo + span
        try:
            model = CubicModel(c3, c2, c1, c0, (lo, hi))
        except FitError:
            assume(False)
        low, high = model.angle_range()
        target = low + frac * (high - low)
        v = invert_cubic(model, target)
        assert lo <= v <= hi
        assert abs(model.evaluate(v) - target) < 1e-9
        # |f'| is smallest at a window edge or at the derivative's vertex.
        candidates = [lo, hi]
        if c3 != 0.0 and lo < -c2 / (3.0 * c3) < hi:
            candidates.append(-c2 / (3.0 * c3))
        min_slope = min(abs(float(model.derivative(x))) for x in candidates)
        ref = bisect_root(lambda x: cubic_value(c3, c2, c1, c0, x) - target, lo, hi)
        assert abs(v - ref) <= (1e-9 + 1e-12) / min_slope

    def test_zero_slope_point_is_handled(self, monkeypatch):
        # c3*(v - m)**3 + c0 with exact binary coefficients, so f'(m) == 0.0
        # exactly; m = 511.25 lies between the monotonicity grid points.
        c3, m = 2.0**-20, 511.25
        cases = [
            # The root is the zero-slope point itself: f(m) = 0.5.
            ((0.0, 1023.0), 0.5),
            # The regula-falsi start lands exactly on m, where a plain
            # Newton step divides by zero...
            ((m - 256.0, m + 257.0), 0.5 + c3 * 256.0 * 257.0),
            # ...or just beside it, where a plain Newton step jumps to ~2e8.
            ((m - 256.0, m + 257.0), 0.5 + 1.01 * c3 * 256.0 * 257.0),
        ]
        points = []
        evaluate = CubicModel.evaluate
        monkeypatch.setattr(
            CubicModel, "evaluate", lambda self, v: points.append(v) or evaluate(self, v)
        )
        for window, target in cases:
            model = CubicModel(c3, -3.0 * c3 * m, 3.0 * c3 * m * m, 0.5 - c3 * m**3, window)
            assert model.derivative(m) == 0.0
            points.clear()
            v = invert_cubic(model, target)
            assert abs(evaluate(model, v) - target) < 1e-9
            assert all(window[0] <= p <= window[1] for p in points)

    def test_nan_target_raises(self):
        with pytest.raises(InversionError):
            invert_cubic(WHEEL_TRUTH_W0, math.nan)

    def test_target_below_range_raises(self):
        low, _ = WHEEL_TRUTH_W0.angle_range()
        with pytest.raises(InversionError, match="outside model range"):
            invert_cubic(WHEEL_TRUTH_W0, low - 1e-6)

    def test_iteration_budget_exhausted_raises(self):
        with pytest.raises(InversionError, match="stalled"):
            invert_cubic(WHEEL_TRUTH_W0, 0.3, max_iter=1)


class TestComputeValidRanges:
    def test_linear_models_match_closed_form_inversion(self):
        slope = TWO_PI * (23.0 / 24.0) / 1023.0
        m0 = CubicModel(0.0, 0.0, slope, -7.0 * PI / 6.0, (0.0, 1023.0))
        m1 = CubicModel(0.0, 0.0, slope, -0.75 * PI, (0.0, 1023.0))
        r0, r1 = compute_valid_ranges(m0, m1)
        # Oracle: closed-form inversion of the affine map.
        expect0 = sorted(
            ((t - m0.c0) / m0.c1 for t in (5.0 * PI / 6.0 - TWO_PI, 2.0 * PI / 3.0))
        )
        expect1 = sorted(
            ((t - m1.c0) / m1.c1 for t in (-2.0 * PI / 3.0, -5.0 * PI / 6.0 + TWO_PI))
        )
        assert r0 == ValidRange(math.floor(expect0[0]), math.ceil(expect0[1]))
        assert r1 == ValidRange(math.floor(expect1[0]), math.ceil(expect1[1]))
        assert r0.v_min < r0.v_max and r1.v_min < r1.v_max

    def test_reference_upper_edge_residual(self):
        r0, _ = compute_valid_ranges(WHEEL_TRUTH_W0, WHEEL_TRUTH_W1)
        v = bisect_root(
            lambda x: cubic_value(5.0281e-9, -1.2255e-5, 1.7856e-2, -7.2750, x)
            - 2.0 * PI / 3.0,
            0.0,
            1023.0,
            tol=1e-12,
        )
        assert r0.v_max == math.ceil(v)

    def test_degenerate_model_raises(self):
        shallow = CubicModel(0.0, 0.0, 0.001, -1.0, (0.0, 1023.0))
        wide = CubicModel(0.0, 0.0, TWO_PI * 0.96 / 1023.0, -0.75 * PI, (0.0, 1023.0))
        with pytest.raises(InversionError):
            compute_valid_ranges(shallow, wide)

    def test_noiseless_grid_voltages_fall_inside_truth_ranges(self):
        # The continuous (pre-quantization) voltage of every non-gap angle
        # must land strictly inside the wiper's valid range; quantization
        # can push boundary counts onto the outward-rounded edge, which the
        # strict test legitimately drops (the other wiper covers there).
        spec = reference_wheel_spec(noise_std=0.0)
        ranges = compute_valid_ranges(WHEEL_TRUTH_W0, WHEEL_TRUTH_W1)
        thetas = np.linspace(-PI, PI, 10_000, endpoint=True)[1:]
        from paintpot.sensor_sim import wheel_ideal_voltage

        for theta in thetas:
            for wiper, valid in enumerate(ranges):
                voltage = wheel_ideal_voltage(float(theta), wiper, spec)
                if voltage is not None:
                    assert valid.v_min < voltage < valid.v_max


class TestFitReport:
    def test_noiseless_rms_is_tiny(self):
        spec = reference_wheel_spec(noise_std=0.0)
        ds = synthesize_sweep_dataset(spec, 14.0, 50.0, np.random.default_rng(2))
        pairs = trim_and_shift(ds)
        # Evaluate the generating truth itself: residual is pure quantization.
        report = fit_report(ds, (WHEEL_TRUTH_W0, WHEEL_TRUTH_W1))
        grid = np.linspace(0.0, 1023.0, 2048)
        lsb = float(np.max(np.abs(WHEEL_TRUTH_W0.derivative(grid))))
        assert all(s.rms <= lsb for s in report.wipers)
        assert all(s.n == len(p.theta) for s, p in zip(report.wipers, pairs))

    def test_synthetic_fit_rms_is_near_machine_epsilon(self):
        rng = np.random.default_rng(9)
        v = rng.uniform(0.0, 1023.0, 500)
        theta = WHEEL_TRUTH_W0.evaluate(v)
        model = fit_cubic(theta, v)
        residual = theta - model.evaluate(v)
        assert float(np.sqrt(np.mean(residual**2))) < 1e-10

    def test_noise_rms_within_chi_square_bounds(self):
        rng = np.random.default_rng(10)
        v = rng.uniform(0.0, 1023.0, 1200)
        theta = WHEEL_TRUTH_W0.evaluate(v) + rng.normal(0.0, 0.01, v.size)
        model = fit_cubic(theta, v)
        residual = theta - model.evaluate(v)
        rms = float(np.sqrt(np.mean(residual**2)))
        assert 0.007 <= rms <= 0.013

    def test_empty_partition_propagates(self):
        ds = wheel_dataset([(0.0, 0.75 * PI, 850, 100), (0.1, 0.8 * PI, 860, 120)])
        with pytest.raises(FitError):
            fit_report(ds, (WHEEL_TRUTH_W0, WHEEL_TRUTH_W1))


class TestCalibratePipeline:
    def test_wheel_bundle_shape(self):
        spec = reference_wheel_spec()
        ds = synthesize_sweep_dataset(spec, 14.0, 50.0, np.random.default_rng(11))
        bundle = calibrate(ds)
        assert bundle.sensor_kind == "wheel"
        assert len(bundle.models) == 2
        assert len(bundle.valid_ranges) == 2
        assert len(bundle.report.wipers) == 2

    def test_round_trip_through_dict(self):
        from paintpot.characterize import bundle_from_dict, bundle_to_dict

        spec = reference_wheel_spec()
        ds = synthesize_sweep_dataset(spec, 14.0, 50.0, np.random.default_rng(11))
        bundle = calibrate(ds).with_filter_params({"k": 0.2, "dt": 0.01, "q": 0.05})
        again = bundle_from_dict(bundle_to_dict(bundle))
        assert again.models == bundle.models
        assert again.valid_ranges == bundle.valid_ranges
        assert again.filter_params == bundle.filter_params
