import math

import numpy as np
import pytest

from paintpot.characterize import ValidRange, compute_valid_ranges
from paintpot.cubic import CubicModel
from paintpot.errors import InitializationError, SpecError
from paintpot.estimate import (
    Feature,
    GaussianBelief,
    TiltObservationModel,
    TransitionModel,
    WheelObservationModel,
    extract_features,
    init_tilt,
    init_wheel,
    predict,
    predicted_feature_measurement,
    update_tilt,
    update_wheel,
    wrap_wheel_belief,
)
from paintpot.presets import (
    TILT_TRUTH,
    WHEEL_TRUTH_W0,
    WHEEL_TRUTH_W1,
    reference_wheel_spec,
)
from paintpot.sensor_sim import AdcReading, read_wheel, wheel_ideal_voltage

from oracles import (
    cubic_value,
    five_region_shifted_states,
    fuse_information,
    grid_bayes_posterior,
    wrap_brute,
)

PI = math.pi
TWO_PI = 2.0 * math.pi

# Charts whose integer-count evaluations are binary-exact, so example
# means can be asserted without fit noise.
EXACT_M0 = CubicModel(0.0, 0.0, 2.0**-8, -1.0, (0.0, 1023.0))
EXACT_M1 = CubicModel(0.0, 0.0, 2.0**-8, -0.5, (0.0, 1023.0))
WIDE_RANGES = (ValidRange(1, 1000), ValidRange(1, 1000))


def exact_obs(r0=1e-4, r1=1e-4):
    return WheelObservationModel(EXACT_M0, EXACT_M1, r0, r1, WIDE_RANGES)


def truth_obs(r0=1e-4, r1=1e-4):
    ranges = compute_valid_ranges(WHEEL_TRUTH_W0, WHEEL_TRUTH_W1)
    return WheelObservationModel(WHEEL_TRUTH_W0, WHEEL_TRUTH_W1, r0, r1, ranges)


class TestValueChecks:
    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_belief_rejects_non_finite_mean(self, mu):
        with pytest.raises(SpecError, match="mean must be finite"):
            GaussianBelief(mu, 1e-4)

    @pytest.mark.parametrize("sigma", [0.0, -1e-9, math.nan])
    def test_belief_rejects_non_positive_or_nan_variance(self, sigma):
        with pytest.raises(SpecError, match="variance must be positive"):
            GaussianBelief(0.1, sigma)

    @pytest.mark.parametrize("z", [math.nan, math.inf])
    def test_feature_rejects_non_finite_measurement(self, z):
        with pytest.raises(SpecError, match="must be finite"):
            Feature(0, z, 1e-4)

    def test_replace_runs_the_checks(self):
        with pytest.raises(SpecError):
            GaussianBelief(0.1, 1e-4)._replace(sigma=0.0)
        with pytest.raises(SpecError):
            Feature(1, 0.2, 1e-4)._replace(z=math.nan)
        assert GaussianBelief(0.1, 1e-4)._replace(mu=0.2) == GaussianBelief(0.2, 1e-4)

    @pytest.mark.parametrize(
        "value,attribute",
        [
            (AdcReading(0, 384, True), "count"),
            (GaussianBelief(0.1, 1e-4), "mu"),
            (Feature(0, 0.5, 1e-4), "z"),
        ],
    )
    def test_per_step_values_are_immutable(self, value, attribute):
        with pytest.raises(AttributeError):
            setattr(value, attribute, 1)


class TestCountCharts:
    def test_charts_equal_scalar_evaluation_bit_for_bit(self):
        obs = truth_obs()
        for model, valid, chart in zip((obs.m0, obs.m1), obs.ranges, obs.charts):
            assert len(chart) == valid.v_max + 1
            assert all(chart[c] == float(model.evaluate(c)) for c in range(len(chart)))
        tilt = TiltObservationModel(TILT_TRUTH, r=1e-4)
        assert len(tilt.chart) == 1024
        assert all(tilt.chart[c] == float(TILT_TRUTH.evaluate(c)) for c in range(1024))

    def test_non_finite_chart_entry_rejected(self):
        # Monotone, but 1e306 rad/count overflows to inf above count 179.
        steep = CubicModel(0.0, 0.0, 1e306, 0.0, (0.0, 1023.0))
        with pytest.raises(SpecError, match="not finite"):
            WheelObservationModel(steep, EXACT_M1, 1e-4, 1e-4, WIDE_RANGES)
        with pytest.raises(SpecError, match="not finite"):
            TiltObservationModel(steep, r=1e-4)

    def test_tilt_window_below_count_zero_rejected(self):
        with pytest.raises(SpecError, match="count >= 0"):
            TiltObservationModel(CubicModel(0.0, 0.0, 2.0**-8, -1.0, (-5.0, 900.0)), r=1e-4)


class TestInitWheel:
    def test_wiper0_in_range_no_shift(self):
        obs = exact_obs()
        readings = (AdcReading(0, 384, True), AdcReading(1, 500, True))
        belief = init_wheel(readings, obs, sigma0=1e-4)
        assert belief.mu == 0.5  # 384 * 2**-8 - 1.0 exactly
        assert belief.sigma == 1e-4

    def test_wiper0_shifts_up_when_below_minus_pi(self):
        # Chart value -1.1*pi is below the seam, so a full turn is added.
        m0 = CubicModel(0.0, 0.0, 0.01, -1.1 * PI - 1.0, (0.0, 1023.0))
        obs = WheelObservationModel(m0, EXACT_M1, 1e-4, 1e-4, WIDE_RANGES)
        readings = (AdcReading(0, 100, True), AdcReading(1, 500, True))
        belief = init_wheel(readings, obs)
        assert belief.mu == pytest.approx(0.9 * PI, abs=1e-9)

    def test_falls_back_to_wiper1_and_shifts_down(self):
        m1 = CubicModel(0.0, 0.0, 0.01, 1.1 * PI - 1.0, (0.0, 1023.0))
        obs = WheelObservationModel(EXACT_M0, m1, 1e-4, 1e-4, WIDE_RANGES)
        readings = (AdcReading(0, 1000, True), AdcReading(1, 100, True))  # 1000 not admitted
        belief = init_wheel(readings, obs)
        assert belief.mu == pytest.approx(-0.9 * PI, abs=1e-9)

    def test_no_valid_reading_raises(self):
        obs = exact_obs()
        readings = (AdcReading(0, 0, True), AdcReading(1, 1023, True))
        with pytest.raises(InitializationError):
            init_wheel(readings, obs)

    def test_unavailable_reading_is_skipped_even_if_in_range(self):
        obs = exact_obs()
        readings = (AdcReading(0, 384, False), AdcReading(1, 500, True))
        belief = init_wheel(readings, obs)
        assert belief.mu == 500 * 2.0**-8 - 0.5


class TestPredict:
    def test_identity_with_zero_input_and_noise(self):
        tm = TransitionModel(k=0.1, dt=0.01, q=0.0)
        belief = GaussianBelief(0.0, 1e-4)
        assert predict(belief, 0.0, tm) == belief

    def test_arithmetic_example(self):
        tm = TransitionModel(k=0.05, dt=0.02, q=0.01)
        out = predict(GaussianBelief(0.2, 1e-4), 1.0, tm)
        assert out.mu == pytest.approx(0.201, abs=1e-15)
        assert out.sigma == pytest.approx(1.04e-4, abs=1e-18)

    def test_variance_strictly_grows_with_positive_q(self):
        tm = TransitionModel(k=0.1, dt=0.01, q=0.5)
        belief = GaussianBelief(0.3, 2e-4)
        for u in (-2.0, 0.0, 2.0):
            assert predict(belief, u, tm).sigma > belief.sigma


class TestExtractFeatures:
    def test_both_in_range(self):
        obs = exact_obs()
        readings = (AdcReading(0, 384, True), AdcReading(1, 640, True))
        features = extract_features(readings, obs)
        assert [f.index for f in features] == [0, 1]
        assert features[0].z == 0.5
        assert features[1].z == 640 * 2.0**-8 - 0.5
        assert features[0].r == obs.r0 and features[1].r == obs.r1

    def test_boundary_count_excluded(self):
        obs = exact_obs()
        readings = (AdcReading(0, 1, True), AdcReading(1, 640, True))  # 1 == v_min
        features = extract_features(readings, obs)
        assert [f.index for f in features] == [1]

    def test_gap_reading_skipped(self):
        obs = exact_obs()
        readings = (AdcReading(0, 384, True), AdcReading(1, 640, False))
        features = extract_features(readings, obs)
        assert [f.index for f in features] == [0]

    def test_empty_list_is_legal(self):
        obs = exact_obs()
        readings = (AdcReading(0, 0, True), AdcReading(1, 1023, False))
        assert extract_features(readings, obs) == []


class TestPredictedFeatureMeasurement:
    def test_wiper0_shifts_down_past_edge(self):
        assert predicted_feature_measurement(0.9 * PI, 0) == pytest.approx(
            0.9 * PI - TWO_PI, abs=1e-12
        )

    def test_wiper1_shifts_up_past_edge(self):
        assert predicted_feature_measurement(-0.9 * PI, 1) == pytest.approx(
            -0.9 * PI + TWO_PI, abs=1e-12
        )

    def test_interior_is_identity(self):
        assert predicted_feature_measurement(0.0, 0) == 0.0
        assert predicted_feature_measurement(0.0, 1) == 0.0

    def test_matches_five_region_oracle_through_truth_inversion(self):
        # One interior point per region: availability pattern and the
        # voltage branch both match the hand-written table.
        spec = reference_wheel_spec(noise_std=0.0)
        points = [-0.95 * PI, -0.75 * PI, 0.3, 0.75 * PI, 0.95 * PI]
        for theta in points:
            expected = five_region_shifted_states(theta)
            for wiper, want in enumerate(expected):
                voltage = wheel_ideal_voltage(theta, wiper, spec)
                if want is None:
                    assert voltage is None
                    continue
                assert voltage is not None
                truth = spec.truth(wiper)
                assert truth.evaluate(voltage) == pytest.approx(want, abs=1e-9)
                assert predicted_feature_measurement(theta, wiper) == pytest.approx(
                    want, abs=1e-12
                )


class TestUpdateWheel:
    def test_perfect_measurement_limit(self):
        belief = GaussianBelief(0.0, 1.0)
        out = update_wheel(belief, [Feature(0, 0.3, 1e-12)], [0.0])
        assert out.mu == pytest.approx(0.3, abs=1e-6)
        assert out.sigma < 1e-11

    def test_scalar_arithmetic_example(self):
        belief = GaussianBelief(0.0, 1e-2)
        out = update_wheel(belief, [Feature(0, 0.1, 1e-2)], [0.0])
        assert out.mu == pytest.approx(0.05, abs=1e-15)
        assert out.sigma == pytest.approx(5e-3, abs=1e-15)

    def test_equal_variance_pair_fuses_to_half_variance(self):
        belief = GaussianBelief(0.2, 4e-3)
        z, r = 0.26, 2e-3
        dual = update_wheel(
            belief, [Feature(0, z, r), Feature(1, z, r)], [belief.mu, belief.mu]
        )
        single = update_wheel(belief, [Feature(0, z, r / 2.0)], [belief.mu])
        assert dual.mu == pytest.approx(single.mu, rel=1e-12)
        assert dual.sigma == pytest.approx(single.sigma, rel=1e-12)
        mu_star, var_star = fuse_information(belief.mu, belief.sigma, [z, z], [r, r])
        assert dual.mu == pytest.approx(mu_star, rel=1e-12)
        assert dual.sigma == pytest.approx(var_star, rel=1e-12)

    def test_zero_features_degenerates_to_prediction(self):
        belief = GaussianBelief(0.4, 3e-3)
        out = update_wheel(belief, [], [])
        assert out == belief

    def test_posterior_mean_is_wrapped(self):
        belief = GaussianBelief(0.999 * PI, 1e-2)
        out = update_wheel(belief, [Feature(0, belief.mu + 0.05, 1e-4)], [belief.mu])
        assert out.mu == pytest.approx(wrap_brute(0.999 * PI + 0.05 * (1e-2 / 1.01e-2)), abs=1e-9)
        assert -PI < out.mu <= PI

    def test_dual_equals_sequential_fusion(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            sigma = float(10.0 ** rng.uniform(-5, -1))
            mu = float(rng.uniform(-1.5, 1.5))
            r0, r1 = (float(10.0 ** rng.uniform(-5, -1)) for _ in range(2))
            z0 = mu + float(rng.normal(0.0, math.sqrt(sigma + r0)))
            z1 = mu + float(rng.normal(0.0, math.sqrt(sigma + r1)))
            belief = GaussianBelief(mu, sigma)
            dual = update_wheel(belief, [Feature(0, z0, r0), Feature(1, z1, r1)], [mu, mu])
            first = update_wheel(belief, [Feature(0, z0, r0)], [mu])
            # No predict between: the second innovation is measured against
            # the already-updated mean's predicted measurement.
            seq = update_wheel(
                first,
                [Feature(1, z1, r1)],
                [predicted_feature_measurement(first.mu, 1)],
            )
            assert dual.mu == pytest.approx(seq.mu, rel=1e-12, abs=1e-12)
            assert dual.sigma == pytest.approx(seq.sigma, rel=1e-12)


class TestWrapWheelBelief:
    def test_wraps_above(self):
        out = wrap_wheel_belief(GaussianBelief(1.1 * PI, 2e-3))
        assert out.mu == pytest.approx(-0.9 * PI, abs=1e-12)
        assert out.sigma == 2e-3

    def test_wraps_below(self):
        out = wrap_wheel_belief(GaussianBelief(-1.1 * PI, 2e-3))
        assert out.mu == pytest.approx(0.9 * PI, abs=1e-12)

    def test_interior_fixed_point_and_idempotence(self):
        belief = GaussianBelief(0.5, 1e-3)
        once = wrap_wheel_belief(belief)
        assert once == belief
        far = wrap_wheel_belief(GaussianBelief(7.3 * PI, 1e-3))
        assert wrap_wheel_belief(far) == far
        assert far.mu == pytest.approx(wrap_brute(7.3 * PI), abs=1e-9)


class TestUpdateTilt:
    def test_symmetric_fusion(self):
        obs = TiltObservationModel(EXACT_M0, r=1e-4)
        belief = GaussianBelief(0.3, 1e-4)  # sigma == r -> K = 0.5
        out, accepted = update_tilt(belief, AdcReading(0, 384, True), obs)
        assert accepted
        assert out.mu == pytest.approx((belief.mu + 0.5) / 2.0, abs=1e-15)

    def test_scalar_arithmetic_example(self):
        # z is irrelevant to the gain: sigma=1e-4, r=1e-2 -> K ~ 9.901e-3.
        m = CubicModel(0.0, 0.0, 2.0**-8, -1.25, (0.0, 1023.0))
        obs = TiltObservationModel(m, r=1e-2)
        belief = GaussianBelief(0.2, 1e-4)
        out, accepted = update_tilt(belief, AdcReading(0, 384, True), obs)  # z = 0.25
        assert accepted
        assert out.mu == pytest.approx(0.2004950495, abs=1e-9)
        assert out.sigma == pytest.approx(9.90099009901e-5, rel=1e-9)

    def test_out_of_window_rejected(self):
        m = CubicModel(0.0, 0.0, 2.0**-8, -1.0, (10.0, 900.0))
        obs = TiltObservationModel(m, r=1e-4)
        belief = GaussianBelief(0.1, 1e-4)
        out, accepted = update_tilt(belief, AdcReading(0, 950, True), obs)
        assert not accepted
        assert out == belief


class TestInitTilt:
    def test_linear_chart(self):
        obs = TiltObservationModel(EXACT_M0, r=1e-4)
        belief = init_tilt(AdcReading(0, 512, True), obs, sigma0=1e-4)
        assert belief.mu == 512 * 2.0**-8 - 1.0
        assert belief.sigma == 1e-4

    def test_reference_tilt_chart(self):
        obs = TiltObservationModel(TILT_TRUTH, r=1e-4)
        belief = init_tilt(AdcReading(0, 500, True), obs)
        assert belief.mu == pytest.approx(
            cubic_value(4.7517e-9, -8.7608e-6, 8.6756e-3, -2.7173, 500.0), abs=1e-12
        )

    def test_out_of_window_raises(self):
        m = CubicModel(0.0, 0.0, 2.0**-8, -1.0, (10.0, 900.0))
        obs = TiltObservationModel(m, r=1e-4)
        with pytest.raises(InitializationError):
            init_tilt(AdcReading(0, 1023, True), obs)


class TestVarianceLaws:
    def test_update_never_increases_variance(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            sigma = float(10.0 ** rng.uniform(-6, 0))
            belief = GaussianBelief(float(rng.uniform(-1, 1)), sigma)
            n_features = int(rng.integers(0, 3))
            features = [
                Feature(i, belief.mu + float(rng.normal(0, 0.01)), float(10.0 ** rng.uniform(-6, 0)))
                for i in range(n_features)
            ]
            out = update_wheel(belief, features, [belief.mu] * n_features)
            if n_features == 0:
                assert out.sigma == belief.sigma
            else:
                assert out.sigma < belief.sigma


class TestGridBayesAgreement:
    def test_single_cycle_matches_brute_force(self):
        # Mini version of the acceptance criterion: one case per mode.
        tm = TransitionModel(k=0.2, dt=0.01, q=0.04)
        belief = GaussianBelief(0.6, 4e-4)
        u = 0.8
        bar = predict(belief, u, tm)
        mu_bar = belief.mu + tm.k * tm.dt * u
        sigma_bar = belief.sigma + tm.dt * tm.dt * tm.q
        assert bar.mu == pytest.approx(mu_bar, abs=1e-15)

        z0, r0 = 0.62, 2e-4
        z1, r1 = 0.59, 5e-4
        single = update_wheel(bar, [Feature(0, z0, r0)], [bar.mu])
        mean, var = grid_bayes_posterior(mu_bar, sigma_bar, [z0], [r0], n_points=400_000)
        assert single.mu == pytest.approx(mean, rel=1e-6)
        assert single.sigma == pytest.approx(var, rel=1e-6)

        dual = update_wheel(bar, [Feature(0, z0, r0), Feature(1, z1, r1)], [bar.mu, bar.mu])
        mean, var = grid_bayes_posterior(mu_bar, sigma_bar, [z0, z1], [r0, r1], n_points=400_000)
        assert dual.mu == pytest.approx(mean, rel=1e-6)
        assert dual.sigma == pytest.approx(var, rel=1e-6)


class TestFeatureConsistencyOnGrid:
    def test_noiseless_features_track_shifted_state(self):
        # Every angle yields at least one feature whose converted value is
        # within one count's angle equivalent of the true shifted state.
        spec = reference_wheel_spec(noise_std=0.0)
        obs = truth_obs()
        rng = np.random.default_rng(0)
        grid = np.linspace(0.0, 1023.0, 2048)
        lsb = max(
            float(np.max(np.abs(WHEEL_TRUTH_W0.derivative(grid)))),
            float(np.max(np.abs(WHEEL_TRUTH_W1.derivative(grid)))),
        )
        thetas = np.linspace(-PI, PI, 2_000, endpoint=True)[1:]
        for theta in thetas:
            readings = read_wheel(float(theta), spec, rng)
            features = extract_features(readings, obs)
            assert len(features) >= 1
            for f in features:
                want = five_region_shifted_states(float(theta))[f.index]
                assert want is not None
                assert abs(f.z - want) <= lsb
