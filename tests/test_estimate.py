import math
import re

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from paintpot.characterize import (
    FitReport,
    ModelBundle,
    ValidRange,
    WiperFitStats,
    compute_valid_ranges,
)
from paintpot.cubic import CubicModel
from paintpot.errors import InitializationError, SpecError
from paintpot.estimate import (
    Feature,
    GaussianBelief,
    ObservationModel,
    TiltEstimator,
    TransitionModel,
    WheelEstimator,
    Wiper,
    default_measurement_variance,
    extract_features,
    initial_belief,
    observation_from_bundle,
    predict,
    update_tilt,
    update_wheel,
)
from paintpot.geometry import WHEEL_TRACKS, geometry_from_dict
from paintpot.presets import (
    TILT_TRUTH,
    WHEEL_TRUTH_W0,
    WHEEL_TRUTH_W1,
    reference_wheel_spec,
)
from paintpot.sensor_sim import AdcReading, read_wheel

from oracles import (
    cubic_value,
    five_region_shifted_states,
    fuse_information,
    grid_bayes_posterior,
    per_wiper_turn_rule,
    tilt_step_reference,
    wheel_step_reference,
    wiper_voltage,
    wrap_brute,
)

PI = math.pi
TWO_PI = 2.0 * math.pi

# Charts whose integer-count evaluations are binary-exact, so example
# means can be asserted without fit noise.
EXACT_M0 = CubicModel(0.0, 0.0, 2.0**-8, -1.0, (0.0, 1023.0))
EXACT_M1 = CubicModel(0.0, 0.0, 2.0**-8, -0.5, (0.0, 1023.0))
WIDE_RANGES = (ValidRange(1, 1000), ValidRange(1, 1000))


def wheel_obs(m0, m1, r0, r1, ranges):
    """The observation model of a wheel bundle with these models, r and ranges."""
    params = {"r0": r0, "r1": r1}
    return observation_from_bundle(ModelBundle(WHEEL_TRACKS, (m0, m1), ranges, FitReport(()), 1023, params))


def tilt_obs(model, r):
    """The observation model of a tilt bundle with this model and r."""
    return observation_from_bundle(ModelBundle((None,), (model,), (), FitReport(()), 1023, {"r": r}))


def exact_obs(r0=1e-4, r1=1e-4):
    return wheel_obs(EXACT_M0, EXACT_M1, r0, r1, WIDE_RANGES)


def truth_obs(r0=1e-4, r1=1e-4):
    ranges = compute_valid_ranges(WHEEL_TRUTH_W0, WHEEL_TRUTH_W1)
    return wheel_obs(WHEEL_TRUTH_W0, WHEEL_TRUTH_W1, r0, r1, ranges)


def wheel_belief(mu, sigma):
    """The belief a wheel filter seeds from a wiper-0 reading converting to ``mu``."""
    wiper0 = Wiper(CubicModel(0.0, 0.0, 1.0, mu, (0.0, 1023.0)), 1e-4, 0, 0)  # chart[0] == mu
    obs = ObservationModel((wiper0, Wiper(EXACT_M1, 1e-4, 0, 0)), wrap=True)
    return initial_belief((AdcReading(0, 0, True), AdcReading(1, 0, True)), obs, sigma0=sigma)


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

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, 0.0, -1e-4])
    def test_observation_model_rejects_bad_r_naming_the_wiper(self, r):
        with pytest.raises(SpecError, match="wiper 1: measurement variance r must be finite"):
            exact_obs(r1=r)
        with pytest.raises(SpecError, match="wiper 0: measurement variance r must be finite"):
            tilt_obs(EXACT_M0, r)

    @pytest.mark.parametrize("name", ["k", "dt", "q"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_transition_model_rejects_non_finite_values_by_name(self, name, value):
        params = {"k": 0.2, "dt": 0.01, "q": 0.05, name: value}
        with pytest.raises(SpecError, match=f"^{name} must be finite"):
            TransitionModel(**params)

    def test_reading_of_an_unknown_wiper_rejected(self):
        with pytest.raises(SpecError, match="wiper index must be in 0..1, got 2"):
            extract_features((AdcReading(2, 384, True),), exact_obs())
        with pytest.raises(SpecError, match="wiper index must be in 0..1, got -1"):
            extract_features((AdcReading(-1, 384, True),), exact_obs())
        with pytest.raises(SpecError, match="wiper index must be in 0..0, got 1"):
            extract_features((AdcReading(1, 384, True),), tilt_obs(EXACT_M0, 1e-4))

    @pytest.mark.parametrize("available", [True, False])
    def test_tilt_reading_of_an_unknown_wiper_rejected(self, available):
        obs, belief = tilt_obs(EXACT_M0, 1e-4), GaussianBelief(0.1, 1e-4)
        with pytest.raises(SpecError, match="^wiper index must be in 0..0, got 5$"):
            update_tilt(belief, AdcReading(5, 500, available), obs)
        with pytest.raises(SpecError, match="^wiper index must be in 0..0, got -1$"):
            update_tilt(belief, AdcReading(-1, 500, available), obs)
        estimator = TiltEstimator(obs, TransitionModel(k=0.2, dt=0.01, q=0.05), belief=belief)
        with pytest.raises(SpecError, match="^wiper index must be in 0..0, got 7$"):
            estimator.step(0.0, (AdcReading(7, 600, available),))
        assert estimator.belief is belief


class TestObservationFromBundle:
    def test_wheel_wipers_admit_the_strict_interior_and_wrap(self):
        obs = exact_obs(r0=2e-4, r1=3e-4)
        assert obs.wrap
        assert [(w.lo, w.hi, w.r) for w in obs.wipers] == [(2, 999, 2e-4), (2, 999, 3e-4)]

    def test_tilt_wiper_admits_the_counts_inside_its_window(self):
        obs = tilt_obs(CubicModel(0.0, 0.0, 2.0**-8, -1.0, (10.5, 900.0)), 1e-4)
        assert not obs.wrap
        assert [(w.lo, w.hi) for w in obs.wipers] == [(11, 900)]

    def test_fit_report_gives_r_when_the_parameters_name_none(self):
        stats = (WiperFitStats(100, 0.02, 0.05), WiperFitStats(100, 0.03, 0.05))
        bundle = ModelBundle(WHEEL_TRACKS, (EXACT_M0, EXACT_M1), WIDE_RANGES, FitReport(stats))
        rs = [w.r for w in observation_from_bundle(bundle).wipers]
        assert rs == [default_measurement_variance(m, s) for m, s in zip((EXACT_M0, EXACT_M1), stats)]
        bare = ModelBundle(WHEEL_TRACKS, (EXACT_M0, EXACT_M1), WIDE_RANGES, FitReport(()))
        with pytest.raises(SpecError, match="neither r0, r1 nor a fit report"):
            observation_from_bundle(bare)

    def test_one_wheel_r_alone_rejected(self):
        bundle = ModelBundle(WHEEL_TRACKS, (EXACT_M0, EXACT_M1), WIDE_RANGES, FitReport(()), 1023, {"r0": 1e-4})
        with pytest.raises(SpecError, match="need all of r0, r1"):
            observation_from_bundle(bundle)


class TestCountCharts:
    def test_charts_equal_scalar_evaluation_bit_for_bit(self):
        ranges = compute_valid_ranges(WHEEL_TRUTH_W0, WHEEL_TRUTH_W1)
        obs = wheel_obs(WHEEL_TRUTH_W0, WHEEL_TRUTH_W1, 1e-4, 1e-4, ranges)
        for wiper, valid in zip(obs.wipers, ranges):
            # The chart ends at the highest admitted count, v_max - 1.
            assert len(wiper.chart) == valid.v_max
            assert all(wiper.chart[c] == float(wiper.model.evaluate(c)) for c in range(len(wiper.chart)))
        (tilt,) = tilt_obs(TILT_TRUTH, 1e-4).wipers
        assert len(tilt.chart) == 1024
        assert all(tilt.chart[c] == float(TILT_TRUTH.evaluate(c)) for c in range(1024))

    def test_non_finite_chart_entry_rejected(self):
        # Monotone, but 1e306 rad/count overflows to inf above count 179.
        steep = CubicModel(0.0, 0.0, 1e306, 0.0, (0.0, 1023.0))
        with pytest.raises(SpecError, match="not finite"):
            wheel_obs(steep, EXACT_M1, 1e-4, 1e-4, WIDE_RANGES)
        with pytest.raises(SpecError, match="not finite"):
            tilt_obs(steep, 1e-4)

    def test_tilt_window_below_count_zero_rejected(self):
        # A window starting at -5.0 admits counts from ceil(-5.0).
        model = CubicModel(0.0, 0.0, 2.0**-8, -1.0, (-5.0, 900.0))
        with pytest.raises(SpecError, match="count >= 0"):
            Wiper(model, 1e-4, math.ceil(model.v_window[0]), math.floor(model.v_window[1]))


class TestInitWheel:
    def test_wiper0_in_range_no_shift(self):
        obs = exact_obs()
        readings = (AdcReading(0, 384, True), AdcReading(1, 500, True))
        belief = initial_belief(readings, obs, sigma0=1e-4)
        assert belief.mu == 0.5  # 384 * 2**-8 - 1.0 exactly
        assert belief.sigma == 1e-4

    def test_wiper0_shifts_up_when_below_minus_pi(self):
        # Chart value -1.1*pi is below the seam, so a full turn is added.
        m0 = CubicModel(0.0, 0.0, 0.01, -1.1 * PI - 1.0, (0.0, 1023.0))
        obs = wheel_obs(m0, EXACT_M1, 1e-4, 1e-4, WIDE_RANGES)
        readings = (AdcReading(0, 100, True), AdcReading(1, 500, True))
        belief = initial_belief(readings, obs)
        assert belief.mu == pytest.approx(0.9 * PI, abs=1e-9)

    def test_falls_back_to_wiper1_and_shifts_down(self):
        m1 = CubicModel(0.0, 0.0, 0.01, 1.1 * PI - 1.0, (0.0, 1023.0))
        obs = wheel_obs(EXACT_M0, m1, 1e-4, 1e-4, WIDE_RANGES)
        readings = (AdcReading(0, 1000, True), AdcReading(1, 100, True))  # 1000 not admitted
        belief = initial_belief(readings, obs)
        assert belief.mu == pytest.approx(-0.9 * PI, abs=1e-9)

    def test_no_valid_reading_raises(self):
        obs = exact_obs()
        readings = (AdcReading(0, 0, True), AdcReading(1, 1023, True))
        with pytest.raises(InitializationError):
            initial_belief(readings, obs)

    def test_unavailable_reading_is_skipped_even_if_in_range(self):
        obs = exact_obs()
        readings = (AdcReading(0, 384, False), AdcReading(1, 500, True))
        belief = initial_belief(readings, obs)
        assert belief.mu == 500 * 2.0**-8 - 0.5

    def test_readings_are_taken_in_wiper_order(self):
        obs = exact_obs()
        readings = (AdcReading(1, 500, True), AdcReading(0, 384, True))
        assert initial_belief(readings, obs).mu == 0.5  # wiper 0's value

    def test_one_reading_per_wiper_required(self):
        with pytest.raises(SpecError, match="one reading per wiper"):
            initial_belief((AdcReading(0, 384, True),), exact_obs())
        with pytest.raises(SpecError, match="one reading per wiper"):
            initial_belief((AdcReading(0, 384, True), AdcReading(0, 500, True)), exact_obs())

    # Seeding wraps the converted value onto (-pi, pi].  The rule this
    # replaced added a turn to a wiper-0 value below -pi and took one off a
    # wiper-1 value above pi.  The two agree bit for bit on wiper-0 values
    # in (-3pi, pi] other than -pi and wiper-1 values in (-pi, 3pi); the
    # tests below pin where they differ.
    @given(st.floats(-2.99 * PI, PI).filter(lambda v: v != -PI))
    def test_wiper0_agrees_with_the_turn_rule_within_a_turn(self, value):
        assert wheel_belief(value, 1e-4).mu == per_wiper_turn_rule(value, 0)

    @given(st.floats(-PI, 2.99 * PI, exclude_min=True))
    def test_wiper1_agrees_with_the_turn_rule_within_a_turn(self, value):
        m1 = CubicModel(0.0, 0.0, 1.0, value, (0.0, 1023.0))
        obs = ObservationModel((Wiper(EXACT_M0, 1e-4, 1, 1), Wiper(m1, 1e-4, 0, 0)), wrap=True)
        readings = (AdcReading(0, 0, True), AdcReading(1, 0, True))  # wiper 0 not admitted
        assert initial_belief(readings, obs).mu == per_wiper_turn_rule(value, 1)

    def test_wiper0_at_minus_pi_seeds_pi(self):
        # The turn rule kept -pi, a mean outside the wheel chart (-pi, pi].
        assert per_wiper_turn_rule(-PI, 0) == -PI
        assert wheel_belief(-PI, 1e-4).mu == PI

    def test_wiper0_above_pi_is_wrapped(self):
        # The turn rule left a wiper-0 value above pi as it was.
        assert per_wiper_turn_rule(1.1 * PI, 0) == 1.1 * PI
        assert wheel_belief(1.1 * PI, 1e-4).mu == pytest.approx(-0.9 * PI, abs=1e-12)

    def test_value_more_than_a_turn_out_is_wrapped_fully(self):
        # The turn rule added one turn only, leaving -3.5*pi at -1.5*pi.
        assert per_wiper_turn_rule(-3.5 * PI, 0) == pytest.approx(-1.5 * PI, abs=1e-12)
        assert wheel_belief(-3.5 * PI, 1e-4).mu == pytest.approx(0.5 * PI, abs=1e-12)


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
        assert features[0].r == obs.wipers[0].r and features[1].r == obs.wipers[1].r

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

    @pytest.mark.parametrize("wiper", [0, 1])
    def test_negative_count_and_count_above_hi_give_no_feature(self, wiper):
        # A negative count would index the chart from its end.
        obs = exact_obs()
        other = AdcReading(1 - wiper, 500, True)
        for count in (-1, -500, obs.wipers[wiper].hi + 1, 1023):
            features = extract_features((AdcReading(wiper, count, True), other), obs)
            assert [f.index for f in features] == [1 - wiper]

    def test_features_are_feature_tuples(self):
        (feature,) = extract_features((AdcReading(0, 384, True),), exact_obs(r0=2e-4))
        assert type(feature) is Feature and feature == (0, 0.5, 2e-4)

    def test_initial_belief_skips_a_wiper0_count_outside_lo_hi(self):
        obs = exact_obs()
        for count in (-1, obs.wipers[0].hi + 1):
            readings = (AdcReading(0, count, True), AdcReading(1, 500, True))
            assert initial_belief(readings, obs).mu == 500 * 2.0**-8 - 0.5


class TestPredictedFeatureMeasurement:
    """A wiper's predicted measurement: the mean on its shifted chart."""

    def test_wiper0_shifts_down_past_edge(self):
        assert WHEEL_TRACKS[0].shift(0.9 * PI) == pytest.approx(
            0.9 * PI - TWO_PI, abs=1e-12
        )

    def test_wiper1_shifts_up_past_edge(self):
        assert WHEEL_TRACKS[1].shift(-0.9 * PI) == pytest.approx(
            -0.9 * PI + TWO_PI, abs=1e-12
        )

    def test_interior_is_identity(self):
        assert WHEEL_TRACKS[0].shift(0.0) == 0.0
        assert WHEEL_TRACKS[1].shift(0.0) == 0.0

    def test_matches_five_region_oracle_through_truth_inversion(self):
        # One interior point per region: availability pattern and the
        # voltage branch both match the hand-written table.
        spec = reference_wheel_spec(noise_std=0.0)
        points = [-0.95 * PI, -0.75 * PI, 0.3, 0.75 * PI, 0.95 * PI]
        for theta in points:
            expected = five_region_shifted_states(theta)
            for wiper, want in enumerate(expected):
                voltage = wiper_voltage(spec.wipers[wiper], theta)
                if want is None:
                    assert voltage is None
                    continue
                assert voltage is not None
                truth = spec.wipers[wiper].truth
                assert truth.evaluate(voltage) == pytest.approx(want, abs=1e-9)
                assert WHEEL_TRACKS[wiper].shift(theta) == pytest.approx(
                    want, abs=1e-12
                )

    @pytest.mark.parametrize("tracks", ["custom", "reference"])
    def test_step_shifts_by_the_model_tracks(self, tracks):
        # Past the custom edge 2.0, inside the reference wiper 0's window:
        # the custom model predicts mu - 2*pi, the reference one mu.
        gaps = {"gap_w0": [1.5, 2.0], "gap_w1": [-2.9, -2.5]} if tracks == "custom" else {}
        track0, track1 = geometry_from_dict("wheel", gaps)[0]
        mu = 2.01
        used = []
        for z in (mu - TWO_PI + 1e-3, mu + 1e-3):
            wiper0 = Wiper(CubicModel(0.0, 0.0, 1.0, z, (0.0, 1023.0)), 1e-4, 0, 0, track0)  # chart[0] == z
            obs = ObservationModel((wiper0, Wiper(EXACT_M1, 1e-4, 0, 0, track1)), wrap=True)
            estimator = WheelEstimator(obs, TransitionModel(k=1.0, dt=0.01, q=0.0), belief=GaussianBelief(mu, 1e-4))
            used.append(estimator.step(0.0, (AdcReading(0, 0, True), AdcReading(1, 0, False))).used)
        assert used == ([(True, False), (False, False)] if tracks == "custom" else [(False, False), (True, False)])

    @pytest.mark.parametrize("obs", [
        ObservationModel((Wiper(EXACT_M0, 1e-4, 1, 1), Wiper(EXACT_M1, 1e-4, 0, 0)), wrap=True),
        ObservationModel((Wiper(TILT_TRUTH, 1e-4, 0, 1023),), wrap=False),
    ], ids=["untracked", "tilt"])
    def test_step_needs_two_tracked_wipers(self, obs):
        with pytest.raises(SpecError, match="two wipers on gapped tracks"):
            WheelEstimator(obs, TransitionModel(k=1.0, dt=0.01, q=0.0))


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
                [WHEEL_TRACKS[1].shift(first.mu)],
            )
            assert dual.mu == pytest.approx(seq.mu, rel=1e-12, abs=1e-12)
            assert dual.sigma == pytest.approx(seq.sigma, rel=1e-12)


class TestWrapWheelBelief:
    # A wheel belief is wrapped where it is made: when it is seeded and
    # after each update.
    def test_wraps_above(self):
        out = wheel_belief(1.1 * PI, 2e-3)
        assert out.mu == pytest.approx(-0.9 * PI, abs=1e-12)
        assert out.sigma == 2e-3

    def test_wraps_below(self):
        out = wheel_belief(-1.1 * PI, 2e-3)
        assert out.mu == pytest.approx(0.9 * PI, abs=1e-12)

    def test_interior_fixed_point_and_idempotence(self):
        belief = GaussianBelief(0.5, 1e-3)
        once = wheel_belief(*belief)
        assert once == belief
        far = wheel_belief(7.3 * PI, 1e-3)
        assert wheel_belief(*far) == far
        assert far.mu == pytest.approx(wrap_brute(7.3 * PI), abs=1e-9)


class TestUpdateTilt:
    def test_symmetric_fusion(self):
        obs = tilt_obs(EXACT_M0, 1e-4)
        belief = GaussianBelief(0.3, 1e-4)  # sigma == r -> K = 0.5
        out, accepted = update_tilt(belief, AdcReading(0, 384, True), obs)
        assert accepted
        assert out.mu == pytest.approx((belief.mu + 0.5) / 2.0, abs=1e-15)

    def test_scalar_arithmetic_example(self):
        # z is irrelevant to the gain: sigma=1e-4, r=1e-2 -> K ~ 9.901e-3.
        m = CubicModel(0.0, 0.0, 2.0**-8, -1.25, (0.0, 1023.0))
        obs = tilt_obs(m, 1e-2)
        belief = GaussianBelief(0.2, 1e-4)
        out, accepted = update_tilt(belief, AdcReading(0, 384, True), obs)  # z = 0.25
        assert accepted
        assert out.mu == pytest.approx(0.2004950495, abs=1e-9)
        assert out.sigma == pytest.approx(9.90099009901e-5, rel=1e-9)

    def test_out_of_window_rejected(self):
        m = CubicModel(0.0, 0.0, 2.0**-8, -1.0, (10.0, 900.0))
        obs = tilt_obs(m, 1e-4)
        belief = GaussianBelief(0.1, 1e-4)
        out, accepted = update_tilt(belief, AdcReading(0, 950, True), obs)
        assert not accepted
        assert out == belief


class TestInitTilt:
    def test_linear_chart(self):
        obs = tilt_obs(EXACT_M0, 1e-4)
        belief = initial_belief((AdcReading(0, 512, True),), obs, sigma0=1e-4)
        assert belief.mu == 512 * 2.0**-8 - 1.0
        assert belief.sigma == 1e-4

    def test_reference_tilt_chart(self):
        obs = tilt_obs(TILT_TRUTH, 1e-4)
        belief = initial_belief((AdcReading(0, 500, True),), obs)
        assert belief.mu == pytest.approx(
            cubic_value(4.7517e-9, -8.7608e-6, 8.6756e-3, -2.7173, 500.0), abs=1e-12
        )

    def test_out_of_window_raises(self):
        m = CubicModel(0.0, 0.0, 2.0**-8, -1.0, (10.0, 900.0))
        obs = tilt_obs(m, 1e-4)
        with pytest.raises(InitializationError):
            initial_belief((AdcReading(0, 1023, True),), obs)


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
            readings = read_wheel(float(theta), spec, rng.normal(0.0, spec.noise_std, 2))
            features = extract_features(readings, obs)
            assert len(features) >= 1
            for f in features:
                want = five_region_shifted_states(float(theta))[f.index]
                assert want is not None
                assert abs(f.z - want) <= lsb


# One step of a reading stream: the motor command and, per wiper, a count
# and its availability flag.
STREAM_STEPS = st.tuples(
    st.floats(-50.0, 50.0),
    st.lists(st.tuples(st.integers(0, 1023), st.booleans()), min_size=2, max_size=2),
)


class TestRandomReadingStreams:
    @settings(max_examples=150, deadline=None)
    @given(wheel=st.booleans(), steps=st.lists(STREAM_STEPS, min_size=1, max_size=60))
    def test_beliefs_stay_finite_positive_and_wrapped(self, wheel, steps):
        tm = TransitionModel(k=0.2, dt=0.01, q=0.05)
        if wheel:
            estimator = WheelEstimator(truth_obs(), tm)
        else:
            estimator = TiltEstimator(tilt_obs(TILT_TRUTH, 1e-4), tm)
        n_wipers = len(estimator.obs.wipers)

        def readings(counts):
            return tuple(AdcReading(i, c, a) for i, (c, a) in enumerate(counts[:n_wipers]))

        first = readings(steps[0][1])
        if not extract_features(first, estimator.obs):
            with pytest.raises(InitializationError):
                estimator.initialize(first)
            return
        beliefs = [estimator.initialize(first)]
        for u, counts in steps[1:]:
            belief, used = estimator.step(u, readings(counts))
            assert (sum(used) if wheel else int(used)) <= n_wipers
            beliefs.append(belief)
        for mu, sigma in beliefs:
            assert math.isfinite(mu) and math.isfinite(sigma) and sigma > 0.0
            if wheel:
                assert -PI < mu <= PI


EDGE = 5.0 * PI / 6.0
# Beliefs on both sides of both shift edges, and at and next to +-pi.
EDGE_MEANS = [
    EDGE, math.nextafter(EDGE, 0.0), math.nextafter(EDGE, 4.0), EDGE - 1e-9, EDGE + 1e-9,
    -EDGE, math.nextafter(-EDGE, 0.0), math.nextafter(-EDGE, -4.0), -EDGE - 1e-9, -EDGE + 1e-9,
    PI, math.nextafter(PI, 0.0), -PI, math.nextafter(-PI, 0.0), 0.0, -0.0,
]
STEP_INPUTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e3, -1e3, 1e6, -1e6, 1e300, math.inf, math.nan]),
    st.floats(-50.0, 50.0),
)


class TestFloatStepMatchesReference:
    """Each float-only step equals the composition of the reference functions bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        r=st.tuples(st.sampled_from([1e-6, 1e-4, 3e-4, 2e-3]), st.sampled_from([1e-6, 1e-4, 7e-4, 2e-3])),
        mu0=st.one_of(st.sampled_from(EDGE_MEANS), st.floats(-PI, PI, exclude_min=True)),
        sigma0=st.one_of(st.sampled_from([1e-8, 1e-4, 0.5]), st.floats(1e-10, 1.0)),
        # Rates whose products round differently when regrouped.
        tm=st.builds(
            TransitionModel,
            st.sampled_from([0.2, 0.37, 1.0]),
            st.sampled_from([0.01, 1.0 / 140.0, 1.0 / 3.0]),
            st.sampled_from([0.05, 0.02, 0.3]),
        ),
        data=st.data(),
    )
    def test_random_streams(self, r, mu0, sigma0, tm, data):
        obs = truth_obs(*r)
        charts = [np.asarray(wiper.chart) for wiper in obs.wipers]
        estimator = WheelEstimator(obs, tm)
        estimator.belief = GaussianBelief(mu0, sigma0)
        for _ in range(data.draw(st.integers(1, 40))):
            belief, u = estimator.belief, data.draw(STEP_INPUTS)
            mu_bar = belief.mu + tm.k * tm.dt * u
            readings = []
            for index, (wiper, chart) in enumerate(zip(obs.wipers, charts)):
                # A count tracking the prediction, one beyond the gate, or an edge count.
                near = int(np.argmin(np.abs(chart - WHEEL_TRACKS[index].shift(mu_bar))))
                count = data.draw(st.one_of(
                    st.integers(-3, 3).map(lambda d, near=near: near + d),
                    st.sampled_from([-1, 1]).map(lambda s, near=near: near + s * 200),
                    st.sampled_from([wiper.lo - 1, wiper.lo, wiper.hi, wiper.hi + 1, 0, 1023]),
                    st.integers(0, 1023),
                ))
                readings.append(AdcReading(index, min(max(count, 0), 1023), data.draw(st.booleans())))
            if data.draw(st.booleans()):
                readings.reverse()
            try:
                want = wheel_step_reference(belief, u, readings, obs, tm)
            except SpecError as exc:
                with pytest.raises(SpecError, match=f"^{re.escape(str(exc))}$"):
                    estimator.step(u, readings)
                return
            got = estimator.step(u, readings)
            assert (got.belief.mu.hex(), got.belief.sigma.hex()) == (want[0].mu.hex(), want[0].sigma.hex())
            assert got.used == want[1] and estimator.belief is got.belief

    @settings(max_examples=200, deadline=None)
    @given(
        model=st.sampled_from([TILT_TRUTH, EXACT_M0]),
        r=st.sampled_from([1e-6, 1e-4, 7e-4, 2e-3]),
        mu0=st.one_of(st.sampled_from([0.0, -0.0, 1.45, -1.45]), st.floats(-1.5, 1.5)),
        # 1e20 makes the gain round to 1, so the update's variance is 0.
        sigma0=st.one_of(st.sampled_from([1e-8, 1e-4, 0.5, 1e20]), st.floats(1e-10, 1.0)),
        tm=st.builds(
            TransitionModel,
            st.sampled_from([0.2, 0.37, 1.0]),
            st.sampled_from([0.01, 1.0 / 140.0, 1.0 / 3.0]),
            st.sampled_from([0.05, 0.02, 0.3]),
        ),
        data=st.data(),
    )
    def test_tilt_random_streams(self, model, r, mu0, sigma0, tm, data):
        """``TiltEstimator.step`` equals predict, then update_tilt, bit for bit."""
        obs = tilt_obs(model, r)
        (wiper,) = obs.wipers
        chart = np.asarray(wiper.chart)
        estimator = TiltEstimator(obs, tm)
        estimator.belief = GaussianBelief(mu0, sigma0)
        for _ in range(data.draw(st.integers(1, 40))):
            belief, u = estimator.belief, data.draw(STEP_INPUTS)
            mu_bar = belief.mu + tm.k * tm.dt * u
            near = int(np.argmin(np.abs(chart - mu_bar))) if math.isfinite(mu_bar) else 0
            count = data.draw(st.one_of(
                st.integers(-3, 3).map(lambda d: near + d),
                st.sampled_from([wiper.lo - 1, wiper.lo, wiper.hi, wiper.hi + 1, 0, 1023]),
                st.integers(0, 1023),
            ))
            index = data.draw(st.sampled_from([0, 0, 0, 1]))
            reading = AdcReading(index, min(max(count, 0), 1023), data.draw(st.booleans()))
            try:
                want = tilt_step_reference(belief, u, reading, obs, tm)
            except SpecError as exc:
                with pytest.raises(SpecError, match=f"^{re.escape(str(exc))}$"):
                    estimator.step(u, (reading,))
                return
            got = estimator.step(u, (reading,))
            assert (got.belief.mu.hex(), got.belief.sigma.hex()) == (want[0].mu.hex(), want[0].sigma.hex())
            assert got.used is want[1] and estimator.belief is got.belief
