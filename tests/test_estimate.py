import gc
import math
import re

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from paintpot.characterize import (
    ModelBundle,
    calibrate,
    compute_valid_ranges,
)
from paintpot.cli import synthesize_sweep_dataset
from paintpot.cubic import CubicModel
from paintpot.errors import InitializationError, SpecError
from paintpot.estimate import (
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
from paintpot.geometry import TILT_LIMIT, WHEEL_TRACKS, Interval, WiperTrack, geometry_from_dict, wrap_angle
from paintpot.presets import (
    SENSOR_PRESETS,
    TILT_TRUTH,
    WHEEL_TRUTH_W0,
    WHEEL_TRUTH_W1,
    reference_wheel_spec,
)
from paintpot.sensor_sim import (
    SensorSpec,
    WiperSpec,
    read_wheel,
    sensor_spec_from_dict,
    sensor_spec_to_dict,
)

from oracles import (
    cubic_value,
    five_region_shifted_states,
    fuse_information,
    grid_bayes_posterior,
    per_wiper_turn_rule,
    shift,
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
WIDE_RANGES = ((1, 1000), (1, 1000))
# A wheel's wiper 0 turns by -2*pi and its wiper 1 by 2*pi, as its file holds them.
TRACK_ORDER = r"^a wheel's wiper 0 must turn by -2\*pi and its wiper 1 by 2\*pi, got "
SWAPPED = TRACK_ORDER + r"6\.283185307179586 and -6\.283185307179586$"


def wheel_obs(m0, m1, r0, r1, ranges):
    """The observation model of a wheel bundle with these models, r and ranges."""
    params = {"r0": r0, "r1": r1}
    return observation_from_bundle(ModelBundle(WHEEL_TRACKS, (m0, m1), ranges, (), 1023, params))


def tilt_obs(model, r):
    """The observation model of a tilt bundle with this model and r."""
    return observation_from_bundle(ModelBundle((None,), (model,), (), (), 1023, {"r": r}))


def exact_obs(r0=1e-4, r1=1e-4):
    return wheel_obs(EXACT_M0, EXACT_M1, r0, r1, WIDE_RANGES)


def truth_obs(r0=1e-4, r1=1e-4):
    ranges = compute_valid_ranges(WHEEL_TRUTH_W0, WHEEL_TRUTH_W1, adc_max=1023, tracks=WHEEL_TRACKS)
    return wheel_obs(WHEEL_TRUTH_W0, WHEEL_TRUTH_W1, r0, r1, ranges)


def wheel_belief(mu, sigma):
    """The belief a wheel filter seeds from a wiper-0 reading converting to ``mu``."""
    wiper0 = Wiper(CubicModel(0.0, 0.0, 1.0, mu, (0.0, 1023.0)), 1e-4, 0, 0, WHEEL_TRACKS[0])  # chart[0] == mu
    obs = ObservationModel((wiper0, Wiper(EXACT_M1, 1e-4, 0, 0, WHEEL_TRACKS[1])))
    return initial_belief(((0, 0, True), (1, 0, True)), obs, sigma0=sigma)


def stepped(estimator, belief):
    """``estimator`` stepped once, with no motion and no reading admitted, from ``belief``."""
    estimator.belief = belief
    return estimator.step(0.0, tuple((i, 0, False) for i in range(len(estimator.obs.wipers))))


STILL = TransitionModel(k=1.0, dt=0.01, q=0.0)
# Every entry point that makes a belief, given one to start from: each
# passes a non-finite mean or a variance that is not positive on to the
# belief it makes.
BELIEF_MAKERS = {
    "predict": lambda belief: predict(belief, 0.0, STILL),
    "update_wheel": lambda belief: update_wheel(belief, [(0, 0.1, 1e-4)], [belief[0]]),
    "update_tilt": lambda belief: update_tilt(belief, (0, 384, True), tilt_obs(EXACT_M0, 1e-4)),
    "wheel_step": lambda belief: stepped(WheelEstimator(exact_obs(), STILL), belief),
    "tilt_step": lambda belief: stepped(TiltEstimator(tilt_obs(EXACT_M0, 1e-4), STILL), belief),
}


class TestValueChecks:
    @pytest.mark.parametrize("make", BELIEF_MAKERS.values(), ids=BELIEF_MAKERS)
    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_belief_rejects_non_finite_mean(self, mu, make):
        with pytest.raises(SpecError, match="^belief mean must be finite, got "):
            make((mu, 1e-4))

    @pytest.mark.parametrize("make", [
        *BELIEF_MAKERS.values(),
        lambda belief: initial_belief(((0, 384, True), (1, 500, True)), exact_obs(), belief[1]),
    ], ids=[*BELIEF_MAKERS, "initial_belief"])
    @pytest.mark.parametrize("sigma", [0.0, -1e-9, math.nan])
    def test_belief_rejects_non_positive_or_nan_variance(self, sigma, make):
        with pytest.raises(SpecError, match="^belief variance must be positive, got "):
            make((0.1, sigma))

    @pytest.mark.parametrize("value,attribute", [((0, 384, True), "count")])
    def test_per_step_values_are_immutable(self, value, attribute):
        with pytest.raises(AttributeError):
            setattr(value, attribute, 1)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, 0.0, -1e-4])
    def test_observation_model_rejects_bad_r_naming_the_wiper(self, r):
        wipers = (Wiper(EXACT_M0, 1e-4, 1, 1000, WHEEL_TRACKS[0]), Wiper(EXACT_M1, r, 1, 1000, WHEEL_TRACKS[1]))
        with pytest.raises(SpecError, match="wiper 1: measurement variance r must be finite"):
            ObservationModel(wipers)
        with pytest.raises(SpecError, match="wiper 0: measurement variance r must be finite"):
            ObservationModel((Wiper(EXACT_M0, r, 0, 1023),))
        # A bundle's r is a filter value first, which must be a finite number.
        with pytest.raises(SpecError, match=(
            "wiper 1: measurement variance r must be finite" if math.isfinite(r)
            else f"filter.r1 must be a finite number, got {r!r}"
        )):
            exact_obs(r1=r)

    @pytest.mark.parametrize("name", ["k", "dt", "q"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_transition_model_rejects_non_finite_values_by_name(self, name, value):
        params = {"k": 0.2, "dt": 0.01, "q": 0.05, name: value}
        with pytest.raises(SpecError, match=f"^{name} must be finite"):
            TransitionModel(**params)

    # A wheel is exactly two wipers on gapped tracks and wraps; a tilt is
    # exactly one trackless wiper with an angle limit.  Any other shape is
    # refused where it is built, not at its first read or step.
    @pytest.mark.parametrize("build,message", [
        (lambda: SensorSpec(tuple(map(WiperSpec, (WHEEL_TRUTH_W0, WHEEL_TRUTH_W1, WHEEL_TRUTH_W0),
                                      (*WHEEL_TRACKS, WHEEL_TRACKS[0])))), "got 3 wipers, 3 on tracks"),
        (lambda: SensorSpec((WiperSpec(TILT_TRUTH), WiperSpec(TILT_TRUTH)), TILT_LIMIT), "got 2 wipers, 0 on tracks"),
        (lambda: SensorSpec(tuple(map(WiperSpec, (WHEEL_TRUTH_W0, WHEEL_TRUTH_W1), WHEEL_TRACKS)), TILT_LIMIT),
         "a wheel wraps, so it has no angle_limit, got 1.5707963267948966"),
        (lambda: SensorSpec((WiperSpec(TILT_TRUTH),)), r"angle_limit must lie in \(0, pi\]"),
        (lambda: ObservationModel((Wiper(EXACT_M0, 1e-4, 1, 1, WHEEL_TRACKS[0]), Wiper(EXACT_M1, 1e-4, 0, 0))),
         "got 2 wipers, 1 on tracks"),
        (lambda: ObservationModel((Wiper(EXACT_M0, 1e-4, 1, 1), Wiper(EXACT_M1, 1e-4, 0, 0))),
         "two wipers on gapped tracks, a tilt one trackless wiper; got 2 wipers, 0 on tracks"),
        (lambda: ObservationModel(()), "got 0 wipers"),
        (lambda: SensorSpec(tuple(map(WiperSpec, (WHEEL_TRUTH_W1, WHEEL_TRUTH_W0), WHEEL_TRACKS[::-1]))),
         SWAPPED),
        (lambda: SensorSpec(tuple(map(WiperSpec, (WHEEL_TRUTH_W0, WHEEL_TRUTH_W1),
                                      (WHEEL_TRACKS[0], WiperTrack(Interval(0.5, 1.0), -TWO_PI))))),
         TRACK_ORDER + r"-6\.283185307179586 and -6\.283185307179586$"),
        (lambda: ObservationModel(tuple(Wiper(m, 1e-4, 1, 1000, t) for m, t in zip((EXACT_M1, EXACT_M0),
                                                                                  WHEEL_TRACKS[::-1]))),
         SWAPPED),
        (lambda: ModelBundle(WHEEL_TRACKS[::-1], (EXACT_M1, EXACT_M0), WIDE_RANGES, ()),
         SWAPPED),
        (lambda: TiltEstimator(exact_obs(), TransitionModel(k=1.0, dt=0.01, q=0.0)),
         "^a tilt estimator needs a tilt observation model, got a wheel$"),
        (lambda: WheelEstimator(tilt_obs(TILT_TRUTH, 1e-4), TransitionModel(k=1.0, dt=0.01, q=0.0)),
         "^a wheel estimator needs a wheel observation model, got a tilt$"),
    ], ids=["three_wiper_wheel_spec", "two_wiper_tilt_spec", "wheel_spec_with_limit", "tilt_spec_without_limit",
            "mixed_tracks_model", "untracked_pair_model", "no_wiper_model", "swapped_wheel_spec",
            "same_turn_wheel_spec", "swapped_wheel_model", "swapped_wheel_bundle", "tilt_estimator_on_wheel",
            "wheel_estimator_on_tilt"])
    def test_joint_shape_refused_at_construction(self, build, message):
        with pytest.raises(SpecError, match=message):
            build()

    def test_reading_of_an_unknown_wiper_rejected(self):
        with pytest.raises(SpecError, match="wiper index must be in 0..1, got 2"):
            extract_features(((2, 384, True),), exact_obs())
        with pytest.raises(SpecError, match="wiper index must be in 0..1, got -1"):
            extract_features(((-1, 384, True),), exact_obs())
        with pytest.raises(SpecError, match="wiper index must be in 0..0, got 1"):
            extract_features(((1, 384, True),), tilt_obs(EXACT_M0, 1e-4))

    @pytest.mark.parametrize("available", [True, False])
    def test_tilt_reading_of_an_unknown_wiper_rejected(self, available):
        obs, belief = tilt_obs(EXACT_M0, 1e-4), (0.1, 1e-4)
        with pytest.raises(SpecError, match="^wiper index must be in 0..0, got 5$"):
            update_tilt(belief, (5, 500, available), obs)
        with pytest.raises(SpecError, match="^wiper index must be in 0..0, got -1$"):
            update_tilt(belief, (-1, 500, available), obs)
        estimator = TiltEstimator(obs, TransitionModel(k=0.2, dt=0.01, q=0.05))
        estimator.belief = belief
        with pytest.raises(SpecError, match="^wiper index must be in 0..0, got 7$"):
            estimator.step(0.0, ((7, 600, available),))
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
        stats = ((100, 0.02, 0.05), (100, 0.03, 0.05))
        bundle = ModelBundle(WHEEL_TRACKS, (EXACT_M0, EXACT_M1), WIDE_RANGES, stats)
        rs = [w.r for w in observation_from_bundle(bundle).wipers]
        assert rs == [default_measurement_variance(m, s) for m, s in zip((EXACT_M0, EXACT_M1), stats)]
        bare = ModelBundle(WHEEL_TRACKS, (EXACT_M0, EXACT_M1), WIDE_RANGES, ())
        with pytest.raises(SpecError, match="neither r0, r1 nor a fit report"):
            observation_from_bundle(bare)

    def test_one_wheel_r_alone_rejected(self):
        bundle = ModelBundle(WHEEL_TRACKS, (EXACT_M0, EXACT_M1), WIDE_RANGES, (), 1023, {"r0": 1e-4})
        with pytest.raises(SpecError, match="need all of r0, r1"):
            observation_from_bundle(bundle)


class TestCountCharts:
    def test_charts_equal_scalar_evaluation_bit_for_bit(self):
        ranges = compute_valid_ranges(WHEEL_TRUTH_W0, WHEEL_TRUTH_W1, adc_max=1023, tracks=WHEEL_TRACKS)
        obs = wheel_obs(WHEEL_TRUTH_W0, WHEEL_TRUTH_W1, 1e-4, 1e-4, ranges)
        for wiper, (_, v_max) in zip(obs.wipers, ranges):
            # The chart ends at the highest admitted count, v_max - 1.
            assert len(wiper.chart) == v_max
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
        readings = ((0, 384, True), (1, 500, True))
        belief = initial_belief(readings, obs, sigma0=1e-4)
        assert belief[0] == 0.5  # 384 * 2**-8 - 1.0 exactly
        assert belief[1] == 1e-4

    def test_wiper0_shifts_up_when_below_minus_pi(self):
        # Chart value -1.1*pi is below the seam, so a full turn is added.
        m0 = CubicModel(0.0, 0.0, 0.01, -1.1 * PI - 1.0, (0.0, 1023.0))
        obs = wheel_obs(m0, EXACT_M1, 1e-4, 1e-4, WIDE_RANGES)
        readings = ((0, 100, True), (1, 500, True))
        belief = initial_belief(readings, obs)
        assert belief[0] == pytest.approx(0.9 * PI, abs=1e-9)

    def test_falls_back_to_wiper1_and_shifts_down(self):
        m1 = CubicModel(0.0, 0.0, 0.01, 1.1 * PI - 1.0, (0.0, 1023.0))
        obs = wheel_obs(EXACT_M0, m1, 1e-4, 1e-4, WIDE_RANGES)
        readings = ((0, 1000, True), (1, 100, True))  # 1000 not admitted
        belief = initial_belief(readings, obs)
        assert belief[0] == pytest.approx(-0.9 * PI, abs=1e-9)

    def test_no_valid_reading_raises(self):
        obs = exact_obs()
        readings = ((0, 0, True), (1, 1023, True))
        with pytest.raises(InitializationError):
            initial_belief(readings, obs)

    def test_unavailable_reading_is_skipped_even_if_in_range(self):
        obs = exact_obs()
        readings = ((0, 384, False), (1, 500, True))
        belief = initial_belief(readings, obs)
        assert belief[0] == 500 * 2.0**-8 - 0.5

    def test_readings_are_taken_in_wiper_order(self):
        obs = exact_obs()
        readings = ((1, 500, True), (0, 384, True))
        assert initial_belief(readings, obs)[0] == 0.5  # wiper 0's value

    def test_one_reading_per_wiper_required(self):
        with pytest.raises(SpecError, match="one reading per wiper"):
            initial_belief(((0, 384, True),), exact_obs())
        with pytest.raises(SpecError, match="one reading per wiper"):
            initial_belief(((0, 384, True), (0, 500, True)), exact_obs())

    # Seeding wraps the converted value onto (-pi, pi].  The rule this
    # replaced added a turn to a wiper-0 value below -pi and took one off a
    # wiper-1 value above pi.  The two agree bit for bit on wiper-0 values
    # in (-3pi, pi] other than -pi and wiper-1 values in (-pi, 3pi); the
    # tests below pin where they differ.
    @given(st.floats(-2.99 * PI, PI).filter(lambda v: v != -PI))
    def test_wiper0_agrees_with_the_turn_rule_within_a_turn(self, value):
        assert wheel_belief(value, 1e-4)[0] == per_wiper_turn_rule(value, 0)

    @given(st.floats(-PI, 2.99 * PI, exclude_min=True))
    def test_wiper1_agrees_with_the_turn_rule_within_a_turn(self, value):
        m1 = CubicModel(0.0, 0.0, 1.0, value, (0.0, 1023.0))
        obs = ObservationModel((Wiper(EXACT_M0, 1e-4, 1, 1, WHEEL_TRACKS[0]), Wiper(m1, 1e-4, 0, 0, WHEEL_TRACKS[1])))
        readings = ((0, 0, True), (1, 0, True))  # wiper 0 not admitted
        assert initial_belief(readings, obs)[0] == per_wiper_turn_rule(value, 1)

    def test_wiper0_at_minus_pi_seeds_pi(self):
        # The turn rule kept -pi, a mean outside the wheel chart (-pi, pi].
        assert per_wiper_turn_rule(-PI, 0) == -PI
        assert wheel_belief(-PI, 1e-4)[0] == PI

    def test_wiper0_above_pi_is_wrapped(self):
        # The turn rule left a wiper-0 value above pi as it was.
        assert per_wiper_turn_rule(1.1 * PI, 0) == 1.1 * PI
        assert wheel_belief(1.1 * PI, 1e-4)[0] == pytest.approx(-0.9 * PI, abs=1e-12)

    def test_value_more_than_a_turn_out_is_wrapped_fully(self):
        # The turn rule added one turn only, leaving -3.5*pi at -1.5*pi.
        assert per_wiper_turn_rule(-3.5 * PI, 0) == pytest.approx(-1.5 * PI, abs=1e-12)
        assert wheel_belief(-3.5 * PI, 1e-4)[0] == pytest.approx(0.5 * PI, abs=1e-12)


class TestPredict:
    def test_identity_with_zero_input_and_noise(self):
        tm = TransitionModel(k=0.1, dt=0.01, q=0.0)
        belief = (0.0, 1e-4)
        assert predict(belief, 0.0, tm) == belief

    def test_arithmetic_example(self):
        tm = TransitionModel(k=0.05, dt=0.02, q=0.01)
        out = predict((0.2, 1e-4), 1.0, tm)
        assert out[0] == pytest.approx(0.201, abs=1e-15)
        assert out[1] == pytest.approx(1.04e-4, abs=1e-18)

    def test_variance_strictly_grows_with_positive_q(self):
        tm = TransitionModel(k=0.1, dt=0.01, q=0.5)
        belief = (0.3, 2e-4)
        for u in (-2.0, 0.0, 2.0):
            assert predict(belief, u, tm)[1] > belief[1]


class TestExtractFeatures:
    def test_both_in_range(self):
        obs = exact_obs()
        readings = ((0, 384, True), (1, 640, True))
        (i0, z0, r0), (i1, z1, r1) = extract_features(readings, obs)
        assert [i0, i1] == [0, 1]
        assert z0 == 0.5
        assert z1 == 640 * 2.0**-8 - 0.5
        assert r0 == obs.wipers[0].r and r1 == obs.wipers[1].r

    def test_boundary_count_excluded(self):
        obs = exact_obs()
        readings = ((0, 1, True), (1, 640, True))  # 1 == v_min
        features = extract_features(readings, obs)
        assert [i for i, _, _ in features] == [1]

    def test_gap_reading_skipped(self):
        obs = exact_obs()
        readings = ((0, 384, True), (1, 640, False))
        features = extract_features(readings, obs)
        assert [i for i, _, _ in features] == [0]

    def test_empty_list_is_legal(self):
        obs = exact_obs()
        readings = ((0, 0, True), (1, 1023, False))
        assert extract_features(readings, obs) == []

    @pytest.mark.parametrize("wiper", [0, 1])
    def test_negative_count_and_count_above_hi_give_no_feature(self, wiper):
        # A negative count would index the chart from its end.
        obs = exact_obs()
        other = (1 - wiper, 500, True)
        for count in (-1, -500, obs.wipers[wiper].hi + 1, 1023):
            features = extract_features(((wiper, count, True), other), obs)
            assert [i for i, _, _ in features] == [1 - wiper]

    def test_features_are_feature_tuples(self):
        (feature,) = extract_features(((0, 384, True),), exact_obs(r0=2e-4))
        assert type(feature) is tuple and feature == (0, 0.5, 2e-4)

    @pytest.mark.parametrize("preset,gaps", [
        ("wheel_reference", {}),
        ("tilt_reference", {}),
        ("wheel_reference", {"gap_w0": [1.5, 2.0], "gap_w1": [-2.9, -2.5]}),
    ], ids=["wheel", "tilt", "custom_gaps"])
    def test_every_count_gives_its_charted_feature_exactly_when_admitted(self, preset, gaps):
        spec = sensor_spec_from_dict({**sensor_spec_to_dict(SENSOR_PRESETS[preset]()), **gaps})
        obs = observation_from_bundle(calibrate(synthesize_sweep_dataset(spec, 14.0, 50.0, np.random.default_rng(11))))
        hexed = lambda f: (type(f), f[0], f[1].hex(), f[2].hex())  # noqa: E731
        for index, wiper in enumerate(obs.wipers):
            for count in range(spec.adc_max + 1):
                for available in (True, False):
                    got = extract_features(((index, count, available),), obs)
                    admitted = available and wiper.lo <= count <= wiper.hi
                    want = [(index, wiper.chart[count], wiper.r)] if admitted else []
                    assert list(map(hexed, got)) == list(map(hexed, want))
                    if not obs.wrap:  # the tilt update admits by its own test, which must agree
                        reading = (index, count, available)
                        assert update_tilt((0.0, 1e-4), reading, obs)[1] == admitted
        top = len(obs.wipers) - 1
        with pytest.raises(SpecError, match=f"^wiper index must be in 0..{top}, got {top + 1}$"):
            extract_features(((top + 1, 500, True),), obs)

    @pytest.mark.parametrize("preset", ["wheel_reference", "tilt_reference"])
    def test_observation_model_holds_no_per_count_objects(self, preset):
        # Each object the collector tracks stays alive with the model, so a
        # table of one tracked tuple per admitted count (over 700 of them)
        # would set off young collections and be walked by every full one.
        spec = SENSOR_PRESETS[preset]()
        obs = observation_from_bundle(calibrate(synthesize_sweep_dataset(spec, 14.0, 50.0, np.random.default_rng(3))))
        seen, stack, tracked = {id(obs)}, [obs], 0
        while stack:
            obj = stack.pop()
            tracked += gc.is_tracked(obj)
            if not isinstance(obj, type):  # a class leads on to its module's globals
                for ref in gc.get_referents(obj):
                    if id(ref) not in seen:
                        seen.add(id(ref))
                        stack.append(ref)
        assert tracked <= 32
        readings = [(index, (wiper.lo + wiper.hi) // 2, True) for index, wiper in enumerate(obs.wipers)]
        features = extract_features(readings, obs)
        assert len(features) == len(obs.wipers) and all(type(feature) is tuple for feature in features)

    def test_initial_belief_skips_a_wiper0_count_outside_lo_hi(self):
        obs = exact_obs()
        for count in (-1, obs.wipers[0].hi + 1):
            readings = ((0, count, True), (1, 500, True))
            assert initial_belief(readings, obs)[0] == 500 * 2.0**-8 - 0.5


class TestPredictedFeatureMeasurement:
    """A wiper's predicted measurement: the mean on its shifted chart."""

    def test_wiper0_shifts_down_past_edge(self):
        assert shift(WHEEL_TRACKS[0], 0.9 * PI) == pytest.approx(
            0.9 * PI - TWO_PI, abs=1e-12
        )

    def test_wiper1_shifts_up_past_edge(self):
        assert shift(WHEEL_TRACKS[1], -0.9 * PI) == pytest.approx(
            -0.9 * PI + TWO_PI, abs=1e-12
        )

    def test_interior_is_identity(self):
        assert shift(WHEEL_TRACKS[0], 0.0) == 0.0
        assert shift(WHEEL_TRACKS[1], 0.0) == 0.0

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
                assert shift(WHEEL_TRACKS[wiper], theta) == pytest.approx(
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
            estimator = WheelEstimator(ObservationModel((wiper0, Wiper(EXACT_M1, 1e-4, 0, 0, track1))),
                                       TransitionModel(k=1.0, dt=0.01, q=0.0))
            estimator.belief = (mu, 1e-4)
            used.append(estimator.step(0.0, ((0, 0, True), (1, 0, False))).used)
        assert used == ([(True, False), (False, False)] if tracks == "custom" else [(False, False), (True, False)])


class TestUpdateWheel:
    def test_perfect_measurement_limit(self):
        belief = (0.0, 1.0)
        out = update_wheel(belief, [(0, 0.3, 1e-12)], [0.0])
        assert out[0] == pytest.approx(0.3, abs=1e-6)
        assert out[1] < 1e-11

    def test_scalar_arithmetic_example(self):
        belief = (0.0, 1e-2)
        out = update_wheel(belief, [(0, 0.1, 1e-2)], [0.0])
        assert out[0] == pytest.approx(0.05, abs=1e-15)
        assert out[1] == pytest.approx(5e-3, abs=1e-15)

    def test_equal_variance_pair_fuses_to_half_variance(self):
        belief = (0.2, 4e-3)
        z, r = 0.26, 2e-3
        dual = update_wheel(
            belief, [(0, z, r), (1, z, r)], [belief[0], belief[0]]
        )
        single = update_wheel(belief, [(0, z, r / 2.0)], [belief[0]])
        assert dual[0] == pytest.approx(single[0], rel=1e-12)
        assert dual[1] == pytest.approx(single[1], rel=1e-12)
        mu_star, var_star = fuse_information(belief[0], belief[1], [z, z], [r, r])
        assert dual[0] == pytest.approx(mu_star, rel=1e-12)
        assert dual[1] == pytest.approx(var_star, rel=1e-12)

    def test_zero_features_degenerates_to_prediction(self):
        belief = (0.4, 3e-3)
        out = update_wheel(belief, [], [])
        assert out == belief

    def test_posterior_mean_is_wrapped(self):
        belief = (0.999 * PI, 1e-2)
        out = update_wheel(belief, [(0, belief[0] + 0.05, 1e-4)], [belief[0]])
        assert out[0] == pytest.approx(wrap_brute(0.999 * PI + 0.05 * (1e-2 / 1.01e-2)), abs=1e-9)
        assert -PI < out[0] <= PI

    def test_dual_equals_sequential_fusion(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            sigma = float(10.0 ** rng.uniform(-5, -1))
            mu = float(rng.uniform(-1.5, 1.5))
            r0, r1 = (float(10.0 ** rng.uniform(-5, -1)) for _ in range(2))
            z0 = mu + float(rng.normal(0.0, math.sqrt(sigma + r0)))
            z1 = mu + float(rng.normal(0.0, math.sqrt(sigma + r1)))
            belief = (mu, sigma)
            dual = update_wheel(belief, [(0, z0, r0), (1, z1, r1)], [mu, mu])
            first = update_wheel(belief, [(0, z0, r0)], [mu])
            # No predict between: the second innovation is measured against
            # the already-updated mean's predicted measurement.
            seq = update_wheel(
                first,
                [(1, z1, r1)],
                [shift(WHEEL_TRACKS[1], first[0])],
            )
            assert dual[0] == pytest.approx(seq[0], rel=1e-12, abs=1e-12)
            assert dual[1] == pytest.approx(seq[1], rel=1e-12)


class TestWrapWheelBelief:
    # A wheel belief is wrapped where it is made: when it is seeded and
    # after each update.
    def test_wraps_above(self):
        out = wheel_belief(1.1 * PI, 2e-3)
        assert out[0] == pytest.approx(-0.9 * PI, abs=1e-12)
        assert out[1] == 2e-3

    def test_wraps_below(self):
        out = wheel_belief(-1.1 * PI, 2e-3)
        assert out[0] == pytest.approx(0.9 * PI, abs=1e-12)

    def test_interior_fixed_point_and_idempotence(self):
        belief = (0.5, 1e-3)
        once = wheel_belief(*belief)
        assert once == belief
        far = wheel_belief(7.3 * PI, 1e-3)
        assert wheel_belief(*far) == far
        assert far[0] == pytest.approx(wrap_brute(7.3 * PI), abs=1e-9)

    @pytest.mark.parametrize("mu", [-PI, 3.0 * PI, -PI + 1e-12])
    def test_step_wraps_its_mean_onto_the_chart(self, mu):
        # No feature and no motion: the step's mean is the belief's, wrapped, and -pi is stored as pi.
        estimator = WheelEstimator(exact_obs(), TransitionModel(k=1.0, dt=0.01, q=0.0))
        estimator.belief = (mu, 1e-4)
        step = estimator.step(0.0, ((0, 500, False), (1, 500, False)))
        assert step == ((wrap_angle(mu), 1e-4), (False, False)) and step.belief[0] in (PI, -PI + 1e-12)


class TestUpdateTilt:
    def test_symmetric_fusion(self):
        obs = tilt_obs(EXACT_M0, 1e-4)
        belief = (0.3, 1e-4)  # sigma == r -> K = 0.5
        out, accepted = update_tilt(belief, (0, 384, True), obs)
        assert accepted
        assert out[0] == pytest.approx((belief[0] + 0.5) / 2.0, abs=1e-15)

    def test_scalar_arithmetic_example(self):
        # z is irrelevant to the gain: sigma=1e-4, r=1e-2 -> K ~ 9.901e-3.
        m = CubicModel(0.0, 0.0, 2.0**-8, -1.25, (0.0, 1023.0))
        obs = tilt_obs(m, 1e-2)
        belief = (0.2, 1e-4)
        out, accepted = update_tilt(belief, (0, 384, True), obs)  # z = 0.25
        assert accepted
        assert out[0] == pytest.approx(0.2004950495, abs=1e-9)
        assert out[1] == pytest.approx(9.90099009901e-5, rel=1e-9)

    def test_out_of_window_rejected(self):
        m = CubicModel(0.0, 0.0, 2.0**-8, -1.0, (10.0, 900.0))
        obs = tilt_obs(m, 1e-4)
        belief = (0.1, 1e-4)
        out, accepted = update_tilt(belief, (0, 950, True), obs)
        assert not accepted
        assert out == belief


class TestInitTilt:
    def test_linear_chart(self):
        obs = tilt_obs(EXACT_M0, 1e-4)
        belief = initial_belief(((0, 512, True),), obs, sigma0=1e-4)
        assert belief[0] == 512 * 2.0**-8 - 1.0
        assert belief[1] == 1e-4

    def test_reference_tilt_chart(self):
        obs = tilt_obs(TILT_TRUTH, 1e-4)
        belief = initial_belief(((0, 500, True),), obs)
        assert belief[0] == pytest.approx(
            cubic_value(4.7517e-9, -8.7608e-6, 8.6756e-3, -2.7173, 500.0), abs=1e-12
        )

    def test_out_of_window_raises(self):
        m = CubicModel(0.0, 0.0, 2.0**-8, -1.0, (10.0, 900.0))
        obs = tilt_obs(m, 1e-4)
        with pytest.raises(InitializationError):
            initial_belief(((0, 1023, True),), obs)


class TestVarianceLaws:
    def test_update_never_increases_variance(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            sigma = float(10.0 ** rng.uniform(-6, 0))
            belief = (float(rng.uniform(-1, 1)), sigma)
            n_features = int(rng.integers(0, 3))
            features = [
                (i, belief[0] + float(rng.normal(0, 0.01)), float(10.0 ** rng.uniform(-6, 0)))
                for i in range(n_features)
            ]
            out = update_wheel(belief, features, [belief[0]] * n_features)
            if n_features == 0:
                assert out[1] == belief[1]
            else:
                assert out[1] < belief[1]


class TestGridBayesAgreement:
    def test_single_cycle_matches_brute_force(self):
        # Mini version of the acceptance criterion: one case per mode.
        tm = TransitionModel(k=0.2, dt=0.01, q=0.04)
        belief = (0.6, 4e-4)
        u = 0.8
        bar = predict(belief, u, tm)
        mu_bar = belief[0] + tm.k * tm.dt * u
        sigma_bar = belief[1] + tm.dt * tm.dt * tm.q
        assert bar[0] == pytest.approx(mu_bar, abs=1e-15)

        z0, r0 = 0.62, 2e-4
        z1, r1 = 0.59, 5e-4
        single = update_wheel(bar, [(0, z0, r0)], [bar[0]])
        mean, var = grid_bayes_posterior(mu_bar, sigma_bar, [z0], [r0], n_points=400_000)
        assert single[0] == pytest.approx(mean, rel=1e-6)
        assert single[1] == pytest.approx(var, rel=1e-6)

        dual = update_wheel(bar, [(0, z0, r0), (1, z1, r1)], [bar[0], bar[0]])
        mean, var = grid_bayes_posterior(mu_bar, sigma_bar, [z0, z1], [r0, r1], n_points=400_000)
        assert dual[0] == pytest.approx(mean, rel=1e-6)
        assert dual[1] == pytest.approx(var, rel=1e-6)


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
            for index, z, _ in features:
                want = five_region_shifted_states(float(theta))[index]
                assert want is not None
                assert abs(z - want) <= lsb


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
            return tuple((i, c, a) for i, (c, a) in enumerate(counts[:n_wipers]))

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
        estimator.belief = (mu0, sigma0)
        for _ in range(data.draw(st.integers(1, 40))):
            belief, u = estimator.belief, data.draw(STEP_INPUTS)
            mu_bar = belief[0] + tm.k * tm.dt * u
            readings = []
            for index, (wiper, chart) in enumerate(zip(obs.wipers, charts)):
                # A count tracking the prediction, one beyond the gate, or an edge count.
                near = int(np.argmin(np.abs(chart - shift(WHEEL_TRACKS[index], mu_bar))))
                count = data.draw(st.one_of(
                    st.integers(-3, 3).map(lambda d, near=near: near + d),
                    st.sampled_from([-1, 1]).map(lambda s, near=near: near + s * 200),
                    st.sampled_from([wiper.lo - 1, wiper.lo, wiper.hi, wiper.hi + 1, 0, 1023]),
                    st.integers(0, 1023),
                ))
                readings.append((index, min(max(count, 0), 1023), data.draw(st.booleans())))
            if data.draw(st.booleans()):
                readings.reverse()
            try:
                want = wheel_step_reference(belief, u, readings, obs, tm)
            except SpecError as exc:
                with pytest.raises(SpecError, match=f"^{re.escape(str(exc))}$"):
                    estimator.step(u, readings)
                return
            got = estimator.step(u, readings)
            assert (got.belief[0].hex(), got.belief[1].hex()) == (want[0][0].hex(), want[0][1].hex())
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
        estimator.belief = (mu0, sigma0)
        for _ in range(data.draw(st.integers(1, 40))):
            belief, u = estimator.belief, data.draw(STEP_INPUTS)
            mu_bar = belief[0] + tm.k * tm.dt * u
            near = int(np.argmin(np.abs(chart - mu_bar))) if math.isfinite(mu_bar) else 0
            count = data.draw(st.one_of(
                st.integers(-3, 3).map(lambda d: near + d),
                st.sampled_from([wiper.lo - 1, wiper.lo, wiper.hi, wiper.hi + 1, 0, 1023]),
                st.integers(0, 1023),
            ))
            index = data.draw(st.sampled_from([0, 0, 0, 1]))
            reading = (index, min(max(count, 0), 1023), data.draw(st.booleans()))
            try:
                want = tilt_step_reference(belief, u, reading, obs, tm)
            except SpecError as exc:
                with pytest.raises(SpecError, match=f"^{re.escape(str(exc))}$"):
                    estimator.step(u, (reading,))
                return
            got = estimator.step(u, (reading,))
            assert (got.belief[0].hex(), got.belief[1].hex()) == (want[0][0].hex(), want[0][1].hex())
            assert got.used is want[1] and estimator.belief is got.belief
