"""Scalar Kalman filters over converted angle measurements.

Raw counts are pushed through the fitted cubics into angle-space
"features", which makes the observation model linear: each available
feature measures the per-wiper shifted state directly, so no linearization
of the cubic is ever needed.  Counts are integers, so each observation
model evaluates its cubics once, at construction, into count-to-angle
tables, and every step indexes them.  Wheel filters fuse up to two
features per step and keep their mean on the wrapped chart (-pi, pi];
tilt filters have one always-on feature and no wrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from paintpot.characterize import ModelBundle, ValidRange, WiperFitStats
from paintpot.cubic import CubicModel
from paintpot.errors import InitializationError, SpecError
from paintpot.geometry import (
    SHIFT_EDGE_WIPER0,
    SHIFT_EDGE_WIPER1,
    TWO_PI,
    shift_state_for_wiper,
    wrap_angle,
)
from paintpot.sensor_sim import AdcReading

DEFAULT_SIGMA0 = 1e-4
DEFAULT_PROCESS_NOISE = 0.05
DEFAULT_TRANSMISSION_RATIO = 1.0
DEFAULT_TIMESTEP = 0.01


@dataclass(frozen=True)
class TransitionModel:
    """Random walk with velocity input: x' = x + (k*dt)*u + dt*n, n~N(0,q)."""

    k: float
    dt: float
    q: float

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise SpecError("dt must be positive")
        if self.q < 0.0:
            raise SpecError("q must be >= 0")

    @property
    def g(self) -> float:
        """Input gain: joint radians per commanded motor rad/s over one step."""
        return self.k * self.dt

    @property
    def u_gain(self) -> float:
        """Noise gain: one step integrates the rate noise over dt."""
        return self.dt


class _Belief(NamedTuple):
    mu: float
    sigma: float


class GaussianBelief(_Belief):
    """Scalar Gaussian over a joint angle: mean (rad) and variance (rad^2).

    An immutable tuple.  The mean must be finite and the variance positive.
    """

    __slots__ = ()

    def __new__(cls, mu: float, sigma: float) -> "GaussianBelief":
        if not sigma > 0.0:
            raise SpecError(f"belief variance must be positive, got {sigma!r}")
        if not math.isfinite(mu):
            raise SpecError(f"belief mean must be finite, got {mu!r}")
        return tuple.__new__(cls, (mu, sigma))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too


class _Feature(NamedTuple):
    index: int
    z: float
    r: float


class Feature(_Feature):
    """An available converted measurement from wiper ``index``.

    An immutable tuple.  The measurement ``z`` must be finite.
    """

    __slots__ = ()

    def __new__(cls, index: int, z: float, r: float) -> "Feature":
        if not math.isfinite(z):
            raise SpecError("feature measurement must be finite")
        return tuple.__new__(cls, (index, z, r))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too


def _count_chart(model: CubicModel, top: int) -> tuple[float, ...]:
    """``model`` evaluated at every integer count 0..top, indexed by count.

    numpy performs the same IEEE multiply/add sequence as a scalar
    ``model.evaluate(count)``, so each entry equals that call bit for bit.

    Raises:
        SpecError: an entry is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        angles = model.evaluate(np.arange(top + 1, dtype=np.float64))
    if not np.all(np.isfinite(angles)):
        raise SpecError(f"count-to-angle chart is not finite on counts 0..{top}")
    return tuple(angles.tolist())


@dataclass(frozen=True)
class WheelObservationModel:
    """Per-wiper converted-measurement models with their count windows.

    ``charts[w][count]`` is wiper ``w``'s converted measurement, tabled for
    every count up to its window's ``v_max``.
    """

    m0: CubicModel
    m1: CubicModel
    r0: float
    r1: float
    ranges: tuple[ValidRange, ValidRange]
    charts: tuple[tuple[float, ...], tuple[float, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.r0 <= 0.0 or self.r1 <= 0.0:
            raise SpecError("measurement variances must be positive")
        charts = (
            _count_chart(self.m0, self.ranges[0].v_max),
            _count_chart(self.m1, self.ranges[1].v_max),
        )
        object.__setattr__(self, "charts", charts)


@dataclass(frozen=True)
class TiltObservationModel:
    """One converted-measurement model; ``chart[count]`` for counts in its window."""

    m: CubicModel
    r: float
    chart: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.r <= 0.0:
            raise SpecError("measurement variance must be positive")
        lo, hi = self.m.v_window
        if lo < 0.0:
            raise SpecError(f"tilt model window must start at a count >= 0, got {lo}")
        object.__setattr__(self, "chart", _count_chart(self.m, math.floor(hi)))


def predict(belief: GaussianBelief, u: float, tm: TransitionModel) -> GaussianBelief:
    """Prediction step: mean moves by g*u, variance grows by u_gain**2 * q."""
    mu, sigma = belief
    # g = k*dt and u_gain = dt, spelled out: the same products in the same order.
    return GaussianBelief(mu + tm.k * tm.dt * u, sigma + tm.dt * tm.dt * tm.q)


def predicted_feature_measurement(mu_bar: float, index: int) -> float:
    """Predicted converted measurement: the mean on wiper ``index``'s chart."""
    return shift_state_for_wiper(mu_bar, index)


def extract_features(
    readings: Sequence[AdcReading], obs: WheelObservationModel
) -> list[Feature]:
    """Converted measurements from the readings that are usable this step.

    A reading contributes iff it is flagged available and its count lies
    strictly inside that wiper's valid range.  An empty list is legal; the
    update then degenerates to the prediction.
    """
    features: list[Feature] = []
    for wiper, count, available in readings:
        if wiper not in (0, 1):
            raise SpecError(f"wiper index must be 0 or 1, got {wiper}")
        if available and obs.ranges[wiper].admits(count):
            features.append(Feature(wiper, obs.charts[wiper][count], obs.r1 if wiper else obs.r0))
    return features


def wrap_wheel_belief(belief: GaussianBelief) -> GaussianBelief:
    """Wrap the mean into (-pi, pi]; variance is chart-independent."""
    return GaussianBelief(wrap_angle(belief.mu), belief.sigma)


def update_wheel(
    belief_bar: GaussianBelief,
    features: Sequence[Feature],
    predicted: Sequence[float],
) -> GaussianBelief:
    """Measurement update for a wheel joint, wrapped into (-pi, pi].

    ``predicted`` aligns with ``features`` and holds each feature's
    predicted measurement (the predicted mean pushed through that wiper's
    shift).  Innovations are plain differences: both values live on the
    same shifted chart, which is the whole point of the shift machinery.
    """
    n = len(features)
    if n != len(predicted):
        raise SpecError("features and predicted measurements must align")
    mu, sigma = belief_bar
    if n == 1:
        _, z, r = features[0]
        gain = sigma / (sigma + r)
        mu = mu + gain * (z - predicted[0])
        sigma = sigma - gain * sigma
    elif n == 2:
        (_, z0, r0), (_, z1, r1) = features
        # Row gain of the 2x2 innovation solve with C = [1, 1]^T and
        # R = diag(r0, r1), reduced to scalars.
        det = sigma * r0 + sigma * r1 + r0 * r1
        k0 = sigma * r1 / det
        k1 = sigma * r0 / det
        mu = mu + k0 * (z0 - predicted[0]) + k1 * (z1 - predicted[1])
        sigma = sigma - (k0 + k1) * sigma
    elif n:
        raise SpecError("a wheel update takes at most two features")
    return GaussianBelief(wrap_angle(mu), sigma)


def update_tilt(
    belief_bar: GaussianBelief, reading: AdcReading, obs: TiltObservationModel
) -> tuple[GaussianBelief, bool]:
    """Scalar update for the tilt joint.

    Counts outside the model's trusted window are rejected (cubic
    extrapolation beyond calibration data is unbounded); the prediction is
    then returned unchanged with ``accepted=False``.
    """
    _, count, available = reading
    lo, hi = obs.m.v_window
    if not available or not lo <= count <= hi:
        return belief_bar, False
    z = obs.chart[count]
    mu, sigma = belief_bar
    gain = sigma / (sigma + obs.r)
    return GaussianBelief(mu + gain * (z - mu), sigma - gain * sigma), True


def init_wheel(
    readings: Sequence[AdcReading],
    obs: WheelObservationModel,
    sigma0: float = DEFAULT_SIGMA0,
) -> GaussianBelief:
    """Seed a wheel belief from the first usable wiper.

    Wiper 0 is preferred; its converted value is brought back onto
    (-pi, pi] by adding a turn if it landed below -pi.  Otherwise wiper 1
    is used, subtracting a turn if above pi.
    """
    by_index = {reading.wiper_index: reading for reading in readings}
    if set(by_index) != {0, 1}:
        raise SpecError("wheel initialization needs one reading per wiper")
    r0, r1 = by_index[0], by_index[1]
    if r0.available and obs.ranges[0].admits(r0.count):
        mu = obs.charts[0][r0.count]
        if mu < -math.pi:
            mu += 2.0 * math.pi
    elif r1.available and obs.ranges[1].admits(r1.count):
        mu = obs.charts[1][r1.count]
        if mu > math.pi:
            mu -= 2.0 * math.pi
    else:
        raise InitializationError(
            "neither wiper reading is inside its valid range; "
            "the sensor is miscalibrated or the counts are garbage"
        )
    return GaussianBelief(mu, sigma0)


def init_tilt(
    reading: AdcReading, obs: TiltObservationModel, sigma0: float = DEFAULT_SIGMA0
) -> GaussianBelief:
    """Seed a tilt belief by evaluating the model at the first count."""
    lo, hi = obs.m.v_window
    if not reading.available or not lo <= reading.count <= hi:
        raise InitializationError(
            f"tilt count {reading.count} outside the model window [{lo}, {hi}]"
        )
    return GaussianBelief(obs.chart[reading.count], sigma0)


class WheelStep(NamedTuple):
    belief: GaussianBelief
    used: tuple[bool, bool]


class TiltStep(NamedTuple):
    belief: GaussianBelief
    used: bool


@dataclass
class WheelEstimator:
    """Stateful convenience wrapper: predict, extract, gate, update, wrap.

    The gate drops any feature whose innovation exceeds ``gate_sigmas``
    predicted standard deviations.  Right at a chart edge the true state
    and a lagging predicted mean can sit on opposite shift branches, which
    hands the linear update a full-turn-corrupted innovation; such a
    feature is unusable for one step and the filter rides the other wiper.
    """

    obs: WheelObservationModel
    tm: TransitionModel
    sigma0: float = DEFAULT_SIGMA0
    gate_sigmas: float = 6.0
    belief: GaussianBelief | None = None

    def initialize(self, readings: Sequence[AdcReading]) -> GaussianBelief:
        self.belief = init_wheel(readings, self.obs, self.sigma0)
        return self.belief

    def step(self, u: float, readings: Sequence[AdcReading]) -> WheelStep:
        if self.belief is None:
            raise InitializationError("call initialize() before step()")
        belief_bar = predict(self.belief, u, self.tm)
        mu_bar, sigma_bar = belief_bar
        # predicted_feature_measurement for each wiper, inlined.
        z_bar0 = mu_bar - TWO_PI if mu_bar > SHIFT_EDGE_WIPER0 else mu_bar
        z_bar1 = mu_bar + TWO_PI if mu_bar < SHIFT_EDGE_WIPER1 else mu_bar
        kept: list[Feature] = []
        z_bars: list[float] = []
        used = [False, False]
        for feat in extract_features(readings, self.obs):
            index, z, r = feat
            z_bar = z_bar1 if index else z_bar0
            if abs(z - z_bar) <= self.gate_sigmas * math.sqrt(sigma_bar + r):
                kept.append(feat)
                z_bars.append(z_bar)
                used[index] = True
        self.belief = update_wheel(belief_bar, kept, z_bars)
        return WheelStep(self.belief, (used[0], used[1]))


@dataclass
class TiltEstimator:
    obs: TiltObservationModel
    tm: TransitionModel
    sigma0: float = DEFAULT_SIGMA0
    belief: GaussianBelief | None = None

    def initialize(self, reading: AdcReading) -> GaussianBelief:
        self.belief = init_tilt(reading, self.obs, self.sigma0)
        return self.belief

    def step(self, u: float, reading: AdcReading) -> TiltStep:
        if self.belief is None:
            raise InitializationError("call initialize() before step()")
        belief_bar = predict(self.belief, u, self.tm)
        self.belief, used = update_tilt(belief_bar, reading, self.obs)
        return TiltStep(self.belief, used)


def default_measurement_variance(model: CubicModel, stats: WiperFitStats) -> float:
    """Residual-derived R, floored at the one-count angle equivalent squared."""
    lo, hi = model.v_window
    mean_slope = abs(float(model.evaluate(hi)) - float(model.evaluate(lo))) / (hi - lo)
    return max(stats.rms * stats.rms, mean_slope * mean_slope)


def transition_from_bundle(bundle: ModelBundle) -> TransitionModel:
    params = bundle.filter_params
    return TransitionModel(
        k=float(params.get("k", DEFAULT_TRANSMISSION_RATIO)),
        dt=float(params.get("dt", DEFAULT_TIMESTEP)),
        q=float(params.get("q", DEFAULT_PROCESS_NOISE)),
    )


def wheel_observation_from_bundle(bundle: ModelBundle) -> WheelObservationModel:
    if bundle.sensor_kind != "wheel" or len(bundle.models) != 2 or len(bundle.valid_ranges) != 2:
        raise SpecError("bundle does not describe a wheel sensor")
    params = bundle.filter_params
    if "r0" in params or "r1" in params:
        try:
            r0, r1 = float(params["r0"]), float(params["r1"])
        except KeyError as exc:
            raise SpecError("wheel bundles need both r0 and r1") from exc
    else:
        if len(bundle.report.wipers) != 2:
            raise SpecError("bundle carries neither r0/r1 nor a fit report")
        r0, r1 = (
            default_measurement_variance(bundle.models[i], bundle.report.wipers[i])
            for i in (0, 1)
        )
    return WheelObservationModel(
        m0=bundle.models[0],
        m1=bundle.models[1],
        r0=r0,
        r1=r1,
        ranges=(bundle.valid_ranges[0], bundle.valid_ranges[1]),
    )


def tilt_observation_from_bundle(bundle: ModelBundle) -> TiltObservationModel:
    if bundle.sensor_kind != "tilt" or len(bundle.models) != 1:
        raise SpecError("bundle does not describe a tilt sensor")
    r = bundle.filter_params.get("r")
    if r is None:
        if len(bundle.report.wipers) != 1:
            raise SpecError("bundle carries neither an r value nor a fit report")
        r = default_measurement_variance(bundle.models[0], bundle.report.wipers[0])
    return TiltObservationModel(m=bundle.models[0], r=float(r))
