"""Scalar Kalman filters over converted angle measurements.

Raw counts are pushed through the fitted cubics into angle-space
"features", which makes the observation model linear: each admitted
feature measures the per-wiper shifted state directly, so no linearization
of the cubic is ever needed.  One :class:`ObservationModel` describes every
joint: a tuple of wipers, each with its cubic, its variance ``r``, the
counts it admits and a count-to-angle table evaluated once, at
construction, plus a ``wrap`` flag.  A wheel is two wipers with a wrap: its
filter fuses up to two features per step and keeps its mean on the wrapped
chart (-pi, pi].  A tilt is one wiper without one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from paintpot.characterize import ModelBundle, WiperFitStats
from paintpot.cubic import CubicModel
from paintpot.errors import InitializationError, SpecError
from paintpot.geometry import TWO_PI, WHEEL_TRACKS, wrap_angle
from paintpot.sensor_sim import AdcReading

# Where the standard wheel wipers' predicted measurements shift one turn.
SHIFT_EDGE_WIPER0, SHIFT_EDGE_WIPER1 = (track.edge for track in WHEEL_TRACKS)

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
        for name in ("k", "dt", "q"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise SpecError(f"{name} must be finite, got {value!r}")
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
    """An admitted converted measurement from wiper ``index``.

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
class Wiper:
    """One wiper's converted measurement.

    The wiper admits the counts ``lo..hi`` (inclusive); ``chart[count]`` is
    its cubic at ``count``, tabled for every count from 0 to ``hi``.
    """

    model: CubicModel
    r: float
    lo: int
    hi: int
    chart: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.lo < 0:
            raise SpecError(f"admitted counts must start at a count >= 0, got {self.lo}")
        object.__setattr__(self, "chart", _count_chart(self.model, self.hi))

    def admits(self, count: int) -> bool:
        return self.lo <= count <= self.hi


@dataclass(frozen=True)
class ObservationModel:
    """A joint's wipers, and whether its angle wraps onto (-pi, pi].

    A wheel is two wipers, each admitting its valid range's strict
    interior, with a wrap; a tilt is one wiper, admitting the counts inside
    its model window, without.
    """

    wipers: tuple[Wiper, ...]
    wrap: bool

    def __post_init__(self) -> None:
        if not self.wipers:
            raise SpecError("an observation model needs at least one wiper")
        for index, wiper in enumerate(self.wipers):
            if not (math.isfinite(wiper.r) and wiper.r > 0.0):
                raise SpecError(
                    f"wiper {index}: measurement variance r must be finite and positive, "
                    f"got {wiper.r!r}"
                )

    def feature(self, reading: AdcReading) -> Feature | None:
        """The reading's converted measurement if it is admitted, else None.

        A reading is admitted iff it is flagged available and its wiper
        admits its count.
        """
        index, count, available = reading
        wipers = self.wipers
        if not 0 <= index < len(wipers):
            raise SpecError(f"wiper index must be in 0..{len(wipers) - 1}, got {index}")
        wiper = wipers[index]
        if available and wiper.admits(count):
            return Feature(index, wiper.chart[count], wiper.r)
        return None


def predict(belief: GaussianBelief, u: float, tm: TransitionModel) -> GaussianBelief:
    """Prediction step: mean moves by g*u, variance grows by u_gain**2 * q."""
    mu, sigma = belief
    # g = k*dt and u_gain = dt, spelled out: the same products in the same order.
    return GaussianBelief(mu + tm.k * tm.dt * u, sigma + tm.dt * tm.dt * tm.q)


def extract_features(
    readings: Sequence[AdcReading], obs: ObservationModel
) -> list[Feature]:
    """Converted measurements of the admitted readings, in reading order.

    An empty list is legal; the update then degenerates to the prediction.
    """
    features: list[Feature] = []
    feature_of = obs.feature
    for reading in readings:
        feature = feature_of(reading)
        if feature is not None:
            features.append(feature)
    return features


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
    belief_bar: GaussianBelief, reading: AdcReading, obs: ObservationModel
) -> tuple[GaussianBelief, bool]:
    """Scalar update of a one-wiper model on its reading, without a gate.

    A reading that is not admitted (cubic extrapolation beyond calibration
    data is unbounded) leaves the prediction unchanged, with
    ``accepted=False``.
    """
    (wiper,) = obs.wipers
    _, count, available = reading
    if not (available and wiper.admits(count)):
        return belief_bar, False
    z = wiper.chart[count]
    mu, sigma = belief_bar
    gain = sigma / (sigma + wiper.r)
    return GaussianBelief(mu + gain * (z - mu), sigma - gain * sigma), True


def initial_belief(
    readings: Sequence[AdcReading], obs: ObservationModel, sigma0: float = DEFAULT_SIGMA0
) -> GaussianBelief:
    """Seed a belief from the first admitted reading in wiper order.

    ``readings`` holds one reading per wiper.  The mean is the admitted
    reading's converted value, wrapped onto (-pi, pi] when the model wraps.
    """
    ordered = sorted(readings)
    if [reading.wiper_index for reading in ordered] != list(range(len(obs.wipers))):
        raise SpecError(f"initialization needs one reading per wiper, got {ordered}")
    for feature in map(obs.feature, ordered):
        if feature is not None:
            return GaussianBelief(wrap_angle(feature.z) if obs.wrap else feature.z, sigma0)
    raise InitializationError(
        f"no reading is admitted (counts {[reading.count for reading in ordered]}, admitted "
        f"{[(wiper.lo, wiper.hi) for wiper in obs.wipers]}); "
        "the sensor is miscalibrated or the counts are garbage"
    )


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

    obs: ObservationModel
    tm: TransitionModel
    sigma0: float = DEFAULT_SIGMA0
    gate_sigmas: float = 6.0
    belief: GaussianBelief | None = None

    def initialize(self, readings: Sequence[AdcReading]) -> GaussianBelief:
        self.belief = initial_belief(readings, self.obs, self.sigma0)
        return self.belief

    def step(self, u: float, readings: Sequence[AdcReading]) -> WheelStep:
        if self.belief is None:
            raise InitializationError("call initialize() before step()")
        belief_bar = predict(self.belief, u, self.tm)
        mu_bar, sigma_bar = belief_bar
        # Each wiper's predicted measurement: the mean on its shifted chart.
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
    """Stateful convenience wrapper: predict, then update on the one wiper."""

    obs: ObservationModel
    tm: TransitionModel
    sigma0: float = DEFAULT_SIGMA0
    belief: GaussianBelief | None = None

    def initialize(self, readings: Sequence[AdcReading]) -> GaussianBelief:
        self.belief = initial_belief(readings, self.obs, self.sigma0)
        return self.belief

    def step(self, u: float, readings: Sequence[AdcReading]) -> TiltStep:
        if self.belief is None:
            raise InitializationError("call initialize() before step()")
        (reading,) = readings
        belief_bar = predict(self.belief, u, self.tm)
        self.belief, used = update_tilt(belief_bar, reading, self.obs)
        return TiltStep(self.belief, used)


def default_measurement_variance(model: CubicModel, stats: WiperFitStats) -> float:
    """Residual-derived R, floored at the one-count angle equivalent squared."""
    lo, hi = model.v_window
    mean_slope = abs(float(model.evaluate(hi)) - float(model.evaluate(lo))) / (hi - lo)
    return max(stats.rms * stats.rms, mean_slope * mean_slope)


def filter_value(params: dict, key: str, default: float | None = None) -> float:
    """The bundle filter parameter ``key`` (``default`` when it is absent)
    as a float; the error of a value that is not a number names ``filter.<key>``."""
    value = params.get(key, default)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise SpecError(f"filter.{key} must be a number, got {value!r}") from None


def transition_from_bundle(bundle: ModelBundle) -> TransitionModel:
    params = bundle.filter_params
    return TransitionModel(
        k=filter_value(params, "k", DEFAULT_TRANSMISSION_RATIO),
        dt=filter_value(params, "dt", DEFAULT_TIMESTEP),
        q=filter_value(params, "q", DEFAULT_PROCESS_NOISE),
    )


def variance_keys(n_wipers: int) -> tuple[str, ...]:
    """Filter-parameter names of the wipers' ``r``: ``r`` alone, else ``r0``, ``r1``, ..."""
    return ("r",) if n_wipers == 1 else tuple(f"r{i}" for i in range(n_wipers))


def observation_from_bundle(bundle: ModelBundle) -> ObservationModel:
    """The bundle's observation model.

    A bundle with valid ranges describes a wheel: each wiper admits its
    valid range's strict interior, and the angle wraps.  Otherwise each
    wiper admits the counts inside its model window.  Each ``r`` comes from
    the filter parameters (see :func:`variance_keys`) or, when they name
    none, from the fit report.
    """
    models, params = bundle.models, bundle.filter_params
    keys = variance_keys(len(models))
    if any(key in params for key in keys):
        if not all(key in params for key in keys):
            raise SpecError(f"bundle filter parameters need all of {', '.join(keys)}")
        rs = [filter_value(params, key) for key in keys]
    elif len(bundle.report.wipers) == len(models):
        rs = [default_measurement_variance(m, s) for m, s in zip(models, bundle.report.wipers)]
    else:
        raise SpecError(f"bundle carries neither {', '.join(keys)} nor a fit report")
    if bundle.valid_ranges:
        admitted = [(valid.v_min + 1, valid.v_max - 1) for valid in bundle.valid_ranges]
    else:
        admitted = [(math.ceil(m.v_window[0]), math.floor(m.v_window[1])) for m in models]
    wipers = tuple(Wiper(m, r, lo, hi) for m, r, (lo, hi) in zip(models, rs, admitted))
    return ObservationModel(wipers, wrap=bool(bundle.valid_ranges))
