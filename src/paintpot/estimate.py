"""Scalar Kalman filters over converted angle measurements.

Raw counts are pushed through the fitted cubics into angle-space
"features", which makes the observation model linear: each admitted
feature measures the per-wiper shifted state directly, so no linearization
of the cubic is ever needed.  One :class:`ObservationModel` describes every
joint: a tuple of wipers, each with its cubic, its variance ``r``, the
counts it admits, its track and a count-to-angle table, plus a ``wrap``
flag.  A wheel is two tracked wipers with a wrap: its filter fuses up to
two features per step and keeps its mean on the wrapped chart (-pi, pi].
A tilt is one wiper with neither.  Both steps predict on floats in the
operation order of :func:`predict`; the wheel step then gates the features
of :func:`extract_features` against the mean shifted by each track and
fuses them as :func:`update_wheel` does, the tilt step through
:func:`update_tilt`.  Each belief is built past the class call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from paintpot.characterize import ModelBundle, WiperFitStats
from paintpot.cubic import CubicModel
from paintpot.errors import InitializationError, SpecError
from paintpot.geometry import WiperTrack, wrap_angle
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
        for name in ("k", "dt", "q"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise SpecError(f"{name} must be finite, got {value!r}")
        if self.dt <= 0.0:
            raise SpecError("dt must be positive")
        if self.q < 0.0:
            raise SpecError("q must be >= 0")

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


def _belief(mu: float, sigma: float) -> GaussianBelief:
    """``GaussianBelief(mu, sigma)`` built past the class call, after one float test."""
    if sigma > 0.0 and math.isfinite(mu):
        return tuple.__new__(GaussianBelief, (mu, sigma))
    return GaussianBelief(mu, sigma)  # raises the belief's own error


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

    The wiper admits the counts ``lo..hi`` (inclusive); ``chart[count]`` is its cubic
    at ``count``, the state on its ``track`` if any, tabled for every count from 0 to ``hi``.
    """

    model: CubicModel
    r: float
    lo: int
    hi: int
    track: WiperTrack | None = None
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


def predict(belief: GaussianBelief, u: float, tm: TransitionModel) -> GaussianBelief:
    """Prediction step: mean moves by k*dt*u, variance grows by u_gain**2 * q."""
    mu, sigma = belief
    # u_gain = dt, spelled out: the same products in the same order.
    return GaussianBelief(mu + tm.k * tm.dt * u, sigma + tm.dt * tm.dt * tm.q)


def extract_features(
    readings: Sequence[AdcReading], obs: ObservationModel
) -> list[Feature]:
    """Converted measurements of the admitted readings, in reading order.

    The one place readings become features: a reading is admitted iff it
    is flagged available and its count is in its wiper's ``lo..hi``.  An
    empty list is legal; the update then degenerates to the prediction.
    """
    wipers = obs.wipers
    features: list[Feature] = []
    for index, count, available in readings:
        if not 0 <= index < len(wipers):
            raise SpecError(f"wiper index must be in 0..{len(wipers) - 1}, got {index}")
        wiper = wipers[index]
        if available and wiper.lo <= count <= wiper.hi:
            # A chart is finite by construction, so z needs no second check.
            features.append(tuple.__new__(Feature, (index, wiper.chart[count], wiper.r)))
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

    A reading of any wiper but 0 raises :class:`SpecError`, as in
    :func:`extract_features`.  One that is not admitted (cubic extrapolation
    beyond calibration data is unbounded) leaves the prediction unchanged,
    with ``accepted=False``.
    """
    (wiper,) = obs.wipers
    index, count, available = reading
    if index != 0:
        raise SpecError(f"wiper index must be in 0..0, got {index}")
    if not (available and wiper.lo <= count <= wiper.hi):
        return belief_bar, False
    mu, sigma = belief_bar
    gain = sigma / (sigma + wiper.r)
    return _belief(mu + gain * (wiper.chart[count] - mu), sigma - gain * sigma), True


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
    for _, z, _ in extract_features(ordered, obs):
        return GaussianBelief(wrap_angle(z) if obs.wrap else z, sigma0)
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

    A step works on floats and builds one belief; it equals
    :func:`predict`, :func:`extract_features`, the gate and
    :func:`update_wheel` bit for bit.  The gate drops any feature whose
    innovation exceeds ``gate_sigmas`` predicted standard deviations.
    Right at a chart edge the true state and a lagging predicted mean can
    sit on opposite shift branches, which hands the linear update a
    full-turn-corrupted innovation; such a feature is unusable for one step
    and the filter rides the other wiper.
    """

    obs: ObservationModel
    tm: TransitionModel
    sigma0: float = DEFAULT_SIGMA0
    gate_sigmas: float = 6.0
    belief: GaussianBelief | None = None

    def __post_init__(self) -> None:
        tracks = [wiper.track for wiper in self.obs.wipers]
        if len(tracks) != 2 or None in tracks:
            raise SpecError("a wheel estimator needs two wipers on gapped tracks")
        # Each wiper's shift edge and turn, read once for every step.
        self._shifts = [(track.edge, track.turn) for track in tracks]

    def initialize(self, readings: Sequence[AdcReading]) -> GaussianBelief:
        self.belief = initial_belief(readings, self.obs, self.sigma0)
        return self.belief

    def step(self, u: float, readings: Sequence[AdcReading]) -> WheelStep:
        if self.belief is None:
            raise InitializationError("call initialize() before step()")
        mu, sigma = self.belief
        tm = self.tm
        mu = mu + tm.k * tm.dt * u
        sigma = sigma + tm.dt * tm.dt * tm.q
        if not (sigma > 0.0 and math.isfinite(mu)):
            GaussianBelief(mu, sigma)  # raises the belief's own error
        # Each wiper's predicted measurement: the mean on its shifted chart (WiperTrack.shift).
        (edge0, turn0), (edge1, turn1) = self._shifts
        z_bar0 = mu + turn0 if (mu - edge0) * turn0 < 0.0 else mu
        z_bar1 = mu + turn1 if (mu - edge1) * turn1 < 0.0 else mu
        kept: list[tuple[float, float]] = []
        used = [False, False]
        for index, z, r in extract_features(readings, self.obs):
            nu = z - (z_bar1 if index else z_bar0)
            if abs(nu) <= self.gate_sigmas * math.sqrt(sigma + r):
                kept.append((nu, r))
                used[index] = True
        if len(kept) == 1:
            ((nu, r),) = kept
            gain = sigma / (sigma + r)
            mu = mu + gain * nu
            sigma = sigma - gain * sigma
        elif len(kept) == 2:
            (nu0, r0), (nu1, r1) = kept
            det = sigma * r0 + sigma * r1 + r0 * r1
            k0 = sigma * r1 / det
            k1 = sigma * r0 / det
            mu = mu + k0 * nu0 + k1 * nu1
            sigma = sigma - (k0 + k1) * sigma
        elif kept:
            raise SpecError("a wheel update takes at most two features")
        self.belief = belief = _belief(wrap_angle(mu), sigma)
        return tuple.__new__(WheelStep, (belief, (used[0], used[1])))


@dataclass
class TiltEstimator:
    """Stateful convenience wrapper: predict on floats, then :func:`update_tilt`.

    A step equals :func:`predict`, then :func:`update_tilt`, bit for bit."""

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
        mu, sigma = self.belief
        tm = self.tm
        belief_bar = _belief(mu + tm.k * tm.dt * u, sigma + tm.dt * tm.dt * tm.q)
        step = tuple.__new__(TiltStep, update_tilt(belief_bar, reading, self.obs))
        self.belief = step[0]
        return step


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
    wipers = tuple(Wiper(m, r, lo, hi, t) for m, r, (lo, hi), t in zip(models, rs, admitted, bundle.tracks))
    return ObservationModel(wipers, wrap=bool(bundle.valid_ranges))
