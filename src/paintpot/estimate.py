"""Scalar Kalman filters over converted angle measurements.

Raw counts are pushed through the fitted cubics into angle-space "features",
which makes the observation model linear: each admitted feature measures the
per-wiper shifted state directly, so no linearization of the cubic is ever
needed.  One :class:`ObservationModel` describes every joint: a tuple of
wipers, each with its cubic, its variance ``r``, the counts it admits, its
track and a count-to-angle chart, whose tracks give its kind.  It keeps one
``(lo, hi, chart, r)`` tuple per wiper, so a reading becomes a feature, a
plain ``(index, z, r)`` triple with ``z = chart[count]``, by one index, one
unpack and one chart lookup.  A wheel is two tracked wipers with a wrap: its
filter fuses up to two features per step and keeps its mean on the wrapped
chart (-pi, pi].  A tilt is one wiper with neither.  The two estimators share
one shell; each steps on floats in :func:`predict`'s order, then the wheel's
gates the features of :func:`extract_features` against the mean shifted by
each track and fuses them as :func:`update_wheel` does, the tilt's updates
through :func:`update_tilt`.  A belief is a plain ``(mu, sigma)`` pair of
floats, a finite mean (rad) and a positive variance (rad^2), and every
function that makes one returns it through one check (:func:`_belief`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple, Sequence

import numpy as np

from paintpot.characterize import ModelBundle, variance_keys
from paintpot.cubic import CubicModel
from paintpot.errors import InitializationError, SpecError, number_at
from paintpot.geometry import TWO_PI, WiperTrack, joint_kind, wrap_angle

DEFAULT_SIGMA0 = 1e-4
DEFAULT_PROCESS_NOISE = 0.05
DEFAULT_TRANSMISSION_RATIO = 1.0
DEFAULT_TIMESTEP = 0.01
GATE_SIGMAS = 6.0  # the wheel gate's width, in predicted standard deviations

# Looked up once for the step tuples built past their class call on every step.
_new_tuple = tuple.__new__


@dataclass(frozen=True)
class TransitionModel:
    """Random walk with velocity input: x' = x + (k*dt)*u + dt*n, n~N(0,q)."""

    k: float
    dt: float
    q: float
    _products: tuple[float, float] = field(init=False, repr=False, compare=False)  # (k*dt, dt*dt*q)

    def __post_init__(self) -> None:
        for name in ("k", "dt", "q"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise SpecError(f"{name} must be finite, got {value!r}")
        if self.dt <= 0.0:
            raise SpecError("dt must be positive")
        if self.q < 0.0:
            raise SpecError("q must be >= 0")
        object.__setattr__(self, "_products", (self.k * self.dt, self.dt * self.dt * self.q))


def _belief(mu: float, sigma: float) -> tuple[float, float]:
    """The belief ``(mu, sigma)``; a variance that is not positive or a mean
    that is not finite raises :class:`SpecError`."""
    if not sigma > 0.0:
        raise SpecError(f"belief variance must be positive, got {sigma!r}")
    if not math.isfinite(mu):
        raise SpecError(f"belief mean must be finite, got {mu!r}")
    return mu, sigma


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

    The wiper admits the counts ``lo..hi``; ``chart[count]``, for every count from 0 to ``hi``, is
    its cubic at ``count``, the state on its ``track`` if any.
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


@dataclass(frozen=True)
class ObservationModel:
    """A joint's wipers, whose tracks give its ``kind`` (:func:`~paintpot.geometry.joint_kind`).

    A wheel is two wipers, each admitting its valid range's strict
    interior, and its angle wraps onto (-pi, pi]; a tilt is one wiper,
    admitting the counts inside its model window, and does not wrap.
    """

    wipers: tuple[Wiper, ...]
    kind: str = field(init=False, repr=False, compare=False)
    # [i]: wiper i's (lo, hi, chart, r); no object per count, so none for the collector to track.
    _admits: tuple[tuple[int, int, tuple[float, ...], float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", joint_kind([wiper.track for wiper in self.wipers]))
        admits = []
        for index, wiper in enumerate(self.wipers):
            if not (math.isfinite(wiper.r) and wiper.r > 0.0):
                raise SpecError(
                    f"wiper {index}: measurement variance r must be finite and positive, "
                    f"got {wiper.r!r}"
                )
            admits.append((wiper.lo, wiper.hi, wiper.chart, wiper.r))
        object.__setattr__(self, "_admits", tuple(admits))

    @property
    def wrap(self) -> bool:
        return self.kind == "wheel"


def predict(belief: tuple[float, float], u: float, tm: TransitionModel) -> tuple[float, float]:
    """Prediction step: mean moves by k*dt*u, variance grows by dt**2 * q."""
    mu, sigma = belief
    return _belief(mu + tm.k * tm.dt * u, sigma + tm.dt * tm.dt * tm.q)


def extract_features(
    readings: Sequence[tuple[int, int, bool]], obs: ObservationModel
) -> list[tuple[int, float, float]]:
    """Converted measurements ``(index, z, r)`` of the admitted readings, in reading order.

    The one place ``(index, count, available)`` readings become features:
    one is admitted iff it is flagged available and its count is in its
    wiper's ``lo..hi``, and its ``z`` is its wiper's ``chart[count]``, finite
    as every chart entry is.  An empty list is legal; the update then
    degenerates to the prediction.
    """
    admits = obs._admits
    features = []
    for index, count, available in readings:
        if not 0 <= index < len(admits):
            raise SpecError(f"wiper index must be in 0..{len(admits) - 1}, got {index}")
        lo, hi, chart, r = admits[index]
        if available and lo <= count <= hi:
            features.append((index, chart[count], r))
    return features


def update_wheel(
    belief_bar: tuple[float, float],
    features: Sequence[tuple[int, float, float]],
    predicted: Sequence[float],
) -> tuple[float, float]:
    """Measurement update for a wheel joint, wrapped into (-pi, pi].

    ``features`` are ``(index, z, r)`` triples as :func:`extract_features`
    returns.  ``predicted`` aligns with them and holds each feature's
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
    return _belief(wrap_angle(mu), sigma)


def update_tilt(
    belief_bar: tuple[float, float], reading: tuple[int, int, bool], obs: ObservationModel
) -> tuple[tuple[float, float], bool]:
    """Scalar update of a one-wiper model on its reading, without a gate.

    A reading of any wiper but 0 raises :class:`SpecError`, as in
    :func:`extract_features`.  One that is not admitted (cubic extrapolation
    beyond calibration data is unbounded) leaves the prediction unchanged,
    with ``accepted=False``.
    """
    ((lo, hi, chart, r),) = obs._admits
    index, count, available = reading
    if index != 0:
        raise SpecError(f"wiper index must be in 0..0, got {index}")
    if not (available and lo <= count <= hi):
        return belief_bar, False
    mu, sigma = belief_bar
    gain = sigma / (sigma + r)
    return _belief(mu + gain * (chart[count] - mu), sigma - gain * sigma), True


def initial_belief(
    readings: Sequence[tuple[int, int, bool]], obs: ObservationModel, sigma0: float = DEFAULT_SIGMA0
) -> tuple[float, float]:
    """Seed a belief from the first admitted reading in wiper order.

    ``readings`` holds one reading per wiper.  The mean is the admitted
    reading's converted value, wrapped onto (-pi, pi] when the model wraps.
    """
    ordered = sorted(readings)
    if [index for index, _, _ in ordered] != list(range(len(obs.wipers))):
        raise SpecError(f"initialization needs one reading per wiper, got {ordered}")
    for _, z, _ in extract_features(ordered, obs):
        return _belief(wrap_angle(z) if obs.wrap else z, sigma0)
    raise InitializationError(
        f"no reading is admitted (counts {[count for _, count, _ in ordered]}, admitted "
        f"{[(wiper.lo, wiper.hi) for wiper in obs.wipers]}); "
        "the sensor is miscalibrated or the counts are garbage"
    )


class Step(NamedTuple):
    belief: tuple[float, float]  # (mu, sigma)
    used: tuple[bool, bool] | bool  # a flag per wiper for a wheel, one for a tilt


@dataclass
class Estimator:
    """Both filters' shell: a model of the class's ``kind``, and the belief that
    :meth:`initialize` seeds (or a caller sets) and each subclass's ``step`` advances."""

    kind: ClassVar[str]
    obs: ObservationModel
    tm: TransitionModel
    sigma0: float = DEFAULT_SIGMA0
    belief: tuple[float, float] | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.obs.kind != self.kind:
            raise SpecError(f"a {self.kind} estimator needs a {self.kind} observation model, got a {self.obs.kind}")
        # Each tracked wiper's shift edge and turn, read once for every step.
        self._shifts = [(wiper.track.edge, wiper.track.turn) for wiper in self.obs.wipers if wiper.track]

    def initialize(self, readings: Sequence[tuple[int, int, bool]]) -> tuple[float, float]:
        self.belief = initial_belief(readings, self.obs, self.sigma0)
        return self.belief


class WheelEstimator(Estimator):
    """Predict, extract, gate, update, wrap.

    A step works on plain floats and equals :func:`predict`,
    :func:`extract_features`, the gate and :func:`update_wheel` bit for
    bit.  The gate drops any feature whose innovation exceeds
    :data:`GATE_SIGMAS` predicted standard deviations.  Right at a chart
    edge the true state and a lagging predicted mean can sit on opposite
    shift branches, which hands the linear update a full-turn-corrupted
    innovation; such a feature is unusable for one step and the filter
    rides the other wiper.
    """

    kind = "wheel"

    def step(self, u: float, readings: Sequence[tuple[int, int, bool]]) -> Step:
        belief = self.belief
        if belief is None:
            raise InitializationError("call initialize() before step()")
        k_dt, dt_dt_q = self.tm._products
        mu = belief[0] + k_dt * u
        sigma = belief[1] + dt_dt_q
        if not (sigma > 0.0 and math.isfinite(mu)):
            _belief(mu, sigma)  # raises
        # Each wiper's predicted measurement: the mean on its shifted chart, one turn on past its edge.
        (edge0, turn0), (edge1, turn1) = self._shifts
        z_bar0 = mu + turn0 if (mu - edge0) * turn0 < 0.0 else mu
        z_bar1 = mu + turn1 if (mu - edge1) * turn1 < 0.0 else mu
        kept = 0
        used0 = used1 = False
        for index, z, r in extract_features(readings, self.obs):
            nu = z - (z_bar1 if index else z_bar0)
            if abs(nu) <= GATE_SIGMAS * math.sqrt(sigma + r):
                if kept:
                    nu1, r1 = nu, r
                else:
                    nu0, r0 = nu, r
                kept += 1
                if index:
                    used1 = True
                else:
                    used0 = True
        if kept == 1:
            gain = sigma / (sigma + r0)
            mu = mu + gain * nu0
            sigma = sigma - gain * sigma
        elif kept == 2:
            det = sigma * r0 + sigma * r1 + r0 * r1
            k0 = sigma * r1 / det
            k1 = sigma * r0 / det
            mu = mu + k0 * nu0 + k1 * nu1
            sigma = sigma - (k0 + k1) * sigma
        elif kept:
            raise SpecError("a wheel update takes at most two features")
        mu = math.remainder(mu, TWO_PI)  # wrap_angle, inline
        if mu == -math.pi:
            mu = math.pi
        if not (sigma > 0.0 and math.isfinite(mu)):
            _belief(mu, sigma)  # raises
        self.belief = belief = (mu, sigma)
        return _new_tuple(Step, (belief, (used0, used1)))


class TiltEstimator(Estimator):
    """Predict on floats, then update: :func:`predict`, then :func:`update_tilt`, bit for bit."""

    kind = "tilt"

    def step(self, u: float, readings: Sequence[tuple[int, int, bool]]) -> Step:
        belief = self.belief
        if belief is None:
            raise InitializationError("call initialize() before step()")
        (reading,) = readings
        k_dt, dt_dt_q = self.tm._products
        belief_bar = _belief(belief[0] + k_dt * u, belief[1] + dt_dt_q)
        step = _new_tuple(Step, update_tilt(belief_bar, reading, self.obs))
        self.belief = step[0]
        return step


def default_measurement_variance(model: CubicModel, stats: tuple[int, float, float]) -> float:
    """R from the fit's ``(n, rms, max_abs)``: rms squared, floored at the one-count angle equivalent squared."""
    _, rms, _ = stats
    lo, hi = model.v_window
    mean_slope = abs(float(model.evaluate(hi)) - float(model.evaluate(lo))) / (hi - lo)
    return max(rms * rms, mean_slope * mean_slope)


def transition_from_bundle(bundle: ModelBundle) -> TransitionModel:
    params = {"filter": bundle.filter_params}  # the file's key paths, which errors name
    return TransitionModel(
        k=number_at(params, "filter.k", DEFAULT_TRANSMISSION_RATIO),
        dt=number_at(params, "filter.dt", DEFAULT_TIMESTEP),
        q=number_at(params, "filter.q", DEFAULT_PROCESS_NOISE),
    )


def observation_from_bundle(bundle: ModelBundle) -> ObservationModel:
    """The bundle's observation model: a wheel's wipers admit their valid
    ranges' strict interiors, a tilt's wiper the counts inside its model
    window.  Each ``r`` comes from the filter parameters (see
    :func:`variance_keys`) or, when they name none, from the fit report."""
    models, params = bundle.models, bundle.filter_params
    keys = variance_keys(len(models))
    if any(key in params for key in keys):
        if not all(key in params for key in keys):
            raise SpecError(f"bundle filter parameters need all of {', '.join(keys)}")
        rs = [number_at({"filter": params}, f"filter.{key}") for key in keys]
    elif len(bundle.report) == len(models):
        rs = list(map(default_measurement_variance, models, bundle.report))
    else:
        raise SpecError(f"bundle carries neither {', '.join(keys)} nor a fit report")
    if bundle.valid_ranges:
        admitted = [(v_min + 1, v_max - 1) for v_min, v_max in bundle.valid_ranges]
    else:
        admitted = [(math.ceil(m.v_window[0]), math.floor(m.v_window[1])) for m in models]
    wipers = tuple(Wiper(m, r, lo, hi, t) for m, r, (lo, hi), t in zip(models, rs, admitted, bundle.tracks))
    return ObservationModel(wipers)
