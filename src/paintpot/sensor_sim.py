"""Ground-truth sensor plant: ideal voltages, ADC quantization, kinematics.

A :class:`SensorSpec` is a tuple of wipers plus an angle range.  A wheel
wraps and has two wipers on gapped tracks, so one is on its track at every
angle; a tilt has an angle limit and one wiper without a gap.  A reading
validates its angle once, then per wiper inverts the truth cubic for the
continuous voltage (two cubic evaluations on the reference sensors, see
:mod:`paintpot.cubic`) and quantizes it with one normal draw.  While a
wiper rides its gap the reading is flagged unavailable and its count is a
rail artifact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from paintpot.cubic import CubicModel, invert_cubic
from paintpot.errors import DomainError, FitError, SpecError, check_adc_max
from paintpot.geometry import TILT_LIMIT, WHEEL_TRACKS, Interval, WiperTrack, wrap_angle

# Floating-pin convention while a wiper rides its gap: the ADC sags to the
# low rail, which the valid-range test downstream rejects.
GAP_RAIL_VOLTAGE = 0.0

# The sensor kinds of spec files and their default angle limits (None: it wraps).
_KIND_LIMITS = {"wheel": None, "tilt": TILT_LIMIT}


class WiperSpec(NamedTuple):
    """One wiper: its truth cubic, from counts to its state, and its gapped
    track, if any; without one its state is the joint angle itself."""

    truth: CubicModel
    track: WiperTrack | None = None

    def voltage(self, theta: float) -> float | None:
        """Noiseless continuous count at the validated angle ``theta``, or
        None while the wiper rides its gap."""
        track = self.track
        if track is not None:
            if track.gap.contains(theta):
                return None
            theta = track.shift(theta)
        return invert_cubic(self.truth, theta)


@dataclass(frozen=True)
class SensorSpec:
    """A simulated sensor: its wipers, its ADC and noise, and its angle range.

    Without an ``angle_limit`` it is a wheel: angles wrap on (-pi, pi], -pi
    read as pi, and every wiper rides a gapped track.  With one it is a
    tilt, stopping at +-``angle_limit``, and no wiper has a gap.
    """

    wipers: tuple[WiperSpec, ...]
    angle_limit: float | None = None
    adc_max: int = 1023
    noise_std: float = 1.0

    def __post_init__(self) -> None:
        if not self.wipers:
            raise SpecError("a sensor needs at least one wiper")
        if any((wiper.track is None) == self.wrap for wiper in self.wipers):
            raise SpecError("each wiper of a wheel needs a gapped track, and no wiper of a tilt has one")
        if not (self.wrap or 0.0 < self.angle_limit <= math.pi):
            raise SpecError("angle_limit must lie in (0, pi]")
        check_adc_max(self.adc_max)
        if not self.noise_std >= 0.0:
            raise SpecError("noise_std must be >= 0")

    @property
    def wrap(self) -> bool:
        return self.angle_limit is None

    @property
    def kind(self) -> str:
        """The sensor's name in files: ``wheel`` when it wraps, else ``tilt``."""
        return "wheel" if self.wrap else "tilt"


class AdcReading(NamedTuple):
    """One quantized sample from one wiper (an immutable tuple).

    When ``available`` is False the wiper was in its gap; the count is then
    unspecified rail garbage and must not be interpreted as position.
    """

    wiper_index: int
    count: int
    available: bool


class PlantStep(NamedTuple):
    theta: float
    saturated: bool


def quantize(voltage: float, noise_std: float, rng: np.random.Generator, adc_max: int) -> int:
    """``round(voltage + N(0, noise_std))`` clamped to [0, adc_max].

    Rounding is half-away-from-zero so results do not depend on the
    platform's default banker's rounding.
    """
    # One test on the valid path, which every reading takes; on failure,
    # name the fault.
    if adc_max < 1 or (adc_max + 1) & adc_max or noise_std < 0.0:
        check_adc_max(adc_max)
        raise SpecError("noise_std must be >= 0")
    noisy = voltage + rng.normal(0.0, noise_std)
    rounded = math.floor(noisy + 0.5) if noisy >= 0.0 else math.ceil(noisy - 0.5)
    return int(min(max(rounded, 0), adc_max))


def _read(theta: float, spec: SensorSpec, rng: np.random.Generator) -> list[AdcReading]:
    """One reading per wiper at ``theta``: ideal voltage, noise, quantization.

    A wiper inside its gap reads the rail voltage and is flagged unavailable.
    """
    limit = spec.angle_limit
    if limit is None:
        if not -math.pi <= theta <= math.pi:
            raise DomainError(f"wheel angle {theta!r} outside (-pi, pi]")
        if theta == -math.pi:
            theta = math.pi
    elif not abs(theta) <= limit:
        raise DomainError(f"tilt angle {theta!r} outside [-{limit}, {limit}]")
    readings = []
    for index, wiper in enumerate(spec.wipers):
        voltage = wiper.voltage(theta)
        available = voltage is not None
        count = quantize(
            voltage if available else GAP_RAIL_VOLTAGE, spec.noise_std, rng, spec.adc_max
        )
        readings.append(AdcReading(index, count, available))
    return readings


def read_wheel(
    theta: float, spec: SensorSpec, rng: np.random.Generator
) -> tuple[AdcReading, AdcReading]:
    """Both wiper readings of a wheel at ``theta``."""
    r0, r1 = _read(theta, spec, rng)
    return r0, r1


def read_tilt(theta: float, spec: SensorSpec, rng: np.random.Generator) -> AdcReading:
    """The one reading of a tilt at ``theta``."""
    (reading,) = _read(theta, spec, rng)
    return reading


def read(theta: float, spec: SensorSpec, rng: np.random.Generator) -> tuple[AdcReading, ...]:
    """One reading per wiper at ``theta``, by :func:`read_wheel` or :func:`read_tilt`."""
    if spec.angle_limit is None:
        return read_wheel(theta, spec, rng)
    return (read_tilt(theta, spec, rng),)


def simulate_plant_step(
    theta: float, omega: float, k: float, dt: float, q_true: float,
    rng: np.random.Generator, angle_limit: float | None = None,
) -> PlantStep:
    """One Euler step of the joint kinematics: theta + k*omega*dt + n*dt.

    ``n ~ N(0, q_true)``.  Without ``angle_limit`` (a wheel) results wrap
    into (-pi, pi]; with one (a tilt) they clamp at the mechanical stops
    and flag saturation.
    """
    if not dt > 0.0:
        raise SpecError("dt must be positive")
    if not q_true >= 0.0:
        raise SpecError("q_true must be >= 0")
    noise = float(rng.normal(0.0, math.sqrt(q_true)))
    theta_next = theta + k * omega * dt + noise * dt
    if angle_limit is None:
        return PlantStep(wrap_angle(theta_next), False)
    if theta_next > angle_limit:
        return PlantStep(angle_limit, True)
    if theta_next < -angle_limit:
        return PlantStep(-angle_limit, True)
    return PlantStep(theta_next, False)


def sensor_spec_to_dict(spec: SensorSpec) -> dict:
    """JSON-ready dict form of a sensor spec (cubic coefficients as strings).

    A wheel's wipers are written as ``gap_w<i>`` and ``truth_w<i>``; a
    tilt's one wiper as ``truth``, with its ``angle_limit``.
    """
    data = {"kind": spec.kind, "adc_max": spec.adc_max, "noise_std": spec.noise_std}
    if spec.wrap:
        gaps = [wiper.track.gap for wiper in spec.wipers]
        data.update({f"gap_w{i}": [gap.lo, gap.hi] for i, gap in enumerate(gaps)})
        data.update({f"truth_w{i}": wiper.truth.to_dict() for i, wiper in enumerate(spec.wipers)})
    else:
        (wiper,) = spec.wipers
        data.update(angle_limit=spec.angle_limit, truth=wiper.truth.to_dict())
    return data


def sensor_spec_from_dict(data: dict) -> SensorSpec:
    """Inverse of :func:`sensor_spec_to_dict`, with schema validation.

    A wheel's gaps default to the standard tracks, and each turns the way
    its standard track does.
    """
    try:
        kind = data["kind"]
        if kind not in _KIND_LIMITS:
            raise SpecError(f"sensor kind must be 'wheel' or 'tilt', got {kind!r}")
        limit = _KIND_LIMITS[kind]
        if limit is None:
            truths = [CubicModel.from_dict(data[f"truth_w{i}"]) for i in range(len(WHEEL_TRACKS))]
            gaps = [data.get(f"gap_w{i}", (t.gap.lo, t.gap.hi)) for i, t in enumerate(WHEEL_TRACKS)]
            tracks = [WiperTrack(Interval(*map(float, g)), t.turn) for g, t in zip(gaps, WHEEL_TRACKS)]
            wipers = tuple(map(WiperSpec, truths, tracks))
        else:
            wipers = (WiperSpec(CubicModel.from_dict(data["truth"])),)
            limit = float(data.get("angle_limit", limit))
        return SensorSpec(
            wipers,
            limit,
            adc_max=int(data.get("adc_max", 1023)),
            noise_std=float(data.get("noise_std", 1.0)),
        )
    except (KeyError, TypeError, ValueError, FitError) as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError(f"malformed sensor spec: {exc}") from exc


def load_sensor_spec(path: str | Path) -> SensorSpec:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: invalid JSON: {exc}") from exc
    return sensor_spec_from_dict(data)


def save_sensor_spec(spec: SensorSpec, path: str | Path) -> None:
    text = json.dumps(sensor_spec_to_dict(spec), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text + "\n")
