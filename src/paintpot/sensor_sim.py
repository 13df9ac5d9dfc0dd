"""Ground-truth sensor plant: ideal voltages, ADC quantization, kinematics.

A :class:`SensorSpec` is a tuple of wipers plus an angle range.  A wheel
wraps and has two wipers on gapped tracks, so one is on its track at every
angle; a tilt has an angle limit and one wiper without a gap.  A reading
validates its angle once; :func:`read_wheel` and :func:`read_tilt` share
one body that takes each wiper in turn.  While a wiper rides its gap it
reads the rail voltage, flagged unavailable, so its count is a rail
artifact.  Elsewhere its state is the angle, one turn on past its shift
edge, and :func:`~paintpot.cubic.invert_cubic` of its truth cubic at that
state is the continuous voltage (two cubic evaluations on the reference
sensors).  The wiper's count-noise draw is added and :func:`quantize`
makes the count.  Reads and plant steps take their noise already drawn and
scaled, so a sweep or a run draws all of it in one call.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from paintpot.cubic import CubicModel, invert_cubic
from paintpot.errors import DomainError, FitError, SpecError, check_adc_max
from paintpot.geometry import WiperTrack, geometry_from_dict, wrap_angle

# Floating-pin convention while a wiper rides its gap: the ADC sags to the
# low rail, which the valid-range test downstream rejects.
GAP_RAIL_VOLTAGE = 0.0


class WiperSpec(NamedTuple):
    """One wiper: its truth cubic, from counts to its state, and its gapped
    track, if any; without one its state is the joint angle itself."""

    truth: CubicModel
    track: WiperTrack | None = None


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
        if not 0.0 <= self.noise_std < math.inf:
            raise SpecError(f"noise_std must be >= 0 and finite, got {self.noise_std!r}")

    @property
    def wrap(self) -> bool:
        return self.angle_limit is None

    @property
    def tracks(self) -> tuple[WiperTrack | None, ...]:
        return tuple(wiper.track for wiper in self.wipers)

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


def quantize(voltage: float, adc_max: int) -> int:
    """``voltage`` rounded to a count and clamped to [0, adc_max].

    Rounding is half-away-from-zero so results do not depend on the
    platform's default banker's rounding.
    """
    # One test on the valid path, which every reading takes.
    if adc_max < 1 or (adc_max + 1) & adc_max:
        check_adc_max(adc_max)
    rounded = math.floor(voltage + 0.5) if voltage >= 0.0 else math.ceil(voltage - 0.5)
    return 0 if rounded < 0 else adc_max if rounded > adc_max else rounded


def _read(theta: float, spec: SensorSpec, noise: Sequence[float]) -> list[AdcReading]:
    """One reading per wiper at ``theta``: ideal voltage plus its draw, quantized.

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
    adc_max = spec.adc_max
    readings = []
    for index, ((truth, track), draw) in enumerate(zip(spec.wipers, noise, strict=True)):
        state, available = theta, True
        if track is not None:
            if track.gap.lo <= theta <= track.gap.hi:
                available = False
            elif (theta - track.edge) * track.turn < 0.0:
                state = theta + track.turn
        voltage = invert_cubic(truth, state) if available else GAP_RAIL_VOLTAGE
        readings.append(tuple.__new__(AdcReading, (index, quantize(voltage + draw, adc_max), available)))
    return readings


def read_wheel(theta: float, spec: SensorSpec, noise: Sequence[float]) -> tuple[AdcReading, AdcReading]:
    """Both wiper readings of a wheel at ``theta``, with its two count-noise draws."""
    r0, r1 = _read(theta, spec, noise)
    return r0, r1


def read_tilt(theta: float, spec: SensorSpec, noise: Sequence[float]) -> AdcReading:
    """The one reading of a tilt at ``theta``, with its one count-noise draw."""
    (reading,) = _read(theta, spec, noise)
    return reading


def read(theta: float, spec: SensorSpec, noise: Sequence[float]) -> tuple[AdcReading, ...]:
    """One reading per wiper at ``theta``, by :func:`read_wheel` or :func:`read_tilt`;
    ``noise`` holds one count-noise draw per wiper, scaled by ``spec.noise_std``."""
    if spec.angle_limit is None:
        return read_wheel(theta, spec, noise)
    return (read_tilt(theta, spec, noise),)


def simulate_plant_step(
    theta: float, omega: float, k: float, dt: float, noise: float, angle_limit: float | None = None
) -> PlantStep:
    """One Euler step of the joint kinematics: theta + k*omega*dt + noise*dt.

    ``noise`` is the drawn rate noise, ``N(0, q)`` for a plant variance
    ``q``.  Without ``angle_limit`` (a wheel) results wrap into (-pi, pi];
    with one (a tilt) they clamp at the mechanical stops and flag
    saturation.
    """
    if not dt > 0.0:
        raise SpecError("dt must be positive")
    theta_next = theta + k * omega * dt + noise * dt
    if angle_limit is None:
        step = (wrap_angle(theta_next), False)
    elif theta_next > angle_limit:
        step = (angle_limit, True)
    elif theta_next < -angle_limit:
        step = (-angle_limit, True)
    else:
        step = (theta_next, False)
    return tuple.__new__(PlantStep, step)


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
    """Inverse of :func:`sensor_spec_to_dict`, with schema validation; the
    reference sensor its ``kind`` names fills the tracks and angle limit it
    leaves out (:func:`~paintpot.geometry.geometry_from_dict`)."""
    try:
        tracks, limit = geometry_from_dict(data["kind"], data)
        names = [f"truth_w{i}" for i in range(len(tracks))] if limit is None else ["truth"]
        wipers = tuple(WiperSpec(CubicModel.from_dict(data[n]), t) for n, t in zip(names, tracks))
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
        except UnicodeDecodeError as exc:
            raise SpecError(f"{path}: not UTF-8: {exc.reason}") from exc
    return sensor_spec_from_dict(data)


def save_sensor_spec(spec: SensorSpec, path: str | Path) -> None:
    text = json.dumps(sensor_spec_to_dict(spec), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text + "\n")
