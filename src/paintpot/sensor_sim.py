"""Ground-truth sensor plant: ideal voltages, ADC quantization, kinematics.

The simulator inverts a truth characterization to find the continuous
voltage a wiper would report at a given joint angle, then pushes it through
a noisy quantizer.  A reading validates its angle once, then costs one
inversion (two cubic evaluations on the reference sensors, see
:mod:`paintpot.cubic`) and one normal draw per wiper.  Wheel sensors expose
two wipers with disjoint gap spans so at least one wiper is on the track at
every angle; while a wiper rides its gap the reading is flagged unavailable
and its count is a rail artifact.
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
from paintpot.geometry import (
    GAP_WIPER0,
    GAP_WIPER1,
    TILT_LIMIT,
    Interval,
    shift_state_for_wiper,
    wrap_angle,
)

# Floating-pin convention while a wiper rides its gap: the ADC sags to the
# low rail, which the valid-range test downstream rejects.
GAP_RAIL_VOLTAGE = 0.0


@dataclass(frozen=True)
class WheelSensorSpec:
    """Geometry and truth models of a dual-wiper wheel sensor.

    ``truth_w0``/``truth_w1`` map counts to the per-wiper shifted state;
    ``gap_w0``/``gap_w1`` are the angle spans where each wiper's reading is
    invalid.  Angles live on (-pi, pi] with -pi accepted and mapped to pi.
    """

    truth_w0: CubicModel
    truth_w1: CubicModel
    gap_w0: Interval = GAP_WIPER0
    gap_w1: Interval = GAP_WIPER1
    adc_max: int = 1023
    noise_std: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.gap_w0.lo and self.gap_w0.hi < math.pi):
            raise SpecError("wiper-0 gap must lie inside (0, pi)")
        if not (-math.pi < self.gap_w1.lo and self.gap_w1.hi < 0.0):
            raise SpecError("wiper-1 gap must lie inside (-pi, 0)")
        check_adc_max(self.adc_max)
        if self.noise_std < 0.0:
            raise SpecError("noise_std must be >= 0")

    def gap(self, wiper: int) -> Interval:
        return self.gap_w0 if wiper == 0 else self.gap_w1

    def truth(self, wiper: int) -> CubicModel:
        return self.truth_w0 if wiper == 0 else self.truth_w1

    def shift_edge(self, wiper: int) -> float:
        return self.gap_w0.hi if wiper == 0 else self.gap_w1.lo


@dataclass(frozen=True)
class TiltSensorSpec:
    """Single-wiper tilt sensor covering [-angle_limit, +angle_limit]."""

    truth: CubicModel
    angle_limit: float = TILT_LIMIT
    adc_max: int = 1023
    noise_std: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.angle_limit <= math.pi:
            raise SpecError("angle_limit must lie in (0, pi]")
        check_adc_max(self.adc_max)
        if self.noise_std < 0.0:
            raise SpecError("noise_std must be >= 0")


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


def _validated_wheel_angle(theta: float) -> float:
    if not math.isfinite(theta) or theta < -math.pi or theta > math.pi:
        raise DomainError(f"wheel angle {theta!r} outside (-pi, pi]")
    return math.pi if theta == -math.pi else theta


def _wiper_voltage(theta: float, wiper: int, spec: WheelSensorSpec) -> float | None:
    """:func:`wheel_ideal_voltage` for an angle already validated."""
    if spec.gap(wiper).contains(theta):
        return None
    shifted = shift_state_for_wiper(theta, wiper, spec.shift_edge(wiper))
    return invert_cubic(spec.truth(wiper), shifted)


def wheel_ideal_voltage(theta: float, wiper: int, spec: WheelSensorSpec) -> float | None:
    """Noiseless continuous count ``wiper`` reports at ``theta``.

    Returns None when ``theta`` lies inside that wiper's gap span.  The
    angle is first moved onto the wiper's shifted chart, then the truth
    cubic is inverted by a bracketed Newton iteration.
    """
    theta = _validated_wheel_angle(theta)
    if wiper not in (0, 1):
        raise SpecError(f"wiper index must be 0 or 1, got {wiper}")
    return _wiper_voltage(theta, wiper, spec)


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


def read_wheel(
    theta: float, spec: WheelSensorSpec, rng: np.random.Generator
) -> tuple[AdcReading, AdcReading]:
    """Both wiper readings at ``theta``: ideal voltage, noise, quantization.

    A wiper inside its gap reads the rail voltage and is flagged unavailable.
    """
    theta = _validated_wheel_angle(theta)
    readings = []
    for wiper in (0, 1):
        voltage = _wiper_voltage(theta, wiper, spec)
        available = voltage is not None
        count = quantize(
            voltage if available else GAP_RAIL_VOLTAGE, spec.noise_std, rng, spec.adc_max
        )
        readings.append(AdcReading(wiper, count, available))
    return readings[0], readings[1]


def read_tilt(theta: float, spec: TiltSensorSpec, rng: np.random.Generator) -> AdcReading:
    """Single always-available tilt reading at ``theta``."""
    if not math.isfinite(theta) or abs(theta) > spec.angle_limit:
        raise DomainError(f"tilt angle {theta!r} outside [-{spec.angle_limit}, {spec.angle_limit}]")
    voltage = invert_cubic(spec.truth, theta)
    return AdcReading(0, quantize(voltage, spec.noise_std, rng, spec.adc_max), True)


def simulate_plant_step(
    theta: float,
    omega: float,
    k: float,
    dt: float,
    q_true: float,
    rng: np.random.Generator,
    kind: str = "wheel",
    angle_limit: float = TILT_LIMIT,
) -> PlantStep:
    """One Euler step of the joint kinematics: theta + k*omega*dt + n*dt.

    ``n ~ N(0, q_true)``.  Wheel results wrap into (-pi, pi]; tilt results
    clamp at the mechanical stops and flag saturation.
    """
    if dt <= 0.0:
        raise SpecError("dt must be positive")
    if q_true < 0.0:
        raise SpecError("q_true must be >= 0")
    noise = float(rng.normal(0.0, math.sqrt(q_true)))
    theta_next = theta + k * omega * dt + noise * dt
    if kind == "wheel":
        return PlantStep(wrap_angle(theta_next), False)
    if kind == "tilt":
        if theta_next > angle_limit:
            return PlantStep(angle_limit, True)
        if theta_next < -angle_limit:
            return PlantStep(-angle_limit, True)
        return PlantStep(theta_next, False)
    raise SpecError(f"unknown plant kind {kind!r}")


def sensor_spec_to_dict(spec: WheelSensorSpec | TiltSensorSpec) -> dict:
    """JSON-ready dict form of a sensor spec (cubic coefficients as strings)."""
    if isinstance(spec, WheelSensorSpec):
        return {
            "kind": "wheel",
            "adc_max": spec.adc_max,
            "noise_std": spec.noise_std,
            "gap_w0": [spec.gap_w0.lo, spec.gap_w0.hi],
            "gap_w1": [spec.gap_w1.lo, spec.gap_w1.hi],
            "truth_w0": spec.truth_w0.to_dict(),
            "truth_w1": spec.truth_w1.to_dict(),
        }
    if isinstance(spec, TiltSensorSpec):
        return {
            "kind": "tilt",
            "adc_max": spec.adc_max,
            "noise_std": spec.noise_std,
            "angle_limit": spec.angle_limit,
            "truth": spec.truth.to_dict(),
        }
    raise SpecError(f"unknown sensor spec type {type(spec).__name__}")


def sensor_spec_from_dict(data: dict) -> WheelSensorSpec | TiltSensorSpec:
    """Inverse of :func:`sensor_spec_to_dict`, with schema validation."""
    try:
        kind = data["kind"]
        if kind == "wheel":
            return WheelSensorSpec(
                truth_w0=CubicModel.from_dict(data["truth_w0"]),
                truth_w1=CubicModel.from_dict(data["truth_w1"]),
                gap_w0=Interval(*map(float, data.get("gap_w0", (GAP_WIPER0.lo, GAP_WIPER0.hi)))),
                gap_w1=Interval(*map(float, data.get("gap_w1", (GAP_WIPER1.lo, GAP_WIPER1.hi)))),
                adc_max=int(data.get("adc_max", 1023)),
                noise_std=float(data.get("noise_std", 1.0)),
            )
        if kind == "tilt":
            return TiltSensorSpec(
                truth=CubicModel.from_dict(data["truth"]),
                angle_limit=float(data.get("angle_limit", TILT_LIMIT)),
                adc_max=int(data.get("adc_max", 1023)),
                noise_std=float(data.get("noise_std", 1.0)),
            )
        raise SpecError(f"sensor kind must be 'wheel' or 'tilt', got {kind!r}")
    except (KeyError, TypeError, ValueError, FitError) as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError(f"malformed sensor spec: {exc}") from exc


def load_sensor_spec(path: str | Path) -> WheelSensorSpec | TiltSensorSpec:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: invalid JSON: {exc}") from exc
    return sensor_spec_from_dict(data)


def save_sensor_spec(spec: WheelSensorSpec | TiltSensorSpec, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(sensor_spec_to_dict(spec), handle, indent=2, sort_keys=True)
        handle.write("\n")
