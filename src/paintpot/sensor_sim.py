"""Ground-truth sensor plant: ideal voltages, ADC quantization, kinematics.

A :class:`SensorSpec` is a tuple of wipers plus an angle range.  A wheel
wraps and has two wipers on gapped tracks, so one is on its track at every
angle; a tilt has an angle limit and one wiper without a gap.  A reading is
a plain ``(index, count, available)`` triple.  A read validates its angle
once; :func:`read_wheel` and :func:`read_tilt` share one body that takes
each wiper's row of :attr:`SensorSpec.read_table` in turn.  While a wiper
rides its gap it reads the rail voltage, flagged unavailable, so its count
is a rail artifact.  Elsewhere its state is the angle, one turn on past its
shift edge, and its count is :func:`quantize` of its count-noise draw plus
the voltage :func:`~paintpot.cubic.invert_cubic` finds for that state on
its truth cubic; most reads settle and round it from the cubic's chart and
slack, without Newton.  Reads and plant steps take their noise already
drawn and scaled, so a sweep or a run draws all of it in one call.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from paintpot.cubic import CubicModel, invert_cubic
from paintpot.errors import (
    DomainError, SpecError, as_float, check_adc_max, json_text, malformed, refuse_unknown_keys, write_text,
)
from paintpot.geometry import GEOMETRY_KEYS, Geometry, WiperTrack, geometry_from_dict, joint_kind, wrap_angle

# Each kind's truth-cubic keys in a sensor file, one per wiper.
TRUTH_KEYS = {"wheel": ("truth_w0", "truth_w1"), "tilt": ("truth",)}

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

    Its ``kind`` (:func:`~paintpot.geometry.joint_kind`) is a wheel, two wipers
    on gapped tracks whose angles wrap on (-pi, pi], -pi read as pi, or a
    tilt, one trackless wiper stopping at +-``angle_limit``.
    """

    wipers: tuple[WiperSpec, ...]
    angle_limit: float | None = None
    adc_max: int = 1023
    noise_std: float = 1.0
    kind: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", joint_kind(self.tracks, self.angle_limit))
        check_adc_max(self.adc_max)
        if not 0.0 <= self.noise_std < math.inf:
            raise SpecError(f"noise_std must be >= 0 and finite, got {self.noise_std!r}")

    @property
    def wrap(self) -> bool:
        return self.angle_limit is None

    @property
    def tracks(self) -> tuple[WiperTrack | None, ...]:
        return tuple(wiper.track for wiper in self.wipers)

    @cached_property
    def read_table(self) -> tuple[tuple, ...]:
        """``(index, truth, gap_lo, gap_hi, edge, turn, *truth.slack)`` per wiper: all
        a read takes of it.  A trackless wiper's empty gap ``(inf, -inf)`` and turn
        0.0 put no angle in its gap or past its edge.  Built with each truth's chart
        and slack on the first read, so a spec that is only parsed builds none."""
        table = []
        for index, (truth, t) in enumerate(self.wipers):
            ends = (math.inf, -math.inf, 0.0, 0.0) if t is None else (t.gap.lo, t.gap.hi, t.edge, t.turn)
            table.append((index, truth, *ends, *truth.slack))
        return tuple(table)


def quantize(voltage: float, adc_max: int) -> int:
    """``voltage`` rounded to a count and clamped to [0, adc_max].

    Rounding is half-away-from-zero so results do not depend on the
    platform's default banker's rounding; below 0.5 every count clamps to 0,
    so rounding half up is the same.  An infinite voltage clamps too.
    """
    # One test on the valid path, which every reading takes.
    if adc_max < 1 or (adc_max + 1) & adc_max:
        check_adc_max(adc_max)
    half_up = voltage + 0.5
    return 0 if half_up < 1.0 else adc_max if half_up >= adc_max + 1 else math.floor(half_up)


def _read(theta: float, spec: SensorSpec, noise: Sequence[float]) -> list[tuple[int, int, bool]]:
    """One ``(index, count, available)`` reading per wiper at ``theta``.

    A wiper inside its gap reads the rail voltage and is flagged unavailable.
    Any other count is ``quantize(invert_cubic(truth, state) + draw)``, a
    voltage within the slack ``E`` of the chart's regula-falsi point ``v``
    (:attr:`~paintpot.cubic.CubicModel.slack`).  ``fl(x + draw)`` and
    :func:`quantize` are both non-decreasing, so when ``(v - E) + draw`` and
    ``(v + E) + draw`` quantize to one count, that is the count: the upper
    end does when, plus 0.5, it stays below the lower end's count plus one.
    The lower end is rounded in place, in :func:`quantize`'s operation order.
    Otherwise, or off the chart's keys, the state is inverted.
    """
    limit = spec.angle_limit
    if limit is None:
        if not -math.pi <= theta <= math.pi:
            raise DomainError(f"wheel angle {theta!r} outside (-pi, pi]")
        if theta == -math.pi:
            theta = math.pi
    elif not abs(theta) <= limit:
        raise DomainError(f"tilt angle {theta!r} outside [-{limit}, {limit}]")
    adc_max = spec.adc_max  # checked when the spec was made
    readings = []
    for (index, truth, gap_lo, gap_hi, edge, turn, sign, find, low, high, keys, knots, slack), draw in zip(
        spec.read_table, noise, strict=True
    ):
        if gap_lo <= theta <= gap_hi:
            readings.append((index, quantize(GAP_RAIL_VOLTAGE + draw, adc_max), False))
            continue
        state = theta + turn if (theta - edge) * turn < 0.0 else theta
        key = sign * state
        if low < key < high:
            k = find(keys, key)
            lo, f_lo = knots[k - 1], keys[k - 1] - key
            v = lo - f_lo * (knots[k] - lo) / (keys[k] - key - f_lo)
            e = slack[k]
            half_up = v - e + draw + 0.5
            count = 0 if half_up < 1.0 else adc_max if half_up >= adc_max + 1 else math.floor(half_up)
            if v + e + draw + 0.5 < count + 1:  # the upper end rounds to count too
                readings.append((index, count, True))
                continue
        readings.append((index, quantize(invert_cubic(truth, state) + draw, adc_max), True))
    return readings


def read_wheel(theta: float, spec: SensorSpec, noise: Sequence[float]) -> tuple[tuple[int, int, bool], ...]:
    """Both wiper readings of a wheel at ``theta``, with its two count-noise draws."""
    r0, r1 = _read(theta, spec, noise)
    return r0, r1


def read_tilt(theta: float, spec: SensorSpec, noise: Sequence[float]) -> tuple[int, int, bool]:
    """The one reading of a tilt at ``theta``, with its one count-noise draw."""
    (reading,) = _read(theta, spec, noise)
    return reading


def read(theta: float, spec: SensorSpec, noise: Sequence[float]) -> tuple[tuple[int, int, bool], ...]:
    """One reading per wiper at ``theta``, by :func:`read_wheel` or :func:`read_tilt`;
    ``noise`` holds one count-noise draw per wiper, scaled by ``spec.noise_std``."""
    if spec.angle_limit is None:
        return read_wheel(theta, spec, noise)
    return (read_tilt(theta, spec, noise),)


def simulate_plant_step(
    theta: float, omega: float, k: float, dt: float, noise: float, angle_limit: float | None = None
) -> tuple[float, bool]:
    """One Euler step of the joint kinematics, ``(theta, saturated)``:
    theta + k*omega*dt + noise*dt.

    ``noise`` is the drawn rate noise, ``N(0, q)`` for a plant variance
    ``q``.  Without ``angle_limit`` (a wheel) results wrap into (-pi, pi];
    with one (a tilt) they clamp at the mechanical stops and flag
    saturation.
    """
    if not dt > 0.0:
        raise SpecError("dt must be positive")
    theta_next = theta + k * omega * dt + noise * dt
    if angle_limit is None:
        return wrap_angle(theta_next), False
    if theta_next > angle_limit:
        return angle_limit, True
    if theta_next < -angle_limit:
        return -angle_limit, True
    return theta_next, False


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


def sensor_geometry_from_dict(data: dict, path: str = "") -> Geometry:
    """A sensor file's tracks, angle limit and ADC width, checked: all that
    calibration reads of it.  The reference sensor its ``kind`` names fills
    the tracks and angle limit it leaves out
    (:func:`~paintpot.geometry.geometry_from_dict`).  A key no sensor file
    holds is refused.  A fault names its key by its path after ``path``, the
    path of the spec in the file that holds it (``"sensor."`` in an
    experiment config)."""
    with malformed("sensor spec"):
        geometry = geometry_from_dict(data["kind"], data, path)
        keys = ("kind", "noise_std", *TRUTH_KEYS[data["kind"]], *GEOMETRY_KEYS[data["kind"]])
        refuse_unknown_keys(data, {"": keys}, "sensor-spec", path)
        return geometry


def sensor_spec_from_dict(data: dict, path: str = "") -> SensorSpec:
    """Inverse of :func:`sensor_spec_to_dict`, with schema validation: the
    file's geometry (:func:`sensor_geometry_from_dict`), and a truth cubic
    per wiper, which only the simulator reads.  ``path`` is as in
    :func:`sensor_geometry_from_dict`, and begins each cubic's key."""
    tracks, limit, adc_max = sensor_geometry_from_dict(data, path)
    with malformed("sensor spec"):
        names = TRUTH_KEYS[data["kind"]]
        wipers = tuple(WiperSpec(CubicModel.from_dict(data[n], path + n), t) for n, t in zip(names, tracks))
        noise_std = as_float(data.get("noise_std", 1.0), f"{path}noise_std")
        if noise_std < 0.0:  # as SensorSpec checks it, naming its whole path
            raise SpecError(f"{path}noise_std must be >= 0 and finite, got {noise_std!r}")
        spec = SensorSpec(wipers, limit, adc_max=adc_max, noise_std=noise_std)
    for i, (truth, track) in enumerate(spec.wipers):
        low, high = truth.angle_range()
        lo, hi = (-limit, limit) if track is None else track.window
        if not low <= lo <= hi <= high:
            keys = f"{path}truth and {path}angle_limit" if track is None else f"{path}truth_w{i} and {path}gap_w{i}"
            raise SpecError(f"{keys} contradict each other: the cubic reaches angles "
                            f"[{low!r}, {high!r}], not every state in [{lo!r}, {hi!r}]")
    return spec


def save_sensor_spec(spec: SensorSpec, path: str | Path) -> None:
    write_text(path, json_text(sensor_spec_to_dict(spec), path))
