"""Angle conventions and sensor geometry shared by every module.

Wheel angles live on the wrapped chart (-pi, pi]; tilt angles on the closed
interval [-angle_limit, angle_limit].  Each wheel wiper rides a track with a
gap, inside which its voltage is meaningless, and its characterization is
continued past the gap by a full turn so angle stays a single-valued
function of voltage (the "shifted state").  Every joint is a wheel or a tilt
(:func:`joint_kind`).  A sensor file's ``kind`` names the reference sensor
whose tracks and angle limit fill the keys it omits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import EllipsisType
from typing import NamedTuple, Sequence

from paintpot.errors import SpecError, as_float, as_int, check_adc_max

TWO_PI = math.tau


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with lo < hi."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"empty interval: [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class WiperTrack:
    """A wheel wiper's track gap, and the turn its reported state takes.

    Past ``edge``, the gap end nearest the seam, the wiper reads the far end
    of its track, so its state continues one ``turn`` away: -2*pi past the
    top of a gap inside (0, pi), +2*pi past the bottom of one inside (-pi, 0).
    """

    gap: Interval
    turn: float
    edge: float = field(init=False)

    def __post_init__(self) -> None:
        lo, hi = self.gap.lo, self.gap.hi
        if self.turn == -TWO_PI and 0.0 < lo and hi < math.pi:
            object.__setattr__(self, "edge", hi)
        elif self.turn == TWO_PI and -math.pi < lo and hi < 0.0:
            object.__setattr__(self, "edge", lo)
        else:
            raise SpecError(f"gap [{lo}, {hi}] turning by {self.turn!r} must lie inside "
                            "(0, pi) turning by -2*pi or inside (-pi, 0) turning by 2*pi")

    def past(self, theta):
        """Whether ``theta`` (a float or an array) lies past the edge, on
        the side the turn points away from."""
        return (theta - self.edge) * self.turn < 0.0

    @property
    def window(self) -> tuple[float, float]:
        """The shifted states off the gap, ascending: from one gap end to
        the other, one turn on."""
        lo, hi = self.gap.lo, self.gap.hi
        return (hi + self.turn, lo) if self.turn < 0.0 else (hi, lo + self.turn)


# Wiper 0 is blind over [2pi/3, 5pi/6] and its state turns down past 5pi/6;
# wiper 1 is blind over [-5pi/6, -2pi/3] and turns up past -5pi/6.
WHEEL_TRACKS = (
    WiperTrack(Interval(2.0 * math.pi / 3.0, 5.0 * math.pi / 6.0), -TWO_PI),
    WiperTrack(Interval(-5.0 * math.pi / 6.0, -2.0 * math.pi / 3.0), TWO_PI),
)

TILT_LIMIT = math.pi / 2.0

# The keys :func:`geometry_from_dict` reads of a file, by kind.
GEOMETRY_KEYS = {"wheel": ("adc_max", "gap_w0", "gap_w1"), "tilt": ("adc_max", "angle_limit")}


def joint_kind(
    tracks: Sequence[WiperTrack | None], angle_limit: float | None | EllipsisType = ..., path: str = ""
) -> str:
    """The kind of joint whose wipers ride ``tracks``: ``"wheel"`` for exactly
    two wipers on gapped tracks, wiper 0's turning by -2*pi and wiper 1's by
    2*pi as a sensor file holds them, which wraps and so has no angle limit,
    and ``"tilt"`` for exactly one trackless wiper, whose limit lies in (0, pi].
    Any other shape raises :class:`SpecError`, as does an ``angle_limit``
    that does not fit the kind, named after ``path``; a caller that holds no limit leaves it out."""
    if len(tracks) == 2 and None not in tracks:
        if (tracks[0].turn, tracks[1].turn) != (-TWO_PI, TWO_PI):
            raise SpecError(f"a wheel's wiper 0 must turn by -2*pi and its wiper 1 by 2*pi, got "
                            f"{tracks[0].turn!r} and {tracks[1].turn!r}")
        if angle_limit not in (..., None):
            raise SpecError(f"a wheel wraps, so it has no angle_limit, got {angle_limit!r}")
        return "wheel"
    if len(tracks) != 1 or tracks[0] is not None:
        raise SpecError("a joint's wipers must all ride gapped tracks, or none: a wheel has two wipers on gapped "
                        f"tracks, a tilt one trackless wiper; got {len(tracks)} wipers, "
                        f"{sum(t is not None for t in tracks)} on tracks")
    if angle_limit is not ... and (angle_limit is None or not 0.0 < angle_limit <= math.pi):
        raise SpecError(f"{path}angle_limit must lie in (0, pi]")
    return "tilt"


def wrap_angle(theta: float) -> float:
    """Reduce ``theta`` modulo 2*pi into (-pi, pi]."""
    wrapped = math.remainder(theta, TWO_PI)
    return math.pi if wrapped == -math.pi else wrapped


class Geometry(NamedTuple):
    """What calibration needs of a sensor: its wipers' tracks, its angle
    limit (None for a wheel, which wraps) and its ADC's top count."""

    tracks: tuple[WiperTrack | None, ...]
    angle_limit: float | None
    adc_max: int


def geometry_from_dict(kind: object, data: dict, path: str = "") -> Geometry:
    """A ``kind`` file's geometry, checked: a wheel has :data:`WHEEL_TRACKS`, each with the
    file's ``gap_w<i>`` if given, and no limit; a tilt has one trackless wiper and the file's
    ``angle_limit`` in (0, pi], by default :data:`TILT_LIMIT`.  Either has the file's
    ``adc_max``, by default 1023, which must be an integer ``2**bits - 1``.  A gap's ends and
    the limit are JSON numbers (:func:`~paintpot.errors.as_float`).  A fault names its key
    after ``path``, the path of ``data`` in the file that holds it."""
    adc_max = as_int(data.get("adc_max", 1023), f"{path}adc_max")
    check_adc_max(adc_max, f"{path}adc_max")
    if kind == "wheel":
        tracks, limit = [], None
        for i, t in enumerate(WHEEL_TRACKS):
            key, gap = f"{path}gap_w{i}", data.get(f"gap_w{i}", (t.gap.lo, t.gap.hi))
            if not isinstance(gap, (list, tuple)) or len(gap) != 2:
                raise SpecError(f"{key} must be two numbers, got {gap!r}")
            lo, hi = (as_float(end, key) for end in gap)
            try:
                tracks.append(WiperTrack(Interval(lo, hi), t.turn))
            except ValueError as exc:  # an empty gap, or one on the wrong side of the seam
                raise SpecError(f"{key}: {exc}") from None
    elif kind == "tilt":
        tracks, limit = (None,), as_float(data.get("angle_limit", TILT_LIMIT), f"{path}angle_limit")
    else:
        raise SpecError(f"sensor kind must be 'wheel' or 'tilt', got {kind!r}")
    joint_kind(tracks, limit, path)  # checks the limit
    return Geometry(tuple(tracks), limit, adc_max)
