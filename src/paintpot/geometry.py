"""Angle conventions and sensor geometry shared by every module.

Wheel angles live on the wrapped chart (-pi, pi]; tilt angles on the closed
interval [-angle_limit, angle_limit].  Each wheel wiper rides a track with a
gap, inside which its voltage is meaningless, and its characterization is
continued past the gap by a full turn so angle stays a single-valued
function of voltage (the "shifted state").  A sensor file's ``kind`` names
the reference sensor whose tracks and angle limit fill the keys it omits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from paintpot.errors import SpecError

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

    def shift(self, theta: float) -> float:
        """The shifted state this wiper reports at ``theta``."""
        return theta + self.turn if self.past(theta) else theta

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


def wrap_angle(theta: float) -> float:
    """Reduce ``theta`` modulo 2*pi into (-pi, pi]."""
    wrapped = math.remainder(theta, TWO_PI)
    return math.pi if wrapped == -math.pi else wrapped


def wrapped_difference(a: float, b: float) -> float:
    """Signed angular difference a - b, wrapped into (-pi, pi]."""
    return wrap_angle(a - b)


def geometry_from_dict(kind: object, data: dict) -> tuple[tuple[WiperTrack | None, ...], float | None]:
    """A ``kind`` file's wiper tracks and angle limit: a wheel has :data:`WHEEL_TRACKS`, each
    with the file's ``gap_w<i>`` if given, and no limit; a tilt has one trackless wiper and
    the file's ``angle_limit``, by default :data:`TILT_LIMIT`."""
    if kind == "wheel":
        gaps = [data.get(f"gap_w{i}", (t.gap.lo, t.gap.hi)) for i, t in enumerate(WHEEL_TRACKS)]
        return tuple(WiperTrack(Interval(*map(float, g)), t.turn) for g, t in zip(gaps, WHEEL_TRACKS)), None
    if kind == "tilt":
        return (None,), float(data.get("angle_limit", TILT_LIMIT))
    raise SpecError(f"sensor kind must be 'wheel' or 'tilt', got {kind!r}")
