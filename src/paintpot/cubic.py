"""Monotone cubic models mapping ADC counts to angles.

A sensor characterization is a cubic polynomial ``theta = p(V)`` declared
monotone on a voltage window.  Inversion is a safeguarded Newton iteration
(``rtsafe``, Press et al., *Numerical Recipes*, sec. 9.4): Newton steps on
the cubic, held inside a sign-change bracket that shrinks on every step, so
it converges as unconditionally as bisection.  The starting bracket is one
knot interval of a chart each model tables once, on first use: the cubic
at a fixed number of knots across its window.  On the reference sensors
one regula-falsi point and one Newton step then meet the tolerance, so an
inversion costs two calls of :meth:`CubicModel.evaluate`; slopes are formed
inline from the coefficients.  A model's first simulated read also tables a
slack per knot interval (:attr:`CubicModel.slack`) to settle counts without Newton.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from paintpot.errors import FitError, InversionError, SpecError, as_float, malformed, refuse_unknown_keys

DEFAULT_ANGLE_TOL = 1e-9
# Knots in every model's inversion chart, whatever its window's width, so a
# wide window cannot make the chart large.  On the reference sensors one
# Newton step from a knot interval's regula-falsi point meets the default
# tolerance from 256 knots up (at 128 some inversions need a third
# evaluation); 512 leaves a margin for fitted cubics that bend more.
CHART_KNOTS = 512
_COEFFICIENT_FORMAT = ".17e"
# The keys of a cubic's file object, all of which from_dict reads.
_CUBIC_KEYS = {"": ("c3", "c2", "c1", "c0", "v_window")}
_EPS = math.ulp(1.0)


@dataclass(frozen=True)
class CubicModel:
    """``theta = c3*V**3 + c2*V**2 + c1*V + c0`` on the window ``v_window``.

    Construction checks that the coefficients and the window are finite and
    validates monotonicity in closed form: the derivative, a quadratic, must
    be non-zero with one sign at both window ends and must not change sign
    in between.  The angle range on the window must be at least the
    smallest normal float.  Evaluation outside the window is legal
    arithmetic but only the window is trusted sensor behavior.
    """

    c3: float
    c2: float
    c1: float
    c0: float
    v_window: tuple[float, float]

    def __post_init__(self) -> None:
        coefficients = (self.c3, self.c2, self.c1, self.c0)
        if not all(map(math.isfinite, coefficients)):
            raise FitError(f"cubic coefficients must be finite, got {coefficients!r}")
        lo, hi = float(self.v_window[0]), float(self.v_window[1])
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise FitError(f"voltage window must be finite with lo < hi, got ({lo}, {hi})")
        object.__setattr__(self, "v_window", (lo, hi))
        d_lo, d_hi = self.derivative(lo), self.derivative(hi)
        monotone = (d_lo > 0.0 and d_hi > 0.0) or (d_lo < 0.0 and d_hi < 0.0)
        if monotone and self.c3 != 0.0:
            # With both ends on one side of zero, the quadratic has two roots
            # inside exactly when its vertex is inside and on the other
            # side.  A vertex touching zero is an isolated flat point: the
            # cubic stays strictly monotone.
            vertex = -self.c2 / (3.0 * self.c3)
            if lo < vertex < hi:
                d_vertex = self.derivative(vertex)
                monotone = d_vertex >= 0.0 if d_lo > 0.0 else d_vertex <= 0.0
        if not monotone:
            raise FitError("cubic is not monotone on its voltage window")
        # A range below the smallest normal float (a subnormal one, say) leaves no
        # target to invert.  The ends' angles are formed inline, as evaluate forms
        # them, so that only inversions call evaluate.
        low, high = (((self.c3 * v + self.c2) * v + self.c1) * v + self.c0 for v in (lo, hi))
        if not abs(high - low) >= sys.float_info.min:
            raise FitError(f"cubic's angle range on its voltage window must be a normal float, got {abs(high - low)!r}")

    def evaluate(self, v):
        return ((self.c3 * v + self.c2) * v + self.c1) * v + self.c0

    __call__ = evaluate

    def derivative(self, v):
        return (3.0 * self.c3 * v + 2.0 * self.c2) * v + self.c1

    @property
    def increasing(self) -> bool:
        return float(self.derivative(self.v_window[0])) > 0.0

    @cached_property
    def chart(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """``(knots, angles)``: ``CHART_KNOTS`` voltages evenly spaced across
        the window, ends included exactly, and the cubic at each of them.

        Built once per model, on first use.  numpy performs the same IEEE
        multiply/add sequence as a scalar ``evaluate(knot)``, so each angle
        equals that call bit for bit.
        """
        lo, hi = self.v_window
        knots = np.linspace(lo, hi, CHART_KNOTS)
        return tuple(knots.tolist()), tuple(self.evaluate(knots).tolist())

    @cached_property
    def slack(self) -> tuple:
        """``(sign, find, low, high, keys, knots, slack)``, to read counts off the chart.

        ``keys``, the chart's angles times ``sign`` (-1 when falling), ascend,
        and ``find(keys, sign*theta)`` is the knot interval k :func:`invert_cubic`
        brackets ``theta`` in.  For keys strictly between ``low`` and ``high``
        (2*tol inside the chart's ends, where its early returns cannot fire),
        its result lies within ``slack[k]`` volts of interval k's regula-falsi
        point: the chord misses the cubic by at most ``M2*h**2/8`` (Press et al.,
        sec. 3.1) and the result misses the target by ``tol``, each plus
        rounding, over ``m1`` for volts; ``M2`` is the largest ``|f''|`` and ``m1``
        the smallest ``|f'|`` on the interval.  Doubled, plus 1e-9 V and ulps of
        ``V``; ``inf`` where ``m1`` is 0.
        """
        knots = np.linspace(*self.v_window, CHART_KNOTS)  # the chart's, bit for bit
        sign, angles = (1.0 if self.increasing else -1.0), self.chart[1]
        keys = angles if sign > 0.0 else tuple((-np.array(angles)).tolist())
        a, b = knots[:-1], knots[1:]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # Each interval's ends and the slope's vertex clipped into it (NaN, skipped, when c3 is 0).
            points = np.array([a, b, np.clip(np.float64(-self.c2) / (3.0 * self.c3), a, b)])
            m1 = np.fmin.reduce(abs(self.derivative(points)))
            m2 = abs(6.0 * self.c3 * points[:2] + 2.0 * self.c2).max(axis=0)
            size = abs(points[:2]).max(axis=0)
            # Horner's rounding, in the chart and in the result: ulps of sum |c_i|*|V|**i.
            c3, c2, c1, c0 = abs(self.c3), abs(self.c2), abs(self.c1), abs(self.c0)
            rounding = 16.0 * _EPS * (((c3 * size + c2) * size + c1) * size + c0)
            angle_error = m2 * (b - a) ** 2 / 8.0 + DEFAULT_ANGLE_TOL + rounding
            slack = 2.0 * angle_error / m1 + 1e-9 + 4.0 * _EPS * size
        slack[~np.isfinite(slack)] = math.inf
        low, high = keys[0] + 2.0 * DEFAULT_ANGLE_TOL, keys[-1] - 2.0 * DEFAULT_ANGLE_TOL
        find = bisect_right if sign > 0.0 else bisect_left
        return sign, find, low, high, keys, self.chart[0], (math.inf, *slack.tolist())

    def angle_range(self) -> tuple[float, float]:
        """Angles reachable on the window, ordered (low, high)."""
        a = float(self.evaluate(self.v_window[0]))
        b = float(self.evaluate(self.v_window[1]))
        return (a, b) if a <= b else (b, a)

    def to_dict(self) -> dict:
        # Coefficients as decimal strings: 17 significant digits round-trip
        # float64 exactly and survive any JSON reader.
        return {
            "c3": format(self.c3, _COEFFICIENT_FORMAT),
            "c2": format(self.c2, _COEFFICIENT_FORMAT),
            "c1": format(self.c1, _COEFFICIENT_FORMAT),
            "c0": format(self.c0, _COEFFICIENT_FORMAT),
            "v_window": [self.v_window[0], self.v_window[1]],
        }

    @classmethod
    def from_dict(cls, data: dict, key: str) -> "CubicModel":
        """The cubic of a file's object at ``key``: coefficients ``c3..c0``
        as ASCII decimal strings, without ``_`` or padding, or JSON numbers;
        ``v_window`` two JSON numbers (:func:`~paintpot.errors.as_float`);
        any other key is refused.  Faults name ``key``."""
        with malformed(key):
            coefficients = []
            for n in ("c3", "c2", "c1", "c0"):
                value = data[n]
                if not isinstance(value, str):
                    value = as_float(value, f"{key}.{n}")
                elif "_" in value or value != value.strip() or not value.isascii():  # float() takes all three
                    raise SpecError(f"{key}.{n} must be an ASCII decimal string without '_' or padding, got {value!r}")
                coefficients.append(float(value))
            lo, hi = (as_float(data["v_window"][i], f"{key}.v_window") for i in (0, 1))
            refuse_unknown_keys(data, _CUBIC_KEYS, "cubic", f"{key}.")
            return cls(*coefficients, (lo, hi))


def invert_cubic(
    model: CubicModel,
    theta_target: float,
    tol: float = DEFAULT_ANGLE_TOL,
    max_iter: int = 200,
) -> float:
    """Voltage V on the model's window with ``model(V) = theta_target``.

    Bisects the model's chart for the knot interval whose ends straddle the
    target, starts at that interval's regula-falsi point and takes Newton
    steps ``V - f(V)/f'(V)``.  A step that would leave the current
    sign-change bracket, or a zero derivative, falls back to the bracket
    midpoint.  The result satisfies ``|model(V) - theta_target| < tol``
    (tolerance in angle).

    Raises:
        InversionError: the target lies outside the model's range on its
            window, or the tolerance could not be met.
    """
    knots, angles = model.chart
    f_lo = angles[0] - theta_target
    f_hi = angles[-1] - theta_target
    if abs(f_lo) < tol:
        return knots[0]
    if abs(f_hi) < tol:
        return knots[-1]
    if (f_lo > 0.0) == (f_hi > 0.0):
        low, high = model.angle_range()
        raise InversionError(
            f"target angle {theta_target!r} outside model range [{low!r}, {high!r}]"
        )
    # The knot interval whose ends lie on opposite sides of ``f > 0``, the
    # split the loop keeps.  bisect's result has this property even where
    # rounding leaves the chart unsorted near a flat point, and the window
    # ends lie on opposite sides, so ``0 < k < CHART_KNOTS``.  Every step
    # keeps the sign of ``f_hi``, so ``rising`` holds it throughout.
    rising = f_hi > 0.0
    if rising:
        k = bisect_right(angles, theta_target)
    else:
        k = bisect_left(angles, -theta_target, key=operator.neg)
    lo, hi = knots[k - 1], knots[k]
    f_lo, f_hi = angles[k - 1] - theta_target, angles[k] - theta_target
    v = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    # The slope's coefficients as CubicModel.derivative forms them, bit for bit.
    d2, d1, d0 = 3.0 * model.c3, 2.0 * model.c2, model.c1
    for _ in range(max_iter):
        f_v = model.evaluate(v) - theta_target
        if abs(f_v) < tol:
            return v
        if (f_v > 0.0) == rising:
            hi, f_hi = v, f_v
        else:
            lo, f_lo = v, f_v
        slope = (d2 * v + d1) * v + d0
        newton = v - f_v / slope if slope != 0.0 else math.nan
        if lo < newton < hi:
            v = newton
        else:
            v = 0.5 * (lo + hi)
            if v == lo or v == hi:
                break
    best = lo if abs(f_lo) <= abs(f_hi) else hi
    if abs(model.evaluate(best) - theta_target) < tol:
        return best
    raise InversionError(
        f"Newton iteration stalled before reaching |residual| < {tol!r} "
        f"for target {theta_target!r}"
    )
