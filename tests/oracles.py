"""Independent reference computations used to pin expected test values.

Everything here is deliberately written from first principles (no imports
from the package under test) so the tests compare two separate derivations.
The exceptions are the references the package's fast paths must match bit
for bit: :func:`wheel_step_reference` and :func:`tilt_step_reference`, the
filter steps composed from the package's own reference functions, and
:func:`invert_cubic_reference`, :func:`wiper_voltage` and
:func:`read_reference`, the simulated read as a composition of small steps,
and :func:`fit_cubic_reference`, the calibration fit through
``numpy.polynomial``.
"""

import csv
import io
import math

import numpy as np

TWO_PI = 2.0 * math.pi
PI = math.pi


def cubic_value(c3, c2, c1, c0, v):
    return c3 * v**3 + c2 * v**2 + c1 * v + c0


def bisect_root(f, lo, hi, tol=1e-12, max_iter=300):
    """Plain bisection for f(x) = 0 given a sign change on [lo, hi]."""
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    assert (f_lo > 0.0) != (f_hi > 0.0), "oracle bisection needs a sign change"
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        f_mid = f(mid)
        if abs(f_mid) < tol:
            return mid
        if (f_mid > 0.0) == (f_hi > 0.0):
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def wrap_brute(theta):
    """Wrap into (-pi, pi] by repeated full-turn shifts."""
    while theta > PI:
        theta -= TWO_PI
    while theta <= -PI:
        theta += TWO_PI
    return theta


def grid_bayes_posterior(mu_bar, sigma_bar, zs, rs, n_points=1_000_000, span_sigmas=8.0):
    """Brute-force Bayes on a uniform grid: prior times Gaussian likelihoods.

    The grid spans every anchor (prior mean and each measurement) +- 8 of
    its own sigma; a literal 4-sigma truncation would bias the variance by
    ~1e-3 relative, far above the tolerances these oracles support.
    """
    anchors = [(mu_bar, math.sqrt(sigma_bar))] + [
        (z, math.sqrt(r)) for z, r in zip(zs, rs)
    ]
    lo = min(m - span_sigmas * s for m, s in anchors)
    hi = max(m + span_sigmas * s for m, s in anchors)
    grid = np.linspace(lo, hi, n_points)
    log_w = -0.5 * (grid - mu_bar) ** 2 / sigma_bar
    for z, r in zip(zs, rs):
        log_w -= 0.5 * (z - grid) ** 2 / r
    log_w -= log_w.max()
    w = np.exp(log_w)
    w /= w.sum()
    mean = float(w @ grid)
    var = float(w @ (grid - mean) ** 2)
    return mean, var


def fuse_information(mu, sigma, zs, rs):
    """Closed-form Gaussian fusion in information form."""
    precision = 1.0 / sigma + sum(1.0 / r for r in rs)
    weighted = mu / sigma + sum(z / r for z, r in zip(zs, rs))
    return weighted / precision, 1.0 / precision


def quintic_coefficients(x0, xf, t_total):
    """a0..a5 from solving the six rest-to-rest boundary conditions."""
    t = t_total
    a = np.array(
        [
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 2, 0, 0, 0],
            [1, t, t**2, t**3, t**4, t**5],
            [0, 1, 2 * t, 3 * t**2, 4 * t**3, 5 * t**4],
            [0, 0, 2, 6 * t, 12 * t**2, 20 * t**3],
        ],
        dtype=float,
    )
    b = np.array([x0, 0.0, 0.0, xf, 0.0, 0.0])
    return np.linalg.solve(a, b)


def five_region_shifted_states(theta):
    """Hand-written five-region branch table for a wheel at ``theta``.

    Returns (shifted state for wiper 0 or None, same for wiper 1), where
    None marks that wiper's reading invalid in this region.
    """
    if theta < -5.0 * PI / 6.0:
        return theta, theta + TWO_PI
    if -5.0 * PI / 6.0 <= theta <= -2.0 * PI / 3.0:
        return theta, None
    if -2.0 * PI / 3.0 < theta < 2.0 * PI / 3.0:
        return theta, theta
    if 2.0 * PI / 3.0 <= theta <= 5.0 * PI / 6.0:
        return None, theta
    return theta - TWO_PI, theta


def monotone_on_grid(c3, c2, c1, lo, hi, n_points=100_001):
    """Cubic with these coefficients strictly monotone on [lo, hi], judged on a grid.

    The derivative ``3*c3*v**2 + 2*c2*v + c1`` must be positive at every
    grid point, or negative at every one.
    """
    v = np.linspace(lo, hi, n_points)
    slope = 3.0 * c3 * v**2 + 2.0 * c2 * v + c1
    return bool(np.all(slope > 0.0) or np.all(slope < 0.0))


def per_wiper_turn_rule(value, wiper):
    """Seed a wheel mean from a converted value by at most one full turn.

    Wiper 0's chart reaches below -pi, so a value there gains a turn;
    wiper 1's reaches above pi, so a value there loses one.
    """
    if wiper == 0 and value < -PI:
        return value + TWO_PI
    if wiper == 1 and value > PI:
        return value - TWO_PI
    return value


class ReferenceLogError(ValueError):
    """A calibration log the row-by-row reference parser rejects."""


def ingest_log_reference(text, sensor_kind, adc_max=1023):
    """Calibration-log parser that checks one row at a time.

    The package's parser before it read logs by columns, kept as the
    reference for that one.  Returns the columns ``(t, theta, v0, v1)``
    (``v1`` is None for a tilt log) or raises :class:`ReferenceLogError`
    with the package's error text.
    """
    expected = ["t", "theta", "v0"] + (["v1"] if sensor_kind == "wheel" else [])
    reader = csv.reader(io.StringIO(text, newline=""))
    header = None
    columns = ([], [], [], [])  # t, theta, v0, v1
    last_t = -math.inf
    for row in reader:
        line = reader.line_num
        if not row or row[0].lstrip().startswith("#"):
            continue
        fields = [f.strip() for f in row]
        if header is None:
            if fields != expected:
                raise ReferenceLogError(
                    f"line {line}: header must be {','.join(expected)!r}, "
                    f"got {','.join(fields)!r}"
                )
            header = fields
            continue
        if len(fields) != len(expected):
            raise ReferenceLogError(f"line {line}: expected {len(expected)} fields, got {len(fields)}")
        try:
            t = float(fields[0])
            theta = float(fields[1])
            counts = [int(f) for f in fields[2:]]
        except ValueError as exc:
            raise ReferenceLogError(f"line {line}: {exc}") from exc
        if not math.isfinite(t) or not math.isfinite(theta):
            raise ReferenceLogError(f"line {line}: non-finite value")
        if t < last_t:
            raise ReferenceLogError(f"line {line}: timestamp {t} decreases")
        last_t = t
        for count in counts:
            if not 0 <= count <= adc_max:
                raise ReferenceLogError(f"line {line}: count {count} outside [0, {adc_max}]")
        if sensor_kind == "wheel":
            if theta < -math.pi or theta > math.pi:
                raise ReferenceLogError(f"line {line}: wheel angle {theta} outside [-pi, pi]")
            if theta == -math.pi:
                theta = math.pi
        elif abs(theta) > math.pi / 2.0:
            raise ReferenceLogError(f"line {line}: tilt angle {theta} outside [-pi/2, pi/2]")
        for column, value in zip(columns, (t, theta, *counts)):
            column.append(value)
    if header is None:
        raise ReferenceLogError("empty calibration file")
    t_col, theta_col, v0_col, v1_col = columns
    if not t_col:
        raise ReferenceLogError("calibration file has a header but no data rows")
    return t_col, theta_col, v0_col, v1_col if sensor_kind == "wheel" else None


def wheel_step_reference(belief, u, readings, obs, tm, gate_sigmas=6.0):
    """One wheel filter step as the composition of its public parts.

    ``predict``, then ``extract_features``, then the innovation gate on each
    feature in reading order, then ``update_wheel`` on the kept features.
    Returns ``(belief, used)`` with ``used`` a flag per wiper.
    """
    from paintpot.estimate import extract_features, predict, update_wheel

    belief_bar = predict(belief, u, tm)
    mu_bar, sigma_bar = belief_bar
    # Each wiper's predicted measurement: the mean on its shifted chart.
    z_bar0 = mu_bar - TWO_PI if mu_bar > 5.0 * PI / 6.0 else mu_bar
    z_bar1 = mu_bar + TWO_PI if mu_bar < -5.0 * PI / 6.0 else mu_bar
    kept, z_bars, used = [], [], [False, False]
    for feature in extract_features(readings, obs):
        index, z, r = feature
        z_bar = z_bar1 if index else z_bar0
        if abs(z - z_bar) <= gate_sigmas * math.sqrt(sigma_bar + r):
            kept.append(feature)
            z_bars.append(z_bar)
            used[index] = True
    return update_wheel(belief_bar, kept, z_bars), (used[0], used[1])


def tilt_step_reference(belief, u, reading, obs, tm):
    """One tilt filter step as the composition of its public parts.

    ``predict``, then ``update_tilt`` on the one reading.  Returns
    ``(belief, used)``.
    """
    from paintpot.estimate import predict, update_tilt

    return update_tilt(predict(belief, u, tm), reading, obs)


def invert_cubic_reference(model, theta_target, tol=1e-9, max_iter=200):
    """A frozen copy of ``cubic.invert_cubic`` that calls ``model.derivative``
    for each slope: the model's chart, ``bisect`` for the knot interval, its
    regula-falsi point, then Newton steps held inside the sign-change
    bracket.  The library's inversion must match it bit for bit."""
    from bisect import bisect_left, bisect_right
    import operator

    from paintpot.errors import InversionError

    knots, angles = model.chart
    lo, hi = knots[0], knots[-1]
    f_lo = angles[0] - theta_target
    f_hi = angles[-1] - theta_target
    if abs(f_lo) < tol:
        return lo
    if abs(f_hi) < tol:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        low, high = model.angle_range()
        raise InversionError(
            f"target angle {theta_target!r} outside model range [{low!r}, {high!r}]"
        )
    if f_hi > 0.0:
        k = bisect_right(angles, theta_target)
    else:
        k = bisect_left(angles, -theta_target, key=operator.neg)
    lo, hi = knots[k - 1], knots[k]
    f_lo, f_hi = angles[k - 1] - theta_target, angles[k] - theta_target
    v = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    evaluate, derivative = model.evaluate, model.derivative
    for _ in range(max_iter):
        f_v = evaluate(v) - theta_target
        if abs(f_v) < tol:
            return v
        if (f_v > 0.0) == (f_hi > 0.0):
            hi, f_hi = v, f_v
        else:
            lo, f_lo = v, f_v
        slope = derivative(v)
        newton = v - f_v / slope if slope != 0.0 else math.nan
        if lo < newton < hi:
            v = newton
        else:
            v = 0.5 * (lo + hi)
            if v == lo or v == hi:
                break
    best = lo if abs(f_lo) <= abs(f_hi) else hi
    if abs(evaluate(best) - theta_target) < tol:
        return best
    raise InversionError(
        f"Newton iteration stalled before reaching |residual| < {tol!r} "
        f"for target {theta_target!r}"
    )


def wiper_voltage(wiper, theta):
    """Noiseless continuous count of a simulated wiper at the validated
    angle ``theta``, or None while it rides its gap: the gap test, then the
    turn past the shift edge, then :func:`invert_cubic_reference`."""
    truth, track = wiper
    if track is not None:
        gap = track.gap
        if gap.lo <= theta <= gap.hi:
            return None
        if (theta - track.edge) * track.turn < 0.0:
            theta += track.turn
    return invert_cubic_reference(truth, theta)


def read_reference(theta, spec, noise):
    """One simulated reading per wiper, as ``sensor_sim.read`` returns it:
    the angle checked and -pi read as pi on a wheel, then per wiper
    :func:`wiper_voltage` (the rail voltage 0.0 in a gap) plus its draw,
    quantized into an ``AdcReading``."""
    from paintpot.errors import DomainError
    from paintpot.sensor_sim import AdcReading, quantize

    limit = spec.angle_limit
    if limit is None:
        if not -PI <= theta <= PI:
            raise DomainError(f"wheel angle {theta!r} outside (-pi, pi]")
        if theta == -PI:
            theta = PI
    elif not abs(theta) <= limit:
        raise DomainError(f"tilt angle {theta!r} outside [-{limit}, {limit}]")
    readings = []
    for index, (wiper, draw) in enumerate(zip(spec.wipers, noise, strict=True)):
        voltage = wiper_voltage(wiper, theta)
        count = quantize((0.0 if voltage is None else voltage) + draw, spec.adc_max)
        readings.append(AdcReading(index, count, voltage is not None))
    return tuple(readings)


def fit_cubic_reference(shifted_theta, v, adc_max=1023):
    """A frozen copy of ``characterize.fit_cubic`` as it stood on
    ``numpy.polynomial.Polynomial.fit(...).convert()``, with its checks and
    error texts.  On finite pairs the library's fit must match it bit for
    bit, coefficients and window."""
    from paintpot.cubic import CubicModel
    from paintpot.errors import FitError, SpecError

    theta = np.asarray(shifted_theta, dtype=float)
    counts = np.asarray(v, dtype=float)
    if theta.shape != counts.shape or theta.ndim != 1:
        raise SpecError("shifted_theta and v must be 1-D arrays of equal length")
    if theta.size < 8:
        raise FitError(f"need at least 8 pairs, got {theta.size}")
    if np.unique(counts).size < 4:
        raise FitError("need at least 4 distinct voltage values to fit a cubic")
    v_lo, v_hi = float(counts.min()), float(counts.max())
    if (v_hi - v_lo) < 0.5 * adc_max:
        raise FitError(f"voltage span {v_hi - v_lo:.1f} covers less than 50% of the ADC window")
    series = np.polynomial.Polynomial.fit(counts, theta, deg=3)
    coef = series.convert().coef
    c = np.zeros(4)
    c[: coef.size] = coef
    try:
        return CubicModel(float(c[3]), float(c[2]), float(c[1]), float(c[0]), (v_lo, v_hi))
    except FitError as exc:
        raise FitError(f"fitted cubic rejected: {exc}") from exc
