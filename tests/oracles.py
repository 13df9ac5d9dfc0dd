"""Independent reference computations used to pin expected test values.

Everything here is deliberately written from first principles (no imports
from the package under test) so the tests compare two separate derivations.
"""

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
