"""Seeded inputs for the benchmark workloads.

The readings logs and model bundles of ``offline_estimate`` are made here,
from the reference sensors' truth cubics copied below and this file's own
inversion and quantizer.  Nothing here imports ``paintpot``, so a later
change to the simulator or the fitter cannot change those inputs: for a
given seed they are the same bytes on every commit.

The experiment configs of ``closed_loop`` are the program's own presets
with the seed replaced, because a preset is what a user runs.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

ADC_MAX = 1023
DT = 0.01  # 100 Hz logs, the rate of the experiment presets
K = 0.2  # transmission ratio of the presets
PLANT_Q = 0.02  # rate-noise variance of the simulated joint
FILTER_Q = 0.05
SIGMA0 = 1e-4
NOISE_STD = 1.0  # ADC noise, counts

# Truth cubics of the bundled reference sensors (c3, c2, c1, c0), counts to
# shifted angle, all increasing on [0, ADC_MAX].
WHEEL_TRUTH = (
    (5.0281e-9, -1.2255e-5, 1.7856e-2, -7.2750),
    (5.1596e-9, -1.2409e-5, 1.7927e-2, -5.8128),
)
TILT_TRUTH = (4.7517e-9, -8.7608e-6, 8.6756e-3, -2.7173)

# Wheel geometry: the span where each wiper rides its gap, and the
# shifted-chart angles bounding each wiper's usable count window.
GAPS = ((2.0 * math.pi / 3.0, 5.0 * math.pi / 6.0), (-5.0 * math.pi / 6.0, -2.0 * math.pi / 3.0))
WINDOW_ANGLES = (
    (GAPS[0][1] - math.tau, GAPS[0][0]),
    (GAPS[1][1], GAPS[1][0] + math.tau),
)
TILT_WINDOW_ANGLE = 1.45  # the tilt bundle is calibrated on [-1.45, 1.45] rad

# Glitch rates of the generated logs.  A dropout puts every wiper on the
# low rail (out of window, so a step with no feature); a spike moves one
# wheel wiper's count far from the truth (in window, so the gate drops it).
DROPOUT_RATE = 0.002
SPIKE_RATE = 0.003


def derived_seed(seed: int, *labels) -> int:
    """A non-negative 31-bit seed for one input, from the workload seed."""
    text = ":".join(str(part) for part in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def _cubic(coefs, v):
    c3, c2, c1, c0 = coefs
    return ((c3 * v + c2) * v + c1) * v + c0


def _invert(coefs, theta: np.ndarray) -> np.ndarray:
    """Counts at which an increasing truth cubic reaches ``theta``."""
    lo = np.zeros_like(theta)
    hi = np.full_like(theta, float(ADC_MAX))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        above = _cubic(coefs, mid) > theta
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi)


def _quantize(voltage: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    noisy = voltage + rng.normal(0.0, NOISE_STD, voltage.shape)
    rounded = np.where(noisy >= 0.0, np.floor(noisy + 0.5), np.ceil(noisy - 0.5))
    return np.clip(rounded, 0, ADC_MAX).astype(np.int64)


def _wrap(theta):
    return np.remainder(theta + math.pi, math.tau) - math.pi


def _slope_variance(coefs) -> float:
    """One-count angle equivalent, squared: the R the CLI would derive."""
    slope = (_cubic(coefs, float(ADC_MAX)) - _cubic(coefs, 0.0)) / ADC_MAX
    return slope * slope


def _model_dict(coefs, window) -> dict:
    c3, c2, c1, c0 = coefs
    return {
        "c3": format(c3, ".17e"),
        "c2": format(c2, ".17e"),
        "c1": format(c1, ".17e"),
        "c0": format(c0, ".17e"),
        "v_window": [float(window[0]), float(window[1])],
    }


def _filter_params() -> dict:
    return {"k": K, "dt": DT, "q": FILTER_Q, "sigma0": SIGMA0}


def wheel_bundle() -> dict:
    """A wheel model bundle holding the truth cubics and their windows."""
    ranges = []
    for coefs, angles in zip(WHEEL_TRUTH, WINDOW_ANGLES):
        lo, hi = sorted(_invert(coefs, np.array(angles, dtype=float)))
        ranges.append({"v_min": max(math.floor(lo), 0), "v_max": min(math.ceil(hi), ADC_MAX)})
    params = _filter_params()
    params["r0"], params["r1"] = (_slope_variance(c) for c in WHEEL_TRUTH)
    return {
        "sensor_kind": "wheel",
        "adc_max": ADC_MAX,
        "models": [_model_dict(c, (0.0, float(ADC_MAX))) for c in WHEEL_TRUTH],
        "valid_ranges": ranges,
        "fit_report": {"wipers": []},
        "filter": params,
    }


def tilt_bundle() -> dict:
    """A tilt model bundle whose window covers [-1.45, 1.45] rad only."""
    edges = _invert(TILT_TRUTH, np.array([-TILT_WINDOW_ANGLE, TILT_WINDOW_ANGLE]))
    window = (math.floor(edges[0]), math.ceil(edges[1]))
    params = _filter_params()
    params["r"] = _slope_variance(TILT_TRUTH)
    return {
        "sensor_kind": "tilt",
        "adc_max": ADC_MAX,
        "models": [_model_dict(TILT_TRUTH, window)],
        "valid_ranges": [],
        "fit_report": {"wipers": []},
        "filter": params,
    }


def _plant_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.normal(0.0, math.sqrt(PLANT_Q), n) * DT


def wheel_log(seed: int, rows: int) -> tuple[str, np.ndarray]:
    """Readings CSV of a multi-turn wheel motion, and its true angles.

    The command is two sinusoids, so the joint turns several times each way
    and crosses the seam and both gaps.  Counts follow the shifted chart of
    each wiper; a wiper inside its gap reads the low rail.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(rows) * DT
    phase = rng.uniform(0.0, math.tau, 2)
    omega = 11.0 * np.sin(math.tau * t / 37.0 + phase[0]) + 5.0 * np.sin(math.tau * t / 11.0 + phase[1])
    omega[0] = 0.0
    theta = _wrap(rng.uniform(-math.pi, math.pi) + np.cumsum(K * DT * omega + _plant_noise(rng, rows)))
    counts = []
    for wiper, (coefs, (gap_lo, gap_hi)) in enumerate(zip(WHEEL_TRUTH, GAPS)):
        if wiper == 0:
            shifted = np.where(theta > gap_hi, theta - math.tau, theta)
        else:
            shifted = np.where(theta < gap_lo, theta + math.tau, theta)
        in_gap = (theta >= gap_lo) & (theta <= gap_hi)
        voltage = np.where(in_gap, 0.0, _invert(coefs, shifted))
        counts.append(_quantize(voltage, rng))
    v0, v1 = counts
    spikes = rng.random(rows) < SPIKE_RATE
    spikes[0] = False  # the first row seeds the filter
    spike_wiper = rng.integers(0, 2, rows)
    offset = rng.integers(250, 450, rows) * np.where(rng.random(rows) < 0.5, -1, 1)
    for wiper, v in enumerate(counts):
        hit = spikes & (spike_wiper == wiper)
        v[hit] = np.clip(v[hit] + offset[hit], 100, ADC_MAX - 100)
    dropouts = rng.random(rows) < DROPOUT_RATE
    dropouts[0] = False  # the first row seeds the filter
    v0[dropouts] = 0
    v1[dropouts] = 0
    lines = ["t,v0,v1,omega"]
    lines += [f"{t[i]:.2f},{v0[i]},{v1[i]},{omega[i]:.17g}" for i in range(rows)]
    return "\n".join(lines) + "\n", theta


def tilt_log(seed: int, rows: int) -> tuple[str, np.ndarray]:
    """Readings CSV of a tilt joint tracking a 1.2 rad sinusoid, and its truth.

    The command is feedforward plus a proportional correction, as in the
    experiments, so the joint stays inside its mechanical range.
    """
    rng = np.random.default_rng(seed)
    period = 8.0
    phase = rng.uniform(0.0, math.tau)
    noise = _plant_noise(rng, rows)
    theta = np.empty(rows)
    omega = np.zeros(rows)
    theta[0] = 1.2 * math.sin(phase)
    for i in range(1, rows):
        arg = math.tau * i * DT / period + phase
        ref, ref_vel = 1.2 * math.sin(arg), 1.2 * math.tau / period * math.cos(arg)
        omega[i] = (ref_vel + 2.0 * (ref - theta[i - 1])) / K
        theta[i] = min(max(theta[i - 1] + K * DT * omega[i] + noise[i], -1.5), 1.5)
    v0 = _quantize(_invert(TILT_TRUTH, theta), rng)
    dropouts = rng.random(rows) < DROPOUT_RATE
    dropouts[0] = False
    v0[dropouts] = 0
    lines = ["t,v0,omega"]
    lines += [f"{i * DT:.2f},{v0[i]},{omega[i]:.17g}" for i in range(rows)]
    return "\n".join(lines) + "\n", theta


def experiment_config(preset: dict, seed: int) -> str:
    """JSON text of an experiment preset run with another seed."""
    config = json.loads(json.dumps(preset))
    config["seed"] = seed
    return json.dumps(config, indent=2, sort_keys=True) + "\n"
