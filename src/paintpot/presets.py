"""Bundled reference sensors and replica experiment configurations.

The truth cubics below are characterizations measured from production
sensors; they serve as simulation ground truth so the whole pipeline can
run, and be regression-tested, without hardware.  The experiment presets
reproduce the standard closed-loop benchmark moves.
"""

from __future__ import annotations

import math

from paintpot.cubic import CubicModel
from paintpot.geometry import TILT_LIMIT, WHEEL_TRACKS
from paintpot.sensor_sim import SensorSpec, WiperSpec, sensor_spec_to_dict

FULL_ADC_WINDOW = (0.0, 1023.0)

# Wheel sensor, wiper 0: shifted angle over the full count window.
WHEEL_TRUTH_W0 = CubicModel(5.0281e-9, -1.2255e-5, 1.7856e-2, -7.2750, FULL_ADC_WINDOW)
# Wheel sensor, wiper 1.
WHEEL_TRUTH_W1 = CubicModel(5.1596e-9, -1.2409e-5, 1.7927e-2, -5.8128, FULL_ADC_WINDOW)
# Tilt sensor, single wiper.
TILT_TRUTH = CubicModel(4.7517e-9, -8.7608e-6, 8.6756e-3, -2.7173, FULL_ADC_WINDOW)


def reference_wheel_spec(noise_std: float = 1.0) -> SensorSpec:
    wipers = tuple(map(WiperSpec, (WHEEL_TRUTH_W0, WHEEL_TRUTH_W1), WHEEL_TRACKS))
    return SensorSpec(wipers, noise_std=noise_std)


def reference_tilt_spec(noise_std: float = 1.0) -> SensorSpec:
    return SensorSpec((WiperSpec(TILT_TRUTH),), TILT_LIMIT, noise_std=noise_std)


SENSOR_PRESETS = {
    "wheel_reference": reference_wheel_spec,
    "tilt_reference": reference_tilt_spec,
}


def _experiment_preset(kind: str, x0: float, xf: float, seed: int) -> dict:
    spec = SENSOR_PRESETS[f"{kind}_reference"]()
    return {
        "kind": kind,
        "seed": seed,
        "rate_hz": 100.0,
        "trajectory": {"x0": x0, "xf": xf, "t_total": 5.0},
        "controller": {"kp": 6.0, "omega_max": 12.0},
        "transition": {"k": 0.2, "q": 0.05},
        "plant_q": 0.02,
        "sigma0": 1e-4,
        "sensor": sensor_spec_to_dict(spec),
        # Fit the observation models from a synthetic sweep of the sensor
        # above, exactly as a hardware run would be calibrated first.
        "calibration": {"rate_hz": 14.0, "duration_s": 50.0},
    }


EXPERIMENT_PRESETS = {
    "pan_pi_to_0": _experiment_preset("wheel", math.pi, 0.0, seed=101),
    "pan_negpi_to_0": _experiment_preset("wheel", -math.pi, 0.0, seed=102),
    "tilt_sweep": _experiment_preset("tilt", -1.3, 1.3, seed=103),
}
