"""Position sensing for hand-painted potentiometers.

Four pieces, usable separately or as one pipeline:

- :mod:`paintpot.sensor_sim` -- ground-truth plant and ADC models for the
  dual-wiper wheel sensor and the single-wiper tilt sensor.
- :mod:`paintpot.characterize` -- calibration-log ingestion, gap trimming
  with the full-turn shift, cubic least-squares models, valid windows.
- :mod:`paintpot.estimate` -- scalar Kalman filters over converted angle
  measurements (features instead of raw voltages).
- :mod:`paintpot.trajectory` -- quintic references, a velocity controller,
  and the closed-loop experiment harness.

The names below drive the pipeline; each module keeps its per-phase parts.
The ``paintpot`` CLI wires these together; see the README.
"""

from paintpot.characterize import CalibrationDataset, ModelBundle, calibrate, fit_cubic, ingest_log
from paintpot.cubic import CubicModel, invert_cubic
from paintpot.errors import (
    DomainError,
    FitError,
    InitializationError,
    InversionError,
    PaintPotError,
    SpecError,
)
from paintpot.estimate import (
    ObservationModel,
    TiltEstimator,
    TransitionModel,
    WheelEstimator,
)
from paintpot.geometry import wrap_angle
from paintpot.sensor_sim import SensorSpec
from paintpot.trajectory import (
    ControllerGains,
    ExperimentConfig,
    ExperimentResult,
    QuinticTrajectory,
    plan_quintic,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationDataset",
    "ControllerGains",
    "CubicModel",
    "DomainError",
    "ExperimentConfig",
    "ExperimentResult",
    "FitError",
    "InitializationError",
    "InversionError",
    "ModelBundle",
    "ObservationModel",
    "PaintPotError",
    "QuinticTrajectory",
    "SensorSpec",
    "SpecError",
    "TiltEstimator",
    "TransitionModel",
    "WheelEstimator",
    "calibrate",
    "fit_cubic",
    "ingest_log",
    "invert_cubic",
    "plan_quintic",
    "run_experiment",
    "wrap_angle",
]
