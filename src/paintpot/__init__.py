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

The ``paintpot`` CLI wires these together; see the README.
"""

from paintpot.characterize import (
    CalibrationDataset,
    FitReport,
    ModelBundle,
    ValidRange,
    calibrate,
    compute_valid_ranges,
    fit_cubic,
    fit_report,
    ingest_log,
    trim_and_shift,
)
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
    Feature,
    GaussianBelief,
    ObservationModel,
    TiltEstimator,
    TransitionModel,
    WheelEstimator,
    Wiper,
    extract_features,
    predict,
    update_tilt,
    update_wheel,
)
from paintpot.geometry import wrap_angle, wrapped_difference
from paintpot.sensor_sim import (
    AdcReading,
    SensorSpec,
    quantize,
    read_tilt,
    read_wheel,
    simulate_plant_step,
)
from paintpot.trajectory import (
    ControllerGains,
    ExperimentConfig,
    ExperimentResult,
    QuinticTrajectory,
    control_step,
    plan_quintic,
    run_experiment,
    sample,
)

__version__ = "0.1.0"

__all__ = [
    "AdcReading",
    "CalibrationDataset",
    "ControllerGains",
    "CubicModel",
    "DomainError",
    "ExperimentConfig",
    "ExperimentResult",
    "Feature",
    "FitError",
    "FitReport",
    "GaussianBelief",
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
    "ValidRange",
    "WheelEstimator",
    "Wiper",
    "calibrate",
    "compute_valid_ranges",
    "control_step",
    "extract_features",
    "fit_cubic",
    "fit_report",
    "ingest_log",
    "invert_cubic",
    "plan_quintic",
    "predict",
    "quantize",
    "read_tilt",
    "read_wheel",
    "run_experiment",
    "sample",
    "simulate_plant_step",
    "trim_and_shift",
    "update_tilt",
    "update_wheel",
    "wrap_angle",
    "wrapped_difference",
]
