"""Quintic rest-to-rest references and the closed-loop experiment harness.

The harness commands a joint along a quintic profile with a feedforward
velocity plus proportional position controller, drives the simulated plant
and sensor on noise drawn once per run, and runs the matching estimator,
logging truth, estimate, reference, command, and feature availability at
every step.  A joint whose observation model wraps (a wheel) has wrapped
errors and a wrapping plant; one with an angle limit (a tilt) has plain
errors and stops at the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from paintpot.errors import SpecError
from paintpot.estimate import (
    ObservationModel,
    TiltEstimator,
    TransitionModel,
    WheelEstimator,
    extract_features,
)
from paintpot.geometry import wrap_angle, wrapped_difference
from paintpot.sensor_sim import SensorSpec, read, simulate_plant_step
from paintpot.sensor_sim import read_tilt, read_wheel  # noqa: F401  (bench/tracing.py hooks these names)


@dataclass(frozen=True)
class QuinticTrajectory:
    """Fifth-order profile from rest at ``x0`` to rest at ``xf``."""

    a0: float
    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    t_total: float
    x0: float
    xf: float

    def position(self, t: float) -> float:
        return ((((self.a5 * t + self.a4) * t + self.a3) * t + self.a2) * t + self.a1) * t + self.a0

    def velocity(self, t: float) -> float:
        return (((5.0 * self.a5 * t + 4.0 * self.a4) * t + 3.0 * self.a3) * t + 2.0 * self.a2) * t + self.a1

    def acceleration(self, t: float) -> float:
        return ((20.0 * self.a5 * t + 12.0 * self.a4) * t + 6.0 * self.a3) * t + 2.0 * self.a2


def plan_quintic(x0: float, xf: float, t_total: float) -> QuinticTrajectory:
    """The unique quintic with zero velocity and acceleration at both ends."""
    if t_total <= 0.0:
        raise SpecError("t_total must be positive")
    delta = xf - x0
    t3 = t_total**3
    return QuinticTrajectory(
        a0=x0,
        a1=0.0,
        a2=0.0,
        a3=10.0 * delta / t3,
        a4=-15.0 * delta / (t3 * t_total),
        a5=6.0 * delta / (t3 * t_total * t_total),
        t_total=t_total,
        x0=x0,
        xf=xf,
    )


def sample(traj: QuinticTrajectory, t: float) -> tuple[float, float]:
    """(position, velocity) at ``t``, clamped to the profile endpoints."""
    if t <= 0.0:
        return traj.x0, 0.0
    if t >= traj.t_total:
        return traj.xf, 0.0
    return traj.position(t), traj.velocity(t)


@dataclass(frozen=True)
class ControllerGains:
    kp: float
    omega_max: float = 10.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.kp < math.inf:
            raise SpecError(f"kp must be finite and >= 0, got {self.kp!r}")
        if not self.omega_max > 0.0:
            raise SpecError(f"omega_max must be > 0, got {self.omega_max!r}")


def control_step(
    est_mu: float,
    ref_pos: float,
    ref_vel: float,
    gains: ControllerGains,
    tm: TransitionModel,
    wrap: bool = True,
) -> float:
    """Motor speed command: feedforward velocity plus P position correction.

    A wrapping joint's position error is the wrapped difference so a seam
    crossing never produces a full-turn correction; otherwise it is the
    plain difference.
    """
    if tm.k == 0.0:
        raise SpecError("transmission ratio must be nonzero to command the motor")
    err = wrapped_difference(ref_pos, est_mu) if wrap else ref_pos - est_mu
    omega = (ref_vel + gains.kp * err) / tm.k
    return min(max(omega, -gains.omega_max), gains.omega_max)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one closed-loop run needs; deterministic given ``seed``."""

    sensor: SensorSpec
    obs: ObservationModel
    tm: TransitionModel
    traj: QuinticTrajectory
    gains: ControllerGains
    rate_hz: float
    seed: int
    plant_q: float | None = None
    sigma0: float = 1e-4


@dataclass(frozen=True)
class ExperimentResult:
    """Closed-loop trace plus its error summary.

    ``avg_abs_error``/``max_abs_error`` compare estimate against reference
    over the commanded window; wheel errors are wrapped differences so a
    seam crossing is not counted as a full turn.
    """

    kind: str
    t: np.ndarray
    theta_true: np.ndarray
    theta_est: np.ndarray
    theta_ref: np.ndarray
    u_cmd: np.ndarray
    f0_avail: np.ndarray
    f1_avail: np.ndarray
    avg_abs_error: float
    max_abs_error: float
    seed: int

    def __len__(self) -> int:
        return len(self.t)

    def estimate_step_jumps(self) -> np.ndarray:
        """|wrapped change in estimate| between consecutive steps (below pi,
        which a tilt never moves in a step, wrapping changes no difference)."""
        return np.abs([wrap_angle(d) for d in np.diff(self.theta_est).tolist()])

    def write_trace(self, handle: IO[str], comment: str | None = None) -> None:
        if comment is not None:
            handle.write(f"# {comment}\n")
        handle.write("t,theta_true,theta_est,theta_ref,u_cmd,f0_avail,f1_avail\n")
        columns = (
            self.t, self.theta_true, self.theta_est, self.theta_ref, self.u_cmd,
            self.f0_avail, self.f1_avail,
        )
        handle.writelines(
            "%.17g,%.17g,%.17g,%.17g,%.17g,%d,%d\n" % row
            for row in zip(*(column.tolist() for column in columns))
        )

    def summary_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "n_steps": int(len(self.t)),
            "avg_abs_error": self.avg_abs_error,
            "max_abs_error": self.max_abs_error,
        }


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one closed-loop trajectory-tracking experiment.

    Per step: sample the reference, command the motor, advance the plant,
    read the sensor, predict, then update with whatever features are
    available.  Deterministic for a fixed seed: the run draws the initial
    read's W count-noise values (W wipers), then, in one call, each step's
    plant rate noise followed by its W count-noise values.
    """
    sensor, obs = config.sensor, config.obs
    wheel = obs.wrap
    if sensor.tracks != tuple(wiper.track for wiper in obs.wipers):
        raise SpecError(f"the {sensor.kind} sensor spec does not match the observation model")
    if config.rate_hz <= 0.0:
        raise SpecError("rate_hz must be positive")
    dt = 1.0 / config.rate_hz
    if abs(config.tm.dt - dt) > 1e-9 * dt:
        raise SpecError("transition model dt must equal the loop period 1/rate_hz")
    plant_q = config.tm.q if config.plant_q is None else config.plant_q
    if not 0.0 <= plant_q < math.inf:
        raise SpecError(f"plant_q must be finite and >= 0, got {plant_q!r}")

    n_steps = int(round(config.traj.t_total * config.rate_hz))
    if n_steps < 1:
        raise SpecError("trajectory shorter than one loop period")

    limit = sensor.angle_limit
    theta = wrap_angle(config.traj.x0) if wheel else config.traj.x0
    if not (wheel or abs(theta) <= limit):
        raise SpecError("tilt trajectory starts outside the mechanical range")

    estimator = (WheelEstimator if wheel else TiltEstimator)(obs, config.tm, config.sigma0)
    rng = np.random.default_rng(config.seed)
    width = len(sensor.wipers)
    readings = read(theta, sensor, rng.normal(0.0, sensor.noise_std, width).tolist())
    # Per step the plant's draw, then W count draws, taken as one tuple.
    scales = [math.sqrt(plant_q)] + [sensor.noise_std] * width
    draws = rng.normal(0.0, scales, (n_steps, 1 + width))
    plant_noise, read_noise = draws[:, 0].tolist(), zip(*draws[:, 1:].T.tolist())
    belief = estimator.initialize(readings)
    admitted = {feature.index for feature in extract_features(readings, obs)}
    used = (0 in admitted, 1 in admitted)

    size = n_steps + 1  # one list per trace column, made an array after the run
    logs = [[0.0] * size for _ in range(7)]
    t_log, true_log, est_log, ref_log, u_log, f0_log, f1_log = logs
    traj, gains, tm, step_estimator = config.traj, config.gains, config.tm, estimator.step
    true_log[0], est_log[0], ref_log[0] = theta, belief.mu, sample(traj, 0.0)[0]
    f0_log[0], f1_log[0] = used

    for step, plant_draw, read_draws in zip(range(1, size), plant_noise, read_noise):
        t = step * dt
        ref_pos, ref_vel = sample(traj, t)
        u = control_step(belief.mu, ref_pos, ref_vel, gains, tm, wheel)
        theta = simulate_plant_step(theta, u, tm.k, dt, plant_draw, limit)[0]
        belief, used = step_estimator(u, read(theta, sensor, read_draws))
        if not wheel:
            used = (used, False)
        t_log[step], true_log[step], est_log[step] = t, theta, belief.mu
        ref_log[step], u_log[step] = ref_pos, u
        f0_log[step], f1_log[step] = used
    t_log, true_log, est_log, ref_log, u_log = (np.array(log, dtype=float) for log in logs[:5])
    f0_log, f1_log = (np.array(log, dtype=bool) for log in logs[5:])

    # Wheel errors are wrapped differences, so a seam crossing is not a turn.
    errors = est_log - ref_log
    errors = np.abs([wrap_angle(e) for e in errors.tolist()] if wheel else errors)
    return ExperimentResult(
        kind=sensor.kind,
        t=t_log,
        theta_true=true_log,
        theta_est=est_log,
        theta_ref=ref_log,
        u_cmd=u_log,
        f0_avail=f0_log,
        f1_avail=f1_log,
        avg_abs_error=float(errors.mean()),
        max_abs_error=float(errors.max()),
        seed=config.seed,
    )
