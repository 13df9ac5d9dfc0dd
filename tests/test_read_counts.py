"""What the benchmark's tracer counts on the simulated read path.

``bench/tracing.py`` replaces module and class attributes with counting
wrappers, and ``bench/workloads.py::count_invariants`` holds the counts to
one ``read_wheel``/``read_tilt`` call per reading and at most two
inversions per wheel read.  These tests count through the same attributes,
so a leaner read cannot quietly drop or add a hooked call.
"""

from collections import Counter

import numpy as np
import pytest

from paintpot import cli, presets, sensor_sim, trajectory
from paintpot.cubic import CubicModel


@pytest.fixture
def counted(monkeypatch):
    """Count calls through the attributes the tracer hooks, with the readings
    each read returned and the scalar cubic evaluations made inside inversions."""
    calls, readings = Counter(), []
    evaluate = CubicModel.evaluate

    def counting_evaluate(self, v):
        # A model's chart is one evaluation over an array of knots, made on
        # the model's first inversion.
        calls["evaluate" if np.ndim(v) == 0 else "chart"] += 1
        return evaluate(self, v)

    def counting_inversion(original):
        def invert(*args, **kwargs):
            before = calls["evaluate"], calls["chart"]
            calls["invert"] += 1
            try:
                return original(*args, **kwargs)
            finally:
                calls["evaluate_in_invert"] += calls["evaluate"] - before[0]
                calls["chart_in_invert"] += calls["chart"] - before[1]

        return invert

    def counting_read(name, original):
        def read(*args, **kwargs):
            calls[name] += 1
            result = original(*args, **kwargs)
            readings.extend(result if name == "read_wheel" else (result,))
            return result

        return read

    def counting_quantize(*args, **kwargs):
        calls["quantize"] += 1
        return quantize(*args, **kwargs)

    quantize = sensor_sim.quantize
    monkeypatch.setattr(CubicModel, "evaluate", counting_evaluate)
    monkeypatch.setattr(sensor_sim, "invert_cubic", counting_inversion(sensor_sim.invert_cubic))
    monkeypatch.setattr(sensor_sim, "quantize", counting_quantize)
    for name in ("read_wheel", "read_tilt"):
        wrapper = counting_read(name, getattr(sensor_sim, name))
        monkeypatch.setattr(sensor_sim, name, wrapper)
        monkeypatch.setattr(trajectory, name, wrapper)
    return calls, readings


def check_read_counts(calls, readings, reads, wipers):
    assert calls["read_wheel" if wipers == 2 else "read_tilt"] == reads
    assert calls["read_tilt" if wipers == 2 else "read_wheel"] == 0
    assert len(readings) == calls["quantize"] == wipers * reads
    assert calls["invert"] == sum(reading.available for reading in readings)
    # Two evaluations per inversion on the reference sensors: the
    # benchmark's cubic.evals_per_invert.
    assert calls["evaluate_in_invert"] == 2 * calls["invert"]


def test_wheel_sweep_counts(counted):
    calls, readings = counted
    spec = presets.reference_wheel_spec()
    for wiper in spec.wipers:
        wiper.truth.chart  # built once per model, outside any inversion
    calls.clear()
    dataset = cli.synthesize_sweep_dataset(spec, 14.0, 50.0, np.random.default_rng(3))
    check_read_counts(calls, readings, reads=700, wipers=2)
    assert len(dataset.t) == 700
    # The sweep crosses both gaps, so some wiper readings are unavailable.
    assert 0 < calls["invert"] < 2 * 700
    assert calls["evaluate"] == calls["evaluate_in_invert"] and not calls["chart"]


def test_tilt_sweep_experiment_counts(counted, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    preset = presets.EXPERIMENT_PRESETS["tilt_sweep"]
    steps = round(preset["trajectory"]["t_total"] * preset["rate_hz"])
    calibration = preset["calibration"]
    sweep_rows = round(calibration["rate_hz"] * calibration["duration_s"])
    calls, readings = counted
    result = cli.run_experiment_command("tilt_sweep", "tilt")
    assert len(result) == steps + 1
    # The calibration sweep, the initial read and one read per step.
    check_read_counts(calls, readings, reads=sweep_rows + steps + 1, wipers=1)
    assert calls["invert"] == len(readings)
    # The config's sensor spec holds a new truth cubic, charted on its first inversion.
    assert calls["chart_in_invert"] == 1
