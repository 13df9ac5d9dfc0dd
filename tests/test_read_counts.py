"""What the benchmark's tracer counts on the simulated read path.

``bench/tracing.py`` replaces module and class attributes with counting
wrappers, and ``bench/workloads.py::count_invariants`` holds the counts to
one ``read_wheel``/``read_tilt`` call per reading and at most two
inversions per wheel read.  These tests count through the same attributes,
so a leaner read cannot quietly drop or add a hooked call, and hold the
tracer's hooks and the public API to what exists.  A read inverts only the
readings its chart's slack cannot settle, so the inversion counts of a
seeded run are pinned exactly.
"""

import importlib.util
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import paintpot
from paintpot import cli, geometry, presets, sensor_sim, trajectory
from paintpot.cubic import CubicModel

import oracles

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_tracer_hook_resolves_and_is_put_back():
    """A hooked attribute that is renamed or deleted fails here, not only in the bench."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    with tracing.Tracer() as tracer:
        geometry.wrap_angle(4.0)
    assert len(tracer._originals) == len(tracing.HOOKS)
    assert tracer.hooks_removed()
    assert tracer.counts["geometry.wrap_angle"] == 1


def test_public_api_is_small_and_resolves():
    assert len(paintpot.__all__) <= 32
    assert len(set(paintpot.__all__)) == len(paintpot.__all__)
    for name in paintpot.__all__:
        assert getattr(paintpot, name) is not None


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
            charts = calls["chart"]
            result = original(*args, **kwargs)
            calls["chart_in_read"] += calls["chart"] - charts
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


def check_read_counts(calls, readings, reads, wipers, inversions):
    assert calls["read_wheel" if wipers == 2 else "read_tilt"] == reads
    assert calls["read_tilt" if wipers == 2 else "read_wheel"] == 0
    assert len(readings) == wipers * reads
    # Only the readings the slack leaves undecided are inverted.
    assert calls["invert"] == inversions
    # quantize rounds a gap reading's rail voltage and an inverted voltage;
    # a count its slack settles is rounded in the read.
    gap_readings = sum(not available for _, _, available in readings)
    assert calls["quantize"] == gap_readings + inversions
    # Two evaluations per inversion on the reference sensors: the
    # benchmark's cubic.evals_per_invert.
    assert calls["evaluate_in_invert"] == 2 * calls["invert"]


def test_wheel_sweep_counts(counted):
    calls, readings = counted
    spec = presets.reference_wheel_spec()
    for wiper in spec.wipers:
        wiper.truth.slack  # built once per model, outside any read
    calls.clear()
    dataset = cli.synthesize_sweep_dataset(spec, 14.0, 50.0, np.random.default_rng(3))
    check_read_counts(calls, readings, reads=700, wipers=2, inversions=1)
    assert len(dataset.t) == 700
    # The sweep crosses both gaps, so some wiper readings are unavailable.
    assert sum(available for _, _, available in readings) == 1284
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
    check_read_counts(calls, readings, reads=sweep_rows + steps + 1, wipers=1, inversions=3)
    assert all(available for _, _, available in readings)
    # The config's sensor spec holds a new truth cubic, charted on its first read.
    assert calls["chart_in_read"] == 1 and not calls["chart_in_invert"]


def draws_at(spec, theta, offset):
    """Draws that put each wiper's voltage at ``theta`` ``offset`` counts
    above a whole count (the angles below are off both wheel gaps)."""
    voltages = [oracles.wiper_voltage(wiper, theta) for wiper in spec.wipers]
    return [math.floor(voltage) + offset - voltage for voltage in voltages]


SPECS = {"wheel": presets.reference_wheel_spec(), "tilt": presets.reference_tilt_spec()}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_a_draw_at_mid_count_makes_no_inversion(counted, name):
    calls, _ = counted
    spec = SPECS[name]
    for theta in (-1.0, 0.3, 1.2):
        noise = draws_at(spec, theta, 0.0)
        calls.clear()
        got = sensor_sim.read(theta, spec, noise)
        assert not calls["quantize"] and not calls["invert"]
        assert got == oracles.read_reference(theta, spec, noise)


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("hair", [-1e-9, 1e-9])
def test_a_draw_a_hair_from_a_half_count_makes_one_inversion(counted, name, hair):
    calls, _ = counted
    spec = SPECS[name]
    for theta in (-1.0, 0.3, 1.2):
        noise = draws_at(spec, theta, 0.5 + hair)
        calls.clear()
        got = sensor_sim.read(theta, spec, noise)
        # One inversion per wiper reading.
        assert calls["invert"] == len(spec.wipers)
        assert got == oracles.read_reference(theta, spec, noise)
