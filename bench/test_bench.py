"""Tests of the benchmark itself: inputs, tracing, count invariants, output.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_workload_names_agree():
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


def test_inputs_repeat_for_a_seed_and_import_no_paintpot():
    assert inputs.wheel_log(7, 3000)[0] == inputs.wheel_log(7, 3000)[0]
    assert inputs.tilt_log(7, 3000)[0] == inputs.tilt_log(7, 3000)[0]
    assert inputs.wheel_log(7, 3000)[0] != inputs.wheel_log(8, 3000)[0]
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import inputs; "
        "inputs.wheel_log(1, 100); inputs.tilt_log(1, 100); inputs.wheel_bundle(); inputs.tilt_bundle(); "
        "print(sorted(m for m in sys.modules if m.startswith('paintpot')))"
    )
    out = subprocess.run([sys.executable, "-I", "-c", probe, str(BENCH)], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_self_time_subtracts_direct_children_only():
    tracer = tracing.Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 2.0, 3.0, 1, 0], ["b", 5.0, 6.0, 0, 0]]
    calls, by_parent, self_s = tracer.summary()
    assert calls == Counter(a=1, b=2, c=1)
    assert by_parent == Counter({("b", "a"): 2, ("c", "b"): 1})
    assert self_s == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_hooks_are_removed_when_a_traced_call_raises():
    from paintpot import cubic

    original = cubic.invert_cubic
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError), tracer:
        assert cubic.invert_cubic is not original
        1 / 0
    assert cubic.invert_cubic is original
    assert tracer.hooks_removed()


# Exact counts of one pass, from the op lists in workloads.py.
EXPECTED = {
    "offline_estimate": {"estimate.step.calls": 2 * (workloads.ESTIMATE_ROWS - 1), "sensor_sim.read.calls": 0},
    "closed_loop": {
        "sensor_sim.read.calls": 3 * workloads.EXPERIMENT_SEEDS * (700 + 500 + 1),
        "estimate.step.calls": 3 * workloads.EXPERIMENT_SEEDS * 500,
        "trajectory.steps": 3 * workloads.EXPERIMENT_SEEDS * 500,
    },
    "calibration": {
        "sensor_sim.read.calls": workloads.SWEEPS * 700,
        "characterize.ingest.rows": workloads.SWEEPS * 700,
        "estimate.step.calls": 0,
    },
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_traced_passes_hold_every_invariant(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    plan = workloads.WORKLOADS[name](3)
    session = run.Session(plan)
    # The smallest run: one checking pass, then one untraced and one traced
    # pass until two traced passes have run.  Traced outputs that differ
    # from the untraced ones, counts that differ between the traced passes,
    # a hook left in place and a broken invariant all land in failures.
    metrics, _ = run.traced(session, 1e-3, tmp_path / "spans.csv", tracing, workloads)
    assert session.failures == []
    assert len(session.digests) == len(plan.ops) and None not in session.digests
    assert {m["name"] for m in SPEC["per_layer"]} == set(metrics)
    for metric, value in EXPECTED[name].items():
        assert metrics[metric][0] == value, metric
    assert (tmp_path / "spans.csv").read_text().startswith("index,name,start_s,end_s,parent,op\n")


def test_invariant_check_reports_a_wrong_count():
    plan = workloads.Plan(
        ops=[workloads.Op("a", "x", lambda: None, (), (), lambda: None, Counter(steps=5, reads=3))],
        setup=[],
        error_rad=max,
        kinds=("x", "y"),
        aliases=[],
    )
    calls = Counter({"estimate.WheelEstimator.step": 5, "sensor_sim.read_wheel": 3})
    assert workloads.count_invariants(plan, calls, Counter({("cubic.invert_cubic", "sensor_sim.read_wheel"): 6})) == []
    calls["estimate.TiltEstimator.step"] += 1
    too_many = Counter({("cubic.invert_cubic", "sensor_sim.read_wheel"): 7})
    assert len(workloads.count_invariants(plan, calls, too_many)) == 2


def test_end_to_end_run_prints_every_metric_of_the_spec():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "calibration", "--seed", "2", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "calibration", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
