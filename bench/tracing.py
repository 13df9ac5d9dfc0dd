"""Spans and counts at paintpot's layer boundaries, recorded from outside.

The tracer replaces each hooked function at the module or class attribute
its callers look it up by, and puts the original back on exit; ``src/`` is
never edited.  A span records its name, start, end, parent span and op id.
The hot, tiny calls in ``COUNT_ONLY`` are counted without a span, so their
time falls into the enclosing span's self time.

Span names are ``<module>.<qualname>`` of the wrapped original, so one
function reached through several module attributes (``invert_cubic`` from
``sensor_sim`` and from ``characterize``) is one span name.
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (owner, attribute).  The owner is a module, or ``module:Class``.
HOOKS = (
    ("paintpot.cubic", "invert_cubic"),
    ("paintpot.sensor_sim", "invert_cubic"),
    ("paintpot.characterize", "invert_cubic"),
    ("paintpot.cubic:CubicModel", "__post_init__"),
    ("paintpot.cubic:CubicModel", "evaluate"),
    ("paintpot.sensor_sim", "read_wheel"),
    ("paintpot.sensor_sim", "read_tilt"),
    ("paintpot.trajectory", "read_wheel"),
    ("paintpot.trajectory", "read_tilt"),
    ("paintpot.sensor_sim", "quantize"),
    ("paintpot.sensor_sim", "simulate_plant_step"),
    ("paintpot.trajectory", "simulate_plant_step"),
    ("paintpot.characterize", "ingest_log"),
    ("paintpot.characterize", "fit_cubic"),
    ("paintpot.characterize", "compute_valid_ranges"),
    ("paintpot.characterize", "calibrate"),
    ("paintpot.estimate:WheelEstimator", "step"),
    ("paintpot.estimate:TiltEstimator", "step"),
    ("paintpot.estimate", "predict"),
    ("paintpot.estimate", "extract_features"),
    ("paintpot.trajectory", "extract_features"),
    ("paintpot.estimate", "update_wheel"),
    ("paintpot.estimate", "update_tilt"),
    ("paintpot.trajectory", "run_experiment"),
    ("paintpot.trajectory", "control_step"),
    ("paintpot.cli", "run_estimate"),
    ("paintpot.cli", "run_sweep"),
    ("paintpot.cli", "run_calibrate"),
    ("paintpot.cli", "run_experiment_command"),
    ("paintpot.cli", "synthesize_sweep_dataset"),
    ("paintpot.geometry", "wrap_angle"),
    ("paintpot.sensor_sim", "wrap_angle"),
    ("paintpot.estimate", "wrap_angle"),
    ("paintpot.trajectory", "wrap_angle"),
    ("paintpot.cli", "wrap_angle"),
)

COUNT_ONLY = frozenset({"cubic.CubicModel.evaluate", "sensor_sim.quantize", "geometry.wrap_angle"})

WHEEL_STEP = "estimate.WheelEstimator.step"
TILT_STEP = "estimate.TiltEstimator.step"


def _after_ingest(counts, args, result, parent):
    counts["characterize.ingest.rows"] += len(result)


def _after_wheel_step(counts, args, result, parent):
    used = int(result.used[0]) + int(result.used[1])
    counts["estimate.features.used"] += used
    counts[f"estimate.wheel_steps_using.{used}"] += 1


def _after_tilt_step(counts, args, result, parent):
    counts["estimate.features.used"] += int(result.used)
    counts[f"estimate.tilt_steps_using.{int(result.used)}"] += 1


def _after_extract(counts, args, result, parent):
    if parent == WHEEL_STEP:
        counts["estimate.features.in_window"] += len(result)
        counts["estimate.features.out_of_window"] += len(args[0]) - len(result)


def _after_update_tilt(counts, args, result, parent):
    # The tilt filter has no gate: a reading is used exactly when its count
    # is inside the model window.
    accepted = int(result[1])
    counts["estimate.features.in_window"] += accepted
    counts["estimate.features.out_of_window"] += 1 - accepted


def _after_experiment(counts, args, result, parent):
    counts["trajectory.steps"] += len(result) - 1


AFTER = {
    "characterize.ingest_log": _after_ingest,
    WHEEL_STEP: _after_wheel_step,
    TILT_STEP: _after_tilt_step,
    "estimate.extract_features": _after_extract,
    "estimate.update_tilt": _after_update_tilt,
    "trajectory.run_experiment": _after_experiment,
}


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


def span_name(function) -> str:
    return f"{function.__module__.removeprefix('paintpot.')}.{function.__qualname__}"


class Tracer:
    """Context manager that hooks every entry of ``HOOKS`` while active.

    ``spans`` holds ``[name, start, end, parent_index, op]`` lists in start
    order.  ``counts`` holds the count-only calls and the data counts of
    ``AFTER`` by name; ``parent_counts`` holds the count-only calls by
    ``(name, enclosing span name)``.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.parent_counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr in HOOKS:
                target = _resolve(owner)
                original = getattr(target, attr)
                self._originals.append((target, attr, original))
                setattr(target, attr, self._wrap(original))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        for target, attr, original in reversed(self._originals):
            setattr(target, attr, original)

    def hooks_removed(self) -> bool:
        """True when every hooked attribute holds its original object again."""
        return all(getattr(target, attr) is original for target, attr, original in self._originals)

    def _wrap(self, original):
        name = span_name(original)
        spans, stack, counts, parent_counts = self.spans, self._stack, self.counts, self.parent_counts
        if name in COUNT_ONLY:

            def counted(*args, **kwargs):
                counts[name] += 1
                if stack:
                    parent_counts[name, spans[stack[-1]][0]] += 1
                return original(*args, **kwargs)

            return counted
        after = AFTER.get(name)

        def spanned(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, perf_counter(), 0.0, parent, self.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(counts, args, result, spans[parent][0] if parent >= 0 else None)
            return result

        return spanned

    @contextmanager
    def op_span(self, op_id: int, label: str):
        """Root span around one benchmark op; the spans under it carry ``op_id``."""
        record = [f"op.{label}", perf_counter(), 0.0, -1, op_id]
        self.op = op_id
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()
            self.op = None

    def summary(self) -> tuple[Counter, Counter, dict[str, float]]:
        """(calls by name, calls by (name, parent name), self seconds by name).

        Calls include the count-only calls and the data counts; a span's self
        time is its duration minus the durations of its direct children.
        """
        calls = Counter(self.counts)
        by_parent = Counter(self.parent_counts)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += end - start
                by_parent[name, self.spans[parent][0]] += 1
        self_s: dict[str, float] = {}
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - children
        return calls, by_parent, self_s

    def write_spans(self, path) -> None:
        """Write every span as CSV, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("index,name,start_s,end_s,parent,op\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(
                    f"{index},{name},{start - origin:.9f},{end - origin:.9f},{parent},{op}\n"
                )


READS = ("sensor_sim.read_wheel", "sensor_sim.read_tilt")
STEPS = (WHEEL_STEP, TILT_STEP)
UPDATES = ("estimate.update_wheel", "estimate.update_tilt")
INVERT, EVALUATE, MODEL_INIT = "cubic.invert_cubic", "cubic.CubicModel.evaluate", "cubic.CubicModel.__post_init__"


def layer_metrics(calls: Counter, by_parent: Counter, self_s: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""

    def total(names, table=calls):
        return sum(table.get(name, 0) for name in names)

    def seconds(*names):
        return total(names, self_s), "s"

    in_window, used = calls["estimate.features.in_window"], calls["estimate.features.used"]
    return {
        "cubic.invert.calls": (calls[INVERT], "count"),
        "cubic.invert.self_s": seconds(INVERT),
        "cubic.evaluate.calls": (calls[EVALUATE], "count"),
        "cubic.evals_per_invert": (by_parent[EVALUATE, INVERT] / calls[INVERT] if calls[INVERT] else 0.0, "count"),
        "cubic.model_init.calls": (calls[MODEL_INIT], "count"),
        "cubic.model_init.self_s": seconds(MODEL_INIT),
        "sensor_sim.read.calls": (total(READS), "count"),
        "sensor_sim.read.self_s": seconds(*READS),
        "sensor_sim.quantize.calls": (calls["sensor_sim.quantize"], "count"),
        "sensor_sim.plant_step.self_s": seconds("sensor_sim.simulate_plant_step"),
        "characterize.ingest.rows": (calls["characterize.ingest.rows"], "count"),
        "characterize.ingest.self_s": seconds("characterize.ingest_log"),
        "characterize.fit.self_s": seconds("characterize.fit_cubic"),
        "characterize.valid_ranges.self_s": seconds("characterize.compute_valid_ranges"),
        "characterize.calibrate.self_s": seconds("characterize.calibrate"),
        "estimate.step.calls": (total(STEPS), "count"),
        "estimate.step.self_s": seconds(*STEPS),
        "estimate.predict.self_s": seconds("estimate.predict"),
        "estimate.extract_features.self_s": seconds("estimate.extract_features"),
        "estimate.update.self_s": seconds(*UPDATES),
        "estimate.features.in_window": (in_window, "count"),
        "estimate.features.used": (used, "count"),
        "estimate.features.gated": (in_window - used, "count"),
        "estimate.features.out_of_window": (calls["estimate.features.out_of_window"], "count"),
        "estimate.feature_use_ratio": (used / in_window if in_window else 0.0, "ratio"),
        "estimate.steps_without_feature": (
            calls["estimate.wheel_steps_using.0"] + calls["estimate.tilt_steps_using.0"],
            "count",
        ),
        "trajectory.steps": (calls["trajectory.steps"], "count"),
        "trajectory.run_experiment.self_s": seconds("trajectory.run_experiment"),
        "trajectory.control_step.self_s": seconds("trajectory.control_step"),
        "cli.estimate.self_s": seconds("cli.run_estimate"),
        "cli.sweep_synth.self_s": seconds("cli.synthesize_sweep_dataset"),
        "cli.experiment.self_s": seconds("cli.run_experiment_command"),
        "cli.sweep.self_s": seconds("cli.run_sweep"),
        "cli.calibrate.self_s": seconds("cli.run_calibrate"),
        "geometry.wrap_angle.calls": (calls["geometry.wrap_angle"], "count"),
    }
