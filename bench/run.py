"""Run one paintpot benchmark workload and print its metrics.

From the root of a checkout:

    python3 bench/run.py --workload closed_loop --seed 1 --seconds 20 --trace 0

The program is imported from the ``src/`` directory next to this one, so a
checkout needs no install.  Workloads, their load shape and the reasons for
them are in ``workloads.py``; the metrics are in ``README.md``.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced passes over the workload's op
list and reports the per-layer metrics of one traced pass (self times are
medians over the traced passes), plus the tracing overhead.

The report goes to standard output; its last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record, with the environment and the sha256 of every op's outputs, is also
written to ``.bench_out/``.  Exit status: 0 when every check passed, 1 when
one failed, 2 when there is no program to measure.
"""

from __future__ import annotations

import os

# The load is one client in one thread; keep BLAS from starting its own.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, thread_time  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("offline_estimate", "closed_loop", "calibration")
SETUP_RUNS = 7
MIN_BEYOND_TAIL = 10

# Run in a fresh interpreter: the program's set-up is its imports plus
# loading the bundles, configs or sensor presets the workload uses.  It is
# timed in CPU seconds, for the reason given in ``Session.run_op``.
SETUP_CHILD = r"""
import time
start = time.process_time()
import json, sys
sys.path.insert(0, sys.argv[1])
from paintpot import cli
for item in sys.argv[2:]:
    kind, _, value = item.partition("=")
    if kind == "bundle":
        cli.characterize.load_bundle(value)
    elif kind == "config":
        with open(value, encoding="utf-8") as handle:
            cli.sensor_sim.sensor_spec_from_dict(json.load(handle)["sensor"])
    else:
        cli.presets.SENSOR_PRESETS[value]()
print(time.process_time() - start)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) at the highest percentile that has
    ten samples beyond it; the maximum when there are no more than ten.

    The percentile follows the sample count smoothly.  A fixed ladder of
    percentiles would jump, say from p90 to p95, between two runs whose
    counts straddle 200.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= MIN_BEYOND_TAIL:
        return ordered[-1], 100.0, n
    return ordered[n - MIN_BEYOND_TAIL - 1], 100.0 * (n - MIN_BEYOND_TAIL) / n, n


class Session:
    """Runs a plan's ops, checks their outputs and counts failures."""

    def __init__(self, plan) -> None:
        self.plan = plan
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: list[str | None] = [None] * len(plan.ops)
        self.figures: list[object] = [None] * len(plan.ops)

    def fail(self, op, message: str) -> None:
        self.failures.append(f"{op.label}: {message}")
        print(f"bench: {op.label} failed: {message}", file=sys.stderr)

    def run_op(self, index: int, tracer=None) -> tuple[float, float]:
        """Run op ``index`` once; return its (CPU, wall) time in seconds.

        The CPU time is that of the one thread running the op.  An op is
        CPU-bound and its files stay in the page cache, so on an idle
        machine the two agree; on a shared one, wall time also counts the
        time other processes held the CPU, which made tail latencies
        differ by up to a quarter between runs.

        The first successful run of an op is checked in full and its output
        digest kept; every later run must write the same bytes.
        """
        op = self.plan.ops[index]
        self.attempted += 1
        cpu, wall = thread_time(), perf_counter()
        try:
            if tracer is None:
                op.run()
            else:
                with tracer.op_span(index, op.label):
                    op.run()
        except Exception as exc:  # a failed op is counted and the loop goes on
            elapsed = thread_time() - cpu, perf_counter() - wall
            traceback.print_exc()
            self.fail(op, f"{type(exc).__name__}: {exc}")
            return elapsed
        elapsed = thread_time() - cpu, perf_counter() - wall
        digest = hashlib.sha256()
        for path in op.outputs:
            digest.update(Path(path).read_bytes())
        digest = digest.hexdigest()
        if self.digests[index] is None:
            try:
                self.figures[index] = op.check()
            except Exception as exc:  # any error while reading the outputs fails the check
                self.fail(op, f"output check: {exc}")
                return elapsed
            self.digests[index] = digest
        elif digest != self.digests[index]:
            self.fail(op, "output bytes differ from the first run of this op")
        return elapsed

    def run_pass(self, tracer=None) -> float:
        """Run every op once; return the summed wall time in seconds."""
        return sum(self.run_op(index, tracer)[1] for index in range(len(self.plan.ops)))

    def outputs_sha256(self) -> str | None:
        if None in self.digests:
            return None
        joined = "".join(f"{op.label} {d}\n" for op, d in zip(self.plan.ops, self.digests))
        return hashlib.sha256(joined.encode()).hexdigest()


def setup_seconds(plan) -> float:
    """Median over fresh interpreters of the program's set-up time."""
    times = []
    for _ in range(SETUP_RUNS):
        child = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), *plan.setup],
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{child.stderr}")
        times.append(float(child.stdout.split()[-1]))
    return statistics.median(times)


def end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    """Closed loop over the op list for ``seconds``; tracing off."""
    plan = session.plan
    setup_s = setup_seconds(plan)
    session.run_pass()  # checks every op's outputs, warms caches
    cpu_ms = {"a": [], "b": []}
    wall_ms = {"a": [], "b": []}
    deadline = perf_counter() + seconds
    count = 0
    while perf_counter() < deadline or count < len(plan.ops):
        op_index = count % len(plan.ops)
        kind = plan.ops[op_index].kind
        cpu, wall = session.run_op(op_index)
        cpu_ms[kind].append(1000.0 * cpu)
        wall_ms[kind].append(1000.0 * wall)
        count += 1
    metrics = {"setup_s": (setup_s, "s")}
    # The medians are reported but not gated: on a shared host whose CPU
    # speed changes by a quarter over tens of seconds, a run's median lands
    # in its fast or its slow phase, and ten runs of one commit spread by up
    # to 30%.  The tail sits in the slow phase and spread by about 10% at most.
    detail = {"p50": {}}
    for kind in ("a", "b"):
        value, percentile, n = tail(cpu_ms[kind])
        detail["p50"][f"op_{kind}_p50_ms"] = (statistics.median(cpu_ms[kind]), "ms")
        metrics[f"op_{kind}_tail_ms"] = (value, "ms")
        detail[f"op_{kind}_tail_ms"] = {"percentile": percentile, "samples": n}
        wall_tail = tail(wall_ms[kind])
        detail[f"op_{kind}_wall_ms"] = {"p50": statistics.median(wall_ms[kind]), "tail": wall_tail[0], "percentile": wall_tail[1]}
    figures = [f for f in session.figures if f is not None]
    metrics["error_rad"] = (plan.error_rad(figures) if figures else 0.0, "rad")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics, detail


def traced(session: Session, seconds: float, spans_path: Path, tracing, workloads) -> tuple[dict, dict]:
    """Untraced and traced passes in turn; per-layer metrics and overhead."""
    plan = session.plan
    session.run_pass()
    untraced_s, traced_s, summaries = [], [], []
    deadline = perf_counter() + seconds
    while len(summaries) < 2 or perf_counter() < deadline:
        untraced_s.append(session.run_pass())
        tracer = tracing.Tracer()
        with tracer:
            traced_s.append(session.run_pass(tracer))
        if not tracer.hooks_removed():
            session.failures.append("a tracing hook was left in place")
        if not summaries:
            tracer.write_spans(spans_path)
        summaries.append(tracer.summary())
    calls, by_parent, _ = summaries[0]
    for other_calls, other_by_parent, _ in summaries[1:]:
        if other_calls != calls or other_by_parent != by_parent:
            session.failures.append("counts differ between traced passes")
    session.failures.extend(workloads.count_invariants(plan, calls, by_parent))
    names = set().union(*(s[2] for s in summaries))
    self_s = {name: statistics.median(s[2].get(name, 0.0) for s in summaries) for name in names}
    metrics = tracing.layer_metrics(calls, by_parent, self_s)
    metrics["cli.bytes_read"] = (sum(Path(p).stat().st_size for op in plan.ops for p in op.inputs), "bytes")
    metrics["cli.bytes_written"] = (sum(Path(p).stat().st_size for op in plan.ops for p in op.outputs), "bytes")
    overhead = statistics.median(traced_s) - statistics.median(untraced_s)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_ratio"] = (overhead / statistics.median(untraced_s), "ratio")
    detail = {
        "passes": {"untraced_s": untraced_s, "traced_s": traced_s},
        "wheel_steps_using": {u: calls[f"estimate.wheel_steps_using.{u}"] for u in (0, 1, 2)},
    }
    return metrics, detail


def environment(paintpot, numpy) -> dict:
    package = SRC / "paintpot"
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in package.rglob("*.py")),
        "public_api_names": len(paintpot.__all__),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "paintpot" / "__init__.py").is_file():
        print(f"bench: no paintpot sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import paintpot

    if Path(paintpot.__file__).resolve().parent != (SRC / "paintpot").resolve():
        print(f"bench: paintpot was imported from {paintpot.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(work)  # ops name their files relative to here, so manifests are the same every run
    try:
        plan = workloads.WORKLOADS[args.workload](args.seed)
        session = Session(plan)
        if args.trace:
            spans_path = out_dir / f"{stem}-spans.csv"
            metrics, detail = traced(session, args.seconds, spans_path, tracing, workloads)
            detail["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            metrics, detail = end_to_end(session, args.seconds)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(paintpot, numpy),
        "op_kinds": {"a": plan.kinds[0], "b": plan.kinds[1]},
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "detail": detail,
        "outputs_sha256": session.outputs_sha256(),
        "op_outputs_sha256": {f"{i}.{op.label}": d for i, (op, d) in enumerate(zip(plan.ops, session.digests))},
        "failures": session.failures,
    }
    if not args.trace:
        measured = {**metrics, **detail["p50"]}
        record["named_metrics"] = {
            name: {"value": convert(measured[generic][0]), "unit": unit}
            for name, generic, unit, convert in plan.aliases
        }
        record["named_metrics"]["failed_ops_ratio"] = {
            "value": len(session.failures) / session.attempted,
            "unit": "ratio",
        }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"environment {json.dumps(record['environment'])}")
    print(f"op kinds  a: {plan.kinds[0]}  b: {plan.kinds[1]}")
    for name, (value, unit) in metrics.items():
        extra = detail.get(name)
        suffix = f"  (p{extra['percentile']:.3g} of {extra['samples']} samples)" if extra else ""
        print(f"  {name} = {value!r} {unit}{suffix}")
    for name, (value, unit) in detail.get("p50", {}).items():
        print(f"  {name} = {value!r} {unit}  (reported, not gated)")
    for kind in ("a", "b"):
        wall = detail.get(f"op_{kind}_wall_ms")
        if wall:
            print(f"  (wall time, op {kind}: p50 {wall['p50']:.3f} ms, p{wall['percentile']:.3g} {wall['tail']:.3f} ms)")
    for name, entry in record.get("named_metrics", {}).items():
        print(f"  {name} = {entry['value']!r} {entry['unit']}  (workload name)")
    print(f"outputs_sha256 {record['outputs_sha256']}")
    for failure in session.failures:
        print(f"FAILED {failure}")
    result = {
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
