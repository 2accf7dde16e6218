"""Run one benchmark workload of `ordembed` and print its metrics as JSON.

    python3 perfbench/run.py --workload corpus|embeddings \
        --seed N --seconds S --trace 0|1

Run from the repository root. The run builds the workload's inputs from the
seed, then repeats whole passes over its operations until S seconds have
been measured and the tail percentile has ten samples beyond it, in this
one process and thread. Every report is checked after the timed region.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of `layers.TARGETS` with `--trace 1`.
An operation fails when it raises or exits nonzero. See README.md in this
directory.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
TAIL_PERCENTILE = 94
MIN_OPS = math.ceil(10 * 100 / (100 - TAIL_PERCENTILE))  # ten samples beyond the tail

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
from workloads import BUILDERS  # noqa: E402


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _measure(run_report, ops, seconds: float, tracer):
    """Whole passes until `seconds` and MIN_OPS are reached; per-pass op times and first outputs."""
    passes: list[list[float]] = []
    outputs: list[str | None] = []  # reports of the first pass, None where it failed
    mismatches: list[str] = []
    snapshots = []
    failed = 0
    began = time.perf_counter()
    while len(ops) * len(passes) < MIN_OPS or time.perf_counter() - began < seconds:
        times = []
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                text, code = run_report(op.command, op.argv)
            except Exception as exc:  # an operation that raises counts as failed
                text, code = f"{type(exc).__name__}: {exc}", None
            times.append(time.perf_counter() - t0)
            if code != 0:
                print(f"{op.name}: failed ({code}): {text[:200]}", file=sys.stderr)
                failed += 1
                text = None
            if not passes:
                outputs.append(text)
            elif text is not None and outputs[i] is not None and text != outputs[i]:
                mismatches.append(f"{op.name}: report differs between passes")
        passes.append(times)
        if tracer is not None:
            snapshots.append(tracer.snapshot())
    return passes, outputs, mismatches, snapshots, failed


def _end_to_end(passes, setup_s: float, peak_kb: int) -> dict:
    op_times = [t for p in passes for t in p]
    tail = statistics.quantiles(op_times, n=100)[TAIL_PERCENTILE - 1]
    # The median over the operations of each one's median over the passes. The
    # median of the pooled samples would fall between two operations whenever
    # a pass has an even number of them, and read the extremes of both.
    p50 = statistics.median(statistics.median(times) for times in zip(*passes))
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "pass_s": {"value": statistics.median(sum(p) for p in passes), "unit": "s"},
        "op_p50_ms": {"value": p50 * 1000, "unit": "ms"},
        "op_tail_ms": {"value": tail * 1000, "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


def _per_layer(snapshots) -> tuple[dict, list]:
    """Calls in the first pass and the median self time per pass, for each target."""
    per_pass = []
    prev_calls = {t: 0 for t in layers.TARGETS}
    prev_self = {t: 0.0 for t in layers.TARGETS}
    for calls, self_s in snapshots:
        per_pass.append({t: (calls[t] - prev_calls[t], self_s[t] - prev_self[t])
                         for t in layers.TARGETS})
        prev_calls, prev_self = calls, self_s
    metrics = {}
    for t in layers.TARGETS:
        metrics[f"{t}.calls"] = {"value": per_pass[0][t][0], "unit": "count"}
        metrics[f"{t}.self_s"] = {
            "value": statistics.median(p[t][1] for p in per_pass), "unit": "s"}
    return metrics, per_pass


def main(argv=None) -> int:
    args = _parse_args(argv)
    import ordembed.cli

    workdir = WORK / f"{args.workload}-{args.seed}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    try:
        ops = BUILDERS[args.workload](workdir, random.Random(args.seed))
        tracer = None
        if args.trace:
            tracer = layers.Tracer()
            tracer.install()
        setup_s = time.perf_counter() - _START
        passes, outputs, problems, snapshots, failed = _measure(
            ordembed.cli.run_report, ops, args.seconds, tracer)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for op, text in zip(ops, outputs):
            if text is None:
                continue
            try:
                op.verify(text)
            except checks.CheckFailure as exc:
                problems.append(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    if args.trace:
        metrics, per_pass = _per_layer(snapshots)
        trace_file = WORK / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "pass_s": [sum(p) for p in passes],
            "per_pass": [{t: {"calls": c, "self_s": s} for t, (c, s) in p.items()}
                         for p in per_pass],
        }, indent=1, sort_keys=True))
    else:
        metrics = _end_to_end(passes, setup_s, peak_kb)
    result = {
        "correct": not problems,
        "attempted": len(ops) * len(passes),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
