"""Benchmark for seqcolor: one workload per run, one client, one process.

Usage, from the repository root:

    python3 bench/run.py --workload bulk-biregular --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed``; the job list then runs
in whole passes, at least MIN_PASSES and then as many as fit in
``--seconds``. Every output is checked, and the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``, with times scaled to
a reference machine speed (see ``workloads.Clock``), and on the line before
the same metrics from the unscaled wall times; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("bulk-biregular", "small-mixed", "nonbipartite", "exhaustive")
SETUP_RUNS = 15
MIN_PASSES = 3
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import seqcolor, seqcolor.cli; "
    "print(time.perf_counter() - t)"
)


# The child reports VmHWM, the peak of its own address space since exec: its
# ru_maxrss would also count the benchmark process it was forked from.
MEMORY_CHILD = """
import contextlib, os, sys
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    if sys.argv[1] == "census":
        from seqcolor import connected_near_regular_graphs
        list(connected_near_regular_graphs(int(sys.argv[2])))
    else:
        from seqcolor import cli
        cli.run(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def child(code: str, *args: str) -> str:
    """Stdout of a fresh interpreter running ``code`` against the sources."""
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout


def measure_setup() -> tuple[float, float]:
    """Median seconds a fresh interpreter spends importing seqcolor and its
    CLI, scaled by the clock and as measured.

    One unmeasured import first writes the bytecode cache, as the first CLI
    call after installing would.
    """
    child(IMPORT_TIMER)
    clock = workloads.Clock()
    scaled, wall = [], []
    for _ in range(SETUP_RUNS):
        before = clock.factor()
        wall.append(float(child(IMPORT_TIMER)))
        scaled.append(wall[-1] * (before + clock.factor()) / 2)
    return statistics.median(scaled), statistics.median(wall)


def measure_peak_rss(jobs: list[list[str]]) -> float:
    """Peak resident MB of a fresh seqcolor process, over the workload's
    heaviest jobs, each run once in its own interpreter (whose footprint the
    figure includes)."""
    return max(int(child(MEMORY_CHILD, *argv)) for argv in jobs) / 1024


def percentile(samples: list[float], p: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def rate(calls, kind: str) -> float:
    """Credited edges per second over the calls of one kind."""
    chosen = [(seconds, edges) for k, seconds, edges in calls if k == kind]
    return sum(e for _, e in chosen) / sum(s for s, _ in chosen)


def end_to_end(tallies, setup_s: float, peak_rss_mb: float, wall: bool = False) -> dict:
    """Metrics over each call's median time across the passes, which make the
    same calls in the same order: their sum for wall_s, and per kind of call
    for the rates and the latency quantiles.

    Times are the clock-scaled ones (see workloads.Clock), or with ``wall``
    the unscaled wall times of the same calls.
    """
    at = 3 if wall else 1
    calls = [(row[0][0], statistics.median(call[at] for call in row), row[0][2])
             for row in zip(*(t.calls for t in tallies))]
    latencies = [seconds for kind, seconds, _ in calls if kind == "primary"]
    return {
        "setup_s": setup_s,
        "wall_s": sum(seconds for _, seconds, _ in calls),
        "certified_edges_per_s": rate(calls, "primary"),
        "verify_edges_per_s": rate(calls, "verify"),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": percentile(latencies, 90),
        "decided_ratio": sum(t.decided for t in tallies) / sum(t.instances for t in tallies),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(traced, untraced, tracer) -> dict:
    k = len(traced)
    summary = tracer.summary()
    self_s = summary["self_s"]
    calls = summary["calls"]
    counts = summary["counts"]
    pipeline = summary["pipeline_calls"]
    instances = calls.get("sequential.sequentialize", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    names = [f"{layer}.{f}" for layer, fns in spans.SPANNED.items() for f in fns] + [spans.CENSUS]
    metrics = {f"{name}.self_s": self_s.get(name, 0.0) / k for name in names}
    metrics["graph.degree_profile.calls_per_instance"] = ratio(
        pipeline.get("graph.degree_profile", 0), instances)
    metrics["coloring.verify_proper.calls_per_instance"] = ratio(
        pipeline.get("coloring.verify_proper", 0), instances)
    metrics["coloring.exact_chromatic_index.calls"] = calls.get("coloring.exact_chromatic_index", 0) / k
    metrics["coloring.palette.calls"] = counts.get("coloring.palette.calls", 0) / k
    metrics["coloring.misra_accept_ratio"] = ratio(
        counts.get("misra.accepted", 0), counts.get("misra.attempted", 0))
    for path in ("konig", "misra", "exact", "undecided", "class_two"):
        metrics[f"coloring.acquire.{path}"] = counts.get(f"acquire.{path}", 0) / k
    metrics["sequential.swapped_ratio"] = ratio(counts.get("swap.swapped", 0), counts.get("swap.calls", 0))
    sum_nodes = counts.get("oracle.sum_nodes", 0)
    seq_nodes = counts.get("oracle.seq_nodes", 0)
    metrics["oracle.sum_nodes"] = sum_nodes / k
    metrics["oracle.seq_nodes"] = seq_nodes / k
    oracle_s = sum(summary["total_s"].get(f"oracle.{f}", 0.0)
                   for f in ("exact_edge_chromatic_sum", "exact_max_sequential_set"))
    metrics["oracle.nodes_per_s"] = ratio(sum_nodes + seq_nodes, oracle_s)
    classes = counts.get("census.classes", 0)
    metrics["oracle.census_classes"] = classes / k
    metrics["oracle.census_build_calls"] = summary["census_build_calls"] / k
    metrics["oracle.census_yield_ratio"] = ratio(classes, summary["census_build_calls"])
    metrics["cli.output_bytes"] = sum(t.output_bytes for t in untraced) / len(untraced)
    metrics["trace.overhead_ratio"] = (
        statistics.median(t.wall_s for t in traced) / statistics.median(t.wall_s for t in untraced))
    metrics["trace.unattributed_s"] = (sum(t.raw_wall_s for t in traced) - summary["root_s"]) / k
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "seqcolor" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no seqcolor sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    import seqcolor

    if Path(seqcolor.__file__).resolve().parent != SRC / "seqcolor":
        print(f"error: imported seqcolor from {seqcolor.__file__}, not {SRC}", file=sys.stderr)
        return 2
    setup_s, setup_wall_s = measure_setup()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = workloads.Runner(args.workload, args.seed, workdir)
        peak_rss_mb = measure_peak_rss(runner.memory_jobs())
        print(f"{args.workload}: {len(runner.instances)} generated inputs in "
              f"{runner.generate_s:.2f} s (seed {args.seed}); import {setup_s * 1e3:.1f} ms; "
              f"peak RSS {peak_rss_mb:.1f} MB")
        untraced, traced = [], []
        tracer = spans.Tracer()
        start = time.perf_counter()
        last = 0.0
        while True:
            short = len(untraced) < MIN_PASSES or (args.trace and len(traced) < MIN_PASSES)
            # Another pass only if it, taking as long as the last, ends in time.
            if not short and time.perf_counter() - start + last > args.seconds:
                break
            began = time.perf_counter()
            if args.trace and len(traced) < len(untraced):
                tracer.install()
                try:
                    traced.append(runner.run_pass(tracer))
                finally:
                    tracer.remove()
            else:
                untraced.append(runner.run_pass())
            last = time.perf_counter() - began
        if args.trace:
            spans_path = ROOT / ".bench_work" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tallies = untraced + traced
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for t in tallies:
        for failure in t.failures:
            print(f"FAILED {failure}")
    if len({tuple(call[0] for call in t.calls) for t in tallies}) > 1:
        # A deterministic program makes the same calls in every pass.
        failed += 1
        print("FAILED passes made different sequences of calls")
    outcomes = sum((t.outcomes for t in tallies), start=Counter())
    instances = sum(t.instances for t in tallies)
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; latency samples: "
          f"{untraced[0].instances}, each a median of {len(untraced)} passes; verdicts {dict(outcomes)}; "
          f"failed_ratio {failed / attempted:.4f} ({failed}/{attempted} calls); "
          f"decided_ratio {outcomes['decided'] / instances:.4f} ({outcomes['decided']}/{instances})")
    if args.trace:
        values = per_layer(traced, untraced, tracer)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        listed = spec["per_layer"]
    else:
        values = end_to_end(untraced, setup_s, peak_rss_mb)
        # The same calls' wall times, unscaled, for comparison with the clock.
        print("unscaled " + json.dumps(end_to_end(untraced, setup_wall_s, peak_rss_mb, wall=True)))
        listed = spec["end_to_end"]
    metrics = {}
    for entry in listed:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        print(f"  {entry['name']:45s} {values[entry['name']]:.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
