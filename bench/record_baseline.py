"""Measure the baseline and write ``bench/baseline.json``.

Run from the repository root:

    python3 bench/record_baseline.py --seeds 10 --seconds 20

For every workload it makes ``--seeds`` untraced runs (seeds 1..N) and one
traced run (seed 1), one after the other. It records each end-to-end
metric's median and its spread (the distance between the first and third
quartiles as a share of the median), both as reported (clock-scaled) and
from the unscaled wall times of the same runs, the per-layer metrics and each layer's
share of the traced self time, the map from per-layer to end-to-end metrics,
and the findings later changes rely on, each checked against the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Which end-to-end metric, on which workload, each per-layer metric should move.
LAYER_MAP = {
    "graph_io.parse_edge_list.self_s": "certified_edges_per_s, verify_edges_per_s on bulk-biregular",
    "graph_io.parse_graph6.self_s": "latency_p50_s on small-mixed",
    "graph.build_graph.self_s": "certified_edges_per_s, verify_edges_per_s on bulk-biregular",
    "graph.degree_profile.self_s": "certified_edges_per_s on bulk-biregular",
    "graph.degree_profile.calls_per_instance": "certified_edges_per_s on bulk-biregular",
    "graph.bipartition_of.self_s": "certified_edges_per_s on bulk-biregular and nonbipartite",
    "coloring.konig_color_bipartite.self_s": "certified_edges_per_s on bulk-biregular",
    "coloring.misra_gries.self_s": "decided_ratio, certified_edges_per_s on nonbipartite",
    "coloring.misra_accept_ratio": "decided_ratio, certified_edges_per_s on nonbipartite",
    "coloring.exact_chromatic_index.self_s": "wall_s on exhaustive, latency_p90_s on small-mixed",
    "coloring.exact_chromatic_index.calls": "wall_s on exhaustive, latency_p90_s on small-mixed",
    "coloring.verify_proper.self_s": "certified_edges_per_s, verify_edges_per_s on bulk-biregular",
    "coloring.verify_proper.calls_per_instance": "certified_edges_per_s on bulk-biregular",
    "coloring.palette.calls": "certified_edges_per_s, verify_edges_per_s on bulk-biregular",
    "coloring.parse_coloring.self_s": "verify_edges_per_s on every workload",
    "coloring.acquire.*": "decided_ratio on nonbipartite and small-mixed",
    "sequential.missing_color_partition.self_s": "certified_edges_per_s on bulk-biregular",
    "sequential.verify_sequential.self_s": "certified_edges_per_s, verify_edges_per_s on bulk-biregular",
    "sequential.swap_colors.self_s": "none predicted (no Konig coloring has needed the swap)",
    "sequential.swapped_ratio": "none predicted",
    "sums.sum_report.self_s": "certified_edges_per_s on bulk-biregular",
    "sums.coloring_sum.self_s": "certified_edges_per_s on bulk-biregular",
    "oracle.exact_edge_chromatic_sum.self_s": "wall_s, latency_p90_s on exhaustive",
    "oracle.sum_nodes": "wall_s, latency_p90_s on exhaustive",
    "oracle.exact_max_sequential_set.self_s": "wall_s, latency_p90_s on exhaustive",
    "oracle.seq_nodes": "wall_s, latency_p90_s on exhaustive",
    "oracle.nodes_per_s": "wall_s, latency_p90_s on exhaustive",
    "oracle.census.self_s": "wall_s on exhaustive",
    "oracle.census_classes": "wall_s on exhaustive (fixed at 89)",
    "oracle.census_build_calls": "wall_s on exhaustive",
    "oracle.census_yield_ratio": "wall_s on exhaustive",
    "cli.run.self_s": "latency_p50_s on small-mixed, certified_edges_per_s on bulk-biregular",
    "cli.output_bytes": "certified_edges_per_s on bulk-biregular",
    "trace.overhead_ratio": "none: traced and untraced pass time, per workload",
    "trace.unattributed_s": "none: time in timed calls outside every span (capture and redirection)",
}


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result line of one run and, untraced, its unscaled metrics."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    unscaled = next((json.loads(line.split(" ", 1)[1]) for line in lines
                     if line.startswith("unscaled ")), {})
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']}", flush=True)
    return result, unscaled


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {"seeds": list(range(1, args.seeds + 1)), "seconds": args.seconds, "workloads": {},
           "layer_map": LAYER_MAP}
    for entry in spec["workloads"]:
        name = entry["name"]
        runs, unscaled = map(list, zip(*(run(name, seed, args.seconds, 0) for seed in out["seeds"])))
        traced, _ = run(name, 1, args.seconds, 1)
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        self_total = sum(v for k, v in layer.items() if k.endswith(".self_s")) + layer["trace.unattributed_s"]
        shares = {
            module: round(sum(v for k, v in layer.items()
                              if k.startswith(module + ".") and k.endswith(".self_s")) / self_total, 4)
            for module in LAYERS
        }
        shares["unattributed"] = round(layer["trace.unattributed_s"] / self_total, 4)
        out["workloads"][name] = {
            "why": entry["why"],
            "correct": all(r["correct"] for r in runs + [traced]),
            "failed_ratio": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "end_to_end": {
                metric: {"median": statistics.median(r["metrics"][metric]["value"] for r in runs),
                         "spread": round(spread([r["metrics"][metric]["value"] for r in runs]), 4),
                         "unscaled_median": statistics.median(u[metric] for u in unscaled),
                         "unscaled_spread": round(spread([u[metric] for u in unscaled]), 4),
                         "unit": runs[0]["metrics"][metric]["unit"]}
                for metric in runs[0]["metrics"]
            },
            "per_layer_seed1": layer,
            "self_time_shares": shares,
        }
    layers = {name: w["per_layer_seed1"] for name, w in out["workloads"].items()}
    out["findings"] = {
        "swapped_ratio per workload": {
            name: w["sequential.swapped_ratio"] for name, w in layers.items()},
        "degree_profile calls per sequentialize call on bulk-biregular (all certified)":
            layers["bulk-biregular"]["graph.degree_profile.calls_per_instance"],
        "misra_accept_ratio on nonbipartite": layers["nonbipartite"]["coloring.misra_accept_ratio"],
        "acquisition paths per pass on nonbipartite": {
            path: layers["nonbipartite"][f"coloring.acquire.{path}"]
            for path in ("konig", "misra", "exact", "undecided", "class_two")},
        "decided_ratio on nonbipartite": out["workloads"]["nonbipartite"]["end_to_end"][
            "decided_ratio"]["median"],
    }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps(out["findings"], indent=1))


if __name__ == "__main__":
    main()
