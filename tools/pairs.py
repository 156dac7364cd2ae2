"""Paired benchmark runs of the current commit and the working tree.

Usage, from the repository root:

    python3 tools/pairs.py --tag onepass --seed 17 --workload bulk-biregular --pairs 10

It copies the commit HEAD (``git archive``) and the working tree (the
files git tracks or would track, as they are on disk) into ``parent/`` and
``change/`` under one fresh temporary directory outside the repository: the
directory a tree runs from moves the benchmark's ``setup_s``, so both copies
get paths of the same length. For each workload it then runs the command of
``BENCHMARK.json`` with ``--workload W --seed S --seconds T`` (T its
``run_seconds``) in each copy, ``--pairs`` times, alternating which side runs
first, and reads each run's JSON summary from its last line of output.

``BENCH_<tag>.json`` in the repository root holds, per workload (a workload
already in the file is replaced, the others kept), the command, every pair
and, per end-to-end metric of ``BENCHMARK.json``: each side's median and
quartiles, the change's wins (ties count for neither), the median gap in the
better direction against the parent's interquartile range, and a verdict.
"gain" means at least ten pairs, the change winning nine in ten or more,
and a median better by more than the parent's interquartile range.
Otherwise, when the parent's own interquartile range is wider than the
metric's bound, "unresolved" unless every change run beats every parent
run; else "worse" when the change's median is worse than the parent's by
more than the bound; and "within bound" in the remaining cases. The record
also notes the ``PYTHONHASHSEED`` the runs inherited.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, **kwargs)


def copy_parent(revision: str, dest: Path) -> None:
    dest.mkdir()
    archive = git("archive", "--format=tar", revision).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def copy_working_tree(dest: Path) -> None:
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").stdout
    for name in sorted(set(listed.decode().split("\0")) - {""}):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted on disk is not copied
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run_bench(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its exit code, calls attempted and
    failed, and each end-to-end metric's value."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(argv)} in {tree} printed nothing: {done.stderr[-2000:]}")
    summary = json.loads(lines[-1])
    return {
        "exit_code": done.returncode,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: entry["value"] for name, entry in summary["metrics"].items()},
    }


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def judge(metric: dict, pairs: list[dict]) -> dict:
    """Both sides' quartiles, the change's wins and the verdict on one
    end-to-end ``metric`` (a ``BENCHMARK.json`` entry) over ``pairs``."""
    name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
    parent = [pair["parent"]["metrics"][name] for pair in pairs]
    change = [pair["change"]["metrics"][name] for pair in pairs]
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    sides = {"parent": quartiles(parent), "change": quartiles(change)}
    gap = sign * (sides["change"]["median"] - sides["parent"]["median"])
    parent_iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
    base = abs(sides["parent"]["median"])
    if len(pairs) >= 10 and 10 * wins >= 9 * len(pairs) and gap > parent_iqr:
        verdict = "gain"
    elif parent_iqr > metric["bound"] * base:
        # A spread wider than the bound hides a change unless the change's
        # worst run beats the parent's best.
        beats = min(sign * c for c in change) > max(sign * p for p in parent)
        verdict = "within bound" if beats else "unresolved"
    elif -gap > metric["bound"] * base:
        verdict = "worse"
    else:
        verdict = "within bound"
    return {
        "better": metric["better"],
        "bound": metric["bound"],
        **sides,
        "wins": wins,
        "pairs": len(pairs),
        "median_gap": gap,
        "median_gap_ratio": gap / base if base else None,
        "parent_iqr": parent_iqr,
        "verdict": verdict,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True, help="the record is written to BENCH_<tag>.json")
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    parent_sha = git("rev-parse", "HEAD", text=True).stdout.strip()
    output = ROOT / f"BENCH_{args.tag}.json"
    record = json.loads(output.read_text()) if output.exists() else {"workloads": {}}
    command = "python3 tools/pairs.py " + " ".join(sys.argv[1:] if argv is None else argv)
    with tempfile.TemporaryDirectory(prefix="seqcolor-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        copy_parent(parent_sha, trees["parent"])
        copy_working_tree(trees["change"])
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_bench(trees[side], spec["command"], workload, args.seed, seconds)
                pairs.append(pair)
                print(f"{workload} pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
            metrics = {metric["name"]: judge(metric, pairs) for metric in spec["end_to_end"]}
            record["workloads"][workload] = {
                "command": command,
                "parent": f"HEAD ({parent_sha})",
                "change": "the working tree",
                "bench": f"{' '.join(spec['command'])} --workload {workload} --seed {args.seed} "
                         f"--seconds {seconds}",
                "python": platform.python_version(),
                "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
                "pairs": pairs,
                "metrics": metrics,
            }
            print(f"{workload} ({args.pairs} pairs; failed calls: parent "
                  f"{sum(p['parent']['failed'] for p in pairs)}, change "
                  f"{sum(p['change']['failed'] for p in pairs)})")
            for name, m in metrics.items():
                print(f"  {name:24s} parent {m['parent']['median']:.6g} "
                      f"[{m['parent']['q1']:.6g}, {m['parent']['q3']:.6g}]  change "
                      f"{m['change']['median']:.6g} [{m['change']['q1']:.6g}, {m['change']['q3']:.6g}]"
                      f"  wins {m['wins']}/{m['pairs']}  {m['verdict']}")
            # Written per workload, so a cut run keeps the workloads it finished.
            output.write_text(json.dumps(record, indent=2) + "\n")
            print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
