"""Self-test of the benchmark's verdicts at smoke size.

Run from the repository root: ``python3 bench/selftest.py``. It runs a few
tiny graphs through the real CLI, then replays the CLI with doctored output
and asserts the tally: a recolored edge and a certified vertex that is not
sequential must count as failed, and exit 4 on a Class-1 input as undecided.
Exits non-zero on the first wrong verdict.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402


def smoke_instances() -> list[gen.Instance]:
    rng = random.Random(0)
    return [
        gen.biregular(rng, 3, 4, "biregular"),
        gen.bipartite_minus_matching(rng, 4, 8, 3, "regular-minus", "graph6"),
        gen.matching_union(rng, 10, 3, 2, "union"),
    ]


def recolor_one_edge(stdout: str) -> str:
    cert, rest = stdout.split("\n", 1)
    record = json.loads(cert)
    u, v, c = record["coloring"][0].split()
    record["coloring"][0] = f"{u} {v} {int(c) % record['t'] + 1}"
    return json.dumps(record, separators=(",", ":")) + "\n" + rest


def add_non_sequential_vertex(stdout: str) -> str:
    cert, rest = stdout.split("\n", 1)
    record = json.loads(cert)
    colors = check.parse_lines(record["coloring"], record["t"])
    edges = list(colors)
    n = record["n"]
    good = check.sequential_vertices(n, edges, colors)
    outsider = min(set(range(n)) - good)
    record["sequential_vertices"] = sorted(record["sequential_vertices"] + [outsider])
    record["size"] += 1
    return json.dumps(record, separators=(",", ":")) + "\n" + rest


def run(instances, doctor=None) -> workloads.Tally:
    """One pass with the CLI's sequentialize output passed through ``doctor``."""
    real = workloads.run_cli

    def patched(argv):
        if doctor is None or argv[0] != "sequentialize":
            return real(argv)
        return doctor(argv, real)

    workdir = Path(tempfile.mkdtemp(dir=HERE.parent / ".bench_work"))
    workloads.run_cli = patched
    try:
        return workloads.Runner("small-mixed", 0, workdir, instances=instances).run_pass()
    finally:
        workloads.run_cli = real
        shutil.rmtree(workdir, ignore_errors=True)


def rewriting(transform):
    def doctor(argv, real):
        import contextlib
        import io

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = real(argv)
        print(transform(buffer.getvalue()), end="")
        return code

    return doctor


def expect(label: str, tally: workloads.Tally, failed: int, undecided: int) -> bool:
    ok = tally.failed == failed and tally.outcomes["undecided"] == undecided
    print(f"{'ok  ' if ok else 'FAIL'} {label}: failed {tally.failed} (want {failed}), "
          f"undecided {tally.outcomes['undecided']} (want {undecided})")
    return ok


def main() -> int:
    (HERE.parent / ".bench_work").mkdir(exist_ok=True)
    instances = smoke_instances()
    count = len(instances)
    results = [
        expect("unchanged output", run(instances), 0, 0),
        expect("one edge recolored", run(instances, rewriting(recolor_one_edge)), count, 0),
        expect("non-sequential vertex certified",
               run(instances, rewriting(add_non_sequential_vertex)), count, 0),
        expect("exit 4 on Class-1 input", run(instances, lambda argv, real: 4), 0, count),
    ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
