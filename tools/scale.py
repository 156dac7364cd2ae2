"""Scale record for seqcolor: ``sequentialize --report`` on large inputs.

Usage, from the repository root:

    python3 tools/scale.py --label change --output BENCH_scale.json

For each ``--k`` it writes ``seqcolor generate biregular 3 k --seed 1``
(6k edges) to a temporary file, then runs ``seqcolor sequentialize --report``
on it ``RUNS`` (2) times, each in a fresh interpreter that imports seqcolor
from ``--src``. Per size it records the best wall time of the whole process
(interpreter start included), the least VmHWM (the peak resident set the
child reads from its own /proc/self/status), both per edge, the exit code and
the sha256 of the output. The numbers are a record, not a gate.

With ``--output`` the row is stored under ``--label`` in that JSON file,
replacing a row of the same label; the row is printed either way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_K = (4000, 40000, 200000)
RUNS = 2

# Runs the CLI on argv with stdout as given, then writes its own VmHWM (kB)
# to stderr's last line: a fresh child's ru_maxrss would also count the
# process it was forked from.
CHILD = """
import sys
from seqcolor import cli
code = cli.run(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as status:
    hwm = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(code, hwm, file=sys.stderr)
"""


def run_child(src: Path, argv: list[str], stdout) -> tuple[int, int, float]:
    """Exit code, VmHWM in kB and wall seconds of one fresh interpreter
    running the CLI on ``argv``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=1800, check=False)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"child failed on {argv}: {done.stderr.strip()}")
    code, hwm = done.stderr.split("\n")[-2].split()
    return int(code), int(hwm), wall


def measure(src: Path, k: int, workdir: Path) -> dict:
    graph = workdir / f"biregular-3-{k}.txt"
    with open(graph, "w") as handle:
        code, _, _ = run_child(src, ["generate", "biregular", "3", str(k), "--seed", "1"], handle)
    if code:
        raise RuntimeError(f"generate exited {code} at k={k}")
    edges = int(graph.read_text().split(None, 2)[1])
    walls, peaks, digests, codes = [], [], set(), set()
    output = workdir / "out.jsonl"
    for _ in range(RUNS):
        with open(output, "w") as handle:
            code, hwm, wall = run_child(src, ["sequentialize", "--report", str(graph)], handle)
        walls.append(wall)
        peaks.append(hwm * 1024)
        codes.add(code)
        digests.add(hashlib.sha256(output.read_bytes()).hexdigest())
    if len(digests) != 1 or len(codes) != 1:
        raise RuntimeError(f"runs at k={k} disagree: exit codes {codes}, digests {digests}")
    peak = min(peaks)
    return {
        "k": k,
        "edges": edges,
        "exit_code": codes.pop(),
        "wall_s": min(walls),
        "us_per_edge": min(walls) / edges * 1e6,
        "vmhwm_mib": peak / 2**20,
        "bytes_per_edge": peak / edges,
        "sha256": digests.pop(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--k", type=int, nargs="+", default=list(DEFAULT_K),
                        help="biregular size parameters (6k edges each)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the source directory to import seqcolor from")
    parser.add_argument("--label", default="change", help="the row's name in --output")
    parser.add_argument("--output", type=Path, help="JSON file to store the row in")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sizes = [measure(args.src.resolve(), k, Path(tmp)) for k in args.k]
    row = {
        "label": args.label,
        "runs": RUNS,
        "python": platform.python_version(),
        "sizes": sizes,
    }
    print(json.dumps(row, indent=2))
    if args.output:
        record = json.loads(args.output.read_text()) if args.output.exists() else {}
        record.setdefault("command", "python3 tools/scale.py --label <label> --output <file>")
        rows = [r for r in record.get("rows", []) if r["label"] != args.label]
        record["rows"] = rows + [row]
        args.output.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
