"""Smoke test of tools/pairs.py, the paired benchmark record, on a stub
benchmark in a throwaway git repository."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Prints a bench/run.py summary whose rate is read from value.txt and
# appends the tree it runs in and its workload to a log.
STUB = """
import json, sys
from pathlib import Path
value = float(Path("value.txt").read_text())
with open({log!r}, "a") as log:
    log.write(f"{{Path.cwd()}} {{sys.argv[2]}}\\n")
print("noise")
print(json.dumps({{"correct": True, "attempted": 4, "failed": 0, "metrics": {{
    "rate": {{"value": value, "unit": "1/s"}}, "wall_s": {{"value": 1.0, "unit": "s"}}}}}}))
"""


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   check=True, capture_output=True)


def test_pairs_tool_writes_the_record(tmp_path):
    repo = tmp_path / "repo"
    (repo / "bench").mkdir(parents=True)
    # The tool compares the repository it sits in.
    (repo / "tools").mkdir()
    shutil.copy(ROOT / "tools" / "pairs.py", repo / "tools" / "pairs.py")
    log = tmp_path / "runs.log"
    (repo / "bench" / "run.py").write_text(STUB.format(log=str(log)))
    (repo / "value.txt").write_text("100")
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "bench/run.py"], "run_seconds": 3,
        "end_to_end": [{"name": "rate", "better": "higher", "bound": 0.25},
                       {"name": "wall_s", "better": "lower", "bound": 0.25}]}))
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "parent")
    (repo / "value.txt").write_text("130")
    # A workload of an earlier run stays; the ones run again are replaced.
    (repo / "BENCH_smoke.json").write_text(json.dumps({"workloads": {"z": {"kept": True}, "a": {}}}))
    done = subprocess.run(
        [sys.executable, str(repo / "tools" / "pairs.py"), "--tag", "smoke", "--seed", "5",
         "--workload", "a", "b", "--pairs", "3"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads((repo / "BENCH_smoke.json").read_text())
    assert list(record["workloads"]) == ["z", "a", "b"]
    assert record["workloads"]["z"] == {"kept": True}
    for name, workload in record["workloads"].items():
        if name == "z":
            continue
        assert workload["bench"] == f"{sys.executable} bench/run.py --workload {name} --seed 5 --seconds 3"
        pairs = workload["pairs"]
        assert [pair["first"] for pair in pairs] == ["parent", "change", "parent"]
        assert [pair["parent"]["metrics"]["rate"] for pair in pairs] == [100.0] * 3
        assert [pair["change"]["metrics"]["rate"] for pair in pairs] == [130.0] * 3
        rate, wall = workload["metrics"]["rate"], workload["metrics"]["wall_s"]
        assert rate["parent"] == {"q1": 100.0, "median": 100.0, "q3": 100.0}
        assert (rate["wins"], rate["pairs"], rate["median_gap"]) == (3, 3, 30.0)
        # Three wins in three pairs are too few pairs to claim a gain.
        assert rate["verdict"] == "within bound"
        # Ties count for neither side.
        assert (wall["wins"], wall["verdict"]) == (0, "within bound")
    # Each side runs in its own copy outside the repository, first in turn.
    runs = [line.split() for line in log.read_text().splitlines()]
    assert [(Path(tree).name, workload) for tree, workload in runs] == [
        (side, workload) for workload in "ab"
        for side in ("parent", "change", "change", "parent", "parent", "change")]
    assert len({tree for tree, _ in runs}) == 2
    assert not any(Path(tree).is_relative_to(repo) or Path(tree).exists() for tree, _ in runs)


def test_quartiles_and_verdicts():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import pairs
    finally:
        sys.path.remove(str(ROOT / "tools"))
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    metric = {"name": "wall_s", "better": "lower", "bound": 0.25}

    def runs(parent, change):
        return [{"parent": {"metrics": {"wall_s": p}}, "change": {"metrics": {"wall_s": c}}}
                for p, c in zip(parent, change)]

    # Nine wins of ten but a gap inside the parent's spread is no gain.
    assert pairs.judge(metric, runs([1.0, 2.0] * 5, [0.9, 1.9] * 4 + [1.1, 2.1]))["verdict"] == "unresolved"
    assert pairs.judge(metric, runs([1.0] * 10, [0.5] * 9 + [1.2]))["verdict"] == "gain"
    assert pairs.judge(metric, runs([1.0] * 8, [0.5] * 8))["verdict"] == "within bound"
    assert pairs.judge(metric, runs([1.0] * 4, [1.3] * 4))["verdict"] == "worse"
    assert pairs.judge(metric, runs([1.0] * 4, [1.2] * 4))["verdict"] == "within bound"
    # A parent spread wider than the bound leaves the metric unresolved,
    # whichever way the medians lean, unless every change run beats every
    # parent run.
    wide = [1.0, 2.0, 1.0, 2.0]
    assert pairs.judge(metric, runs(wide, [1.2, 2.6, 1.2, 2.6]))["verdict"] == "unresolved"
    assert pairs.judge(metric, runs(wide, [0.8, 1.1, 0.8, 1.1]))["verdict"] == "unresolved"
    assert pairs.judge(metric, runs(wide, [0.9, 0.8, 0.9, 0.8]))["verdict"] == "within bound"
