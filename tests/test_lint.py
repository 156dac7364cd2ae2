"""tools/lint.py, the static checks that pytest does not make: it passes on
this tree from the repository root, and it names an incidence attribute read
in a source tree that has one."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def lint(root):
    return subprocess.run([sys.executable, "tools/lint.py"], cwd=root,
                          capture_output=True, text=True, check=False)


def test_lint_passes_on_the_tree():
    done = lint(ROOT)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


def test_lint_refuses_an_incidence_read(tmp_path):
    (tmp_path / "tools").mkdir()
    shutil.copy(ROOT / "tools" / "lint.py", tmp_path / "tools" / "lint.py")
    (tmp_path / "src" / "seqcolor").mkdir(parents=True)
    (tmp_path / "src" / "seqcolor" / "oracle.py").write_text("LISTS = GRAPH.incidence\n")
    done = lint(tmp_path)
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        "incidence attribute read in src (build the index where it is read): "
        "src/seqcolor/oracle.py:1"]
