"""tools/lint.py, the static checks that pytest does not make: it passes on
this tree from the repository root, and it names an incidence attribute read,
or a ``__debug__`` or ``sys.flags`` read, in a source tree that has one."""

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


def lint_source(root, text):
    """tools/lint.py on a tree whose one source file, oracle.py, is ``text``."""
    (root / "tools").mkdir()
    shutil.copy(ROOT / "tools" / "lint.py", root / "tools" / "lint.py")
    (root / "src" / "seqcolor").mkdir(parents=True)
    (root / "src" / "seqcolor" / "oracle.py").write_text(text)
    return lint(root)


def test_lint_refuses_an_incidence_read(tmp_path):
    done = lint_source(tmp_path, "LISTS = GRAPH.incidence\n")
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        "incidence attribute read in src (build the index where it is read): "
        "src/seqcolor/oracle.py:1"]


def test_lint_refuses_reads_that_python_O_changes(tmp_path):
    done = lint_source(tmp_path, "from sys import flags\n"
                                 "if __debug__:\n"
                                 "    OPTIMIZE = sys.flags.optimize or flags\n")
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        f"__debug__ or sys.flags read in src (python -O changes it): src/seqcolor/oracle.py:{line}"
        for line in (1, 2, 3)]
