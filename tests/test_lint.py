"""tools/lint.py, the static checks that pytest does not make: it passes on
this tree from the repository root, and it names an incidence attribute read,
a ``__debug__`` or ``sys.flags`` read, or a function that two test modules
define, in a tree that has one."""

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


def lint_tree(root, files):
    """tools/lint.py on a tree holding only ``files``, a mapping of paths
    to texts."""
    (root / "tools").mkdir()
    shutil.copy(ROOT / "tools" / "lint.py", root / "tools" / "lint.py")
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return lint(root)


def test_lint_refuses_an_incidence_read(tmp_path):
    done = lint_tree(tmp_path, {"src/seqcolor/oracle.py": "LISTS = GRAPH.incidence\n"})
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        "incidence attribute read in src (build the index where it is read): "
        "src/seqcolor/oracle.py:1"]


def test_lint_refuses_reads_that_python_O_changes(tmp_path):
    done = lint_tree(tmp_path, {"src/seqcolor/oracle.py": (
        "from sys import flags\nif __debug__:\n    OPTIMIZE = sys.flags.optimize or flags\n")})
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        f"__debug__ or sys.flags read in src (python -O changes it): src/seqcolor/oracle.py:{line}"
        for line in (1, 2, 3)]


def test_lint_refuses_a_function_that_two_test_modules_define(tmp_path):
    family = "def scrambled(rng, edges):\n    return edges\n"
    done = lint_tree(tmp_path, {"tests/test_a.py": family, "tests/test_b.py": "\n" + family,
                                "tests/test_c.py": "class T:\n    " + family.replace("\n", "\n    ")})
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        "function defined in more than one tests module (define it once in tests/conftest.py): "
        "scrambled: tests/test_a.py:1, tests/test_b.py:2"]
