"""The package namespace and what each command imports.

``import seqcolor`` loads none of its modules; a public name is read from its
defining module on each access. Of the CLI's commands only ``oracle`` and
``sequentialize --oracle`` load the exhaustive search, and none loads
``dataclasses``, ``inspect`` or ``typing``. Import state is checked in fresh
interpreters, since this process has imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqcolor

from .test_golden_output import GOLDEN, certificate_files, digest, write_graph

# The public names, in the order __all__ lists them.
PUBLIC = [
    "ClassTwoError", "DegreeProfile", "EdgeColoring", "Graph", "GraphError",
    "MissingColorPartition", "OracleResult", "OversizeError", "PreconditionError",
    "SeqcolorError", "SequentialCertificate", "SumReport", "UnknownClassError",
    "Verdict", "bipartition_of", "biregular_set_bound", "build_graph",
    "chromatic_sum_bound", "coloring_sum", "complete_graph",
    "connected_near_regular_graphs", "degree_profile", "emit_coloring",
    "emit_edge_list", "emit_graph6", "exact_chromatic_index",
    "exact_edge_chromatic_sum", "exact_max_sequential_set",
    "generate_complete_bipartite", "generate_random_biregular",
    "generate_regular_class1", "konig_color_bipartite", "misra_gries",
    "missing_color_partition", "obtain_r_coloring", "palette", "parse_coloring",
    "parse_edge_list", "parse_graph6", "select_swap_color", "sequential_set_bound",
    "sequentialize", "sum_report", "swap_colors", "verify_certificate",
    "verify_proper", "verify_sequential",
]
SUBMODULES = ("coloring", "errors", "graph", "graph_io", "oracle", "sequential", "sums")

# Standard-library modules no command may load: the value types are plain
# classes, not dataclasses (whose module imports inspect), and annotations
# name collections.abc, not typing. Each would add to the import time of every
# fresh seqcolor process (the benchmark's setup_s).
UNWANTED = ("dataclasses", "inspect", "typing")

# Imports the package, then (with arguments) runs the CLI on them, and prints
# the seqcolor modules loaded by the bare import, whether the oracle module is
# loaded at the end, the exit code, stdout and the UNWANTED modules loaded.
CHILD = f"""
import contextlib, io, json, sys
import seqcolor
bare = sorted(name for name in sys.modules if name.startswith("seqcolor."))
from seqcolor.cli import run
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = run(sys.argv[1:]) if sys.argv[1:] else None
unwanted = [name for name in {UNWANTED!r} if name in sys.modules]
print(json.dumps([bare, "seqcolor.oracle" in sys.modules, code, out.getvalue(), unwanted]))
"""


def fresh(code, *args, flags=()):
    """Stdout of ``python flags -c code args`` in a fresh interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, *flags, "-c", code, *args], capture_output=True, text=True,
        timeout=60, env=dict(os.environ, PYTHONPATH=src), check=True,
    )
    return done.stdout


def run_fresh(*argv):
    bare, oracle_loaded, code, out, _ = json.loads(fresh(CHILD, *argv))
    assert bare == []
    return oracle_loaded, code, out


def unwanted_after(*argv, flags=()):
    """Exit code and the UNWANTED modules loaded after the CLI ran ``argv``."""
    _, _, code, _, unwanted = json.loads(fresh(CHILD, *argv, flags=flags))
    return code, unwanted


class TestImportBoundary:
    def test_cli_import_loads_no_oracle(self):
        assert run_fresh() == (False, None, "")

    @pytest.mark.parametrize("case, command, extra, graph", [
        ("color-minus-r4", "color", [], "minus-matching-r4"),
        ("seq-text-swap", "sequentialize", [], "minus-matching-r3-swap"),
        ("seq-report-swap", "sequentialize", ["--report"], "minus-matching-r3-swap"),
        ("gen-complete-bipartite-3-4", "generate", ["complete-bipartite", "3", "4"], None),
        ("oracle-report-union-8-3", "oracle", ["--report"], "union-8-3"),
        ("seq-oracle-union-8-3", "sequentialize", ["--report", "--oracle"], "union-8-3"),
    ])
    def test_golden_commands(self, case, command, extra, graph, tmp_path):
        inputs = [write_graph(tmp_path, graph, False)] if graph else []
        oracle_loaded, code, out = run_fresh(command, *extra, *inputs)
        assert (code, digest(out)) == GOLDEN[case]
        assert oracle_loaded == (command == "oracle" or "--oracle" in extra)

    def test_verify(self, tmp_path, capsys):
        files = certificate_files(tmp_path, "union-10-4", capsys)
        oracle_loaded, code, out = run_fresh("verify", *files)
        assert (code, digest(out)) == GOLDEN["verify-union-10-4-intact"]
        assert not oracle_loaded

    def test_bound(self):
        assert run_fresh("bound", "15", "6", "3") == (
            False, 0, "sequential-set bound: 9\nbiregular form:       9\n"
                      "chromatic-sum bound:  37\n")


class TestStdlibImports:
    # A site hook (a .pth file) may import typing before the CLI starts, so
    # typing is checked only under -S, which skips site.
    @pytest.mark.parametrize("flags", [(), ("-S",)], ids=["site", "no-site"])
    @pytest.mark.parametrize("command, extra, graph", [
        (None, [], None),
        ("generate", ["complete-bipartite", "3", "4"], None),
        ("color", [], "minus-matching-r4"),
        ("sequentialize", ["--report"], "minus-matching-r3-swap"),
        ("verify", [], "union-10-4"),
        ("bound", ["15", "6", "3"], None),
        ("oracle", ["--report"], "union-8-3"),
    ], ids=["import", "generate", "color", "sequentialize-report", "verify", "bound", "oracle-report"])
    def test_no_dataclasses_inspect_or_typing(self, flags, command, extra, graph, tmp_path, capsys):
        if command == "verify":
            inputs = certificate_files(tmp_path, graph, capsys)
        else:
            inputs = [write_graph(tmp_path, graph, False)] if graph else []
        argv = [command, *extra, *inputs] if command else []
        code, unwanted = unwanted_after(*argv, flags=flags)
        assert code == (0 if command else None)
        assert [name for name in unwanted if flags or name != "typing"] == []


class TestNamespace:
    def test_all(self):
        assert seqcolor.__all__ == PUBLIC

    def test_star_import(self):
        names = {}
        exec("from seqcolor import *", names)
        assert set(names) - {"__builtins__"} == set(PUBLIC)

    def test_dir_lists_public_names_and_submodules(self):
        assert set(PUBLIC) | set(SUBMODULES) <= set(dir(seqcolor))

    @pytest.mark.parametrize("name", PUBLIC)
    def test_name_is_read_from_its_module(self, name, monkeypatch):
        value = getattr(seqcolor, name)
        module = sys.modules[value.__module__]
        assert module.__name__ != "seqcolor" and getattr(module, name) is value
        assert name not in vars(seqcolor)
        patched = object()
        monkeypatch.setattr(module, name, patched)
        assert getattr(seqcolor, name) is patched

    def test_submodules_after_bare_import(self):
        code = (
            "import sys, seqcolor\n"
            "print(seqcolor.graph.build_graph.__module__, "
            "seqcolor.oracle.exact_edge_chromatic_sum.__module__, "
            f"all(getattr(seqcolor, m) is sys.modules['seqcolor.' + m] for m in {SUBMODULES!r}))"
        )
        assert fresh(code) == "seqcolor.graph seqcolor.oracle True\n"

    def test_unknown_name(self):
        with pytest.raises(AttributeError) as info:
            seqcolor.nope
        assert str(info.value) == "module 'seqcolor' has no attribute 'nope'"
