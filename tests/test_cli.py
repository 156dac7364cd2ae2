"""What the CLI table cannot express.

Every fixed run of the CLI (one argv, one input, its exit code and output)
is a row of ``ROWS`` in tests/test_golden_output.py, which runs under
``python`` and ``python -O``. This module keeps the rest: runs with a
monkeypatched library, in-process state (the parser built once, the paused
collector and the garbage it must not hold), the argv reader against
argparse, help and usage text against tests/reference.py, a hypothesis
differential of ``verify``, and a fresh interpreter's real stdin. Two fixed
runs stay here because a row cannot state them: ``test_output_file`` reads
the file that ``-o`` writes, and ``test_reports_byte_identical`` runs the
same command twice in one process. Six more are in-process twins of rows,
each checking its run's key line in this process: ``test_graph6_format``
(``gen-regular-class1-3-complete-g6``), ``test_k4_human`` and
``test_stdin`` (``seq-text-k4``), ``test_parse_error_exit[stdin]``
(``not-utf8``), and ``TestVerify``'s ``test_roundtrip_ok`` and
``test_tampered_color`` (the ``verify-*-intact`` and ``verify-*-clash``
rows).
"""

import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from seqcolor import (
    Verdict,
    build_graph,
    complete_graph,
    emit_edge_list,
    generate_complete_bipartite,
    emit_coloring,
    parse_edge_list,
    palette,
    sequentialize,
    verify_sequential,
)
from seqcolor import oracle as oracle_module
from seqcolor.cli import COMMANDS, _read_args, build_parser, run

from .conftest import class_one_near_regular, petersen_graph
from .reference import assignment_of, coloring_of, reference_parser
from .test_golden_output import ROWS, certificate_files, digest, write_graph


def reference_verify(g, coloring, vertices):
    """`seqcolor verify`'s stdout and exit code, from per-vertex counting and
    :func:`palette`."""
    assignment = assignment_of(coloring)
    missing = [e for e in g.edges if e not in assignment]
    if missing:
        return f"coverage mismatch: coloring does not cover {len(missing)} edge(s), e.g. {missing[:3]}\n", 1
    extra = [e for e in assignment if e not in g.edge_set]
    if extra:
        return f"coverage mismatch: coloring names {len(extra)} edge(s) not in the graph, e.g. {extra[:3]}\n", 1
    lines = []
    for v in g.vertices:
        counts = Counter(c for (a, b), c in assignment.items() if v in (a, b))
        lines.extend(f"clash: color {c} repeats at vertex {v}" for c in sorted(counts) if counts[c] > 1)
    if lines:
        return "".join(line + "\n" for line in lines), 1
    lines.append("proper: ok")
    failures = reference_sequential_failures(g, coloring, vertices)
    lines.extend(f"not sequential at vertex {v}" for v in failures)
    if not failures:
        noun = "vertex" if len(vertices) == 1 else "vertices"
        lines.append(f"sequential: ok on {len(vertices)} {noun}")
    return "".join(line + "\n" for line in lines), 1 if failures else 0


def reference_sequential_failures(g, coloring, vertices):
    return tuple(v for v in vertices
                 if palette(g, coloring, v) != frozenset(range(1, sum(v in e for e in g.edges) + 1)))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def k23_file(tmp_path):
    return write(tmp_path, "k23.txt", emit_edge_list(generate_complete_bipartite(2, 3)))


@pytest.fixture
def k4_file(tmp_path):
    return write(tmp_path, "k4.txt", emit_edge_list(complete_graph(4)))


@pytest.fixture
def petersen_file(tmp_path):
    return write(tmp_path, "petersen.txt", emit_edge_list(petersen_graph()))


class TestGenerate:
    def test_graph6_format(self, capsys):
        assert run(["generate", "regular-class1", "3", "--complete", "--format", "graph6"]) == 0
        assert capsys.readouterr().out.strip() == "C~"

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.txt"
        assert run(["generate", "complete-bipartite", "1", "1", "-o", str(target)]) == 0
        assert parse_edge_list(target.read_text()).edges == ((0, 1),)


class TestSequentialize:
    def test_k4_human(self, k4_file, capsys):
        assert run(["sequentialize", k4_file]) == 0
        out = capsys.readouterr().out
        assert "verified: yes" in out
        assert "sequential vertices (4, bound 4): 0 1 2 3" in out

    def test_stdin(self, capsys, monkeypatch):
        # The CLI decodes stdin's bytes itself, as it does a file's.
        text = emit_edge_list(complete_graph(4))
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
        assert run(["sequentialize", "-"]) == 0

    def test_failed_reverification_exits_1(self, k4_file, capsys, monkeypatch):
        # The certificate is printed as built, its failed re-check included.
        monkeypatch.setattr("seqcolor.sequential._sequential_verdict",
                            lambda wanted, masks, clashes: Verdict(False, (0,)))
        assert run(["sequentialize", k4_file]) == 1
        assert "verified: no" in capsys.readouterr().out.splitlines()
        assert run(["sequentialize", "--report", k4_file]) == 1
        assert '"verified":false' in capsys.readouterr().out.splitlines()[0]

    def test_reports_byte_identical(self, k23_file, capsys):
        run(["sequentialize", k23_file, "--report", "--oracle"])
        first = capsys.readouterr().out
        run(["sequentialize", k23_file, "--report", "--oracle"])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("name", ["K9", "C9(1,2)", "C1001(1,2)", "3K5"])
    def test_overfull_class_two_exit(self, name, tmp_path, capsys, monkeypatch):
        from seqcolor import coloring

        if name == "K9":
            g = complete_graph(9)
        elif name == "3K5":
            g = build_graph(15, [(b + i, b + j) for b in (0, 5, 10)
                                 for i in range(5) for j in range(i + 1, 5)])
        else:
            n = int(name[1:name.index("(")])
            g = build_graph(n, [(i, (i + s) % n) for s in (1, 2) for i in range(n)])
        path = write(tmp_path, "g.txt", emit_edge_list(g))
        monkeypatch.setattr(coloring, "misra_gries", None)
        assert run(["sequentialize", path]) == 3
        r = max(g.degree(v) for v in g.vertices)
        assert capsys.readouterr().err == (
            f"error: graph is Class 2: chromatic index {r + 1} > max degree {r}\n")


NOT_UTF8 = b"\xff\xfe4 6\n"
NOT_UTF8_REASON = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


class TestNonUtf8Input:
    """Bytes that are not UTF-8 in any input are a parse error (exit 5), not a
    crash; the ``not-utf8*`` rows of the CLI table read them from stdin and
    from each input file."""

    @pytest.mark.parametrize("source", ["stdin"])
    def test_parse_error_exit(self, source, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8)))
        assert run(["sequentialize", "-"]) == 5
        assert capsys.readouterr() == ("", f"error: standard input is not UTF-8 text: {NOT_UTF8_REASON}\n")

    def test_real_stdin(self):
        # A fresh interpreter's stdin may decode with surrogateescape; the
        # CLI still refuses the bytes instead of parsing the escapes.
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run(
            [sys.executable, "-m", "seqcolor.cli", "sequentialize", "-"],
            input=NOT_UTF8, capture_output=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
        )
        assert (done.returncode, done.stdout) == (5, b"")
        assert done.stderr.decode() == f"error: standard input is not UTF-8 text: {NOT_UTF8_REASON}\n"


def run_alone(argv):
    """stdout, stderr and exit code of ``seqcolor argv`` in a fresh interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-m", "seqcolor.cli", *argv], capture_output=True, text=True,
        timeout=60, env=dict(os.environ, PYTHONPATH=src),
    )
    return done.stdout, done.stderr, done.returncode


def run_here(argv):
    """The same triple from :func:`run` in this process, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


class TestParserReuse:
    """run() keeps one parser per process; no call may see an earlier one."""

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        # argparse wraps usage text to the terminal width.
        monkeypatch.setenv("COLUMNS", "80")

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_report_then_plain(self, k23_file):
        first = ["sequentialize", k23_file, "--report"]
        second = ["sequentialize", k23_file]
        assert [run_here(first), run_here(second)] == [run_alone(first), run_alone(second)]

    def test_usage_error_then_good_call(self, k23_file):
        bad = ["oracle", k23_file, "--cap", "three"]
        good = ["oracle", k23_file, "--report"]
        here = [run_here(bad), run_here(good)]
        assert here == [run_alone(bad), run_alone(good)]
        assert here[0][2] == 2 and "invalid int value" in here[0][1]
        assert here[1][2] == 0


OPTION_STRINGS = sorted({name for _, _, arguments in COMMANDS.values()
                         for names, _ in arguments for name in names if name.startswith("-")})

# Every argv form the benchmark's workloads (bench/workloads.py) and the
# README pass: each must take the fast path.
DOCUMENTED_ARGV = [
    ["sequentialize", "--report", "g.txt"],
    ["sequentialize", "--report", "--format", "graph6", "g.g6"],
    ["verify", "g.txt", "coloring.txt", "vertices.txt"],
    ["verify", "--format", "graph6", "g.g6", "coloring.txt", "vertices.txt"],
    ["oracle", "--report", "g.txt"],
    ["generate", "complete-bipartite", "2", "3"],
    ["generate", "biregular", "3", "2", "--seed", "7", "-o", "g.txt"],
    ["generate", "regular-class1", "3", "--format", "graph6"],
    ["color", "g.txt"],
    ["sequentialize", "g.txt"],
    ["sequentialize", "g.txt", "--report", "--oracle"],
    ["bound", "5", "2", "3"],
    ["oracle", "g.txt"],
    ["sequentialize", "-"],
]

ARGV_TOKENS = [
    *COMMANDS, *OPTION_STRINGS,
    "-", "--", "-h", "--rep", "--format=graph6", "-o-",
    "-1", "-7", "0", "3", "12", "x", "three", "1.5", "",
    "bogus", "edges", "graph6", "complete-bipartite", "biregular", "regular-class1",
    "g.txt", "coloring.txt", "vertices.txt", "out.g6",
]


def argv_id(argv):
    return " ".join(argv) or "empty"


def argparse_vars(argv):
    """vars() of build_parser().parse_args(argv), or None on a usage exit."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


class TestArgvReader:
    """run() reads argv from COMMANDS without argparse whenever it can, and
    then builds exactly the namespace argparse would."""

    @settings(max_examples=500)
    @given(st.one_of(
        st.lists(st.sampled_from(ARGV_TOKENS), max_size=8),
        st.builds(lambda command, rest: [command, *rest], st.sampled_from(list(COMMANDS)),
                  st.lists(st.sampled_from(ARGV_TOKENS), max_size=8)),
    ))
    def test_agrees_with_argparse_whenever_it_accepts(self, argv):
        fast = _read_args(argv)
        if fast is not None:
            assert vars(fast) == argparse_vars(argv)

    @pytest.mark.parametrize("argv", DOCUMENTED_ARGV, ids=argv_id)
    def test_documented_forms_take_the_fast_path(self, argv):
        fast = _read_args(argv)
        assert fast is not None
        assert vars(fast) == argparse_vars(argv)

    @pytest.mark.parametrize("argv", [
        ["sequentialize", "--help"], ["sequentialize", "g.txt", "--rep"],
        ["sequentialize", "--", "g.txt"], ["generate", "--format=graph6", "regular-class1", "3"],
        ["generate", "regular-class1", "3", "-o-"],
        ["bound", "-1", "2", "3"], ["oracle", "g.txt", "--cap", "-1"], ["oracle", "g.txt", "--cap"],
        ["generate", "complete-bipartite", "--seed", "1", "2", "3"], ["verify", "g.txt"],
        ["verify", "g.txt", "c.txt", "v.txt", "extra"], ["generate", "bogus"], ["bogus"], [],
    ], ids=argv_id)
    def test_refuses_what_argparse_must_decide(self, argv):
        assert _read_args(argv) is None

    def test_fast_path_builds_no_parser(self, monkeypatch, capsys):
        def refuse():
            raise AssertionError("argparse parser built")

        monkeypatch.setattr("seqcolor.cli.build_parser", refuse)
        assert run(["bound", "5", "2", "3"]) == 0
        assert capsys.readouterr().out.startswith("sequential-set bound: 3\n")

    def test_tuple_argv(self, capsys):
        assert run(("bound", "15", "6", "3")) == 0
        assert digest(capsys.readouterr().out) == ROWS["bound-15-6-3"].sha256

    def test_argv_none_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["seqcolor", "bound", "15", "6", "3"])
        assert run() == 0
        assert capsys.readouterr().out.startswith("sequential-set bound: 9\n")


def subcommand_parsers(parser):
    """The subcommand parsers of ``parser``, by name."""
    return next(action.choices for action in parser._actions if action.dest == "command")


class TestHelpAndUsage:
    """The parser built from COMMANDS formats the same help, usage and errors
    as the one written out call by call (tests/reference.py)."""

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        # argparse wraps help and usage text to the terminal width.
        monkeypatch.setenv("COLUMNS", "80")

    def test_main_help_and_usage(self):
        built, reference = build_parser(), reference_parser()
        assert built.format_help() == reference.format_help()
        assert built.format_usage() == reference.format_usage()

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_subcommand_help_and_usage(self, command):
        built = subcommand_parsers(build_parser())[command]
        reference = subcommand_parsers(reference_parser())[command]
        assert built.format_help() == reference.format_help()
        assert built.format_usage() == reference.format_usage()

    @pytest.mark.parametrize("argv", [
        ["--help"], ["sequentialize", "--help"], ["oracle", "-h"],
        ["bogus", "g.txt"], [], ["verify", "g.txt"], ["oracle", "g.txt", "--cap", "three"],
        ["sequentialize", "g.txt", "--format", "bogus"], ["color", "g.txt", "--bogus"],
        ["bound", "5", "2", "3", "4"], ["sequentialize", "g.txt", "--o"],
    ], ids=argv_id)
    def test_run_exits_as_the_reference_parser(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                reference_parser().parse_args(argv)
                code = None
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2)
        assert run_here(argv) == (out.getvalue(), err.getvalue(), code)

    def test_abbreviation_falls_back_to_argparse(self, k23_file):
        assert _read_args(["sequentialize", k23_file, "--rep"]) is None
        assert run_here(["sequentialize", k23_file, "--rep"]) == run_here(
            ["sequentialize", k23_file, "--report"])


class TestVerify:
    def test_roundtrip_ok(self, tmp_path, capsys):
        assert run(["verify", *certificate_files(tmp_path, "k23")]) == 0
        out = capsys.readouterr().out
        assert "proper: ok" in out and "sequential: ok" in out

    def test_tampered_color(self, tmp_path, capsys):
        # certificate_files recolors the first edge with a neighbour's color.
        assert run(["verify", *certificate_files(tmp_path, "k23", corrupt=True)]) == 1
        assert "clash" in capsys.readouterr().out

    @given(class_one_near_regular(), st.sampled_from(["recolor", "huge", "drop", "extra"]),
           st.integers(0, 2**32 - 1))
    def test_tampered_certificates_match_palette_reference(self, g, tamper, seed):
        rng = random.Random(seed)
        cert = sequentialize(g)
        assignment = assignment_of(cert.coloring)
        t = cert.coloring.color_count
        e = rng.choice(g.edges)
        if tamper == "recolor":
            assignment[e] = rng.choice([c for c in range(1, t + 1) if c != assignment[e]])
        elif tamper == "huge":
            t = assignment[e] = 10**12
        elif tamper == "drop":
            del assignment[e]
        else:
            pairs = [(u, v) for u in g.vertices for v in range(u + 1, g.vertex_count)]
            absent = [p for p in pairs if p not in g.edge_set] or [(0, g.vertex_count)]
            assignment[rng.choice(absent)] = rng.randint(1, t)
        coloring = coloring_of(assignment, t)
        vertices = sorted(cert.sequential_vertices)
        with tempfile.TemporaryDirectory() as tmp:
            tmp_path = Path(tmp)
            graph_file = write(tmp_path, "g.txt", emit_edge_list(g))
            coloring_file = write(tmp_path, "c.txt", emit_coloring(coloring))
            vertices_file = write(tmp_path, "r.txt", " ".join(map(str, vertices)) + "\n")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run(["verify", graph_file, coloring_file, vertices_file])
        assert (out.getvalue(), code) == reference_verify(g, coloring, vertices)
        if tamper in ("recolor", "huge"):
            # The library verdict also holds where the CLI stops at a clash.
            assert verify_sequential(g, coloring, vertices).violations == \
                reference_sequential_failures(g, coloring, vertices)


class TestOracleOrder:
    """The max-sequential oracle runs before the sum search, so its refusals
    come before any sum search starts; the output is what it was when the
    sum oracle ran first."""

    CLASS_TWO = "error: graph is Class 2: chromatic index 4 > max degree 3\n"
    OVERSIZE = ("error: 21 edges exceeds the exhaustive-search guard of 20; "
                "pass override_size=True to force\n")
    NO_TWO_COLORING = "error: no proper 2-coloring exists: max degree is 3\n"

    @pytest.fixture
    def no_sum_search(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the sum search ran")

        monkeypatch.setattr(oracle_module, "_min_sum_search", refuse)

    @pytest.mark.parametrize("extra", [[], ["--report"]])
    def test_class_two_exits_before_the_sum_search(
        self, petersen_file, capsys, no_sum_search, extra
    ):
        assert run(["oracle", petersen_file, *extra]) == 3
        assert capsys.readouterr() == ("", self.CLASS_TWO)

    @pytest.mark.parametrize("extra", [[], ["--report"], ["--sum"], ["--max-sequential"]])
    def test_oversize(self, tmp_path, capsys, no_sum_search, extra):
        from .conftest import path_graph

        path = write(tmp_path, "path.txt", emit_edge_list(path_graph(21)))
        assert run(["oracle", path, *extra]) == 2
        assert capsys.readouterr() == ("", self.OVERSIZE)

    @pytest.mark.parametrize("extra", [[], ["--report"], ["--max-sequential"]])
    def test_cap_below_max_degree(self, petersen_file, capsys, no_sum_search, extra):
        assert run(["oracle", petersen_file, "--cap", "2", *extra]) == 2
        assert capsys.readouterr() == ("", self.NO_TWO_COLORING)


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The collector's state when run() is called: set from the parameter,
    and this process's own state put back after the test."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


# A 3-regular prism (two triangles joined by a matching): not bipartite, and
# Misra-Gries colors it with three colors.
PRISM = "6 9\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n0 3\n1 4\n2 5\n"


class TestCollectorPause:
    """run() pauses the cyclic garbage collector for the command alone and
    leaves it as it found it, whatever the command's exit."""

    def test_command_runs_paused(self, collector, monkeypatch, capsys):
        seen = []

        def record(*args):
            seen.append(gc.isenabled())
            return 0

        monkeypatch.setattr("seqcolor.cli.chromatic_sum_bound", record)
        assert run(["bound", "5", "2", "3"]) == 0
        assert (seen, gc.isenabled()) == ([False], collector)

    @pytest.mark.parametrize("code, command, text", [
        (0, "sequentialize", emit_edge_list(generate_complete_bipartite(2, 3))),
        (1, "verify", "3 2\n0 1\n1 2\n"),
        (2, "sequentialize", emit_edge_list(generate_complete_bipartite(1, 3))),
        (3, "sequentialize", emit_edge_list(complete_graph(5))),
        (4, "sequentialize", emit_edge_list(complete_graph(10))),
        (5, "sequentialize", "not a graph\n"),
    ])
    def test_state_restored_on_every_exit(self, collector, tmp_path, capsys, code, command, text):
        argv = [command, write(tmp_path, "g.txt", text)]
        if command == "verify":
            # Colors 1 and 1 meet at vertex 1.
            argv.append(write(tmp_path, "c.txt", "t=2\n0 1 1\n1 2 1\n"))
        assert run(argv) == code
        assert gc.isenabled() == collector

    def test_state_restored_when_an_exception_propagates(self, collector, monkeypatch):
        def fail(*args):
            raise RuntimeError("unmapped")

        monkeypatch.setattr("seqcolor.cli.sequential_set_bound", fail)
        with pytest.raises(RuntimeError, match="^unmapped$"):
            run(["bound", "5", "2", "3"])
        assert gc.isenabled() == collector

    @pytest.mark.parametrize("argv", [["--help"], ["oracle", "g.txt", "--cap", "three"]],
                             ids=argv_id)
    def test_argparse_exits_leave_it_as_found(self, collector, argv):
        assert run_here(argv)[2] in (0, 2)
        assert gc.isenabled() == collector


# The recursive searches' nested functions: each refers to itself through a
# closure cell, a cycle that the first collection after the command frees.
SEARCH_CLOSURES = {
    "_block_search.<locals>.descend",
    "_min_sum_search.<locals>.descend",
}

# Runs each argv of the JSON list argv[1] through the CLI and prints, per
# command, its exit code, the qualified names of the functions among the
# cyclic garbage it left, and how many of those garbage objects no such
# function reaches. Garbage saved by DEBUG_SAVEALL is found again by the next
# collection once the list lets go of it, so the collection before each
# command runs with the flag off.
GARBAGE_CHILD = """
import contextlib, gc, io, json, sys, types
from seqcolor.cli import run
found = []
for argv in json.loads(sys.argv[1]):
    gc.set_debug(0)
    gc.garbage.clear()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    gc.collect()
    garbage = {id(o): o for o in gc.garbage}
    functions = [o for o in gc.garbage if isinstance(o, types.FunctionType)]
    reached, todo = set(), list(functions)
    while todo:
        o = todo.pop()
        if id(o) not in reached:
            reached.add(id(o))
            todo.extend(r for r in gc.get_referents(o) if id(r) in garbage)
    found.append([code, sorted({f.__qualname__ for f in functions}), len(garbage) - len(reached)])
print(json.dumps(found))
"""


class TestNoCyclesWhilePaused:
    """The premise of the pause: the pipeline and verify leave no cyclic
    garbage, and the exhaustive searches none beyond their own closures, so a
    per-edge cycle would fail here instead of growing peak memory while the
    collector is paused. Checked in a fresh interpreter, free of this
    process's garbage."""

    def test_garbage_per_command(self, tmp_path):
        konig = write_graph(tmp_path, "biregular-r3", False)
        ok = tmp_path / "ok"
        clash = tmp_path / "clash"
        ok.mkdir()
        clash.mkdir()
        graph, coloring, vertices = certificate_files(ok, "minus-matching-r3-swap")
        clashing = certificate_files(clash, "minus-matching-r3-swap", corrupt=True)
        short = write(tmp_path, "short.txt", "".join(open(coloring).readlines()[:-1]))
        k4 = write(tmp_path, "k4.txt", emit_edge_list(complete_graph(4)))
        k33 = write(tmp_path, "k33.txt", emit_edge_list(generate_complete_bipartite(3, 3)))
        pipeline = [
            (0, ["sequentialize", "--report", konig]),
            (0, ["sequentialize", "--report", write(tmp_path, "prism.txt", PRISM)]),
            (3, ["sequentialize", "--report",
                 write(tmp_path, "k5.txt", emit_edge_list(complete_graph(5)))]),
            (4, ["sequentialize", "--report",
                 write(tmp_path, "k10.txt", emit_edge_list(complete_graph(10)))]),
            (0, ["verify", graph, coloring, vertices]),
            (1, ["verify", *clashing]),
            (1, ["verify", graph, short, vertices]),
            (0, ["color", konig]),
            (0, ["color", "--vizing", konig]),
            (0, ["generate", "biregular", "3", "4", "--seed", "2"]),
        ]
        searches = [
            (0, ["oracle", "--report", k33]),
            (0, ["sequentialize", "--report", k4]),
        ]
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run(
            [sys.executable, "-c", GARBAGE_CHILD,
             json.dumps([argv for _, argv in pipeline + searches])],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src), check=True,
        )
        found = json.loads(done.stdout)
        assert [tuple(row) for row in found[:len(pipeline)]] == [
            (code, [], 0) for code, _ in pipeline]
        for (code, argv), (got, functions, stray) in zip(searches, found[len(pipeline):]):
            assert (got, stray) == (code, 0), argv
            assert functions and set(functions) <= SEARCH_CLOSURES, argv
