import contextlib
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
from hypothesis import given, strategies as st

from seqcolor import (
    build_graph,
    complete_graph,
    emit_edge_list,
    generate_complete_bipartite,
    konig_color_bipartite,
    emit_coloring,
    parse_coloring,
    parse_edge_list,
    palette,
    sequentialize,
    verify_proper,
    verify_sequential,
)
from seqcolor.cli import build_parser, run

from .conftest import class_one_near_regular, petersen_graph
from .reference import assignment_of, coloring_of
from .test_coloring import K4_MATCHING_COLORING


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
        lines.append(f"sequential: ok on {len(vertices)} vertices")
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
    def test_complete_bipartite(self, capsys):
        assert run(["generate", "complete-bipartite", "2", "3"]) == 0
        g = parse_edge_list(capsys.readouterr().out)
        assert g.edge_set == generate_complete_bipartite(2, 3).edge_set

    def test_graph6_format(self, capsys):
        assert run(["generate", "regular-class1", "3", "--complete", "--format", "graph6"]) == 0
        assert capsys.readouterr().out.strip() == "C~"

    def test_graph6_over_62_vertices_is_refused(self, capsys):
        # 10 * (2 * 10 - 1) = 190 vertices: an oversize refusal (2), not I/O (5).
        assert run(["generate", "biregular", "10", "10", "--seed", "1", "--format", "graph6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: graph6 output supports at most 62 vertices, got 190\n"

    def test_biregular_needs_seed(self, capsys):
        assert run(["generate", "biregular", "3", "1"]) == 2

    def test_biregular(self, capsys):
        assert run(["generate", "biregular", "3", "1", "--seed", "7"]) == 0
        g = parse_edge_list(capsys.readouterr().out)
        assert sorted(g.degree(v) for v in g.vertices) == [2, 2, 2, 3, 3]

    def test_regular_class1_default(self, capsys):
        assert run(["generate", "regular-class1", "3"]) == 0
        g = parse_edge_list(capsys.readouterr().out)
        assert g.edge_set == generate_complete_bipartite(3, 3).edge_set

    def test_bad_param_count(self, capsys):
        assert run(["generate", "complete-bipartite", "2"]) == 2

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.txt"
        assert run(["generate", "complete-bipartite", "1", "1", "-o", str(target)]) == 0
        assert parse_edge_list(target.read_text()).edges == ((0, 1),)


class TestColor:
    def test_k23(self, k23_file, capsys):
        assert run(["color", k23_file]) == 0
        coloring = parse_coloring(capsys.readouterr().out)
        assert coloring.color_count == 3
        assert verify_proper(generate_complete_bipartite(2, 3), coloring)

    def test_vizing_flag(self, petersen_file, capsys):
        assert run(["color", petersen_file, "--vizing"]) == 0
        coloring = parse_coloring(capsys.readouterr().out)
        assert coloring.color_count == 4

    def test_class_two_exit(self, petersen_file, capsys):
        assert run(["color", petersen_file]) == 3


class TestSequentialize:
    def test_k4_human(self, k4_file, capsys):
        assert run(["sequentialize", k4_file]) == 0
        out = capsys.readouterr().out
        assert "verified: yes" in out
        assert "sequential vertices (4, bound 4): 0 1 2 3" in out

    def test_report_records(self, k23_file, capsys):
        assert run(["sequentialize", k23_file, "--report", "--oracle"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        kinds = [r["record"] for r in records]
        assert kinds == ["certificate", "sum_report", "oracle_sum", "oracle_sequential"]
        cert, summary, osum, oseq = records
        assert cert["bound"] == 3 and cert["verified"] is True
        assert summary["exact_sum"] == 12 and summary["bound"] == 12
        assert osum["value"] == 12 and osum["cap_stable"] is True
        assert oseq["value"] == 3

    def test_reports_byte_identical(self, k23_file, capsys):
        run(["sequentialize", k23_file, "--report", "--oracle"])
        first = capsys.readouterr().out
        run(["sequentialize", k23_file, "--report", "--oracle"])
        assert capsys.readouterr().out == first

    def test_star_precondition_exit(self, tmp_path, capsys):
        star = write(tmp_path, "star.txt", emit_edge_list(generate_complete_bipartite(1, 3)))
        assert run(["sequentialize", star]) == 2

    def test_petersen_class_two_exit(self, petersen_file, capsys):
        assert run(["sequentialize", petersen_file]) == 3

    def test_unknown_class_exit(self, tmp_path, capsys):
        # K_10 is not overfull, and the heuristic needs a tenth color on it.
        path = write(tmp_path, "k10.txt", emit_edge_list(complete_graph(10)))
        assert run(["sequentialize", path]) == 4

    @pytest.mark.parametrize("name", ["K9", "C9(1,2)", "C1001(1,2)", "3K5"])
    def test_overfull_class_two_exit(self, name, tmp_path, capsys, monkeypatch):
        from seqcolor import build_graph, coloring

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

    def test_missing_file(self, capsys):
        assert run(["sequentialize", "/nonexistent/graph.txt"]) == 5

    def test_garbage_input(self, tmp_path, capsys):
        path = write(tmp_path, "bad.txt", "not a graph\n")
        assert run(["sequentialize", path]) == 5

    def test_stdin(self, k4_file, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(emit_edge_list(complete_graph(4))))
        assert run(["sequentialize", "-"]) == 0


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


class TestBound:
    def test_biregular_profile(self, capsys):
        assert run(["bound", "5", "2", "3"]) == 0
        out = capsys.readouterr().out
        assert "sequential-set bound: 3" in out
        assert "biregular form:       3" in out
        assert "chromatic-sum bound:  12" in out

    def test_regular_profile_no_biregular_line(self, capsys):
        assert run(["bound", "4", "4", "3"]) == 0
        out = capsys.readouterr().out
        assert "sequential-set bound: 4" in out
        assert "biregular form:       -" in out
        assert "chromatic-sum bound:  12" in out

    def test_k33_profile(self, capsys):
        assert run(["bound", "6", "6", "3"]) == 0
        out = capsys.readouterr().out
        assert "sequential-set bound: 6" in out
        assert "biregular form:       -" in out
        assert "chromatic-sum bound:  18" in out

    def test_invalid_args(self, capsys):
        assert run(["bound", "4", "5", "3"]) == 2


class TestVerify:
    def make_certificate_files(self, tmp_path):
        g = generate_complete_bipartite(2, 3)
        coloring = konig_color_bipartite(g)
        graph_file = write(tmp_path, "g.txt", emit_edge_list(g))
        coloring_file = write(tmp_path, "c.txt", emit_coloring(coloring))
        vertices_file = write(tmp_path, "r.txt", "0 1\n")
        return graph_file, coloring_file, vertices_file

    def test_roundtrip_ok(self, tmp_path, capsys):
        graph_file, coloring_file, vertices_file = self.make_certificate_files(tmp_path)
        assert run(["verify", graph_file, coloring_file, vertices_file]) == 0
        out = capsys.readouterr().out
        assert "proper: ok" in out and "sequential: ok" in out

    def test_tampered_color(self, tmp_path, capsys):
        graph_file, coloring_file, vertices_file = self.make_certificate_files(tmp_path)
        text = open(coloring_file).read().splitlines()
        # Recolor the first edge with the second edge's color.
        first = text[1].split()
        second = text[2].split()
        text[1] = f"{first[0]} {first[1]} {second[2]}"
        with open(coloring_file, "w") as fh:
            fh.write("\n".join(text) + "\n")
        assert run(["verify", graph_file, coloring_file, vertices_file]) == 1
        assert "clash" in capsys.readouterr().out

    def test_non_sequential_vertex_named(self, tmp_path, capsys):
        graph_file, coloring_file, _ = self.make_certificate_files(tmp_path)
        coloring = parse_coloring(open(coloring_file).read())
        g = parse_edge_list(open(graph_file).read())
        from seqcolor import palette

        bad = next(
            v for v in (2, 3, 4)
            if palette(g, coloring, v) != frozenset({1, 2})
        )
        vertices_file = write(tmp_path, "r2.txt", f"{bad}\n")
        assert run(["verify", graph_file, coloring_file, vertices_file]) == 1
        assert f"not sequential at vertex {bad}" in capsys.readouterr().out

    def test_coverage_mismatch(self, tmp_path, capsys):
        graph_file, coloring_file, vertices_file = self.make_certificate_files(tmp_path)
        lines = open(coloring_file).read().splitlines()
        with open(coloring_file, "w") as fh:
            fh.write("\n".join(lines[:-1]) + "\n")
        assert run(["verify", graph_file, coloring_file, vertices_file]) == 1
        assert "coverage mismatch" in capsys.readouterr().out

    def test_edge_not_in_graph(self, tmp_path, capsys):
        graph_file = write(tmp_path, "path.txt", "4 3\n0 1\n1 2\n2 3\n")
        coloring_file = write(tmp_path, "c.txt", "t=2\n0 1 1\n1 2 2\n2 3 1\n0 2 1\n")
        assert run(["verify", graph_file, coloring_file]) == 1
        out = capsys.readouterr().out
        assert out.startswith("coverage mismatch: coloring names 1 edge(s) not in the graph")
        assert "proper: ok" not in out

    def test_proper_only_without_vertices_file(self, tmp_path, capsys):
        graph_file, coloring_file, _ = self.make_certificate_files(tmp_path)
        assert run(["verify", graph_file, coloring_file]) == 0
        assert "sequential" not in capsys.readouterr().out

    @pytest.mark.parametrize("vertices, stderr", [
        ("0 9\n", "error: unknown vertices [9]\n"),
        ("0 x\n", "error: vertex file must contain integers: "
                  "invalid literal for int() with base 10: 'x'\n"),
        (None, "error: [Errno 2] No such file or directory: "),
    ])
    def test_bad_vertex_file_prints_no_verdict(self, tmp_path, capsys, k4_file, vertices, stderr):
        # A proper coloring of K4: the vertex file alone is at fault.
        coloring_file = write(tmp_path, "c.txt", emit_coloring(K4_MATCHING_COLORING))
        if vertices is None:
            vertices_file = str(tmp_path / "absent.txt")
        else:
            vertices_file = write(tmp_path, "r.txt", vertices)
        assert run(["verify", k4_file, coloring_file, vertices_file]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(stderr)

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


class TestOracle:
    def test_k23_both(self, k23_file, capsys):
        assert run(["oracle", k23_file]) == 0
        out = capsys.readouterr().out
        assert "exact sum: 12" in out
        assert "max sequential set (3 colors): 3" in out

    def test_k4(self, k4_file, capsys):
        assert run(["oracle", k4_file]) == 0
        out = capsys.readouterr().out
        assert "exact sum: 12" in out and "max sequential set (3 colors): 4" in out

    def test_sum_only(self, k23_file, capsys):
        assert run(["oracle", k23_file, "--sum"]) == 0
        assert "max sequential" not in capsys.readouterr().out

    def test_oversize_refusal(self, tmp_path, capsys):
        from .conftest import path_graph

        big = write(tmp_path, "big.txt", emit_edge_list(path_graph(30)))
        assert run(["oracle", big]) == 2

    @pytest.mark.parametrize("mode", ["--max-sequential", "--sum"])
    def test_recursion_depth_refusal(self, tmp_path, capsys, mode):
        # Past the interpreter's recursion depth even --override-size is
        # refused as oversize (exit 2), not left to a RecursionError.
        pairs = [(2 * i, 2 * i + 1) for i in range(1500)]
        path = write(tmp_path, "matching.txt", emit_edge_list(build_graph(3000, pairs)))
        assert run(["oracle", "--override-size", mode, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: 1500 edges reach the recursion depth")

    def test_report(self, k23_file, capsys):
        assert run(["oracle", k23_file, "--report"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert [r["record"] for r in records] == ["oracle_sum", "oracle_sequential"]

    def test_cap_override(self, k4_file, capsys):
        assert run(["oracle", k4_file, "--max-sequential", "--cap", "4"]) == 0
        assert "max sequential set (4 colors): 4" in capsys.readouterr().out

    def test_graph6_input(self, tmp_path, capsys):
        path = write(tmp_path, "k4.g6", "C~\n")
        assert run(["oracle", path, "--format", "graph6"]) == 0
        assert "exact sum: 12" in capsys.readouterr().out
