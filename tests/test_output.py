"""The certificate output path: ``EdgeColoring.lines`` against its triple-sort
reference, the record writer against ``json.dumps``, the one-write text
coloring block, the vertex-file read, and the edge mapping a parsed coloring
carries."""

import contextlib
import io
import json
import tracemalloc
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from seqcolor import (
    EdgeColoring,
    GraphError,
    build_graph,
    emit_coloring,
    emit_edge_list,
    generate_complete_bipartite,
    generate_random_biregular,
    konig_color_bipartite,
    misra_gries,
    parse_coloring,
    sequentialize,
    sum_report,
)
from seqcolor import cli
from seqcolor.graph_io import scan_ints
from seqcolor.oracle import exact_edge_chromatic_sum, exact_max_sequential_set

from .conftest import graphs, petersen_graph
from .reference import reference_lines
from .test_readers import MUTATIONS, mutated

ids = st.integers(-(10**30), 10**30) | st.integers(-5, 40)
colorings = st.lists(st.tuples(st.tuples(ids, ids), st.integers(-3, 10**20)), max_size=30)


def coloring_from(pairs):
    return EdgeColoring(tuple(e for e, _ in pairs), tuple(c for _, c in pairs), 7)


class TestLines:
    @given(colorings.map(lambda pairs: list(dict(pairs).items())))
    @example([])
    @example([((10**40, 3), 2), ((5, -2), 1), ((-7, 10**40), 3), ((5, -3), 1)])
    def test_unique_edges_same_as_triple_sort(self, pairs):
        coloring = coloring_from(pairs)
        assert coloring.lines() == reference_lines(coloring)

    @given(colorings)
    @example([((0, 1), 3), ((0, 1), 1), ((2, 1), 2), ((0, 1), 2)])
    def test_repeated_edges_keep_their_order(self, pairs):
        """A repeated edge's lines stay in ``edges`` order, where the triple
        sort put them in color order; the lines are the same multiset."""
        coloring = coloring_from(pairs)
        stable = [f"{u} {v} {c}" for (u, v), c in sorted(pairs, key=itemgetter(0))]
        assert coloring.lines() == stable
        assert sorted(coloring.lines()) == sorted(reference_lines(coloring))

    @given(graphs(max_n=12))
    def test_library_colorings(self, g):
        for coloring in (misra_gries(g), parse_coloring(emit_coloring(misra_gries(g)))):
            assert coloring.lines() == reference_lines(coloring)

    def test_parsed_texts(self):
        """Colorings parsed from emitted and mutated texts, with lines in any
        order, u > v and repeated colors."""
        g = petersen_graph()
        base = emit_coloring(misra_gries(g))
        for name in sorted(MUTATIONS):
            for seed in range(10):
                try:
                    coloring = parse_coloring(mutated(base, seed, [name]))
                except GraphError:
                    continue
                assert coloring.lines() == reference_lines(coloring)
        header, *body = base.split("\n")[:-1]
        shuffled = "\n".join([header, *reversed(body)]) + "\n"
        assert parse_coloring(shuffled).lines() == reference_lines(parse_coloring(base))

    def test_temporaries_per_edge(self):
        """Beyond the list it returns, ``lines`` holds at most 32 bytes per
        edge at once (the triple sort held about 67)."""
        coloring = konig_color_bipartite(generate_random_biregular(3, 4000, seed=1))
        m = len(coloring.edges)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            lines = coloring.lines()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(lines) == m == 24000
        assert (peak - current) / m <= 32


def printed(records):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._print_records(records)
    return out.getvalue()


def dumped(records):
    return "".join(json.dumps(record, separators=(",", ":")) + "\n" for record in records)


class TestRecordWriter:
    """Every record kind the CLI prints comes out as json.dumps writes it."""

    @pytest.mark.parametrize("g", [
        generate_complete_bipartite(3, 4),
        generate_random_biregular(3, 2, seed=2),
        build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    ], ids=["k34", "biregular", "k4-minus-edge"])
    def test_pipeline_records(self, g):
        report = sum_report(g)
        sum_result = exact_edge_chromatic_sum(g, override_size=True)
        seq_result = exact_max_sequential_set(g, report.certificate.r, override_size=True)
        records = [report.certificate.to_record(), report.to_record(),
                   sum_result.to_record(), seq_result.to_record()]
        assert records[0]["coloring"]
        assert printed(records) == dumped(records)

    def test_edge_cases(self):
        cert = sequentialize(generate_complete_bipartite(3, 3)).to_record()
        empty = {**cert, "coloring": []}
        not_last = {"coloring": cert["coloring"], **{k: v for k, v in cert.items() if k != "coloring"}}
        for record in (cert, empty, not_last, {"record": "x", "coloring": ["0 1 1"], "t": 1}):
            assert printed([record]) == dumped([record])

    def test_cli_report(self, tmp_path):
        g = generate_random_biregular(3, 20, seed=4)
        path = tmp_path / "g.txt"
        path.write_text(emit_edge_list(g))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run(["sequentialize", "--report", str(path)]) == 0
        report = sum_report(g)
        assert out.getvalue() == dumped([report.certificate.to_record(), report.to_record()])


class TestTextColoringBlock:
    def test_block_is_one_line_per_edge(self, tmp_path):
        g = generate_complete_bipartite(3, 4)
        path = tmp_path / "g.txt"
        path.write_text(emit_edge_list(g))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run(["sequentialize", str(path)]) == 0
        cert = sequentialize(g)
        block = out.getvalue().split(f"coloring (t={cert.coloring.color_count}):\n", 1)[1]
        assert block == "".join(f"  {line}\n" for line in cert.coloring.lines())


def verify_outcome(tmp_path, vertices_text, scan=True):
    """stdout, stderr and exit code of ``seqcolor verify`` with the given
    vertex file text, the scan refused everything when ``scan`` is false."""
    g = generate_complete_bipartite(2, 3)
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(emit_edge_list(g))
    coloring_file = tmp_path / "c.txt"
    coloring_file.write_text(emit_coloring(konig_color_bipartite(g)))
    vertices_file = tmp_path / "r.txt"
    vertices_file.write_text(vertices_text)
    out, err = io.StringIO(), io.StringIO()
    patch = contextlib.nullcontext() if scan else mock.patch.object(cli, "scan_ints", return_value=None)
    with patch, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(["verify", str(graph_file), str(coloring_file), str(vertices_file)])
    return out.getvalue(), err.getvalue(), code


class TestVertexFile:
    """The scan reads the vertex file as the token loop it falls back to does."""

    @pytest.mark.parametrize("name", sorted(set(MUTATIONS) - {"header-t"}))
    def test_same_as_token_loop(self, tmp_path, name):
        for seed in range(20):
            text = mutated("0 1\n2 3 4\n", seed, [name])
            assert verify_outcome(tmp_path, text) == verify_outcome(tmp_path, text, scan=False)

    @pytest.mark.parametrize("text", ["", "\n", "  \n", "0", "0 1 1\n", "-1\n", "9\n", "1 x\n",
                                      "1\t2\n", "1\r\n2\r\n", "+1\n", "01\n", "1_0\n", "1,2\n"])
    def test_pinned(self, tmp_path, text):
        assert verify_outcome(tmp_path, text) == verify_outcome(tmp_path, text, scan=False)

    def test_written_text_takes_the_scan(self, tmp_path):
        """A vertex file as the benchmark and the README write it: ids
        joined by single spaces, one final newline."""
        scanned = []

        def scan(text, line_end):
            scanned.append(scan_ints(text, line_end))
            return scanned[-1]

        with mock.patch.object(cli, "scan_ints", scan):
            out, _, code = verify_outcome(tmp_path, "0 1\n")
        assert code == 0 and out.endswith("sequential: ok on 2 vertices\n")
        assert scanned == [[0, 1]]


class TestParsedMapping:
    def test_parsers_seed_the_mapping(self):
        coloring = konig_color_bipartite(generate_complete_bipartite(3, 4))
        for text in (emit_coloring(coloring), emit_coloring(coloring).replace("\n", "\r\n")):
            parsed = parse_coloring(text)
            assert vars(parsed)["_by_edge"] == dict(zip(parsed.edges, parsed.colors))

    def test_built_coloring_builds_it_on_demand(self):
        coloring = EdgeColoring(((0, 1), (1, 2), (0, 1)), (1, 2, 3), 3)
        assert "_by_edge" not in vars(coloring)
        assert coloring._by_edge == {(0, 1): 3, (1, 2): 2}
        assert coloring == EdgeColoring(((0, 1), (1, 2), (0, 1)), (1, 2, 3), 3)
