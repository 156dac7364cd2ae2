"""The one-scan readers of edge lists and colorings against the token and
line loops they fall back to, kept in tests/reference.py: the same graphs,
colorings and error texts on emitted texts and on texts mutated with every
case the scan must not decide; and emitted texts never reach the loops."""

import random
import re
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from seqcolor import (
    GraphError,
    build_graph,
    emit_coloring,
    emit_edge_list,
    misra_gries,
    parse_coloring,
    parse_edge_list,
)
from seqcolor import coloring as coloring_module
from seqcolor import graph_io

from .conftest import graphs, outcome, petersen_graph
from .reference import reference_parse_coloring, reference_parse_edge_list


def _token(text, rng):
    """The span of a random whitespace-free token of ``text``, or None."""
    spans = [m.span() for m in re.finditer(r"\S+", text)]
    return rng.choice(spans) if spans else None


def _replace_token(new):
    def mutate(text, rng):
        span = _token(text, rng)
        return text if span is None else text[:span[0]] + new + text[span[1]:]
    return mutate


def _prefix_token(prefix):
    def mutate(text, rng):
        span = _token(text, rng)
        return text if span is None else text[:span[0]] + prefix + text[span[0]:]
    return mutate


def _replace_one(old, new):
    def mutate(text, rng):
        spots = [i for i in range(len(text)) if text.startswith(old, i)]
        if not spots:
            return text
        i = rng.choice(spots)
        return text[:i] + new + text[i + len(old):]
    return mutate


def _line_edit(edit):
    """Apply ``edit(fields, rng)`` to the fields of a random line after the first."""
    def mutate(text, rng):
        lines = text.split("\n")
        if len(lines) < 3:
            return text
        i = rng.randrange(1, len(lines) - 1)
        lines[i] = " ".join(edit(lines[i].split(" "), rng))
        return "\n".join(lines)
    return mutate


def _repeat_line(text, rng):
    lines = text.split("\n")
    if len(lines) < 3:
        return text
    i = rng.randrange(1, len(lines) - 1)
    lines.insert(rng.randrange(1, len(lines)), lines[i])
    return "\n".join(lines)


MUTATIONS = {
    "tab": _replace_one(" ", "\t"),
    "tab-beside": _replace_one(" ", " \t"),
    "crlf": lambda text, rng: text.replace("\n", "\r\n"),
    "one-crlf": _replace_one("\n", "\r\n"),
    "lone-cr": _replace_one("\n", "\r"),
    "cr-before-space": _replace_one(" ", "\r "),
    "blank-line": _replace_one("\n", "\n\n"),
    "blank-line-of-spaces": _replace_one("\n", "\n  \n"),
    "double-space": _replace_one(" ", "  "),
    "leading-space": lambda text, rng: " " + text,
    "line-leading-space": _replace_one("\n", "\n "),
    "trailing-space": _replace_one("\n", " \n"),
    "no-final-newline": lambda text, rng: text.rstrip("\n"),
    "plus": _prefix_token("+"),
    "leading-zeros": _prefix_token("00"),
    "underscore": _replace_token("1_0"),
    "minus-zero": _replace_token("-0"),
    "minus": _prefix_token("-"),
    "null": _replace_token("null"),
    "extra-null": _replace_one(" ", " null "),
    "true": _replace_token("true"),
    "float": _replace_token("1.0"),
    "exponent": _replace_token("1e0"),
    "nan": _replace_token("NaN"),
    "infinity": _replace_token("-Infinity"),
    "string": _replace_token('"1"'),
    "list": _replace_token("[1]"),
    "dict": _replace_token("{}"),
    "comma": _replace_one(" ", ","),
    "comma-space": _replace_one(" ", ", "),
    "bracket": _replace_one(" ", "] "),
    "nbsp": _replace_one(" ", "\xa0"),
    "file-separator": _replace_one(" ", "\x1c"),
    "line-separator": _replace_one("\n", " "),
    "vertical-tab": _replace_one("\n", "\x0b"),
    "huge-int": _replace_token("1" * 5000),
    "deep-nesting": lambda text, rng: text + "[" * 5000,
    "big": _replace_token(str(10**30)),
    # A line left with one field or none by "tab", "file-separator" or
    # "blank-line" has nothing to swap and stays as it is.
    "swap": _line_edit(lambda fields, rng: [fields[1], fields[0], *fields[2:]]
                       if len(fields) > 1 else fields),
    "loop": _line_edit(lambda fields, rng: [fields[0], fields[0], *fields[2:]]),
    "repeat": _repeat_line,
    "drop-field": _line_edit(lambda fields, rng: fields[:-1]),
    "add-field": _line_edit(lambda fields, rng: [*fields, str(rng.randint(0, 9))]),
    "zero": _replace_token("0"),
    "header-t": lambda text, rng: text.replace("t=", rng.choice(
        ["t=-1", "t=", "t= ", "t=\t", "t=0", "t=007", "T=", "t=\x0b", "\nt="]), 1),
}


def mutated(text, seed, names):
    rng = random.Random(seed)
    for name in names:
        text = MUTATIONS[name](text, rng)
    return text


def _coloring_text(g):
    return emit_coloring(misra_gries(g))


class TestDifferential:
    @given(graphs(max_n=10), st.integers(0, 2**32 - 1),
           st.lists(st.sampled_from(sorted(MUTATIONS)), max_size=3))
    @example(build_graph(8, [(4, 7)]), 0, ["file-separator", "swap"])
    def test_edge_list(self, g, seed, names):
        text = mutated(emit_edge_list(g), seed, names)
        assert outcome(parse_edge_list, text) == outcome(reference_parse_edge_list, text)

    @given(graphs(max_n=10), st.integers(0, 2**32 - 1),
           st.lists(st.sampled_from(sorted(MUTATIONS)), max_size=3))
    def test_coloring(self, g, seed, names):
        text = mutated(_coloring_text(g), seed, names)
        assert outcome(parse_coloring, text) == outcome(reference_parse_coloring, text)

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_each_mutation(self, name):
        """Every mutation, on its own, at many positions of one edge list and
        one coloring of the Petersen graph."""
        g = petersen_graph()
        for seed in range(50):
            text = mutated(emit_edge_list(g), seed, [name])
            assert outcome(parse_edge_list, text) == outcome(reference_parse_edge_list, text)
            text = mutated(_coloring_text(g), seed, [name])
            assert outcome(parse_coloring, text) == outcome(reference_parse_coloring, text)


@pytest.mark.parametrize("text, message", [
    # splitlines() breaks the line at a lone "\r"; JSON would skip it.
    ("t=2\n0 5\r 1\n", "expected 'u v c', got '0 5'"),
    # A literal null would read as a line end.
    ("t=2\n0 1 1 null 1 2 2\n", "expected 'u v c', got '0 1 1 null 1 2 2'"),
])
def test_coloring_counterexamples(text, message):
    with pytest.raises(GraphError) as info:
        parse_coloring(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text", [
    "3 1\n0 1] 5\n",  # JSON reads a prefix of the array
    "t=1\n0 1 1] 7\n",
    "3 2\n0 1\n1 2 2\n",  # a token past the header's count
    "t=2\n0 1 1 5\n",  # a fourth field on the last line
    "t=2\n0 1 1\n1 2\n",  # a second field on the last line
    "t=4\n0 1\n1 2 3 4\n",  # fields moved across lines, line count kept
    "t=3\n0 1 3\n0 1 3\n",  # the same line twice
    "t=3\n0 1 4\n",  # a color past t
    "t=-1\n",  # no lines, negative t
    "t=0\n\n",  # a blank last line
    "t=2\n0 1 1\n\n",
    "-0 0\n",
])
def test_pinned_texts(text):
    parse = parse_coloring if text.startswith("t=") else parse_edge_list
    reference = reference_parse_coloring if text.startswith("t=") else reference_parse_edge_list
    assert outcome(parse, text) == outcome(reference, text)


def test_deep_nesting_is_a_parse_error():
    text = "2 1 " + "[" * 5000
    with pytest.raises(GraphError, match="^non-integer token in edge list: "):
        parse_edge_list(text)
    assert outcome(parse_edge_list, text) == outcome(reference_parse_edge_list, text)


@pytest.mark.parametrize("text", [
    "3 2\r\n0 1\r\n1 2\r\n",  # CRLF
    "3\t2\n0\t1\n1 2",  # tabs, no final newline
    "\n 3 2\n\n0 1\n1 2\n\n",  # blank lines and a leading space
])
def test_other_whitespace_still_read(text):
    assert parse_edge_list(text) == reference_parse_edge_list(text)
    assert parse_edge_list(text).edges == ((0, 1), (1, 2))


def test_crlf_coloring_still_read():
    text = "t=2\r\n0 1 1\r\n1 2 2\r\n"
    assert parse_coloring(text) == reference_parse_coloring(text)
    assert parse_coloring(text).colors == (1, 2)


class TestEmittedTextsTakeTheScan:
    """The loops never run on what emit_edge_list and emit_coloring write."""

    @given(graphs(max_n=12))
    def test_emitted(self, g):
        with mock.patch.object(graph_io, "_split_edge_list", side_effect=AssertionError), \
                mock.patch.object(coloring_module, "_parse_coloring_lines",
                                  side_effect=AssertionError):
            assert parse_edge_list(emit_edge_list(g)) == g
            coloring = misra_gries(g)
            assert parse_coloring(emit_coloring(coloring)) == reference_parse_coloring(
                emit_coloring(coloring))

    def test_spy_sees_the_fallback(self):
        with mock.patch.object(graph_io, "_split_edge_list", side_effect=AssertionError), \
                pytest.raises(AssertionError):
            parse_edge_list("3\t1\n0 1\n")
        with mock.patch.object(coloring_module, "_parse_coloring_lines",
                               side_effect=AssertionError), pytest.raises(AssertionError):
            parse_coloring("t=1\r\n0 1 1\r\n")
