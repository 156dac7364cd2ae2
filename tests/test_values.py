"""The value types behave as the frozen dataclasses they replaced.

The repr texts, hashes, equality results and ``__match_args__`` pinned here
were recorded from the ``@dataclass(frozen=True)`` versions of these eight
classes.
"""

import copy
import pickle

import pytest

from seqcolor import (
    DegreeProfile,
    EdgeColoring,
    Graph,
    MissingColorPartition,
    OracleResult,
    PreconditionError,
    SequentialCertificate,
    SumReport,
    Verdict,
)

EDGES = ((0, 1), (1, 2))


def instances():
    """One instance of each value type, built afresh on every call."""
    coloring = EdgeColoring(EDGES, (1, 2), 2)
    certificate = SequentialCertificate(coloring, frozenset({1}), 2, 1, 2, 3, 1, True)
    return {
        "Graph": Graph(3, EDGES),
        "DegreeProfile": DegreeProfile(3, 2, 1, 1, frozenset({1}), False),
        "EdgeColoring": coloring,
        "Verdict": Verdict(False, ((0, 1), (1, 2))),
        "MissingColorPartition": MissingColorPartition({1: frozenset({2}), 2: frozenset({0})}, 2),
        "SequentialCertificate": certificate,
        "SumReport": SumReport(3, 4, 3, certificate),
        "OracleResult": OracleResult(3, coloring, 7, frozenset({0, 1})),
    }


COLORING = "EdgeColoring(edges=((0, 1), (1, 2)), colors=(1, 2), color_count=2)"
CERTIFICATE = (f"SequentialCertificate(coloring={COLORING}, sequential_vertices=frozenset({{1}}), "
               "swap_color=2, bound=1, r=2, n=3, n_r=1, verified=True)")

# Per type: repr, hash (None: a dict field makes it unhashable), __match_args__.
PINNED = {
    "Graph": ("Graph(vertex_count=3, edges=((0, 1), (1, 2)))", 2454746988859446535,
              ("vertex_count", "edges")),
    "DegreeProfile": (
        "DegreeProfile(n=3, max_degree=2, min_degree=1, n_r=1, "
        "max_degree_vertices=frozenset({1}), near_regular=False)", 336175971998705969,
        ("n", "max_degree", "min_degree", "n_r", "max_degree_vertices", "near_regular")),
    "EdgeColoring": (COLORING, 4612744022540305772, ("edges", "colors", "color_count")),
    "Verdict": ("Verdict(ok=False, violations=((0, 1), (1, 2)))", 3148853617642421958,
                ("ok", "violations")),
    "MissingColorPartition": (
        "MissingColorPartition(classes={1: frozenset({2}), 2: frozenset({0})}, r=2)", None,
        ("classes", "r")),
    "SequentialCertificate": (
        CERTIFICATE, -7444831676691727368,
        ("coloring", "sequential_vertices", "swap_color", "bound", "r", "n", "n_r", "verified")),
    "SumReport": (f"SumReport(actual_sum=3, bound=4, exact_sum=3, certificate={CERTIFICATE})",
                  4187282232558595659, ("actual_sum", "bound", "exact_sum", "certificate")),
    "OracleResult": (
        f"OracleResult(value=3, witness={COLORING}, explored=7, sequential_vertices=frozenset({{0, 1}}))",
        1030296538717321388, ("value", "witness", "explored", "sequential_vertices")),
}


def fields(value):
    return tuple(getattr(value, name) for name in type(value).__match_args__)


class ColoringSubclass(EdgeColoring):
    pass


@pytest.mark.parametrize("name", sorted(PINNED))
def test_repr_hash_equality_and_match_args(name):
    value, twin = instances()[name], instances()[name]
    text, hashed, match_args = PINNED[name]
    assert repr(value) == text
    if hashed is None:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(value)
    else:
        assert hash(value) == hashed == hash(twin)
    assert value == twin and not value != twin
    assert value != fields(value)
    assert type(value).__match_args__ == match_args


@pytest.mark.parametrize("name", sorted(PINNED))
def test_positional_and_keyword_construction(name):
    value = instances()[name]
    cls = type(value)
    assert cls(*fields(value)) == value
    assert cls(**dict(zip(cls.__match_args__, fields(value)))) == value


@pytest.mark.parametrize("name", sorted(PINNED))
def test_fields_are_frozen(name):
    value = instances()[name]
    field = type(value).__match_args__[0]
    before = getattr(value, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(value, field)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        value.extra = 1
    assert getattr(value, field) is before


@pytest.mark.parametrize("name", sorted(PINNED))
def test_replace(name):
    value = instances()[name]
    field = type(value).__match_args__[-1]
    same = value.replace()
    assert same == value and same is not value
    changed = value.replace(**{field: frozenset({9})})
    assert getattr(changed, field) == frozenset({9}) and changed != value
    assert fields(changed)[:-1] == fields(value)[:-1]
    with pytest.raises(TypeError):
        value.replace(nope=1)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_copy_and_pickle_round_trip(name):
    value = instances()[name]
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and repr(twin) == repr(value)


def test_equal_only_within_one_class():
    coloring = instances()["EdgeColoring"]
    subclass = ColoringSubclass(*fields(coloring))
    assert subclass != coloring and coloring != subclass
    assert repr(subclass) == "ColoringSubclass" + COLORING[len("EdgeColoring"):]


def test_graph_cached_properties_are_not_fields():
    g = Graph(3, EDGES)
    assert g.incidence == ((0,), (0, 1), (1,)) and g.sides == bytes([0, 1, 0])
    assert g == Graph(3, EDGES) and hash(g) == PINNED["Graph"][1]
    assert repr(g) == PINNED["Graph"][0]
    match g:
        case Graph(n, edges):
            assert (n, edges) == (3, EDGES)


def test_oracle_result_default():
    result = OracleResult(3, instances()["EdgeColoring"], 7)
    assert result.sequential_vertices is None
    assert repr(result).endswith(", explored=7, sequential_vertices=None)")


def test_edge_coloring_rejects_length_mismatch():
    with pytest.raises(PreconditionError, match="coloring has 2 edges but 1 colors"):
        EdgeColoring(EDGES, (1,), 1)
    with pytest.raises(PreconditionError, match="coloring has 2 edges but 3 colors"):
        instances()["EdgeColoring"].replace(colors=(1, 2, 3))


def test_sum_report_checks_on_construction_and_replace():
    report = instances()["SumReport"]
    certificate = report.certificate
    with pytest.raises(RuntimeError, match="oracle minimum exceeded the constructed sum"):
        SumReport(3, 4, 4, certificate)
    with pytest.raises(RuntimeError, match="exceeded the closed-form bound"):
        SumReport(5, 4, None, certificate)
    with pytest.raises(RuntimeError, match="oracle minimum exceeded the constructed sum"):
        report.replace(exact_sum=4)
    with pytest.raises(RuntimeError, match="exceeded the closed-form bound"):
        report.replace(actual_sum=5)
    assert report.replace(exact_sum=None).exact_sum is None
