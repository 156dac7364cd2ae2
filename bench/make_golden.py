"""Recompute ``golden.json``: the oracle optima the exhaustive workload checks.

Run from the repository root: ``python3 bench/make_golden.py``. Values come
from the independent solvers in ``check.py``, never from ``seqcolor``'s
oracles; ``seqcolor`` only supplies the census whose classes are pinned, and
networkx confirms they are pairwise non-isomorphic.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import networkx as nx  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402
from seqcolor import connected_near_regular_graphs  # noqa: E402


def values(n: int, edges) -> list:
    r = max(check.degrees(n, edges))
    seq = check.max_sequential(n, list(edges), r)
    return [None if seq is None else check.min_color_sum(n, edges), seq]


def main() -> None:
    census = list(connected_near_regular_graphs(workloads.CENSUS_EDGES))
    as_nx = [nx.Graph(list(g.edges)) for g in census]
    for i, g in enumerate(as_nx):
        if any(nx.is_isomorphic(g, h) for h in as_nx[:i]):
            raise SystemExit(f"census class {i} repeats an earlier one")
    rows = sorted([check.invariant(g.vertex_count, g.edges), *values(g.vertex_count, g.edges)]
                  for g in census)
    by_key: dict = {}
    for key, *vals in rows:
        if by_key.setdefault(key, vals) != vals:
            raise SystemExit("two census classes share an invariant but not their values")
    named = {
        inst.name: values(inst.n, inst.edges)
        for inst in workloads.exhaustive_extra(random.Random(0))
        if not inst.name.startswith("biregular")
    }
    out = {"census_edges": workloads.CENSUS_EDGES, "census": rows, "named": named}
    (HERE / "golden.json").write_text(json.dumps(out, indent=1) + "\n")
    print(f"{len(rows)} census classes, named: {named}")


if __name__ == "__main__":
    main()
