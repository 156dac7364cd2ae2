"""One table pins every fixed CLI run, under ``python`` and ``python -O``.

Each row names its input, its CLI arguments and its exit code, and the
sha256 of its stdout, a line (a ``re.MULTILINE`` pattern) that its stdout or
stderr must hold, or both. The input goes last on the command line: stdin
bytes as ``-``, or a certificate's graph, coloring and vertex files, written
by :func:`certificate_files`. One module fixture runs every row in-process
through ``seqcolor.cli.run`` in two fresh interpreters at once, ``python``
and ``python -O``, and each row's stdout, stderr and exit code must be the
same under both, so no check in src rests on ``assert`` (tools/lint.py also
refuses asserts and ``__debug__`` or ``sys.flags`` reads there).

The digest rows build their graphs here, from their own seeds, without the
library's generators (whose seeds may map to new graphs). Their digests were
recorded from the dict-based coloring core that preceded the edge-indexed
one; the ``generate``, ``oracle`` and text-mode ``--oracle`` rows were
recorded from the code that still stored a bipartition per graph and a
``cap_stable`` field per oracle result, ``vizing-union-r5`` from the
Misra–Gries that rescanned the edges at u for every fan step, and
``seq-report-62-g6`` from the per-bit graph6 decoder. ``oracle-sum-*``,
``oracle-seq-cap4-*`` and ``seq-oracle-text-skipped-swap`` were recorded
from the text renderer that read the certificate and oracle objects instead
of their records, and ``bound-15-6-3`` from the ``bound`` that prints its
biregular form from the sequential-set bound. The max-sequential "explored"
in ``oracle-report-union-8-3``, ``oracle-union-8-3`` and
``seq-oracle-union-8-3`` counts the search with its color block rule: 30
nodes, 33 without it; every other byte of those records is unchanged. A
rewrite of the core that changes a single output byte fails here.

The rows from ``gen-complete-bipartite-2-3`` on were the fixed runs of
tests/test_cli.py (each read capsys under ``python`` alone) and, as
``verify-repeated-edge``, ``verify-gap`` and ``verify-intact``, one test of
tests/test_output.py. Each keeps its test's check as a line, and a digest
where the test compared a whole output; those digests were recorded at
commit 1242d92.
"""

import contextlib
import hashlib
import io
import json
import os
import pickle
import random
import re
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest

from seqcolor import emit_edge_list, emit_graph6, generate_complete_bipartite, generate_regular_class1
from seqcolor.cli import run


def edge_list_text(n, edges):
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def relabel(rng, n, edges):
    """Shuffle vertex labels and edge order, and the ends within each edge."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in edges]
    rng.shuffle(out)
    return out


def biregular(seed, r, k):
    """(r-1)k vertices of degree r joined to rk vertices of degree r-1."""
    rng = random.Random(seed)
    nx, ny = (r - 1) * k, r * k
    edges = [(x, nx + (x * r + j) % ny) for x in range(nx) for j in range(r)]
    return nx + ny, relabel(rng, nx + ny, edges)


def regular_minus_matching(seed, r, half, cut):
    """r-regular bipartite graph on 2*half vertices, less ``cut`` edges of one
    perfect matching."""
    rng = random.Random(seed)
    shifts = rng.sample(range(half), r)
    edges = [(x, half + (x + s) % half) for i, s in enumerate(shifts)
             for x in range(half) if i or x >= cut]
    return 2 * half, relabel(rng, 2 * half, edges)


def nonbipartite_matching_union(seed, n, r):
    """Simple non-bipartite union of r random perfect matchings on n vertices:
    Class 1 by construction."""
    rng = random.Random(seed)
    while True:
        edges = set()
        for _ in range(r):
            order = list(range(n))
            rng.shuffle(order)
            edges.update((min(a, b), max(a, b)) for a, b in zip(order[::2], order[1::2]))
        if len(edges) == n * r // 2 and not two_colorable(n, edges):
            return n, relabel(rng, n, sorted(edges))


def two_colorable(n, edges):
    side = [-1] * n
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    for s in range(n):
        if side[s] >= 0:
            continue
        side[s], stack = 0, [s]
        while stack:
            v = stack.pop()
            for w in nbrs[v]:
                if side[w] < 0:
                    side[w] = 1 - side[v]
                    stack.append(w)
                elif side[w] == side[v]:
                    return False
    return True


def complete(n):
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


def complete_bipartite(a, b):
    return a + b, [(i, a + j) for i in range(a) for j in range(b)]


def path_on(n):
    return n, [(i, i + 1) for i in range(n - 1)]


def graph6_text(n, edges):
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [(i, j) in present for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    return chr(63 + n) + "".join(
        chr(63 + sum(bit << (5 - k) for k, bit in enumerate(bits[p:p + 6])))
        for p in range(0, len(bits), 6)
    ) + "\n"


GRAPHS = {
    "biregular-r3": lambda: biregular(11, 3, 40),
    "biregular-r5": lambda: biregular(12, 5, 6),
    "minus-matching-r4": lambda: regular_minus_matching(13, 4, 60, 17),
    "minus-matching-r3-swap": lambda: regular_minus_matching(25, 3, 20, 7),
    "minus-matching-r3-swap1": lambda: regular_minus_matching(54, 3, 20, 7),
    "k6": lambda: complete(6),
    "union-8-3": lambda: nonbipartite_matching_union(5, 8, 3),
    "union-10-4": lambda: nonbipartite_matching_union(6, 10, 4),
    "k10": lambda: complete(10),
    "k16": lambda: complete(16),
    "cubic-200": lambda: nonbipartite_matching_union(7, 200, 3),
    "union-80-5": lambda: nonbipartite_matching_union(8, 80, 5),
    "minus-matching-62-r4": lambda: regular_minus_matching(62, 4, 31, 11),
    "k4": lambda: complete(4),
    "k23": lambda: complete_bipartite(2, 3),
    "k55": lambda: complete_bipartite(5, 5),
    "star-3": lambda: complete_bipartite(1, 3),
    "path4": lambda: path_on(4),
    "path31": lambda: path_on(31),
    "matching-1500": lambda: (3000, [(2 * i, 2 * i + 1) for i in range(1500)]),
}


def graph_bytes(name, graph6=False):
    n, edges = GRAPHS[name]()
    return (graph6_text(n, edges) if graph6 else edge_list_text(n, edges)).encode()


def write_graph(tmp_path, name, graph6):
    path = tmp_path / f"{name}.{'g6' if graph6 else 'txt'}"
    path.write_bytes(graph_bytes(name, graph6))
    return str(path)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def certificate_files(tmp_path, graph, corrupt=False):
    """The graph, coloring and vertex files of ``graph``'s certificate, the
    coloring with one clash if ``corrupt``."""
    path = write_graph(tmp_path, graph, False)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert run(["sequentialize", "--report", path]) == 0
    cert = json.loads(out.getvalue().splitlines()[0])
    lines = list(cert["coloring"])
    if corrupt:
        # Give the first edge the color of another edge at the same vertex.
        u, v, _ = lines[0].split()
        other = next(line for line in lines[1:] if u in line.split()[:2])
        lines[0] = f"{u} {v} {other.split()[2]}"
    coloring = tmp_path / "coloring.txt"
    coloring.write_text(f"t={cert['t']}\n" + "\n".join(lines) + "\n")
    vertices = tmp_path / "vertices.txt"
    vertices.write_text(" ".join(map(str, cert["sequential_vertices"])) + "\n")
    return path, str(coloring), str(vertices)


# ``input`` is stdin bytes, None (no input) or a certificate's (graph,
# corrupt) pair; ``out`` and ``err`` are lines that stdout and stderr hold,
# or with \A and \Z the whole stream.
Row = namedtuple("Row", "name input args code sha256 out err", defaults=(None, None, None))

PETERSEN = b"10 15\n0 1\n1 2\n2 3\n3 4\n0 4\n5 7\n6 8\n7 9\n5 8\n6 9\n0 5\n1 6\n2 7\n3 8\n4 9\n"
K34 = emit_edge_list(generate_complete_bipartite(3, 4)).encode()
CLASS_TWO = r"^error: graph is Class 2: chromatic index 4 > max degree 3$"
TOO_LARGE = (r"^error: heuristic used 10 colors and the graph is too large \(45 edges\) "
             r"for the exact solver$")

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
NOT_UTF8 = (r"\Aerror: bad\.txt is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
            r"position 0: invalid start byte\n\Z")
DEPTH = r"^error: 1500 edges reach the recursion depth of the exhaustive searches "
# K_{2,3}'s Konig coloring: proper, and vertex 3 sees colors 2 and 3.
K23_COLORING = b"t=3\n0 2 2\n0 3 3\n0 4 1\n1 2 1\n1 3 2\n1 4 3\n"

# Files that rows name as arguments; each child runs in a directory holding them.
FILES = {"path3.txt": b"3 2\n0 1\n1 2\n", "path3-coloring.txt": b"t=2\n0 1 1\n1 2 2\n",
         "path4.txt": graph_bytes("path4"), "k23.txt": graph_bytes("k23"),
         "k23-coloring.txt": K23_COLORING, "bad.txt": b"\377\3764 6\n"}

ROWS = {row.name: row for row in [
    Row("seq-report-biregular-r3", graph_bytes("biregular-r3"), "sequentialize --report", 0,
        "3ed911ed569f555e6280788e1dc9c56ad21d6725fbb0f4e2a909ca36d65355a2"),
    Row("seq-text-biregular-r3", graph_bytes("biregular-r3"), "sequentialize", 0,
        "bc2a6e4bc4c180aa19d5d60df71788e5aa89d23b2ea9d5a50ed5c67df1cda62b"),
    Row("seq-report-biregular-r5-g6", graph_bytes("biregular-r5", True),
        "sequentialize --report --format graph6", 0,
        "e1ecd2d28475a6bae5c8cb4a800f3d666d8a00e2341750a36442d2678f5b4be8"),
    Row("seq-report-minus-r4", graph_bytes("minus-matching-r4"), "sequentialize --report", 0,
        "b4f866fd4107e153e2eb3923f2e35d6d47d059cd4f8d3e7600a9cc57c5df1757"),
    Row("seq-text-minus-r4", graph_bytes("minus-matching-r4"), "sequentialize", 0,
        "fd8e44c47e3b59a0f08098be7c640437e95e6692da4181346d5fdadd243a0e17"),
    # At least one certificate here must make a real transposition.
    Row("seq-report-swap", graph_bytes("minus-matching-r3-swap"), "sequentialize --report", 0,
        "f5b8578afd6f3fe87a1d10f8b725ee60816b1c3598b01328aa5d1a285f2fbfb0"),
    Row("seq-text-swap", graph_bytes("minus-matching-r3-swap"), "sequentialize", 0,
        "a2744cbc3680902cc7e57c3e5246377cef869da6aa9b57b0ca8549e671e8a6dc"),
    Row("seq-report-swap1-g6", graph_bytes("minus-matching-r3-swap1", True),
        "sequentialize --report --format graph6", 0,
        "a98fcd01bb624dd34d2e63f4045c97647d9af97b1b52001c6778cf5bea4ea5b8"),
    Row("seq-report-62-g6", graph_bytes("minus-matching-62-r4", True),
        "sequentialize --report --format graph6", 0,
        "fdee9a2c177d05f4e348191986966ae9365f74e3b96b76651c4ee10cc46cb8e6"),
    Row("seq-report-k6", graph_bytes("k6"), "sequentialize --report", 0,
        "d9ee7416b52c215e9e49cbbc42965d6908b98ceb8b9458f05d1231a8e4e3a823"),
    Row("seq-text-k6-g6", graph_bytes("k6", True), "sequentialize --format graph6", 0,
        "052d1089c4c9c9d7fd22ecf417f839609a113ce084ad37cbc776d648ce9d6cd7"),
    Row("seq-report-union-8-3", graph_bytes("union-8-3"), "sequentialize --report", 0,
        "9265ea5abe1d0947c90fbf73e89dffdc85865be0e8b5e254ece691d207d31be9"),
    Row("seq-text-union-10-4", graph_bytes("union-10-4"), "sequentialize", 0,
        "76f8a25fc6359c99d50a2adcce1e375500e94bac79fa0a44655d17e0fe0f259f"),
    Row("seq-oracle-union-8-3", graph_bytes("union-8-3"), "sequentialize --report --oracle", 0,
        "37eaad3b1571e8bdc37feed0555d218be9d0c1c2ccdd473fc8946d22008328b6"),
    Row("seq-oracle-text-union-8-3", graph_bytes("union-8-3"), "sequentialize --oracle", 0,
        "41dc599a44f82f17a68dedfab428fc4788e470ceb8233929315a85adce9f6298"),
    Row("oracle-union-8-3", graph_bytes("union-8-3"), "oracle", 0,
        "e56d78fa659d421f14c6485e142ac5813c5280ab1371c6979e437842fd9f2790"),
    Row("oracle-report-union-8-3", graph_bytes("union-8-3"), "oracle --report", 0,
        "39b779c9987a6d55efdebb61a2841e13ccdede855fea785d388990dc838277c7"),
    Row("oracle-sum-union-8-3", graph_bytes("union-8-3"), "oracle --sum", 0,
        "6989cd0ffcef3d5df3a6105678b78bd7a6155b709ee7c7a94561be1f515dfe1c"),
    Row("oracle-seq-cap4-union-8-3", graph_bytes("union-8-3"),
        "oracle --max-sequential --cap 4", 0,
        "a35586b0ee22bbf598936f56b7177dba1e0dc62ca0359792585c88877879c0d4"),
    Row("oracle-seq-cap4-report-union-8-3", graph_bytes("union-8-3"),
        "oracle --max-sequential --cap 4 --report", 0,
        "0abbfbea00b52544986a63d4288e5b22574a8ec2c519111318dc5c06aae761fd"),
    Row("seq-oracle-text-skipped-swap", graph_bytes("minus-matching-r3-swap"),
        "sequentialize --oracle", 0,
        "9f288b436ef19ff3be92b7aecaf7ef853f315f383c51646db6c07c00a1752e16"),
    Row("gen-complete-bipartite-3-4", None, "generate complete-bipartite 3 4", 0,
        "422344b30ee4125595a0f354ac8ac5e0e00d7a56f4ae4565a39f389c4eff9730"),
    Row("gen-biregular-4-3-seed7", None, "generate biregular 4 3 --seed 7", 0,
        "1b01009c481bf3933e8d2e314619c6c894b9d2cc858cae261ea733d9b6294941"),
    Row("gen-regular-class1-3-complete-g6", None,
        "generate regular-class1 3 --complete --format graph6", 0,
        "62073900de6d9451c02333f80b3c4de1105edb4559989fee6cfa91c1365d102b"),
    # (n, n_r, r) = (15, 6, 3) is (2r-1)k, (r-1)k at k = 3, so the biregular
    # form is printed too.
    Row("bound-15-6-3", None, "bound 15 6 3", 0,
        "dd2adaba7b7ffb13e9ed216209e573342bf4431e1a8cf78da2c648aca1868fdf"),
    Row("color-minus-r4", graph_bytes("minus-matching-r4"), "color", 0,
        "0c7730c9792f07c1d69c99100b13d6cfee9bee6a642f55817bcfcfd54f511c35"),
    # K_10 is not overfull and has too many edges for the exact solver;
    # Misra-Gries stops at its first edge that needs a tenth color (exit 4).
    Row("color-k10", graph_bytes("k10"), "color", 4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", err=TOO_LARGE),
    Row("vizing-k10", graph_bytes("k10"), "color --vizing", 0,
        "0dc75d7d710052b64141452a03ab04f1ddc2f2890ca659a050c67b4e91cb5c13"),
    Row("vizing-k16", graph_bytes("k16"), "color --vizing", 0,
        "470b512176a75616ae260cb9010ed5dcb67ef70c70295648e6d5f4426e735285"),
    Row("vizing-cubic-200", graph_bytes("cubic-200"), "color --vizing", 0,
        "dc518d1139933cd22f4fbece6d76115a430728121cd672e48961fb9c504bf340"),
    Row("vizing-union-r5", graph_bytes("union-80-5"), "color --vizing", 0,
        "bc5c00c29200f9f34bb0ed82402b32867a7d8ba6e83b03e66e1e8492d25f31a4"),
    Row("verify-minus-matching-r3-swap-intact", ("minus-matching-r3-swap", False), "verify", 0,
        "34f3f6c51db85891bf46267c19099ffc15b099136747909038926486d7151f55"),
    Row("verify-minus-matching-r3-swap-clash", ("minus-matching-r3-swap", True), "verify", 1,
        "e12a7c513002aa4b69ec2a479d177e1721ff2ffc275ff86c9b27f5b64db47566"),
    Row("verify-union-10-4-intact", ("union-10-4", False), "verify", 0,
        "b4d1f9e303c43f25e69d4ab9da8156b2c20c4ff8e26697c4b31a0e653af37133"),
    Row("verify-union-10-4-clash", ("union-10-4", True), "verify", 1,
        "bf4a163429b6fff22f3cc95b6cafa5043b06a5aef171b873ad8f83efda576468"),
    # K_{4,5} at the default cap runs both oracles.
    Row("k45-oracle", emit_edge_list(generate_complete_bipartite(4, 5)).encode(),
        "oracle --report", 0, out=r'^\{"record":"oracle_sum","value":60,'),
    # Petersen is Class 2: at cap 3 the max-sequential search finds no
    # coloring and refuses it (exit 3); at cap 4 it finds one.
    Row("petersen-oracle-cap3", PETERSEN, "oracle --report --cap 3", 3, err=CLASS_TWO),
    Row("petersen-oracle-cap4", PETERSEN, "oracle --report --cap 4", 0,
        out=r'^\{"record":"oracle_sequential",'),
    # At the default cap that search refuses it before any sum search
    # starts; the sum oracle alone still searches it.
    Row("petersen-oracle", PETERSEN, "oracle --report", 3, err=CLASS_TWO),
    Row("petersen-oracle-sum", PETERSEN, "oracle --report --sum", 0,
        out=r'^\{"record":"oracle_sum",'),
    # Petersen minus a vertex (degrees 2 and 3, two color blocks) is Class 2
    # without being overfull; the search refuses it too.
    Row("petersen-minus-vertex-oracle",
        b"9 12\n0 1\n1 2\n2 3\n4 6\n5 7\n6 8\n4 7\n5 8\n0 5\n1 6\n2 7\n3 8\n",
        "oracle --report", 3, err=CLASS_TWO),
    # sequentialize hands Petersen (not overfull, not bipartite, and
    # Misra-Gries needs a fourth color) to exact_chromatic_index, whose block
    # search refutes every 3-coloring before it finds a 4-coloring.
    Row("petersen-sequentialize", PETERSEN, "sequentialize --report", 3, err=CLASS_TWO),
    # K_{3,4} at cap 4 stops at its matching ceiling (4 sequential vertices);
    # at cap 5 the ceiling is n and is never reached.
    Row("k34-oracle-cap4", K34, "oracle --report --cap 4", 0,
        out=r'^\{"record":"oracle_sequential",'),
    Row("k34-oracle-cap5", K34, "oracle --report --cap 5", 0,
        out=r'^\{"record":"oracle_sequential",'),
    # The oracle's text is rendered from the same records.
    Row("k34-oracle-text", K34, "oracle --max-sequential --cap 4", 0,
        out=r"^max sequential set \(4 colors\): "),
    # run() hands --help and usage errors to argparse; its help and error
    # text are the same under -O.
    Row("help", K34, "sequentialize --help", 0, out=r"^usage: seqcolor sequentialize "),
    Row("usage-error", K34, "oracle --cap three", 2,
        err=r"^seqcolor oracle: error: argument --cap: invalid int value: 'three'$"),
    # Edgeless: the sum oracle returns before any search, and the
    # max-sequential one at its root.
    Row("edgeless-oracle", b"3 0\n", "oracle --report", 0,
        out=r'^\{"record":"oracle_sum","value":0,'),
    # K_4 minus an edge is not bipartite and Class 1, and Misra-Gries needs a
    # fourth color on it, so its 3-coloring comes from exact_chromatic_index.
    Row("k4-minus-edge-oracle", b"4 5\n0 1\n0 2\n0 3\n1 2\n1 3\n",
        "sequentialize --report --oracle", 0, out=r'^\{"record":"certificate",'),
    # The 9-prism minus one rung (18 vertices, 26 edges) is not bipartite and
    # has two degree-2 vertices; Misra-Gries decides it within 3 colors, so
    # its partition is read off Misra-Gries's own palette masks and its final
    # coloring is the one full check.
    Row("prism9-minus-rung",
        b"18 26\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n0 8\n9 10\n10 11\n11 12\n12 13\n"
        b"13 14\n14 15\n15 16\n16 17\n9 17\n1 10\n2 11\n3 12\n4 13\n5 14\n6 15\n7 16\n8 17\n",
        "sequentialize --report", 0, out=r'^\{"record":"certificate",'),
    # sequentialize stops on K_10 as color does (color-k10).
    Row("k10", emit_edge_list(generate_regular_class1(9, kind="complete")).encode(),
        "sequentialize --report", 4, err=TOO_LARGE),
    # graph6 at the largest single-byte size decodes and certifies; a payload
    # byte outside 63..126 and bytes that are not UTF-8 are parse errors
    # (exit 5), not tracebacks.
    Row("k31-31-graph6", (emit_graph6(generate_complete_bipartite(31, 31)) + "\n").encode(),
        "sequentialize --report --format graph6", 0, out=r'^\{"record":"certificate",'),
    Row("bad-graph6-payload", b"C>\n", "sequentialize --report --format graph6", 5,
        err=r"^error: invalid graph6 payload byte '>'$"),
    Row("not-utf8", b"\377\3764 6\n", "sequentialize --report", 5,
        err=r"^error: standard input is not UTF-8 text: "),
    # build_graph looks for repeats with one set after its loop, and before
    # it raises at an id out of range: the repeat comes first.
    Row("repeat-then-range", b"3 3\n0 1\n1 0\n0 5\n", "sequentialize --report", 5,
        err=r"^error: duplicate edge \(0, 1\)$"),
    # Colors 1 and 1 at vertex 1 leave its mask one bit short of its degree:
    # the popcount check fails and the edge scan names the clash (exit 1).
    Row("clash", b"t=2\n0 1 1\n1 2 1\n", "verify path3.txt", 1,
        out=r"^clash: color 1 repeats at vertex 1$"),
    # The one-scan readers hand any other text to the token and line loops: a
    # CRLF coloring and a tab-separated edge list are read, a literal null
    # does not forge a line end, and deep "[" nesting is a parse error
    # (exit 5), not a RecursionError.
    Row("crlf-coloring", b"t=2\r\n0 1 1\r\n1 2 2\r\n", "verify path3.txt", 0,
        out=r"^proper: ok$"),
    Row("forged-null", b"t=2\n0 1 1 null 1 2 2\n", "verify path3.txt", 5,
        err=r"^error: expected 'u v c', got '0 1 1 null 1 2 2'$"),
    Row("tab-separated", K34.replace(b" ", b"\t"), "sequentialize --report", 0,
        out=r'^\{"record":"certificate",'),
    Row("deep-nesting", b"2 1 " + b"[" * 5000, "sequentialize --report", 5,
        err=r"^error: non-integer token in edge list: "),
    # The text report writes its coloring block in one write.
    Row("k34-text", K34, "sequentialize", 0, out=r"^coloring \(t=4\):$"),
    # The vertex file (here stdin) is read by the one scan, and a token the
    # scan refuses goes to the token loop, which names it (exit 5).
    Row("vertices", b"0 1\n", "verify path3.txt path3-coloring.txt", 0,
        out=r"^sequential: ok on 2 vertices$"),
    Row("vertices-one", b"1\n", "verify path3.txt path3-coloring.txt", 0,
        "a873e21dc440e67bbc6b8c0849ffc100f906cddcb168bdef39f2d2642e1a01f7",
        out=r"^sequential: ok on 1 vertex$"),
    Row("bad-vertices", b"0 x\n", "verify path3.txt path3-coloring.txt", 5,
        err=r"^error: vertex file must contain integers: "),
    # One command at a time, through its options and refusals.
    Row("gen-complete-bipartite-2-3", None, "generate complete-bipartite 2 3", 0,
        "c06858eb87a154553a55163b0b77b75aa771d1bfa6e6d4a7c8f806929f64f5ef"),
    Row("gen-biregular-3-1-seed7", None, "generate biregular 3 1 --seed 7", 0,
        "eaaed1cd02a225c3987160d27c86c1dd3fd0b087705213dda8ca55b8ff7e2164"),
    Row("gen-regular-class1-3", None, "generate regular-class1 3", 0,
        "293f3e7299792f75e9faec61e70c42b0d3ab5b158899ab47126968184481baf6"),
    # 10 * (2 * 10 - 1) = 190 vertices: an oversize refusal (2), not I/O (5).
    Row("gen-graph6-190-vertices", None, "generate biregular 10 10 --seed 1 --format graph6", 2,
        EMPTY, err=r"\Aerror: graph6 output supports at most 62 vertices, got 190\n\Z"),
    Row("gen-biregular-no-seed", None, "generate biregular 3 1", 2,
        err=r"^error: biregular generation requires --seed$"),
    Row("gen-complete-bipartite-one-size", None, "generate complete-bipartite 2", 2,
        err=r"^error: complete-bipartite takes two sizes: a b$"),
    Row("gen-biregular-one-parameter", None, "generate biregular 3 --seed 1", 2, EMPTY,
        err=r"\Aerror: biregular takes two parameters: r k\n\Z"),
    Row("gen-regular-class1-no-parameter", None, "generate regular-class1", 2, EMPTY,
        err=r"\Aerror: regular-class1 takes one parameter: r\n\Z"),
    Row("color-k23", graph_bytes("k23"), "color", 0,
        "3f4af5f9cc33b7a5b6845c9758e876dca44c64ae54f931aba963e1cbc0b51a07", out=r"^t=3$"),
    Row("vizing-petersen", PETERSEN, "color --vizing", 0,
        "bbbf84f364d9d395c86c46d41e1ccea7d216ba8520be085f6162f14979a9d582", out=r"^t=4$"),
    Row("color-petersen", PETERSEN, "color", 3, err=CLASS_TWO),
    Row("seq-text-k4", graph_bytes("k4"), "sequentialize", 0,
        "d149ba0e9f02e600d4a33cb528da9166f8f9bef1cb5087fb157bc62d1243b7c2",
        out=r"^sequential vertices \(4, bound 4\): 0 1 2 3$"),
    Row("seq-oracle-k23", graph_bytes("k23"), "sequentialize --report --oracle", 0,
        "6fe8308e516645615f9230cfab6258c2ae50fc611dbdb58c5303ee97f2917329",
        out=r'^\{"record":"oracle_sequential","value":3,'),
    # K_{5,5} has 25 edges, above the exhaustive-search guard: the pipeline
    # still runs and the oracle is skipped, not refused.
    Row("seq-oracle-text-k55", graph_bytes("k55"), "sequentialize --oracle", 0,
        out=r"^oracle: skipped \(25 edges > 20; use --override-size\)$"),
    Row("seq-oracle-k55", graph_bytes("k55"), "sequentialize --report --oracle", 0,
        "7e3405205b777e1affca9e39f525cced6702744d8b36539763a098917fd1ff21",
        out=r'^\{"record":"sum_report",.*"exact_sum":null\}$'),
    Row("seq-star", graph_bytes("star-3"), "sequentialize", 2,
        err=r"^error: degree spread 2 exceeds 1$"),
    Row("petersen-sequentialize-text", PETERSEN, "sequentialize", 3, err=CLASS_TWO),
    Row("missing-file", None, "sequentialize /nonexistent/graph.txt", 5,
        err=r"^error: \[Errno 2\] No such file or directory: '/nonexistent/graph\.txt'$"),
    Row("garbage", b"not a graph\n", "sequentialize", 5,
        err=r"^error: non-integer token in edge list: .*'not'$"),
    # Bytes that are not UTF-8 in any input file are a parse error (exit 5).
    Row("not-utf8-graph", b"0 1\n", "verify bad.txt path3-coloring.txt", 5, EMPTY, err=NOT_UTF8),
    Row("not-utf8-coloring", b"0 1\n", "verify path3.txt bad.txt", 5, EMPTY, err=NOT_UTF8),
    Row("not-utf8-vertices", None, "verify path3.txt path3-coloring.txt bad.txt", 5, EMPTY,
        err=NOT_UTF8),
    Row("bound-5-2-3", None, "bound 5 2 3", 0,
        "672df460ba63627d89e9bb4ce9e2d89955404465d89ad7211b91570ef0ddb8ea",
        out=r"^biregular form:       3$"),
    Row("bound-4-4-3", None, "bound 4 4 3", 0,
        "a20676ba48111c63e46125796acb3afe844301321b3626b1451ece01e4f321d7",
        out=r"^biregular form:       -$"),
    Row("bound-6-6-3", None, "bound 6 6 3", 0,
        "a3ffc27e27faa0a6d050871fb418852531c09b757050e4fe17700133920f2800",
        out=r"^chromatic-sum bound:  18$"),
    Row("bound-n-r-above-n", None, "bound 4 5 3", 2,
        err=r"^error: need 0 <= n_r <= n, got n_r=5, n=4$"),
    Row("verify-k23-not-sequential", b"3\n", "verify k23.txt k23-coloring.txt", 1,
        "6f329d967aaf71b8a8da2bfeb4b41ae671791ebdb0ebfb49c35e36f50830954e",
        out=r"^not sequential at vertex 3$"),
    Row("verify-k23-proper-only", None, "verify k23.txt k23-coloring.txt", 0,
        "4c60b00bee9383286d929a679e008628c847b6757d058ca8d7953d565566ee37",
        out=r"^proper: ok$"),
    Row("verify-k23-gap", K23_COLORING.replace(b"1 4 3\n", b""), "verify k23.txt", 1,
        "fdfa3e98b0601a8cd0feff0d7a46691b6b341dce03e5896674bdd00ffd2d8053",
        out=r"^coverage mismatch: coloring does not cover 1 edge\(s\), e\.g\. \[\(1, 4\)\]$"),
    Row("verify-edge-not-in-graph", b"t=2\n0 1 1\n1 2 2\n2 3 1\n0 2 1\n", "verify path4.txt", 1,
        "fd51ab1b3206a00b081b36a9bce55cf3d719c697638278b3961186eaf5a7d093",
        out=r"^coverage mismatch: coloring names 1 edge\(s\) not in the graph"),
    # A repeated coloring line is a parse error (exit 5); a gap is a verdict
    # (exit 1).
    Row("verify-repeated-edge", b"t=2\n0 1 1\n1 2 2\n0 1 1\n", "verify path3.txt", 5,
        err=r"^error: edge \(0, 1\) colored twice$"),
    Row("verify-gap", b"t=2\n0 1 1\n", "verify path3.txt", 1, out=r"^coverage mismatch: "),
    Row("verify-intact", FILES["path3-coloring.txt"], "verify path3.txt", 0, out=r"^proper: ok$"),
    # The coloring is proper, so the vertex file alone is at fault, and no
    # verdict is printed.
    Row("verify-unknown-vertex", b"0 9\n", "verify path3.txt path3-coloring.txt", 5, EMPTY,
        err=r"^error: unknown vertices \[9\]$"),
    Row("verify-vertex-not-integer", b"0 x\n", "verify path3.txt path3-coloring.txt", 5, EMPTY,
        err=r"^error: vertex file must contain integers: invalid literal for int\(\) "
            r"with base 10: 'x'$"),
    Row("verify-vertex-file-absent", None, "verify path3.txt path3-coloring.txt absent.txt", 5,
        EMPTY, err=r"^error: \[Errno 2\] No such file or directory: 'absent\.txt'$"),
    Row("oracle-k23", graph_bytes("k23"), "oracle", 0,
        "e9067290c153e223cbfed44eb3f65cfcfa91c7ea82211d134bc8f0357f2fd07f",
        out=r"^max sequential set \(3 colors\): 3 "),
    Row("oracle-k4", graph_bytes("k4"), "oracle", 0,
        "7d117ce0cfa9337ee22db540909307e811ff9fd86b78f6f7f25c1f4d7d402778",
        out=r"^max sequential set \(3 colors\): 4 "),
    Row("oracle-k4-g6", b"C~\n", "oracle --format graph6", 0,
        "7d117ce0cfa9337ee22db540909307e811ff9fd86b78f6f7f25c1f4d7d402778", out=r"^exact sum: 12 "),
    Row("oracle-sum-k23", graph_bytes("k23"), "oracle --sum", 0,
        "cd9abfce1f3450c2d7027c75470c45112a2f587a40ff1c7d7420c34b12e1036b", out=r"^exact sum: 12 "),
    Row("oracle-report-k23", graph_bytes("k23"), "oracle --report", 0,
        "1a0c72f67e7b4a4fc2111ec2a0abfb6c731d38fdb1b431558c4d47e9a621b5cc",
        out=r'^\{"record":"oracle_sequential",'),
    Row("oracle-cap4-k4", graph_bytes("k4"), "oracle --max-sequential --cap 4", 0,
        "8bb339893d248734f0f772aeeeb6acc7bbb9bf0d0359cee3c0b255ccd1f6d538",
        out=r"^max sequential set \(4 colors\): 4 "),
    Row("oracle-path31", graph_bytes("path31"), "oracle", 2,
        err=r"^error: 30 edges exceeds the exhaustive-search guard of 20; "),
    # Past the interpreter's recursion depth even --override-size is refused
    # as oversize (exit 2), not left to a RecursionError.
    Row("oracle-seq-depth", graph_bytes("matching-1500"),
        "oracle --override-size --max-sequential", 2, EMPTY, err=DEPTH),
    Row("oracle-sum-depth", graph_bytes("matching-1500"), "oracle --override-size --sum", 2,
        EMPTY, err=DEPTH),
    # The search's color masks stop at max degree + m colors, so a cap of
    # 10**11 answers as 10**6 does; only the printed cap differs.
    Row("oracle-cap-1e6", graph_bytes("path4"), "oracle --cap 1000000", 0,
        "4788a4fd64dadab377df09828a9c716661305da3e3d8611336ae50a911daa997",
        out=r"^max sequential set \(1000000 colors\): 4 \(explored 8\): 0 1 2 3$"),
    Row("oracle-cap-1e11", graph_bytes("path4"), "oracle --cap 100000000000", 0,
        "218f6dc73c1d5f429054d347a0e4442dd7da0649a001f819509d961d658db280",
        out=r"^max sequential set \(100000000000 colors\): 4 \(explored 8\): 0 1 2 3$",
        err=r"\A\Z"),
    # The sum oracle alone searches a Class-2 graph (petersen-oracle-sum).
    Row("petersen-oracle-sum-text", PETERSEN, "oracle --sum", 0,
        "4c3e7f362ca512350beabd055b6229198fec20e159433c3a6daacf6d518f35f0",
        out=r"^exact sum: 33 \(explored 8379, cap stable: True\)$", err=r"\A\Z"),
]}

# Runs each (argv, stdin bytes) pickled in the file its argument names
# through cli.run, and pickles (stdout, stderr, exit code) per row to its
# stdout. argparse's exits are caught, and an uncaught error is reported as
# the interpreter would, with exit code 1.
CHILD = """
import io, pickle, sys, traceback
from pathlib import Path
from seqcolor.cli import run
results = []
for argv, data in pickle.loads(Path(sys.argv[1]).read_bytes()):
    sys.stdin = io.TextIOWrapper(io.BytesIO(data))
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = 1
        sys.stderr.write(traceback.format_exc())
    results.append((sys.stdout.getvalue(), sys.stderr.getvalue(), code))
pickle.dump(results, sys.__stdout__.buffer)
"""

FLAGS = ((), ("-O",))


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """Per flag, per row name, the row's (stdout, stderr, exit code)."""
    work = tmp_path_factory.mktemp("cli_table")
    for name, data in FILES.items():
        (work / name).write_bytes(data)
    calls = []
    for row in ROWS.values():
        argv, data = row.args.split(), b""
        if isinstance(row.input, bytes):
            argv, data = [*argv, "-"], row.input
        elif row.input:
            (work / row.name).mkdir()
            argv += certificate_files(work / row.name, *row.input)
        calls.append((argv, data))
    (work / "rows.pickle").write_bytes(pickle.dumps(calls))
    src = str(Path(__file__).resolve().parent.parent / "src")
    children = [subprocess.Popen([sys.executable, *flags, "-c", CHILD, "rows.pickle"], cwd=work,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 env=dict(os.environ, PYTHONPATH=src))
                for flags in FLAGS]
    found = {}
    for flags, child in zip(FLAGS, children):
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err.decode()
        found[flags] = dict(zip(ROWS, pickle.loads(out)))
    return found


@pytest.mark.parametrize("name", ROWS)
def test_cli_output_matches_golden(results, name):
    row = ROWS[name]
    plain, optimized = (results[flags][name] for flags in FLAGS)
    assert plain == optimized
    out, err, code = plain
    assert code == row.code, err
    assert row.sha256 is None or digest(out) == row.sha256
    assert row.out is None or re.search(row.out, out, re.MULTILINE)
    assert row.err is None or re.search(row.err, err, re.MULTILINE)


def test_swap_case_swaps(results):
    # At least one golden certificate must exercise a real transposition.
    out, _, code = results[()]["seq-report-swap"]
    assert code == 0 and json.loads(out.splitlines()[0])["swap_color"] is not None
