"""Byte-identity of the CLI's stdout and exit codes on a fixed, seeded corpus.

Every case builds its input here, from its own seed, without the library's
generators (whose seeds may map to new graphs), runs ``seqcolor.cli.run``
in-process and compares the sha256 of stdout and the exit code with values
recorded from the dict-based coloring core that preceded the edge-indexed
one; the ``generate``, ``oracle`` and text-mode ``--oracle`` cases were
recorded from the code that still stored a bipartition per graph and a
``cap_stable`` field per oracle result, and ``vizing-union-r5`` from the
Misra–Gries that rescanned the edges at u for every fan step, and ``seq-report-62-g6``
from the per-bit graph6 decoder. ``oracle-sum-*``, ``oracle-seq-cap4-*``
and ``seq-oracle-text-skipped-swap`` were recorded from the text renderer
that read the certificate and oracle objects instead of their records. A
rewrite of the core that changes a single output byte fails here.
"""

import hashlib
import json
import random

import pytest

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


def matching_union(seed, n, r):
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
    "union-8-3": lambda: matching_union(5, 8, 3),
    "union-10-4": lambda: matching_union(6, 10, 4),
    "k10": lambda: complete(10),
    "k16": lambda: complete(16),
    "cubic-200": lambda: matching_union(7, 200, 3),
    "union-80-5": lambda: matching_union(8, 80, 5),
    "minus-matching-62-r4": lambda: regular_minus_matching(62, 4, 31, 11),
}

# (graph, command, extra arguments, graph6 input?); a case without a graph
# reads no input.
CASES = {
    "seq-report-biregular-r3": ("biregular-r3", "sequentialize", ["--report"], False),
    "seq-text-biregular-r3": ("biregular-r3", "sequentialize", [], False),
    "seq-report-biregular-r5-g6": ("biregular-r5", "sequentialize", ["--report"], True),
    "seq-report-minus-r4": ("minus-matching-r4", "sequentialize", ["--report"], False),
    "seq-text-minus-r4": ("minus-matching-r4", "sequentialize", [], False),
    "seq-report-swap": ("minus-matching-r3-swap", "sequentialize", ["--report"], False),
    "seq-text-swap": ("minus-matching-r3-swap", "sequentialize", [], False),
    "seq-report-swap1-g6": ("minus-matching-r3-swap1", "sequentialize", ["--report"], True),
    "seq-report-62-g6": ("minus-matching-62-r4", "sequentialize", ["--report"], True),
    "seq-report-k6": ("k6", "sequentialize", ["--report"], False),
    "seq-text-k6-g6": ("k6", "sequentialize", [], True),
    "seq-report-union-8-3": ("union-8-3", "sequentialize", ["--report"], False),
    "seq-text-union-10-4": ("union-10-4", "sequentialize", [], False),
    "seq-oracle-union-8-3": ("union-8-3", "sequentialize", ["--report", "--oracle"], False),
    "seq-oracle-text-union-8-3": ("union-8-3", "sequentialize", ["--oracle"], False),
    "oracle-union-8-3": ("union-8-3", "oracle", [], False),
    "oracle-report-union-8-3": ("union-8-3", "oracle", ["--report"], False),
    "oracle-sum-union-8-3": ("union-8-3", "oracle", ["--sum"], False),
    "oracle-seq-cap4-union-8-3": (
        "union-8-3", "oracle", ["--max-sequential", "--cap", "4"], False),
    "oracle-seq-cap4-report-union-8-3": (
        "union-8-3", "oracle", ["--max-sequential", "--cap", "4", "--report"], False),
    "seq-oracle-text-skipped-swap": ("minus-matching-r3-swap", "sequentialize", ["--oracle"], False),
    "gen-complete-bipartite-3-4": (None, "generate", ["complete-bipartite", "3", "4"], False),
    "gen-biregular-4-3-seed7": (None, "generate", ["biregular", "4", "3", "--seed", "7"], False),
    "gen-regular-class1-3-complete-g6": (
        None, "generate", ["regular-class1", "3", "--complete", "--format", "graph6"], False),
    "color-minus-r4": ("minus-matching-r4", "color", [], False),
    "color-k10": ("k10", "color", [], False),
    "vizing-k10": ("k10", "color", ["--vizing"], False),
    "vizing-k16": ("k16", "color", ["--vizing"], False),
    "vizing-cubic-200": ("cubic-200", "color", ["--vizing"], False),
    "vizing-union-r5": ("union-80-5", "color", ["--vizing"], False),
}

# sha256 of stdout and the exit code of each case. The max-sequential
# "explored" in oracle-report-union-8-3, oracle-union-8-3 and
# seq-oracle-union-8-3 counts the search with its color block rule: 30 nodes,
# 33 without it; every other byte of those records is unchanged.
GOLDEN = {
    "color-k10": (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "color-minus-r4": (0, "0c7730c9792f07c1d69c99100b13d6cfee9bee6a642f55817bcfcfd54f511c35"),
    "gen-biregular-4-3-seed7": (0, "1b01009c481bf3933e8d2e314619c6c894b9d2cc858cae261ea733d9b6294941"),
    "gen-complete-bipartite-3-4": (0, "422344b30ee4125595a0f354ac8ac5e0e00d7a56f4ae4565a39f389c4eff9730"),
    "gen-regular-class1-3-complete-g6": (0, "62073900de6d9451c02333f80b3c4de1105edb4559989fee6cfa91c1365d102b"),
    "oracle-report-union-8-3": (0, "39b779c9987a6d55efdebb61a2841e13ccdede855fea785d388990dc838277c7"),
    "oracle-seq-cap4-report-union-8-3": (0, "0abbfbea00b52544986a63d4288e5b22574a8ec2c519111318dc5c06aae761fd"),
    "oracle-seq-cap4-union-8-3": (0, "a35586b0ee22bbf598936f56b7177dba1e0dc62ca0359792585c88877879c0d4"),
    "oracle-sum-union-8-3": (0, "6989cd0ffcef3d5df3a6105678b78bd7a6155b709ee7c7a94561be1f515dfe1c"),
    "oracle-union-8-3": (0, "e56d78fa659d421f14c6485e142ac5813c5280ab1371c6979e437842fd9f2790"),
    "seq-oracle-text-skipped-swap": (0, "9f288b436ef19ff3be92b7aecaf7ef853f315f383c51646db6c07c00a1752e16"),
    "seq-oracle-text-union-8-3": (0, "41dc599a44f82f17a68dedfab428fc4788e470ceb8233929315a85adce9f6298"),
    "seq-oracle-union-8-3": (0, "37eaad3b1571e8bdc37feed0555d218be9d0c1c2ccdd473fc8946d22008328b6"),
    "seq-report-62-g6": (0, "fdee9a2c177d05f4e348191986966ae9365f74e3b96b76651c4ee10cc46cb8e6"),
    "seq-report-biregular-r3": (0, "3ed911ed569f555e6280788e1dc9c56ad21d6725fbb0f4e2a909ca36d65355a2"),
    "seq-report-biregular-r5-g6": (0, "e1ecd2d28475a6bae5c8cb4a800f3d666d8a00e2341750a36442d2678f5b4be8"),
    "seq-report-k6": (0, "d9ee7416b52c215e9e49cbbc42965d6908b98ceb8b9458f05d1231a8e4e3a823"),
    "seq-report-minus-r4": (0, "b4f866fd4107e153e2eb3923f2e35d6d47d059cd4f8d3e7600a9cc57c5df1757"),
    "seq-report-swap": (0, "f5b8578afd6f3fe87a1d10f8b725ee60816b1c3598b01328aa5d1a285f2fbfb0"),
    "seq-report-swap1-g6": (0, "a98fcd01bb624dd34d2e63f4045c97647d9af97b1b52001c6778cf5bea4ea5b8"),
    "seq-report-union-8-3": (0, "9265ea5abe1d0947c90fbf73e89dffdc85865be0e8b5e254ece691d207d31be9"),
    "seq-text-biregular-r3": (0, "bc2a6e4bc4c180aa19d5d60df71788e5aa89d23b2ea9d5a50ed5c67df1cda62b"),
    "seq-text-k6-g6": (0, "052d1089c4c9c9d7fd22ecf417f839609a113ce084ad37cbc776d648ce9d6cd7"),
    "seq-text-minus-r4": (0, "fd8e44c47e3b59a0f08098be7c640437e95e6692da4181346d5fdadd243a0e17"),
    "seq-text-swap": (0, "a2744cbc3680902cc7e57c3e5246377cef869da6aa9b57b0ca8549e671e8a6dc"),
    "seq-text-union-10-4": (0, "76f8a25fc6359c99d50a2adcce1e375500e94bac79fa0a44655d17e0fe0f259f"),
    "verify-minus-matching-r3-swap-clash": (1, "e12a7c513002aa4b69ec2a479d177e1721ff2ffc275ff86c9b27f5b64db47566"),
    "verify-minus-matching-r3-swap-intact": (0, "34f3f6c51db85891bf46267c19099ffc15b099136747909038926486d7151f55"),
    "verify-union-10-4-clash": (1, "bf4a163429b6fff22f3cc95b6cafa5043b06a5aef171b873ad8f83efda576468"),
    "verify-union-10-4-intact": (0, "b4d1f9e303c43f25e69d4ab9da8156b2c20c4ff8e26697c4b31a0e653af37133"),
    "vizing-cubic-200": (0, "dc518d1139933cd22f4fbece6d76115a430728121cd672e48961fb9c504bf340"),
    "vizing-k10": (0, "0dc75d7d710052b64141452a03ab04f1ddc2f2890ca659a050c67b4e91cb5c13"),
    "vizing-k16": (0, "470b512176a75616ae260cb9010ed5dcb67ef70c70295648e6d5f4426e735285"),
    "vizing-union-r5": (0, "bc5c00c29200f9f34bb0ed82402b32867a7d8ba6e83b03e66e1e8492d25f31a4"),
}


def invoke(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def write_graph(tmp_path, name, graph6):
    n, edges = GRAPHS[name]()
    path = tmp_path / f"{name}.{'g6' if graph6 else 'txt'}"
    path.write_text(graph6_text(n, edges) if graph6 else edge_list_text(n, edges))
    return str(path)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path, capsys):
    graph, command, extra, graph6 = CASES[case]
    inputs = [write_graph(tmp_path, graph, graph6)] if graph else []
    argv = [command, *extra, *(["--format", "graph6"] if graph6 else []), *inputs]
    code, out = invoke(argv, capsys)
    assert (code, digest(out)) == GOLDEN[case]


def certificate_files(tmp_path, graph, capsys, corrupt=False):
    path = write_graph(tmp_path, graph, False)
    code, out = invoke(["sequentialize", "--report", path], capsys)
    assert code == 0
    cert = json.loads(out.splitlines()[0])
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


@pytest.mark.parametrize("graph", ["minus-matching-r3-swap", "union-10-4"])
@pytest.mark.parametrize("corrupt", [False, True], ids=["intact", "clash"])
def test_verify_output_matches_golden(graph, corrupt, tmp_path, capsys):
    files = certificate_files(tmp_path, graph, capsys, corrupt)
    code, out = invoke(["verify", *files], capsys)
    assert (code, digest(out)) == GOLDEN[f"verify-{graph}-{'clash' if corrupt else 'intact'}"]


def test_swap_case_swaps(tmp_path, capsys):
    # At least one golden certificate must exercise a real transposition.
    path = write_graph(tmp_path, "minus-matching-r3-swap", False)
    code, out = invoke(["sequentialize", "--report", path], capsys)
    assert code == 0 and json.loads(out.splitlines()[0])["swap_color"] is not None
