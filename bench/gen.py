"""Seeded workload inputs with a ground-truth chromatic class by construction.

Nothing here calls ``seqcolor``: every graph is built from disjoint matchings
or a closed-form family, so its class is known without running the program.

- A bipartite graph is Class 1 (Kőnig).
- A union of r pairwise disjoint perfect matchings is Class 1; removing part
  of one matching keeps it Class 1 while the maximum degree stays r.
- K_{2k} is Class 1 (round-robin tournament).
- A graph is Class 2 when it is overfull, m > Δ·⌊n/2⌋: every regular graph
  of odd order, e.g. K_{2k+1} and the circulant C_n(1, 2) with n odd. The
  Petersen graph is Class 2 without being overfull.

All generators run in time linear in the edge count (plus the O(1) expected
swaps of the matching repair) and draw only from the ``random.Random`` they
are given, so one seed always yields the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

REPAIR_TRIES = 10_000
RESTARTS = 100


class _Stuck(Exception):
    """The matchings drawn so far admit no disjoint completion."""


@dataclass(frozen=True)
class Instance:
    """One input graph with what the checker must know about it.

    ``klass`` is the chromatic class known by construction (1 or 2), ``r``
    the maximum degree and ``fmt`` the CLI ``--format`` the text is written
    in. ``edges`` is the order the edge list presents to the program.
    """

    name: str
    n: int
    edges: tuple[tuple[int, int], ...]
    klass: int
    r: int
    fmt: str = "edges"

    @property
    def m(self) -> int:
        return len(self.edges)

    def text(self) -> str:
        if self.fmt == "graph6":
            return graph6(self.n, self.edges) + "\n"
        lines = [f"{self.n} {self.m}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"


def graph6(n: int, edges) -> str:
    """Encode a graph with n <= 62 vertices as a graph6 string (no header)."""
    if n > 62:
        raise ValueError("graph6 single-byte size holds at most 62 vertices")
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits.extend([0] * (-len(bits) % 6))
    out = [chr(63 + n)]
    for pos in range(0, len(bits), 6):
        val = 0
        for bit in bits[pos:pos + 6]:
            val = (val << 1) | bit
        out.append(chr(63 + val))
    return "".join(out)


def _key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _bijection(rng: random.Random, xs, ys, taken: set) -> list[tuple[int, int]]:
    # A random perfect matching between equal-size lists xs and ys avoiding
    # the edges in ``taken``: shuffle, then swap partners of clashing pairs.
    ys = list(ys)
    rng.shuffle(ys)
    size = len(xs)
    for i in range(size):
        tries = 0
        while _key(xs[i], ys[i]) in taken:
            j = rng.randrange(size)
            if _key(xs[i], ys[j]) not in taken and _key(xs[j], ys[i]) not in taken:
                ys[i], ys[j] = ys[j], ys[i]
            tries += 1
            if tries > REPAIR_TRIES:
                raise _Stuck
    return [_key(x, y) for x, y in zip(xs, ys)]


def _pairing(rng: random.Random, vertices, taken: set) -> list[tuple[int, int]]:
    # A random perfect matching on an even vertex list avoiding ``taken``:
    # pair a shuffle, then re-pair a clashing pair with a random other pair.
    vs = list(vertices)
    rng.shuffle(vs)
    pairs = [[vs[i], vs[i + 1]] for i in range(0, len(vs), 2)]
    for i, pair in enumerate(pairs):
        tries = 0
        while _key(*pair) in taken:
            other = pairs[rng.randrange(len(pairs))]
            if other is not pair:
                a, b = pair
                c, d = other
                if rng.random() < 0.5:
                    c, d = d, c
                if _key(a, c) not in taken and _key(b, d) not in taken:
                    pair[1], other[0], other[1] = c, b, d
            tries += 1
            if tries > REPAIR_TRIES:
                raise _Stuck
    return [_key(a, b) for a, b in pairs]


def _disjoint(build, count: int) -> list[list[tuple[int, int]]]:
    # Draw ``count`` pairwise disjoint matchings, starting over when a dense
    # instance (K_6 as five perfect matchings, say) gets stuck.
    for _ in range(RESTARTS):
        taken: set = set()
        matchings = []
        try:
            for i in range(count):
                matching = build(i, taken)
                taken.update(matching)
                matchings.append(matching)
        except _Stuck:
            continue
        return matchings
    raise RuntimeError("no disjoint matchings found")


def _relabel(rng: random.Random, n: int, edges, shuffle_edges: bool):
    perm = list(range(n))
    rng.shuffle(perm)
    out = [_key(perm[u], perm[v]) for u, v in edges]
    if shuffle_edges:
        rng.shuffle(out)
    return tuple(out)


def biregular(rng: random.Random, r: int, k: int, name: str, fmt: str = "edges") -> Instance:
    """A random (r-1, r)-biregular bipartite graph: (r-1)k vertices of degree r
    against rk of degree r-1, as r matchings that each skip one block of k."""
    nx_, ny_ = (r - 1) * k, r * k
    xs = list(range(nx_))
    ys = list(range(nx_, nx_ + ny_))
    rng.shuffle(ys)
    blocks = [ys[i * k:(i + 1) * k] for i in range(r)]

    def build(i, taken):
        skipped = set(blocks[i])
        return _bijection(rng, xs, [y for y in ys if y not in skipped], taken)

    edges = [e for mt in _disjoint(build, r) for e in mt]
    return Instance(name, nx_ + ny_, _relabel(rng, nx_ + ny_, edges, True), 1, r, fmt)


def bipartite_minus_matching(
    rng: random.Random, r: int, half: int, removed: int, name: str, fmt: str = "edges"
) -> Instance:
    """An r-regular bipartite graph on half + half vertices with ``removed``
    edges of one perfect matching deleted, leaving degree r-1 on both sides."""
    xs = list(range(half))
    ys = list(range(half, 2 * half))
    matchings = _disjoint(lambda i, taken: _bijection(rng, xs, ys, taken), r)
    last = matchings[-1]
    rng.shuffle(last)
    edges = [e for mt in matchings[:-1] for e in mt] + last[removed:]
    return Instance(name, 2 * half, _relabel(rng, 2 * half, edges, True), 1, r, fmt)


def complete_bipartite(rng: random.Random, a: int, b: int, name: str, fmt: str = "edges") -> Instance:
    edges = [(x, a + y) for x in range(a) for y in range(b)]
    return Instance(name, a + b, _relabel(rng, a + b, edges, True), 1, max(a, b), fmt)


def matching_union(
    rng: random.Random, n: int, r: int, removed: int, name: str, fmt: str = "edges"
) -> Instance:
    """r disjoint random perfect matchings on n (even) vertices, the last one
    missing ``removed`` edges, with labels and edge order shuffled. Redrawn
    until it has an odd cycle, so the program cannot take the bipartite path."""
    while True:
        matchings = _disjoint(lambda i, taken: _pairing(rng, range(n), taken), r)
        rng.shuffle(matchings[-1])
        edges = [e for mt in matchings[:-1] for e in mt] + matchings[-1][removed:]
        if not _is_bipartite(n, edges):
            break
    return Instance(name, n, _relabel(rng, n, edges, True), 1, r, fmt)


def complete_edges(n: int) -> list[tuple[int, int]]:
    """K_n: Class 1 for even n, overfull Class 2 for odd n."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def circulant_edges(n: int) -> list[tuple[int, int]]:
    """C_n(1, 2) with n odd: 4-regular of odd order, hence overfull Class 2."""
    if n % 2 == 0 or n < 7:
        raise ValueError("need odd n >= 7")
    return [_key(i, (i + s) % n) for i in range(n) for s in (1, 2)]


def complete(rng: random.Random, n: int, name: str, fmt: str = "edges") -> Instance:
    edges = _relabel(rng, n, complete_edges(n), True)
    return Instance(name, n, edges, 1 if n % 2 == 0 else 2, n - 1, fmt)


def circulant_odd(rng: random.Random, n: int, name: str, fmt: str = "edges") -> Instance:
    return Instance(name, n, _relabel(rng, n, circulant_edges(n), True), 2, 4, fmt)


PETERSEN = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
            (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
            (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]


def petersen(rng: random.Random, name: str, fmt: str = "edges") -> Instance:
    """The Petersen graph: cubic, Class 2, not overfull."""
    return Instance(name, 10, _relabel(rng, 10, PETERSEN, True), 2, 3, fmt)


def fixed(n: int, edges, klass: int, name: str) -> Instance:
    """A graph exactly as given, for the oracle's named instances."""
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return Instance(name, n, tuple(_key(u, v) for u, v in edges), klass, max(degree))


def _is_bipartite(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    side = [-1] * n
    for start in range(n):
        if side[start] != -1:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if side[w] == -1:
                    side[w] = 1 - side[v]
                    stack.append(w)
                elif side[w] == side[v]:
                    return False
    return True
