"""Independent output checks: no ``seqcolor`` code runs here.

Every function takes the instance the benchmark generated and the text the
CLI printed, and returns ``None`` when the output is right or a one-line
reason when it is wrong. The small exhaustive solvers at the bottom recompute
oracle optima from scratch, for graphs of a dozen edges or so.
"""

from __future__ import annotations

import json


def sequential_bound(n: int, n_r: int, r: int) -> int:
    """ceil(((r-1)*n_r + n) / r), the guaranteed certified-set size."""
    return -(-((r - 1) * n_r + n) // r)


def sum_bound(n: int, n_r: int, r: int) -> int:
    """floor((2*n_r*(2r-1) + n*(r-1)*(r^2+2r-2)) / (4r)), the sum bound."""
    return (2 * n_r * (2 * r - 1) + n * (r - 1) * (r * r + 2 * r - 2)) // (4 * r)


def degrees(n: int, edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def parse_lines(lines, t: int) -> dict | str:
    """Map each "u v c" line to {(min, max): c}; a reason string on bad input."""
    colors: dict = {}
    for line in lines:
        fields = line.split()
        if len(fields) != 3:
            return f"bad coloring line {line!r}"
        u, v, c = (int(f) for f in fields)
        key = (u, v) if u < v else (v, u)
        if key in colors:
            return f"edge {key} colored twice"
        if not 1 <= c <= t:
            return f"color {c} outside 1..{t}"
        colors[key] = c
    return colors


def coloring_problem(n: int, edges, colors: dict) -> str | None:
    """Each input edge colored exactly once, nothing else colored, no clash."""
    if len(colors) != len(edges):
        return f"{len(colors)} colored edges for {len(edges)} input edges"
    seen: list[set] = [set() for _ in range(n)]
    for u, v in edges:
        c = colors.get((u, v) if u < v else (v, u))
        if c is None:
            return f"edge ({u}, {v}) is not colored"
        if c in seen[u] or c in seen[v]:
            return f"color {c} repeats at an endpoint of ({u}, {v})"
        seen[u].add(c)
        seen[v].add(c)
    return None


def sequential_vertices(n: int, edges, colors: dict) -> set[int]:
    """Vertices whose incident colors are exactly 1..deg(v), for a proper coloring."""
    high = [0] * n
    for (u, v), c in colors.items():
        high[u] = max(high[u], c)
        high[v] = max(high[v], c)
    deg = degrees(n, edges)
    return {v for v in range(n) if high[v] == deg[v]}


def check_certificate(inst, stdout: str) -> str | None:
    """Check the ``sequentialize --report`` records against the instance."""
    try:
        records = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except ValueError:
        return "report is not line-delimited JSON"
    if len(records) != 2 or records[0].get("record") != "certificate":
        return "expected a certificate and a sum_report record"
    cert, report = records
    deg = degrees(inst.n, inst.edges)
    r = max(deg)
    n_r = deg.count(r)
    if (cert["n"], cert["r"], cert["n_r"], cert["t"]) != (inst.n, r, n_r, r):
        return "certificate header disagrees with the instance"
    colors = parse_lines(cert["coloring"], r)
    if isinstance(colors, str):
        return colors
    problem = coloring_problem(inst.n, inst.edges, colors)
    if problem:
        return problem
    certified = cert["sequential_vertices"]
    if len(set(certified)) != len(certified) or cert["size"] != len(certified):
        return "certified set has repeats or a wrong size"
    if not all(isinstance(v, int) and 0 <= v < inst.n for v in certified):
        return "certified set names an unknown vertex"
    bad = set(certified) - sequential_vertices(inst.n, inst.edges, colors)
    if bad:
        return f"certified vertex {min(bad)} is not sequential"
    if len(certified) < sequential_bound(inst.n, n_r, r) or not cert["verified"]:
        return "certified set is below the guaranteed bound"
    if report.get("record") != "sum_report":
        return "missing sum_report record"
    actual = sum(colors.values())
    if report["actual_sum"] != actual or actual > sum_bound(inst.n, n_r, r):
        return f"sum {report['actual_sum']} disagrees with {actual} or the bound"
    if report["bound"] != sum_bound(inst.n, n_r, r):
        return "reported sum bound is wrong"
    return None


def check_verify_output(stdout: str, certified_count: int) -> str | None:
    """``seqcolor verify`` on a good certificate accepts both checks."""
    expected = f"proper: ok\nsequential: ok on {certified_count} vertices\n"
    return None if stdout == expected else f"verify printed {stdout[:80]!r}"


def check_oracle(inst, stdout: str, golden: tuple[int, int]) -> str | None:
    """Check ``oracle --report`` witnesses and values against (sum, max-seq)."""
    try:
        records = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except ValueError:
        return "report is not line-delimited JSON"
    if [rec.get("record") for rec in records] != ["oracle_sum", "oracle_sequential"]:
        return "expected oracle_sum and oracle_sequential records"
    total, seq = records
    colors = parse_lines(total["witness"], total["t"])
    if isinstance(colors, str):
        return colors
    problem = coloring_problem(inst.n, inst.edges, colors)
    if problem:
        return "sum witness: " + problem
    if sum(colors.values()) != total["value"] or total["value"] != golden[0]:
        return f"sum value {total['value']} is not the golden {golden[0]}"
    r = max(degrees(inst.n, inst.edges))
    if seq["t"] != r:
        return "sequential witness uses a wrong color count"
    colors = parse_lines(seq["witness"], r)
    if isinstance(colors, str):
        return colors
    problem = coloring_problem(inst.n, inst.edges, colors)
    if problem:
        return "sequential witness: " + problem
    found = sequential_vertices(inst.n, inst.edges, colors)
    if set(seq["sequential_vertices"]) != found or seq["value"] != len(found):
        return "sequential set disagrees with its witness"
    if seq["value"] != golden[1]:
        return f"max sequential set {seq['value']} is not the golden {golden[1]}"
    return None


def invariant(n: int, edges) -> str:
    """An isomorphism invariant that keys golden census values: per vertex its
    degree, sorted neighbour degrees and triangle count, sorted."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    rows = sorted(
        (len(adj[v]), tuple(sorted(len(adj[w]) for w in adj[v])),
         sum(1 for w in adj[v] for x in adj[w] if x in adj[v]) // 2)
        for v in range(n)
    )
    return json.dumps(rows, separators=(",", ":"))


def min_color_sum(n: int, edges) -> int:
    """Minimum total edge color over all proper colorings, by branch and bound.

    An optimal coloring never uses a color above deg(u) + deg(v) - 1 on (u, v),
    which bounds the branching; a greedy coloring gives the first incumbent.
    """
    deg = degrees(n, edges)
    order = sorted(edges, key=lambda e: -(deg[e[0]] + deg[e[1]]))
    used = [0] * n
    best = 0
    for u, v in order:
        c = 1
        while (used[u] | used[v]) >> c & 1:
            c += 1
        used[u] |= 1 << c
        used[v] |= 1 << c
        best += c
    used = [0] * n
    pending = list(deg)
    m = len(order)

    def rest() -> int:
        # Each vertex's uncolored edges need distinct colors it lacks so far;
        # summed over vertices this counts every edge twice.
        doubled = 0
        for v in range(n):
            c, need = 1, pending[v]
            while need:
                if not used[v] >> c & 1:
                    doubled += c
                    need -= 1
                c += 1
        return (doubled + 1) // 2

    def descend(i: int, partial: int) -> None:
        nonlocal best
        if partial + rest() >= best:
            return
        if i == m:
            best = partial
            return
        u, v = order[i]
        pending[u] -= 1
        pending[v] -= 1
        for c in range(1, deg[u] + deg[v]):
            bit = 1 << c
            if (used[u] | used[v]) & bit:
                continue
            used[u] |= bit
            used[v] |= bit
            descend(i + 1, partial + c)
            used[u] ^= bit
            used[v] ^= bit
        pending[u] += 1
        pending[v] += 1

    descend(0, 0)
    return best


def max_sequential(n: int, edges, r: int) -> int | None:
    """Most sequential vertices over proper r-colorings; None if none exists."""
    deg = degrees(n, edges)
    used = [0] * n
    lost = [0] * n
    best = -1
    m = len(edges)

    def descend(i: int, alive: int) -> None:
        nonlocal best
        if alive <= best:
            return
        if i == m:
            best = alive
            return
        u, v = edges[i]
        for c in range(1, r + 1):
            bit = 1 << c
            if (used[u] | used[v]) & bit:
                continue
            used[u] |= bit
            used[v] |= bit
            drop = 0
            for w in (u, v):
                if c > deg[w]:
                    lost[w] += 1
                    drop += lost[w] == 1
            descend(i + 1, alive - drop)
            for w in (u, v):
                if c > deg[w]:
                    lost[w] -= 1
            used[u] ^= bit
            used[v] ^= bit
            if best == n:
                return

    descend(0, n)
    return None if best < 0 else best
