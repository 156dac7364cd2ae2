"""The four workloads: seeded job lists, the closed loop that runs them, and
the verdict on every output.

One client, one process, no threads: each operation is a ``seqcolor.cli.run``
call (the census, which has no CLI, is a library call) whose stdout and
stderr are captured in memory. Only that call is inside the timed region;
writing input files and checking outputs happen outside it.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import check
import gen
import spans

CENSUS_EDGES = 10
CROSS_CHECK_EDGES = 8
CROSS_CHECK_CLASSES = 20
HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden.json").read_text())


# -- job lists ----------------------------------------------------------------


def bulk_biregular(rng: random.Random) -> list[gen.Instance]:
    """Six bipartite graphs of 11k to 24k edges, r = 3, 4, 5: three
    (r-1, r)-biregular and three r-regular with part of one perfect matching
    deleted."""
    return [
        gen.biregular(rng, 3, 4_000, "biregular-r3"),
        gen.biregular(rng, 4, 1_200, "biregular-r4"),
        gen.biregular(rng, 5, 600, "biregular-r5"),
        gen.bipartite_minus_matching(rng, 3, 8_000, 2_000, "regular-minus-r3"),
        gen.bipartite_minus_matching(rng, 4, 3_500, 1_000, "regular-minus-r4"),
        gen.bipartite_minus_matching(rng, 5, 2_400, 600, "regular-minus-r5"),
    ]


SMALL_COUNT = 1000
DRAWS = 20


def _small(rng: random.Random, i: int) -> gen.Instance:
    # Sizes and families depend on the index only, so every seed asks for the
    # same amount of work; the seed draws the structure and the labels.
    fmt = "graph6" if i % 2 else "edges"
    kind, step = i % 20, i // 20
    name = f"small-{i}"
    if kind < 6:
        r = 3 + kind % 3
        top = 62 // (2 * r - 1) if fmt == "graph6" else 400 // (r * (r - 1))
        return gen.biregular(rng, r, 1 + step % top, name, fmt)
    if kind < 10:
        r = 3 + kind % 3
        span = (31 if fmt == "graph6" else 400 // r) - r
        half = r + 1 + step % span
        return gen.bipartite_minus_matching(rng, r, half, 1 + step % (half - 1), name, fmt)
    if kind < 13:
        a = 3 + step % 18
        return gen.complete_bipartite(rng, a - kind % 2, a, name, fmt)
    if kind < 17:
        n, r = UNION_SIZES[(step + kind) % len(UNION_SIZES)]
        return gen.matching_union(rng, n, r, step % (n // 2), name, fmt)
    which = (step + kind) % 4
    if which == 0:
        return gen.petersen(rng, name, fmt)
    if which == 1:
        return gen.complete(rng, 5, name)  # one labeled K_5 only: no graph6
    return gen.circulant_odd(rng, 7 if which == 2 else 9, name, fmt)


UNION_SIZES = ((6, 3), (8, 3), (10, 3), (12, 3), (6, 5), (8, 4), (10, 4), (8, 5))


def small_mixed(rng: random.Random) -> list[gen.Instance]:
    """1,000 distinct graphs of 6 to 400 edges, half graph6 and half edge lists."""
    seen: set[str] = set()
    out = []
    for i in range(SMALL_COUNT):
        for attempt in range(DRAWS):
            inst = _small(rng, i)
            if attempt == DRAWS - 1:
                # A graph with few labelings (K_6, say) has few graph6 texts;
                # an edge list in shuffled order is always new.
                inst = replace(inst, fmt="edges", edges=tuple(rng.sample(inst.edges, inst.m)))
            text = inst.text()
            if text not in seen:
                break
        else:
            raise RuntimeError(f"no distinct instance for index {i}")
        seen.add(text)
        out.append(inst)
    return out


NONBIPARTITE_SMALL = ((8, 3), (10, 4), (6, 5), (8, 5))


def nonbipartite(rng: random.Random) -> list[gen.Instance]:
    """34 non-bipartite near-regular graphs of 12 to 20,000 edges.

    The matching unions are drawn from the seed, in shuffled edge order. The
    four small ones (at most 20 edges) are within reach of the exact
    fallback, so they are the certificates this workload re-checks; the
    large ones are Class 1 as well but only Misra-Gries could certify them.
    The complete and circulant graphs get one fixed shuffle of labels and
    edge order, the same for every seed: Misra-Gries' work on them swings by
    30% from one order to another (and by 50x on C_n(1, 2) in its natural
    order).
    """
    out = []
    for r, n_full, n_cut in ((3, 6000, 800), (4, 5000, 1200), (5, 8000, 1000), (6, 3000, 1600)):
        for tag in ("a", "b"):
            out.append(gen.matching_union(rng, n_full, r, 0, f"union-r{r}-{tag}"))
            out.append(gen.matching_union(rng, n_cut, r, n_cut // 4, f"union-r{r}-cut-{tag}"))
    for n, r in NONBIPARTITE_SMALL:
        out.append(gen.matching_union(rng, n, r, 0, f"union-r{r}-n{n}"))
    for n in (8, 16, 24, 32, 40, 48, 64, 9, 33, 63):
        out.append(gen.complete(random.Random(n), n, f"K{n}"))
    for n in (251, 1001, 2501, 4999):
        out.append(gen.circulant_odd(random.Random(n), n, f"C{n}(1,2)"))
    return out


def exhaustive_extra(rng: random.Random) -> list[gen.Instance]:
    """The named oracle graphs and two seeded (2, 3)-biregular 12-edge graphs."""
    def kab(a, b):
        return [(x, a + y) for x in range(a) for y in range(b)]

    out = [
        gen.fixed(10, gen.PETERSEN, 2, "petersen"),
        gen.fixed(7, kab(3, 4), 1, "K3,4"),
        gen.fixed(8, kab(4, 4), 1, "K4,4"),
        gen.fixed(9, kab(4, 5), 1, "K4,5"),
        gen.fixed(6, gen.complete_edges(6), 1, "K6"),
    ]
    first = gen.biregular(rng, 3, 2, "biregular-12a")
    second = first
    while second.edges == first.edges:
        second = gen.biregular(rng, 3, 2, "biregular-12b")
    return out + [first, second]


# -- outcomes -----------------------------------------------------------------


PROBE_EVERY_S = 0.1
PROBE_REFERENCE_S = 0.005


def probe() -> float:
    """Seconds for a fixed loop of dict, tuple, set and sort work in pure Python.

    It measures the machine, never seqcolor. On a shared host the same code
    runs up to 60% slower from one second to the next, in CPU time as well as
    in wall time, so the benchmark scales its timings by this probe.
    """
    start = time.perf_counter()
    table = {}
    for i in range(30_000):
        table[(i, i * 7 % 1013)] = i
    seen = set()
    total = 0
    for (u, v), i in table.items():
        if v not in seen:
            seen.add(v)
            total += u + i
    sorted(table.values(), reverse=True)
    return time.perf_counter() - start


class Clock:
    """The machine's current speed, as a factor that turns a wall time into
    seconds on a machine where the probe takes PROBE_REFERENCE_S.

    The probe runs again, on a collected heap, when the last one is more than
    PROBE_EVERY_S old. A call is scaled by the mean of the factors read just
    before and just after it: a short call by one probe at most that far
    away, a long one by probes on both sides.
    """

    def __init__(self) -> None:
        self._last = float("-inf")
        self._factor = 1.0

    def factor(self) -> float:
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            gc.collect()
            self._factor = PROBE_REFERENCE_S / probe()
            self._last = time.perf_counter()
        return self._factor


@dataclass
class Tally:
    """What one pass measured, plus the verdicts on its outputs.

    Each timed call is ``[kind, seconds, credited edges, wall seconds]``:
    kind "primary" for the workload's own operation and "verify" for the
    re-check of its certificate; seconds are scaled by the :class:`Clock`;
    edges are credited once the checker accepts the output.
    """

    calls: list[list] = field(default_factory=list)
    decided: int = 0
    failed: int = 0
    output_bytes: int = 0
    failures: list[str] = field(default_factory=list)
    outcomes: Counter = field(default_factory=Counter)

    def timed(self, kind: str, seconds: float, factor: float) -> list:
        entry = [kind, seconds * factor, 0, seconds]
        self.calls.append(entry)
        return entry

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)

    def judge(self, verdict: str) -> None:
        self.outcomes[verdict] += 1
        self.decided += verdict == "decided"

    @property
    def attempted(self) -> int:
        return len(self.calls)

    @property
    def instances(self) -> int:
        return sum(1 for call in self.calls if call[0] == "primary")

    @property
    def wall_s(self) -> float:
        return sum(call[1] for call in self.calls)

    @property
    def raw_wall_s(self) -> float:
        return sum(call[3] for call in self.calls)


def call_cli(argv: list[str]) -> tuple[int, str, float]:
    """Run the CLI in-process; return (exit code, stdout, seconds).

    An uncaught exception is a crash and comes back as exit code -1. The
    garbage of earlier calls is collected first, outside the timed region, so
    each call starts from a clean heap as a fresh CLI process would.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a wrong result, recorded by the caller
        code = -1
    return code, out.getvalue(), time.perf_counter() - start


def run_cli(argv):
    from seqcolor import cli

    return cli.run(argv)


def judge_exit(inst: gen.Instance, code: int) -> str:
    """'checked' (exit 0, output still to check), 'decided', 'undecided' or
    'failed' for a non-zero exit code on an instance of known class."""
    if code == 0:
        return "checked"
    if code == 3:
        return "decided" if inst.klass == 2 else "failed"
    if code == 4:
        return "undecided"
    return "failed"


class Runner:
    """Executes one workload's job list, pass after pass, in a work directory."""

    def __init__(self, workload: str, seed: int, workdir: Path, instances=None):
        self.workload = workload
        self.workdir = workdir
        self.clock = Clock()
        # Per call: a digest of the last output checked and what the checker
        # said of it.
        self._verdicts: dict[tuple, tuple] = {}
        self._written: dict[str, str] = {}
        rng = random.Random(seed)
        start = time.perf_counter()
        builders = {
            "bulk-biregular": bulk_biregular,
            "small-mixed": small_mixed,
            "nonbipartite": nonbipartite,
            "exhaustive": exhaustive_extra,
        }
        self.instances = builders[workload](rng) if instances is None else instances
        self.paths = [self._write(f"in-{i}", inst.text()) for i, inst in enumerate(self.instances)]
        if workload == "exhaustive":
            # Census rows are [invariant, min sum, max sequential or null for
            # Class 2]; classes sharing an invariant share their values too.
            self.census_values = {row[0]: (row[1], row[2]) for row in GOLDEN["census"]}
            self.census_first = None
            self.cross_problem = cross_check_census()
            # Named graphs have pinned optima; the seeded ones are solved here.
            self.golden = {
                inst.name: tuple(GOLDEN["named"][inst.name]) if inst.name in GOLDEN["named"]
                else (check.min_color_sum(inst.n, inst.edges),
                      check.max_sequential(inst.n, list(inst.edges), inst.r))
                for inst in self.instances
            }
        self.generate_s = time.perf_counter() - start
        # The benchmark's own inputs and golden data live for the whole run;
        # freezing them keeps the program's garbage collections from scanning
        # them, which a real CLI process would not do either.
        gc.collect()
        gc.freeze()

    def memory_jobs(self) -> list[list[str]]:
        """The CLI arguments of the workload's heaviest jobs: the primary call
        on its largest input, and the census on exhaustive."""
        i = max(range(len(self.instances)), key=lambda j: self.instances[j].m)
        if self.workload == "exhaustive":
            return [["census", str(CENSUS_EDGES)], ["oracle", "--report", self.paths[i]]]
        return [["sequentialize", "--report", *self._format_args(self.instances[i]), self.paths[i]]]

    def _write(self, name: str, text: str) -> str:
        # Files the next pass would write again unchanged are left as they are.
        path = self.workdir / name
        if self._written.get(name) != text:
            path.write_text(text, encoding="utf-8")
            self._written[name] = text
        return str(path)

    # -- one pass -------------------------------------------------------------

    def run_pass(self, tracer=None) -> Tally:
        # Earlier passes' records stay alive; keep the per-call collections
        # from scanning them again and again.
        gc.freeze()
        tally = Tally()
        if self.workload == "exhaustive":
            self._census(tally, tracer)
            for i, inst in enumerate(self.instances):
                self._oracle(tally, inst, self.paths[i], self.golden[inst.name])
        else:
            for inst, path in zip(self.instances, self.paths):
                self._sequentialize(tally, inst, path)
        return tally

    def _call(self, tally: Tally, kind: str, argv: list[str]) -> tuple[int, str, list]:
        before = self.clock.factor()
        code, stdout, seconds = call_cli(argv)
        return code, stdout, tally.timed(kind, seconds, (before + self.clock.factor()) / 2)

    def _check(self, argv: list[str], stdout: str, checker) -> str | None:
        # Output identical to what this call printed in an earlier pass has
        # already been checked; anything else is checked afresh.
        key = tuple(argv)
        digest = hashlib.blake2b(stdout.encode(), digest_size=16).digest()
        cached = self._verdicts.get(key)
        if cached is None or cached[0] != digest:
            cached = (digest, checker(stdout))
            self._verdicts[key] = cached
        return cached[1]

    def _format_args(self, inst: gen.Instance) -> list[str]:
        return ["--format", "graph6"] if inst.fmt == "graph6" else []

    def _sequentialize(self, tally: Tally, inst: gen.Instance, path: str) -> None:
        argv = ["sequentialize", "--report", *self._format_args(inst), path]
        code, stdout, entry = self._call(tally, "primary", argv)
        tally.output_bytes += len(stdout)
        verdict = judge_exit(inst, code)
        if verdict == "checked":
            problem = self._check(argv, stdout, lambda out: check.check_certificate(inst, out))
            if problem:
                verdict = "failed"
                tally.fail(f"{inst.name}: {problem}")
            else:
                verdict = "decided"
                entry[2] = inst.m
                self._verify(tally, inst, path, json.loads(stdout.split("\n", 1)[0]))
        elif verdict == "failed":
            tally.fail(f"{inst.name}: exit {code}")
        tally.judge(verdict)

    def _verify(self, tally: Tally, inst: gen.Instance, graph_path: str, cert: dict) -> None:
        coloring = self._write(
            f"coloring-{inst.name}", f"t={cert['t']}\n" + "\n".join(cert["coloring"]) + "\n")
        vertices = self._write(
            f"vertices-{inst.name}", " ".join(map(str, cert["sequential_vertices"])) + "\n")
        code, stdout, entry = self._call(
            tally, "verify", ["verify", *self._format_args(inst), graph_path, coloring, vertices])
        problem = f"exit {code}" if code else check.check_verify_output(stdout, cert["size"])
        if problem:
            tally.fail(f"{inst.name} verify: {problem}")
        else:
            entry[2] = inst.m

    def _oracle(self, tally: Tally, inst: gen.Instance, path: str, golden) -> None:
        argv = ["oracle", "--report", path]
        code, stdout, entry = self._call(tally, "primary", argv)
        tally.output_bytes += len(stdout)
        if code == 3 and inst.klass == 2:
            verdict = "decided"
        elif code != 0 or inst.klass == 2:
            verdict = "failed"
            tally.fail(f"{inst.name}: oracle exit {code}")
        else:
            problem = self._check(argv, stdout, lambda out: check.check_oracle(inst, out, golden))
            verdict = "failed" if problem else "decided"
            if problem:
                tally.fail(f"{inst.name}: {problem}")
            else:
                entry[2] = inst.m
                seq = json.loads(stdout.splitlines()[1])
                cert = {"t": seq["t"], "coloring": seq["witness"],
                        "sequential_vertices": seq["sequential_vertices"], "size": seq["value"]}
                self._verify(tally, inst, path, cert)
        tally.judge(verdict)

    def _census(self, tally: Tally, tracer) -> None:
        from seqcolor import connected_near_regular_graphs

        # One library call that runs for seconds, while the machine's speed
        # may change: it is timed and scaled class by class as it yields.
        steps = connected_near_regular_graphs(CENSUS_EDGES)
        graphs, seconds, scaled = [], 0.0, 0.0
        while True:
            before = self.clock.factor()
            span = tracer.open(spans.CENSUS) if tracer else None
            start = time.perf_counter()
            try:
                graphs.append(next(steps))
            except StopIteration:
                break
            except Exception as exc:  # a crash is a wrong result
                graphs = exc
                break
            finally:
                step = time.perf_counter() - start
                if tracer:
                    tracer.close(span)
                seconds += step
                scaled += step * (before + self.clock.factor()) / 2
        tally.timed("primary", seconds, scaled / seconds)
        if tracer and not isinstance(graphs, Exception):
            tracer.counts["census.classes"] += len(graphs)
        if isinstance(graphs, Exception):
            tally.fail(f"census raised {graphs!r}")
            tally.judge("failed")
            return
        edge_sets = [(g.vertex_count, tuple(g.edges)) for g in graphs]
        if self.census_first is None:
            self.census_first = edge_sets
            found = sorted(check.invariant(n, edges) for n, edges in edge_sets)
            census_ok = found == sorted(row[0] for row in GOLDEN["census"])
            problem = self.cross_problem
        else:
            census_ok = edge_sets == self.census_first
            problem = None
        if not census_ok:
            problem = f"census at {CENSUS_EDGES} edges disagrees with the golden classes"
        if problem:
            tally.fail(problem)
            tally.judge("failed")
            return
        tally.judge("decided")
        # Every census class then goes through the oracle CLI.
        for i, (n, edges) in enumerate(edge_sets):
            golden = self.census_values[check.invariant(n, edges)]
            inst = gen.fixed(n, edges, 2 if golden[1] is None else 1, f"census-{i}")
            path = self._write(f"census-{i}", inst.text())
            self._oracle(tally, inst, path, golden)


def cross_check_census() -> str | None:
    """The census at 8 edges against networkx's atlas, in a child process so
    that networkx and the atlas never sit in the benchmark's own heap."""
    done = subprocess.run(
        [sys.executable, "-c", "import workloads; print(workloads.atlas_problem() or '')"],
        cwd=HERE, env=dict(os.environ, PYTHONPATH=f"{HERE}{os.pathsep}{HERE.parent / 'src'}"),
        capture_output=True, text=True, timeout=120,
    )
    if done.returncode:
        return f"census cross-check exited {done.returncode}: {done.stderr.strip()[-300:]}"
    return done.stdout.strip() or None


def atlas_problem() -> str | None:
    """20 census classes at 8 edges, each isomorphic to exactly one connected
    near-regular graph with r >= 3 in networkx's atlas."""
    import networkx as nx
    from seqcolor import connected_near_regular_graphs

    atlas = []
    for h in nx.graph_atlas_g():
        degs = [d for _, d in h.degree()]
        if (h.number_of_nodes() and h.number_of_edges() <= CROSS_CHECK_EDGES and max(degs) >= 3
                and max(degs) - min(degs) <= 1 and nx.is_connected(h)):
            atlas.append(h)
    ours = [nx.Graph(list(g.edges)) for g in connected_near_regular_graphs(CROSS_CHECK_EDGES)]
    if len(ours) != CROSS_CHECK_CLASSES or len(atlas) != CROSS_CHECK_CLASSES:
        return f"census at {CROSS_CHECK_EDGES} edges: {len(ours)} classes, atlas has {len(atlas)}"
    for g in ours:
        if sum(1 for h in atlas if nx.is_isomorphic(g, h)) != 1:
            return f"census graph {sorted(g.edges)} matches no single atlas class"
    return None
