"""The CLI gives the same stdout, stderr and exit code under ``python`` and
``python -O``, so no check in src rests on ``assert`` (tools/lint.py also
refuses asserts and ``__debug__`` or ``sys.flags`` reads there).

Each row names its stdin, the CLI arguments (run with a last ``-``, the
stdin), the exit code and a line (a ``re.MULTILINE`` pattern) that stdout or
stderr must hold. One module fixture runs every row in-process through
``seqcolor.cli.run`` in two fresh interpreters at once, one per flag.
"""

import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from seqcolor import emit_edge_list, emit_graph6, generate_complete_bipartite, generate_regular_class1

PETERSEN = b"10 15\n0 1\n1 2\n2 3\n3 4\n0 4\n5 7\n6 8\n7 9\n5 8\n6 9\n0 5\n1 6\n2 7\n3 8\n4 9\n"
K34 = emit_edge_list(generate_complete_bipartite(3, 4)).encode()
CLASS_TWO = r"^error: graph is Class 2: chromatic index 4 > max degree 3$"

# Files that rows name as arguments; each child runs in a directory holding them.
FILES = {"path3.txt": b"3 2\n0 1\n1 2\n", "path3-coloring.txt": b"t=2\n0 1 1\n1 2 2\n"}

ROWS = [
    # K_{4,5} at the default cap runs both oracles.
    ("k45-oracle", emit_edge_list(generate_complete_bipartite(4, 5)).encode(),
     "oracle --report", 0, "out", r'^\{"record":"oracle_sum","value":60,'),
    # Petersen is Class 2: at cap 3 the max-sequential search finds no
    # coloring and refuses it (exit 3); at cap 4 it finds one.
    ("petersen-oracle-cap3", PETERSEN, "oracle --report --cap 3", 3, "err", CLASS_TWO),
    ("petersen-oracle-cap4", PETERSEN, "oracle --report --cap 4", 0,
     "out", r'^\{"record":"oracle_sequential",'),
    # At the default cap that search refuses it before any sum search
    # starts; the sum oracle alone still searches it.
    ("petersen-oracle", PETERSEN, "oracle --report", 3, "err", CLASS_TWO),
    ("petersen-oracle-sum", PETERSEN, "oracle --report --sum", 0,
     "out", r'^\{"record":"oracle_sum",'),
    # Petersen minus a vertex (degrees 2 and 3, two color blocks) is Class 2
    # without being overfull; the search refuses it too.
    ("petersen-minus-vertex-oracle",
     b"9 12\n0 1\n1 2\n2 3\n4 6\n5 7\n6 8\n4 7\n5 8\n0 5\n1 6\n2 7\n3 8\n",
     "oracle --report", 3, "err", CLASS_TWO),
    # sequentialize hands Petersen (not overfull, not bipartite, and
    # Misra-Gries needs a fourth color) to exact_chromatic_index, whose block
    # search refutes every 3-coloring before it finds a 4-coloring.
    ("petersen-sequentialize", PETERSEN, "sequentialize --report", 3, "err", CLASS_TWO),
    # K_{3,4} at cap 4 stops at its matching ceiling (4 sequential vertices);
    # at cap 5 the ceiling is n and is never reached.
    ("k34-oracle-cap4", K34, "oracle --report --cap 4", 0,
     "out", r'^\{"record":"oracle_sequential",'),
    ("k34-oracle-cap5", K34, "oracle --report --cap 5", 0,
     "out", r'^\{"record":"oracle_sequential",'),
    # The oracle's text is rendered from the same records.
    ("k34-oracle-text", K34, "oracle --max-sequential --cap 4", 0,
     "out", r"^max sequential set \(4 colors\): "),
    # run() hands --help and usage errors to argparse; its help and error
    # text are the same under -O.
    ("help", K34, "sequentialize --help", 0, "out", r"^usage: seqcolor sequentialize "),
    ("usage-error", K34, "oracle --cap three", 2,
     "err", r"^seqcolor oracle: error: argument --cap: invalid int value: 'three'$"),
    # Edgeless: the sum oracle returns before any search, and the
    # max-sequential one at its root.
    ("edgeless-oracle", b"3 0\n", "oracle --report", 0,
     "out", r'^\{"record":"oracle_sum","value":0,'),
    # K_4 minus an edge is not bipartite and Class 1, and Misra-Gries needs a
    # fourth color on it, so its 3-coloring comes from exact_chromatic_index.
    ("k4-minus-edge-oracle", b"4 5\n0 1\n0 2\n0 3\n1 2\n1 3\n",
     "sequentialize --report --oracle", 0, "out", r'^\{"record":"certificate",'),
    # The 9-prism minus one rung (18 vertices, 26 edges) is not bipartite and
    # has two degree-2 vertices; Misra-Gries decides it within 3 colors, so
    # its partition is read off Misra-Gries's own palette masks and its final
    # coloring is the one full check.
    ("prism9-minus-rung",
     b"18 26\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n0 8\n9 10\n10 11\n11 12\n12 13\n"
     b"13 14\n14 15\n15 16\n16 17\n9 17\n1 10\n2 11\n3 12\n4 13\n5 14\n6 15\n7 16\n8 17\n",
     "sequentialize --report", 0, "out", r'^\{"record":"certificate",'),
    # K_10 is not overfull and has too many edges for the exact solver;
    # Misra-Gries stops at its first edge that needs a tenth color (exit 4).
    ("k10", emit_edge_list(generate_regular_class1(9, kind="complete")).encode(),
     "sequentialize --report", 4, "err",
     r"^error: heuristic used 10 colors and the graph is too large \(45 edges\) for the exact solver$"),
    # graph6 at the largest single-byte size decodes and certifies; a payload
    # byte outside 63..126 and bytes that are not UTF-8 are parse errors
    # (exit 5), not tracebacks.
    ("k31-31-graph6", (emit_graph6(generate_complete_bipartite(31, 31)) + "\n").encode(),
     "sequentialize --report --format graph6", 0, "out", r'^\{"record":"certificate",'),
    ("bad-graph6-payload", b"C>\n", "sequentialize --report --format graph6", 5,
     "err", r"^error: invalid graph6 payload byte '>'$"),
    ("not-utf8", b"\377\3764 6\n", "sequentialize --report", 5,
     "err", r"^error: standard input is not UTF-8 text: "),
    # build_graph looks for repeats with one set after its loop, and before
    # it raises at an id out of range: the repeat comes first.
    ("repeat-then-range", b"3 3\n0 1\n1 0\n0 5\n", "sequentialize --report", 5,
     "err", r"^error: duplicate edge \(0, 1\)$"),
    # Colors 1 and 1 at vertex 1 leave its mask one bit short of its degree:
    # the popcount check fails and the edge scan names the clash (exit 1).
    ("clash", b"t=2\n0 1 1\n1 2 1\n", "verify path3.txt", 1,
     "out", r"^clash: color 1 repeats at vertex 1$"),
    # The one-scan readers hand any other text to the token and line loops: a
    # CRLF coloring and a tab-separated edge list are read, a literal null
    # does not forge a line end, and deep "[" nesting is a parse error
    # (exit 5), not a RecursionError.
    ("crlf-coloring", b"t=2\r\n0 1 1\r\n1 2 2\r\n", "verify path3.txt", 0,
     "out", r"^proper: ok$"),
    ("forged-null", b"t=2\n0 1 1 null 1 2 2\n", "verify path3.txt", 5,
     "err", r"^error: expected 'u v c', got '0 1 1 null 1 2 2'$"),
    ("tab-separated", K34.replace(b" ", b"\t"), "sequentialize --report", 0,
     "out", r'^\{"record":"certificate",'),
    ("deep-nesting", b"2 1 " + b"[" * 5000, "sequentialize --report", 5, "err",
     r"^error: non-integer token in edge list: "),
    # The text report writes its coloring block in one write.
    ("k34-text", K34, "sequentialize", 0, "out", r"^coloring \(t=4\):$"),
    # The vertex file (here stdin) is read by the one scan, and a token the
    # scan refuses goes to the token loop, which names it (exit 5).
    ("vertices", b"0 1\n", "verify path3.txt path3-coloring.txt", 0,
     "out", r"^sequential: ok on 2 vertices$"),
    ("bad-vertices", b"0 x\n", "verify path3.txt path3-coloring.txt", 5,
     "err", r"^error: vertex file must contain integers: "),
]

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
    work = tmp_path_factory.mktemp("same_under_O")
    for name, data in FILES.items():
        (work / name).write_bytes(data)
    (work / "rows.pickle").write_bytes(
        pickle.dumps([([*args.split(), "-"], data) for _, data, args, *_ in ROWS]))
    src = str(Path(__file__).resolve().parent.parent / "src")
    children = [subprocess.Popen([sys.executable, *flags, "-c", CHILD, "rows.pickle"], cwd=work,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 env=dict(os.environ, PYTHONPATH=src))
                for flags in FLAGS]
    found = {}
    for flags, child in zip(FLAGS, children):
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err.decode()
        found[flags] = dict(zip([row[0] for row in ROWS], pickle.loads(out)))
    return found


@pytest.mark.parametrize("name, code, stream, line",
                         [(name, code, stream, line) for name, _, _, code, stream, line in ROWS],
                         ids=[row[0] for row in ROWS])
def test_same_under_O(results, name, code, stream, line):
    plain, optimized = (results[flags][name] for flags in FLAGS)
    assert plain == optimized
    out, err, exit_code = plain
    assert exit_code == code, err
    assert re.search(line, out if stream == "out" else err, re.MULTILINE)
