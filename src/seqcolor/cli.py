"""Command-line front end.

Subcommands: generate | color | sequentialize | bound | verify | oracle.
Exit codes: 0 success, 1 verification failure, 2 precondition violation or
oversize refusal, 3 Class-2 input, 4 undecided class, 5 I/O or parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

from .coloring import (
    EXHAUSTIVE_EDGE_LIMIT,
    emit_coloring,
    misra_gries,
    obtain_r_coloring,
    parse_coloring,
)
from .errors import (
    ClassTwoError,
    GraphError,
    OversizeError,
    PreconditionError,
    UnknownClassError,
)
from .graph import (
    degree_profile,
    generate_complete_bipartite,
    generate_random_biregular,
    generate_regular_class1,
)
from .graph_io import emit_edge_list, emit_graph6, parse_edge_list, parse_graph6
from .sequential import (
    biregular_set_bound,
    sequential_set_bound,
    verify_certificate,
)
from .sums import chromatic_sum_bound, sum_report

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PRECONDITION = 2
EXIT_CLASS_TWO = 3
EXIT_UNKNOWN = 4
EXIT_IO = 5

# The exit code of each error class that run() reports, first match wins;
# any other exception propagates.
EXIT_CODES = (
    (ClassTwoError, EXIT_CLASS_TWO),
    (UnknownClassError, EXIT_UNKNOWN),
    (OversizeError, EXIT_PRECONDITION),
    (PreconditionError, EXIT_PRECONDITION),
    (GraphError, EXIT_IO),
    (OSError, EXIT_IO),
)


def _read_text(path: str) -> str:
    """The UTF-8 text of the file at ``path``, or of stdin for "-"; bytes
    that are not UTF-8 are a GraphError, whatever the locale."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        source = "standard input" if path == "-" else path
        raise GraphError(f"{source} is not UTF-8 text: {exc}") from None


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _read_graph(path: str, fmt: str):
    text = _read_text(path)
    return parse_graph6(text) if fmt == "graph6" else parse_edge_list(text)


def _emit_graph(g, fmt: str) -> str:
    return emit_graph6(g) + "\n" if fmt == "graph6" else emit_edge_list(g)


def _print_records(records) -> None:
    for record in records:
        print(json.dumps(record, separators=(",", ":")))


def cmd_generate(args) -> int:
    family = args.family
    params = args.params
    if family == "complete-bipartite":
        if len(params) != 2:
            raise PreconditionError("complete-bipartite takes two sizes: a b")
        g = generate_complete_bipartite(params[0], params[1])
    elif family == "biregular":
        if len(params) != 2:
            raise PreconditionError("biregular takes two parameters: r k")
        if args.seed is None:
            raise PreconditionError("biregular generation requires --seed")
        g = generate_random_biregular(params[0], params[1], args.seed)
    else:  # regular-class1: argparse restricts the choices
        if len(params) != 1:
            raise PreconditionError("regular-class1 takes one parameter: r")
        g = generate_regular_class1(params[0], kind="complete" if args.complete else "bipartite")
    _write_text(args.output, _emit_graph(g, args.format))
    return EXIT_OK


def cmd_color(args) -> int:
    g = _read_graph(args.input, args.format)
    coloring = misra_gries(g) if args.vizing else obtain_r_coloring(g)
    _write_text(args.output, emit_coloring(coloring))
    return EXIT_OK


def _sequentialize_graph(args):
    # The graph and its per-vertex structures die when this returns, before
    # the records are serialized.
    g = _read_graph(args.input, args.format)
    report = sum_report(g)
    oracle_records = []
    if args.oracle and (g.edge_count <= EXHAUSTIVE_EDGE_LIMIT or args.override_size):
        from .oracle import exact_edge_chromatic_sum, exact_max_sequential_set

        sum_result = exact_edge_chromatic_sum(g, override_size=args.override_size)
        seq_result = exact_max_sequential_set(
            g, report.certificate.r, override_size=args.override_size)
        report = replace(report, exact_sum=sum_result.value)
        oracle_records = [sum_result.to_record("sum"), seq_result.to_record("sequential")]
    return report, oracle_records


def cmd_sequentialize(args) -> int:
    report, oracle_records = _sequentialize_graph(args)
    cert, sums = report.certificate.to_record(), report.to_record()
    if args.report:
        _print_records([cert, sums, *oracle_records])
    else:
        swap = "none" if cert["swap_color"] is None else cert["swap_color"]
        print(f"n={cert['n']} r={cert['r']} n_r={cert['n_r']}")
        print(f"swap color: {swap}")
        members = " ".join(map(str, cert["sequential_vertices"]))
        print(f"sequential vertices ({cert['size']}, bound {cert['bound']}): {members}")
        print(f"verified: {'yes' if cert['verified'] else 'no'}")
        print(f"sum: actual={sums['actual_sum']} bound={sums['bound']}")
        if oracle_records:
            exact, sequential = oracle_records
            print(f"oracle: exact sum {exact['value']} (cap stable: {exact['cap_stable']}), "
                  f"max sequential set {sequential['value']}")
        elif args.oracle:
            # One coloring line per edge.
            print(f"oracle: skipped ({len(cert['coloring'])} edges > {EXHAUSTIVE_EDGE_LIMIT}; "
                  "use --override-size)")
        print(f"coloring (t={cert['t']}):")
        for line in cert["coloring"]:
            print(f"  {line}")
    if cert["verified"] and cert["size"] >= cert["bound"]:
        return EXIT_OK
    return EXIT_VERIFY


def cmd_bound(args) -> int:
    seq = sequential_set_bound(args.n, args.n_r, args.r)
    total = chromatic_sum_bound(args.n, args.n_r, args.r)
    scale, remainder = divmod(args.n, 2 * args.r - 1)
    biregular_match = remainder == 0 and scale >= 1 and args.n_r == (args.r - 1) * scale
    print(f"sequential-set bound: {seq}")
    if biregular_match:
        print(f"biregular form:       {biregular_set_bound(args.n, args.r)}")
    else:
        print("biregular form:       -")
    print(f"chromatic-sum bound:  {total}")
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _read_graph(args.graph, args.format)
    coloring = parse_coloring(_read_text(args.coloring))
    wanted: list[int] = []
    if args.vertices is not None:
        tokens = _read_text(args.vertices).split()
        try:
            wanted = [int(tok) for tok in tokens]
        except ValueError as exc:
            raise GraphError(f"vertex file must contain integers: {exc}") from None
    try:
        proper, sequential = verify_certificate(g, coloring, wanted)
    except PreconditionError as exc:
        print(f"coverage mismatch: {exc}")
        return EXIT_VERIFY
    if not proper:
        for vertex, color in proper.violations:
            print(f"clash: color {color} repeats at vertex {vertex}")
        return EXIT_VERIFY
    print("proper: ok")
    if args.vertices is not None:
        if not sequential:
            for v in sequential.violations:
                print(f"not sequential at vertex {v}")
            return EXIT_VERIFY
        print(f"sequential: ok on {len(set(wanted))} vertices")
    return EXIT_OK


def cmd_oracle(args) -> int:
    """Run the requested oracles and print the sum result before the
    sequential one. The max-sequential oracle runs first: it refuses a cap
    below the max degree, or a Class-2 graph at that cap (its search finds
    no coloring), before the sum search starts. Both oracles begin with the
    same size guard and nothing prints until both finish, so the order
    changes no output."""
    # Imported here so that no other command loads the exhaustive search.
    from .oracle import exact_edge_chromatic_sum, exact_max_sequential_set

    g = _read_graph(args.input, args.format)
    run_sum = args.sum or not args.max_sequential
    run_seq = args.max_sequential or not args.sum
    records = []
    if run_seq:
        r = args.cap if args.cap is not None else degree_profile(g).max_degree
        result = exact_max_sequential_set(g, r, override_size=args.override_size)
        records.append(result.to_record("sequential"))
    if run_sum:
        result = exact_edge_chromatic_sum(g, override_size=args.override_size)
        records.insert(0, result.to_record("sum"))
    if args.report:
        _print_records(records)
        return EXIT_OK
    for record in records:
        if record["record"] == "oracle_sum":
            print(f"exact sum: {record['value']} (explored {record['explored']}, "
                  f"cap stable: {record['cap_stable']})")
        else:
            # The witness's color count is the cap searched.
            members = " ".join(map(str, record["sequential_vertices"]))
            print(f"max sequential set ({record['t']} colors): {record['value']} "
                  f"(explored {record['explored']}): {members}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later
    one in the process: parsing leaves it unchanged, and building it costs
    more than most commands."""
    parser = argparse.ArgumentParser(
        prog="seqcolor",
        description="Sequential edge colorings of near-regular Class-1 graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("edges", "graph6"), default="edges",
            help="graph text format (default: edges)",
        )

    p = sub.add_parser("generate", help="write a graph from a named family")
    p.add_argument("family", choices=("complete-bipartite", "biregular", "regular-class1"))
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--seed", type=int, help="required for the biregular family")
    p.add_argument("--complete", action="store_true",
                   help="regular-class1: use the complete graph instead of the bipartite one")
    p.add_argument("-o", "--output")
    add_format(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("color", help="produce a proper edge coloring")
    p.add_argument("input", help="graph file, or - for stdin")
    p.add_argument("--vizing", action="store_true",
                   help="use the max_degree+1 heuristic instead of exact acquisition")
    p.add_argument("-o", "--output")
    add_format(p)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("sequentialize", help="run the sequential-coloring pipeline")
    p.add_argument("input", help="graph file, or - for stdin")
    p.add_argument("--report", action="store_true", help="line-delimited JSON output")
    p.add_argument("--oracle", action="store_true", help="attach exhaustive ground truth")
    p.add_argument("--override-size", action="store_true",
                   help="run the oracle past its 20-edge guard")
    add_format(p)
    p.set_defaults(func=cmd_sequentialize)

    p = sub.add_parser("bound", help="print the closed-form bounds for (n, n_r, r)")
    p.add_argument("n", type=int)
    p.add_argument("n_r", type=int)
    p.add_argument("r", type=int)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("verify", help="check a coloring file against a graph")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.add_argument("vertices", nargs="?",
                   help="optional file of vertex ids to check for sequentiality")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive exact optima for small graphs")
    p.add_argument("input", help="graph file, or - for stdin")
    p.add_argument("--sum", action="store_true", help="only the minimum color sum")
    p.add_argument("--max-sequential", action="store_true",
                   help="only the maximum sequential set")
    p.add_argument("--cap", type=int,
                   help="color count for the sequential maximization (default: max degree)")
    p.add_argument("--override-size", action="store_true")
    p.add_argument("--report", action="store_true", help="line-delimited JSON output")
    add_format(p)
    p.set_defaults(func=cmd_oracle)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(cls for cls, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
