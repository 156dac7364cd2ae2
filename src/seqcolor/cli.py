"""Command-line front end.

Subcommands: generate | color | sequentialize | bound | verify | oracle, all
specified in COMMANDS. run() reads an argv straight from that table and
imports argparse (through build_parser) only for --help and usage errors.
It pauses the cyclic garbage collector while a command runs, since the
pipeline makes no reference cycles; the pause is process-wide, which matters
only to a multi-threaded embedder.
Exit codes: 0 success, 1 verification failure, 2 precondition violation or
oversize refusal, 3 Class-2 input, 4 undecided class, 5 I/O or parse error.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
import types

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
from .graph_io import emit_edge_list, emit_graph6, parse_edge_list, parse_graph6, scan_ints
from .sequential import sequential_set_bound, verify_certificate
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
        # Unbuffered: one readall, with no buffer object and no isatty probe.
        with open(path, "rb", buffering=0) as handle:
            data = handle.readall()
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
    """Print each record as ``json.dumps(record, separators=(",", ":"))``. A
    last "coloring" field (the certificate's) is joined as it is: its "u v c"
    lines, formatted from ints, hold nothing JSON escapes."""
    for record in records:
        lines = record.get("coloring")
        if lines and next(reversed(record)) == "coloring":
            head = json.dumps({**record, "coloring": []}, separators=(",", ":"))
            print(head[:-3], '["', '","'.join(lines), '"]}', sep="")
        else:
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
    else:  # regular-class1: COMMANDS restricts the choices
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


def _oracle_records(g, cap, run_sum: bool, run_seq: bool, override_size: bool) -> list[dict]:
    """The records of the requested oracles, the sum one first; ``cap`` None
    means the max degree. The max-sequential oracle runs first, to refuse a
    cap below the max degree or a Class-2 graph at that cap before the sum
    search starts. Both begin with the same size guard and nothing prints
    until both finish, so the order changes no output."""
    # Imported here so that no other command loads the exhaustive search.
    from .oracle import exact_edge_chromatic_sum, exact_max_sequential_set

    records = []
    if run_seq:
        r = cap if cap is not None else degree_profile(g).max_degree
        records.append(exact_max_sequential_set(g, r, override_size=override_size).to_record())
    if run_sum:
        records.insert(0, exact_edge_chromatic_sum(g, override_size=override_size).to_record())
    return records


def _sequentialize_graph(args):
    # The graph and its per-vertex structures die when this returns, before
    # the records are serialized.
    g = _read_graph(args.input, args.format)
    report = sum_report(g)
    oracle_records = []
    if args.oracle and (g.edge_count <= EXHAUSTIVE_EDGE_LIMIT or args.override_size):
        oracle_records = _oracle_records(g, report.certificate.r, True, True, args.override_size)
        report = report.replace(exact_sum=oracle_records[0]["value"])
    return report, oracle_records


def cmd_sequentialize(args) -> int:
    report, oracle_records = _sequentialize_graph(args)
    cert, sums = report.certificate.to_record(), report.to_record()
    # The records hold all that is printed; the coloring's edge tuple dies here.
    del report
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
        if cert["coloring"]:
            print("  ", "\n  ".join(cert["coloring"]), sep="")
    if cert["verified"] and cert["size"] >= cert["bound"]:
        return EXIT_OK
    return EXIT_VERIFY


def cmd_bound(args) -> int:
    seq = sequential_set_bound(args.n, args.n_r, args.r)
    total = chromatic_sum_bound(args.n, args.n_r, args.r)
    scale, remainder = divmod(args.n, 2 * args.r - 1)
    # At (n, n_r) = ((2r-1)k, (r-1)k) the biregular form ceil(rn / (2r-1)) is the bound, rk.
    biregular_match = remainder == 0 and scale >= 1 and args.n_r == (args.r - 1) * scale
    print(f"sequential-set bound: {seq}")
    print(f"biregular form:       {seq if biregular_match else '-'}")
    print(f"chromatic-sum bound:  {total}")
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _read_graph(args.graph, args.format)
    coloring = parse_coloring(_read_text(args.coloring))
    wanted: list[int] = []
    if args.vertices is not None:
        text = _read_text(args.vertices)
        # The scan reads the ints the token loop would, or refuses the text.
        wanted = scan_ints(text.strip(), ",")
        if wanted is None:
            try:
                wanted = [int(tok) for tok in text.split()]
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
        count = len(set(wanted))
        print(f"sequential: ok on {count} {'vertex' if count == 1 else 'vertices'}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    g = _read_graph(args.input, args.format)
    records = _oracle_records(g, args.cap, args.sum or not args.max_sequential,
                              args.max_sequential or not args.sum, args.override_size)
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


_INPUT = (("input",), {"help": "graph file, or - for stdin"})
_OUTPUT = (("-o", "--output"), {})
_FORMAT = (("--format",), {"choices": ("edges", "graph6"), "default": "edges",
                           "help": "graph text format (default: edges)"})
_REPORT = (("--report",), {"action": "store_true", "help": "line-delimited JSON output"})

# The command line's one spec: each command's function, help line and
# arguments as argparse's own (names, kwargs), an option's long name last.
COMMANDS = {
    "generate": (cmd_generate, "write a graph from a named family", (
        (("family",), {"choices": ("complete-bipartite", "biregular", "regular-class1")}),
        (("params",), {"nargs": "*", "type": int}),
        (("--seed",), {"type": int, "help": "required for the biregular family"}),
        (("--complete",), {"action": "store_true", "help":
                           "regular-class1: use the complete graph instead of the bipartite one"}),
        _OUTPUT, _FORMAT)),
    "color": (cmd_color, "produce a proper edge coloring", (
        _INPUT, (("--vizing",), {"action": "store_true", "help":
                                 "use the max_degree+1 heuristic instead of exact acquisition"}),
        _OUTPUT, _FORMAT)),
    "sequentialize": (cmd_sequentialize, "run the sequential-coloring pipeline", (
        _INPUT, _REPORT,
        (("--oracle",), {"action": "store_true", "help": "attach exhaustive ground truth"}),
        (("--override-size",), {"action": "store_true", "help":
                                f"run the oracle past its {EXHAUSTIVE_EDGE_LIMIT}-edge guard"}),
        _FORMAT)),
    "bound": (cmd_bound, "print the closed-form bounds for (n, n_r, r)", (
        (("n",), {"type": int}), (("n_r",), {"type": int}), (("r",), {"type": int}))),
    "verify": (cmd_verify, "check a coloring file against a graph", (
        (("graph",), {}), (("coloring",), {}), (("vertices",), {
            "nargs": "?", "help": "optional file of vertex ids to check for sequentiality"}),
        _FORMAT)),
    "oracle": (cmd_oracle, "exhaustive exact optima for small graphs", (
        _INPUT, (("--sum",), {"action": "store_true", "help": "only the minimum color sum"}),
        (("--max-sequential",), {"action": "store_true",
                                 "help": "only the maximum sequential set"}),
        (("--cap",), {"type": int, "help":
                      "color count for the sequential maximization (default: max degree)"}),
        (("--override-size",), {"action": "store_true"}), _REPORT, _FORMAT)),
}


@functools.cache
def build_parser():
    """The argparse parser for COMMANDS, built on the first call and shared by
    every later one in the process. run() needs it only for --help and usage
    errors, and only this function imports argparse."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="seqcolor", description="Sequential edge colorings of near-regular Class-1 graphs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_line, arguments) in COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for names, kwargs in arguments:
            p.add_argument(*names, **kwargs)
        p.set_defaults(func=func)
    return parser


def _value(kwargs, token: str):
    value = kwargs.get("type", str)(token)
    if "choices" in kwargs and value not in kwargs["choices"]:
        raise ValueError(f"{value!r} is not a choice")
    return value


@functools.cache
def _argv_table(command: str):
    """_read_args's defaults, options and positionals of a command, built once."""
    func, _, arguments = COMMANDS[command]
    defaults, options, positionals = {"command": command, "func": func}, {}, []
    for names, kwargs in arguments:
        if names[0].startswith("-"):
            dest, flag = names[-1][2:].replace("-", "_"), kwargs.get("action") == "store_true"
            defaults[dest] = kwargs.get("default", False if flag else None)
            options.update(dict.fromkeys(names, (dest, flag, kwargs)))
        else:
            positionals.append((names[0], kwargs))
    return defaults, options, positionals


def _read_args(argv: list[str]):
    """build_parser().parse_args(argv), read straight from COMMANDS; None
    where argparse must decide: an unknown command, a token starting with "-"
    that is neither "-" nor an exact option string, a valued option with no
    value or one starting with "-", a value its type or choices refuse,
    positionals split by an option, or a wrong positional count."""
    if not argv or argv[0] not in COMMANDS:
        return None
    defaults, options, positionals = _argv_table(argv[0])
    values = dict(defaults)
    tokens, words, run_ended = iter(argv[1:]), [], False
    try:
        for token in tokens:
            if token in options:
                dest, flag, kwargs = options[token]
                if flag:
                    values[dest] = True
                elif (value := next(tokens, "-")).startswith("-"):
                    return None  # no value, or one argparse may read as an option
                else:
                    values[dest] = _value(kwargs, value)
                run_ended = bool(words)
            elif run_ended or (token.startswith("-") and token != "-"):
                return None
            else:
                words.append(token)
        # argparse's greedy match: each "?" and "*" in turn takes what the
        # required positionals leave.
        spare = len(words) - sum("nargs" not in kwargs for _, kwargs in positionals)
        if spare < 0:
            return None
        for dest, kwargs in positionals:
            nargs = kwargs.get("nargs")
            take = 1 if nargs is None else min(spare, 1) if nargs == "?" else spare
            spare -= take if nargs else 0
            chunk, words = [_value(kwargs, word) for word in words[:take]], words[take:]
            values[dest] = chunk if nargs == "*" else chunk[0] if chunk else kwargs.get("default")
    except (TypeError, ValueError):
        return None
    return None if words else types.SimpleNamespace(**values)


def run(argv=None) -> int:
    """Run the command ``argv`` names and return its exit code, with the
    process-wide cyclic garbage collector paused and then left as found: the
    pipeline's objects die by reference counting, so collections only cost time."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_args(argv) or build_parser().parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except tuple(cls for cls, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))
    finally:
        if enabled:
            gc.enable()


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
