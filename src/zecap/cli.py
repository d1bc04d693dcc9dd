"""Command-line front end.

Every invocation prints exactly one JSON record on stdout: the command, a
structured echo of its inputs, the operation payload, the tool version and
the elapsed time.  `--pretty` adds a human-readable rendering on stderr.

Exit codes: 0 ok, 1 verification failed, 2 input error (a file that cannot
be read or written too), 3 non-convergence, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time

from . import __version__
from .model import (
    Code,
    MAX_VERTICES,
    NAMED_CHANNELS,
    NAMED_DIGRAPHS,
    ResourceCapExceeded,
    SpecError,
    check_words,
    parse_channel_spec,
    parse_digraph_spec,
)
from .search import exact_M, omega_s
from .capacity import (
    DEFAULT_TOL,
    CharacteristicEquation,
    ConvergenceError,
    NAMED_EQUATIONS,
    solve_characteristic,
)
from .construct import (
    FAMILIES,
    FAMILY_COUNTS,
    TRIBONACCI_SET,
    largest_block_class,
    ministring_code,
    verify_code,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_CAP = 4


def resolve_channel(spec: str):
    """A named alias (F, G, L, Q) or an edge-list spec string."""
    if spec in NAMED_CHANNELS:
        return NAMED_CHANNELS[spec]
    return parse_channel_spec(spec)


def resolve_digraph(spec: str, k: int):
    if spec in NAMED_DIGRAPHS:
        d = NAMED_DIGRAPHS[spec]
        if d.k != k:
            raise SpecError(f"named digraph {spec} has k={d.k}, not {k}")
        return d
    return parse_digraph_spec(spec, k)


def parse_lengths(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise SpecError(f"malformed lengths: {text!r}") from None


def parse_tail(text: str | None) -> tuple[int, int] | None:
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise SpecError(f"tail must be start,step: {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise SpecError(f"malformed tail: {text!r}") from None


def read_word_file(path: str) -> Code:
    """The code in a word file, one word per line.  A word that repeats,
    or the first one that is not a binary word of the first word's length,
    is named in file order."""
    with open(path, "r", encoding="ascii") as fh:
        words = [line.rstrip("\n") for line in fh if line.strip()]
    if not words:
        raise SpecError(f"no words in {path}")
    seen: set[str] = set()
    for w in words:
        # two equal codewords can never be told apart
        if w in seen:
            raise SpecError(f"word {w!r} repeats in {path}")
        seen.add(w)
    try:
        return Code(len(words[0]), seen)
    except SpecError:
        check_words(words, len(words[0]))
        raise


def write_word_file(path: str, code: Code) -> None:
    """The sorted words, one per line, in one write of
    `Code.sorted_lines`."""
    with open(path, "wb") as fh:
        fh.write(code.sorted_lines().tobytes())


# Each command returns the echo of its inputs, its outputs and its exit
# code; `main` times the call and writes the one record.

def cmd_capacity(args) -> tuple[dict, dict, int]:
    eq = CharacteristicEquation(parse_lengths(args.lengths),
                                parse_tail(args.tail))
    value = solve_characteristic(eq, tol=args.tol)
    return ({"lengths": list(eq.head),
             "tail": list(eq.tail) if eq.tail else None, "tol": args.tol},
            value.to_record(), EXIT_OK)


def cmd_exact(args) -> tuple[dict, dict, int]:
    G = resolve_channel(args.channel)
    res = exact_M(G, args.n, lex_min=args.deterministic)
    outputs = res.to_record(f"exact_M({G.name or G.to_spec()})", args.n)
    if args.out:
        write_word_file(args.out, Code(args.n, set(res.witness)))
        outputs["witness_path"] = args.out
    return ({"channel": args.channel, "n": args.n,
             "deterministic": args.deterministic}, outputs, EXIT_OK)


def cmd_construct(args) -> tuple[dict, dict, int]:
    code = FAMILIES[args.family](args.n)
    outputs = {"family": args.family, "n": args.n, "count": len(code)}
    if args.out:
        write_word_file(args.out, code)
        outputs["path"] = args.out
    else:
        outputs["words"] = code.sorted_words()
    return ({"family": args.family, "n": args.n, "out": args.out}, outputs,
            EXIT_OK)


def cmd_verify(args) -> tuple[dict, dict, int]:
    code = read_word_file(args.code)
    G = resolve_channel(args.channel)
    report = verify_code(code, G)
    return ({"code": args.code, "channel": args.channel, "n": code.n,
             "words": len(code)}, report.to_record(),
            EXIT_OK if report.passed else EXIT_VERIFY_FAILED)


def cmd_sperner(args) -> tuple[dict, dict, int]:
    D = resolve_digraph(args.digraph, args.k)
    P = resolve_digraph(args.type, args.k)
    res = omega_s(D, P, args.n, lex_min=args.deterministic)
    outputs = res.to_record(
        f"omega_s({D.name or D.to_spec()},{P.name or P.to_spec()})", args.n)
    # an empty walk set has no code, hence no rate
    outputs["rate_bits"] = (math.log2(res.size) / args.n if res.size
                            else None)
    return ({"digraph": args.digraph, "type": args.type, "k": args.k,
             "n": args.n, "deterministic": args.deterministic}, outputs,
            EXIT_OK)


REPORT_COLUMNS = ["theorem", "n", "lower_bound", "exact", "upper_bound",
                  "analytic_rate", "empirical_rate"]

_EDGE_00_01 = parse_channel_spec("00-01")

# theorem name -> (channel, lower bound on M as a function of n, upper
# bound on M as a function of n or None, equation)
_REPORT_ROWS = {
    "triangle-00-01-10": (
        "F", lambda n: len(largest_block_class(
            ministring_code(TRIBONACCI_SET, n), TRIBONACCI_SET, "011")),
        FAMILY_COUNTS["no111"], "ministring-tribonacci"),
    "triangle-00-01-11": ("G", FAMILY_COUNTS["oddrun"], None, "oddrun"),
    "star-00": ("L", FAMILY_COUNTS["no-isolated-ones"], None,
                "no-isolated-ones"),
    # the single-edge subgraph's value, not a family count
    "star-01": ("Q", lambda n: exact_M(_EDGE_00_01, n, lex_min=False).size,
                FAMILY_COUNTS["fibonacci"], "fibonacci"),
}


def report_rows(n_max: int) -> list[dict]:
    if n_max >= MAX_VERTICES.bit_length():
        raise ResourceCapExceeded(f"word list of 2^{n_max} vertices "
                                  f"exceeds cap {MAX_VERTICES}")
    rows = []
    for theorem, (chan, lower_of, upper_of, eq_name) in _REPORT_ROWS.items():
        G = NAMED_CHANNELS[chan]
        analytic = solve_characteristic(NAMED_EQUATIONS[eq_name]).rate_bits
        for n in range(2, n_max + 1):
            exact = exact_M(G, n, lex_min=False).size
            rows.append({
                "theorem": theorem,
                "n": n,
                "lower_bound": lower_of(n),
                "exact": exact,
                "upper_bound": upper_of(n) if upper_of else "",
                "analytic_rate": f"{analytic:.10g}",
                "empirical_rate": f"{math.log2(exact) / n:.10g}",
            })
    return rows


def cmd_report(args) -> tuple[dict, dict, int]:
    rows = report_rows(args.n_max)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=REPORT_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    csv_text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(csv_text)
    return ({"n_max": args.n_max, "out": args.out},
            {"rows": len(rows), "path": args.out or None,
             "csv": None if args.out else csv_text}, EXIT_OK)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: `parse_args` leaves it unchanged, so
    it is built on the first call only."""
    parser = argparse.ArgumentParser(
        prog="zecap",
        description="Zero-error capacity toolkit for binary channels with "
                    "order-1 memory.")
    parser.add_argument("--pretty", action="store_true",
                        help="also print an indented record on stderr")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("capacity", help="solve a characteristic equation")
    p.add_argument("--lengths", required=True,
                   help="comma-separated ministring lengths, e.g. 1,2,3")
    p.add_argument("--tail", default=None,
                   help="optional arithmetic tail start,step")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("exact", help="exact M(G,n) by branch and bound")
    p.add_argument("--channel", required=True,
                   help="edge spec like 00-01;00-10 or an alias F/G/L/Q")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None, help="write the witness word file")
    p.add_argument("--deterministic", action=argparse.BooleanOptionalAction,
                   default=True)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("construct", help="emit a named code family")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None, help="write the word file")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check a word file against a channel")
    p.add_argument("--code", required=True, help="word file, one per line")
    p.add_argument("--channel", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sperner", help="maximum symmetric clique omega_s")
    p.add_argument("--digraph", required=True,
                   help="arc spec like 0>1 or an alias C5sym/K5/fibonacci")
    p.add_argument("--type", required=True,
                   help="walk-constraint digraph spec or alias")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--deterministic", action=argparse.BooleanOptionalAction,
                   default=True)
    p.set_defaults(func=cmd_sperner)

    p = sub.add_parser("report",
                       help="run the theorem battery and emit a CSV")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    t0 = time.perf_counter()
    try:
        inputs, outputs, code = args.func(args)
    except (SpecError, OSError, UnicodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except ConvergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NO_CONVERGENCE
    except ResourceCapExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CAP
    record = {"command": args.subcommand, "inputs": inputs,
              "outputs": outputs, "tool_version": __version__,
              "elapsed_ms": int((time.perf_counter() - t0) * 1000)}
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    if args.pretty:
        sys.stderr.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
