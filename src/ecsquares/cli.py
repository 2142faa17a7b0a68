"""Command-line surface.

Each subcommand names its handler on its subparser, and ``main`` runs it.
The parser is built once per process, so ``main`` may be called many times
in one process; handlers look up the functions they call as module globals
when they run.  ``search``'s defaults are ``SearchConfig``'s and its formats
those of ``records``.

Exit codes: 0 success, 1 usage error, 2 domain/resource error,
3 verification mismatch (against the published table or the brute-force counts).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from typing import TextIO

# ``sequence`` is imported as a module: perfbench's tracer wraps
# square_hits_scan at the name its search callers use and allows an unwrapped
# copy only in the defining module.
from . import sequence
from .curves import (DEFAULT_COUNT_LIMIT, base_change_count, check_count_limit,
                     count_points_naive, realize_trace)
from .errors import DomainError, ResourceLimitError
from .numeric import perfect_square_root
from .records import FORMATS, render_records, unlimited_int_str
from .search import ADMISSIBILITY_MODES, DEGENERACY_MODES, SearchConfig, paper_check, run_search
from .traces import _checked_q, admissible_traces, as_prime_power, classify_degeneracy

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_MISMATCH = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; this tool reserves 2 for
    # domain errors, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    # Rejected while parsing: argparse prefixes "argument --name: " and exits 1.
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _open_out(args) -> TextIO | None:
    # Opened once the whole command line has parsed, so a later bad argument
    # leaves no file behind, and before any search work, so a bad path is a
    # usage error of the search command; main closes it on every path out.
    # "-" stays a file name, not stdout.
    path = getattr(args, "out", None)
    if path is None:
        return None
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        args.command_parser.error(f"argument --out: can't open '{path}': {exc.strerror}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ecsquares",
                     description="Perfect squares among elliptic-curve point "
                                 "counts over finite field extensions.")
    sub = parser.add_subparsers(dest="command", required=True)  # dest: for the usage error
    q_arg = argparse.ArgumentParser(add_help=False)
    q_arg.add_argument("--q", type=int, required=True)
    a_arg = argparse.ArgumentParser(add_help=False)
    a_arg.add_argument("--a", type=int, required=True)

    p = sub.add_parser("search", help="scan all (q, a) pairs for square counts")
    p.add_argument("--qmax", type=int, default=SearchConfig.qmax)
    p.add_argument("--nmax", type=int, default=SearchConfig.nmax)
    p.add_argument("--admissibility", choices=ADMISSIBILITY_MODES,
                   default=SearchConfig.admissibility)
    p.add_argument("--degenerate", dest="degeneracy", choices=DEGENERACY_MODES,
                   default=SearchConfig.degeneracy)
    p.add_argument("--format", dest="fmt", choices=FORMATS, default="jsonl")
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_search, command_parser=p)

    sub.add_parser("admissible", parents=[q_arg],
                   help="list admissible traces for one q").set_defaults(run=_cmd_admissible)
    sub.add_parser("classify", parents=[q_arg, a_arg],
                   help="degeneracy verdict for one (q, a)").set_defaults(run=_cmd_classify)

    p = sub.add_parser("sequence", parents=[q_arg, a_arg],
                       help="print trace/count terms for one (q, a)")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--squares-only", action="store_true")
    p.set_defaults(run=_cmd_sequence)

    sub.add_parser("realize", parents=[q_arg, a_arg],
                   help="first curve realizing a trace").set_defaults(run=_cmd_realize)

    p = sub.add_parser("verify-extension", parents=[q_arg, a_arg],
                       help="cross-check the recurrence against brute-force counts")
    p.add_argument("--count-limit", type=_positive_int, default=DEFAULT_COUNT_LIMIT)
    p.set_defaults(run=_cmd_verify_extension)

    p = sub.add_parser("paper-check", help="diff the default search against the published table")
    p.set_defaults(run=_cmd_paper_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.out = _open_out(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    # str()'s digit guard is lifted for the command only, so parsing and
    # in-process callers keep theirs.  --out is closed and stdout flushed in
    # here: output that cannot be written (an OSError) is a resource error.
    try:
        with unlimited_int_str(), args.out or contextlib.nullcontext():
            code = args.run(args)
            sys.stdout.flush()
        return code
    except (DomainError, ResourceLimitError, OSError) as exc:
        try:
            print(f"error: {exc}", file=sys.stderr)
        except OSError:
            _to_devnull(sys.stderr)  # stderr may share stdout's closed pipe
        try:
            sys.stdout.flush()
        except OSError:
            _to_devnull(sys.stdout)
        return EXIT_DOMAIN


def _to_devnull(stream: TextIO) -> None:
    """At exit the interpreter flushes what a failed stream kept again: to devnull, quietly."""
    with contextlib.suppress(OSError, ValueError), open(os.devnull, "w") as devnull:
        os.dup2(devnull.fileno(), stream.fileno())


def _cmd_search(args) -> int:
    config = SearchConfig(qmax=args.qmax, nmax=args.nmax,
                          admissibility=args.admissibility, degeneracy=args.degeneracy)

    def write(text: str) -> None:
        sys.stdout.write(text)
        if args.out is not None:
            args.out.write(text)

    # The header once, then each pair's rows as the search verifies them.
    write(render_records([], args.fmt, config=config))
    report = run_search(config, lambda hits: write(
        render_records(hits, args.fmt, header=False, config=config)))
    if args.out is not None:
        args.out.flush()  # a failed write is reported alone, not after the summary
    print(f"{len(report.hits)} hits from {report.pairs_scanned} (q, a) pairs "
          f"in {report.elapsed_seconds:.2f}s", file=sys.stderr)
    return EXIT_OK


def _cmd_admissible(args) -> int:
    print(" ".join(str(a) for a in admissible_traces(as_prime_power(args.q))))
    return EXIT_OK


def _cmd_classify(args) -> int:
    m = classify_degeneracy(as_prime_power(args.q), args.a)
    print("nondegenerate" if m is None else f"degenerate, m={m}")
    return EXIT_OK


def _cmd_sequence(args) -> int:
    pp = as_prime_power(args.q)
    if args.squares_only:
        for hit in sequence.square_hits_scan(pp, args.a, args.nmax):
            N = hit.N
            print(f"n={hit.n} a_n={pp.q ** hit.n + 1 - N} N={N} u={hit.u}")
        return EXIT_OK
    for term in sequence.trace_sequence(pp, args.a, args.nmax):
        u = perfect_square_root(term.N_n)
        line = f"n={term.n} a_n={term.a_n} N={term.N_n}"
        if u is not None:
            line += f" u={u}"
        print(line)
    return EXIT_OK


def _cmd_realize(args) -> int:
    curve = realize_trace(as_prime_power(args.q), args.a)
    if curve is None:
        print("none: inadmissible")
        return EXIT_OK
    count = count_points_naive(curve)
    print(f"{curve}  N={count} a={curve.ctx.q + 1 - count}")
    return EXIT_OK


def _cmd_verify_extension(args) -> int:
    pp = _checked_q(args.q, args.a)  # the Hasse verdict before the count guard
    check_count_limit(args.count_limit)
    curve = realize_trace(pp, args.a)
    if curve is None:
        print("none: inadmissible", file=sys.stderr)
        return EXIT_DOMAIN
    nmax = 0
    while pp.q ** (nmax + 1) <= args.count_limit:
        nmax += 1
    if nmax == 0:
        print("count limit below q; nothing to verify", file=sys.stderr)
        return EXIT_OK
    mismatches = 0
    for term in sequence.trace_sequence(pp, args.a, nmax):
        counted = base_change_count(curve, term.n, limit=args.count_limit)
        status = "ok" if counted == term.N_n else "MISMATCH"
        mismatches += status != "ok"
        print(f"n={term.n} q^n={pp.q ** term.n} brute-force={counted} "
              f"recurrence={term.N_n} {status}")
    return EXIT_MISMATCH if mismatches else EXIT_OK


def _cmd_paper_check(args) -> int:
    diff = paper_check(run_search(SearchConfig()))
    print(f"matching: {len(diff.matching)}")
    print(f"missing: {len(diff.missing)}")
    for triple in diff.missing:
        print(f"  missing {triple}")
    print(f"extra: {len(diff.extra)}")
    for triple in diff.extra:
        print(f"  extra {triple}")
    if diff.verification_failures:
        print(f"verification failures: {diff.verification_failures}")
    print("expected deviations:")
    for line in diff.expected_deviations:
        print(f"  - {line}")
    print("notes:")
    for line in diff.notes:
        print(f"  - {line}")
    print("result: " + ("clean match (modulo documented deviations)"
                        if diff.clean else "MISMATCH"))
    return EXIT_OK if diff.clean else EXIT_MISMATCH
