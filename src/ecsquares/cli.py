"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 domain/resource error,
3 verification mismatch (paper-check or verify-extension).
"""

from __future__ import annotations

import argparse
import sys
from typing import TextIO

# ``sequence`` is imported as a module: perfbench's tracer wraps
# square_hits_scan at the name its search callers use and allows an unwrapped
# copy only in the defining module.
from . import sequence
from .curves import DEFAULT_COUNT_LIMIT, base_change_count, count_points_naive, realize_trace
from .errors import DomainError, ResourceLimitError
from .numeric import perfect_square_root
from .records import render_records
from .search import PaperCheckReport, SearchConfig, paper_check, run_search
from .traces import admissible_traces, as_prime_power, classify_degeneracy

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


def _out_file(path: str) -> TextIO:
    # Opened while parsing, so a bad --out path is a usage error before any
    # search work.  "-" stays a file name, not stdout.
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"can't open '{path}': {exc.strerror}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ecsquares",
                     description="Perfect squares among elliptic-curve point "
                                 "counts over finite field extensions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", parents=[], help="scan all (q, a) pairs for square counts")
    p.add_argument("--qmax", type=int, default=50)
    p.add_argument("--nmax", type=int, default=1000)
    p.add_argument("--admissibility", choices=("waterhouse", "hasse"), default="waterhouse")
    p.add_argument("--degenerate", choices=("exclude", "include", "only"), default="exclude")
    p.add_argument("--format", dest="fmt", choices=("jsonl", "csv", "table"), default="jsonl")
    p.add_argument("--out", type=_out_file, default=None)

    p = sub.add_parser("admissible", help="list admissible traces for one q")
    p.add_argument("--q", type=int, required=True)

    p = sub.add_parser("classify", help="degeneracy verdict for one (q, a)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)

    p = sub.add_parser("sequence", help="print trace/count terms for one (q, a)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--squares-only", action="store_true")

    p = sub.add_parser("realize", help="first curve realizing a trace")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)

    p = sub.add_parser("verify-extension",
                       help="cross-check the recurrence against brute-force counts")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--count-limit", type=int, default=DEFAULT_COUNT_LIMIT)

    sub.add_parser("paper-check", help="diff the default search against the published table")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Counts pass str()'s 4,300-digit guard (Python >= 3.10.7) from about
    # n = 2,545 for q = 49; lift it for the command only, so parsing and
    # in-process callers keep theirs.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digit_limit:
        sys.set_int_max_str_digits(0)
    try:
        return _dispatch(args)
    except (DomainError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)


def _dispatch(args) -> int:
    if args.command == "search":
        return _cmd_search(args)
    if args.command == "admissible":
        traces = admissible_traces(as_prime_power(args.q))
        print(" ".join(str(a) for a in traces))
        return EXIT_OK
    if args.command == "classify":
        m = classify_degeneracy(as_prime_power(args.q), args.a)
        print("nondegenerate" if m is None else f"degenerate, m={m}")
        return EXIT_OK
    if args.command == "sequence":
        return _cmd_sequence(args)
    if args.command == "realize":
        return _cmd_realize(args)
    if args.command == "verify-extension":
        return _cmd_verify_extension(args)
    if args.command == "paper-check":
        return _cmd_paper_check()
    raise AssertionError(f"unhandled command {args.command!r}")


def _emit(text: str, out: TextIO | None) -> None:
    sys.stdout.write(text)
    if out is not None:
        with out:
            out.write(text)


def _cmd_search(args) -> int:
    config = SearchConfig(qmax=args.qmax, nmax=args.nmax,
                          admissibility=args.admissibility,
                          degeneracy=args.degenerate)
    report = run_search(config)
    _emit(render_records(report.hits, args.fmt), args.out)
    print(f"{len(report.hits)} hits from {report.pairs_scanned} (q, a) pairs "
          f"in {report.elapsed_seconds:.2f}s", file=sys.stderr)
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
    print(f"{curve}  N={count.N} a={count.a}")
    return EXIT_OK


def _cmd_verify_extension(args) -> int:
    pp = as_prime_power(args.q)
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
        if counted != term.N_n:
            mismatches += 1
        print(f"n={term.n} q^n={pp.q ** term.n} brute-force={counted} "
              f"recurrence={term.N_n} {status}")
    return EXIT_MISMATCH if mismatches else EXIT_OK


def _cmd_paper_check() -> int:
    diff = paper_check(run_search(SearchConfig()))
    _print_paper_check(diff)
    return EXIT_OK if diff.clean else EXIT_MISMATCH


def _print_paper_check(diff: PaperCheckReport) -> None:
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
