"""JSONL / CSV / table serialization of square hits.

Hits go in, one output line per ``SquareHit`` comes out; sequence rows are
not records.  A hit's values are those of ``RECORD_FIELDS``, in that order:
its own fields, N and u as decimal strings, and the Waterhouse admissibility
of (q, a).  N and u routinely exceed any fixed-width integer by thousands of
bits, so the machine formats never truncate them.  A JSONL line is one JSON
object with its keys in the fixed order, formatted directly: the bytes of
``json.dumps`` with separators ``(", ", ": ")``, as the tests check.

Hits render in runs of one (q, a) pair.  A format turns a pair into its row
function: the pair's cells (q, p, b, a, degenerate_m, admissible) are
formatted once, and each row adds n, N, u and source.  A degenerate pair's
cycle rows, n = km with N = (c^k - 1)^2, are nearly all of a degenerate
search's output.  Their digits come from exact ``decimal`` powers of c
stepped from row to row of the run, in time linear in the digits, and are
checked against the hit's u; other rows use ``str()``, quadratic in the
digits on Python 3.11.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
import sys

from .search import SearchConfig
from .sequence import SquareHit, _cycle_root
from .traces import waterhouse_admissible

RECORD_FIELDS = ("q", "p", "b", "a", "n", "N", "u",
                 "degenerate_m", "admissible", "source")

TABLE_DIGITS = 12  # table format truncates N/u beyond this many digits

# Each table column is as wide as the larger of its header and its widest cell:
# q, p and |a| below 1000, n below 100,000, N and u truncated with a digit count
# of up to 9 digits, m <= 6, "yes" and "guaranteed".
_TRUNCATED_WIDTH = len(f"{'9' * TABLE_DIGITS}…({10 ** 9 - 1} digits)")
_CELL_WIDTHS = (3, 3, 2, 4, 5, _TRUNCATED_WIDTH, _TRUNCATED_WIDTH, 1, 3, len("guaranteed"))

CSV_HEADER = ",".join(RECORD_FIELDS)


def _table_format(qmax: int = 2, nmax: int = 1):
    """(header, pair -> row) of a table of hits with q < qmax and n <= nmax:
    rows stream, so q, p, a (up to the Hasse bound of qmax - 1) and n widen
    up front."""
    q, a = len(str(qmax - 1)), len(str(-math.isqrt(4 * (qmax - 1))))
    bounds = (q, q, 0, a, len(str(nmax)), 0, 0, 0, 0, 0)
    widths = [max(len(name), *cells) for name, *cells in zip(RECORD_FIELDS, _CELL_WIDTHS, bounds)]
    w_n, w_big_n, w_u, w_m, w_admissible, w_source = widths[4:]

    def rows(pp, a: int, m: int | None, admissible: bool):
        head = "".join(f"{cell:>{width}}  "
                       for cell, width in zip((pp.q, pp.p, pp.b, a), widths))
        tail = (f"  {'' if m is None else m:>{w_m}}"
                f"  {'yes' if admissible else 'no':>{w_admissible}}  ")
        return lambda n, big_n, u, source: (
            f"{head}{n:>{w_n}}  {_truncate(big_n):>{w_big_n}}  {_truncate(u):>{w_u}}"
            f"{tail}{source:>{w_source}}\n")

    return "  ".join(map(str.rjust, RECORD_FIELDS, widths)), rows


@contextlib.contextmanager
def unlimited_int_str():
    """Lift str()'s int digit guard (Python >= 3.10.7) inside the block and
    restore the caller's limit: counts pass 4,300 digits from n = 2,545, q = 49."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


_LOW_DIGITS = 18  # cycle rows are checked against their hit on this many low digits


def _rows(run, m: int | None, row):
    """The lines ``row`` gives consecutive hits of one pair, of degenerate
    order ``m``, with N and u as digit strings.

    For a degenerate pair's hit at n = km, u = |c^k - 1| and N = c^(2k) - 2c^k + 1,
    from exact ``decimal`` powers c^k and c^(2k) stepped to each row's k: times
    c and c^2 as k advances by one, and otherwise c^k = c ** k and c^(2k) its
    square.  Each row costs time linear in its digits, where str() of an int
    is quadratic.  The digits must agree with the hit's u on the low 18 digits
    (N with u^2), or ``RuntimeError`` is raised.  Other rows go through str().
    ``decimal`` is imported at the first cycle row, whose context, the exact
    one of CPython 3.12's ``_pylong`` (nothing may round), holds to the end of
    the run.
    """
    c, low_mod = None, 10 ** _LOW_DIGITS
    with contextlib.ExitStack() as exact:
        for hit in run:
            n = hit.n
            if m is None or n % m:
                yield row(n, str(hit.N), str(hit.u), hit.source)
                continue
            k = n // m
            if c is None:
                import decimal
                exact.enter_context(decimal.localcontext(decimal.Context(
                    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation])))
                c = decimal.Decimal(_cycle_root(hit.q, hit.a, m))
                one = c_k = c_2k = decimal.Decimal(1)
                c2, j = c * c, 0
            if k == j + 1:
                c_k, c_2k = c_k * c, c_2k * c2
            elif k != j:
                c_k = c ** k
                c_2k = c_k * c_k
            j = k
            big_n, u = str(c_2k - (c_k + c_k) + one), str(abs(c_k - one))
            low = hit.u % low_mod
            if int(u[-_LOW_DIGITS:]) != low or int(big_n[-_LOW_DIGITS:]) != low * low % low_mod:
                raise RuntimeError(f"cycle row digits disagree with the hit: {hit}")
            yield row(n, big_n, u, hit.source)


def _jsonl_rows(pp, a: int, m: int | None, admissible: bool):
    # N, u and source are digit strings or fixed ASCII words: nothing to escape.
    head = f'{{"q": {pp.q}, "p": {pp.p}, "b": {pp.b}, "a": {a}, "n": '
    tail = (f'"degenerate_m": {"null" if m is None else m}, '
            f'"admissible": {"true" if admissible else "false"}, "source": "')
    return lambda n, big_n, u, source: (
        f'{head}{n}, "N": "{big_n}", "u": "{u}", {tail}{source}"}}\n')


def _csv_rows(pp, a: int, m: int | None, admissible: bool):
    head = f"{pp.q},{pp.p},{pp.b},{a},"
    tail = f",{'' if m is None else m},{'true' if admissible else 'false'},"
    return lambda n, big_n, u, source: f"{head}{n},{big_n},{u}{tail}{source}\n"


def _truncate(digits: str) -> str:
    if len(digits) <= TABLE_DIGITS:
        return digits
    return f"{digits[:TABLE_DIGITS]}…({len(digits)} digits)"


# format -> (header line or None, pair (PrimePower, a, degenerate_m, admissible)
# -> row function of a hit's n, N, u and source, ending in a newline)
FORMATS = {
    "jsonl": (None, _jsonl_rows),
    "csv": (CSV_HEADER, _csv_rows),
    "table": _table_format(),
}


def render_records(hits: list[SquareHit], fmt: str, header: bool = True,
                   config: SearchConfig | None = None) -> str:
    """The hits' lines in one format, after its header line unless ``header`` is
    false; admissibility is computed once per run.  A table is laid out
    for every hit ``config``'s search can find, so its calls' rows align.
    Each run of one pair's hits prints through one row function (``_rows``);
    ``decimal`` is imported only when there are cycle rows."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    head, pair_rows = FORMATS[fmt]
    if fmt == "table" and config is not None:
        head, pair_rows = _table_format(config.qmax, config.nmax)
    lines = [head + "\n" if head is not None and header else ""]
    with unlimited_int_str():
        pairs = itertools.groupby(hits, operator.attrgetter("q", "a", "degenerate_m"))
        for (pp, a, m), run in pairs:
            lines += _rows(run, m, pair_rows(pp, a, m, waterhouse_admissible(pp, a)))
    return "".join(lines)
