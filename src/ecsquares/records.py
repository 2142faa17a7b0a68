"""JSONL / CSV / table serialization of square hits.

Hits go in, one output line per ``SquareHit`` comes out; sequence rows are
not records.  A hit's values are those of ``RECORD_FIELDS``, in that order:
its own fields, N and u as decimal strings, and the Waterhouse admissibility
of (q, a).  N and u routinely exceed any fixed-width integer by thousands of
bits, so the machine formats never truncate them.  A JSONL line is one JSON
object with its keys in the fixed order, formatted directly: the bytes of
``json.dumps`` with separators ``(", ", ": ")``, as the tests check.

A degenerate pair's cycle rows, n = km with N = (c^k - 1)^2, are nearly all
of a degenerate search's output.  Their digits come from exact ``decimal``
powers of c stepped from row to row, in time linear in the digits, and are
checked against the hit's u; other rows use ``str()``, quadratic in the
digits on Python 3.11.
"""

from __future__ import annotations

import contextlib
import math
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
    """(header, row) of a table of hits with q < qmax and n <= nmax: rows stream,
    so q, p, a (up to the Hasse bound of qmax - 1) and n widen up front."""
    q, a = len(str(qmax - 1)), len(str(-math.isqrt(4 * (qmax - 1))))
    bounds = (q, q, 0, a, len(str(nmax)), 0, 0, 0, 0, 0)
    widths = [max(len(name), *cells) for name, *cells in zip(RECORD_FIELDS, _CELL_WIDTHS, bounds)]

    def line(cells) -> str:
        return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))

    def row(values: tuple) -> str:
        q, p, b, a, n, big_n, u, m, admissible, source = values
        return line((str(q), str(p), str(b), str(a), str(n), _truncate(big_n), _truncate(u),
                     "" if m is None else str(m), "yes" if admissible else "no", source))

    return line(RECORD_FIELDS), row


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


def _str_digits(hit: SquareHit) -> tuple[str, str]:
    return str(hit.N), str(hit.u)


_LOW_DIGITS = 18  # cycle rows are checked against their hit on this many low digits


def _cycle_digits():
    """(digits, context): ``digits`` gives a hit's (N, u) strings, through exact
    ``decimal`` powers for cycle rows, inside ``context``.

    For a degenerate pair's hit at n = km, u = |c^k - 1| and N = c^(2k) - 2c^k + 1,
    with c^k and c^(2k) kept per pair and stepped to each row's k: times c and
    c^2 as k advances by one, and otherwise c^k = c ** k and c^(2k) its square.
    Each row costs time linear in its digits, where str() of an int is
    quadratic.  The digits must agree with the hit's u on the low 18 digits
    (N with u^2), or ``RuntimeError`` is raised.  Other rows go through str().
    The context is the exact one of CPython 3.12's ``_pylong``: nothing may
    round.
    """
    import decimal

    one, low_mod, powers = decimal.Decimal(1), 10 ** _LOW_DIGITS, {}

    def digits(hit: SquareHit) -> tuple[str, str]:
        m = hit.degenerate_m
        if m is None or hit.n % m:
            return _str_digits(hit)
        pair, k = (hit.q.q, hit.a), hit.n // m
        if pair not in powers:
            c = decimal.Decimal(_cycle_root(hit.q, hit.a, m))
            powers[pair] = [c, c * c, 0, one, one]
        c, c2, j, c_k, c_2k = state = powers[pair]
        if k == j + 1:
            c_k, c_2k = c_k * c, c_2k * c2
        elif k != j:
            c_k = c ** k
            c_2k = c_k * c_k
        state[2:] = k, c_k, c_2k
        big_n, u = str(c_2k - 2 * c_k + 1), str(abs(c_k - 1))
        low = hit.u % low_mod
        if (int(u[-_LOW_DIGITS:]) != low
                or int(big_n[-_LOW_DIGITS:]) != low * low % low_mod):
            raise RuntimeError(f"cycle row digits disagree with the hit: {hit}")
        return big_n, u

    return digits, decimal.localcontext(decimal.Context(
        prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
        traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation]))


def _values(hit: SquareHit, admissible: bool, digits) -> tuple:
    """The hit's values in ``RECORD_FIELDS`` order, N and u from ``digits``."""
    pp = hit.q
    big_n, u = digits(hit)
    return (pp.q, pp.p, pp.b, hit.a, hit.n, big_n, u,
            hit.degenerate_m, admissible, hit.source)


def _json_line(values: tuple) -> str:
    # N, u and source are digit strings or fixed ASCII words: nothing to escape.
    q, p, b, a, n, big_n, u, m, admissible, source = values
    return (f'{{"q": {q}, "p": {p}, "b": {b}, "a": {a}, "n": {n}, "N": "{big_n}", "u": "{u}", '
            f'"degenerate_m": {"null" if m is None else m}, '
            f'"admissible": {"true" if admissible else "false"}, "source": "{source}"}}')


def _csv_row(values: tuple) -> str:
    *head, m, admissible, source = values
    return ",".join([*map(str, head), "" if m is None else str(m),
                     "true" if admissible else "false", source])


def _truncate(digits: str) -> str:
    if len(digits) <= TABLE_DIGITS:
        return digits
    return f"{digits[:TABLE_DIGITS]}…({len(digits)} digits)"


# format -> (header line or None, row of a hit's values)
FORMATS = {
    "jsonl": (None, _json_line),
    "csv": (CSV_HEADER, _csv_row),
    "table": _table_format(),
}


def render_records(hits: list[SquareHit], fmt: str, header: bool = True,
                   config: SearchConfig | None = None) -> str:
    """The hits' lines in one format, after its header line unless ``header`` is
    false; admissibility is computed once per (q, a) pair.  A table is laid out
    for every hit ``config``'s search can find, so its calls' rows align.
    Cycle rows print from exact decimal powers (``_cycle_digits``); ``decimal``
    is imported only when there are any."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    head, row = FORMATS[fmt]
    if fmt == "table" and config is not None:
        head, row = _table_format(config.qmax, config.nmax)
    head = "" if head is None or not header else head + "\n"
    admissible = {}
    for hit in hits:
        if (hit.q.q, hit.a) not in admissible:
            admissible[hit.q.q, hit.a] = waterhouse_admissible(hit.q, hit.a)
    digits, exact = _str_digits, contextlib.nullcontext()
    if any(hit.degenerate_m and hit.n % hit.degenerate_m == 0 for hit in hits):
        digits, exact = _cycle_digits()
    with unlimited_int_str(), exact:
        return head + "".join(row(_values(hit, admissible[hit.q.q, hit.a], digits)) + "\n"
                              for hit in hits)
