"""Perfect squares among elliptic-curve point counts over finite field extensions.

The library computes #E(GF(q^n)) = q^n + 1 - a_n exactly through the integer
trace recurrence, classifies degenerate (root-of-unity) trace pairs, detects
perfect squares among the counts, and validates everything against an
independent brute-force point-counting oracle over explicitly constructed
finite fields.
"""

from .curves import (
    CurveCount,
    WeierstrassCurve,
    base_change_count,
    count_points_naive,
    discriminant,
    realize_trace,
    short_weierstrass,
)
from .errors import DomainError, ResourceLimitError
from .finitefield import (
    FieldContext,
    FieldElement,
    embed_field,
    make_field_context,
)
from .numeric import isqrt, perfect_square_root, prime_power_decompose
from .search import (
    PaperCheckReport,
    SearchConfig,
    SearchReport,
    paper_check,
    run_search,
    sporadic_check,
    verify_hit,
)
from .sequence import (
    SequenceTerm,
    SquareHit,
    guaranteed_square,
    sporadic_list,
    square_hits_scan,
    trace_sequence,
    trace_term,
)
from .traces import (
    PrimePower,
    TraceSpec,
    admissible_traces,
    as_prime_power,
    classify_degeneracy,
    hasse_bound,
    trace_spec,
    waterhouse_admissible,
)

__version__ = "0.1.0"

__all__ = [
    "CurveCount",
    "DomainError",
    "FieldContext",
    "FieldElement",
    "PaperCheckReport",
    "PrimePower",
    "ResourceLimitError",
    "SearchConfig",
    "SearchReport",
    "SequenceTerm",
    "SquareHit",
    "TraceSpec",
    "WeierstrassCurve",
    "admissible_traces",
    "as_prime_power",
    "base_change_count",
    "classify_degeneracy",
    "count_points_naive",
    "discriminant",
    "embed_field",
    "guaranteed_square",
    "hasse_bound",
    "isqrt",
    "make_field_context",
    "paper_check",
    "perfect_square_root",
    "prime_power_decompose",
    "realize_trace",
    "run_search",
    "short_weierstrass",
    "sporadic_check",
    "sporadic_list",
    "square_hits_scan",
    "trace_sequence",
    "trace_spec",
    "trace_term",
    "verify_hit",
    "waterhouse_admissible",
]
