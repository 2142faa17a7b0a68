"""The benchmark's checks pass on real program output and fail on corrupted copies.

Run with ``python3 -m pytest perfbench/tests``.
"""

import contextlib
import io
import json
import math

import pytest

import checks
import reference
from ecsquares.cli import main as cli_main
from workloads import QMAX, Command

SMALL_NMAX = 12     # holds every sporadic square (the largest n is 5)


def run_cli(*argv: str) -> checks.Output:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return checks.Output(Command(argv[0], argv), code, out.getvalue(), err.getvalue())


def reference_hits(degenerate: bool):
    return {(q, a): reference.square_terms(q, a, SMALL_NMAX)
            for q, a in reference.search_pairs(QMAX, degenerate)}


def edit_lines(out: checks.Output, edit) -> checks.Output:
    lines = out.stdout.splitlines()
    edit(lines)
    return checks.Output(out.command, out.exit, "".join(l + "\n" for l in lines), out.stderr)


def first_index(lines, predicate):
    return next(i for i, line in enumerate(lines) if predicate(json.loads(line)))


@pytest.fixture(scope="module")
def nondegenerate():
    expected = reference_hits(degenerate=False)
    return expected, run_cli("search", "--nmax", str(SMALL_NMAX))


@pytest.fixture(scope="module")
def degenerate():
    expected = reference_hits(degenerate=True)
    return expected, run_cli("search", "--nmax", str(SMALL_NMAX), "--degenerate", "only")


def verdict_of(expected, out, degenerate_only):
    return checks.check_search(expected, SMALL_NMAX, degenerate_only, out)


def test_real_search_output_passes(nondegenerate, degenerate):
    for (expected, out), flag in ((nondegenerate, False), (degenerate, True)):
        verdict = verdict_of(expected, out, flag)
        assert (verdict.failed, verdict.errors) == (0, []), verdict.failures
        assert verdict.attempted == len(expected)


def test_hit_with_u_off_by_one_fails(nondegenerate):
    expected, out = nondegenerate

    def bump(lines):
        record = json.loads(lines[0])
        u = int(record["u"]) + 1
        record.update(u=str(u), N=str(u * u))
        lines[0] = json.dumps(record, separators=(", ", ": "))

    verdict = verdict_of(expected, edit_lines(out, bump), False)
    assert verdict.failed == 1
    assert "u^2 != q^n + 1 - a_n" in verdict.failures[0]


def test_dropped_hit_fails(nondegenerate):
    expected, out = nondegenerate
    verdict = verdict_of(expected, edit_lines(out, lambda lines: lines.pop(3)), False)
    assert verdict.failed == 1


def test_extra_hit_fails(nondegenerate):
    expected, out = nondegenerate

    def add(lines):
        record = json.loads(lines[0])
        q, a, n = record["q"], record["a"], record["n"] + 1
        u = math.isqrt(reference.point_count(q, a, n))
        record.update(n=n, u=str(u), N=str(u * u))
        lines.insert(1, json.dumps(record, separators=(", ", ": ")))

    verdict = verdict_of(expected, edit_lines(out, add), False)
    assert verdict.failed == 1


def test_degenerate_pair_missing_an_on_cycle_n_fails(degenerate):
    expected, out = degenerate

    def drop(lines):
        index = first_index(lines, lambda r: r["degenerate_m"] == 4 and r["n"] == 8)
        lines.pop(index)

    verdict = verdict_of(expected, edit_lines(out, drop), True)
    assert verdict.failed == 1
    assert "n=8" in verdict.failures[0] or "hits" in verdict.failures[0]


def test_degenerate_off_cycle_square_must_be_sporadic(degenerate):
    expected, out = degenerate

    def drop(lines):
        lines.pop(first_index(lines, lambda r: (r["q"], r["a"], r["n"]) == (2, -2, 5)))

    verdict = verdict_of(expected, edit_lines(out, drop), True)
    assert verdict.failed == 1
    assert any("sporadic" in e for e in verdict.errors)


def test_brute_force_count_off_by_one_fails():
    counts = [reference.point_count(4, 1, n) for n in range(1, 5)]
    expected = {(4, 1): counts}
    out = run_cli("verify-extension", "--q", "4", "--a", "1", "--count-limit", "256")
    verdict = checks.check_verify_extension(expected, out)
    assert (verdict.attempted, verdict.failed, verdict.errors) == (4, 0, [])

    wrong = f"brute-force={counts[2] + 1} "
    corrupted = checks.Output(out.command, out.exit,
                              out.stdout.replace(f"brute-force={counts[2]} ", wrong), "")
    verdict = checks.check_verify_extension(expected, corrupted)
    assert verdict.failed == 1
    assert "brute-force" in verdict.failures[0]


def test_inadmissible_trace_must_be_refused():
    out = run_cli("realize", "--q", "8", "--a", "2")
    assert checks.check_refusal(out).errors == []
    realized = run_cli("realize", "--q", "8", "--a", "1")
    assert checks.check_refusal(realized).errors


def test_reference_doubling_matches_its_recurrence():
    for q, a in [(2, -1), (7, 5), (49, -13), (32, 8)]:
        prev, cur = 2, a
        for n in range(1, 60):
            assert reference.trace_term(q, a, n) == cur
            prev, cur = cur, a * cur - q * prev
