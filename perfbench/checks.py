"""Checks of one pass's CLI output against the independent reference.

An operation is one (q, a) pair of a search command, or one brute-force
extension count of ``verify-extension``.  ``Verdict.failed`` counts the
operations whose output is wrong or missing; ``Verdict.errors`` holds what
is wrong outside any operation (a wrong exit code, a refusal not made), and
any error makes the pass incorrect.  Nothing here compares against stored
program output: every expectation comes from ``reference``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import reference
import workloads
from workloads import QMAX, PAPER_NMAX, SEARCH_DEEP_NMAX, Command


@dataclass
class Output:
    """What one command left behind: exit code and captured streams."""

    command: Command
    exit: int | None          # None when the command raised
    stdout: str
    stderr: str


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def operations(self, count: int, bad: dict[object, str]) -> None:
        self.attempted += count
        self.failed += len(bad)
        self.failures += [f"{key}: {why}" for key, why in sorted(bad.items(), key=str)]

    def merge(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors
        self.failures += other.failures


class Expectations:
    """Reference results for one workload, computed once per benchmark run."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        if workload == "search-deep":
            self.hits = _reference_hits(SEARCH_DEEP_NMAX, degenerate=False)
            self.paper_matching = sum(n <= PAPER_NMAX for h in self.hits.values() for n in h)
        elif workload == "search-degenerate":
            self.hits = _reference_hits(PAPER_NMAX, degenerate=True)
        elif workload == "oracle":
            sample = workloads.oracle_sample(seed)
            self.counts = {
                (q, a): [reference.point_count(q, a, n)
                         for n in range(1, workloads.extension_degrees(q) + 1)]
                for q, a in sample.verify}
        else:
            raise ValueError(f"unknown workload {workload!r}")


def _reference_hits(nmax: int, degenerate: bool) -> dict[tuple[int, int], dict[int, int]]:
    return {(q, a): reference.square_terms(q, a, nmax)
            for q, a in reference.search_pairs(QMAX, degenerate)}


def check_pass(expect: Expectations, outputs: list[Output]) -> Verdict:
    verdict = Verdict()
    for out in outputs:
        kind = out.command.argv[0]
        if kind == "paper-check":
            verdict.merge(check_paper_check(expect, out))
        elif kind == "search":
            degenerate = expect.workload == "search-degenerate"
            nmax = PAPER_NMAX if degenerate else SEARCH_DEEP_NMAX
            verdict.merge(check_search(expect.hits, nmax, degenerate, out))
        elif kind == "verify-extension":
            verdict.merge(check_verify_extension(expect.counts, out))
        elif kind == "realize":
            verdict.merge(check_refusal(out))
        else:
            raise ValueError(f"no check for {kind!r}")
    return verdict


def check_paper_check(expect: Expectations, out: Output) -> Verdict:
    """Exit 0, the reference's count of matches, nothing missing or extra,
    the four documented deviations."""
    verdict = Verdict()
    lines = out.stdout.splitlines()
    counts = dict(re.findall(r"^(matching|missing|extra): (\d+)$", out.stdout, re.M))
    deviations = 0
    if "expected deviations:" in lines:
        for line in lines[lines.index("expected deviations:") + 1:]:
            if not line.startswith("  - "):
                break
            deviations += 1
    wrong = []
    if out.exit != 0:
        wrong.append(f"exit {out.exit}")
    if counts != {"matching": str(expect.paper_matching), "missing": "0", "extra": "0"}:
        wrong.append(f"counts {counts}, reference matches {expect.paper_matching}")
    if deviations != 4:
        wrong.append(f"{deviations} documented deviations, expected 4")
    # The verdict covers the whole range, so a wrong one fails every pair.
    verdict.attempted = len(expect.hits)
    if wrong:
        verdict.failed = len(expect.hits)
        verdict.failures.append("paper-check: " + "; ".join(wrong))
    return verdict


_RECORD_KEYS = ["q", "p", "b", "a", "n", "N", "u", "degenerate_m", "admissible", "source"]
_SUMMARY = re.compile(r"^\d+ hits from (\d+) \(q, a\) pairs in ", re.M)


def check_search(expected: dict[tuple[int, int], dict[int, int]], nmax: int,
                 degenerate: bool, out: Output) -> Verdict:
    """JSONL hits per pair equal the reference scan, each record is
    self-consistent and its u is checked by doubling; degenerate pairs also
    show their structural squares and exactly the sporadic off-cycle ones."""
    verdict = Verdict()
    if out.exit != 0:
        verdict.operations(len(expected), {pair: f"exit {out.exit}" for pair in expected})
        return verdict
    produced: dict[tuple[int, int], dict[int, int]] = {}
    bad: dict[object, str] = {}
    triples = []
    for number, line in enumerate(out.stdout.splitlines(), 1):
        try:
            record = json.loads(line)
            pair = (record["q"], record["a"])
            problem = _record_problem(record, degenerate)
        except (ValueError, KeyError, TypeError) as exc:
            verdict.errors.append(f"line {number}: unreadable record ({exc})")
            continue
        if pair not in expected:
            verdict.errors.append(f"line {number}: pair {pair} outside the reference's range")
            continue
        hits = produced.setdefault(pair, {})
        if problem:
            bad[pair] = f"n={record['n']}: {problem}"
        elif record["n"] in hits:
            bad[pair] = f"n={record['n']} reported twice"
        hits[record["n"]] = int(record["u"])
        triples.append((*pair, record["n"]))
    if triples != sorted(triples):
        verdict.errors.append("records are not in (q, a, n) order")
    for pair, hits in expected.items():
        got = produced.get(pair, {})
        if pair not in bad and got != hits:
            bad[pair] = (f"hits {sorted(got.items())[:4]} != reference "
                         f"{sorted(hits.items())[:4]}")
        if degenerate and pair not in bad:
            problem = _degenerate_problem(pair, got, nmax)
            if problem:
                bad[pair] = problem
    if degenerate:
        off_cycle = {(q, a, n, u) for (q, a), hits in produced.items()
                     for n, u in hits.items() if n % reference.degenerate_order(q, a)}
        if off_cycle != reference.SPORADIC_SQUARES:
            verdict.errors.append(
                f"off-cycle squares {sorted(off_cycle ^ reference.SPORADIC_SQUARES)} "
                f"differ from the sporadic list")
    summary = _SUMMARY.search(out.stderr)
    if summary is None or int(summary.group(1)) != len(expected):
        verdict.errors.append(
            f"summary {summary and summary.group(0)!r} does not name "
            f"{len(expected)} pairs")
    verdict.operations(len(expected), bad)
    return verdict


def _record_problem(record: dict, degenerate: bool) -> str | None:
    if list(record) != _RECORD_KEYS:
        return f"keys {list(record)}"
    q, a, n = record["q"], record["a"], record["n"]
    u, big_n = int(record["u"]), int(record["N"])
    m = reference.degenerate_order(q, a)
    if (record["p"], record["b"]) != reference.prime_power(q):
        return f"p, b = {record['p']}, {record['b']}"
    if record["degenerate_m"] != m or (m is not None) != degenerate:
        return f"degenerate_m {record['degenerate_m']}, reference {m}"
    if record["admissible"] is not True or record["source"] != "scan":
        return f"admissible {record['admissible']}, source {record['source']!r}"
    if big_n != u * u:
        return "N != u^2"
    if u < 0 or u * u != reference.point_count(q, a, n):
        return f"u = {u} but u^2 != q^n + 1 - a_n"
    return None


def _degenerate_problem(pair: tuple[int, int], hits: dict[int, int], nmax: int) -> str | None:
    q, a = pair
    m = reference.degenerate_order(q, a)
    for n in range(m, nmax + 1, m):
        s = reference.square_root(q ** n)
        if s is None:
            return f"q^{n} is not a square"
        if hits.get(n) not in (s - 1, s + 1):
            return f"n={n} = 0 mod {m}: u = {hits.get(n)}, expected s-1 or s+1 for s = {s}"
    return None


_COUNT_LINE = re.compile(
    r"^n=(\d+) q\^n=(\d+) brute-force=(-?\d+) recurrence=(-?\d+) (ok|MISMATCH)$", re.M)


def check_verify_extension(expected: dict[tuple[int, int], list[int]], out: Output) -> Verdict:
    """Each brute-force count equals q^n + 1 - a_n by doubling and meets Hasse."""
    verdict = Verdict()
    argv = out.command.argv
    q, a = int(argv[argv.index("--q") + 1]), int(argv[argv.index("--a") + 1])
    counts = expected[(q, a)]
    lines = {int(n): (int(qn), int(c), int(r), status)
             for n, qn, c, r, status in _COUNT_LINE.findall(out.stdout)}
    bad = {}
    for n, count in enumerate(counts, 1):
        key = (q, a, n)
        if n not in lines:
            bad[key] = "no count"
            continue
        qn, brute, recurrence, status = lines[n]
        trace = q ** n + 1 - brute
        if qn != q ** n or brute != count:
            bad[key] = f"brute-force {brute}, reference {count}"
        elif trace * trace > 4 * q ** n:
            bad[key] = f"count {brute} breaks the Hasse bound"
        elif recurrence != count or status != "ok":
            bad[key] = f"recurrence {recurrence} {status}, reference {count}"
    if set(lines) - set(range(1, len(counts) + 1)):
        verdict.errors.append(f"{(q, a)}: counts beyond the limit {sorted(lines)}")
    if out.exit != 0 and not bad:
        verdict.errors.append(f"{(q, a)}: exit {out.exit} with every count right")
    verdict.operations(len(counts), bad)
    return verdict


def check_refusal(out: Output) -> Verdict:
    """realize on an inadmissible trace prints the refusal and exits 0."""
    verdict = Verdict()
    if out.exit != 0 or out.stdout.strip() != "none: inadmissible":
        verdict.errors.append(
            f"{' '.join(out.command.argv)}: exit {out.exit}, output {out.stdout[:80]!r}")
    return verdict
