import dataclasses
import errno
import functools
import gc
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import pytest

import ecsquares.cli
from ecsquares import (DomainError, ResourceLimitError, SearchConfig, base_change_count,
                       guaranteed_square, make_field_context, run_search, short_weierstrass,
                       sporadic_list)
from ecsquares.cli import build_parser, main
from ecsquares.records import CSV_HEADER, FORMATS, RECORD_FIELDS, render_records, unlimited_int_str
from ecsquares.traces import waterhouse_admissible


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_degenerate(capsys):
    code, out, _ = run_cli(capsys, "classify", "--q", "32", "--a", "8")
    assert code == 0
    assert out.strip() == "degenerate, m=4"


def test_classify_nondegenerate(capsys):
    code, out, _ = run_cli(capsys, "classify", "--q", "7", "--a", "3")
    assert code == 0
    assert out.strip() == "nondegenerate"


def test_classify_beyond_the_trial_divisor_cap_is_a_resource_error(capsys):
    # (2^20 + 7)^2 has no prime factor below the trial-division cap.
    code, out, err = run_cli(capsys, "classify", "--q", "1099526307889", "--a", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "trial division" in err


def test_classify_hasse_violation_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "classify", "--q", "2", "--a", "5")
    assert code == 2
    assert "error" in err


def test_admissible_lists_traces(capsys):
    code, out, _ = run_cli(capsys, "admissible", "--q", "4")
    assert code == 0
    assert out.split() == ["-4", "-3", "-2", "-1", "0", "1", "2", "3", "4"]


def test_admissible_rejects_non_prime_power(capsys):
    code, _, err = run_cli(capsys, "admissible", "--q", "36")
    assert code == 2
    assert "36" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "admissible", "--qq", "4")
    assert code == 1


def test_missing_command_is_usage_error(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 1


def test_usage_errors_say_what_was_wrong(capsys):
    code, out, err = run_cli(capsys, "search", "--format", "xml")
    assert code == 1
    assert out == ""
    assert err.startswith("usage: ecsquares search")
    assert "ecsquares search: error: argument --format" in err
    assert "invalid choice" in err
    code, _, err = run_cli(capsys, "realize", "--q", "7")
    assert code == 1
    assert "ecsquares realize: error:" in err and "--a" in err


def test_sequence_squares_only(capsys):
    code, out, _ = run_cli(capsys, "sequence", "--q", "2", "--a", "-1",
                           "--nmax", "11", "--squares-only")
    assert code == 0
    lines = out.strip().splitlines()
    assert [line.split()[0] for line in lines] == ["n=1", "n=3", "n=4", "n=11"]
    assert lines[-1].endswith("u=46")


# `sequence --squares-only` takes its squares from the residue sieve and
# rebuilds a_n as q^n + 1 - u^2; these rows are the exact loop's output.
SQUARES_ONLY_ROWS = {
    ("2", "-1"): ("n=1 a_n=-1 N=4 u=2\n"
                  "n=3 a_n=5 N=4 u=2\n"
                  "n=4 a_n=1 N=16 u=4\n"
                  "n=11 a_n=-67 N=2116 u=46\n"),
    ("2", "2"): ("n=1 a_n=2 N=1 u=1\n"
                 "n=4 a_n=-8 N=25 u=5\n"
                 "n=8 a_n=32 N=225 u=15\n"
                 "n=12 a_n=-128 N=4225 u=65\n"
                 "n=16 a_n=512 N=65025 u=255\n"
                 "n=20 a_n=-2048 N=1050625 u=1025\n"
                 "n=24 a_n=8192 N=16769025 u=4095\n"
                 "n=28 a_n=-32768 N=268468225 u=16385\n"
                 "n=32 a_n=131072 N=4294836225 u=65535\n"
                 "n=36 a_n=-524288 N=68720001025 u=262145\n"
                 "n=40 a_n=2097152 N=1099509530625 u=1048575\n"),
}


@pytest.mark.parametrize("q, a", sorted(SQUARES_ONLY_ROWS))
def test_sequence_squares_only_is_pinned(capsys, q, a):
    code, out, _ = run_cli(capsys, "sequence", "--q", q, "--a", a, "--nmax", "40",
                           "--squares-only")
    assert code == 0
    assert out == SQUARES_ONLY_ROWS[(q, a)]
    # The unfiltered listing prints the same rows among its non-squares.
    code, full, _ = run_cli(capsys, "sequence", "--q", q, "--a", a, "--nmax", "40")
    assert code == 0
    assert [line for line in full.splitlines(True) if " u=" in line] == out.splitlines(True)


def test_sequence_full_output(capsys):
    code, out, _ = run_cli(capsys, "sequence", "--q", "2", "--a", "-1", "--nmax", "3")
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_realize_prints_curve(capsys):
    code, out, _ = run_cli(capsys, "realize", "--q", "7", "--a", "-1")
    assert code == 0
    assert out.startswith("[0,0,0,0,2] over GF(7^1)")
    assert "N=9" in out and "a=-1" in out


def test_realize_inadmissible(capsys):
    code, out, _ = run_cli(capsys, "realize", "--q", "27", "--a", "3")
    assert code == 0
    assert out.strip() == "none: inadmissible"


def test_realize_hasse_violation(capsys):
    code, _, err = run_cli(capsys, "realize", "--q", "7", "--a", "8")
    assert code == 2


@pytest.mark.parametrize("command", ["realize", "verify-extension"])
def test_realization_guard_exits_2(capsys, monkeypatch, command):
    # GF(2048) is above the realization guard; refused before any field is built.
    def no_sweep(pp):
        raise AssertionError(f"swept GF({pp.q})")

    monkeypatch.setattr("ecsquares.curves._realization_table", no_sweep)
    code, out, err = run_cli(capsys, command, "--q", "2048", "--a", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "realization guard" in err


def test_verify_extension(capsys):
    code, out, _ = run_cli(capsys, "verify-extension", "--q", "2", "--a", "-1",
                           "--count-limit", "4096")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 12  # 2^12 = 4096
    assert all(line.endswith(" ok") for line in lines)


def test_verify_extension_count_limit_above_field_guard(capsys):
    # 2^21 > 2^20: refused before GF(2) is extended at all.
    code, _, err = run_cli(capsys, "verify-extension", "--q", "2", "--a", "1",
                           "--count-limit", "2097152")
    assert code == 2
    assert "guard" in err


def test_verify_extension_refuses_an_over_guard_limit_before_realizing(capsys, monkeypatch):
    # Realizing a trace over GF(1021) sweeps the field: the limit is checked first,
    # with the message base_change_count gives for the same limit.
    def no_realization(pp, a):
        raise AssertionError(f"realized a trace over GF({pp.q})")

    monkeypatch.setattr(ecsquares.cli, "realize_trace", no_realization)
    code, out, err = run_cli(capsys, "verify-extension", "--q", "1021", "--a", "5",
                             "--count-limit", "2000000")
    assert code == 2
    assert out == ""
    curve = short_weierstrass(make_field_context(7, 1), 0, 2)
    with pytest.raises(ResourceLimitError) as refusal:
        base_change_count(curve, 1, limit=2000000)
    assert err == f"error: {refusal.value}\n"
    assert err == "error: count limit 2000000 exceeds the field-size guard of 1048576\n"


def test_verify_extension_inadmissible_comes_before_a_limit_below_q(capsys):
    code, out, err = run_cli(capsys, "verify-extension", "--q", "27", "--a", "3",
                             "--count-limit", "1")
    assert code == 2
    assert out == ""
    assert err == "none: inadmissible\n"
    # And the Hasse bound before the count guard.
    code, _, err = run_cli(capsys, "verify-extension", "--q", "7", "--a", "8",
                           "--count-limit", "2000000")
    assert code == 2
    assert "Hasse bound" in err


def test_verify_extension_nothing_to_verify(capsys):
    # q = 2 already exceeds a count limit of 1, so no extension is counted.
    code, out, err = run_cli(capsys, "verify-extension", "--q", "2", "--a", "1",
                             "--count-limit", "1")
    assert code == 0
    assert out == ""
    assert "nothing to verify" in err


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_verify_extension_count_limit_below_one_is_usage_error(capsys, limit):
    code, out, err = run_cli(capsys, "verify-extension", "--q", "2", "--a", "1",
                             "--count-limit", limit)
    assert code == 1
    assert out == ""
    assert err.startswith("usage: ecsquares verify-extension")
    assert f"error: argument --count-limit: must be at least 1, got {limit}" in err
    assert "nothing to verify" not in err


def test_verify_extension_count_limit_not_an_int_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify-extension", "--q", "2", "--a", "1",
                             "--count-limit", "abc")
    assert code == 1
    assert out == ""
    assert err.startswith("usage: ecsquares verify-extension")
    assert "error: argument --count-limit: invalid int value: 'abc'" in err


def test_verify_extension_mismatch_exits_3(capsys, monkeypatch):
    real_count = ecsquares.cli.base_change_count

    def off_by_one(curve, n, limit):
        return real_count(curve, n, limit=limit) + 1

    monkeypatch.setattr(ecsquares.cli, "base_change_count", off_by_one)
    code, out, _ = run_cli(capsys, "verify-extension", "--q", "2", "--a", "-1",
                           "--count-limit", "64")
    assert code == 3
    lines = out.splitlines()
    assert len(lines) == 6  # 2^6 = 64
    assert all(line.endswith(" MISMATCH") for line in lines)


def test_paper_check_mismatch_exits_3(capsys, monkeypatch):
    # One published hit dropped, one hit the table does not list, one wrong u.
    report = run_search(SearchConfig())
    dropped, wrong = report.hits[0], report.hits[1]
    extra = guaranteed_square(2, -2, 8)
    hits = [extra, wrong._replace(u=wrong.u + 1), *report.hits[2:]]
    monkeypatch.setattr(ecsquares.cli, "run_search",
                        lambda config: dataclasses.replace(report, hits=hits))
    code, out, _ = run_cli(capsys, "paper-check")
    assert code == 3
    lines = out.splitlines()
    assert lines[:5] == ["matching: 51", "missing: 1", f"  missing {dropped.triple()}",
                         "extra: 1", f"  extra {extra.triple()}"]
    assert lines[5] == f"verification failures: [{wrong.triple()}]"
    assert lines[-1] == "result: MISMATCH"


def test_verify_extension_inadmissible(capsys):
    code, _, err = run_cli(capsys, "verify-extension", "--q", "27", "--a", "3")
    assert code == 2
    assert "inadmissible" in err


def test_paper_check_rejects_wrong_ranges(capsys, monkeypatch):
    # paper-check takes no range options: any is a usage error, refused
    # before a search starts.
    def no_search(config):
        raise AssertionError("search started")

    monkeypatch.setattr("ecsquares.cli.run_search", no_search)
    code, _, err = run_cli(capsys, "paper-check", "--qmax", "10")
    assert code == 1
    assert "unrecognized arguments: --qmax 10" in err
    code, _, err = run_cli(capsys, "paper-check", "--nmax", "1000000000")
    assert code == 1


def test_search_jsonl_and_csv_agree(capsys, tmp_path):
    code, jsonl_out, err = run_cli(capsys, "search", "--qmax", "8", "--nmax", "40")
    assert code == 0
    assert "pairs" in err
    json_records = [json.loads(line) for line in jsonl_out.strip().splitlines()]
    assert json_records  # (2,-1,1) etc.

    code, csv_out, _ = run_cli(capsys, "search", "--qmax", "8", "--nmax", "40",
                               "--format", "csv")
    assert code == 0
    csv_lines = csv_out.strip().splitlines()
    assert csv_lines[0] == CSV_HEADER
    csv_rows = [row.split(",") for row in csv_lines[1:]]
    assert [[_csv_cell(record[name]) for name in RECORD_FIELDS]
            for record in json_records] == csv_rows


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def test_search_out_file_matches_stdout(capsys, tmp_path):
    out_file = tmp_path / "hits.jsonl"
    code, stdout, _ = run_cli(capsys, "search", "--qmax", "8", "--nmax", "40",
                              "--out", str(out_file))
    assert code == 0
    assert out_file.read_text(encoding="utf-8") == stdout


@pytest.mark.parametrize("fmt", ["jsonl", "csv", "table"])
def test_search_writes_the_header_once_then_each_pairs_rows(capsys, tmp_path, monkeypatch, fmt):
    calls = []

    def spy(hits, fmt, header=True, config=None):
        calls.append(({(hit.q.q, hit.a) for hit in hits}, header))
        return render_records(hits, fmt, header, config)

    monkeypatch.setattr(ecsquares.cli, "render_records", spy)
    out_file = tmp_path / "hits.out"
    code, out, _ = run_cli(capsys, "search", "--qmax", "8", "--nmax", "40",
                           "--degenerate", "include", "--format", fmt, "--out", str(out_file))
    assert code == 0
    report = run_search(SearchConfig(qmax=8, nmax=40, degeneracy="include"))
    assert out == render_records(report.hits, fmt) == out_file.read_text(encoding="utf-8")
    # One header call, then one call per pair with at most that pair's hits.
    assert calls[0] == (set(), True)
    assert len(calls) == 1 + report.pairs_scanned
    assert all(len(pairs) <= 1 and not header for pairs, header in calls[1:])
    assert sum(len(pairs) for pairs, _ in calls) == len({(h.q.q, h.a) for h in report.hits})


def test_render_records_checks_admissibility_once_per_pair(monkeypatch):
    import ecsquares.records

    hits = run_search(SearchConfig(qmax=10, nmax=40, degeneracy="include")).hits
    expected = render_records(hits, "jsonl")
    calls = []

    def counted(q, a):
        calls.append((q, a))
        return waterhouse_admissible(q, a)

    monkeypatch.setattr(ecsquares.records, "waterhouse_admissible", counted)
    assert render_records(hits, "jsonl") == expected
    assert sorted(calls, key=str) == sorted({(h.q, h.a) for h in hits}, key=str)
    assert len(calls) < len(hits)


def test_search_out_bad_path_fails_before_searching(capsys, tmp_path, monkeypatch):
    def no_search(config):
        raise AssertionError("searched before opening --out")

    monkeypatch.setattr("ecsquares.cli.run_search", no_search)
    bad = tmp_path / "missing" / "hits.jsonl"
    code, out, err = run_cli(capsys, "search", "--out", str(bad))
    assert code == 1
    assert out == ""
    assert str(bad) in err and "No such file or directory" in err
    assert "Traceback" not in err


def test_search_out_is_closed_when_the_search_fails(capsys, tmp_path):
    out_file = tmp_path / "hits.jsonl"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code, out, err = run_cli(capsys, "search", "--qmax", "1", "--out", str(out_file))
        gc.collect()
    assert code == 2
    assert out == "" and "qmax" in err
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_unwritable_stdout_is_a_resource_error(capsys, monkeypatch, tmp_path):
    # In process, with a stdout that has no descriptor; --out is still closed.
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    out_file = tmp_path / "hits.jsonl"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        codes = [main(["classify", "--q", "7", "--a", "3"]),
                 main(["search", "--qmax", "8", "--nmax", "40", "--out", str(out_file)])]
        gc.collect()
    assert codes == [2, 2]
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n" * 2
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def _cli_process(stdout, stderr=subprocess.PIPE):
    src = pathlib.Path(ecsquares.cli.__file__).resolve().parents[1]
    env = {"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.Popen(
        [sys.executable, "-m", "ecsquares", "sequence", "--q", "2", "--a", "-1", "--nmax", "3000"],
        stdout=stdout, stderr=stderr, env=env)


def test_a_reader_that_stops_early_ends_the_process_with_one_error_line():
    # ``ecsquares ... | head -c 100``: about 2.1 MB of output, read 100 bytes.
    process = _cli_process(subprocess.PIPE)
    assert len(process.stdout.read(100)) == 100
    process.stdout.close()
    err = process.stderr.read().decode()
    process.stderr.close()
    assert process.wait() == 2
    assert err == "error: [Errno 32] Broken pipe\n"


def test_a_reader_of_both_streams_that_stops_early_gets_exit_2():
    # ``ecsquares ... 2>&1 | head -c 100``: the error line cannot be written
    # either, and that is no reason for a traceback or another exit code.
    read_end, write_end = os.pipe()
    process = _cli_process(write_end, write_end)
    os.close(write_end)
    with open(read_end, "rb") as reader:
        assert len(reader.read(100)) == 100
    assert process.wait() == 2


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_device_ends_the_process_with_one_error_line():
    with open("/dev/full", "w") as full:
        process = _cli_process(full)
        err = process.stderr.read().decode()
        process.stderr.close()
    assert process.wait() == 2
    assert err == "error: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_out_file_is_reported_without_the_search_summary(capsys):
    # --out is flushed before the "hits from pairs" summary, so its failure
    # is the only stderr line; stdout still gets every record.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code, out, err = run_cli(capsys, "search", "--qmax", "5", "--out", "/dev/full")
        gc.collect()
    assert code == 2
    assert err == "error: [Errno 28] No space left on device\n"
    assert len(out.splitlines()) == 9
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_search_out_is_not_created_when_a_later_argument_fails(capsys, tmp_path):
    out_file = tmp_path / "hits.jsonl"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code, out, err = run_cli(capsys, "search", "--out", str(out_file), "--nmax", "abc")
        gc.collect()
    assert code == 1
    assert out == "" and "--nmax" in err
    assert not out_file.exists()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_search_record_fields_round_trip(capsys):
    code, out, _ = run_cli(capsys, "search", "--qmax", "6", "--nmax", "20")
    assert code == 0
    for line in out.strip().splitlines():
        data = json.loads(line)
        assert json.dumps(data, separators=(", ", ": ")) == line
        assert list(data.keys()) == ["q", "p", "b", "a", "n", "N", "u",
                                     "degenerate_m", "admissible", "source"]
        assert isinstance(data["N"], str) and isinstance(data["u"], str)


def test_jsonl_writer_matches_json_dumps_on_every_branch():
    # hasse screening keeps (27, 3, 1), which is not Waterhouse-admissible.
    hits = run_search(SearchConfig(qmax=28, nmax=10, admissibility="hasse",
                                   degeneracy="include")).hits
    hits += [guaranteed_square(49, 14, 300), guaranteed_square(2, -2, 8)]
    hits += sporadic_list()
    records = []
    for line in render_records(hits, "jsonl").splitlines():
        data = json.loads(line)
        assert json.dumps(data, separators=(", ", ": ")) == line
        records.append(data)
    assert len(records) == len(hits)
    assert {r["degenerate_m"] is None for r in records} == {True, False}
    assert {r["admissible"] for r in records} == {True, False}
    assert {r["source"] for r in records} == {"scan", "guaranteed", "sporadic"}
    assert min(r["a"] for r in records) < 0 < max(r["a"] for r in records)
    assert any((r["q"], r["a"], r["n"], r["admissible"]) == (27, 3, 1, False)
               for r in records)


def test_search_table_format_truncates_large_counts(capsys):
    code, out, _ = run_cli(capsys, "search", "--qmax", "3", "--nmax", "200",
                           "--format", "table", "--degenerate", "include")
    assert code == 0
    assert "…(" in out  # q^200 has far more than 12 digits


@pytest.mark.parametrize("argv", [
    ("--qmax", "3", "--nmax", "400", "--degenerate", "include"),
    ("--nmax", "200", "--admissibility", "hasse", "--degenerate", "include"),
])
def test_search_table_columns_are_aligned(capsys, argv):
    # Counts of 100 or more digits are truncated to cells as wide as the rest.
    code, out, _ = run_cli(capsys, "search", *argv, "--format", "table")
    assert code == 0
    header, *rows = out.splitlines()
    assert any("digits)" in row for row in rows)
    assert {len(line) for line in rows} == {len(header)}


def test_search_table_columns_widen_to_the_config_bounds(capsys):
    # q = 1009 and 1024 have 4 digits: every column is laid out for q < qmax
    # before the first row streams, so the header is widened too.
    code, out, _ = run_cli(capsys, "search", "--qmax", "1030", "--nmax", "2",
                           "--degenerate", "include", "--format", "table")
    assert code == 0
    header, *rows = out.splitlines()
    assert len(rows) == 640 and any(row.lstrip().startswith("1024 ") for row in rows)
    assert {len(line) for line in rows} == {len(header)}


def test_search_degenerate_only_mode(capsys):
    code, out, _ = run_cli(capsys, "search", "--qmax", "4", "--nmax", "8",
                           "--degenerate", "only")
    assert code == 0
    for line in out.strip().splitlines():
        assert json.loads(line)["degenerate_m"] in (1, 2, 3, 4, 6)


# sha256 of stdout for `search --nmax 200 --admissibility hasse --degenerate
# include` in each format; the bytes of every format are part of the output
# contract.  5,452 records: 233 inadmissible, 53 nondegenerate, and 5,085
# truncated table cells, each column as wide as its header and widest cell.
FORMAT_SHA256 = {
    "jsonl": "073b8e846fd54872c59a6ab92299a35397e9723f5a69f76611900574586cb6ab",
    "csv": "086c2d190ce41d3c9c3fb30412778e1248c339a251cc0958b50c32df0bd5ff6d",
    "table": "bbbad3080fa76d3148ee880f027a8fc97c3d10fe17d2b7fc8a3d0a2b6af81cc4",
}


@pytest.mark.parametrize("fmt", sorted(FORMAT_SHA256))
def test_search_formats_are_pinned(capsys, fmt):
    code, out, _ = run_cli(capsys, "search", "--nmax", "200", "--admissibility", "hasse",
                           "--degenerate", "include", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FORMAT_SHA256[fmt]


def test_render_records_rejects_an_unknown_format():
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        render_records(sporadic_list(), "xml")


# sha256 of the JSONL stdout of `search --qmax 200`, beyond the paper's q < 50:
# 128 records from the 1,854 nondegenerate Waterhouse-admissible pairs with
# q < 200, n <= 1000.
QMAX_200_SHA256 = "36d7d618333791b211690193e6b3a9e44ce3519ed10b9628083dfcaad519facf"


def test_search_beyond_the_paper_qmax_200_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "search", "--qmax", "200")
    assert code == 0
    assert len(out.splitlines()) == 128
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == QMAX_200_SHA256


# sha256 of the JSONL stdout of `search --degenerate only`: 25,835 records from
# the 50 degenerate Waterhouse-admissible pairs with q < 50, n <= 1000, nearly
# all of them cycle squares n = km with u = |c^k - 1|.
DEGENERATE_ONLY_SHA256 = "d50193020f2eb615cf60927dcce451f9b4e9202f7e71a98f6bb02fb597718afc"


# The same search in the other formats: the same hits through their own row
# functions, after one header line.
DEGENERATE_ONLY_FORMAT_SHA256 = {
    "csv": "72a109baa182d2c069af21f2a8b12d03250d363a87d9bb64dd3d2f577df6c6c1",
    "table": "240e793fbd749c47c8240d292e0fef2a13ba209f991a3e51621dd4b05f598281",
}


def test_search_degenerate_only_is_pinned(capsys):
    code, out, err = run_cli(capsys, "search", "--degenerate", "only")
    assert code == 0
    assert len(out.splitlines()) == 25835
    assert "from 50 (q, a) pairs" in err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DEGENERATE_ONLY_SHA256


def test_search_degenerate_only_is_pinned_in_csv_and_table(capsys):
    digests = {}
    for fmt in DEGENERATE_ONLY_FORMAT_SHA256:
        code, out, _ = run_cli(capsys, "search", "--degenerate", "only", "--format", fmt)
        assert code == 0
        assert len(out.splitlines()) == 1 + 25835
        digests[fmt] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digests == DEGENERATE_ONLY_FORMAT_SHA256


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="str() has no digit guard before Python 3.10.7")
def test_counts_past_the_int_str_digit_limit_print_in_full(capsys):
    """(49, 7) has m = 3 and c = a_3 / 2 = -7^3, so N_2550 = (7^2550 - 1)^2, with
    4,311 digits: past Python's default 4,300-digit str() guard, which main
    restores on return."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, _ = run_cli(capsys, "sequence", "--q", "49", "--a", "7", "--nmax", "2550",
                               "--squares-only")
        after = sys.get_int_max_str_digits()
    finally:
        sys.set_int_max_str_digits(previous)
    assert (code, after) == (0, 4300)
    lines = out.splitlines()
    assert len(lines) == 850
    fields = dict(field.split("=") for field in lines[-1].split())
    assert fields["n"] == "2550"
    # Only strings under the guard are converted here.
    u = 7 ** 2550 - 1
    assert (fields["a_n"], fields["u"]) == (str(2 * 7 ** 2550), str(u))
    assert len(fields["N"]) == 4311 > 4300
    assert fields["N"][-40:] == str(u * u % 10 ** 40).zfill(40)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="str() has no digit guard before Python 3.10.7")
def test_render_records_prints_counts_past_the_int_str_digit_limit():
    """Library callers render what run_search returns, whatever its size, and
    keep their own str() guard afterwards."""
    hit = guaranteed_square(49, 14, 3000)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default guard
    try:
        line = render_records([hit], "jsonl")
        after = sys.get_int_max_str_digits()
        with pytest.raises(ValueError):
            str(hit.N)
        sys.set_int_max_str_digits(0)  # to read the digits back
        record = json.loads(line)
        assert (int(record["N"]), int(record["u"])) == (hit.N, hit.u)
    finally:
        sys.set_int_max_str_digits(previous)
    assert after == 4300
    assert len(record["N"]) > 4300
    assert (record["q"], record["a"], record["n"]) == (49, 14, 3000)


def _plain_rows(hits, fmt, digits):
    """The rows render_records prints, with N and u from ``digits`` (the hits'
    str(u * u), str(u) pairs), and each row's pair cells and admissibility
    taken afresh from its own hit."""
    pair_rows = FORMATS[fmt][1]
    return "".join(pair_rows(h.q, h.a, h.degenerate_m, waterhouse_admissible(h.q, h.a))(
        h.n, big_n, u, h.source) for h, (big_n, u) in zip(hits, digits))


@functools.cache
def _cycle_row_cases():
    """Hit lists whose cycle rows step the decimal powers every way, each with
    its str() digits: every degenerate pair with q < 50 at n <= 1000 (k up by
    one, sporadic rows between), lone hits at large k for c = 7, -343 and -27
    at odd and even k (one jump from k = 0), a row repeated after another
    pair's, two pairs interleaved (k up by three), and one pair descending."""
    every = run_search(SearchConfig(nmax=1000, degeneracy="only")).hits
    lone = [[guaranteed_square(q, a, m * k)]
            for q, a, m in ((49, 14, 1), (49, 7, 3), (3, 3, 6)) for k in (1000, 1001)]
    seven, minus_343 = (guaranteed_square(49, a, n) for a, n in ((14, 1), (7, 3)))
    pair_7 = [hit for hit in every if (hit.q.q, hit.a) == (49, 7)]
    pair_14 = [hit for hit in every if (hit.q.q, hit.a) == (49, 14)]
    interleaved = [hit for both in zip(pair_7, pair_14[::3]) for hit in both]
    cases = [every, *lone, [seven, minus_343, seven], interleaved, pair_14[::-1]]
    with unlimited_int_str():
        return [(hits, [(str(hit.u * hit.u), str(hit.u)) for hit in hits]) for hits in cases]


@pytest.mark.parametrize("fmt", ["jsonl", "csv", "table"])
def test_cycle_rows_print_the_digits_of_str(fmt):
    for hits, digits in _cycle_row_cases():
        rows = render_records(hits, fmt, header=False).splitlines()
        expected = _plain_rows(hits, fmt, digits).splitlines()
        # The first differing row, not a diff of megabytes of text.
        differing = next((i for i, pair in enumerate(zip(rows, expected))
                          if pair[0] != pair[1]), None)
        assert (len(rows), differing) == (len(expected), None)


def test_cycle_row_disagreeing_with_its_hit_raises():
    hit = guaranteed_square(49, 7, 300)
    assert render_records([hit], "jsonl")
    wrong = hit._replace(u=hit.u + 1)
    with pytest.raises(RuntimeError, match="disagree"):
        render_records([hit, wrong], "jsonl")
    with pytest.raises(RuntimeError, match="disagree"):
        render_records([wrong], "csv")


def test_cycle_row_off_in_its_18th_digit_raises():
    # The check reads 18 low digits: u off by 10^17 differs only in the 18th.
    hit = guaranteed_square(49, 7, 300)
    wrong = hit._replace(u=hit.u + 10 ** 17)
    for fmt in ("jsonl", "csv", "table"):
        with pytest.raises(RuntimeError, match="disagree"):
            render_records([hit, wrong], fmt)


@pytest.mark.parametrize("fmt", ["jsonl", "csv", "table"])
def test_a_pair_that_comes_back_renders_as_its_hits_alone(fmt):
    """Hits of pairs A, B, A: the third run restarts A's decimal powers, and the
    rows are those of each hit rendered alone.  The exact decimal context ends
    with each run, so the caller's context is the same afterwards."""
    import decimal

    every = run_search(SearchConfig(qmax=10, nmax=60, degeneracy="include")).hits
    a = [hit for hit in every if (hit.q.q, hit.a) == (9, 6)]
    b = [hit for hit in every if (hit.q.q, hit.a) == (8, 4)]
    assert len(a) > 4 and b
    hits = a[:3] + b + a[3:]
    before = decimal.getcontext().prec
    assert render_records(hits, fmt, header=False) == "".join(
        render_records([hit], fmt, header=False) for hit in hits)
    assert decimal.getcontext().prec == before


# Per command: a good call, a usage error and a domain error.  paper-check
# takes no input, so its domain error is raised by the search it runs.
EVERY_COMMAND = (
    (("search", "--qmax", "8", "--nmax", "40"), ("search", "--qmax", "x"),
     ("search", "--qmax", "1")),
    (("admissible", "--q", "4"), ("admissible", "--q"), ("admissible", "--q", "36")),
    (("classify", "--q", "32", "--a", "8"), ("classify", "--q", "32"),
     ("classify", "--q", "2", "--a", "5")),
    (("sequence", "--q", "2", "--a", "-1", "--nmax", "11"), ("sequence", "--q", "2", "--a", "-1"),
     ("sequence", "--q", "36", "--a", "0", "--nmax", "3")),
    (("realize", "--q", "7", "--a", "-1"), ("realize", "--q", "7"),
     ("realize", "--q", "7", "--a", "8")),
    (("verify-extension", "--q", "2", "--a", "-1", "--count-limit", "64"),
     ("verify-extension", "--q", "2", "--a", "1", "--count-limit", "0"),
     ("verify-extension", "--q", "27", "--a", "3")),
    (("paper-check",), ("paper-check", "--qmax", "10"), ("paper-check",)),
)


def test_every_command_twice_in_one_process(capsys, monkeypatch):
    real_search = ecsquares.cli.run_search

    def search(config, *args):
        if refuse:
            raise DomainError("search refused")
        return real_search(config, *args)

    monkeypatch.setattr(ecsquares.cli, "run_search", search)
    build_parser.cache_clear()
    rounds = []
    for _ in range(2):
        outcomes = []
        for calls in EVERY_COMMAND:
            for argv, kind in zip(calls, ("good", "usage", "domain")):
                refuse = argv == ("paper-check",) and kind == "domain"
                code, out, err = run_cli(capsys, *argv)
                outcomes.append((argv, code, out, re.sub(r" in \d+\.\d\ds$", " in Ts", err)))
        rounds.append(outcomes)
    assert rounds[0] == rounds[1]
    assert [code for _, code, _, _ in rounds[0]] == [0, 1, 2] * len(EVERY_COMMAND)
    assert build_parser.cache_info().misses == 1
