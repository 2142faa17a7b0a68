import hashlib
import json
import sys

import pytest

from ecsquares.cli import main
from ecsquares.records import CSV_HEADER, RECORD_FIELDS


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
    # GF(256) would take minutes to sweep; refused before any field is built.
    def no_sweep(pp):
        raise AssertionError(f"swept GF({pp.q})")

    monkeypatch.setattr("ecsquares.curves._realization_table", no_sweep)
    code, out, err = run_cli(capsys, command, "--q", "256", "--a", "0")
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
    # 2^21 > 2^20: refused at the first count, before GF(2) is extended at all.
    code, _, err = run_cli(capsys, "verify-extension", "--q", "2", "--a", "1",
                           "--count-limit", "2097152")
    assert code == 2
    assert "guard" in err


def test_verify_extension_nothing_to_verify(capsys):
    # q = 2 already exceeds a count limit of 1, so no extension is counted.
    code, out, err = run_cli(capsys, "verify-extension", "--q", "2", "--a", "1",
                             "--count-limit", "1")
    assert code == 0
    assert out == ""
    assert "nothing to verify" in err


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


def test_search_record_fields_round_trip(capsys):
    code, out, _ = run_cli(capsys, "search", "--qmax", "6", "--nmax", "20")
    assert code == 0
    for line in out.strip().splitlines():
        data = json.loads(line)
        assert json.dumps(data, separators=(", ", ": ")) == line
        assert list(data.keys()) == ["q", "p", "b", "a", "n", "N", "u",
                                     "degenerate_m", "admissible", "source"]
        assert isinstance(data["N"], str) and isinstance(data["u"], str)


def test_search_table_format_truncates_large_counts(capsys):
    code, out, _ = run_cli(capsys, "search", "--qmax", "3", "--nmax", "200",
                           "--format", "table", "--degenerate", "include")
    assert code == 0
    assert "…(" in out  # q^200 has far more than 12 digits


def test_search_degenerate_only_mode(capsys):
    code, out, _ = run_cli(capsys, "search", "--qmax", "4", "--nmax", "8",
                           "--degenerate", "only")
    assert code == 0
    for line in out.strip().splitlines():
        assert json.loads(line)["degenerate_m"] in (1, 2, 3, 4, 6)


# sha256 of stdout for `search --nmax 200 --admissibility hasse --degenerate
# include` in each format; the bytes of every format are part of the output
# contract.  5,452 records: 233 inadmissible, 53 nondegenerate, and 5,085
# truncated table cells.
FORMAT_SHA256 = {
    "jsonl": "073b8e846fd54872c59a6ab92299a35397e9723f5a69f76611900574586cb6ab",
    "csv": "086c2d190ce41d3c9c3fb30412778e1248c339a251cc0958b50c32df0bd5ff6d",
    "table": "5d5c30a2bbeaac66008db619da83fe1bdea9a4ee2bcd440009cc9f223ae619db",
}


@pytest.mark.parametrize("fmt", sorted(FORMAT_SHA256))
def test_search_formats_are_pinned(capsys, fmt):
    code, out, _ = run_cli(capsys, "search", "--nmax", "200", "--admissibility", "hasse",
                           "--degenerate", "include", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FORMAT_SHA256[fmt]


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


def test_search_degenerate_only_is_pinned(capsys):
    code, out, err = run_cli(capsys, "search", "--degenerate", "only")
    assert code == 0
    assert len(out.splitlines()) == 25835
    assert "from 50 (q, a) pairs" in err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DEGENERATE_ONLY_SHA256


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
