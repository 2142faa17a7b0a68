import json

from ecsquares.cli import main
from ecsquares.records import CSV_HEADER, OutputRecord


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


def test_sequence_squares_only(capsys):
    code, out, _ = run_cli(capsys, "sequence", "--q", "2", "--a", "-1",
                           "--nmax", "11", "--squares-only")
    assert code == 0
    lines = out.strip().splitlines()
    assert [line.split()[0] for line in lines] == ["n=1", "n=3", "n=4", "n=11"]
    assert lines[-1].endswith("u=46")


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


def test_verify_extension_inadmissible(capsys):
    code, _, err = run_cli(capsys, "verify-extension", "--q", "27", "--a", "3")
    assert code == 2
    assert "inadmissible" in err


def test_paper_check_rejects_wrong_ranges(capsys):
    code, _, err = run_cli(capsys, "paper-check", "--qmax", "10")
    assert code == 2
    # Refused before any search runs, not after an unbounded one.
    code, _, err = run_cli(capsys, "paper-check", "--nmax", "1000000000")
    assert code == 2


def test_search_jsonl_and_csv_agree(capsys, tmp_path):
    code, jsonl_out, err = run_cli(capsys, "search", "--qmax", "8", "--nmax", "40")
    assert code == 0
    assert "pairs" in err
    json_records = [OutputRecord.from_json_line(line)
                    for line in jsonl_out.strip().splitlines()]
    assert json_records  # (2,-1,1) etc.

    code, csv_out, _ = run_cli(capsys, "search", "--qmax", "8", "--nmax", "40",
                               "--format", "csv")
    assert code == 0
    csv_lines = csv_out.strip().splitlines()
    assert csv_lines[0] == CSV_HEADER
    csv_records = [OutputRecord.from_csv_row(row) for row in csv_lines[1:]]
    assert sorted(r.as_dict().items() for r in json_records) == \
           sorted(r.as_dict().items() for r in csv_records)


def test_search_out_file_matches_stdout(capsys, tmp_path):
    out_file = tmp_path / "hits.jsonl"
    code, stdout, _ = run_cli(capsys, "search", "--qmax", "8", "--nmax", "40",
                              "--out", str(out_file))
    assert code == 0
    assert out_file.read_text(encoding="utf-8") == stdout


def test_search_record_fields_round_trip(capsys):
    code, out, _ = run_cli(capsys, "search", "--qmax", "6", "--nmax", "20")
    assert code == 0
    for line in out.strip().splitlines():
        record = OutputRecord.from_json_line(line)
        assert record.to_json_line() == line
        data = json.loads(line)
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
        record = OutputRecord.from_json_line(line)
        assert record.degenerate_m in (1, 2, 3, 4, 6)
