import csv
import dataclasses
import hashlib
import io
import json

import pytest

from supercong import congruence, quadforms
from supercong.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, emit_report, exit_code_for, main
from supercong.report import Report, Row


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list(capsys):
    code, out, _ = run_cli(capsys, ["list"])
    assert code == EXIT_OK
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) >= 41  # header + >= 40 rows
    assert any("T1.22" in ln for ln in lines)
    assert any("conjectural" in ln for ln in lines)


def test_sequence_command(capsys):
    code, out, _ = run_cli(capsys, ["sequence", "A", "--count", "5"])
    assert code == EXIT_OK
    assert out.split() == ["1", "5", "73", "1445", "33001"]


def test_verify_single_theorem_json(capsys):
    code, out, _ = run_cli(capsys, [
        "verify", "congruences", "--theorem", "T1.29",
        "--min-p", "5", "--max-p", "150", "--format", "json",
    ])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["summary"]["fail"] == 0
    assert data["summary"]["pass"] >= 10
    assert data["run"]["ids"] == ["T1.29"]
    rows = data["rows"]
    assert all(r["outcome"] in ("pass", "skip") for r in rows)
    passing = [r for r in rows if r["outcome"] == "pass"]
    assert {"lhs", "rhs", "x", "y"} <= set(passing[0])


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_repeated_theorem_runs_once(capsys, fmt):
    base = ["verify", "congruences", "--max-p", "30", "--format", fmt, "--theorem", "T1.1"]
    once = run_cli(capsys, base)
    twice = run_cli(capsys, base + ["--theorem", "T1.1"])
    assert once == twice
    assert once[0] == EXIT_OK and once[1]


def test_congruence_sweep_csv_is_pinned(capsys):
    """Every catalog row to p <= 1000, byte for byte: the 9,297 CSV lines are
    frozen by their SHA-256, so any change to a row, a skip reason or the CSV
    layout shows here."""
    code, out, _ = run_cli(capsys, [
        "verify", "congruences", "--include-conjectural", "--max-p", "1000", "--format", "csv",
    ])
    assert code == EXIT_OK
    assert out.count("\n") == 9297
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e04c979555eedd1a58976eaf85e04c2aa31c53c46b74abfb391de5d3da7d179b"
    )


def test_verify_unknown_theorem(capsys):
    code, _, err = run_cli(capsys, [
        "verify", "congruences", "--theorem", "T77.1", "--max-p", "20",
    ])
    assert code == EXIT_USAGE
    assert "unknown" in err


def test_usage_error_exit_code(capsys):
    assert main(["verify"]) == EXIT_USAGE
    assert main(["sequence", "ZZZ"]) == EXIT_USAGE


def test_verify_qseries(capsys):
    code, out, _ = run_cli(capsys, ["verify", "qseries", "--terms", "32"])
    assert code == EXIT_OK
    assert "fail=0" in out


def test_verify_cm_quick(capsys):
    code, out, _ = run_cli(capsys, ["verify", "cm", "--digits", "25", "--format", "csv"])
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["spec_id", "p", "outcome", "lhs", "rhs", "x", "y"]
    assert len(rows) >= 43  # 32 CM rows + 11 class invariants + header
    assert all(r[2] == "pass" for r in rows[1:])


def test_verify_identities_quick(capsys):
    code, out, _ = run_cli(capsys, ["verify", "identities", "--samples", "2", "--prec", "192"])
    assert code == EXIT_OK


def test_verify_lemma23_quick(capsys):
    code, out, _ = run_cli(capsys, ["verify", "lemma23", "--trials", "10"])
    assert code == EXIT_OK
    assert "fail=0" in out


def test_failing_lemma23_row_shows_its_diffs(monkeypatch, capsys):
    # x moved by p: the same x mod p, so the check runs and the expansions break
    real, results = quadforms.lemma23_check, []

    def shifted(rep):
        results.append(real(dataclasses.replace(rep, x=rep.x + rep.p)))
        return results[-1]

    monkeypatch.setattr(quadforms, "lemma23_check", shifted)
    code, out, _ = run_cli(capsys, ["verify", "lemma23", "--trials", "5", "--format", "json"])
    assert code == EXIT_FAIL
    rows = json.loads(out)["rows"]
    assert len(rows) == len(results) == 5
    for res in results:
        assert not res.ok and (res.diff_linear, res.diff_square) != (0, 0)
    details = sorted(r["details"] for r in rows if r["outcome"] == "fail")
    assert details == sorted(
        f"c*p={r.form.c}*{r.p}=({r.form.a},{r.form.d}) x={r.x} y={r.y}"
        f" diffs=({r.diff_linear},{r.diff_square})" for r in results)


def test_branch_anomaly_row_gates(monkeypatch, capsys):
    # T1.10 without its p = 5 mod 12 branch: p = 5, 17, 29, 41 qualify and match none
    t110 = congruence.lookup("T1.10")
    fake = dataclasses.replace(t110, id="T1.10-one-branch", branches=t110.branches[:1])
    real = congruence.lookup
    monkeypatch.setattr(congruence, "lookup", lambda sid: fake if sid == fake.id else real(sid))
    code, out, _ = run_cli(capsys, ["verify", "congruences", "--theorem", fake.id,
                                    "--max-p", "50", "--format", "json"])
    assert code == EXIT_FAIL
    rows = json.loads(out)["rows"]
    assert [r["p"] for r in rows if r.get("details") == "branch-anomaly"] == [5, 17, 29, 41]
    assert {r["outcome"] for r in rows if r["p"] in (13, 37)} == {"pass"}


def test_empty_prime_range_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, ["verify", "congruences", "--min-p", "100", "--max-p", "50"])
    assert code == EXIT_USAGE
    assert out == "" and "empty prime range" in err


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_p = 30\nterms = 16\n# comment\n")
    code, out, _ = run_cli(capsys, [
        "--config", str(cfg), "verify", "congruences",
        "--theorem", "T1.29", "--format", "json",
    ])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["run"]["max_p"] == 30
    # explicit flag beats config
    code, out, _ = run_cli(capsys, [
        "--config", str(cfg), "verify", "congruences",
        "--theorem", "T1.29", "--max-p", "40", "--format", "json",
    ])
    data = json.loads(out)
    assert data["run"]["max_p"] == 40


def test_config_never_overrides_explicit_default_valued_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_p = 13\n")
    code, out, _ = run_cli(capsys, [
        "--config", str(cfg), "verify", "congruences",
        "--theorem", "T1.29", "--max-p", "200", "--format", "json",
    ])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["run"]["max_p"] == 200
    assert max(r["p"] for r in data["rows"]) > 13


@pytest.mark.parametrize("text, needle", [
    ("bogus_key = 1\n", "bogus_key"),
    ("max_p = 30\nmax_pp = 40\n", "max_pp"),
    ("max_p\n", "key = value"),
    ("max_p = abc\n", "abc"),
    ("format = xml\n", "xml"),
], ids=["unknown-key", "misspelt-key", "no-equals", "bad-int", "bad-choice"])
def test_config_errors_are_usage_errors(tmp_path, capsys, text, needle):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, [
        "--config", str(cfg), "verify", "congruences", "--theorem", "T1.29", "--max-p", "20",
    ])
    assert code == EXIT_USAGE
    assert out == ""
    assert needle in err


def test_emit_report_round_trip():
    report = Report()
    report.add(Row("X", 5, "pass", "", 1, 1, 2, 0))
    report.add(Row("X", 7, "skip", "predicate"))
    report.sort()
    payload = json.loads(emit_report(report, "json", {"command": "t"}))
    assert payload["summary"] == {"pass": 1, "fail": 0, "skip": 1}
    assert len(payload["rows"]) == 2
    empty = json.loads(emit_report(Report(), "json", {}))
    assert empty["rows"] == [] and empty["summary"]["pass"] == 0
    table = emit_report(report, "table", {})
    assert "summary: pass=1 fail=0 skip=1" in table


def test_emit_report_deterministic():
    report = Report()
    for p in (11, 5, 7):
        report.add(Row("B", p, "pass"))
        report.add(Row("A", p, "pass"))
    report.sort()
    one = emit_report(report, "json", {"command": "x"})
    two = emit_report(report, "json", {"command": "x"})
    assert one == two
    ids = [r["spec_id"] for r in json.loads(one)["rows"]]
    assert ids == sorted(ids)


def test_exit_code_logic():
    ok = Report()
    ok.add(Row("T", 5, "pass"))
    assert exit_code_for(ok) == EXIT_OK
    bad = Report()
    bad.add(Row("T", 5, "fail", "lhs-rhs=1"))
    assert exit_code_for(bad) == EXIT_FAIL
    conj = Report()
    conj.add(Row("C", 5, "fail", "conjectural lhs-rhs=1", status="conjectural"))
    assert exit_code_for(conj) == EXIT_OK
    assert exit_code_for(conj, strict_conjectural=True) == EXIT_FAIL
    anom = Report()
    anom.add(Row("T", 5, "skip", "representability-anomaly"))
    assert exit_code_for(anom) == EXIT_FAIL


# -- the typed contract: exit codes read row status, never detail text ------------


def test_proven_failure_gates_whatever_its_detail_says():
    rep = Report([Row("T", 5, "fail", "conjectural lhs-rhs=1", status="proven")])
    assert exit_code_for(rep) == EXIT_FAIL


@pytest.mark.parametrize("status", ["conjectural", "cited"])
def test_non_proven_failure_gates_only_when_strict(status):
    rep = Report([Row("C", 5, "fail", "lhs-rhs=1", status=status)])
    assert exit_code_for(rep) == EXIT_OK
    assert exit_code_for(rep, strict_conjectural=True) == EXIT_FAIL


@pytest.mark.parametrize("reason", ["branch-anomaly", "representability-anomaly"])
def test_anomaly_skips_gate(reason):
    for status in ("proven", "conjectural", None):
        rep = Report([Row("T", 5, "skip", reason, status=status)])
        assert rep.anomalies() == rep.rows
        assert exit_code_for(rep) == EXIT_FAIL


@pytest.mark.parametrize("status", ["proven", "conjectural", "cited", None])
def test_error_rows_gate_whatever_their_status(status):
    rep = Report([Row("T", 5, "pass", status=status),
                  Row("T", 7, "error", "ZeroDivisionError: boom", status=status)])
    assert rep.summary() == {"pass": 1, "fail": 0, "skip": 0, "error": 1}
    assert exit_code_for(rep) == EXIT_FAIL
    assert emit_report(rep, "table").splitlines()[-1] == "summary: pass=1 fail=0 skip=0 error=1"
    assert json.loads(emit_report(rep, "json"))["summary"]["error"] == 1


def test_summary_has_no_error_key_without_error_rows():
    rep = Report([Row("T", 5, "pass"), Row("T", 7, "skip", "predicate")])
    assert rep.summary() == {"pass": 1, "fail": 0, "skip": 1}
    assert emit_report(rep, "table").splitlines()[-1] == "summary: pass=1 fail=0 skip=1"


@pytest.mark.parametrize("detail", ["predicate", "divides-m", "anomaly", "not-an-anomaly"])
def test_other_skips_do_not_gate(detail):
    rep = Report([Row("T", 5, "skip", detail, status="proven")])
    assert rep.anomalies() == []
    assert exit_code_for(rep) == EXIT_OK


@pytest.mark.parametrize("argv", [
    ["verify", "cm", "--max-p", "7"],
    ["verify", "cm", "--seed", "3"],
    ["verify", "identities", "--seed", "3"],
    ["verify", "qseries", "--theorem", "T1.29"],
    ["verify", "lemma23", "--digits", "30"],
    ["verify", "congruences", "--terms", "16"],
])
def test_foreign_flag_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "unrecognized arguments" in err


def test_config_key_of_another_command_is_ignored(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("digits = 25\nmax_p = 7\n")
    code, out, _ = run_cli(capsys, ["--config", str(cfg), "verify", "cm", "--format", "json"])
    assert code == EXIT_OK
    assert json.loads(out)["run"] == {"command": "verify cm", "digits": 25}


def test_verify_lemma23_json_records_seed(capsys):
    code, out, _ = run_cli(capsys, [
        "verify", "lemma23", "--trials", "3", "--seed", "7", "--format", "json",
    ])
    assert code == EXIT_OK
    assert json.loads(out)["run"] == {"command": "verify lemma23", "trials": 3, "seed": 7}


@pytest.mark.parametrize("argv, needle", [
    (["verify", "identities", "--samples", "1", "--prec", "4"], "prec"),
    (["verify", "lemma23", "--trials", "-3"], "trials"),
    (["verify", "lemma23", "--trials", "0"], "trials"),
    (["verify", "congruences", "--theorem", "T1.29", "--max-p", "30", "--workers", "-5",
      "--format", "json"], "workers"),
    (["verify", "congruences", "--max-p", "30", "--workers", "0"], "workers"),
])
def test_meaningless_sizes_are_usage_errors(capsys, argv, needle):
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert needle in err
