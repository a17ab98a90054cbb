import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supercong import cli, congruence, highprec, qseries, quadforms
from supercong.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    VERIFY_COMMANDS,
    _report_payload,
    emit_report,
    exit_code_for,
    main,
)
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


def test_sequence_prints_terms_past_the_int_digit_limit(capsys):
    # A_422 has 645 digits; the command lifts the limit only while it prints
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, _ = run_cli(capsys, ["sequence", "A", "--count", "450"])
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(old)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 450 and len(lines[-1]) > 640


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
    assert "error: unknown congruence id 'T77.1'" in err.splitlines()


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


def test_numeric_rows_state_residuals_in_whole_digits(capsys):
    # at 2400 bits every residual lies below the smallest float, where a
    # float would print 0; the digits come from the mpmath value, and a
    # residual below the rounding bound 2^-2400 states the bound's 722 digits
    code, out, _ = run_cli(capsys, ["verify", "identities", "--samples", "1", "--prec", "2400",
                                    "--format", "json"])
    assert code == EXIT_OK
    details = [r["details"] for r in json.loads(out)["rows"]]
    digits = [int(m.group(2)) for d in details
              if (m := re.fullmatch(r"max residual digits(>?=)(\d+)", d))
              and (m.group(1) == "=" or m.group(2) == "722")]
    assert len(details) == len(digits) == 17, details  # no row reads "=0"
    assert min(digits) > 361  # the tolerance is 2^-1200
    for check in highprec.class_invariant_check(25):
        assert 10.0 ** -(check.digits + 1) < check.residual <= 10.0 ** -check.digits


@pytest.mark.parametrize("args, flag, sizes", [
    (["verify", "identities", "--samples", "2"], "--prec", ("256", "512")),
    (["verify", "cm"], "--digits", ("60", "100")),  # below 60 the check works at 80 digits
], ids=["identities", "cm"])
def test_numeric_json_rows_change_with_their_size_flag(capsys, args, flag, sizes):
    # CI pins these outputs as JSON: each row, not only the run record, states
    # the size that was checked (a residual below the rounding bound states
    # the bound, which moves with the size)
    rows = []
    for size in sizes:
        code, out, _ = run_cli(capsys, args + [flag, size, "--format", "json"])
        assert code == EXIT_OK
        rows.append(json.loads(out)["rows"])
    pairs = [(a, b) for a, b in zip(*rows) if " digits" in a["details"]]
    assert len(pairs) >= len(rows[0]) - 2
    assert all(a["spec_id"] == b["spec_id"] and a["details"] != b["details"] for a, b in pairs)


def test_qseries_json_rows_state_the_exponent_they_were_checked_through(monkeypatch, capsys):
    # CI pins this output as JSON: each row states the last exponent that its
    # check compared, read from the series compared, so the rows move with --terms
    rows = {}
    for terms in (20, 30):
        code, out, _ = run_cli(capsys, ["verify", "qseries", "--terms", str(terms),
                                        "--format", "json"])
        assert code == EXIT_OK
        rows[terms] = {r["spec_id"]: r["details"] for r in json.loads(out)["rows"]}
    names = [f"genfun-{tag}" for tag in cli.QSERIES_CHECKS] + ["dual-u", "dual-s", "dual-w"]
    assert rows[30] == {**{name: "through q^30" for name in names},
                        "t-j-cubic": "through q^33", "v-ode": "through s^30"}
    assert all(rows[20][name] != rows[30][name] for name in rows[30])
    real = qseries.genfun_rhs_q

    def perturbed(tag, nterms):
        g = real(tag, nterms)
        return qseries.QSeries(g.off24, [c + (i == 5) for i, c in enumerate(g.coeffs)])

    monkeypatch.setattr(qseries, "genfun_rhs_q", perturbed)
    code, out, _ = run_cli(capsys, ["verify", "qseries", "--terms", "20", "--format", "json"])
    assert code == EXIT_FAIL
    details = {r["spec_id"]: r["details"] for r in json.loads(out)["rows"]}
    assert all(details[f"genfun-{tag}"] == "first mismatch at q^5, through q^20"
               for tag in cli.QSERIES_CHECKS)


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


def test_lemma23_rows_satisfy_their_own_form(capsys):
    # a = 2 forms are checked as their doubled a = 1 forms; each row must print
    # the form that its x and y satisfy
    code, out, _ = run_cli(capsys, ["verify", "lemma23", "--trials", "1000", "--format", "json"])
    assert code == EXIT_OK
    doubled = 0
    for row in json.loads(out)["rows"]:
        c, p, a, d, x, y = map(int, re.fullmatch(
            r"c\*p=(-?\d+)\*(\d+)=\((-?\d+),(-?\d+)\) x=(\d+) y=(\d+)", row["details"]).groups())
        assert c * p == a * x * x + d * y * y, row["details"]
        doubled += c == 2
    assert doubled > 0


@pytest.mark.parametrize("argv, unchecked", [
    (["--theorem", "T1.5", "--max-p", "7"], ["T1.5"]),  # p = 5, 7 fail its predicate
    (["--theorem", "T1.5", "--min-p", "8", "--max-p", "10"], ["T1.5"]),  # no prime at all
    (["--include-conjectural", "--max-p", "40"], ["T1.22", "T1.27-b"]),
    ([], []),
    (["--include-conjectural"], []),
])
def test_unchecked_rows_are_named_and_never_gate(capsys, argv, unchecked):
    base = ["verify", "congruences"] + argv
    code, out, _ = run_cli(capsys, base + ["--format", "json"])
    assert code == EXIT_OK
    assert json.loads(out)["summary"].get("unchecked", []) == unchecked
    code, out, _ = run_cli(capsys, base)
    assert code == EXIT_OK
    summary_line = out.splitlines()[-1]
    if unchecked:
        assert summary_line.endswith(" unchecked=" + ",".join(unchecked))
    else:
        assert "unchecked" not in summary_line


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


def test_conjectural_failure_gates_only_under_the_strict_flag(monkeypatch, capsys):
    # I1.5-b with rho doubled: every checked prime fails, and the row is conjectural
    spec = congruence.lookup("I1.5-b")
    branch = spec.branches[0]
    wrong = dataclasses.replace(branch.rhs, rho=2 * branch.rhs.rho)
    fake = dataclasses.replace(spec, id="I1.5-b-wrong-rho",
                               branches=(dataclasses.replace(branch, rhs=wrong),))
    real = congruence.lookup
    monkeypatch.setattr(congruence, "lookup", lambda sid: fake if sid == fake.id else real(sid))
    argv = ["verify", "congruences", "--theorem", fake.id, "--max-p", "60", "--format", "csv"]
    code, out, _ = run_cli(capsys, argv)
    assert code == EXIT_OK
    assert ",fail," in out and ",pass," not in out
    code, strict_out, _ = run_cli(capsys, argv + ["--include-conjectural-strict"])
    assert code == EXIT_FAIL
    assert strict_out == out


@pytest.mark.parametrize("min_p", ["2", "3"])
def test_primes_below_min_p_are_not_swept(capsys, min_p):
    # p = 3 lies outside the catalog's domain (congruence.MIN_P); see test_congruence
    argv = ["verify", "congruences", "--include-conjectural", "--max-p", "30", "--format", "csv"]
    code, want, _ = run_cli(capsys, argv + ["--min-p", "5"])
    assert code == EXIT_OK
    code, out, _ = run_cli(capsys, argv + ["--min-p", min_p])
    assert (code, out) == (EXIT_OK, want)


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
    ("bogus_key = 1\n", ":1: unknown key 'bogus_key'"),
    ("max_p = 30\nmax_pp = 40\n", ":2: unknown key 'max_pp'"),
    ("max_p\n", ":1: expected key = value"),
    ("max_p = abc\n", ":1: max_p = 'abc': not a valid int"),
    ("format = xml\n", ":1: format = 'xml': choose from"),
    ("max_p = 10\n# twice\nmax_p = 20\n", ":3: key 'max_p' repeats line 1"),
    ("max_p = 30\nterms = 9\n", ":2: terms = '9': must be >= 10, got 9"),
], ids=["unknown-key", "misspelt-key", "no-equals", "bad-int", "bad-choice", "repeated-key",
        "below-floor"])
def test_config_errors_are_usage_errors(tmp_path, capsys, text, needle):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, [
        "--config", str(cfg), "verify", "congruences", "--theorem", "T1.29", "--max-p", "20",
    ])
    assert code == EXIT_USAGE
    assert out == ""
    assert f"{cfg}{needle}" in err


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


# Strings that a careless splice of the rows could break: escapes, a newline,
# the text that separates two indented rows, and non-ASCII text.
_AWKWARD = ['"', "\\", "\n", "},\n      {", '"x": 1,\n"', "naïve ∑ 𝔽"]
_INTS = st.one_of(st.none(), st.integers(), st.integers(-(10**600), 10**600))
_TEXTS = st.one_of(st.text(), st.sampled_from(_AWKWARD),
                   st.lists(st.sampled_from(_AWKWARD + ["a", " "])).map("".join))
_ROWS = st.builds(Row, _TEXTS, _INTS, st.sampled_from(["pass", "fail", "skip", "error"]),
                  _TEXTS, _INTS, _INTS, _INTS, _INTS,
                  st.sampled_from([None, "proven", "conjectural", "cited"]))
_REPORTS = st.lists(_ROWS, max_size=6).map(Report)
_CONFIGS = st.fixed_dictionaries({"command": _TEXTS}, optional={
    "ids": st.lists(_TEXTS, max_size=3), "max_p": _INTS, "workers": st.integers(1, 4)})
_EVERY_AWKWARD_ROW = Report([Row(text, None, "fail", text, None, 2**4000, -1, None, "cited")
                             for text in _AWKWARD])


def _assert_json_writer_is_json_dumps(writer):
    @settings(max_examples=150, deadline=None, database=None)
    @given(_REPORTS, _CONFIGS)
    @example(Report(), {})
    @example(_EVERY_AWKWARD_ROW, {"command": "verify congruences", "ids": _AWKWARD})
    def check(report, config):
        want = json.dumps(_report_payload(report, config), sort_keys=True, indent=2)
        assert writer(report, config) == want

    check()


def test_json_writer_is_json_dumps():
    _assert_json_writer_is_json_dumps(lambda report, config: emit_report(report, "json", config))


def test_json_writer_oracle_catches_an_indent_slip():
    def slipped(report, config):  # each row key one space short
        return emit_report(report, "json", config).replace('\n      "', '\n     "')

    with pytest.raises(AssertionError):
        _assert_json_writer_is_json_dumps(slipped)


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


def test_verify_all_prints_one_document(capsys):
    small = ["--max-p", "20", "--terms", "16", "--digits", "20", "--samples", "1",
             "--trials", "2"]
    code, out, _ = run_cli(capsys, ["verify", "all", "--format", "json"] + small)
    assert code == EXIT_OK
    payloads = json.loads(out)
    assert [p["run"]["command"] for p in payloads] == [f"verify {n}" for n in VERIFY_COMMANDS]
    code, out, _ = run_cli(capsys, ["verify", "all", "--format", "csv"] + small)
    assert code == EXIT_OK
    assert sum(line.startswith("spec_id,p,") for line in out.splitlines()) == 1
    assert out.startswith("spec_id,p,outcome,lhs,rhs,x,y\n")


def test_run_records_the_swept_prime_domain(capsys):
    code, out, _ = run_cli(capsys, [
        "verify", "congruences", "--theorem", "T1.9", "--min-p", "3", "--max-p", "7",
        "--format", "json",
    ])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["run"]["min_p"] == 5
    assert [r["p"] for r in data["rows"]] == [5, 7]


def test_verify_all_run_records_follow_the_flag_table(capsys):
    # each run holds its command, the one-value flags it reads but --format,
    # and what it derived: for congruences the ids and the swept min_p
    code, out, _ = run_cli(capsys, ["verify", "all", "--format", "json", "--min-p", "3",
                                    "--max-p", "20", "--terms", "16", "--digits", "20",
                                    "--samples", "1", "--trials", "2"])
    assert code == EXIT_OK
    assert [p["run"] for p in json.loads(out)] == [
        {"command": "verify congruences", "ids": congruence.catalog_ids(),
         "min_p": 5, "max_p": 20, "workers": 1},
        {"command": "verify qseries", "terms": 16},
        {"command": "verify cm", "digits": 20},
        {"command": "verify identities", "samples": 1, "prec": 256},
        {"command": "verify lemma23", "trials": 2, "seed": 20240},
    ]


# The least meaningful value of each size flag, as the command line states it.
SIZE_FLOORS = {"workers": 1, "terms": 10, "digits": 10, "samples": 1, "prec": 64, "trials": 1,
               "count": 1}


@pytest.mark.parametrize("argv, needle", [
    (["verify", "identities", "--samples", "1", "--prec", "4"], "prec"),
    (["verify", "lemma23", "--trials", "-3"], "trials"),
    (["verify", "lemma23", "--trials", "0"], "trials"),
    (["verify", "congruences", "--theorem", "T1.29", "--max-p", "30", "--workers", "-5",
      "--format", "json"], "workers"),
    (["verify", "congruences", "--max-p", "30", "--workers", "0"], "workers"),
    (["sequence", "A", "--count", "-3"], "count"),
    (["sequence", "A", "--count", "0"], "count"),
])
def test_meaningless_sizes_are_usage_errors(capsys, argv, needle):
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"argument --{needle}: must be >= {SIZE_FLOORS[needle]}, got " in err


@pytest.mark.parametrize("command", ["congruences", "qseries"])
@pytest.mark.parametrize("key, value", [("terms", 9), ("workers", 0)])
def test_config_value_below_its_floor_is_a_usage_error(tmp_path, capsys, command, key, value):
    # refused by every subcommand, also by one that does not read the key
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    code, out, err = run_cli(capsys, ["--config", str(cfg), "verify", command, "--format", "csv"])
    assert (code, out) == (EXIT_USAGE, "")
    assert f"{key} = '{value}': must be >= {SIZE_FLOORS[key]}, got {value}" in err


_SMALL_ALL = ["--max-p", "20", "--terms", "16", "--digits", "20", "--samples", "1",
              "--trials", "2"]


@pytest.mark.parametrize("argv", [
    ["verify", "qseries", "--terms", "16", "--format", "csv"],
    ["verify", "all", "--format", "csv"] + _SMALL_ALL,
])
def test_raising_qseries_check_becomes_an_error_row(monkeypatch, capsys, argv):
    code, clean, _ = run_cli(capsys, argv)
    assert code == EXIT_OK

    def broken(nterms):
        raise ArithmeticError("boom")

    monkeypatch.setattr(qseries, "t_j_relation", broken)
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_FAIL
    assert "ArithmeticError: boom" in err  # the traceback
    want = clean.replace("t-j-cubic,,pass,,,,\n", "t-j-cubic,,error,,,,\n")
    assert want != clean and out == want


def test_empty_dual_series_is_an_error_row_not_a_pass(monkeypatch, capsys):
    # a constructor that returns no coefficients leaves nothing to compare:
    # agreement raises, and the row reads error, not "pass through q^0"
    code, clean, _ = run_cli(capsys, ["verify", "qseries", "--terms", "16", "--format", "csv"])
    assert code == EXIT_OK
    monkeypatch.setattr(qseries, "hauptmodul_alt_q", lambda tag, nterms: qseries.QSeries(24, []))
    code, out, err = run_cli(capsys, ["verify", "qseries", "--terms", "16", "--format", "csv"])
    assert code == EXIT_FAIL
    assert "ValueError: the series share no known exponent" in err
    want = clean
    for tag in ("u", "s", "w"):
        want = want.replace(f"dual-{tag},,pass,,,,\n", f"dual-{tag},,error,,,,\n")
    assert want != clean and out == want


def test_value_error_inside_cm_check_is_an_error_row_not_a_usage_error(monkeypatch, capsys):
    real = highprec.cm_check
    broken_name = highprec.cm_table()[3].name

    def broken(target, digits):
        if target.name == broken_name:
            raise ValueError("boom")
        return real(target, digits)

    monkeypatch.setattr(highprec, "cm_check", broken)
    code, out, _ = run_cli(capsys, ["verify", "cm", "--digits", "20", "--format", "json"])
    assert code == EXIT_FAIL
    payload = json.loads(out)
    errors = [r for r in payload["rows"] if r["outcome"] == "error"]
    assert errors == [{"spec_id": broken_name, "outcome": "error", "details": "ValueError: boom"}]
    assert payload["summary"] == {"pass": 42, "fail": 0, "skip": 0, "error": 1}


@pytest.mark.parametrize("command, patched, name", [
    ("identities", "identity_suite", "identities"),
    ("lemma23", "lemma23_trials", "lemma23"),
])
def test_raising_suite_becomes_one_error_row(monkeypatch, capsys, command, patched, name):
    def broken(*args):
        raise RuntimeError("boom")

    module = highprec if patched == "identity_suite" else cli
    monkeypatch.setattr(module, patched, broken)
    code, out, _ = run_cli(capsys, ["verify", command, "--format", "csv"])
    assert code == EXIT_FAIL
    assert out == f"spec_id,p,outcome,lhs,rhs,x,y\n{name},,error,,,,\n"


@pytest.mark.parametrize("argv, needle", [
    (["verify", "qseries", "--terms", "9"], "terms"),
    (["verify", "cm", "--digits", "9"], "digits"),
    (["verify", "identities", "--samples", "0"], "samples"),
    (["verify", "all", "--terms", "9"], "terms"),
])
def test_size_floors_are_checked_before_any_check_runs(monkeypatch, capsys, argv, needle):
    def never(*args, **kwargs):
        raise AssertionError("a check ran")

    for module, name in ((congruence, "sweep"), (qseries, "genfun_identity"),
                         (highprec, "cm_check"), (highprec, "identity_suite")):
        monkeypatch.setattr(module, name, never)
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert f"argument --{needle}: must be >= {SIZE_FLOORS[needle]}, got " in err


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _check_pins(tmp_path, lines):
    pins = tmp_path / "pins.txt"
    pins.write_text("# a comment\n\n" + "\n".join(lines) + "\n")
    run = subprocess.run([sys.executable, str(SCRIPTS / "check_pins.py"), str(pins)],
                         cwd=tmp_path, capture_output=True, text=True)
    return run.returncode, run.stdout.splitlines()


def test_pin_runner_reports_each_digest_and_fails_on_a_changed_one(tmp_path):
    table = (SCRIPTS / "pins.txt").read_text().splitlines()
    pins = [ln for ln in table if ln.strip() and not ln.startswith("#")]
    assert len(pins) == len({ln.split()[0] for ln in pins}) == 13
    good = next(ln for ln in pins if ln.startswith("sequenceD401.txt "))
    name, digest, _ = good.split(" ", 2)
    assert _check_pins(tmp_path, [good]) == (0, [f"{name} {digest}"])
    flipped = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    code, out = _check_pins(tmp_path, [good.replace(digest, flipped)])
    assert code == 1 and out == [f"{name} {digest} differs from the pin {flipped}"]
    # a usage error is a failure even where its (empty) output is pinned
    empty = hashlib.sha256(b"").hexdigest()
    code, out = _check_pins(tmp_path, [f"usage.txt {empty} verify cm --max-p 7"])
    assert code == 1 and out == [f"usage.txt {empty} exit code {EXIT_USAGE}"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pins.txt"]  # writes no output file


# Each command loads only the layers it runs: highprec, and with it mpmath, under
# verify cm and verify identities; multiprocessing under --workers > 1.
LAZY_MODULES = ("mpmath", "multiprocessing", "supercong.highprec")
_IMPORT_PROBE = """
import json, sys
from supercong.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in sys.argv[2:] if m in sys.modules)]))
"""


def _src_env():
    """The environment with the repository's src/ first on PYTHONPATH."""
    path = [str(SCRIPTS.parent / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def _loaded_after(*argvs):
    """Exit codes of cli.main on each argv in one fresh interpreter, and which
    of LAZY_MODULES it had loaded after the last."""
    run = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs), *LAZY_MODULES],
                         env=_src_env(), capture_output=True, text=True, check=True)
    return json.loads(run.stdout.splitlines()[-1])


def test_commands_import_only_the_layers_they_run():
    assert _loaded_after(["list"], ["sequence", "D", "--count", "5"],
                         ["verify", "congruences", "--max-p", "50"],
                         ["verify", "qseries", "--terms", "10"]) == [[0, 0, 0, 0], []]
    # positive controls: the probe sees an import where a command makes one
    assert _loaded_after(["verify", "identities", "--samples", "1"]) == [
        [0], ["mpmath", "supercong.highprec"]]
    assert _loaded_after(["verify", "congruences", "--max-p", "50", "--workers", "2"]) == [
        [0], ["multiprocessing"]]


def test_reader_that_leaves_early_gets_exit_1_and_no_traceback():
    # 3000 terms of A are megabytes, far more than a pipe buffers, so the
    # writer meets the closed pipe
    argv = [sys.executable, "-m", "supercong.cli", "sequence", "A", "--count", "3000"]
    proc = subprocess.Popen(argv, env=_src_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"1\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), stderr) == (1, b"")
