"""Correctness gate of the benchmark.

A run is correct when no check failed, every verdict matches the value
recorded for the reference commit in expected.json, an exact big-integer oracle
agrees with a seeded sample of sweep rows, and every negative control is
rejected, which proves that the gate itself can fail.  None of this runs
inside the timed region.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

from supercong import congruence, highprec, qseries
from supercong.arith import primes_in
from supercong.congruence import QF
from supercong.report import Report, Row
from supercong.sequences import exact_term

EXPECTED_PATH = Path(__file__).with_name("expected.json")
CSV_HEADER = "spec_id,p,outcome,lhs,rhs,x,y"
ORACLE_MAX_P = 61
ORACLE_SAMPLES = 24


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def verdict_line(row: Row) -> str:
    """The CSV line of a row: its verdict columns, without `detail`."""
    cols = (row.spec_id, row.p, row.outcome, row.lhs, row.rhs, row.x, row.y)
    return ",".join("" if c is None else str(c) for c in cols)


def csv_digest(rows: list[Row]) -> str:
    """SHA-256 of the CSV report (`--format csv`) of these rows."""
    text = "".join(line + "\n" for line in [CSV_HEADER] + [verdict_line(r) for r in rows])
    return hashlib.sha256(text.encode()).hexdigest()


def failed_rows(rows: list[Row]) -> list[Row]:
    """Failed checks plus anomaly skips: what counts against fail_ratio."""
    report = Report(list(rows))
    return report.failures() + report.anomalies()


def min_digits(residuals: list[float]) -> float:
    """Lowest agreement in decimal digits; an exact zero residual is skipped."""
    return min(-math.log10(r) for r in residuals if r > 0)


def check_rows(workload: str, inputs: dict, rows: list[Row], expected: dict) -> list[str]:
    """Problems with one job's rows; empty when the rows are correct."""
    problems = []
    bad = failed_rows(rows)
    if bad:
        problems.append(f"{len(bad)} failed or anomalous rows, first {verdict_line(bad[0])}")
    want = expected[workload]
    if workload == "sweep-catalog":
        if csv_digest(rows) != want["csv_sha256"]:
            problems.append("verdict digest differs from the recorded one")
    elif workload == "sweep-deep":
        units = {(ids[0], p) for ids, p in inputs["units"]}
        got = {(r.spec_id, r.p): verdict_line(r) for r in rows}
        if set(got) != units:
            problems.append("rows do not cover exactly the sampled (row, prime) pairs")
        for (sid, p), line in sorted(got.items()):
            if want["rows"].get(f"{sid}@{p}") != line:
                problems.append(f"verdict differs from the recorded one: {line}")
    elif sorted(r.spec_id for r in rows) != want["checks"]:
        problems.append("the set of checks differs from the recorded one")
    return problems


def check_min_digits(residuals: list[float], expected: dict) -> tuple[float, list[str]]:
    """Digits of agreement of the numeric checks against recorded floors."""
    floor = expected["cm-numeric"]["min_digits_floor"]
    digits = min_digits(residuals)
    if digits < floor:
        return digits, [f"min_digits {digits:.2f} is below the floor {floor}"]
    return digits, []


# -- exact oracle -------------------------------------------------------------


def oracle_lhs(spec, p: int, corrupt_term: int | None = None) -> int:
    """sum a_k m^-k mod p^e from exact big-integer terms (sequences.exact_term)."""
    pk = p**spec.mod_exp
    limit = (p - 1) // 2 if spec.limit == "half" else p - 1
    w = pow(spec.m % pk, -1, pk)
    acc = 0
    for k in range(limit + 1):
        a = exact_term(spec.sequence, k) + (1 if k == corrupt_term else 0)
        acc += a * pow(w, k, pk)
    return acc % pk


def oracle_spot_check(rows: list[Row], rng: random.Random) -> tuple[int, list[str]]:
    """Recompute lhs exactly for a seeded sample of rows at small p."""
    pool = [r for r in rows if r.lhs is not None and r.p <= ORACLE_MAX_P]
    sample = rng.sample(pool, min(ORACLE_SAMPLES, len(pool)))
    problems = [f"oracle lhs differs: {verdict_line(r)}" for r in sample
                if oracle_lhs(congruence.lookup(r.spec_id), r.p) != r.lhs]
    return len(sample), problems


def small_prime_rows(spec_ids) -> list[Row]:
    """Rows of the given specs at small primes, for the oracle spot-check."""
    return congruence.sweep(list(spec_ids), 5, ORACLE_MAX_P).rows


# -- negative controls ----------------------------------------------------------


def _corrupt_rhs(spec):
    """The spec with its p^2 coefficient off by one, as in acceptance criterion 7."""
    branches = tuple(
        dataclasses.replace(b, rhs=dataclasses.replace(b.rhs, r3=b.rhs.r3 + 1))
        for b in spec.branches
    )
    return dataclasses.replace(spec, id=f"{spec.id}-corrupt", branches=branches)


def _sweep_controls(spec_ids, rng: random.Random) -> dict[str, bool]:
    cands = [congruence.lookup(s) for s in spec_ids]
    cands = [s for s in cands if s.mod_exp == 3
             and all(isinstance(b.rhs, QF) and b.rhs.r3 for b in s.branches)]
    spec = rng.choice(cands)
    p = next(p for p in primes_in(5, 200) if congruence.verify(spec, p).outcome == "pass")
    good = congruence.verify(spec, p)
    bad = congruence.verify(_corrupt_rhs(spec), p)
    return {
        "corrupted-coefficient": bool(failed_rows([bad])),
        "corrupted-oracle-term": oracle_lhs(spec, p, corrupt_term=1) != good.lhs,
    }


def _qseries_controls() -> dict[str, bool]:
    f24 = qseries.weber_f_2tau_pow24_q(40)
    bad = qseries.QSeries(f24.off24, [c + (i == 5) for i, c in enumerate(f24.coeffs)])
    j_bad = (bad.add_const(-16) ** 3) / bad
    t = qseries.hauptmodul_q("t", 40)
    rel = (t.scale(16).add_const(-1)) ** 3 + j_bad * t * t
    row = Row("t-j-cubic", None, "pass" if rel.first_nonzero() is None else "fail")
    return {"corrupted-coefficient": bool(failed_rows([row]))}


def _cm_controls(digits: int) -> dict[str, bool]:
    base = highprec.cm_table()[0]
    shifted = dataclasses.replace(base, expected=base.expected + Fraction(1, 10**30))
    res = highprec.cm_check(shifted, digits)
    row = Row(res.name, None, "pass" if res.ok else "fail")
    return {"corrupted-coefficient": bool(failed_rows([row]))}


def negative_controls(workload: str, inputs: dict, rows: list[Row], expected: dict,
                      rng: random.Random) -> dict[str, bool]:
    """Each control corrupts one input or output; True means the gate caught it."""
    victims = [i for i, r in enumerate(rows) if r.outcome == "pass"]
    i = rng.choice(victims)
    if rows[i].lhs is not None:
        corrupted = dataclasses.replace(rows[i], lhs=rows[i].lhs + 1)
    else:
        corrupted = dataclasses.replace(rows[i], outcome="fail")
    bad_rows = rows[:i] + [corrupted] + rows[i + 1:]
    out = {"corrupted-row": bool(check_rows(workload, inputs, bad_rows, expected))}
    if workload in ("sweep-catalog", "sweep-deep"):
        ids = sorted({sid for unit_ids, _ in inputs["units"] for sid in unit_ids})
        out.update(_sweep_controls(ids, rng))
    elif workload == "qseries-exact":
        out.update(_qseries_controls())
    else:
        out.update(_cm_controls(inputs["digits"]))
    return out
