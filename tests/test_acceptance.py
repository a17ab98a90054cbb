"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is the exit condition for the artifact.
"""

import dataclasses
import os
from fractions import Fraction

from supercong.arith import primes_in
from supercong.congruence import (
    QF,
    Branch,
    catalog,
    catalog_forms,
    lookup,
    sweep,
    verify,
)
from supercong.highprec import CMTarget, class_invariant_check, cm_check, cm_table, identity_suite
from supercong.qseries import (
    QSeries,
    first_mismatch,
    genfun_identity_check,
    hauptmodul_alt_q,
    hauptmodul_q,
    j_2tau_q,
    t_j_relation_check,
    v_ode_check,
    weber_f_2tau_pow24_q,
)
from supercong.quadforms import lemma23_trials, represent
from supercong.sequences import SequenceId, exact_term

from sequence_formulas import alternate_formulas

WORKERS = min(8, os.cpu_count() or 1)


def _announce(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status}{(' ' + detail) if detail else ''}")
    return ok


def test_criterion_1_proven_sweep():
    proven = [s for s in catalog() if s.status == "proven"]
    cb6_ids = [s.id for s in proven if s.sequence.value == "CB6"]
    rest_ids = [s.id for s in proven if s.sequence.value != "CB6"]
    rep = sweep(rest_ids, 5, 1000, workers=WORKERS)
    rep_cb6 = sweep(cb6_ids, 5, 500, workers=WORKERS)
    fails = rep.failures() + rep_cb6.failures()
    anomalies = rep.anomalies() + rep_cb6.anomalies()
    passes = rep.summary()["pass"] + rep_cb6.summary()["pass"]
    ok = not fails and not anomalies and passes > 2000
    assert _announce(1, "congruence-sweep-proven", ok,
                     f"({passes} verified, {len(fails)} failed, "
                     f"{len(anomalies)} anomalies)"), (fails[:5], anomalies[:5])


def test_criterion_2_conjectural_and_cited_sweep():
    ids = [s.id for s in catalog() if s.status != "proven"]
    required = {"I1.1-b", "I1.1-c", "I1.1-d", "I1.2", "I1.4-b", "I1.4-c",
                "I1.5-b", "C22.29", "C22.29-b", "R20.1", "R20.2"}
    assert required <= set(ids)
    rep = sweep(ids, 5, 500, workers=WORKERS)
    fails = rep.failures()
    ok = not fails and not rep.anomalies() and rep.summary()["pass"] > 400
    assert _announce(2, "congruence-sweep-conjectural-cited", ok,
                     f"({rep.summary()['pass']} verified)"), fails[:5]


def test_criterion_3_qseries_identities():
    bad = []
    for tag in ("t", "u", "s", "w", "v", "h"):
        miss = genfun_identity_check(tag, 200)
        if miss is not None:
            bad.append((f"genfun-{tag}", miss))
    for tag in ("u", "s"):
        miss = first_mismatch(hauptmodul_q(tag, 201), hauptmodul_alt_q(tag, 201))
        if miss is not None:
            bad.append((f"dual-{tag}", miss))
    miss = t_j_relation_check(200)
    if miss is not None:
        bad.append(("t-j-cubic", miss))
    miss = v_ode_check(200)
    if miss is not None:
        bad.append(("v-ode", miss))
    assert _announce(3, "qseries-identities-200-terms", not bad, f"{bad or '(9 checks)'}"), bad


def test_criterion_4_cm_certification():
    table = cm_table()
    assert len(table) >= 28
    bad = []
    for target in table:
        res = cm_check(target, 60)
        if not res.ok:
            bad.append((res.name, res.residual))
    for res in class_invariant_check(60):
        if not res.ok:
            bad.append((res.name, res.residual))
    assert _announce(4, "cm-certification-60-digits", not bad,
                     f"({len(table)} CM rows + 11 class invariants)"), bad


def test_criterion_5_lemma23_random():
    bad = [(res.form, res.p) for res in lemma23_trials(catalog_forms(), 100, 99) if not res.ok]
    assert _announce(5, "padic-expansion-mod-p4", not bad, "(100 random cases)"), bad


def test_criterion_6_property_suites():
    problems = []

    # multi-formula agreement, n <= 100
    for seq in SequenceId:
        for n in range(101):
            values = alternate_formulas(seq, n)
            if len(set(values)) != 1 or values[0] != exact_term(seq, n):
                problems.append(("formulas", seq.value, n))

    # half-vs-full equivalence for CB3 rows, qualifying p < 500
    from supercong.congruence import PrimeContext, lhs_sum

    for spec_id in ("T1.1", "T1.2", "T1.3", "T1.4"):
        spec = lookup(spec_id)
        full = dataclasses.replace(spec, limit="full")
        for p in primes_in(5, 500):
            if spec.m % p == 0 or not spec.qualifies(p):
                continue
            ctx = PrimeContext(p)
            if lhs_sum(spec, p, ctx) != lhs_sum(full, p, ctx):
                problems.append(("half-vs-full", spec_id, p))

    # branch exclusivity and representability consistency, p < 2000
    for spec in catalog():
        for p in primes_in(3, 2000):
            if spec.m % p == 0 or not spec.qualifies(p):
                continue
            matches = [b for b in spec.branches if b.condition.holds(p)]
            if len(matches) != 1:
                problems.append(("exclusivity", spec.id, p))
                continue
            branch = matches[0]
            if branch.rep is not None and represent(p, branch.rep) is None:
                problems.append(("representability", spec.id, p))

    # eta/Weber identity suite, 50 samples at 256 bits
    for row in identity_suite(50, 256):
        if not row.ok or row.residual >= 1e-30:
            problems.append(("identity", row.name, row.residual))

    assert _announce(6, "property-suites", not problems), problems[:10]


def test_criterion_7_negative_controls():
    detected = []

    # corrupted catalog coefficient -> detected congruence failure
    spec = lookup("T1.29")
    bad_branch = Branch(spec.branches[0].condition, spec.branches[0].rep,
                        QF(4, -2, -2, 4), spec.branches[0].character)
    corrupt = dataclasses.replace(spec, id="T1.29-corrupt", branches=(bad_branch,))
    detected.append(verify(corrupt, 7).outcome == "fail")

    # perturbed CM target -> detected residual
    base = cm_table()[0]
    res = cm_check(
        CMTarget(base.name, base.fn, base.point, base.expected + Fraction(1, 10**30)),
        60,
    )
    detected.append(not res.ok and 1e-31 < res.residual < 1e-29)

    # corrupted series coefficient -> detected mismatch
    f24 = weber_f_2tau_pow24_q(40)
    bad = QSeries(f24.off24, [c + (1 if i == 5 else 0) for i, c in enumerate(f24.coeffs)])
    j_bad = (bad.add_const(-16) ** 3) / bad
    t = hauptmodul_q("t", 40)
    rel = (t.scale(16).add_const(-1)) ** 3 + j_bad * t * t
    detected.append(rel.first_nonzero() is not None)
    good_rel_zero = t_j_relation_check(40) is None
    detected.append(good_rel_zero)

    assert _announce(7, "negative-controls", all(detected), f"{detected}"), detected
