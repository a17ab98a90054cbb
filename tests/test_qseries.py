"""Exact q-expansion algebra and the generating-function identity checks."""

import functools
import json
import math
import random
from functools import reduce
from math import comb
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import supercong.qseries as qs
import supercong.sequences as sequences
from supercong.qseries import (
    ETA_QUOTIENTS,
    HAUPTMODUL_SEQUENCE,
    HAUPTMODUL_SIGN,
    V_ODE,
    WEIGHT2_FORMS,
    Agreement,
    QSeries,
    _euler_product,
    agreement,
    compose,
    e2_q,
    eta_quotient_q,
    first_mismatch,
    genfun_identity,
    genfun_identity_check,
    genfun_rhs_q,
    hauptmodul_alt_q,
    hauptmodul_q,
    j_2tau_q,
    one_plus_q_product,
    t_j_relation,
    t_j_relation_check,
    v_ode,
    v_ode_check,
    weber_f_2tau_pow24_q,
)
from supercong.sequences import RECURRENCES, SequenceId, exact_term, exact_terms

TAGS = ("t", "u", "s", "w", "v", "h")


def pentagonal_eta_q(mult, nterms):
    """eta(mult*tau) as q^(mult/24) times the pentagonal series: the oracle of
    qseries.eta_q, which takes the Euler product."""
    coeffs = [0] * nterms
    coeffs[0] = 1
    k = 1
    while True:
        e1 = mult * k * (3 * k - 1) // 2
        e2 = mult * k * (3 * k + 1) // 2
        if e1 >= nterms and e2 >= nterms:
            break
        sign = -1 if k % 2 else 1
        if e1 < nterms:
            coeffs[e1] += sign
        if e2 < nterms:
            coeffs[e2] += sign
        k += 1
    return QSeries(mult, coeffs)


def test_eta_pentagonal():
    e = pentagonal_eta_q(1, 16)
    assert e.off24 == 1
    assert e.coeffs == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1]
    e2 = pentagonal_eta_q(2, 11)
    assert e2.off24 == 2
    assert e2.coeffs == [1, 0, -1, 0, -1, 0, 0, 0, 0, 0, 1]


@pytest.mark.parametrize("nterms", [1, 2, 201, 801])
def test_eta_q_is_the_pentagonal_series(nterms):
    for m in range(1, 13):
        e, want = qs.eta_q(m, nterms), pentagonal_eta_q(m, nterms)
        assert (e.off24, e.coeffs) == (want.off24, want.coeffs)
    for bad in ((0, nterms), (1, 0)):
        with pytest.raises(ValueError, match="eta_q needs"):
            qs.eta_q(*bad)


def test_eta_reciprocal_is_one():
    e = pentagonal_eta_q(1, 40)
    prod = e * (QSeries(0, [1] + [0] * 39) / e)
    assert prod.off24 == 0
    assert prod.coeffs[0] == 1 and all(c == 0 for c in prod.coeffs[1:])


def test_eta_pow24_ramanujan():
    e24 = pentagonal_eta_q(1, 6) ** 24
    assert e24.off24 == 24
    assert e24.coeffs[:5] == [1, -24, 252, -1472, 4830]


def test_offsets_add():
    a = QSeries(12, [1, 2])
    b = QSeries(12, [1, 3])
    assert (a * b).off24 == 24
    assert (a * b).coeffs == [1, 5]


def test_add_and_mul_polynomials():
    one_plus = QSeries(0, [1, 1, 0])
    one_minus = QSeries(0, [1, -1, 0])
    assert (one_plus * one_minus).coeffs == [1, 0, -1]
    with pytest.raises(ValueError):
        QSeries(1, [1]) + QSeries(0, [1])


def test_division_and_exactness():
    num = QSeries(0, [1, 0, 0, 0, 0])
    q = num / QSeries(0, [1, 1, 0, 0, 0])  # 1/(1+q)
    assert q.coeffs == [1, -1, 1, -1, 1]
    assert (q * QSeries(0, [1, 1, 0, 0, 0])).coeffs == [1, 0, 0, 0, 0]
    inv_sq = num / QSeries(0, [1, -2, 1, 0, 0])  # (1-q)^-2
    assert inv_sq.coeffs == [1, 2, 3, 4, 5]
    one_minus = QSeries(0, [1, -1, 0, 0, 0])
    assert (num / one_minus**2).coeffs == inv_sq.coeffs
    with pytest.raises(ValueError, match="negative exponent"):
        one_minus**-2
    with pytest.raises(ZeroDivisionError):
        num / QSeries(0, [0, 1])


@pytest.mark.parametrize("num, den, at", [
    ([1, 0, 0, 0], [2, 1, 0, 0], 0),  # 1/(2+q)
    ([2, 1, 0], [2, 0, 0], 1),        # (2+q)/2
    ([3, 3, 3, 4], [3, 0, 0, 0], 3),
])
def test_non_integral_quotient_raises(num, den, at):
    with pytest.raises(ArithmeticError, match=rf"not integral at q\^{at} "):
        QSeries(0, num) / QSeries(0, den)


@pytest.mark.parametrize("k", [1, 2, 3, 8, 24])
def test_one_plus_q_product_negative_power_is_inverse(k):
    prod = one_plus_q_product({(1, 1): -k}, 40) * one_plus_q_product({(1, 1): k}, 40)
    assert prod.off24 == 0
    assert prod.coeffs == [1] + [0] * 39


# -- the Euler-product kernel against multiplying the factors out --------------


def _one(nterms):
    return QSeries(0, [1] + [0] * (nterms - 1))


def multiplied_out_eta_quotient(exps, nterms):
    """prod eta(m tau)^(e_m) with numerator and denominator multiplied out, one division."""
    num = reduce(mul, (pentagonal_eta_q(m, nterms) ** e for m, e in exps.items() if e > 0),
                 _one(nterms))
    den = reduce(mul, (pentagonal_eta_q(m, nterms) ** -e for m, e in exps.items() if e < 0),
                 _one(nterms))
    return num / den


def factor_by_factor_product(step, start, power, nterms):
    """prod (1 + q^e)^power, each factor expanded by the binomial series and folded in."""
    out = [1] + [0] * (nterms - 1)
    e = start
    while e < nterms:
        fac = [1] + [0] * (nterms - 1)
        coef, j = 1, 1
        while e * j < nterms:
            coef = coef * (power - j + 1) // j  # j C(power, j) = C(power, j-1) (power-j+1)
            fac[e * j] = coef
            j += 1
        out = (QSeries(0, out) * QSeries(0, fac)).coeffs
        e += step
    return QSeries(0, out)


@pytest.mark.parametrize("tag", list(ETA_QUOTIENTS))
def test_tables_match_multiplied_out_oracle(tag):
    # hauptmodul_q scales the exponents by the power instead of raising to it
    exps, power = ETA_QUOTIENTS[tag]
    pairs = ((hauptmodul_q(tag, 201), multiplied_out_eta_quotient(exps, 201) ** power),
             (genfun_rhs_q(tag, 201), multiplied_out_eta_quotient(WEIGHT2_FORMS[tag], 201)))
    for got, want in pairs:
        assert (got.off24, got.coeffs) == (want.off24, want.coeffs)


_EXPONENTS = st.dictionaries(st.integers(1, 12), st.integers(-24, 24), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(exps=st.one_of(_EXPONENTS, _EXPONENTS.map(lambda d: {m: abs(e) for m, e in d.items()})),
       nterms=st.integers(1, 80))
def test_eta_quotient_matches_multiplied_out(exps, nterms):
    got, want = eta_quotient_q(exps, nterms), multiplied_out_eta_quotient(exps, nterms)
    assert (got.off24, got.coeffs) == (want.off24, want.coeffs)


_FACTORS = st.dictionaries(st.tuples(st.integers(1, 6), st.integers(1, 8)),
                           st.integers(-24, 24), min_size=1, max_size=4)


@settings(max_examples=100, deadline=None)
@given(factors=_FACTORS, nterms=st.integers(1, 80))
@example(factors={(1, 1): 8, (2, 2): 8}, nterms=60)
@example(factors={(4, 4): 8, (1, 1): -8}, nterms=60)
@example(factors={(1, 1): 3, (2, 1): -5, (3, 2): 1}, nterms=80)
def test_one_plus_q_product_matches_factor_by_factor(factors, nterms):
    # one Euler product for the whole vector against each entry multiplied
    # out factor by factor, the results multiplied together
    want = reduce(mul, (factor_by_factor_product(step, start, power, nterms)
                        for (step, start), power in factors.items()), _one(nterms))
    assert one_plus_q_product(factors, nterms).coeffs == want.coeffs


def test_euler_product_rejects_non_integral_series():
    # s = (0, 1, 0, ...) is exp(q) = 1 + q + q^2/2 + ...
    assert _euler_product([0, 1]) == [1, 1]
    with pytest.raises(ArithmeticError, match=r"not integral at q\^2$"):
        _euler_product([0, 1, 0, 0])


def test_e2_values():
    e2 = e2_q(1, 4)
    assert e2.coeffs == [1, -24, -72, -96]
    assert e2_q(2, 5).coeffs == [1, 0, -24, 0, -72]
    comb48 = e2_q(2, 5).scale(8) - e2_q(1, 5).scale(4)
    assert comb48.coeffs[0] == 4 and comb48.coeffs[1] == 96
    for mult in range(1, 7):
        want = [1] + [-24 * sum(d for d in range(1, k // mult + 1) if k // mult % d == 0)
                      if k % mult == 0 else 0 for k in range(1, 150)]
        assert e2_q(mult, 150).coeffs == want


def test_compose_trivial():
    inner = QSeries(24, [1, 0, 0])
    assert compose([1, 1], inner).coeffs == [1, 1, 0, 0]
    assert compose([5], inner).coeffs == [5, 0, 0, 0]
    with pytest.raises(ValueError):
        compose([1], QSeries(0, [1, 1]))
    with pytest.raises(ValueError):
        compose([1], QSeries(12, [1, 1]))


def _powered_sum(outer, inner):
    """sum_n outer[n] * inner^n with each power by binary powering, through
    q^(len(inner) + j - 1)."""
    j = inner.off24 // 24
    nterms = len(inner.coeffs) + j
    total = QSeries(0, [outer[0] if outer else 0] + [0] * (nterms - 1))
    for n, a in enumerate(outer[1:], 1):
        total = total + (inner ** n).scale(a)  # inner^n holds exponents n*j .. n*j+len-1
    return total


def test_compose_against_naive_expansion():
    rng = random.Random(71)
    for j in (1, 1, 2, 3, 4) * 8:
        n = 12
        inner = QSeries(24 * j, [rng.choice([-2, -1, 1, 2, 3])]
                        + [rng.randint(-3, 3) for _ in range(n - 1)])
        outer = [rng.randint(-4, 4) for _ in range(rng.randint(1, n))]
        got = compose(outer, inner)
        assert (got.off24, len(got.coeffs)) == (0, n + j)
        assert got.coeffs == _powered_sum(outer, inner).coeffs


def test_compose_empty_and_overlong_outer():
    inner = QSeries(48, [1, -2, 3, 1, 0, 2])  # j = 2: exponents 0 .. 7 are known
    assert compose([], inner).coeffs == [0] * 8
    outer = list(range(1, 30))  # inner^n for n >= 4 starts beyond q^7
    assert compose(outer, inner).coeffs == _powered_sum(outer, inner).coeffs
    assert compose(outer, inner).coeffs == compose(outer[:4], inner).coeffs


def test_compose_associates_with_substitution():
    # (A o f) o g == A o (f o g) for a polynomial A and series f, g = q + ...
    rng = random.Random(73)
    for _ in range(5):
        n = 10
        f = QSeries(24, [1] + [rng.randint(-2, 2) for _ in range(n - 1)])
        g = QSeries(24, [1] + [rng.randint(-2, 2) for _ in range(n - 1)])
        outer = [rng.randint(-3, 3) for _ in range(n)]
        a_of_f = compose(outer, f)
        lhs = compose(a_of_f.coeffs, g)
        f_of_g = compose([0] + f.coeffs, g)
        assert f_of_g.coeffs[0] == 0
        rhs = compose(outer, QSeries(24, f_of_g.coeffs[1:]))
        keep = min(len(lhs.coeffs), len(rhs.coeffs), n)
        assert lhs.coeffs[:keep] == rhs.coeffs[:keep]


def test_one_plus_q_product():
    # prod (1+q^n) counts partitions into distinct parts
    prod = one_plus_q_product({(1, 1): 1}, 12)
    assert prod.coeffs == [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10, 12]
    sq = one_plus_q_product({(1, 1): 2}, 8)
    ref = prod.truncate(8) * prod.truncate(8)
    assert sq.coeffs == ref.coeffs


def test_hauptmoduls_normalized_and_integral():
    for tag in ("t", "u", "s", "w", "v", "h"):
        h = hauptmodul_q(tag, 201)
        assert h.off24 == 24, tag
        assert h.coeffs[0] == 1, tag
        assert all(isinstance(c, int) for c in h.coeffs), tag


@pytest.mark.parametrize("nterms", [65, 201, 401])
def test_u_is_the_weber_f2_quotient(nterms):
    # u = f / (f + 64)^2 with f = f2^24 = 4096 q prod (1+q^n)^24 = 2^12 h,
    # multiplied out: both u = X / G^4 and its dual h / (1 + 64h)^2
    f = one_plus_q_product({(1, 1): 24}, nterms).scale(4096).shift24(24)
    want = f / (f.add_const(64) ** 2)
    for got in (hauptmodul_q("u", nterms), hauptmodul_alt_q("u", nterms)):
        assert (got.off24, got.coeffs) == (want.off24, want.coeffs)


def test_hauptmodul_leading_terms():
    assert hauptmodul_q("t", 4).coeffs[:2] == [1, -24]
    assert hauptmodul_q("u", 4).coeffs[:2] == [1, -104]
    assert hauptmodul_q("s", 4).coeffs[:3] == [1, 8, 44]


def test_dual_constructions_agree_to_200():
    for tag in ("u", "s", "w"):
        a = hauptmodul_q(tag, 201)
        b = hauptmodul_alt_q(tag, 201)
        assert first_mismatch(a, b) is None, tag


def _single(step, start, power, nterms):
    return one_plus_q_product({(step, start): power}, nterms)


def _composite_dual(tag, nterms):
    """The duals built from single-factor products and series algebra:
    u from the eta quotient h = eta(2tau)^24 / eta(tau)^24 over (1 + 64h)^2,
    s as the product of two products, w as the quotient of two."""
    if tag == "u":
        h = eta_quotient_q({2: 24, 1: -24}, nterms)
        return h / (h.scale(64).add_const(1) ** 2)
    if tag == "s":
        return (_single(1, 1, 8, nterms) * _single(2, 2, 8, nterms)).shift24(24)
    return (_single(4, 4, 8, nterms) / _single(1, 1, 8, nterms)).shift24(24)


@pytest.mark.parametrize("nterms", [41, 201, 801])
@pytest.mark.parametrize("tag", ["u", "s", "w"])
def test_dual_is_the_composite_construction(tag, nterms):
    got, want = hauptmodul_alt_q(tag, nterms), _composite_dual(tag, nterms)
    assert (got.off24, got.coeffs) == (want.off24, want.coeffs)


@pytest.mark.parametrize("tag, entry", [(tag, entry) for tag, vec in qs.DUAL_PRODUCTS.items()
                                        for entry in vec])
def test_verify_qseries_fails_a_dual_with_one_power_changed(monkeypatch, capsys, tag, entry):
    # one more factor (1 + q^start) moves the product first at q^start, so the
    # dual q * product, and for u also h / (1 + 64h)^2, first at q^(start + 1)
    from supercong.cli import EXIT_FAIL, main

    vec = qs.DUAL_PRODUCTS[tag]
    monkeypatch.setitem(qs.DUAL_PRODUCTS, tag, {**vec, entry: vec[entry] + 1})
    assert main(["verify", "qseries", "--terms", "30", "--format", "json"]) == EXIT_FAIL
    rows = {r["spec_id"]: (r["outcome"], r["details"])
            for r in json.loads(capsys.readouterr().out)["rows"]}
    assert rows[f"dual-{tag}"] == ("fail", f"first mismatch at q^{entry[1] + 1}, through q^30")
    assert [name for name, (outcome, _) in rows.items() if outcome != "pass"] == [f"dual-{tag}"]


def test_dual_u_is_the_old_quotient_of_eta_squares_to_the_fourth():
    # the quotient squared twice (up to about 3,600 bits at q^200) against
    # the fourth power of the narrow weight-2 form divided once
    e1, e2 = pentagonal_eta_q(1, 201), pentagonal_eta_q(2, 201)
    old = ((e1 * e1 * e2 * e2) / genfun_rhs_q("u", 201)) ** 4
    assert agreement(hauptmodul_q("u", 201), old) == Agreement(None, 201)


def test_checks_state_the_exponent_they_compared_through():
    assert qs.genfun_identity("t", 30) == Agreement(None, 30)
    assert t_j_relation(30) == Agreement(None, 33)  # t and j(2tau) carry 4 extra terms
    assert v_ode(30) == Agreement(None, 30)
    assert agreement(QSeries(24, [1, 2, 3]), QSeries(24, [1, 2])) == Agreement(None, 2)
    assert agreement(QSeries(-48, [1, 2, 3]), QSeries(-48, [1, 5, 3, 4])) == Agreement(-1, 0)
    with pytest.raises(ValueError, match="integral offsets"):
        agreement(QSeries(12, [1]), QSeries(12, [1]))


@pytest.mark.parametrize("a, b", [
    (QSeries(0, []), QSeries(0, [1, 2])),
    (QSeries(0, [1, 2]), QSeries(0, [])),
    (QSeries(24, []), QSeries(48, [])),
])
def test_agreement_rejects_series_that_share_no_exponent(a, b):
    # no exponent is compared, so there is nothing to pass "through q^-1"
    with pytest.raises(ValueError, match="share no known exponent"):
        agreement(a, b)


def test_genfun_identities_to_200():
    for tag in ("t", "u", "s", "w", "v", "h"):
        assert genfun_identity_check(tag, 200) is None, tag


@functools.cache
def _sums(seq, count):
    """a_0 .. a_(count-1) by the literal defining sums, which read no recurrence."""
    return [exact_term(seq, n) for n in range(count)]


def _composed(tag, nterms):
    """The literal sum a_n x^n through q^nterms, with x = -s for V."""
    x = hauptmodul_q(tag, nterms)
    if tag == "s":
        x = -x
    return compose(_sums(HAUPTMODUL_SEQUENCE[tag], nterms + 1), x).truncate(nterms + 1)


@pytest.mark.parametrize("tag", TAGS)
def test_compose_oracle_matches_genfun_rhs(tag):
    assert first_mismatch(_composed(tag, 60), genfun_rhs_q(tag, 61).truncate(61)) is None


@pytest.mark.parametrize("k", [0, 1, 23, 60])
def test_genfun_check_reports_perturbed_coefficient(monkeypatch, k):
    import supercong.qseries as qs

    real = qs.genfun_rhs_q

    def perturbed(tag, nterms):
        g = real(tag, nterms)
        return QSeries(g.off24, [c + 1 if i == k else c for i, c in enumerate(g.coeffs)])

    monkeypatch.setattr(qs, "genfun_rhs_q", perturbed)
    for tag in TAGS:
        assert qs.genfun_identity_check(tag, 60) == k, tag
        assert first_mismatch(_composed(tag, 60), perturbed(tag, 61).truncate(61)) == k, tag


def r_based_first_nonzero(tag, nterms, x=None, g=None):
    """First nonzero exponent of L_q G through q^nterms, with theta_x = r theta_q
    and r = x / theta_q x: one division, and r's coefficients grow exponentially
    (907 bits for t and 1,283 for u at q^200).  x defaults to the Hauptmodul,
    G to the stated weight-2 form."""
    seq = HAUPTMODUL_SEQUENCE[tag]
    if x is None:
        x = hauptmodul_q(tag, nterms + 1).scale(HAUPTMODUL_SIGN[tag])
    if g is None:
        g = genfun_rhs_q(tag, nterms + 1).truncate(nterms + 1)
    if g.coeff_at(0) != 1:
        return 0
    r = x / x.theta()
    d1 = r * g.theta()
    d2 = r * d1.theta()
    d3 = r * d2.theta()
    p0, p1, p2, p3 = RECURRENCES[seq].p_coeffs
    e = RECURRENCES[seq].e
    inner = -(d3.scale(p3) + d2.scale(p2) + d1.scale(p1) + g.scale(p0))
    if e:
        inner = inner + x * (d3 + d2.scale(3) + d1.scale(3) + g).scale(e)
    return (d3 + x * inner).truncate(nterms + 1).first_nonzero()


@pytest.mark.parametrize("k", [None, 0, 1, 23, 60])
@pytest.mark.parametrize("tag", TAGS)
def test_cleared_check_matches_the_r_based_oracle(monkeypatch, tag, k):
    real = qs.genfun_rhs_q

    def perturbed(tag, nterms):
        g = real(tag, nterms)
        return QSeries(g.off24, [c + (i == k) for i, c in enumerate(g.coeffs)])

    monkeypatch.setattr(qs, "genfun_rhs_q", perturbed)
    want = r_based_first_nonzero(tag, 100, g=perturbed(tag, 101).truncate(101))
    assert want == k
    # L_q G does not see G_0, so a G_0 other than 1 is all that is compared
    assert qs.genfun_identity(tag, 100) == Agreement(want, 0 if k == 0 else 100)


@pytest.mark.parametrize("k", [2, 5, 17])
@pytest.mark.parametrize("tag", TAGS)
def test_hauptmodul_with_an_extra_factor_fails_where_the_oracle_does(monkeypatch, tag, k):
    # x and B both come from a logarithmic derivative with an extra factor
    # (1 - q^k)^-1, so that A theta x = x B still holds for a wrong x
    real, exps = qs._eta_log_derivative, qs._eta_exps(tag)

    def with_extra_factor(got_exps, nterms):
        s = real(got_exps, nterms)
        if got_exps == exps:
            for j in range(k, nterms, k):
                s[j] += k
        return s

    # for u the factor goes into X = eta(tau)^8 eta(2tau)^8, not into G
    monkeypatch.setattr(qs, "_eta_log_derivative", with_extra_factor)
    x, _, _, den = qs._pullback(tag, genfun_rhs_q(tag, 81))
    want = r_based_first_nonzero(tag, 80, x=x if den is None else x / den)
    assert want is not None
    assert qs.genfun_identity_check(tag, 80) == want


@pytest.mark.parametrize("tag", TAGS)
def test_pullback_factors_state_theta_x(tag):
    # x = X / D is the Hauptmodul times its sign, and A theta_q x = x B, so
    # that theta_x = (A / B) theta_q, exactly through q^200; u's factors are
    # built from its weight-2 form G: A = G and D = G^4
    g = genfun_rhs_q(tag, 201)
    big_x, a, b, den = qs._pullback(tag, g)
    assert all(s.length == 201 for s in (big_x, a, b, den) if s is not None)
    if tag == "u":
        assert agreement(a, g) == agreement(den, g ** 4) == Agreement(None, 200)
    x = hauptmodul_q(tag, 201).scale(HAUPTMODUL_SIGN[tag])
    assert agreement(big_x if den is None else big_x / den, x) == Agreement(None, 201)
    assert [s.coeffs[0] for s in (a, b, den) if s is not None] == [1] * (1 + 2 * (tag == "u"))
    a_theta_x = x.theta() if a is None else a * x.theta()
    assert agreement(a_theta_x, x * b) == Agreement(None, 201)


def test_genfun_check_rejects_corrupted_exact_term(monkeypatch):
    # one summand of D's defining sum off by one, F(30, 12): a_30 is one more,
    # and the certificate identity first reads F(30, 12) through G(28, 12)
    real = sequences.SUMMANDS[SequenceId.D]
    good = exact_term(SequenceId.D, 30)
    monkeypatch.setitem(sequences.SUMMANDS, SequenceId.D,
                        lambda n, k: real(n, k) + ((n, k) == (30, 12)))
    assert exact_term(SequenceId.D, 30) == good + 1
    with pytest.raises(ArithmeticError, match="D: .* n = 28, k = 11;"):
        qs.genfun_identity_check("v", 40)


def test_genfun_check_rejects_corrupted_recurrence_row(monkeypatch):
    row = RECURRENCES[SequenceId.T]
    monkeypatch.setitem(RECURRENCES, SequenceId.T, row._replace(e=row.e + 1))
    with pytest.raises(ArithmeticError, match="T: .* n = 0, k = 0;"):
        genfun_identity_check("w", 20)


def test_genfun_cb3_matches_quoted_quotient_at_50():
    inner = hauptmodul_q("t", 50)
    outer = [comb(2 * n, n) ** 3 for n in range(51)]
    lhs = compose(outer, inner)
    rhs = genfun_rhs_q("t", 51)
    assert first_mismatch(lhs.truncate(51), rhs.truncate(51)) is None


def test_genfun_negative_control():
    inner = hauptmodul_q("h", 40)
    outer = exact_terms(SequenceId.A, 41)
    outer[7] += 1
    lhs = compose(outer, inner)
    rhs = genfun_rhs_q("h", 41)
    assert first_mismatch(lhs.truncate(41), rhs.truncate(41)) == 7


def test_t_j_relation():
    assert t_j_relation_check(100) is None
    j2 = j_2tau_q(12)
    assert j2.off24 == -48
    assert j2.coeff_at(0) == 744
    assert j2.coeff_at(-2) == 1
    assert j2.coeff_at(-1) == 0
    assert j2.coeff_at(2) == 196884


def test_t_j_relation_stable_under_unit_factor():
    # multiplying the relation by t and dividing again keeps it zero
    t = hauptmodul_q("t", 30)
    j2 = j_2tau_q(30)
    rel = (t.scale(16).add_const(-1)) ** 3 + j2 * t * t
    again = (rel * t) / t
    assert again.first_nonzero() is None


def test_t_j_relation_negative_control():
    f24 = weber_f_2tau_pow24_q(30)
    bad = QSeries(f24.off24, [c + (1 if i == 3 else 0) for i, c in enumerate(f24.coeffs)])
    j_bad = (bad.add_const(-16) ** 3) / bad
    t = hauptmodul_q("t", 30)
    rel = (t.scale(16).add_const(-1)) ** 3 + j_bad * t * t
    assert rel.first_nonzero() is not None


@pytest.mark.parametrize("k", [3, 5, 17])
def test_t_j_relation_check_reports_bumped_weber_coefficient(monkeypatch, capsys, k):
    import supercong.qseries as qs
    from supercong.cli import EXIT_FAIL, main

    real = qs.weber_f_2tau_pow24_q

    def bumped(nterms):
        f24 = real(nterms)
        return QSeries(f24.off24, [c + (i == k) for i, c in enumerate(f24.coeffs)])

    # the relation rebuilt by hand from the bumped product, as in the control above
    j_bad = (bumped(34).add_const(-16) ** 3) / bumped(34)
    t = hauptmodul_q("t", 34)
    rel = (t.scale(16).add_const(-1)) ** 3 + j_bad * t * t
    want = rel.off24 // 24 + rel.first_nonzero()
    monkeypatch.setattr(qs, "weber_f_2tau_pow24_q", bumped)
    assert qs.t_j_relation_check(30) == want
    assert main(["verify", "qseries", "--terms", "30", "--format", "csv"]) == EXIT_FAIL
    assert "t-j-cubic,,fail,,,," in capsys.readouterr().out.splitlines()


def test_v_ode():
    assert v_ode_check(100) is None


def test_v_ode_low_order_balance():
    # constant coefficient of the cleared form: y1 + 8 y0 = 0 with y1 = -V_1
    v = exact_terms(SequenceId.V, 2)
    assert -v[1] + 8 * v[0] == 0


def test_v_recurrence_row_is_the_stated_ode():
    # s * ODE equals V's RECURRENCES operator pulled back to s = -x,
    #   theta^3 + c s (2 theta + 1)(alpha theta^2 + alpha theta + beta) + e s^2 (theta + 1)^3;
    # compared on s^k, and s^0..s^3 already fix an operator of order 3
    c, alpha, beta, e = RECURRENCES[SequenceId.V]
    for k in range(12):
        ode = {}
        for j, poly in enumerate(V_ODE):
            for i, coef in enumerate(poly):
                power = k - j + 1 + i
                ode[power] = ode.get(power, 0) + math.perm(k, j) * coef
        row = {k: k**3, k + 1: c * (2 * k + 1) * (alpha * k * (k + 1) + beta),
               k + 2: e * (k + 1) ** 3}
        nonzero = {pw: v for pw, v in ode.items() if v}
        assert nonzero == {pw: v for pw, v in row.items() if v}, k


def test_v_ode_negative_control(monkeypatch):
    # one summand F(m, j) of V's defining sums off by one: the certificate
    # identity first reads it through G(m - 2, j), at row n = m - 2, k = j - 1
    real = sequences.SUMMANDS[SequenceId.V]
    for m, j in ((2, 1), (7, 3), (40, 20)):
        monkeypatch.setitem(sequences.SUMMANDS, SequenceId.V,
                            lambda n, k: real(n, k) + ((n, k) == (m, j)))
        with pytest.raises(ArithmeticError, match=f"V: .* n = {m - 2}, k = {j - 1};"):
            qs.v_ode_check(20)


def test_verify_qseries_sums_nothing(monkeypatch, capsys):
    # the same report with every way to sum a sequence refusing, and no proof
    # carried over from an earlier call
    from supercong.cli import main

    argv = ["verify", "qseries", "--terms", "200", "--format", "csv"]
    code, want = main(argv), capsys.readouterr().out

    def refuse(*args):
        raise AssertionError("verify qseries summed a sequence")

    for name in ("exact_term", "exact_terms", "iter_terms"):
        monkeypatch.setattr(sequences, name, refuse)
    monkeypatch.setattr(sequences, "_CERTIFIED", set())
    assert main(argv) == code == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("j, i", [(0, 0), (1, 2), (3, 4)])
def test_v_ode_with_a_wrong_coefficient_is_an_error_row(monkeypatch, capsys, j, i):
    # the identity with V's recurrence operator fails, so the row does not
    # pass: v_ode_check raises, and verify qseries reports an error row
    import supercong.qseries as qs
    from supercong.cli import EXIT_FAIL, main

    wrong = tuple(list(poly) for poly in qs.V_ODE)
    wrong[j][i] += 1
    monkeypatch.setattr(qs, "V_ODE", wrong)
    with pytest.raises(ArithmeticError, match="V_ODE"):
        qs.v_ode_check(20)
    assert main(["verify", "qseries", "--terms", "20", "--format", "csv"]) == EXIT_FAIL
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("v-ode,")]
    assert rows == ["v-ode,,error,,,,"]


# -- ring laws, up to truncation ---------------------------------------------


def _series(lead=st.integers(-5, 5)):
    return st.builds(
        lambda off, head, tail: QSeries(24 * off, [head] + tail),
        st.integers(-2, 2), lead, st.lists(st.integers(-5, 5), max_size=7))


def _agree(a, b):
    """Same leading exponent, and equal wherever both are known."""
    n = min(a.length, b.length)
    return a.off24 == b.off24 and a.coeffs[:n] == b.coeffs[:n]


@settings(max_examples=200, deadline=None)
@given(a=_series(), b=_series(), c=_series())
def test_qseries_ring_laws(a, b, c):
    assert _agree(a + b, b + a)
    assert _agree(a * b, b * a)
    assert _agree((a + b) + c, a + (b + c))
    assert _agree((a * b) * c, a * (b * c))
    assert _agree(a * (b + c), a * b + a * c)


@settings(max_examples=200, deadline=None)
@given(a=_series(), b=_series(lead=st.sampled_from([1, -1])))
def test_qseries_division_undoes_multiplication(a, b):
    back = (a * b) / b
    assert _agree(back, a)
    assert all(isinstance(x, int) for x in back.coeffs)


_OFF24 = st.integers(-48, 48)  # fractional offsets included
_COEFF = st.one_of(st.just(0), st.integers(-5, 5))


def _loose_series():
    return st.builds(QSeries, _OFF24, st.lists(_COEFF, max_size=12))


_UNIT_LEAD = st.builds(lambda off, head, tail: QSeries(off, [head] + tail),
                       _OFF24, st.sampled_from([1, -1]), st.lists(_COEFF, max_size=11))


@settings(max_examples=200, deadline=None)
@given(a=_loose_series(), b=_loose_series())
def test_qseries_product_is_the_truncated_cauchy_product(a, b):
    n = min(a.length, b.length)
    prod = a * b
    assert prod.off24 == a.off24 + b.off24
    assert prod.coeffs == [sum(a.coeffs[i] * b.coeffs[k - i] for i in range(k + 1))
                           for k in range(n)]


def double_loop_product(a, b):
    """c_k = sum_{i<=k} a_i b_(k-i) below the shorter length, one term at a time."""
    out = []
    for k in range(min(len(a), len(b))):
        c = 0
        for i in range(k + 1):
            c += a[i] * b[k - i]
        out.append(c)
    return out


@st.composite
def _wide_series(draw):
    """Signed and zero coefficients below 2^bits with bits up to 2,000, either
    all as wide or growing along the series as r = x / theta x does; lengths
    0..300, fractional offsets included.  The coefficients come from a drawn
    Random, since 300 of them at 2,000 bits overrun hypothesis's buffer."""
    bits, growing = draw(st.integers(0, 2000)), draw(st.booleans())
    n, rnd = draw(st.integers(0, 300)), draw(st.randoms(use_true_random=False))
    coeffs = []
    for i in range(n):
        top = (1 << (bits * (i + 1) // n if growing else bits)) - 1
        coeffs.append(rnd.choice([0, top, -top, rnd.randint(-top, top)]))
    return QSeries(draw(_OFF24), coeffs)


@settings(max_examples=80, deadline=None)
@given(a=_wide_series(), b=_wide_series())
@example(a=QSeries(7, [(-1) ** i * ((1 << (20 * i // 3)) - 1) for i in range(301)]),
         b=QSeries(-30, [(1 << 2000) - 1 - i for i in range(300)]))
def test_product_matches_the_double_loop(a, b):
    prod = a * b
    assert prod.off24 == a.off24 + b.off24
    assert prod.coeffs == double_loop_product(a.coeffs, b.coeffs)


def test_every_product_packs(monkeypatch, capsys):
    # one kernel: each product that verify qseries makes, and one 4,000 bits
    # wide, goes through _kronecker_product
    from supercong.cli import EXIT_OK, main

    packed, products = [], []
    real_pack, real_mul = qs._kronecker_product, QSeries.__mul__
    monkeypatch.setattr(qs, "_kronecker_product",
                        lambda *args: packed.append(1) or real_pack(*args))
    monkeypatch.setattr(QSeries, "__mul__", lambda a, b: products.append(1) or real_mul(a, b))
    assert main(["verify", "qseries", "--terms", "30", "--format", "csv"]) == EXIT_OK
    capsys.readouterr()
    wide = QSeries(0, [(1 << 2000) - 1, 1 - (1 << 2000)] * 20)
    assert (wide * wide).coeffs == double_loop_product(wide.coeffs, wide.coeffs)
    assert len(packed) == len(products) > 80


@pytest.mark.parametrize("bits", [0, 1, 192])
@pytest.mark.parametrize("n", [1, 2, 201])
def test_every_width_packs(monkeypatch, bits, n):
    calls = []
    real = qs._kronecker_product
    monkeypatch.setattr(qs, "_kronecker_product", lambda *args: calls.append(1) or real(*args))
    a = QSeries(0, [(1 << bits) - 1, 1 - (1 << bits)] * n)  # widest coefficient: `bits` bits
    assert (a * a).coeffs == double_loop_product(a.coeffs, a.coeffs)
    assert calls


@pytest.mark.parametrize("bits_a, bits_b, n", [(8, 8, 3), (30, 50, 7), (100, 90, 63),
                                               (192, 192, 255), (1000, 1000, 255)])
@pytest.mark.parametrize("sign", [1, -1])
def test_a_packer_one_byte_too_narrow_is_caught(bits_a, bits_b, n, sign):
    # every coefficient as wide as allowed and of one sign: c_(n-1) =
    # n (2^a - 1)(2^b - 1) with n = 2^L - 1 needs all but the spare bit of the slot
    a = [sign * ((1 << bits_a) - 1)] * n
    b = [(1 << bits_b) - 1] * n
    slot = qs._slot_bytes(bits_a + bits_b, n)
    want = double_loop_product(a, b)
    assert qs._kronecker_product(a, b, slot) == want
    assert qs._kronecker_product(a, b, slot - 1) != want


@settings(max_examples=200, deadline=None)
@given(a=_loose_series(), b=_UNIT_LEAD)
def test_qseries_quotient_is_as_long_as_the_shorter_operand(a, b):
    quot = a / b
    assert quot.off24 == a.off24 - b.off24
    assert len(quot.coeffs) == min(a.length, b.length)
    assert (quot * b).coeffs == a.coeffs[:len(quot.coeffs)]


@settings(max_examples=300, deadline=None)
@given(off=st.integers(-5, 5), coeffs=st.lists(st.integers(), max_size=8), value=st.integers(),
       frac=st.integers(1, 23))
def test_add_const_matches_a_dense_oracle(off, coeffs, value, frac):
    a = QSeries(24 * off, list(coeffs))
    with pytest.raises(ValueError, match="fractional-offset"):
        QSeries(24 * off + frac, coeffs).add_const(value)
    top = off + len(coeffs)  # every exponent below top is known
    if top <= 0:
        with pytest.raises(ValueError, match="beyond the known truncation"):
            a.add_const(value)
        return
    known = {off + i: c for i, c in enumerate(coeffs)}
    known[0] = known.get(0, 0) + value
    lo = min(off, 0)
    got = a.add_const(value)
    assert got.off24 == 24 * lo
    assert got.coeffs == [known.get(e, 0) for e in range(lo, top)]
    assert a.coeffs == coeffs


@settings(max_examples=200, deadline=None)
@given(a=_series(), b=_series())
def test_qseries_theta_is_a_derivation(a, b):
    assert _agree((a * b).theta(), a.theta() * b + a * b.theta())


def test_theta_needs_integral_offset():
    assert QSeries(-24, [1, 2, 3]).theta().coeffs == [-1, 0, 3]
    with pytest.raises(ValueError):
        QSeries(12, [1]).theta()
