"""Numeric certification of CM values, Weber class invariants, and the
transformation identities, at controlled precision."""

import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import to_fixed

from supercong import highprec
from supercong.highprec import (
    CMTarget,
    QuadraticPoint,
    class_invariant_check,
    cm_check,
    cm_table,
    cm_target,
    eta_num,
    hauptmodul_value,
    identity_suite,
)
from supercong.congruence import catalog, lookup
from supercong.qseries import HAUPTMODUL_SEQUENCE, QSeries, hauptmodul_q

PREC = 280


def _close(a, b, bits=200):
    return abs(a - b) < mpmath.mpf(2) ** (-bits)


def test_eta_validation():
    with pytest.raises(ValueError):
        eta_num(mpmath.mpc(1, -0.5), 128)


def test_eta_functional_equations():
    with mp.workprec(PREC):
        tau = mpmath.mpc(mpmath.mpf(1) / 3, mpmath.mpf(7) / 8)
        e = eta_num(tau, PREC)
        shift = eta_num(tau + 1, PREC)
        assert _close(shift, mpmath.expjpi(mpmath.mpf(1) / 12) * e)
        invv = eta_num(-1 / tau, PREC)
        assert _close(invv, mpmath.sqrt(-1j * tau) * e)
        # modulus is 1-periodic with period 24 in the prefactor
        e24 = eta_num(tau + 24, PREC)
        assert _close(abs(e24), abs(e))


# -- the reduced eta against the unreduced series -------------------------------


S_FACTOR, REDUCE = highprec._s_factor, highprec._reduce


def _series_at(tau, prec: int) -> mpmath.mpc:
    """highprec's series summed at tau itself, unreduced, in 2^-(prec+32) fixed point."""
    work = prec + 32
    (re, im), exp = highprec._eta_series(
        to_fixed(tau.real._mpf_, work), to_fixed(tau.imag._mpf_, work), work)
    return mpmath.mpc(mpmath.ldexp(re, exp), mpmath.ldexp(im, exp))


def _rel_err(tau, prec=256, oracle_prec=384) -> mpmath.mpf:
    with mp.workprec(oracle_prec + 32):
        exact = _series_at(tau, oracle_prec)
        return abs(eta_num(tau, prec) - exact) / abs(exact)


def _gamma_tau(tau_re, tau_im, a, b, c, d):
    with mp.workprec(416):
        tau = mpmath.mpc(tau_re, tau_im)
        return (a * tau + b) / (c * tau + d)


@st.composite
def _sl2_point(draw):
    c = draw(st.integers(1, 30))
    d = draw(st.integers(-30, 30).filter(lambda d: math.gcd(c, d) == 1))
    a = pow(d, -1, c) + c * draw(st.integers(-2, 2))
    b = (a * d - 1) // c
    tau_re = draw(st.integers(-1000, 1000)) / 1000
    tau_im = draw(st.integers(600, 1600)) / 1000
    return tau_re, tau_im, a, b, c, d


@settings(max_examples=40, deadline=None)
@given(point=_sl2_point())
def test_eta_num_matches_unreduced_series(point):
    assert _rel_err(_gamma_tau(*point)) < mpmath.mpf(2) ** -250, point


@pytest.mark.parametrize("point, im", [
    (("0.1", "0.65", 23, 22, 24, 23), 7.3e-4),  # Gamma_0(4) image, as deep as the suite goes
    (("0.25", "0.9", 151, 61, 250, 101), 1.2e-5),
])
def test_eta_num_matches_unreduced_series_near_the_real_line(point, im):
    a, b, c, d = point[2:]
    assert a * d - b * c == 1
    tau = _gamma_tau(*point)
    assert abs(mpmath.im(tau) / im - 1) < 0.05
    assert _rel_err(tau) < mpmath.mpf(2) ** -250


@pytest.mark.parametrize("point, prec", [
    (lambda: mpmath.mpc(0, 1), 256),  # i
    (lambda: mpmath.mpc(0.5, mpmath.sqrt(3) / 2), 256),  # rho and its mirror image
    (lambda: mpmath.mpc(-0.5, mpmath.sqrt(3) / 2), 256),
    (lambda: mpmath.mpc(-0.2, mpmath.sqrt(24) / 5), 256),  # on |tau| = 1
    (lambda: mpmath.mpc(0.5, 1 / mpmath.sqrt(6)), 274),  # S then T give -1/5 + i sqrt(24)/5
])
def test_eta_num_terminates_on_the_domain_boundary(point, prec):
    with mp.workprec(prec + 32):
        tau = point()
    assert _rel_err(tau, prec) < mpmath.mpf(2) ** -250


@pytest.mark.parametrize("prec", [256, 1024])
def test_eta_num_matches_mpmath_eta(prec):
    # mpmath.eta takes the q-Pochhammer product (q; q)_inf at tau itself,
    # unreduced: an oracle that shares no code with eta_num or _eta_series
    rng = random.Random(prec)
    for _ in range(30):
        re, im = rng.uniform(-3, 3), rng.uniform(0.05, 2)
        with mp.workprec(prec + 32):
            tau = mpmath.mpc(re, im)
            got = eta_num(tau, prec)
        with mp.workprec(prec + 64):
            exact = mpmath.eta(tau)
            assert abs(got - exact) / abs(exact) < mpmath.mpf(2) ** (8 - prec), (re, im)


@pytest.mark.parametrize("im", [200, 1000])
def test_eta_num_stays_relative_far_up(im):
    # beyond Im(tau) = 20 every q^k is below 2^-(prec+32), so eta = e^(pi i tau/12),
    # about 2^-75 at Im(tau) = 200 and 10^-114 at 1000: a product with x in
    # 2^-288 fixed point would keep 213 bits of the one and none of the other
    with mp.workprec(400):
        tau = mpmath.mpc("0.3", im)
        exact = mpmath.expjpi(tau / 12)
        assert abs(eta_num(tau, 256) / exact - 1) < mpmath.mpf(2) ** -250


@pytest.mark.parametrize("re, im", [("1e-5", "3e-6"), ("1e-4", "1e-4")])
def test_eta_num_next_to_zero_meets_the_stated_bound(monkeypatch, re, im):
    # the oracle eta(-1/tau) / sqrt(-i tau) takes mpmath.eta far up, where its
    # q-product converges at once: it shares no code with eta_num
    prec = 256
    steps = []
    monkeypatch.setattr(highprec, "_s_factor", lambda *a: steps.append(a) or S_FACTOR(*a))
    with mp.workprec(prec + 64):
        tau = mpmath.mpc(re, im)
        got = eta_num(tau, prec)
        exact = mpmath.eta(-1 / tau) / mpmath.sqrt(-1j * tau)
        # one S step lands above Im = 10^4, where K = 1 pentagonal pair is summed
        assert len(steps) == 1
        bound = (len(steps) + 4 * 1 + 7 + 4 / tau.imag) * mpmath.mpf(2) ** -(prec + 32)
        assert abs(got - exact) / abs(exact) < bound


def test_eta_num_keeps_its_precision_under_a_53_bit_caller():
    with mp.workprec(288):
        tau = mpmath.mpc("0.1", "0.65")
    with mp.workprec(53):
        got = eta_num(tau, 256)
    with mp.workprec(320):
        exact = mpmath.eta(tau)
        assert abs(got - exact) / abs(exact) < mpmath.mpf(2) ** -248


@st.composite
def _fixed_point_pair(draw):
    work = draw(st.integers(64, 1100))
    size = st.integers(-(1 << (work + 8)), 1 << (work + 8))
    return work, draw(size), draw(st.integers(1, 1 << (work + 8))), draw(size), draw(size)


@settings(max_examples=80, deadline=None)
@given(case=_fixed_point_pair())
def test_integer_square_root_and_division_match_mpmath(case):
    # re + i im is a point of the upper half-plane, c + i d any divisor but 0
    work, re, im, c, d = case
    tol = mpmath.mpf(2) ** -(work - 2)
    with mp.workprec(3 * work + 64):
        one = mpmath.mpf(2) ** work
        tau = mpmath.mpc(re, im) / one
        u, v = highprec._s_factor(re, im, work)
        assert abs(mpmath.mpc(u, v) / one - mpmath.sqrt(-1j * tau)) < tol
        if c or d:
            x, y = highprec._gdiv((re, im), (c, d), work)
            assert abs(mpmath.mpc(x, y) / one - mpmath.mpc(re, im) / mpmath.mpc(c, d)) < tol


def _sqrt_i_tau(re, im, work):
    """sqrt(i tau), the principal root: sqrt(-i tau) times i, with the sign of Re(tau)."""
    u, v = S_FACTOR(re, im, work)
    return (-v, u) if re >= 0 else (v, -u)


def _reduced_eta(monkeypatch, s_factor, keep_shift: bool) -> None:
    """Make eta_num's own reduction use this S factor, and fold its T shifts
    into the series or drop them."""

    def reduce(re, im, work):
        re, im, shift, scale, scale_exp = REDUCE(re, im, work)
        return re, im, shift * keep_shift, scale, scale_exp

    monkeypatch.setattr(highprec, "_s_factor", s_factor)
    monkeypatch.setattr(highprec, "_reduce", reduce)


ETA_MUTANTS = {
    "S factor sqrt(i tau)": (_sqrt_i_tau, True),
    "T shift dropped": (S_FACTOR, False),
    "S factor left out": (lambda re, im, work: (1 << work, 0), True),
}


def test_reduced_eta_builder_reproduces_eta_num(monkeypatch):
    # the builder's seams are the kernel's: unchanged parts give eta_num bit
    # for bit, and each mutant moves the value at 0.1 + 0.3i, which takes one
    # S step and then a T step (two S steps of sqrt(i tau) can cancel in sign)
    taus = [_gamma_tau("0.1", "0.65", 23, 22, 24, 23), _gamma_tau("0.1", "0.3", 1, 0, 0, 1)]
    expected = [eta_num(tau, 256) for tau in taus]
    _reduced_eta(monkeypatch, S_FACTOR, True)
    assert [eta_num(tau, 256) for tau in taus] == expected
    for name, mutant in ETA_MUTANTS.items():
        _reduced_eta(monkeypatch, *mutant)
        assert abs(eta_num(taus[1], 256) / expected[1] - 1) > 1e-3, name


@pytest.mark.parametrize("name", list(ETA_MUTANTS))
def test_wrong_reduction_is_caught(monkeypatch, name):
    # eta-shift and eta-inversion partly test the reduction against its own
    # rules; the closed-form Gamma_0(4) multiplier and the CM table do not
    _reduced_eta(monkeypatch, *ETA_MUTANTS[name])
    rows = {r.name: r for r in identity_suite(6, 256, seed=4)}
    assert not rows["eta-gamma0(4)"].ok, name
    assert any(not cm_check(target, 60).ok for target in cm_table()), name


def test_eta_at_i_is_real():
    with mp.workprec(PREC):
        val = eta_num(mpmath.mpc(0, 1), PREC)
        assert abs(mpmath.im(val)) < mpmath.mpf(2) ** (-200)
        # Gamma(1/4) / (2 pi^(3/4))
        ref = mpmath.gamma(mpmath.mpf(1) / 4) / (2 * mpmath.pi ** mpmath.mpf(0.75))
        assert _close(mpmath.re(val), ref)


def test_weber_identities_fixed_point():
    with mp.workprec(PREC):
        tau = mpmath.mpc(mpmath.mpf(-2) / 7, mpmath.mpf(9) / 8)
        f = hauptmodul_value("f", tau, PREC)
        f1 = hauptmodul_value("f1", tau, PREC)
        f2 = hauptmodul_value("f2", tau, PREC)
        assert _close(f * f1 * f2, mpmath.sqrt(2))
        assert _close(hauptmodul_value("f1", 2 * tau, PREC) * f2, mpmath.sqrt(2))
        assert _close(hauptmodul_value("f2", -1 / tau, PREC), f1)
        # f1(sqrt(-2))^2 = sqrt(2)
        s2 = hauptmodul_value("f1", mpmath.mpc(0, mpmath.sqrt(2)), PREC) ** 2
        assert _close(s2, mpmath.sqrt(2))
    with pytest.raises(ValueError):
        hauptmodul_value("f3", mpmath.mpc(0, 1), PREC)


def test_gamma2_j_special_values():
    with mp.workprec(PREC):
        j_i = hauptmodul_value("j", mpmath.mpc(0, 1), PREC)
        assert _close(j_i, mpmath.mpf(1728))
        omega = mpmath.mpc(mpmath.mpf(1) / 2, mpmath.sqrt(3) / 2)
        j_omega = hauptmodul_value("j", omega, PREC)
        assert abs(j_omega) < mpmath.mpf(2) ** (-200)
        pt7 = QuadraticPoint(Fraction(3, 2), Fraction(1, 2), 7).to_mpc(PREC)
        j7 = hauptmodul_value("j", pt7, PREC)
        assert _close(j7, mpmath.mpf(-3375))
        g2_7 = hauptmodul_value("gamma2", mpmath.mpc(0, mpmath.sqrt(7)), PREC)
        assert _close(g2_7, mpmath.mpf(255))


def test_weber_eighth_powers_distinct():
    with mp.workprec(PREC):
        tau = mpmath.mpc(mpmath.mpf(1) / 5, mpmath.mpf(11) / 10)
        vals = [-hauptmodul_value("f", tau, PREC) ** 8, hauptmodul_value("f1", tau, PREC) ** 8,
                hauptmodul_value("f2", tau, PREC) ** 8]
        j = hauptmodul_value("j", tau, PREC)
        assert abs(j - 12**3) > 1
        for i in range(3):
            for k in range(i + 1, 3):
                assert abs(vals[i] - vals[k]) > mpmath.mpf(2) ** (-100)


def test_cm_table_contents():
    table = cm_table()
    assert len(table) >= 28
    by_fn = {}
    for row in table:
        by_fn.setdefault(row.fn, []).append(row)
    assert len(by_fn["t"]) == 6
    assert len(by_fn["u"]) == 15
    assert len(by_fn["s"]) == 2
    assert len(by_fn["w"]) == 3
    assert len(by_fn["v"]) == 4
    assert len(by_fn["h"]) == 2
    t_first = [r for r in by_fn["t"] if r.expected == 1]
    assert t_first and t_first[0].point == QuadraticPoint(Fraction(3, 8), Fraction(1, 8), 7)
    v_vals = {r.expected for r in by_fn["v"]}
    assert Fraction(-1, 2) in v_vals
    h_vals = {r.expected for r in by_fn["h"]}
    assert h_vals == {Fraction(1), Fraction(-1)}


def test_cm_check_all_rows_60_digits():
    for target in cm_table():
        res = cm_check(target, 60)
        assert res.ok, (res.name, res.residual)
        assert res.residual < 1e-60


def test_cm_check_detects_perturbation():
    base = cm_table()[1]  # t at sqrt(-7)/2 -> 1/4096
    perturbed = CMTarget(base.name, base.fn, base.point,
                         base.expected + Fraction(1, 10**30))
    res = cm_check(perturbed, 60)
    assert not res.ok
    # the residual is relative: 10^-30 over the value 1/4096
    assert 1e-31 < res.residual * float(base.expected) < 1e-29


def test_cm_check_is_relative_for_small_values():
    # u(sqrt(-58)/2) = 1/396^4 ~ 4.1e-11: a relative error of 1e-50 leaves an
    # absolute residual of ~4e-61, under 10^-60, yet only 50 digits agree;
    # the row reports the relative 1e-50
    base = next(t for t in cm_table() if t.expected == Fraction(1, 396**4))
    perturbed = CMTarget(base.name, base.fn, base.point,
                         base.expected * (1 + Fraction(1, 10**50)))
    res = cm_check(perturbed, 60)
    assert not res.ok
    assert 1e-51 < res.residual < 1e-49


def test_cm_rows_claim_no_more_digits_than_their_precision():
    # at 60 digits the check works at 274 bits, about 82.5 digits, and
    # hauptmodul_value at 306 (92.1 digits).  A CM point that the working
    # precision rounds, such as 3/2*sqrt(-2), cannot agree past 83 relative
    # digits; one that it holds exactly (i/2, (1 + i)/2) carries no rounding
    # of tau, and its residual measures the 306-bit evaluation.  An exact
    # zero (u(sqrt(-2)/2) = 1/256 to the last bit) states no digits
    rows = [(t, cm_check(t, 60)) for t in cm_table()]
    stated = [(t, res.digits) for t, res in rows if res.digits is not None]
    assert all(res.ok for _, res in rows) and max(d for _, d in stated) <= 92
    rounded = [d for t, d in stated if t.point.to_mpc(274) != t.point.to_mpc(1024)]
    assert len(rounded) >= 25 and max(rounded) <= 83
    assert max(res.digits or 0 for res in class_invariant_check(60)) <= 83


def test_cm_rows_below_the_rounding_bound_state_the_bound():
    # at 60 digits the check works at 274 bits, floor(274 log10 2) = 82
    # digits; a residual below 2^-274 measures guard bits or a binary-exact
    # point (u(1/2*sqrt(-2)) and g22^2 read 0, s(1/2*i) 91), so the row
    # states the bound instead
    results = [cm_check(t, 60) for t in cm_table()] + class_invariant_check(60)
    assert all(r.ok for r in results)
    assert max(r.digits for r in results) == 82
    floored = {r.name for r in results if r.at_floor}
    assert {"u(1/2*sqrt(-2))", "g22^2=(1+1*sqrt(2))/1", "s(1/2*i)", "s(-1/4 + 1/4*i)",
            "t(1/2 + 1/2*i)"} <= floored
    bound = float(mpmath.ldexp(1, -274))
    for r in results:
        assert (r.residual == bound and r.digits == 82) if r.at_floor else r.residual >= bound


def test_cm_check_stability_under_higher_precision():
    for target in cm_table()[::6]:
        r80 = cm_check(target, 60)  # 80 working digits
        r160 = cm_check(target, 140)  # 160 working digits
        assert r80.ok and r160.ok
        assert abs(r80.residual - r160.residual) < 1e-60


def test_catalog_cm_points():
    # every row of a family paired with a Hauptmodul states its CM point,
    # except three cited rows whose points are not certified yet
    paired = set(HAUPTMODUL_SEQUENCE.values())
    missing = [s.id for s in catalog() if s.sequence in paired and s.tau is None]
    assert missing == ["I1.2", "I1.3", "R20.1"]
    points = {}
    for spec in catalog():
        points.setdefault((spec.sequence, spec.m), set()).add(spec.tau)
    assert all(len(taus) == 1 for taus in points.values()), points


def test_cm_table_is_derived_from_catalog():
    table = cm_table()
    assert len(table) == 32 == len({t.name for t in table})
    assert [t.name for t in table[:2]] == ["t(3/8 + 1/8*sqrt(-7))", "t(1/2*sqrt(-7))"]
    assert cm_target(lookup("T1.23")) == next(t for t in table if t.fn == "s")
    assert cm_target(lookup("T1.23")).expected == Fraction(-1, 8)  # V pairs with -s
    assert cm_target(lookup("I1.2")) is None


def test_cm_target_detects_wrong_m():
    spec = lookup("T1.8")
    assert cm_check(cm_target(spec), 60).ok
    assert not cm_check(cm_target(dataclasses.replace(spec, m=82)), 60).ok


def test_class_invariants():
    rows = class_invariant_check(60)
    assert len(rows) == 11
    for row in rows:
        assert row.ok, (row.name, row.residual)
    names = " ".join(r.name for r in rows)
    assert "G5^4" in names
    assert "g58^12" in names or "(9801" in names


def test_hauptmodul_value_unknown_tag():
    with pytest.raises(ValueError):
        hauptmodul_value("z", mpmath.mpc(0, 1), 128)


def test_identity_suite():
    rows = identity_suite(6, 256, seed=4)
    assert len(rows) >= 14
    for row in rows:
        assert row.ok, (row.name, row.residual)
        assert row.residual < 1e-30


def test_gamma2_transform_identity_matrix_trivial():
    with mp.workprec(PREC):
        tau = mpmath.mpc(mpmath.mpf(1) / 7, mpmath.mpf(4) / 5)
        g2 = hauptmodul_value("gamma2", tau, PREC)
        # (a,b,c,d) = (1,0,0,1): exponent a*c - a*b + a^2*c*d - c*d = 0
        a, b, c, d = 1, 0, 0, 1
        expo = (a * c - a * b + a * a * c * d - c * d) % 3
        assert expo == 0
        g2m = hauptmodul_value("gamma2", (a * tau + b) / (c * tau + d), PREC)
        assert _close(g2m, g2)


def test_identity_suite_evaluates_each_point_once_per_call(monkeypatch):
    calls = Counter()

    def counted(tau, prec):
        calls[tau, prec] += 1
        return eta_num(tau, prec)

    monkeypatch.setattr(highprec, "eta_num", counted)
    identity_suite(4, 256, seed=4)
    first = dict(calls)
    assert first and max(first.values()) == 1
    identity_suite(4, 256, seed=4)
    assert calls == Counter({key: 2 for key in first})  # nothing kept between calls


def _counted_expjpi(monkeypatch) -> list:
    calls = []
    real = mpmath.expjpi
    monkeypatch.setattr(highprec.mpmath, "expjpi", lambda x: calls.append(x) or real(x))
    return calls


def test_identity_suite_binds_its_roots_of_unity_once(monkeypatch):
    # zeta24 and zeta48^-1, once per call however many samples are drawn
    calls = _counted_expjpi(monkeypatch)
    identity_suite(4, 256, seed=4)
    assert len(calls) <= 2


@pytest.mark.parametrize("tag", ["t", "u", "s", "w", "v", "h", "f", "f1", "f2", "gamma2", "j"])
def test_hauptmodul_value_makes_one_evaluator_per_call(monkeypatch, tag):
    made = []
    real = highprec._Eta
    monkeypatch.setattr(highprec, "_Eta", lambda prec: made.append(prec) or real(prec))
    calls = _counted_expjpi(monkeypatch)
    with mp.workprec(288):
        tau = mpmath.mpc("0.1", "1.1")
    hauptmodul_value(tag, tau, 256)
    assert made == [256]
    # zeta48^-1 is computed only where it is read: f, and gamma2 and j through f
    assert len(calls) == (tag in ("f", "gamma2", "j"))


def test_lazy_zeta48_inverse_is_bit_identical():
    with mp.workprec(256 + highprec._GUARD_BITS):
        eager = mpmath.expjpi(mpmath.mpf(-1) / 24)
    with mp.workprec(53):  # the property fixes its own precision
        lazy = highprec._Eta(256).zeta48_inv
    assert (lazy.real, lazy.imag) == (eager.real, eager.imag)


def test_residuals_are_relative_to_the_sides_compared():
    with mp.workprec(288):
        left = mpmath.mpc("1.5", "-0.25")
        right = left * (1 + mpmath.mpf(2) ** -100)
        big = mpmath.mpf(10) ** 50
        base = highprec._residual(left - right, left, right)
        scaled = highprec._residual(big * left - big * right, big * left, big * right)
        assert abs(scaled / base - 1) < 1e-20
        assert abs(big * left - big * right) > 1e30 * abs(left - right)
        # squared: the relative difference is 2^-100 / (1 + 2^-100)
        assert abs(base * mpmath.mpf(2) ** 200 - 1) < 1e-20
        # r^2 < tol^2 decides as r < tol does, next to the suite's tolerance
        tol = mpmath.mpf(2) ** -128
        for r in (tol * (1 - mpmath.mpf(2) ** -20), tol * (1 + mpmath.mpf(2) ** -20)):
            assert (r * r < tol * tol) == (r < tol)


def _random_mpc(rng: random.Random) -> mpmath.mpc:
    return mpmath.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) * mpmath.mpf(10) ** rng.randint(-30, 30)


@pytest.mark.parametrize("seed", range(4))
def test_squared_residual_is_the_square_of_the_relative_residual(seed):
    rng = random.Random(seed)
    with mp.workprec(288):
        for _ in range(50):
            left = _random_mpc(rng)
            right = left * (1 + _random_mpc(rng) * mpmath.mpf(2) ** -rng.randint(0, 200))
            if rng.random() < 0.2:
                right = _random_mpc(rng)  # sides far apart too
            got = mpmath.sqrt(highprec._residual(left - right, left, right))
            want = abs(left - right) / max(abs(left), abs(right))
            assert abs(got / want - 1) < mpmath.mpf(2) ** -280, (left, right)


def test_identity_suite_deterministic():
    a = identity_suite(3, 192, seed=9)
    b = identity_suite(3, 192, seed=9)
    assert [(r.name, r.residual) for r in a] == [(r.name, r.residual) for r in b]


@pytest.mark.parametrize("prec", [4, 63])
def test_identity_suite_rejects_meaningless_prec(prec):
    # at prec 4 the tolerance 2^-2 passes nearly anything
    with pytest.raises(ValueError, match="prec"):
        identity_suite(1, prec)


# -- the exact and the numeric layer evaluate the same functions ---------------

CROSS_TAUS = (("0.1", "1"), ("-0.37", "1.2"))


def _q_sum(series: QSeries, tau) -> mpmath.mpc:
    """The truncated q-expansion summed at q = exp(2 pi i tau), by Horner."""
    q = mpmath.expjpi(2 * tau)
    total = mpmath.mpc(0)
    for c in reversed(series.coeffs):
        total = total * q + c
    return total * q ** (series.off24 // 24)


def _digits_of_agreement(series: QSeries, tag: str, re: str, im: str) -> float:
    with mp.workprec(256):
        tau = mpmath.mpc(re, im)
        exact = hauptmodul_value(tag, tau, 256)
        return float(-mpmath.log10(abs(_q_sum(series, tau) - exact) / abs(exact)))


@pytest.mark.parametrize("tag", list(HAUPTMODUL_SEQUENCE))
def test_q_expansion_matches_numeric_value(tag):
    # |q| <= exp(-2 pi), so 80 terms leave a tail far below 10^-50
    series = hauptmodul_q(tag, 80)
    for re, im in CROSS_TAUS:
        assert _digits_of_agreement(series, tag, re, im) >= 50, (tag, re, im)


@pytest.mark.parametrize("tag", list(HAUPTMODUL_SEQUENCE))
def test_q_expansion_match_detects_a_wrong_coefficient(tag):
    series = hauptmodul_q(tag, 80)
    bumped = QSeries(series.off24, [c + (i == 10) for i, c in enumerate(series.coeffs)])
    for re, im in CROSS_TAUS:
        assert _digits_of_agreement(bumped, tag, re, im) < 50, (tag, re, im)
