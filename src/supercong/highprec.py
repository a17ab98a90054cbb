"""Arbitrary-precision evaluation of eta, the Weber functions, gamma2/j and
the six Hauptmoduls at points of the upper half-plane.

Values are mpmath complex numbers; every function takes the working precision
in bits explicitly.  Hauptmoduls other than u are evaluated from
qseries.ETA_QUOTIENTS, the eta-exponent table the exact layer expands.  CM
points are carried exactly (rational + rational multiple of sqrt(-D)) and
realized to floating point only at evaluation time.  The CM targets are the
congruence catalog's own: a row with CM point tau and denominator m claims
x(tau) = sign/m for its family's Hauptmodul x and qseries.HAUPTMODUL_SIGN.
eta_num first moves tau toward the fundamental domain: T steps centre it,
and an S step, carrying the multiplier 1/sqrt(-i tau), follows only while
|tau|^2 < 1/2, so every S step at least doubles Im(tau) and the reduced
point has Im(tau) >= 1/2.  The pentagonal series is then summed there and
truncated from a per-point tail bound: with |q| = exp(-2*pi*Im(tau)), terms
beyond |q|^E < 2^-(prec+guard) cannot move the result at working precision.
Truncation and rounding together stay near (S steps + 4K + 1) * 2^-(prec+32)
relative, for K pentagonal pairs (K <= 6 at prec 256, <= 12 at prec 1024).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import mpmath
from mpmath import mp

from .congruence import CongruenceSpec, catalog
from .qseries import ETA_QUOTIENTS, HAUPTMODUL_SEQUENCE, HAUPTMODUL_SIGN

_GUARD_BITS = 32
_FAMILY_HAUPTMODUL = {seq: tag for tag, seq in HAUPTMODUL_SEQUENCE.items()}


@dataclass(frozen=True)
class QuadraticPoint:
    """tau = re + im * sqrt(d) * i with rational re, im and integer d > 0."""

    re: Fraction
    im: Fraction
    d: int

    def to_mpc(self, prec: int) -> mpmath.mpc:
        with mp.workprec(prec):
            real = mpmath.mpf(self.re.numerator) / self.re.denominator
            imag = (
                mpmath.mpf(self.im.numerator) / self.im.denominator * mpmath.sqrt(self.d)
            )
            return mpmath.mpc(real, imag)

    def label(self) -> str:
        if self.d == 1:
            root = "i"
        else:
            root = f"sqrt(-{self.d})"
        num = f"{self.re} + {self.im}*{root}" if self.re else f"{self.im}*{root}"
        return num


def _eta_series(tau: mpmath.mpc, prec: int) -> mpmath.mpc:
    """eta(tau) = e^(pi i tau/12) * sum_k (-1)^k q^(k(3k-1)/2), q = e^(2 pi i tau),
    summed at tau itself, with the tail bound read off at Im(tau).

    The pentagonal powers q^(k(3k-1)/2) and q^(k(3k+1)/2) are stepped by
    running products with q^k and q^(2k+1), four multiplications per k and
    no powers, in fixed point: Gaussian integers scaled by 2^work.  Every
    power has modulus below 1, so each product adds at most about 2^-work
    absolute error.  This is the fast path's series and, called on an
    unreduced tau, the tests' oracle.
    """
    work = prec + _GUARD_BITS

    def mul(x, y):
        return ((x[0] * y[0] - x[1] * y[1]) >> work, (x[0] * y[1] + x[1] * y[0]) >> work)

    with mp.workprec(work):
        bound = math.ceil(work * math.log(2) / (2 * math.pi * float(mpmath.im(tau)))) + 2
        q_mp = mpmath.expjpi(2 * tau)
        q = (int(mpmath.ldexp(q_mp.real, work)), int(mpmath.ldexp(q_mp.imag, work)))
        q2 = mul(q, q)
        lo, q_k, q_2k1 = q, q, mul(q2, q)  # q^(k(3k-1)/2), q^k, q^(2k+1) at k = 1
        re, im = 1 << work, 0
        k = 1
        while k * (3 * k - 1) // 2 <= bound:
            hi = mul(lo, q_k)  # q^(k(3k+1)/2)
            sign = -1 if k % 2 else 1
            re += sign * (lo[0] + hi[0])
            im += sign * (lo[1] + hi[1])
            lo = mul(hi, q_2k1)
            q_k = mul(q_k, q)
            q_2k1 = mul(q_2k1, q2)
            k += 1
        s = mpmath.mpc(mpmath.ldexp(re, -work), mpmath.ldexp(im, -work))
        return mpmath.expjpi(tau / 12) * s


def eta_num(tau: mpmath.mpc, prec: int) -> mpmath.mpc:
    """eta(tau), summed after moving tau toward the fundamental domain.

    T steps centre tau (|Re tau| <= 1/2) using eta(tau + n) = zeta24^n eta(tau);
    an S step, eta(tau) = eta(-1/tau) / sqrt(-i tau), follows only while
    |tau|^2 < 1/2, so each one at least doubles Im(tau) and the loop stops
    after at most log2(1/Im tau) + 1 of them, at Im(tau) >= 1/2.  (The
    textbook rule |tau| >= 1 would let rounding flip a point of the unit
    circle under S forever.)  The T shifts, mod 24, go back into the argument
    of the series, whose q is 1-periodic, so they cost no extra exponential.

    Error: truncation at the reduced point is below 2^-(prec+32) relative
    (there |sum - 1| < 0.05); with rounding, the total is about
    (S steps + 4K + 1) * 2^-(prec+32) relative, for K pentagonal pairs summed.
    """
    if mpmath.im(tau) <= 0:
        raise ValueError("eta needs Im(tau) > 0")
    with mp.workprec(prec + _GUARD_BITS):
        shift, scale = 0, 1
        while True:
            n = int(mpmath.nint(tau.real))
            tau -= n
            shift += n
            # a float test suffices: near |tau|^2 = 1/2 either choice keeps
            # the doubling of Im(tau) and the bound Im(tau) >= 1/2, to 1e-15
            if float(tau.real) ** 2 + float(tau.imag) ** 2 >= 0.5:
                break
            scale *= mpmath.sqrt(mpmath.mpc(tau.imag, -tau.real))  # sqrt(-i tau)
            tau = -1 / tau
        return _eta_series(tau + shift % 24, prec) / scale


def weber(tau: mpmath.mpc, which: str, prec: int) -> mpmath.mpc:
    """Weber f, f1, f2 as eta quotients at shifted/scaled arguments."""
    with mp.workprec(prec + _GUARD_BITS):
        if which == "f":
            zeta48_inv = mpmath.expjpi(mpmath.mpf(-1) / 24)
            return zeta48_inv * eta_num((tau + 1) / 2, prec) / eta_num(tau, prec)
        if which == "f1":
            return eta_num(tau / 2, prec) / eta_num(tau, prec)
        if which == "f2":
            return mpmath.sqrt(2) * eta_num(2 * tau, prec) / eta_num(tau, prec)
    raise ValueError(f"unknown Weber function {which!r}")


def gamma2_j(tau: mpmath.mpc, prec: int) -> tuple[mpmath.mpc, mpmath.mpc]:
    """gamma2 = (f^24 - 16) / f^8 and j = gamma2^3."""
    with mp.workprec(prec + _GUARD_BITS):
        f = weber(tau, "f", prec)
        f8 = f**8
        g2 = (f8**3 - 16) / f8
        return g2, g2**3


def hauptmodul_value(tag: str, tau: mpmath.mpc, prec: int) -> mpmath.mpc:
    """A Hauptmodul (u from Weber's f2, the rest from ETA_QUOTIENTS), gamma2 or j."""
    if tag == "u":
        with mp.workprec(prec + _GUARD_BITS):
            f24 = weber(tau, "f2", prec) ** 24
            return f24 / (f24 + 64) ** 2
    if tag in ETA_QUOTIENTS:
        exps, power = ETA_QUOTIENTS[tag]
        with mp.workprec(prec + _GUARD_BITS):
            eta = {m: eta_num(m * tau, prec) for m in exps}
            val = mpmath.mpc(1)
            for m, e in exps.items():  # numerator factors first
                for _ in range(abs(e)):
                    val = val * eta[m] if e > 0 else val / eta[m]
            return val**power
    if tag == "gamma2":
        return gamma2_j(tau, prec)[0]
    if tag == "j":
        return gamma2_j(tau, prec)[1]
    raise ValueError(f"unknown function tag {tag!r}")


@dataclass(frozen=True)
class CMTarget:
    name: str
    fn: str
    point: QuadraticPoint
    expected: Fraction


def cm_target(spec: CongruenceSpec) -> CMTarget | None:
    """The CM value a catalog row claims, or None for a row without a CM point."""
    if spec.tau is None:
        return None
    fn = _FAMILY_HAUPTMODUL[spec.sequence]
    point = QuadraticPoint(*spec.tau)
    return CMTarget(f"{fn}({point.label()})", fn, point, Fraction(HAUPTMODUL_SIGN[fn], spec.m))


def cm_table() -> list[CMTarget]:
    """Every exact CM value the catalog claims, once each, in catalog order.

    Rows that share a point and agree on m give one target; rows that
    disagree give two, and at least one of them fails certification."""
    return list(dict.fromkeys(t for t in map(cm_target, catalog()) if t is not None))


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    residual: float


def _certify(name: str, digits: int, work_digits: int | None, evaluate) -> CheckResult:
    """Check max(|Re v - expected|, |Im v|) < 10^-digits * min(1, |expected|)
    for (v, expected) = evaluate(prec), run at the working precision of
    work_digits digits.  The bound is relative below |expected| = 1, so a small
    value still agrees to `digits` significant digits; the reported residual
    is the absolute one."""
    if digits < 10:
        raise ValueError("digits must be >= 10")
    if work_digits is None:
        work_digits = max(digits + 20, 80)
    prec = int(work_digits * 3.33) + 8
    with mp.workprec(prec):
        val, expected = evaluate(prec)
        residual = max(abs(mpmath.re(val) - expected), abs(mpmath.im(val)))
        bound = mpmath.mpf(10) ** (-digits) * min(1, abs(expected))
        return CheckResult(name, residual < bound, float(residual))


def _cm_value(target: CMTarget, prec: int):
    val = hauptmodul_value(target.fn, target.point.to_mpc(prec), prec)
    return val, mpmath.mpf(target.expected.numerator) / target.expected.denominator


def cm_check(target: CMTarget, digits: int, work_digits: int | None = None) -> CheckResult:
    """Evaluate the target's function at its CM point and compare exactly."""
    return _certify(target.name, digits, work_digits, partial(_cm_value, target))


@dataclass(frozen=True)
class SurdValue:
    """(a + b*sqrt(d)) / den with integer a, b, d, den."""

    a: int
    b: int
    d: int
    den: int = 1

    def to_mpf(self, prec: int) -> mpmath.mpf:
        with mp.workprec(prec):
            return (self.a + self.b * mpmath.sqrt(self.d)) / self.den

    def __str__(self) -> str:
        return f"({self.a}+{self.b}*sqrt({self.d}))/{self.den}"


# Class invariants 2^(-1/4) f(sqrt(-n)) resp. 2^(-1/4) f1(sqrt(-n)); the
# listed power of each has the stated closed form.
CLASS_INVARIANTS = [
    ("G5", "f", 5, 4, SurdValue(1, 1, 5, 2)),
    ("G9", "f", 9, 6, SurdValue(2, 1, 3)),
    ("G13", "f", 13, 4, SurdValue(3, 1, 13, 2)),
    ("G25", "f", 25, 1, SurdValue(1, 1, 5, 2)),
    ("G37", "f", 37, 4, SurdValue(6, 1, 37)),
    ("g6", "f1", 6, 6, SurdValue(1, 1, 2)),
    ("g10", "f1", 10, 2, SurdValue(1, 1, 5, 2)),
    ("g18", "f1", 18, 6, SurdValue(5, 2, 6)),
    ("g22", "f1", 22, 2, SurdValue(1, 1, 2)),
    ("g58", "f1", 58, 2, SurdValue(5, 1, 29, 2)),
    ("g58^12", "f1", 58, 12, SurdValue(9801, 1820, 29)),
]


def _class_invariant(which: str, n: int, power: int, closed: SurdValue, prec: int):
    tau = mpmath.mpc(0, mpmath.sqrt(n))
    g = mpmath.mpf(2) ** mpmath.mpf("-0.25") * weber(tau, which, prec)
    return g**power, closed.to_mpf(prec)


def class_invariant_check(digits: int, work_digits: int | None = None) -> list[CheckResult]:
    return [_certify(f"{name}^{power}={closed}", digits, work_digits,
                     partial(_class_invariant, which, n, power, closed))
            for name, which, n, power, closed in CLASS_INVARIANTS]


# -- random-sample identity suite -------------------------------------------


def _random_tau(rng: random.Random) -> mpmath.mpc:
    return mpmath.mpc(rng.uniform(-0.9, 0.9), rng.uniform(0.6, 1.6))


def _random_gamma0_4(rng: random.Random) -> tuple[int, int, int, int]:
    while True:
        c = 4 * rng.randint(1, 6)
        a = rng.randrange(1, 4 * c, 2)
        if math.gcd(a, c) == 1:
            break
    d = pow(a, -1, c)
    b = (a * d - 1) // c
    return a, b, c, d


def _random_sl2(rng: random.Random) -> tuple[int, int, int, int]:
    while True:
        c = rng.randint(1, 8)
        a = rng.randint(-10, 10)
        if a and math.gcd(a, c) == 1:
            break
    d = pow(a, -1, c)
    b = (a * d - 1) // c
    return a, b, c, d


def _eta_mult_gamma0_4(a: int, b: int, c: int, d: int, tau, prec):
    """Right-hand side of the eta transformation on Gamma_0(4)."""
    from .arith import jacobi

    r = 0
    c0 = c
    while c0 % 2 == 0:
        c0 //= 2
        r += 1
    expo = (
        a * b
        + c * d * (1 - a * a)
        - c * a
        + 3 * c0 * (a - 1)
        + r * 3 * (a * a - 1) // 2
    ) % 24  # zeta24^24 = 1; unreduced, expo reaches about 10^7
    with mp.workprec(prec + _GUARD_BITS):
        zeta24 = mpmath.expjpi(mpmath.mpf(1) / 12)
        return jacobi(a, c0) * zeta24**expo * mpmath.sqrt(c * tau + d) * eta_num(tau, prec)


def identity_suite(samples: int, prec: int, seed: int = 12345) -> list[CheckResult]:
    """Numeric checks of the transformation and Weber-function identities.

    Runs `samples` random draws per identity and reports the worst residual;
    all residuals must sit far below 2^(-prec/2).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if prec < 64:
        raise ValueError("prec must be >= 64: the tolerance 2^(-prec/2) would mean nothing")
    rng = random.Random(seed)
    worst: dict[str, float] = {}

    def note(name: str, residual) -> None:
        worst[name] = max(worst.get(name, 0.0), float(residual))

    with mp.workprec(prec + _GUARD_BITS):
        zeta24 = mpmath.expjpi(mpmath.mpf(1) / 12)
        zeta48_inv = mpmath.expjpi(mpmath.mpf(-1) / 24)
        omega = (-1 + mpmath.sqrt(-3)) / 2
        sqrt2 = mpmath.sqrt(2)
        for _ in range(samples):
            tau = _random_tau(rng)
            e_tau = eta_num(tau, prec)
            note("eta-shift", abs(eta_num(tau + 1, prec) - zeta24 * e_tau))
            note(
                "eta-inversion",
                abs(eta_num(-1 / tau, prec) - mpmath.sqrt(-1j * tau) * e_tau),
            )
            a, b, c, d = _random_gamma0_4(rng)
            lhs = eta_num((a * tau + b) / (c * tau + d), prec)
            note("eta-gamma0(4)", abs(lhs - _eta_mult_gamma0_4(a, b, c, d, tau, prec)))

            f = weber(tau, "f", prec)
            f1 = weber(tau, "f1", prec)
            f2 = weber(tau, "f2", prec)
            note("f*f1*f2=sqrt2", abs(f * f1 * f2 - sqrt2))
            note("f1(2t)f2(t)=sqrt2", abs(weber(2 * tau, "f1", prec) * f2 - sqrt2))
            inv_tau = -1 / tau
            note("f(-1/t)=f(t)", abs(weber(inv_tau, "f", prec) - f))
            note("f1(-1/t)=f2(t)", abs(weber(inv_tau, "f1", prec) - f2))
            note("f2(-1/t)=f1(t)", abs(weber(inv_tau, "f2", prec) - f1))
            note("f(t+1)=z48^-1 f1", abs(weber(tau + 1, "f", prec) - zeta48_inv * f1))

            # conjugation symmetry at tau = x + i*y
            x = rng.uniform(-1.5, 1.5)
            y = rng.uniform(0.6, 1.8)
            for which in ("f", "f1", "f2"):
                left = mpmath.conj(weber(mpmath.mpc(x, y), which, prec))
                right = weber(mpmath.mpc(-x, y), which, prec)
                note("conjugation", abs(left - right))

            # -f^8, f1^8, f2^8 are the roots of X^3 - gamma2 X + 16
            g2, _ = gamma2_j(tau, prec)
            x0, x1, x2 = -(f**8), f1**8, f2**8
            note("cubic-sum", abs(x0 + x1 + x2))
            note("cubic-product", abs(x0 * x1 * x2 + 16))
            note("cubic-pairsum", abs(x0 * x1 + x0 * x2 + x1 * x2 + g2))

            a, b, c, d = _random_sl2(rng)
            g2m, _ = gamma2_j((a * tau + b) / (c * tau + d), prec)
            expo = (a * c - a * b + a * a * c * d - c * d) % 3
            note("gamma2-transform", abs(g2m - omega**expo * g2))

        # fixed-point facts
        note("f1(sqrt-2)^2", abs(weber(mpmath.mpc(0, mpmath.sqrt(2)), "f1", prec) ** 2 - sqrt2))
        g2_7, _ = gamma2_j(mpmath.mpc(0, mpmath.sqrt(7)), prec)
        note("gamma2(sqrt-7)=255", abs(g2_7 - 255))
        tau7 = mpmath.mpc(0, mpmath.sqrt(7))
        roots = sorted(
            [
                mpmath.re(-weber(tau7, "f", prec) ** 8),
                mpmath.re(weber(tau7, "f1", prec) ** 8),
                mpmath.re(weber(tau7, "f2", prec) ** 8),
            ]
        )
        root7 = 3 * mpmath.sqrt(7)
        expected = sorted([mpmath.mpf(-16), 8 - root7, 8 + root7])
        note("cubic-roots(sqrt-7)", max(abs(r - e) for r, e in zip(roots, expected)))

        tol = mpmath.mpf(2) ** (-(prec // 2))
        return [CheckResult(name, worst[name] < tol, worst[name]) for name in sorted(worst)]
