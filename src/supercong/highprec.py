"""Arbitrary-precision evaluation of eta, the Weber functions, gamma2/j and
the six Hauptmoduls at points of the upper half-plane.

Values are mpmath complex numbers; every function takes the working precision
in bits explicitly.  Hauptmoduls other than u are evaluated from
qseries.ETA_QUOTIENTS, the eta-exponent table the exact layer expands.  CM
points are carried exactly (rational + rational multiple of sqrt(-D)) and
realized to floating point only at evaluation time.  The CM targets are the
congruence catalog's own: a row with CM point tau and denominator m claims
x(tau) = sign/m for its family's Hauptmodul x and qseries.HAUPTMODUL_SIGN.
eta_num works on Gaussian fixed-point integers from its input to its one
conversion back to mpc.  It first moves tau toward the fundamental domain:
T steps centre it, and an S step, carrying the multiplier 1/sqrt(-i tau),
follows only while |tau|^2 < 1/2, so every S step at least doubles Im(tau)
and the reduced point has Im(tau) >= 1/2.  The pentagonal series is then
summed there, from one exponential x = e^(pi i tau/12) and q = x^24, and
truncated from a per-point tail bound: with |q| = exp(-2*pi*Im(tau)), terms
beyond |q|^E < 2^-(prec+guard) cannot move the result at working precision.
Truncation and rounding together stay near (S steps + 4K + 7) * 2^-(prec+32)
relative, for K pentagonal pairs (K <= 6 at prec 256, <= 12 at prec 1024;
one more only below Im(tau) = 10^-6), plus up to about 4/Im(tau) *
2^-(prec+32) below Im(tau) = 1 from rounding the reduced argument; the
fixed-point argument carries about log2(1/Im tau) extra bits to keep that
so next to tau = 0.

hauptmodul_value is the one numeric entry point: the six Hauptmoduls, the
Weber functions f, f1, f2, gamma2 and j.  Each call, and each identity_suite
call, makes one evaluator (_Eta), which memoises eta_num on the exact
argument and binds zeta48^-1 (on first use) and sqrt(2) once.  CM rows
report the residual that their check bounds, relative below |expected| = 1,
or the rounding bound of the working precision where the residual falls
below it; identity residuals are relative to the sides compared, kept
squared against the squared tolerance, and take one square root per
identity, for the report.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial

import mpmath
from mpmath import mp
from mpmath.libmp import from_man_exp, round_nearest, to_fixed
from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed, ln2_fixed, pi_fixed

from .arith import jacobi
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


def _gmul(a, b, work: int) -> tuple[int, int]:
    """The product of two Gaussian fixed-point numbers (re, im) / 2^work, from
    three integer products."""
    rr, ii = a[0] * b[0], a[1] * b[1]
    return (rr - ii) >> work, ((a[0] + a[1]) * (b[0] + b[1]) - rr - ii) >> work


def _gdiv(a, b, shift: int) -> tuple[int, int]:
    """a / b * 2^shift for Gaussian integers a, b: one floored division per part."""
    norm = b[0] * b[0] + b[1] * b[1]
    return (((a[0] * b[0] + a[1] * b[1]) << shift) // norm,
            ((a[1] * b[0] - a[0] * b[1]) << shift) // norm)


def _s_factor(re: int, im: int, work: int) -> tuple[int, int]:
    """sqrt(-i tau) for tau = (re + i im) / 2^work with im > 0, in fixed point.

    -i tau = im - i re has positive real part, so its principal root is
    u + i v with u = sqrt((|tau| + im) / 2), a sum without cancellation, and
    v = -re / (2u).  |tau| is taken to 2^-(2 work), so that u is good to an
    ulp even where |tau| is a few ulps."""
    r = math.isqrt((re * re + im * im) << (2 * work))
    u = math.isqrt((r + (im << work)) >> 1)
    return u, (-re << work) // (2 * u)


def _reduce(re: int, im: int, work: int):
    """T and S steps on tau = (re + i im) / 2^work until |tau|^2 >= 1/2.

    Returns the reduced (re, im), the sum of the T shifts and the product of
    the S multipliers sqrt(-i tau) as a Gaussian integer times 2^scale_exp.
    The product is renormalised to work + 2 bits after each step, so it stays
    relative however small it gets."""
    one = 1 << work
    shift, scale, scale_exp = 0, (one, 0), -work
    while True:
        n = (re + (one >> 1)) >> work  # the integer nearest Re(tau)
        re -= n << work
        shift += n
        if 2 * (re * re + im * im) >= one * one:
            return re, im, shift, scale, scale_exp
        s = _s_factor(re, im, work)
        p = _gmul(scale, s, 0)
        drop = max(abs(p[0]), abs(p[1])).bit_length() - work - 2
        scale, scale_exp = (p[0] >> drop, p[1] >> drop), scale_exp + drop - work
        re, im = _gdiv((-one, 0), (re, im), work)  # -1/tau


def _eta_series(re: int, im: int, work: int) -> tuple[tuple[int, int], int]:
    """eta(tau) = x * sum_k (-1)^k q^(k(3k-1)/2), x = e^(pi i tau/12), q = x^24,
    at tau = (re + i im) / 2^work itself, with the tail bound read off at
    Im(tau).  Returns x * sum as a Gaussian integer times 2^exp.

    x comes from mpmath's fixed-point kernels as 2^n * e^r * (cos + i sin)
    with pi Im(tau) / 12 = -n ln 2 - r and r in [0, ln 2), so its mantissa
    keeps every bit however small |x| is: a plain fixed-point x would lose
    log2(1/|x|) bits, all of them once Im(tau) passes 12 ln(2) work / pi
    (about 760 at prec 256).  q = x^24 takes five products of the mantissa
    (x^2, x^4, x^8, x^16, x^16 x^8) and a shift by 24n, and the pentagonal
    powers q^(k(3k-1)/2) and q^(k(3k+1)/2) are stepped by running products
    with q^k and q^(2k+1), four multiplications per k and no powers.  Every
    power of q has modulus below 1, so each product adds at most about
    2^-work absolute error.  This is eta_num's series and, called on an
    unreduced tau, the tests' oracle.
    """
    # pi carries the integer bits of Im(tau) as well, so that pi Im(tau) / 12
    # is exact to about 2^-work however far up tau is
    lift = max(0, im.bit_length() - work)
    pi = pi_fixed(work + lift)
    ln2 = ln2_fixed(work)
    n, r = divmod(-((pi * im) >> (work + lift)) // 12, ln2)
    mag = exp_fixed(r, work, ln2)
    cos, sin = cos_sin_fixed(((pi >> lift) * re >> work) // 12, work)
    x = ((mag * cos) >> work, (mag * sin) >> work)
    x2 = _gmul(x, x, work)
    x4 = _gmul(x2, x2, work)
    x8 = _gmul(x4, x4, work)
    q = _gmul(_gmul(x8, x8, work), x8, work)
    q = (q[0] >> (-24 * n), q[1] >> (-24 * n))
    # |q| = 2^(-bits) with bits = 2 pi Im(tau) / ln 2; |q|^E < 2^-work from E on
    bound = math.ceil(work / (24 * (-n - r / ln2))) + 2
    q2 = _gmul(q, q, work)
    lo, q_k, q_2k1 = q, q, _gmul(q2, q, work)  # q^(k(3k-1)/2), q^k, q^(2k+1) at k = 1
    total_re, total_im = 1 << work, 0
    k = 1
    while k * (3 * k - 1) // 2 <= bound:
        hi = _gmul(lo, q_k, work)  # q^(k(3k+1)/2)
        sign = -1 if k % 2 else 1
        total_re += sign * (lo[0] + hi[0])
        total_im += sign * (lo[1] + hi[1])
        lo = _gmul(hi, q_2k1, work)
        q_k = _gmul(q_k, q, work)
        q_2k1 = _gmul(q_2k1, q2, work)
        k += 1
    return _gmul(x, (total_re, total_im), work), n - work


def eta_num(tau: mpmath.mpc, prec: int) -> mpmath.mpc:
    """eta(tau), summed after moving tau toward the fundamental domain, in
    Gaussian fixed point from the input to the one conversion of the result.

    tau is converted once, to (re + i im) / 2^work with work = prec + 32 +
    max(0, -mag) bits, where Im(tau) < 2^mag <= 2 Im(tau).  The extra bits,
    about log2(1/Im tau) >= log2(1/|tau|), make up for rounding tau in
    absolute rather than relative terms, and keep im >= 2^(prec+31), so
    that no step can round tau onto the real line.
    T steps centre tau (|Re tau| <= 1/2) using eta(tau + n) = zeta24^n eta(tau);
    an S step, eta(tau) = eta(-1/tau) / sqrt(-i tau), follows only while
    |tau|^2 < 1/2 (an exact test on the integers), so each one at least
    doubles Im(tau) and the loop stops after at most log2(1/Im tau) + 1 of
    them, at Im(tau) >= 1/2.  (The textbook rule |tau| >= 1 would let
    rounding flip a point of the unit circle under S forever.)  -1/tau takes
    one integer division per part, the multiplier one math.isqrt for each of
    |tau| and its real part.  The T shifts, mod 24, go back into the
    argument of the series, whose q is 1-periodic, so they cost no extra
    exponential.  x * sum / multiplier is formed in integers and converted to
    one mpc of prec + 32 bits, whatever the caller's mp.prec is.

    Error: truncation at the reduced point is below 2^-(prec+32) relative
    (there |sum - 1| < 0.05); with rounding, the total is about
    (S steps + 4K + 7) * 2^-(prec+32) relative, for K pentagonal pairs summed,
    x, the five products that make q, the product with x and the division by
    the multiplier.  The argument adds its own: the converted tau and each
    -1/tau are rounded by 2^-work <= 2 Im(tau) * 2^-(prec+32), and the S
    steps after them scale that by up to Im(reduced)/Im(tau), so the reduced
    point is off by a few Im(reduced) * 2^-(prec+32), and eta by about as
    much relative.  After an S step Im(reduced) <= 1/Im(tau), which keeps
    this within 4/Im(tau) * 2^-(prec+32): at 10^-5 + 3*10^-6 i and prec 256,
    one S step to Im 27,500, the error is 2^-276 against the bound's 2^-267.7.
    """
    sign, man, man_exp, bits = tau.imag._mpf_  # Im(tau) = (-1)^sign man 2^man_exp
    if sign or not man:
        raise ValueError("eta needs Im(tau) > 0")
    work = prec + _GUARD_BITS + max(0, -(man_exp + bits))
    re, im, shift, scale, scale_exp = _reduce(
        to_fixed(tau.real._mpf_, work), to_fixed(tau.imag._mpf_, work), work)
    value, exp = _eta_series(re + ((shift % 24) << work), im, work)
    out_re, out_im = _gdiv(value, scale, work + 4)
    exp -= scale_exp + work + 4
    wp = prec + _GUARD_BITS
    return mp.make_mpc((from_man_exp(out_re, exp, wp, round_nearest),
                        from_man_exp(out_im, exp, wp, round_nearest)))


class _Eta:
    """eta_num at one precision, with the Weber functions and gamma2 on it.

    Made per numeric call, inside that call's mp.workprec(prec + guard): it
    binds sqrt(2) there once and zeta48^-1 on first use, and memoises eta on
    the exact argument, so each distinct point is evaluated once per call.
    eta_num fixes its own working precision, so a shared value is bit for bit
    the one a second evaluation would give; a miss looks eta_num up anew."""

    def __init__(self, prec: int):
        self.prec = prec
        self.memo: dict[mpmath.mpc, mpmath.mpc] = {}
        self.sqrt2 = mpmath.sqrt(2)

    @cached_property
    def zeta48_inv(self) -> mpmath.mpc:
        """zeta48^-1, computed on first use: only f, gamma2 and j read it."""
        with mp.workprec(self.prec + _GUARD_BITS):
            return mpmath.expjpi(mpmath.mpf(-1) / 24)

    def __call__(self, tau: mpmath.mpc) -> mpmath.mpc:
        if tau not in self.memo:
            self.memo[tau] = eta_num(tau, self.prec)
        return self.memo[tau]

    def weber(self, tau: mpmath.mpc, which: str) -> mpmath.mpc:
        """Weber f, f1, f2 as eta quotients at shifted and scaled arguments."""
        if which == "f":
            return self.zeta48_inv * self((tau + 1) / 2) / self(tau)
        if which == "f1":
            return self(tau / 2) / self(tau)
        return self.sqrt2 * self(2 * tau) / self(tau)

    def gamma2(self, tau: mpmath.mpc) -> mpmath.mpc:
        """gamma2 = (f^24 - 16) / f^8, the cube root of j."""
        f8 = self.weber(tau, "f") ** 8
        return (f8**3 - 16) / f8


def hauptmodul_value(tag: str, tau: mpmath.mpc, prec: int) -> mpmath.mpc:
    """A Hauptmodul (u from Weber's f2, the rest from ETA_QUOTIENTS), a Weber
    function f, f1 or f2, gamma2 or j, from one evaluator."""
    with mp.workprec(prec + _GUARD_BITS):
        eta = _Eta(prec)
        if tag == "u":
            f24 = eta.weber(tau, "f2") ** 24
            return f24 / (f24 + 64) ** 2
        if tag in ETA_QUOTIENTS:
            exps, power = ETA_QUOTIENTS[tag]
            val = mpmath.mpc(1)
            for m, e in exps.items():  # numerator factors first
                factor = eta(m * tau)
                for _ in range(abs(e)):
                    val = val * factor if e > 0 else val / factor
            return val**power
        if tag in ("f", "f1", "f2"):
            return eta.weber(tau, tag)
        if tag == "gamma2":
            return eta.gamma2(tau)
        if tag == "j":
            return eta.gamma2(tau) ** 3
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
    """One numeric check.  `residual` is the float of the residual, which
    underflows below 1e-308; `digits`, floor(-log10 residual) taken from the
    mpf, states it in whole digits at any precision (None for an exact zero
    or when not given).  `at_floor`: the residual fell below the rounding
    bound of the working precision, and `residual` and `digits` state that
    bound, which the true residual does not exceed."""

    name: str
    ok: bool
    residual: float
    digits: int | None = None
    at_floor: bool = False


def _checked(name: str, ok: bool, residual: mpmath.mpf, at_floor: bool = False) -> CheckResult:
    digits = int(mpmath.floor(-mpmath.log10(residual))) if residual else None
    return CheckResult(name, ok, float(residual), digits, at_floor)


def _certify(name: str, digits: int, evaluate) -> CheckResult:
    """Check r = max(|Re v - expected|, |Im v|) / min(1, |expected|) < 10^-digits
    for (v, expected) = evaluate(prec), run at a working precision of
    max(digits + 20, 80) digits.  r is relative below |expected| = 1, so a
    small value still agrees to `digits` significant digits.  The row reports
    r, or the rounding bound 2^-prec of the working precision where r falls
    below it: a smaller r, down to an exact 0, measures guard bits and
    binary-exact points, not agreement."""
    if digits < 10:
        raise ValueError("digits must be >= 10")
    prec = int(max(digits + 20, 80) * 3.33) + 8
    with mp.workprec(prec):
        val, expected = evaluate(prec)
        residual = max(abs(mpmath.re(val) - expected), abs(mpmath.im(val))) / min(1, abs(expected))
        ok = residual < mpmath.mpf(10) ** (-digits)
        floor = mpmath.ldexp(1, -prec)
        return _checked(name, ok, max(residual, floor), residual < floor)


def _cm_value(target: CMTarget, prec: int):
    val = hauptmodul_value(target.fn, target.point.to_mpc(prec), prec)
    return val, mpmath.mpf(target.expected.numerator) / target.expected.denominator


def cm_check(target: CMTarget, digits: int) -> CheckResult:
    """Evaluate the target's function at its CM point and compare exactly."""
    return _certify(target.name, digits, partial(_cm_value, target))


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
    g = mpmath.mpf(2) ** mpmath.mpf("-0.25") * hauptmodul_value(which, tau, prec)
    return g**power, closed.to_mpf(prec)


def class_invariant_check(digits: int) -> list[CheckResult]:
    return [_certify(f"{name}^{power}={closed}", digits,
                     partial(_class_invariant, which, n, power, closed))
            for name, which, n, power, closed in CLASS_INVARIANTS]


# -- random-sample identity suite -------------------------------------------


def _random_tau(rng: random.Random) -> mpmath.mpc:
    return mpmath.mpc(rng.uniform(-0.9, 0.9), rng.uniform(0.6, 1.6))


def _sl2(a: int, c: int) -> tuple[int, int, int, int]:
    """The matrix (a b; c d) of SL(2, Z) with d = a^-1 mod c."""
    d = pow(a, -1, c)
    return a, (a * d - 1) // c, c, d


def _random_gamma0_4(rng: random.Random) -> tuple[int, int, int, int]:
    while True:
        c = 4 * rng.randint(1, 6)
        a = rng.randrange(1, 4 * c, 2)
        if math.gcd(a, c) == 1:
            return _sl2(a, c)


def _random_sl2(rng: random.Random) -> tuple[int, int, int, int]:
    while True:
        c = rng.randint(1, 8)
        a = rng.randint(-10, 10)
        if a and math.gcd(a, c) == 1:
            return _sl2(a, c)


def _eta_mult_gamma0_4(a: int, b: int, c: int, d: int, tau, zeta24_powers):
    """The multiplier eta((a tau + b)/(c tau + d)) / eta(tau) on Gamma_0(4);
    zeta24_powers[k] is zeta24^k."""
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
    return jacobi(a, c0) * zeta24_powers[expo] * mpmath.sqrt(c * tau + d)


def _norm(z) -> mpmath.mpf:
    """|z|^2 of an int, mpf or mpc, without a square root."""
    return z.real * z.real + z.imag * z.imag


def _residual(diff, *sides) -> mpmath.mpf:
    """|diff|^2 over the largest |side|^2: the squared residual relative to
    the sides compared."""
    return _norm(diff) / max(map(_norm, sides))


def identity_suite(samples: int, prec: int, seed: int = 12345) -> list[CheckResult]:
    """Numeric checks of the transformation and Weber-function identities.

    Runs `samples` random draws per identity and reports the worst residual,
    relative to the larger side of each comparison; all residuals must sit
    far below 2^(-prec/2).  Residuals are kept squared and compared with the
    squared tolerance, and each identity takes one square root, for its row.
    One evaluator serves the call, so each distinct point's eta is evaluated
    once per call.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if prec < 64:
        raise ValueError("prec must be >= 64: the tolerance 2^(-prec/2) would mean nothing")
    rng = random.Random(seed)
    worst: dict[str, mpmath.mpf] = {}

    def note(name: str, left, right) -> None:
        worst[name] = max(worst.get(name, 0), _residual(left - right, left, right))

    with mp.workprec(prec + _GUARD_BITS):
        eta = _Eta(prec)
        weber, sqrt2 = eta.weber, eta.sqrt2
        zeta24 = mpmath.expjpi(mpmath.mpf(1) / 12)
        zeta24_powers = [mpmath.mpc(1)]
        for _ in range(23):
            zeta24_powers.append(zeta24_powers[-1] * zeta24)
        omega = (-1 + mpmath.sqrt(-3)) / 2
        for _ in range(samples):
            tau = _random_tau(rng)
            e_tau = eta(tau)
            inv_tau = -1 / tau
            note("eta-shift", eta(tau + 1), zeta24 * e_tau)
            note("eta-inversion", eta(inv_tau), mpmath.sqrt(-1j * tau) * e_tau)
            a, b, c, d = _random_gamma0_4(rng)
            note("eta-gamma0(4)", eta((a * tau + b) / (c * tau + d)),
                 _eta_mult_gamma0_4(a, b, c, d, tau, zeta24_powers) * e_tau)

            f = weber(tau, "f")
            f1 = weber(tau, "f1")
            f2 = weber(tau, "f2")
            note("f*f1*f2=sqrt2", f * f1 * f2, sqrt2)
            note("f1(2t)f2(t)=sqrt2", weber(2 * tau, "f1") * f2, sqrt2)
            note("f(-1/t)=f(t)", weber(inv_tau, "f"), f)
            note("f1(-1/t)=f2(t)", weber(inv_tau, "f1"), f2)
            note("f2(-1/t)=f1(t)", weber(inv_tau, "f2"), f1)
            note("f(t+1)=z48^-1 f1", weber(tau + 1, "f"), eta.zeta48_inv * f1)

            # conjugation symmetry at tau = x + i*y
            x = rng.uniform(-1.5, 1.5)
            y = rng.uniform(0.6, 1.8)
            for which in ("f", "f1", "f2"):
                left = mpmath.conj(weber(mpmath.mpc(x, y), which))
                note("conjugation", left, weber(mpmath.mpc(-x, y), which))

            # -f^8, f1^8, f2^8 are the roots of X^3 - gamma2 X + 16
            g2 = eta.gamma2(tau)
            x0, x1, x2 = -(f**8), f1**8, f2**8
            # the right-hand side is 0, so the size is the largest root
            cubic_sum = _residual(x0 + x1 + x2, x0, x1, x2)
            worst["cubic-sum"] = max(worst.get("cubic-sum", 0), cubic_sum)
            note("cubic-product", x0 * x1 * x2, -16)
            note("cubic-pairsum", x0 * x1 + x0 * x2 + x1 * x2, -g2)

            a, b, c, d = _random_sl2(rng)
            g2m = eta.gamma2((a * tau + b) / (c * tau + d))
            expo = (a * c - a * b + a * a * c * d - c * d) % 3
            note("gamma2-transform", g2m, omega**expo * g2)

        # fixed-point facts
        note("f1(sqrt-2)^2", weber(mpmath.mpc(0, sqrt2), "f1") ** 2, sqrt2)
        tau7 = mpmath.mpc(0, mpmath.sqrt(7))
        note("gamma2(sqrt-7)=255", eta.gamma2(tau7), 255)
        roots = sorted(
            [
                mpmath.re(-weber(tau7, "f") ** 8),
                mpmath.re(weber(tau7, "f1") ** 8),
                mpmath.re(weber(tau7, "f2") ** 8),
            ]
        )
        root7 = 3 * mpmath.sqrt(7)
        expected = sorted([mpmath.mpf(-16), 8 - root7, 8 + root7])
        for r, e in zip(roots, expected):
            note("cubic-roots(sqrt-7)", r, e)

        tol2 = mpmath.mpf(2) ** (-2 * (prec // 2))
        return [_checked(name, worst[name] < tol2, mpmath.sqrt(worst[name]))
                for name in sorted(worst)]
