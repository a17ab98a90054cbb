"""Arbitrary-precision evaluation of eta, the Weber functions, gamma2 and
the six Hauptmoduls at points of the upper half-plane.

Every function takes the working precision in bits explicitly.  Hauptmoduls
other than u are evaluated from qseries.ETA_QUOTIENTS, the eta-exponent table
the exact layer expands.  CM points are carried exactly (rational + rational
multiple of sqrt(-D)) and realized to floating point only at evaluation time.
The CM targets are the congruence catalog's own: a row with CM point tau and
denominator m claims x(tau) = sign/m for its family's Hauptmodul x and
qseries.HAUPTMODUL_SIGN.
The eta kernel works on Gaussian fixed-point integers from its input to its
output.  It first moves tau toward the fundamental domain:
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

The kernel returns a Gaussian binary value: a tuple (re, im, exp) of
integers standing for (re + i im) * 2^exp.  eta_num converts it to one mpc;
everything else keeps it in this form up to the verdict.  The Weber
functions, gamma2 and the Hauptmoduls are products and quotients of such
values, and each product or quotient rounds its mantissa once, by flooring
it to prec + 32 bits of its larger part (a relative error below
2^-(prec+30)); the exponent is carried apart, so the error stays relative at
any tau, however large or small the value.  The sums of the identities are
exact; the sums with a constant in u and gamma2 are exact and rounded once.
mpmath stays at the edges: it converts tau and the arguments made from it,
and computes the constants (roots of unity, sqrt(2), sqrt(7)) and the
multipliers sqrt(-i tau) and sqrt(c tau + d), each converted exactly to a
binary value.

hauptmodul_value is the one numeric entry point: the six Hauptmoduls and
the Weber functions f and f1 of the class invariants, converted to mpc once,
at its end.
Each call, and each identity_suite call, makes one evaluator (_Eta), which
memoises the kernel on the exact argument and binds zeta48^-1 (on first use)
and sqrt(2) once.  CM rows report the residual that their check bounds,
relative below |expected| = 1, or the rounding bound of the working precision
where the residual falls below it.  Identity residuals are relative to the
sides compared and exact: |l - r|^2 / max(|l|^2, |r|^2) is a ratio of
integers, compared exactly with the squared tolerance; only each identity's
worst ratio is rounded, to the square root its row reports, and identity
rows state the rounding bound as CM rows do.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial

import mpmath
from mpmath import mp
from mpmath.libmp import from_man_exp, fzero, round_nearest, to_fixed
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
    while True:  # bound >= 3, so k = 1 is always summed
        hi = _gmul(lo, q_k, work)  # q^(k(3k+1)/2)
        sign = -1 if k % 2 else 1
        total_re += sign * (lo[0] + hi[0])
        total_im += sign * (lo[1] + hi[1])
        k += 1
        if k * (3 * k - 1) // 2 > bound:  # no step past the last pair summed
            break
        lo = _gmul(hi, q_2k1, work)
        q_k = _gmul(q_k, q, work)
        q_2k1 = _gmul(q_2k1, q2, work)
    return _gmul(x, (total_re, total_im), work), n - work


def _eta_kernel(tau: mpmath.mpc, prec: int) -> tuple[int, int, int]:
    """eta(tau) as a Gaussian binary value (re, im, exp), summed after moving
    tau toward the fundamental domain, in Gaussian fixed point throughout.

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
    exponential.  x * sum / multiplier is formed in integers, a mantissa of
    about work + 4 bits, whatever the caller's mp.prec is.

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
    return out_re, out_im, exp - scale_exp - work - 4


def eta_num(tau: mpmath.mpc, prec: int) -> mpmath.mpc:
    """eta(tau): the kernel's value, converted to one mpc of prec + 32 bits."""
    return _to_mpc(_eta_kernel(tau, prec), prec + _GUARD_BITS)


# -- Gaussian binary values: (re, im, exp) stands for (re + i im) * 2^exp ------


def _to_mpc(z: tuple[int, int, int], wp: int) -> mpmath.mpc:
    """z rounded to nearest at wp bits."""
    re, im, exp = z
    return mp.make_mpc((from_man_exp(re, exp, wp, round_nearest),
                        from_man_exp(im, exp, wp, round_nearest)))


def _from_mpmath(z, bits: int) -> tuple[int, int, int]:
    """An mpf or mpc as a binary value, exact unless one part reaches below
    2^-(2 bits) of the larger, which is then cut there."""
    parts = z._mpc_ if isinstance(z, mpmath.mpc) else (z._mpf_, fzero)
    live = [p for p in parts if p[1]]
    if not live:
        return 0, 0, 0
    exp = max(min(p[2] for p in live), max(p[2] + p[3] for p in live) - 2 * bits)
    return to_fixed(parts[0], -exp), to_fixed(parts[1], -exp), exp


def _mag(z) -> int:
    """The bit length of the larger part of a mantissa."""
    return max(abs(z[0]), abs(z[1])).bit_length()


def _rounded(re: int, im: int, exp: int, bits: int) -> tuple[int, int, int]:
    """(re + i im) * 2^exp with its mantissa floored to `bits` bits of its larger part."""
    drop = max(abs(re), abs(im)).bit_length() - bits
    if drop <= 0:
        return re, im, exp
    return re >> drop, im >> drop, exp + drop


def _bmul(a, b, bits: int) -> tuple[int, int, int]:
    """a * b, its mantissa rounded once."""
    re, im = _gmul(a, b, 0)
    return _rounded(re, im, a[2] + b[2], bits)


def _bdiv(a, b, bits: int) -> tuple[int, int, int]:
    """a / b by one floored division per part, scaled by 2^shift so that the
    quotient keeps bits + 1 to bits + 4 bits."""
    shift = bits + 2 + _mag(b) - _mag(a)
    if shift >= 0:
        re, im = _gdiv(a, b, shift)
    else:
        re, im = _gdiv(a, (b[0] << -shift, b[1] << -shift), 0)
    return re, im, a[2] - b[2] - shift


def _bpow(z, n: int, bits: int) -> tuple[int, int, int]:
    """z^n for n >= 1 by squaring, each product rounded once."""
    out = z
    for bit in bin(n)[3:]:
        out = _bmul(out, out, bits)
        if bit == "1":
            out = _bmul(out, z, bits)
    return out


def _bsum(*terms) -> tuple[int, int, int]:
    """The exact sum of binary values."""
    exp = min(t[2] for t in terms)
    return (sum(t[0] << (t[2] - exp) for t in terms),
            sum(t[1] << (t[2] - exp) for t in terms), exp)


def _neg(z) -> tuple[int, int, int]:
    return -z[0], -z[1], z[2]


def _ratio(diff, *sides) -> tuple[int, int]:
    """|diff|^2 / max |side|^2, exactly, as a pair of integers (num, den)."""
    exp = min(z[2] for z in (diff, *sides))

    def norm(z) -> int:
        return (z[0] * z[0] + z[1] * z[1]) << (2 * (z[2] - exp))

    return norm(diff), max(map(norm, sides))


class _Eta:
    """The eta kernel at one precision, with the Weber functions and gamma2
    on its binary values.

    Made per numeric call: it binds sqrt(2) once and zeta48^-1 on first use,
    each at prec + guard bits whatever the caller's mp.prec, and memoises the
    kernel on the exact argument, so each distinct point is evaluated once
    per call.  Values are Gaussian binary values (re, im, exp); each product
    and quotient rounds its mantissa once, to `bits` = prec + 32 bits.

        f = zeta48^-1 eta((tau + 1)/2) / eta(tau)      f1 = eta(tau/2) / eta(tau)
        f2 = sqrt(2) eta(2 tau) / eta(tau)              gamma2 = (f^24 - 16) / f^8

    At the points identity_suite draws (Im(tau) down to about 10^-3), f, f1
    and f2 come within 2^-(prec+20) relative of their exact values, and
    gamma2 within 2^-(prec+16) * (|f|^16 + 16 |f|^-8), the size of its terms:
    the kernel's error, up to about 4/Im(tau) * 2^-(prec+32), and a few
    roundings of 2^-(prec+31), times 24 in f^24.  The tests hold them to
    these bounds against mpc quotients at prec + 64.
    """

    def __init__(self, prec: int):
        self.prec = prec
        self.bits = prec + _GUARD_BITS
        self.memo: dict[tuple, tuple[int, int, int]] = {}
        with mp.workprec(self.bits):
            self.sqrt2 = _from_mpmath(mpmath.sqrt(2), self.bits)

    @cached_property
    def zeta48_inv(self) -> tuple[int, int, int]:
        """zeta48^-1, computed on first use: f and gamma2 read it, f1 and f2 do not."""
        with mp.workprec(self.bits):
            return _from_mpmath(mpmath.expjpi(mpmath.mpf(-1) / 24), self.bits)

    def __call__(self, tau: mpmath.mpc) -> tuple[int, int, int]:
        key = tau._mpc_
        if key not in self.memo:
            self.memo[key] = _eta_kernel(tau, self.prec)
        return self.memo[key]

    def weber(self, tau: mpmath.mpc, which: str) -> tuple[int, int, int]:
        """Weber f, f1, f2 as eta quotients at shifted and scaled arguments."""
        bits = self.bits
        if which == "f":
            return _bmul(self.zeta48_inv, _bdiv(self((tau + 1) / 2), self(tau), bits), bits)
        if which == "f1":
            return _bdiv(self(tau / 2), self(tau), bits)
        return _bmul(self.sqrt2, _bdiv(self(2 * tau), self(tau), bits), bits)

    def gamma2(self, tau: mpmath.mpc) -> tuple[int, int, int]:
        """gamma2 = (f^24 - 16) / f^8, the cube root of j."""
        f8 = _bpow(self.weber(tau, "f"), 8, self.bits)
        f24 = _bpow(f8, 3, self.bits)
        return _bdiv(_rounded(*_bsum(f24, (-16, 0, 0)), self.bits), f8, self.bits)


def hauptmodul_value(tag: str, tau: mpmath.mpc, prec: int) -> mpmath.mpc:
    """A Hauptmodul (u from Weber's f2, the rest from ETA_QUOTIENTS) or the
    Weber function f or f1 of the class invariants, from one evaluator,
    converted to mpc once, at the end."""
    with mp.workprec(prec + _GUARD_BITS):
        eta = _Eta(prec)
        bits = eta.bits
        if tag == "u":
            f24 = _bpow(eta.weber(tau, "f2"), 24, bits)
            value = _bdiv(f24, _bpow(_rounded(*_bsum(f24, (64, 0, 0)), bits), 2, bits), bits)
        elif tag in ETA_QUOTIENTS:
            exps, power = ETA_QUOTIENTS[tag]
            value = (1, 0, 0)
            for m, e in exps.items():  # numerator factors first
                factor = eta(m * tau)
                for _ in range(abs(e)):
                    value = _bmul(value, factor, bits) if e > 0 else _bdiv(value, factor, bits)
            value = _bpow(value, power, bits)
        elif tag in ("f", "f1"):
            value = eta.weber(tau, tag)
        else:
            raise ValueError(f"unknown function tag {tag!r}")
        return _to_mpc(value, bits)


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
    mpf, states it in whole digits at any precision (None when not given).
    `at_floor`: the residual fell below the rounding bound of the working
    precision, and `residual` and `digits` state that bound, which the true
    residual does not exceed."""

    name: str
    ok: bool
    residual: float
    digits: int | None = None
    at_floor: bool = False


def _checked(name: str, ok: bool, residual: mpmath.mpf, at_floor: bool = False) -> CheckResult:
    digits = int(mpmath.floor(-mpmath.log10(residual)))
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


def _eta_mult_gamma0_4(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """The multiplier eta((a tau + b)/(c tau + d)) / eta(tau) on Gamma_0(4) is
    sign * zeta24^k * sqrt(c tau + d); returns (sign, k)."""
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
    return jacobi(a, c0), expo


def _gamma2_mult(a: int, b: int, c: int, d: int) -> int:
    """The multiplier gamma2((a tau + b)/(c tau + d)) / gamma2(tau) on SL(2, Z)
    is omega^k, omega = zeta24^8; returns k."""
    return (a * c - a * b + a * a * c * d - c * d) % 3


def identity_suite(samples: int, prec: int, seed: int = 12345) -> list[CheckResult]:
    """Numeric checks of the transformation and Weber-function identities.

    Runs `samples` random draws per identity.  Both sides of each comparison
    are Gaussian binary values, and the residual |l - r|^2 / max(|l|^2, |r|^2)
    is an exact ratio of integers, compared exactly with the squared
    tolerance 2^(-2 (prec // 2)): every residual must sit below 2^(-prec/2).
    Each identity keeps its worst ratio, and only that is rounded, to the
    square root its row reports.  The values carry prec + 32 bits, so a
    residual below 2^-prec measures guard bits, down to an exact 0, not
    agreement: as in a CM row, such a row reports the bound 2^-prec and is
    marked at_floor.  One evaluator serves the call, so each distinct point's
    eta is evaluated once per call.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if prec < 64:
        raise ValueError("prec must be >= 64: the tolerance 2^(-prec/2) would mean nothing")
    rng = random.Random(seed)
    bits = prec + _GUARD_BITS
    worst: dict[str, tuple[int, int]] = {}

    def mul(*factors):
        out = factors[0]
        for z in factors[1:]:
            out = _bmul(out, z, bits)
        return out

    def note_ratio(name: str, num: int, den: int) -> None:
        old = worst.get(name)
        if old is None or num * old[1] > old[0] * den:
            worst[name] = num, den

    def note(name: str, left, right) -> None:
        note_ratio(name, *_ratio(_bsum(left, _neg(right)), left, right))

    def value(z):
        return _from_mpmath(z, bits)

    with mp.workprec(bits):
        eta = _Eta(prec)
        weber, sqrt2 = eta.weber, eta.sqrt2
        zeta24 = mpmath.expjpi(mpmath.mpf(1) / 12)
        zeta24_powers = [mpmath.mpc(1)]
        for _ in range(23):
            zeta24_powers.append(zeta24_powers[-1] * zeta24)
        zeta24_powers = [value(z) for z in zeta24_powers]
        omega_powers = zeta24_powers[::8]  # omega = zeta24^8
        for _ in range(samples):
            tau = _random_tau(rng)
            e_tau = eta(tau)
            inv_tau = -1 / tau
            note("eta-shift", eta(tau + 1), mul(zeta24_powers[1], e_tau))
            note("eta-inversion", eta(inv_tau), mul(value(mpmath.sqrt(-1j * tau)), e_tau))
            a, b, c, d = _random_gamma0_4(rng)
            sign, k = _eta_mult_gamma0_4(a, b, c, d)
            root = value(sign * mpmath.sqrt(c * tau + d))
            note("eta-gamma0(4)", eta((a * tau + b) / (c * tau + d)),
                 mul(zeta24_powers[k], root, e_tau))

            f = weber(tau, "f")
            f1 = weber(tau, "f1")
            f2 = weber(tau, "f2")
            note("f*f1*f2=sqrt2", mul(f, f1, f2), sqrt2)
            note("f1(2t)f2(t)=sqrt2", mul(weber(2 * tau, "f1"), f2), sqrt2)
            note("f(-1/t)=f(t)", weber(inv_tau, "f"), f)
            note("f1(-1/t)=f2(t)", weber(inv_tau, "f1"), f2)
            note("f2(-1/t)=f1(t)", weber(inv_tau, "f2"), f1)
            note("f(t+1)=z48^-1 f1", weber(tau + 1, "f"), mul(eta.zeta48_inv, f1))

            # conjugation symmetry at tau = x + i*y
            x = rng.uniform(-1.5, 1.5)
            y = rng.uniform(0.6, 1.8)
            for which in ("f", "f1", "f2"):
                re, im, exp = weber(mpmath.mpc(x, y), which)
                note("conjugation", (re, -im, exp), weber(mpmath.mpc(-x, y), which))

            # -f^8, f1^8, f2^8 are the roots of X^3 - gamma2 X + 16
            g2 = eta.gamma2(tau)
            x0, x1, x2 = _neg(_bpow(f, 8, bits)), _bpow(f1, 8, bits), _bpow(f2, 8, bits)
            # the right-hand side is 0, so the size is the largest root
            note_ratio("cubic-sum", *_ratio(_bsum(x0, x1, x2), x0, x1, x2))
            note("cubic-product", mul(x0, x1, x2), (-16, 0, 0))
            note("cubic-pairsum", _bsum(mul(x0, x1), mul(x0, x2), mul(x1, x2)), _neg(g2))

            a, b, c, d = _random_sl2(rng)
            g2m = eta.gamma2((a * tau + b) / (c * tau + d))
            note("gamma2-transform", g2m, mul(omega_powers[_gamma2_mult(a, b, c, d)], g2))

        # fixed-point facts
        root2 = mpmath.sqrt(2)
        note("f1(sqrt-2)^2", _bpow(weber(mpmath.mpc(0, root2), "f1"), 2, bits), sqrt2)
        tau7 = mpmath.mpc(0, mpmath.sqrt(7))
        note("gamma2(sqrt-7)=255", eta.gamma2(tau7), (255, 0, 0))
        roots = [_neg(_bpow(weber(tau7, "f"), 8, bits)),
                 _bpow(weber(tau7, "f1"), 8, bits), _bpow(weber(tau7, "f2"), 8, bits)]
        roots = sorted(((re, 0, exp) for re, _, exp in roots),
                       key=lambda z: Fraction(z[0]) * Fraction(2) ** z[2])
        root7 = 3 * mpmath.sqrt(7)
        for r, e in zip(roots, [(-16, 0, 0), value(8 - root7), value(8 + root7)]):
            note("cubic-roots(sqrt-7)", r, e)

        tol_bits, floor = 2 * (prec // 2), mpmath.ldexp(1, -prec)
        rows = []
        for name in sorted(worst):
            num, den = worst[name]
            at_floor = num << (2 * prec) < den  # below the bound 2^-prec
            residual = floor if at_floor else mpmath.sqrt(mpmath.mpf(num) / den)
            rows.append(_checked(name, num << tol_bits < den, residual, at_floor))
        return rows
