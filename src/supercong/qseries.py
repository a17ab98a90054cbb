"""Truncated q-expansions with exact integer coefficients.

A QSeries is q^(off24/24) * sum(coeffs[i] * q^i); offsets are kept as integer
multiples of 1/24, which is exactly the granularity eta quotients need.
Every series here is integral, so coefficients are ints and a division whose
quotient is not integral raises ArithmeticError.  Arithmetic is exact, and
truncation is pessimistic (an operation's result is only as long as it is
provably correct).

On top of the core algebra: the eta expansion, the six Hauptmoduls
t/u/s/w/v/h with their alternative product
constructions, and the identity checks the verification suite runs (the six
generating-function identities, the cubic relation between t and j(2tau),
and the third-order differential equation of the V generating function,
which is V's RECURRENCES row in s = -x).  Every Hauptmodul but u and its
paired weight-2 form are eta quotients prod eta(m tau)^(e_m), each stated
once as an exponent vector in ETA_QUOTIENTS or WEIGHT2_FORMS; highprec
evaluates the same table.  u is X / G^4 here, X = eta(tau)^8 eta(2tau)^8
over the fourth power of its paired weight-2 form G = 2E2(2tau) - E2(tau),
but Weber's f2^24 / (f2^24 + 64)^2 in highprec.  The duals of u, s and w
are q times (1+q^e) products, each an exponent vector in DUAL_PRODUCTS; u's,
h / (1 + 64 h)^2 of h = q prod (1+q^n)^24 = f2^24 / 2^12, ties the two.
Every infinite product, from an eta or a (1+q^e) exponent vector, is one
Euler-product recurrence, n c_n = sum s_k c_(n-k), never factor by factor,
and u's G is the logarithmic derivative s of the eta quotient h.

A generating-function identity sum a_n x(q)^n = G(q) is checked without
composing.  The family's row of sequences.RECURRENCES is the operator

    L = theta^3 - x P(theta) + e x^2 (theta + 1)^3,        theta = x d/dx,

with P from the coefficients Recurrence.p, and f(x) = sum a_n x^n is its
only power-series solution with f(0) = 1, since x = 0 is a point of maximal
unipotent monodromy: L x^m = m^3 x^m + O(x^(m+1)).  Pulled back along
x(q) = +-q + ... (Y. Yang, Math. Z. 2004), G = f(x(q)) through q^N exactly
when G_0 = 1 and L_q G vanishes through q^N, and the first nonzero
coefficient of L_q G sits at the first mismatch.  The check divides by
nothing: theta_x = (A/B) theta_q with A = 1 and B = theta_q x / x for an eta
quotient (the logarithmic derivative its Euler product is built from), and
A = G, B = G (theta_q X / X) - 4 theta_q G for u = X / G^4.  Then
theta_x^k G = N_k / B^(2k-1) with N_1 = A theta G and N_(k+1) =
A (B theta N_k - (2k-1) theta B N_k), and B^5 L_q G (for u also times G^8,
so that x enters as X) is a polynomial in N_k, B and x.  Every multiplier
is 1 + O(q), so the first nonzero coefficient does not move.  u's x is built
from the G under test, but its coefficient of q^k depends only on G below
q^k, so a G wrong first at q^k still fails at q^k.  That costs about a dozen
products of series of length N+1, whose coefficients have at most 164 bits
at N = 200 (t itself; 147 for u), instead of the N powers of x that
composing needs.  The same call proves, by sequences.certify (a Zeilberger
certificate, checked once per process), that the defining sums obey the
recurrence at every n, so the statement proved is still about the sums and
no sum is taken; `compose`, built in the ring, stays as the
literal-definition oracle.  The t-j relation and the dual constructions are
compared by `agreement`, and every check states the last exponent it
compared.

Every product of two series is one big-integer product by Kronecker
substitution (Harvey, J. Symbolic Comput. 44, 2009): each operand packed into
fixed-width slots of one integer, the low slots of the product unpacked.
Every slot is as wide as the widest coefficient, so where widths grow along
the series (the powers that `compose` takes) it packs more bits than the
Cauchy sum would multiply; the tests keep that sum as the oracle.
"""

from __future__ import annotations

from math import perm
from operator import mul
from typing import NamedTuple

from .sequences import RECURRENCES, SequenceId, certify

def _slot_bytes(width: int, n: int) -> int:
    """The fewest bytes per slot that hold a coefficient c_k of the product
    and its sign: c_k has at most n terms, each below 2^width, so
    |c_k| < 2^(width + n.bit_length())."""
    return (width + n.bit_length() + 8) // 8


def _kronecker_product(a: list[int], b: list[int], slot: int) -> list[int]:
    """The first n = len(a) = len(b) coefficients of the product, by Kronecker
    substitution: each operand is evaluated at X = 2^(8 slot) by packing its
    coefficients, offset by X/2, into slots of one integer; one big-integer
    product, the offset put back, and the low n slots unpacked.  Exact while
    every |c_k| < X/2 (see _slot_bytes)."""
    n = len(a)
    if not n:
        return []
    half = 1 << (8 * slot - 1)
    offset = int.from_bytes(half.to_bytes(slot, "little") * n, "little")  # sum X^i X/2

    def pack(coeffs: list[int]) -> int:
        return int.from_bytes(b"".join([(c + half).to_bytes(slot, "little") for c in coeffs]),
                              "little") - offset

    low = (pack(a) * pack(b) + offset) & ((1 << (8 * slot * n)) - 1)
    buf = low.to_bytes(slot * n, "little")
    return [int.from_bytes(buf[i:i + slot], "little") - half for i in range(0, slot * n, slot)]


class QSeries:
    __slots__ = ("off24", "coeffs")

    def __init__(self, off24: int, coeffs: list[int]):
        self.off24 = off24
        self.coeffs = coeffs

    # -- structure ---------------------------------------------------------

    @property
    def length(self) -> int:
        return len(self.coeffs)

    def coeff_at(self, exponent: int) -> int:
        """Coefficient of q^exponent for integer-offset series (0 below the offset)."""
        if self.off24 % 24:
            raise ValueError("coeff_at needs an integral leading exponent")
        n = exponent - self.off24 // 24
        if n < 0:
            return 0
        if n >= len(self.coeffs):
            raise IndexError(f"coefficient q^{exponent} beyond truncation {len(self.coeffs)}")
        return self.coeffs[n]

    def truncate(self, length: int) -> "QSeries":
        return QSeries(self.off24, self.coeffs[:length])

    def shift24(self, amount: int) -> "QSeries":
        """Multiply by the exact monomial q^(amount/24)."""
        return QSeries(self.off24 + amount, self.coeffs)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        return f"QSeries(q^({self.off24}/24) * [{head}, ...], len={len(self.coeffs)})"

    # -- ring operations ----------------------------------------------------

    def __neg__(self) -> "QSeries":
        return QSeries(self.off24, [-c for c in self.coeffs])

    def scale(self, factor) -> "QSeries":
        return QSeries(self.off24, [c * factor for c in self.coeffs])

    def __add__(self, other: "QSeries") -> "QSeries":
        diff = other.off24 - self.off24
        if diff < 0:
            return other + self
        if diff % 24:
            raise ValueError("offsets differ by a non-integral q-power; cannot add")
        shift = diff // 24
        n = min(len(self.coeffs), shift + len(other.coeffs))
        out = list(self.coeffs[:n])
        for i, c in enumerate(other.coeffs):
            j = i + shift
            if j >= n:
                break
            out[j] = out[j] + c
        return QSeries(self.off24, out)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def add_const(self, value) -> "QSeries":
        """Add an exact constant; kept exact, so truncation does not shrink."""
        if self.off24 % 24:
            raise ValueError("cannot add a constant to a fractional-offset series")
        n = self.off24 // 24 + len(self.coeffs)  # exponents 0 .. n-1 are known
        if n <= 0:
            raise ValueError("constant lies beyond the known truncation")
        return self + QSeries(0, [value] + [0] * (n - 1))

    def __mul__(self, other: "QSeries") -> "QSeries":
        """Product c_k = sum_{i<=k} a_i b_(k-i), as long as the shorter factor,
        by Kronecker substitution in slots wide enough for the widest c_k."""
        n = min(len(self.coeffs), len(other.coeffs))
        a, b = self.coeffs[:n], other.coeffs[:n]
        width = max(map(int.bit_length, a), default=0) + max(map(int.bit_length, b), default=0)
        return QSeries(self.off24 + other.off24, _kronecker_product(a, b, _slot_bytes(width, n)))

    def __truediv__(self, other: "QSeries") -> "QSeries":
        """Quotient as long as the shorter operand, c_i = (a_i - sum_{1<=j<=i} b_j
        c_(i-j)) / b_0; raises ArithmeticError where some c_i is not an integer."""
        a, b = self.coeffs, other.coeffs
        if not b or not b[0]:
            raise ZeroDivisionError("division by a series with zero leading coefficient")
        out: list[int] = []
        for i in range(min(len(a), len(b))):
            quot, rem = divmod(a[i] - sum(map(mul, b[i:0:-1], out)), b[0])
            if rem:
                raise ArithmeticError(f"quotient is not integral at q^{i} of the truncation")
            out.append(quot)
        return QSeries(self.off24 - other.off24, out)

    def __pow__(self, e: int) -> "QSeries":
        if e < 0:
            raise ValueError(f"negative exponent {e}; divide by the power instead")
        if e == 0:
            return QSeries(0, [1] + [0] * (len(self.coeffs) - 1))
        result = None  # binary powering that starts from the base, not from 1
        base = self
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    def theta(self) -> "QSeries":
        """q d/dq, for series with an integral leading exponent."""
        if self.off24 % 24:
            raise ValueError("theta needs an integral leading exponent")
        off = self.off24 // 24
        return QSeries(self.off24, [(off + i) * c for i, c in enumerate(self.coeffs)])

    def first_nonzero(self) -> int | None:
        """Index (from the offset) of the first nonzero known coefficient."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None


class Agreement(NamedTuple):
    """A check's outcome: the first exponent at which its two sides differ,
    or None, and the last exponent that was compared."""

    mismatch: int | None
    through: int


def agreement(a: QSeries, b: QSeries) -> Agreement:
    """Compare a and b (integer series only) at every exponent both know;
    raises ValueError where they know no exponent in common."""
    d = a - b
    if d.off24 % 24:
        raise ValueError("comparison needs integral offsets")
    if not d.length:
        raise ValueError("the series share no known exponent")
    off, i = d.off24 // 24, d.first_nonzero()
    return Agreement(None if i is None else off + i, off + d.length - 1)


def first_mismatch(a: QSeries, b: QSeries) -> int | None:
    """First q-exponent (integer series only) where a and b disagree."""
    return agreement(a, b).mismatch


def eta_q(mult: int, nterms: int) -> QSeries:
    """Expansion of eta(mult*tau): q^(mult/24) times its Euler product."""
    if mult < 1 or nterms < 1:
        raise ValueError("eta_q needs mult >= 1 and nterms >= 1")
    return eta_quotient_q({mult: 1}, nterms)


def _euler_product(s: list[int]) -> list[int]:
    """c_0 = 1, n c_n = sum_{k<=n} s_k c_(n-k) for n < len(s): F = exp(sum s_k q^k / k),
    as is any product prod (1 -+ q^k)^(a_k), s read off its logarithmic derivative.
    Raises ArithmeticError when some c_n is not an integer."""
    c = [1]
    for n in range(1, len(s)):
        cn, rem = divmod(sum(map(mul, s[1:n + 1], reversed(c))), n)
        if rem:
            raise ArithmeticError(f"Euler product is not integral at q^{n}")
        c.append(cn)
    return c


def _eta_log_derivative(exps: dict[int, int], nterms: int) -> list[int]:
    """s_k, k < nterms, of theta log prod eta(m tau)^(e_m) = sum_m e_m m/24 +
    sum_k s_k q^k, as theta log eta(m tau) = m/24 - m sum_{j>=1} sigma(j) q^(m j)."""
    s = [0] * nterms
    for m, e in exps.items():
        for step in range(m, nterms, m):  # step = m d: s_k gets -e m d for each d | k/m
            for k in range(step, nterms, step):
                s[k] -= e * step
    return s


def one_plus_q_product(factors: dict[tuple[int, int], int], nterms: int) -> QSeries:
    """prod over factors' entries (step, start): power of
    prod_{n>=1} (1 + q^(start + (n-1)*step))^power, truncated, for any integer
    powers: one Euler product, as theta log (1 + q^e) = sum_j (-1)^(j+1) e q^(e j)."""
    s = [0] * nterms
    for (step, start), power in factors.items():
        for e in range(start, nterms, step):
            for j, k in enumerate(range(e, nterms, e)):
                s[k] += -power * e if j % 2 else power * e
    return QSeries(0, _euler_product(s))


def compose(outer: list, inner: QSeries) -> QSeries:
    """sum_n outer[n] * inner^n, for inner = c*q^j + ... with integral j >= 1.

    Built in the ring: each power of inner is cut to the exponents below
    len(inner) + j, through which the result is correct.
    """
    if inner.off24 % 24 or inner.off24 <= 0:
        raise ValueError("composition needs an inner series q^j + ... with integer j >= 1")
    j = inner.off24 // 24
    nterms = len(inner.coeffs) + j  # exponents 0 .. len+j-1
    total = QSeries(0, [outer[0] if outer else 0] + [0] * (nterms - 1))
    power = inner  # inner^n, exponents n*j .. nterms - 1
    for a in outer[1:]:
        if a:
            total = total + power.scale(a)
        keep = nterms - power.off24 // 24 - j  # coefficients of inner^(n+1) below nterms
        if keep <= 0:
            break
        power = power.truncate(keep) * inner.truncate(keep)
    return total


# -- Hauptmoduls and generating-function identities -------------------------


# Hauptmodul tag -> ({m: e_m}, power): the Hauptmodul is
# (prod eta(m tau)^(e_m))^power, numerator factors listed first.  u is not an
# eta-quotient power but one over the fourth power of its weight-2 form
# (hauptmodul_q).
ETA_QUOTIENTS = {
    "t": ({1: 1, 4: 1, 2: -2}, 24),
    "s": ({4: 1, 1: -1}, 8),
    "w": ({1: 1, 8: 1, 2: -1, 4: -1}, 8),
    "v": ({1: 1, 3: 1, 4: 1, 12: 1, 2: -2, 6: -2}, 6),
    "h": ({1: 1, 6: 1, 2: -1, 3: -1}, 12),
}

# Hauptmodul tag -> {(step, start): power}: its dual construction is q times
# one_plus_q_product of the vector, for u that of h = f2^24 / 2^12 in h / (1 + 64 h)^2.
DUAL_PRODUCTS = {"u": {(1, 1): 24}, "s": {(1, 1): 8, (2, 2): 8}, "w": {(4, 4): 8, (1, 1): -8}}

# Hauptmodul tag -> {m: e_m} of the paired weight-2 form; u's is _u_weight2_q.
WEIGHT2_FORMS = {
    "t": {2: 20, 1: -8, 4: -8},
    "s": {1: 8, 2: -4},
    "w": {2: 6, 4: 6, 1: -4, 8: -4},
    "v": {2: 10, 6: 10, 1: -4, 3: -4, 4: -4, 12: -4},
    "h": {2: 7, 3: 7, 1: -5, 6: -5},
}

# pairing of hauptmoduls with sequence families
HAUPTMODUL_SEQUENCE = {
    "t": SequenceId.CB3,
    "u": SequenceId.CB4,
    "s": SequenceId.V,
    "w": SequenceId.T,
    "v": SequenceId.D,
    "h": SequenceId.A,
}

# the family's generating function composes into x = sign * Hauptmodul: V into -s
HAUPTMODUL_SIGN = {"t": 1, "u": 1, "s": -1, "w": 1, "v": 1, "h": 1}


def eta_quotient_q(exps: dict[int, int], nterms: int) -> QSeries:
    """prod eta(m tau)^(e_m): q^(sum e_m m / 24) times an Euler product."""
    return QSeries(sum(m * e for m, e in exps.items()),
                   _euler_product(_eta_log_derivative(exps, nterms)))


def weber_f_2tau_pow24_q(nterms: int) -> QSeries:
    """f(2*tau)^24 = q^-1 prod (1+q^(2n-1))^24."""
    return one_plus_q_product({(2, 1): 24}, nterms).shift24(-24)


def _eta_exps(tag: str) -> dict[int, int]:
    """{m: e_m} of the Hauptmodul's eta quotient; for u = X / G^4, that of X."""
    if tag == "u":
        return {1: 8, 2: 8}
    if tag not in ETA_QUOTIENTS:
        raise ValueError(f"unknown hauptmodul tag {tag!r}")
    exps, power = ETA_QUOTIENTS[tag]
    return {m: power * e for m, e in exps.items()}


def hauptmodul_q(tag: str, nterms: int) -> QSeries:
    """Canonical construction; all six are q + O(q^2)."""
    if nterms < 2:
        raise ValueError("need at least 2 terms")
    x = eta_quotient_q(_eta_exps(tag), nterms)
    return x / _u_weight2_q(nterms) ** 4 if tag == "u" else x


def hauptmodul_alt_q(tag: str, nterms: int) -> QSeries:
    """Independent second construction, where one is stated: q times the Euler
    product of the tag's DUAL_PRODUCTS vector, for u then h / (1 + 64h)^2 of it."""
    if tag not in DUAL_PRODUCTS:
        raise ValueError(f"no alternative construction for {tag!r}")
    x = one_plus_q_product(DUAL_PRODUCTS[tag], nterms).shift24(24)
    return x / (x.scale(64).add_const(1) ** 2) if tag == "u" else x


def _u_weight2_q(nterms: int) -> QSeries:
    """u's weight-2 form 2E2(2tau) - E2(tau) = theta log eta(2tau)^24 / eta(tau)^24."""
    return QSeries(0, [1] + _eta_log_derivative({2: 24, 1: -24}, nterms)[1:])


def genfun_rhs_q(tag: str, nterms: int) -> QSeries:
    """Stated weight-2 form equal to the composed generating function."""
    if tag == "u":
        return _u_weight2_q(nterms)
    if tag not in WEIGHT2_FORMS:
        raise ValueError(f"unknown hauptmodul tag {tag!r}")
    return eta_quotient_q(WEIGHT2_FORMS[tag], nterms)


def _pullback(tag: str, g: QSeries) -> tuple[QSeries, QSeries | None, QSeries, QSeries | None]:
    """(X, A, B, D), as long as g, with x = X/D the Hauptmodul paired with tag,
    times its sign, and theta_x = (A/B) theta_q; None stands for 1.

    An eta quotient x has A = 1 and B = theta_q x / x = 1 + sum s_k q^k, the
    logarithmic derivative its Euler product is built from.  u = X/G^4, with
    X = eta(tau)^8 eta(2tau)^8 and G = g the weight-2 form, has A = G,
    B = G (theta_q X / X) - 4 theta_q G and D = G^4.  A, B and D all start
    with 1, for u when G does."""
    s = _eta_log_derivative(_eta_exps(tag), g.length)
    x = QSeries(24, _euler_product(s))
    b = QSeries(0, [1] + s[1:])
    if tag != "u":
        return x.scale(HAUPTMODUL_SIGN[tag]), None, b, None
    return x, g, g * b - g.theta().scale(4), g ** 4


def genfun_identity(tag: str, nterms: int) -> Agreement:
    """Check sum a_n x^n = G, the paired family in the Hauptmodul, exactly.

    Applies the family's recurrence operator, pulled back to q and cleared of
    denominators, to the stated weight-2 form G (see the module docstring),
    and compares the result with 0 through q^nterms; a G that does not start
    with 1 fails at q^0.  For u, x = X/G^4 is built from the same G, whose
    one fixed point the check then tests (see the module docstring).  Raises
    ArithmeticError when sequences.certify cannot prove that the defining
    sums obey the recurrence.
    """
    if nterms < 10:
        raise ValueError("nterms must be >= 10")
    seq = HAUPTMODUL_SEQUENCE[tag]
    certify(seq)
    g = genfun_rhs_q(tag, nterms + 1)
    if g.coeff_at(0) != 1:
        return Agreement(0, 0)
    x, a, b, den = _pullback(tag, g)
    # theta_x^k G = N_k / B^(2k-1): N_1 = A theta G,
    # N_(k+1) = A (B theta N_k - (2k-1) theta B N_k)
    tb = b.theta()
    nk = [g.theta() if a is None else a * g.theta()]
    for k in (1, 2):
        step = b * nk[-1].theta() - (tb * nk[-1]).scale(2 * k - 1)
        nk.append(step if a is None else a * step)
    n1, n2, n3 = nk
    b2, bg = b * b, b * g

    def cleared(c0: int, c1: int, c2: int, c3: int) -> QSeries:
        """B^5 (c3 theta_x^3 + c2 theta_x^2 + c1 theta_x + c0) G."""
        return n3.scale(c3) + b2 * (n2.scale(c2) + b2 * (n1.scale(c1) + bg.scale(c0)))

    # B^5 L_q G = N_3 - x B^5 P(theta_x) G + e x^2 B^5 (theta_x + 1)^3 G, a
    # polynomial in x = X/D; multiplied by D^deg, by Horner in X
    e = RECURRENCES[seq].e
    parts = [n3, -cleared(*RECURRENCES[seq].p)]
    if e:
        parts.append(cleared(1, 3, 3, 1).scale(e))
    lg = parts[-1]
    for j in range(len(parts) - 2, -1, -1):
        lg = x * lg + (parts[j] if den is None else parts[j] * den ** (len(parts) - 1 - j))
    if lg.off24 != 0 or lg.length <= nterms:
        raise ArithmeticError(f"L_q G for {tag!r} does not cover q^0..q^{nterms}")
    lg = lg.truncate(nterms + 1)
    return Agreement(lg.first_nonzero(), lg.length - 1)


def genfun_identity_check(tag: str, nterms: int) -> int | None:
    """genfun_identity's first mismatching exponent, None through q^nterms:
    the exponent alone, as perfbench's job reads it."""
    return genfun_identity(tag, nterms).mismatch


def j_2tau_q(nterms: int) -> QSeries:
    """j(2*tau) = (F - 16)^3 / F with F = f(2*tau)^24; starts q^-2 + 744 + ..."""
    f24 = weber_f_2tau_pow24_q(nterms)
    return (f24.add_const(-16) ** 3) / f24


def t_j_relation(nterms: int) -> Agreement:
    """(16 t - 1)^3 = -j(2tau) t^2 identically, compared through q^(nterms+3).

    t comes from the eta quotient, j(2tau) from the Weber product, so the two
    routes genuinely cross-check each other.
    """
    if nterms < 10:
        raise ValueError("nterms must be >= 10")
    pad = nterms + 4
    t = hauptmodul_q("t", pad)
    j2 = j_2tau_q(pad)
    if j2.coeff_at(-2) != 1 or j2.coeff_at(-1) != 0 or j2.coeff_at(0) != 744:
        raise ArithmeticError("j(2*tau) expansion head is wrong; build is broken")
    return agreement(t.scale(16).add_const(-1) ** 3, -(j2 * t * t))


def t_j_relation_check(nterms: int) -> int | None:
    """t_j_relation's first exponent at which the two sides differ, or None:
    the exponent alone, as perfbench's job reads it."""
    return t_j_relation(nterms).mismatch


# The ODE of Y(s) = sum V_n (-s)^n that v_ode_check states: the polynomial
# coefficients (ascending in s) of Y, Y', Y'' and Y'''.
V_ODE = ([8, 256], [1, 112, 1792], [0, 3, 144, 1536], [0, 0, 1, 32, 256])


def v_ode(nterms: int) -> Agreement:
    """Third-order ODE for Y(s) = sum V_n (-s)^n, cleared of denominators:

        s^2 (16s+1)^2 Y''' + 3 s (32s+1)(16s+1) Y''
            + (1792 s^2 + 112 s + 1) Y' + 8 (32s+1) Y = 0,

    stated as V_ODE.  Its left side times s is the operator of V's
    RECURRENCES row pulled back to s = -x,

        theta^3 + s P(theta) + e s^2 (theta + 1)^3,        theta = s d/ds,

    and that operator's coefficient of s^(n+1) is, up to sign, the recurrence
    at n.  So the ODE is checked in two steps.  First the identity of the two
    operators, compared on s^0..s^11: each is a sum of s^i times a cubic in
    theta, so s^0..s^3 already fix it, and it holds for every n; raises
    ArithmeticError when it fails.  Then sequences.certify proves the row on
    the defining sums at every n, or raises.  So the ODE holds at every
    degree, and the row states the degrees 0..nterms.
    """
    if nterms < 10:
        raise ValueError("nterms must be >= 10")
    rec = RECURRENCES[SequenceId.V]
    for k in range(12):
        ode = {}  # s * V_ODE applied to s^k, by power of s
        for j, poly in enumerate(V_ODE):
            for i, coef in enumerate(poly):
                ode[k - j + 1 + i] = ode.get(k - j + 1 + i, 0) + perm(k, j) * coef
        row = {k: k**3, k + 1: rec.P(k), k + 2: rec.e * (k + 1) ** 3}
        if {pw: v for pw, v in ode.items() if v} != {pw: v for pw, v in row.items() if v}:
            raise ArithmeticError(f"s * V_ODE is not V's recurrence operator on s^{k}")
    certify(SequenceId.V)
    return Agreement(None, nterms)


def v_ode_check(nterms: int) -> int | None:
    """v_ode's first failing degree <= nterms, or None: the degree alone, as
    perfbench's job reads it."""
    return v_ode(nterms).mismatch
