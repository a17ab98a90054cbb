"""Truncated q-expansions with exact integer coefficients.

A QSeries is q^(off24/24) * sum(coeffs[i] * q^i); offsets are kept as integer
multiples of 1/24, which is exactly the granularity eta quotients need.
Every series here is integral, so coefficients are ints and a division whose
quotient is not integral raises ArithmeticError.  Arithmetic is exact, and
truncation is pessimistic (an operation's result is only as long as it is
provably correct).

On top of the core algebra: the eta expansion, the weight-2 Eisenstein
series, the six Hauptmoduls t/u/s/w/v/h with their alternative product
constructions, and the identity checks the verification suite runs (the six
generating-function identities, the cubic relation between t and j(2tau),
and the third-order differential equation of the V generating function,
which is V's RECURRENCES row in s = -x).  Every Hauptmodul but u and its
paired weight-2 form are eta quotients prod eta(m tau)^(e_m), each stated
once as an exponent vector in ETA_QUOTIENTS or WEIGHT2_FORMS; highprec
evaluates the same table.  Eta quotients and (1+q^e) products come from one
Euler-product recurrence, n c_n = sum s_k c_(n-k), never factor by factor, and
E2(m tau) is (24/m) times the logarithmic derivative s of eta(m tau).

A generating-function identity sum a_n x(q)^n = G(q) is checked without
composing.  The family's row of sequences.RECURRENCES is the operator

    L = theta^3 - c x (2 theta + 1)(alpha theta^2 + alpha theta + beta)
        + e x^2 (theta + 1)^3,        theta = x d/dx,

and f(x) = sum a_n x^n is its only power-series solution with f(0) = 1,
since x = 0 is a point of maximal unipotent monodromy: L x^m = m^3 x^m +
O(x^(m+1)).  Pulled back along x(q) = +-q + ..., theta_x = (x / theta_q x)
theta_q, so G = f(x(q)) through q^N exactly when G_0 = 1 and L_q G vanishes
through q^N, and the first nonzero coefficient of L_q G sits at the first
mismatch.  That costs one division and five products of length N+1 instead
of the N powers of x that composing needs.  The same call checks, by
sequences.recurrence_break, that the defining sums obey the recurrence, so
the statement proved is still about the sums; `compose` stays as the
literal-definition oracle.  The t-j relation and the dual constructions are
compared by first_mismatch.
"""

from __future__ import annotations

from operator import mul

from .sequences import RECURRENCES, SequenceId, exact_terms, recurrence_break


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
        """Cauchy product, c_k = sum_{i<=k} a_i b_(k-i), as long as the shorter factor."""
        n = min(len(self.coeffs), len(other.coeffs))
        a, b = self.coeffs, other.coeffs
        out = [sum(map(mul, a, b[k::-1])) for k in range(n)]
        return QSeries(self.off24 + other.off24, out)

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


def first_mismatch(a: QSeries, b: QSeries) -> int | None:
    """First q-exponent (integer series only) where a and b disagree."""
    d = a - b
    i = d.first_nonzero()
    if i is None:
        return None
    if d.off24 % 24:
        raise ValueError("comparison needs integral offsets")
    return d.off24 // 24 + i


def eta_q(mult: int, nterms: int) -> QSeries:
    """Expansion of eta(mult*tau): q^(mult/24) times the pentagonal series."""
    if mult < 1 or nterms < 1:
        raise ValueError("eta_q needs mult >= 1 and nterms >= 1")
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


def one_plus_q_product(step: int, start: int, power: int, nterms: int) -> QSeries:
    """prod_{n>=1} (1 + q^(start + (n-1)*step))^power, truncated, for any integer
    power: an Euler product, as theta log (1 + q^e) = sum_j (-1)^(j+1) e q^(e j)."""
    s = [0] * nterms
    for e in range(start, nterms, step):
        for j, k in enumerate(range(e, nterms, e)):
            s[k] += -power * e if j % 2 else power * e
    return QSeries(0, _euler_product(s))


def e2_q(mult: int, nterms: int) -> QSeries:
    """E2(mult tau) = 1 - 24 sum sigma(n) q^(mult n) = (24/mult) theta log eta(mult tau)."""
    if nterms < 1:
        raise ValueError("nterms must be >= 1")
    s = _eta_log_derivative({mult: 1}, nterms)
    return QSeries(0, [1] + [24 * c // mult for c in s[1:]])


def compose(outer: list, inner: QSeries) -> QSeries:
    """sum_n outer[n] * inner^n, for inner = c*q^j + ... with integral j >= 1.

    Powers of inner are accumulated with shrinking truncation windows; the
    result is correct through q^(len(inner)+j-1).
    """
    if inner.off24 % 24 or inner.off24 <= 0:
        raise ValueError("composition needs an inner series q^j + ... with integer j >= 1")
    j = inner.off24 // 24
    nterms = len(inner.coeffs) + j  # exponents 0 .. len+j-1
    out = [0] * nterms
    if outer:
        out[0] = outer[0]
    power = inner  # inner^n, exponents n*j .. n*j + len(coeffs) - 1
    for n in range(1, len(outer)):
        base_exp = power.off24 // 24
        if base_exp >= nterms:
            break
        an = outer[n]
        if an:
            for i, c in enumerate(power.coeffs):
                e = base_exp + i
                if e >= nterms:
                    break
                if c:
                    out[e] += an * c
        keep = nterms - base_exp - j  # coefficients of inner^(n+1) we still need
        if keep <= 0:
            break
        power = power.truncate(keep) * inner.truncate(keep)
    return QSeries(0, out)


# -- Hauptmoduls and generating-function identities -------------------------


# Hauptmodul tag -> ({m: e_m}, power): the Hauptmodul is
# (prod eta(m tau)^(e_m))^power, numerator factors listed first.  u is not an
# eta-quotient power and is built from Weber's f2 instead.
ETA_QUOTIENTS = {
    "t": ({1: 1, 4: 1, 2: -2}, 24),
    "s": ({4: 1, 1: -1}, 8),
    "w": ({1: 1, 8: 1, 2: -1, 4: -1}, 8),
    "v": ({1: 1, 3: 1, 4: 1, 12: 1, 2: -2, 6: -2}, 6),
    "h": ({1: 1, 6: 1, 2: -1, 3: -1}, 12),
}

# Hauptmodul tag -> {m: e_m} of the paired weight-2 form; u's is 2E2(2tau) - E2(tau).
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


def weber_f2_pow24_q(nterms: int) -> QSeries:
    """f2(tau)^24 = 2^12 q prod (1+q^n)^24 as an integral-exponent series."""
    return one_plus_q_product(1, 1, 24, nterms).scale(4096).shift24(24)


def weber_f_2tau_pow24_q(nterms: int) -> QSeries:
    """f(2*tau)^24 = q^-1 prod (1+q^(2n-1))^24."""
    return one_plus_q_product(2, 1, 24, nterms).shift24(-24)


def hauptmodul_q(tag: str, nterms: int) -> QSeries:
    """Canonical construction; all six are q + O(q^2)."""
    if nterms < 2:
        raise ValueError("need at least 2 terms")
    if tag == "u":
        f24 = weber_f2_pow24_q(nterms)
        return f24 / (f24.add_const(64) ** 2)
    if tag not in ETA_QUOTIENTS:
        raise ValueError(f"unknown hauptmodul tag {tag!r}")
    exps, power = ETA_QUOTIENTS[tag]
    return eta_quotient_q({m: power * e for m, e in exps.items()}, nterms)


def hauptmodul_alt_q(tag: str, nterms: int) -> QSeries:
    """Independent second construction, where one is stated.

    u:  quotient of eta-squares by the weight-2 Eisenstein combination
        2E2(2t) - E2(t); that combination leads with 1, which is the
        normalization under which the quotient starts q + O(q^2).
    s:  the direct product q prod (1+q^n)^8 (1+q^2n)^8.
    w:  the quotient f2(4tau)^8 / f2(tau)^8 built from (1+q^n) products.
    """
    if tag == "u":
        e1, e2 = eta_q(1, nterms), eta_q(2, nterms)
        return ((e1 * e1 * e2 * e2) / genfun_rhs_q("u", nterms)) ** 4
    if tag == "s":
        prod = one_plus_q_product(1, 1, 8, nterms) * one_plus_q_product(2, 2, 8, nterms)
        return prod.shift24(24)
    if tag == "w":
        num = one_plus_q_product(4, 4, 8, nterms)
        den = one_plus_q_product(1, 1, 8, nterms)
        return (num / den).shift24(24)
    raise ValueError(f"no alternative construction for {tag!r}")


def genfun_rhs_q(tag: str, nterms: int) -> QSeries:
    """Stated weight-2 form equal to the composed generating function."""
    if tag == "u":
        return e2_q(2, nterms).scale(2) - e2_q(1, nterms)
    if tag not in WEIGHT2_FORMS:
        raise ValueError(f"unknown hauptmodul tag {tag!r}")
    return eta_quotient_q(WEIGHT2_FORMS[tag], nterms)


def genfun_identity_check(tag: str, nterms: int) -> int | None:
    """Check sum a_n x^n = G, the paired family in the Hauptmodul, exactly.

    Applies the family's recurrence operator, pulled back to q, to the stated
    weight-2 form G (see the module docstring).  Returns None on agreement
    through q^nterms, else the first mismatching exponent.  Raises
    ArithmeticError when the defining sums do not obey the recurrence.
    """
    if nterms < 10:
        raise ValueError("nterms must be >= 10")
    seq = HAUPTMODUL_SEQUENCE[tag]
    a = exact_terms(seq, nterms + 1)
    if a[0] != 1:
        raise ArithmeticError(f"{seq.value}: a_0 = {a[0]}, not 1; build is broken")
    n = recurrence_break(seq, a)
    if n is not None:
        raise ArithmeticError(
            f"{seq.value}: defining sums break the recurrence at n = {n}; build is broken")
    x = hauptmodul_q(tag, nterms + 1).scale(HAUPTMODUL_SIGN[tag])  # through q^(nterms+1)
    g = genfun_rhs_q(tag, nterms + 1).truncate(nterms + 1)
    if g.coeff_at(0) != 1:
        return 0
    r = x / x.theta()  # 1 + O(q): theta_x = r theta_q
    d1 = r * g.theta()
    d2 = r * d1.theta()
    d3 = r * d2.theta()
    c, alpha, beta, e = RECURRENCES[seq]
    # L_q G = d3 + x (-c (2a d3 + 3a d2 + (a+2b) d1 + b G) + e x (d3 + 3 d2 + 3 d1 + G))
    inner = (d3.scale(2 * alpha) + d2.scale(3 * alpha) + d1.scale(alpha + 2 * beta)
             + g.scale(beta)).scale(-c)
    if e:
        inner = inner + x * (d3 + d2.scale(3) + d1.scale(3) + g).scale(e)
    lg = d3 + x * inner
    if lg.off24 != 0 or lg.length <= nterms:
        raise ArithmeticError(f"L_q G for {tag!r} does not cover q^0..q^{nterms}")
    return lg.truncate(nterms + 1).first_nonzero()


def j_2tau_q(nterms: int) -> QSeries:
    """j(2*tau) = (F - 16)^3 / F with F = f(2*tau)^24; starts q^-2 + 744 + ..."""
    f24 = weber_f_2tau_pow24_q(nterms)
    return (f24.add_const(-16) ** 3) / f24


def t_j_relation_check(nterms: int) -> int | None:
    """(16 t - 1)^3 = -j(2tau) t^2 identically.

    t comes from the eta quotient, j(2tau) from the Weber product, so the two
    routes genuinely cross-check each other.  Returns the first exponent at
    which the two sides differ, or None.
    """
    if nterms < 10:
        raise ValueError("nterms must be >= 10")
    pad = nterms + 4
    t = hauptmodul_q("t", pad)
    j2 = j_2tau_q(pad)
    if j2.coeff_at(-2) != 1 or j2.coeff_at(-1) != 0 or j2.coeff_at(0) != 744:
        raise ArithmeticError("j(2*tau) expansion head is wrong; build is broken")
    return first_mismatch(t.scale(16).add_const(-1) ** 3, -(j2 * t * t))


def v_ode_check(nterms: int) -> int | None:
    """Third-order ODE for Y(s) = sum V_n (-s)^n, cleared of denominators:

        s^2 (16s+1)^2 Y''' + 3 s (32s+1)(16s+1) Y''
            + (1792 s^2 + 112 s + 1) Y' + 8 (32s+1) Y = 0

    Its left side times s is the operator of V's RECURRENCES row pulled back
    to s = -x (the tests pin this), and that operator's coefficient of
    s^(n+1) is, up to sign, the recurrence at n.  So the ODE is checked as
    the row on the defining sums; returns the first failing degree <= nterms
    or None.
    """
    if nterms < 10:
        raise ValueError("nterms must be >= 10")
    return recurrence_break(SequenceId.V, exact_terms(SequenceId.V, nterms + 2))
