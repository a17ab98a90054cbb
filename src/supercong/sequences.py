"""The seven binomial / Apery-like sequence families, as exact facts.

Each family is stated by three facts, each once:

- its summand F(n, k) in SUMMANDS, a product of math.comb: the defining sum
  is a_n = sum F(n, k) over 0 <= k <= n, and a binomial product is its one
  summand at k = 0;
- its row of RECURRENCES, (n+1)^3 a_(n+1) = P(n) a_n - e n^3 a_(n-1);
- its Zeilberger certificate in CERTIFICATES (Zeilberger, J. Symbolic
  Comput. 11, 1991; Petkovsek, Wilf and Zeilberger, A = B, 1996), a
  rational G(n, k) = F(n+2, k) Q(n, k) / S(n, k) with

      (n+2)^3 F(n+2, k) - P(n+1) F(n+1, k) + e (n+1)^3 F(n, k)
          = G(n, k+1) - G(n, k),

  and G = 0 for the binomial products.

The functions read those facts.  exact_term(n) is the literal sum, the one
oracle.  iter_terms and exact_terms run the row in exact integers, one divmod
by (n+1)^3 per term with two terms live: the one fast path, whose row the
prime sweep runs mod p^3 (congruence.PrimeContext.terms and
congruence._walk).  certify proves, once per process, that the sums obey the
row at every n, so no caller sums them to trust it.  Nothing here reduces
modulo anything.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from fractions import Fraction
from functools import cache
from math import comb
from typing import NamedTuple


class SequenceId(str, Enum):
    CB3 = "CB3"
    CB4 = "CB4"
    CB6 = "CB6"
    V = "V"
    T = "T"
    D = "D"
    A = "A"


SUMMANDS = {
    SequenceId.CB3: lambda n, k: 0 if k else comb(2 * n, n) ** 3,
    SequenceId.CB4: lambda n, k: 0 if k else comb(2 * n, n) ** 2 * comb(4 * n, 2 * n),
    SequenceId.CB6: lambda n, k: 0 if k else comb(2 * n, n) * comb(3 * n, n) * comb(6 * n, 3 * n),
    SequenceId.V: lambda n, k: (comb(2 * k, k) * comb(2 * n - 2 * k, n - k)) ** 2,
    SequenceId.T: lambda n, k: (comb(n, k) * comb(2 * k, n)) ** 2,
    SequenceId.D: lambda n, k: comb(n, k) ** 2 * comb(2 * k, k) * comb(2 * n - 2 * k, n - k),
    SequenceId.A: lambda n, k: (comb(n, k) * comb(n + k, k)) ** 2,
}


class Recurrence(NamedTuple):
    """(n+1)^3 a_{n+1} = P(n) a_n - e n^3 a_{n-1}, P(n) = sum p_i n^i."""

    p: tuple[int, int, int, int]  # (P_0, P_1, P_2, P_3), ascending
    e: int

    def P(self, n: int) -> int:
        """P(n) by Horner in p, the one evaluation of P."""
        p0, p1, p2, p3 = self.p
        return ((p3 * n + p2) * n + p1) * n + p0


# e = 0 for the binomial products, whose term ratios are rational in n; the
# Apery-like rows are those of Almkvist-Zudilin (2006) and Zagier (2009).
RECURRENCES = {
    SequenceId.CB3: Recurrence((8, 48, 96, 64), 0),          # 8 (2n+1)^3
    SequenceId.CB4: Recurrence((24, 176, 384, 256), 0),      # 8 (2n+1)(4n+1)(4n+3)
    SequenceId.CB6: Recurrence((120, 1104, 2592, 1728), 0),  # 24 (2n+1)(6n+1)(6n+5)
    SequenceId.V: Recurrence((8, 32, 48, 32), 256),          # 8 (2n+1)(2n^2+2n+1)
    SequenceId.T: Recurrence((4, 20, 36, 24), 16),           # 4 (2n+1)(3n^2+3n+1)
    SequenceId.D: Recurrence((4, 18, 30, 20), 64),           # 2 (2n+1)(5n^2+5n+2)
    SequenceId.A: Recurrence((5, 27, 51, 34), 1),            # (2n+1)(17n^2+17n+5)
}


def _zero(n: int, k: int) -> tuple[int, int]:
    return 0, 1


# (Q(n, k), S(n, k)) of G(n, k) = F(n+2, k) Q / S, found by undetermined
# coefficients; S has no zero at integers n, k >= 0.
CERTIFICATES = {
    SequenceId.CB3: _zero,
    SequenceId.CB4: _zero,
    SequenceId.CB6: _zero,
    SequenceId.V: lambda n, k: (-k**2 * (4*k*n + 6*k - 4*n**2 - 13*n - 10),
                                (2*n - 2*k + 3) ** 2),
    SequenceId.T: lambda n, k: (8*k**2*n + 12*k**2 - 16*k*n**2 - 56*k*n - 48*k
                                + 7*n**3 + 38*n**2 + 68*n + 40, 1),
    SequenceId.D: lambda n, k: (-k**3 * (4*k**3 - 18*k**2*n - 30*k**2 + 26*k*n**2 + 89*k*n
                                         + 74*k - 12*n**3 - 62*n**2 - 104*n - 56),
                                (n + 2) ** 2 * (2*k - 2*n - 3)),
    SequenceId.A: lambda n, k: (4*k**4 * (2*n + 3) * (2*k**2 - 3*k - 4*n**2 - 12*n - 8),
                                ((n + 1 + k) * (n + 2 + k)) ** 2),
}

def exact_term(seq: SequenceId, n: int) -> int:
    """a_n by the defining sum, the literal sum of F(n, k) over 0 <= k <= n."""
    if n < 0:
        raise ValueError("sequence index must be >= 0")
    summand = SUMMANDS[SequenceId(seq)]
    return sum(summand(n, k) for k in range(n + 1))


def iter_terms(seq: SequenceId, count: int) -> Iterator[int]:
    """a_0 .. a_(count-1) by the family's RECURRENCES row in exact integers,
    each yielded as soon as it is made.  Raises ArithmeticError, naming the
    family and n, where (n+1)^3 does not divide the step."""
    seq = SequenceId(seq)
    rec = RECURRENCES[seq]
    if count <= 0:
        return
    prev, a = 0, 1
    yield a
    for n in range(count - 1):
        a_next, r = divmod(rec.P(n) * a - rec.e * n**3 * prev, (n + 1) ** 3)
        if r:
            raise ArithmeticError(f"{seq.value}: (n+1)^3 does not divide the step at n = {n}")
        prev, a = a, a_next
        yield a


def exact_terms(seq: SequenceId, count: int) -> list[int]:
    """a_0 .. a_(count-1), as iter_terms makes them."""
    return list(iter_terms(seq, count))


# the (row, summand, certificate) triples that certify has proved
_CERTIFIED: set = set()


def certify(seq: SequenceId) -> None:
    """Prove that the defining sums of seq obey its RECURRENCES row at every n,
    or raise ArithmeticError naming the family and where the proof fails.

    Checks in exact arithmetic, with a_n = sum_k F(n, k):
      (1) the certificate identity of the module docstring at every
          0 <= k <= n+3 and n <= 40;
      (2) G(n, 0) = 0 at n <= 40;
      (3) a_0 = 1 and (4) a_1 = P(0), from the sums.

    Why that holds at every n.  For V, T, D and A, F(n, k), F(n+1, k),
    F(n+2, k) and F(n+2, k+1) are each B(n, k) times a rational function of
    n and k whose denominator, like S, has no zero at integers n, k >= 0;
    B = F(n+2, k), and for T, B = ((2k)! / (k! (n+2-k)! (2k-n)!))^2.  So
    where B(n, k) = 0 every term of (1) is 0, and elsewhere (1) says
    H(n, k) = 0 for one polynomial H, of degree at most 12 in n and at most
    12 in k (the tests derive the bounds).  B(n, .) is nonzero at the n+3
    values 0 <= k <= n+2 (T: ceil(n/2) <= k <= n+2), so at 13 or more of them
    on each of the 21 rows 20 <= n <= 40: H vanishes in k on each such row,
    and so identically, and (1) holds at every n, k >= 0.  For the binomial
    products every term of (1) is 0 but at k = 0, where (1) divided by
    F(n+2, 0) is H(n) = 0 for a polynomial H of degree at most 12, checked at
    41 values of n.  In (2), G(n, 0) = F(n+2, 0) Q(n, 0) / S(n, 0): T's
    F(n+2, 0) is 0 at every n, and for V, D and A, Q(n, 0), of degree at
    most 12, vanishes at 41 values of n.  Since F(n+2, k), and with it
    G(n, k), is 0 for k > n+2, the sum of (1) over 0 <= k <= n+2 telescopes
    to

        (n+2)^3 a_(n+2) - P(n+1) a_(n+1) + e (n+1)^3 a_n = G(n, n+3) - G(n, 0) = 0,

    the row at every n >= 1, and (3) and (4) are its start and the row at
    n = 0.  Each (row, summand, certificate) is proved once per process, so a
    changed fact is proved again.
    """
    seq = SequenceId(seq)
    rec, summand, certificate = RECURRENCES[seq], SUMMANDS[seq], CERTIFICATES[seq]
    if (rec, summand, certificate) in _CERTIFIED:
        return

    @cache
    def F(n: int, k: int) -> int:
        return summand(n, k) if 0 <= k <= n else 0

    def G(n: int, k: int) -> Fraction:
        q, s = certificate(n, k)
        return Fraction(F(n + 2, k) * q, s)

    def broken(what: str) -> ArithmeticError:
        return ArithmeticError(f"{seq.value}: {what}; build is broken")

    if F(0, 0) != 1:
        raise broken(f"a_0 = {F(0, 0)}, not 1")
    if F(1, 0) + F(1, 1) != rec.P(0):
        raise broken(f"a_1 = {F(1, 0) + F(1, 1)}, not P(0) = {rec.P(0)}")
    for n in range(41):
        g = [G(n, k) for k in range(n + 5)]
        if g[0]:
            raise broken(f"G({n}, 0) = {g[0]}, not 0")
        p, e = rec.P(n + 1), rec.e * (n + 1) ** 3
        for k in range(n + 4):
            if (n + 2) ** 3 * F(n + 2, k) - p * F(n + 1, k) + e * F(n, k) != g[k + 1] - g[k]:
                raise broken(f"the certificate identity fails at n = {n}, k = {k}")
    _CERTIFIED.add((rec, summand, certificate))
