"""The seven binomial / Apery-like sequence families, as exact facts.

Two independent descriptions.  The defining sums give exact big-integer
terms, in two evaluation orders chosen by the access pattern.  exact_term(n)
sums one term, k by k: each summand is the one before times its term ratio
in k, so only the first calls comb.  exact_terms(count) (iter_terms streams
the same prefix) builds a whole row of summands at a time: row n is row
n - 1 times each summand's ratio in n, one map over the row with no Python
step per summand, and a_n is its sum (V pairs C(2k,k)^2 with
C(2n-2k,n-k)^2, half the products by symmetry; CB3 and CB4 step C(2k,k) by
its ratio, CB6 takes its closed form term by term).  Each quotient
term * num // den is exact because it is an integer summand.  The two
orders check each other, and the tests keep the literal comb sums as the
oracle for both.  One table of three-term recurrences, RECURRENCES, is what
the prime sweep runs mod p^3 (congruence.PrimeContext.terms and
congruence._walk); recurrence_break checks exact terms against the same
table, which the sums never read.  Nothing here reduces modulo anything.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from itertools import islice
from math import comb
from operator import floordiv, mul
from typing import NamedTuple


class SequenceId(str, Enum):
    CB3 = "CB3"  # C(2k,k)^3
    CB4 = "CB4"  # C(2k,k)^2 C(4k,2k)
    CB6 = "CB6"  # C(2k,k) C(3k,k) C(6k,3k)
    V = "V"
    T = "T"
    D = "D"
    A = "A"


def _v_central_squares(n: int) -> int:
    # sum C(2k,k)^2 C(2n-2k,n-k)^2
    term = total = comb(2 * n, n) ** 2
    for k in range(n):
        term = term * ((2 * k + 1) * (n - k)) ** 2 // ((k + 1) * (2 * n - 2 * k - 1)) ** 2
        total += term
    return total


def _t_main(n: int) -> int:
    # sum C(n,k)^2 C(2k,n)^2, whose summands vanish below k = ceil(n/2)
    k0 = (n + 1) // 2
    term = total = (comb(n, k0) * comb(2 * k0, n)) ** 2
    for k in range(k0, n):
        term = (term * ((n - k) * (2 * k + 1) * (2 * k + 2)) ** 2
                // ((k + 1) * (2 * k + 1 - n) * (2 * k + 2 - n)) ** 2)
        total += term
    return total


def _d_main(n: int) -> int:
    # sum C(n,k)^2 C(2k,k) C(2n-2k,n-k)
    term = total = comb(2 * n, n)
    for k in range(n):
        term = term * (n - k) ** 3 * (2 * k + 1) // ((k + 1) ** 3 * (2 * n - 2 * k - 1))
        total += term
    return total


def _a_main(n: int) -> int:
    # sum C(n,k)^2 C(n+k,k)^2
    term = total = 1
    for k in range(n):
        term = term * ((n - k) * (n + k + 1)) ** 2 // (k + 1) ** 4
        total += term
    return total


_CANONICAL = {
    SequenceId.CB3: lambda n: comb(2 * n, n) ** 3,
    SequenceId.CB4: lambda n: comb(2 * n, n) ** 2 * comb(4 * n, 2 * n),
    SequenceId.CB6: lambda n: comb(2 * n, n) * comb(3 * n, n) * comb(6 * n, 3 * n),
    SequenceId.V: _v_central_squares,
    SequenceId.T: _t_main,
    SequenceId.D: _d_main,
    SequenceId.A: _a_main,
}

class Recurrence(NamedTuple):
    """(n+1)^3 a_{n+1} = P(n) a_n - e n^3 a_{n-1}, P(n) = c(2n+1)(alpha n^2 + alpha n + beta)."""

    c: int
    alpha: int
    beta: int
    e: int

    @property
    def p_coeffs(self) -> tuple[int, int, int, int]:
        """(P_0, P_1, P_2, P_3) with P(n) = sum P_i n^i, the one source of P."""
        c, alpha, beta, _ = self
        return c * beta, c * (alpha + 2 * beta), 3 * c * alpha, 2 * c * alpha


# a_0 = 1 for every family.  e = 0 for the binomial products, whose term
# ratios are rational in n; the Apery-like rows are those of Almkvist-Zudilin
# (2006) and Zagier (2009).
RECURRENCES = {
    SequenceId.CB3: Recurrence(8, 4, 1, 0),     # 8 (2n+1)^3
    SequenceId.CB4: Recurrence(8, 16, 3, 0),    # 8 (2n+1)(4n+1)(4n+3)
    SequenceId.CB6: Recurrence(24, 36, 5, 0),   # 24 (2n+1)(6n+1)(6n+5)
    SequenceId.V: Recurrence(8, 2, 1, 256),
    SequenceId.T: Recurrence(4, 3, 1, 16),
    SequenceId.D: Recurrence(2, 5, 2, 64),
    SequenceId.A: Recurrence(1, 17, 5, 1),
}


def recurrence_break(seq: SequenceId, a: list[int]) -> int | None:
    """First n < len(a) - 1 at which exact a_(n-1), a_n, a_(n+1) break the
    family's RECURRENCES row, or None."""
    rec = RECURRENCES[SequenceId(seq)]
    (p0, p1, p2, p3), e = rec.p_coeffs, rec.e
    prev = 0
    for n in range(len(a) - 1):
        rhs = (((p3 * n + p2) * n + p1) * n + p0) * a[n] - e * n**3 * prev
        if (n + 1) ** 3 * a[n + 1] != rhs:
            return n
        prev = a[n]
    return None


def exact_term(seq: SequenceId, n: int) -> int:
    """a_n by the defining summation, exact big-integer arithmetic."""
    if n < 0:
        raise ValueError("sequence index must be >= 0")
    return _CANONICAL[SequenceId(seq)](n)


def _central_binomials() -> Iterator[int]:
    """C(2k,k) for k = 0, 1, ..., each from the one before by its ratio 2(2k-1)/k."""
    c, k = 1, 0
    while True:
        yield c
        k += 1
        c = c * (4 * k - 2) // k


def _squares(r: range):
    return map(mul, r, r)


# Row n of A, T or D, read from its end: s(n, n - j) for j = 0, 1, ...  Entry
# j >= 1 is entry j - 1 of row n - 1 times the summand's exact ratio in n,
# s(n, k) / s(n - 1, k) with k = n - j; each ratio function below gives it
# for n >= 1 as (numerators, denominators).  Entries past the numerators have
# left the support (T's k < ceil(n/2)).  Entry 0 is s(n, n) = C(2n,n)^power.
def _a_ratio(n: int):
    # ((n+k)/(n-k))^2 = ((2n-j)/j)^2
    return _squares(range(2 * n - 1, n - 1, -1)), _squares(range(1, n + 1))


def _t_ratio(n: int):
    # ((2k-n+1)/(n-k))^2 = ((n-2j+1)/j)^2 for k >= ceil(n/2)
    return _squares(range(n - 1, 0, -2)), _squares(range(1, n // 2 + 1))


def _d_ratio(n: int):
    # 2n^2 (2j-1) / j^3
    j = range(1, n + 1)
    return range(2 * n * n, 4 * n**3, 4 * n * n), map(mul, _squares(j), j)


_ROW_STEPS = {SequenceId.A: (_a_ratio, 2), SequenceId.T: (_t_ratio, 2), SequenceId.D: (_d_ratio, 1)}


def _row_sums(seq: SequenceId, count: int) -> Iterator[int]:
    ratio, power = _ROW_STEPS[seq]
    central = _central_binomials()
    row = [next(central)]
    yield 1
    for n in range(1, count):
        nums, dens = ratio(n)
        row = [next(central) ** power, *map(floordiv, map(mul, row, nums), dens)]
        yield sum(row)


def _v_sums(count: int) -> Iterator[int]:
    # V_n = sum b_k b_(n-k), b_k = C(2k,k)^2: the pairs k < n - k twice, and
    # the middle square when n is even
    b = []
    for n, c in zip(range(count), _central_binomials()):
        b.append(c * c)
        half = (n + 1) // 2
        total = 2 * sum(map(mul, b[:half], b[n:n - half:-1]))
        yield total + b[n // 2] ** 2 if n % 2 == 0 else total


def _binomial_products(seq: SequenceId, count: int) -> Iterator[int]:
    if seq is SequenceId.CB3:
        return (c**3 for c in islice(_central_binomials(), count))
    if seq is SequenceId.CB4:
        c = list(islice(_central_binomials(), 2 * count))
        return (c[k] ** 2 * c[2 * k] for k in range(count))
    return (exact_term(seq, n) for n in range(count))


def iter_terms(seq: SequenceId, count: int) -> Iterator[int]:
    """a_0 .. a_(count-1) by the defining sums, a whole row at a time, each
    yielded as soon as it is summed."""
    seq = SequenceId(seq)
    if count <= 0:
        return iter(())
    if seq in _ROW_STEPS:
        return _row_sums(seq, count)
    if seq is SequenceId.V:
        return _v_sums(count)
    return _binomial_products(seq, count)


def exact_terms(seq: SequenceId, count: int) -> list[int]:
    """a_0 .. a_(count-1) by the defining sums, a whole row at a time."""
    return list(iter_terms(seq, count))
