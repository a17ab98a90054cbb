"""The seven binomial / Apery-like sequence families.

Two independent generators.  The defining sums give exact big-integer terms
for the q-series layer: each summand is the one before times its term ratio,
so only the first calls comb, and term * num // den is exact because every
summand is an integer (the tests keep the literal comb sums).  One table of
three-term recurrences gives what the prime sweep needs, the projective terms
a_n (n!)^3 mod p^3 for n < p at every qualifying prime, in O(count)
multiplications and no division for every family; recurrence_break checks
exact terms against the same table.
"""

from __future__ import annotations

from enum import Enum
from math import comb
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
    """(n+1)^3 a_{n+1} = c (2n+1)(alpha n^2 + alpha n + beta) a_n - e n^3 a_{n-1}."""

    c: int
    alpha: int
    beta: int
    e: int


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
    c, alpha, beta, e = RECURRENCES[SequenceId(seq)]
    prev = 0
    for n in range(len(a) - 1):
        rhs = c * (2 * n + 1) * (alpha * n * (n + 1) + beta) * a[n] - e * n**3 * prev
        if (n + 1) ** 3 * a[n + 1] != rhs:
            return n
        prev = a[n]
    return None


def exact_term(seq: SequenceId, n: int) -> int:
    """a_n by the defining summation, exact big-integer arithmetic."""
    if n < 0:
        raise ValueError("sequence index must be >= 0")
    return _CANONICAL[SequenceId(seq)](n)


def exact_terms(seq: SequenceId, count: int) -> list[int]:
    return [exact_term(seq, n) for n in range(count)]


def scaled_terms_mod(seq: SequenceId, count: int, modulus: int) -> list[int]:
    """x_n = a_n (n!)^3 mod `modulus` for n < count, from the family's RECURRENCES row.

    The row multiplied through by (n!)^3 reads
    x_{n+1} = c (2n+1)(alpha n^2 + alpha n + beta) x_n - e n^6 x_{n-1}, x_0 = 1.
    It never divides, so every term is exact for any count and any modulus.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    c, alpha, beta, e = RECURRENCES[SequenceId(seq)]
    cur = 1 % modulus
    terms = [cur]
    prev = 0
    for n in range(count - 1):
        n3 = n * n * n
        prev, cur = cur, (c * (2 * n + 1) * (alpha * n * (n + 1) + beta) * cur
                          - e * n3 * n3 * prev) % modulus
        terms.append(cur)
    return terms
