"""Every stated defining formula of the four families whose terms are sums.

The first formula of each family is the literal comb sum, stated here again
apart from supercong.sequences, whose exact_term sums its SUMMANDS and whose
exact_terms runs the RECURRENCES row.  The others are independent sums stated
for V and T.  The tests hold both routes to them.
"""

from math import comb

from supercong.sequences import SequenceId, exact_term


def _v_central_squares(n: int) -> int:
    return sum(comb(2 * k, k) ** 2 * comb(2 * n - 2 * k, n - k) ** 2 for k in range(n + 1))


def _t_main(n: int) -> int:
    return sum(comb(n, k) ** 2 * comb(2 * k, n) ** 2 for k in range(n + 1))


def _d_main(n: int) -> int:
    return sum(
        comb(n, k) ** 2 * comb(2 * k, k) * comb(2 * n - 2 * k, n - k) for k in range(n + 1)
    )


def _a_main(n: int) -> int:
    return sum(comb(n, k) ** 2 * comb(n + k, k) ** 2 for k in range(n + 1))


def _v_binom16(n: int) -> int:
    return sum(
        comb(n, k) * comb(n + k, k) * (-1) ** k * comb(2 * k, k) ** 2 * 16 ** (n - k)
        for k in range(n + 1)
    )


def _v_cube_binom(n: int) -> int:
    return sum(
        comb(2 * k, k) ** 3 * comb(k, n - k) * (-16) ** (n - k)
        for k in range(n + 1)
        if n - k <= k
    )


def _t_quadruple(n: int) -> int:
    return sum(
        comb(2 * k, k) ** 2 * comb(4 * k, 2 * k) * comb(n + 2 * k, 4 * k) * 4 ** (n - 2 * k)
        for k in range(n // 2 + 1)
    )


FORMULAS = {
    SequenceId.V: (_v_central_squares, _v_binom16, _v_cube_binom),
    SequenceId.T: (_t_main, _t_quadruple),
    SequenceId.D: (_d_main,),
    SequenceId.A: (_a_main,),
}


def alternate_formulas(seq: SequenceId, n: int) -> list[int]:
    """Value of every stated defining formula for the family at index n, the
    literal canonical sum first; a binomial product family has only its
    product, which exact_term evaluates as written."""
    seq = SequenceId(seq)
    if seq not in FORMULAS:
        return [exact_term(seq, n)]
    return [f(n) for f in FORMULAS[seq]]
