"""Second and third defining sums stated for the V and T families.

They are independent of the canonical sums in supercong.sequences, so the
tests use them as a cross-check on exact_term.
"""

from math import comb

from supercong.sequences import SequenceId, exact_term


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


_ALTERNATES = {
    SequenceId.V: (_v_binom16, _v_cube_binom),
    SequenceId.T: (_t_quadruple,),
}


def alternate_formulas(seq: SequenceId, n: int) -> list[int]:
    """Value of every stated defining formula for the family at index n,
    the canonical one (sequences.exact_term) first."""
    seq = SequenceId(seq)
    return [exact_term(seq, n)] + [f(n) for f in _ALTERNATES.get(seq, ())]
