"""Catalog of the verified congruences and the prime-sweep harness.

Each catalog row states: a sequence family, the denominator m (terms are
a_k / m^k), the summation limit (half = (p-1)/2, full = p-1), the modulus
exponent, a predicate selecting the qualifying primes, and one or more
branches.  A branch refines the predicate, optionally names the binary
quadratic form giving x and y, and carries the right-hand-side template plus
a quadratic character, the Jacobi symbol (u/p) of one integer u.  Parity
signs are such symbols too, by the supplementary laws of quadratic
reciprocity: (-1)^((p-1)/2) = (-1/p), and (-1)^((p-1)/4) = (2/p) when
p = 1 mod 4.  A quadratic branch is stated by its form a x^2 + d y^2 = c p and
a sign eps alone: its right-hand side is eps (X^2 - 2p - p^2/X^2) with
X^2 = 4a x^2/c, which _quadratic writes out as the QF record that rhs_value
evaluates.  A row whose m is a certified CM value also carries its CM
point tau = re + im*sqrt(-d): m = 1/x(tau) for the Hauptmodul x paired
with the family (qseries.HAUPTMODUL_SEQUENCE, with its sign), and
highprec.cm_table derives its targets from these rows.

A left side sum_{k<=L} a_k m^-k mod p^3 takes one of two paths, chosen by
sweep from its rows alone.  A family with two or more rows in the sweep
shares, per prime, one cofactorial table and one term list, and each row runs
a Horner in m over them.  A family with one row walks: the recurrence and the
accumulating product Z_{n+1} = n^3 m Z_n + x_n step together for n <= L, in
one pass with no table that depends on p.  Both kernels take two indices per
pass, so each pair of indices costs three reductions mod p^3 in the walk and
one in the Horner.  Above p = 1024, p^3 needs two 30-bit CPython digits and
each reduction costs two to four times as much.  For T1.1 at p = 1103 the walk
took 0.22 ms and the shared path 0.49 ms; for the full catalog's left sides
at every prime to 300 a walk per row took 150 ms and the shared terms 50 ms.

Statuses: "proven" rows form the default verification gate; "conjectural"
and "cited" rows are swept separately (a failure there points at a catalog
encoding bug, not at the underlying mathematics).
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

from .arith import is_prime, jacobi, primes_in
from .quadforms import FormSpec, QuadRep, represent
from .report import (
    SKIP_BRANCH_ANOMALY,
    SKIP_DIVIDES_M,
    SKIP_PREDICATE,
    SKIP_REPRESENTABILITY_ANOMALY,
    Report,
    Row,
    error_row,
)
from .sequences import RECURRENCES, Recurrence, SequenceId

# The least prime a sweep checks.  The catalog's rows are mod-p^3 statements
# (R20.2 mod p^2) for primes p >= 5; at p = 3 they need not hold, and T1.9
# holds there only mod p^2.
MIN_P = 5


# -- predicate / template / character types ----------------------------------


@dataclass(frozen=True)
class PrimePredicate:
    """p qualifies iff p falls in every residue-class set and every listed
    Jacobi symbol (u/p) takes its required value."""

    residue_classes: tuple[tuple[tuple[int, ...], int], ...] = ()
    jacobi_conditions: tuple[tuple[int, int], ...] = ()

    def holds(self, p: int) -> bool:
        for allowed, modulus in self.residue_classes:
            if p % modulus not in allowed:
                return False
        for u, want in self.jacobi_conditions:
            if jacobi(u, p) != want:
                return False
        return True


@dataclass(frozen=True)
class FloorExpr:
    """floor((num*p + off) / den)."""

    num: int
    off: int
    den: int

    def eval(self, p: int) -> int:
        return (self.num * p + self.off) // self.den


@dataclass(frozen=True)
class QF:
    """r1*x^2 + r2*p + r3*p^2/(r4*x^2)."""

    r1: int
    r2: int
    r3: int
    r4: int


@dataclass(frozen=True)
class InvBinomSq:
    """rho * p^2 * C(top, bottom)^-2 with both arguments below p."""

    rho: Fraction
    top: FloorExpr
    bottom: FloorExpr


@dataclass(frozen=True)
class ZeroRhs:
    pass


@dataclass(frozen=True)
class Branch:
    """The right-hand side rhs times the Jacobi symbol (character/p) at the
    primes where condition holds; rep names the form giving x and y."""

    condition: PrimePredicate
    rep: FormSpec | None
    rhs: QF | InvBinomSq | ZeroRhs
    character: int = 1


@dataclass(frozen=True)
class CongruenceSpec:
    id: str
    status: str  # proven | conjectural | cited
    sequence: SequenceId
    m: int
    limit: str  # half | full
    mod_exp: int
    predicate: PrimePredicate
    branches: tuple[Branch, ...]
    source: str
    tau: tuple[Fraction, Fraction, int] | None = None  # CM point (re, im, d)

    def qualifies(self, p: int) -> bool:
        return self.predicate.holds(p)

    def match_branch(self, p: int) -> Branch | None:
        for branch in self.branches:
            if branch.condition.holds(p):
                return branch
        return None


# -- catalog -----------------------------------------------------------------

_ALWAYS = PrimePredicate()


def _rc(modulus: int, *allowed: int) -> PrimePredicate:
    return PrimePredicate(residue_classes=(((tuple(sorted(allowed))), modulus),))

def _jc(*conds: tuple[int, int]) -> PrimePredicate:
    return PrimePredicate(jacobi_conditions=tuple(conds))


def _quadratic(condition: PrimePredicate, form: FormSpec, eps: int = 1, char: int = 1) -> Branch:
    """The branch on form a x^2 + d y^2 = c p whose right-hand side is
    eps (X^2 - 2p - p^2/X^2), X^2 = k x^2 with k = 4a/c: the trace of the square
    of Lemma 2.3's unit root, stated as the QF record that rhs_value reads."""
    k, rem = divmod(4 * form.a, form.c)
    if rem:
        raise ValueError(f"4a/c is not an integer for {form}")
    return Branch(condition, form, QF(eps * k, -2 * eps, -eps, k), char)


def _simple(spec_id, status, seq, m, limit, pred, form, char=1, source="", tau=None):
    branch = _quadratic(_ALWAYS, form, char=char)
    return CongruenceSpec(spec_id, status, seq, m, limit, 3, pred, (branch,), source, tau)


@functools.cache
def catalog() -> list[CongruenceSpec]:
    """Every catalog row, built once."""
    S, F = SequenceId, Fraction
    rows: list[CongruenceSpec] = []
    add = rows.append

    # central binomial cubes, half sums; CM points of t
    p7 = _rc(7, 1, 2, 4)
    x7 = FormSpec(1, 7, 1)
    t7 = (F(3, 8), F(1, 8), 7)
    add(_simple("T1.1", "proven", S.CB3, 1, "half", p7, x7, source="Thm 1.1", tau=t7))
    add(_simple("T1.1-b", "proven", S.CB3, 4096, "half", p7, x7, char=-1,
                source="Thm 1.1", tau=(F(0), F(1, 2), 7)))
    p3 = _rc(3, 1)
    x3 = FormSpec(1, 3, 1)
    add(_simple("T1.2", "proven", S.CB3, 16, "half", p3, x3, source="Thm 1.2",
                tau=(F(3, 4), F(1, 4), 3)))
    add(_simple("T1.2-b", "proven", S.CB3, 256, "half", p3, x3, char=-1,
                source="Thm 1.2", tau=(F(0), F(1, 2), 3)))
    p4 = _rc(4, 1)
    x4 = FormSpec(1, 4, 1)
    add(_simple("T1.3", "proven", S.CB3, -8, "half", p4, x4, source="Thm 1.3",
                tau=(F(1, 2), F(1, 2), 1)))
    p8 = _rc(8, 1, 3)
    x2 = FormSpec(1, 2, 1)
    add(_simple("T1.4", "proven", S.CB3, -64, "half", p8, x2, char=-1,
                source="Thm 1.4", tau=(F(1, 2), F(1, 2), 2)))

    # C(2k,k)^2 C(4k,2k), full sums; CM points of u
    u2 = (F(0), F(1, 2), 2)
    add(_simple("T1.5", "proven", S.CB4, 256, "full", p8, x2, source="Thm 1.5", tau=u2))
    add(_simple("T1.6", "proven", S.CB4, -144, "full", p3, x3, source="Thm 1.6",
                tau=(F(1, 2), F(1, 2), 3)))
    add(_simple("T1.7", "proven", S.CB4, 648, "full", p4, x4, source="Thm 1.7",
                tau=(F(1, 4), F(1, 4), 1)))
    add(_simple("T1.8", "proven", S.CB4, 81, "full", p7, x7, source="Thm 1.8",
                tau=(F(1, 4), F(1, 4), 7)))
    add(_simple("T1.8-b", "proven", S.CB4, -3969, "full", p7, x7, source="Thm 1.8",
                tau=(F(1, 2), F(1, 2), 7)))
    add(_simple("T1.9", "proven", S.CB4, 28**4, "full", p8, x2, source="Thm 1.9",
                tau=(F(0), F(3, 2), 2)))
    add(CongruenceSpec(
        "T1.10", "proven", S.CB4, -12288, "full", 3, p4,
        (
            _quadratic(_rc(12, 1), FormSpec(1, 9, 1)),
            _quadratic(_rc(12, 5), FormSpec(1, 9, 2), eps=-1),
        ),
        "Thm 1.10", (F(1, 2), F(3, 2), 1),
    ))
    add(CongruenceSpec(
        "T1.10-b", "proven", S.CB4, -6635520, "full", 3, p4,
        (
            _quadratic(_rc(20, 1, 9), FormSpec(1, 25, 1)),
            _quadratic(_rc(20, 13, 17), FormSpec(1, 25, 2), eps=-1),
        ),
        "Thm 1.10", (F(1, 2), F(5, 2), 1),
    ))
    for suffix, mm, dmm in (("", -1024, 5), ("-b", -82944, 13), ("-c", -(14112**2), 37)):
        add(CongruenceSpec(
            f"T1.11{suffix}", "proven", S.CB4, mm, "full", 3, _jc((-dmm, 1)),
            (
                _quadratic(_jc((-1, 1)), FormSpec(1, dmm, 1)),
                _quadratic(_jc((-1, -1)), FormSpec(1, dmm, 2), eps=-1),
            ),
            "Thm 1.11", (F(1, 2), F(1, 2), dmm),
        ))
    for suffix, mm, dmm, unit in (
        ("", 48**2, 3, 2), ("-b", 12**4, 5, -2), ("-c", 1584**2, 11, 2),
        ("-d", 396**4, 29, -2),
    ):
        add(CongruenceSpec(
            f"T1.12{suffix}", "proven", S.CB4, mm, "full", 3, _jc((-2 * dmm, 1)),
            (
                _quadratic(_jc((unit, 1)), FormSpec(1, 2 * dmm, 1)),
                _quadratic(_jc((unit, -1)), FormSpec(2, dmm, 1), eps=-1),
            ),
            "Thm 1.12", (F(0), F(1, 2), 2 * dmm),
        ))

    # C(2k,k) C(3k,k) C(6k,3k), full sums; each m is j(tau) for class number one
    add(_simple("T1.13", "proven", S.CB6, 12**3, "full", p4, x4, char=-3,
                source="Thm 1.13"))
    add(_simple("T1.13-b", "proven", S.CB6, 66**3, "full", p4, x4, char=33,
                source="Thm 1.13"))
    add(_simple("T1.14", "proven", S.CB6, 54000, "full", p3, x3, char=5,
                source="Thm 1.14"))
    add(_simple("T1.15", "proven", S.CB6, 20**3, "full", p8, x2, char=-5,
                source="Thm 1.15"))
    add(_simple("T1.16", "proven", S.CB6, -15**3, "full", p7, x7, char=-15,
                source="Thm 1.16"))
    add(_simple("T1.16-b", "proven", S.CB6, 255**3, "full", p7, x7, char=-255,
                source="Thm 1.16"))
    add(_simple("T1.17", "proven", S.CB6, -12288000, "full", p3, FormSpec(1, 27, 4),
                char=10, source="Thm 1.17"))
    add(_simple("T1.18", "proven", S.CB6, -32**3, "full", _rc(11, 1, 3, 4, 5, 9),
                FormSpec(1, 11, 4), char=-2, source="Thm 1.18"))
    add(_simple("T1.19", "proven", S.CB6, -96**3, "full", _jc((-19, 1)),
                FormSpec(1, 19, 4), char=-6, source="Thm 1.19"))
    add(_simple("T1.20", "proven", S.CB6, -960**3, "full", _jc((-43, 1)),
                FormSpec(1, 43, 4), char=-15, source="Thm 1.20"))
    add(_simple("T1.21", "proven", S.CB6, -5280**3, "full", _jc((-67, 1)),
                FormSpec(1, 67, 4), char=-330, source="Thm 1.21"))
    add(_simple("T1.22", "proven", S.CB6, -640320**3, "full", _jc((-163, 1)),
                FormSpec(1, 163, 4), char=-10005, source="Thm 1.22"))

    # Apery-like families; CM points of s (m = -1/s), w, v and h
    s1, s2 = (F(-1, 4), F(1, 4), 1), (F(0), F(1, 2), 1)
    add(_simple("T1.23", "proven", S.V, 8, "full", p4, x4, source="Thm 1.23", tau=s1))
    add(_simple("T1.23-b", "proven", S.V, -16, "full", p4, x4, source="Thm 1.23", tau=s2))
    add(_simple("T1.24", "proven", S.T, -4, "full", p8, x2, source="Thm 1.24",
                tau=(F(1, 2), F(1, 4), 2)))
    w7 = (F(5, 16), F(1, 16), 7)
    add(_simple("T1.25", "proven", S.T, 1, "full", p7, x7, source="Thm 1.25", tau=w7))
    add(_simple("T1.25-b", "proven", S.T, 16, "full", p7, x7, source="Thm 1.25",
                tau=(F(1, 8), F(1, 8), 7)))
    add(_simple("T1.26", "proven", S.D, 8, "full", _rc(8, 1), x2, source="Thm 1.26",
                tau=(F(1, 6), F(1, 6), 2)))
    add(_simple("T1.27", "proven", S.D, -2, "full", _rc(12, 1), x3, source="Thm 1.27",
                tau=(F(1, 2), F(1, 6), 3)))
    add(_simple("T1.27-b", "proven", S.D, -32, "full", _rc(24, 1), x3,
                source="Thm 1.27", tau=(F(1, 2), F(1, 3), 3)))
    add(CongruenceSpec(
        "T1.28", "proven", S.D, -8, "full", 3, _rc(24, 1, 5),
        (
            _quadratic(_rc(24, 1), FormSpec(1, 6, 1)),
            _quadratic(_rc(24, 5), FormSpec(2, 3, 1)),
        ),
        "Thm 1.28", (F(1, 2), F(1, 6), 6),
    ))
    add(_simple("T1.29", "proven", S.A, -1, "full", p3, x3, source="Thm 1.29",
                tau=(F(1, 2), F(1, 6), 3)))

    # cited rows: proved elsewhere, swept to validate the encoding
    add(CongruenceSpec(
        "I1.2", "cited", S.CB3, 64, "half", 3, _ALWAYS,
        (
            _quadratic(_rc(4, 1), x4),
            Branch(_rc(4, 3), None,
                   InvBinomSq(Fraction(-1), FloorExpr(1, -1, 2), FloorExpr(1, -3, 4))),
        ),
        "(1.2)",
    ))
    add(_simple("I1.3", "cited", S.CB3, -512, "half", p4, x4, char=2, source="(1.3)"))
    add(CongruenceSpec(
        "R20.1", "cited", S.T, 4, "full", 3, _ALWAYS,
        (
            _quadratic(_rc(4, 1), x4),
            Branch(_rc(4, 3), None,
                   InvBinomSq(Fraction(-1, 4), FloorExpr(1, -3, 2), FloorExpr(1, -3, 4))),
        ),
        "[20]",
    ))
    add(CongruenceSpec(
        "R20.2", "cited", S.T, 1, "full", 2, _rc(7, 1, 2, 3, 4, 5, 6),
        (
            _quadratic(_rc(7, 1, 2, 4), x7),  # mod p^2: its p^2/(4x^2) term vanishes
            Branch(_rc(7, 3, 5, 6), None, ZeroRhs()),
        ),
        "[20]", w7,
    ))
    add(_simple("R9.2", "cited", S.A, 1, "full", p8, x2, source="(9.4)",
                tau=(F(1, 3), F(1, 6), 2)))

    # conjectural rows (explicit right-hand sides only)
    for suffix, cls, rho in (("-b", 3, Fraction(-11)), ("-c", 5, Fraction(-11, 16)),
                             ("-d", 6, Fraction(-11, 4))):
        add(CongruenceSpec(
            f"I1.1{suffix}", "conjectural", S.CB3, 1, "full", 3, _rc(7, cls),
            (Branch(_ALWAYS, None, InvBinomSq(rho, FloorExpr(3, 0, 7), FloorExpr(1, 0, 7))),),
            "(1.1)", t7,
        ))
    for suffix, cls, rho in (("-b", 5, Fraction(1, 3)), ("-c", 7, Fraction(-3, 2))):
        add(CongruenceSpec(
            f"I1.4{suffix}", "conjectural", S.CB4, 256, "full", 3, _rc(8, cls),
            (Branch(_ALWAYS, None, InvBinomSq(rho, FloorExpr(1, 0, 4), FloorExpr(1, 0, 8))),),
            "(1.4)", u2,
        ))
    add(CongruenceSpec(
        "I1.5-b", "conjectural", S.CB6, 12**3, "full", 3, _rc(4, 3),
        (Branch(_ALWAYS, None,
                InvBinomSq(Fraction(5, 12), FloorExpr(1, -3, 2), FloorExpr(1, -3, 4)),
                -3),),
        "(1.5)",
    ))
    squares_rhs = InvBinomSq(Fraction(3, 4), FloorExpr(1, -3, 2), FloorExpr(1, -3, 4))
    for suffix, mm, tau in (("", 8, s1), ("-b", -16, s2)):
        add(CongruenceSpec(
            f"C22.29{suffix}", "conjectural", S.V, mm, "full", 3, _rc(12, 7, 11),
            (Branch(_ALWAYS, None, squares_rhs),), "Conj 22.29", tau,
        ))
    ids = [s.id for s in rows]
    assert len(ids) == len(set(ids)), "duplicate catalog ids"
    return rows


@functools.cache
def _by_id() -> dict[str, CongruenceSpec]:
    return {spec.id: spec for spec in catalog()}


def lookup(spec_id: str) -> CongruenceSpec:
    try:
        return _by_id()[spec_id]
    except KeyError:
        raise KeyError(f"unknown congruence id {spec_id!r}") from None


def catalog_ids(statuses: tuple[str, ...] = ("proven",)) -> list[str]:
    return [s.id for s in catalog() if s.status in statuses]


def catalog_forms() -> list[FormSpec]:
    """Every distinct quadratic form used by some branch."""
    return list(dict.fromkeys(branch.rep for spec in catalog()
                              for branch in spec.branches if branch.rep is not None))


# -- per-prime evaluation ------------------------------------------------------


# P(n), from Recurrence.P, and Q(n) = e n^6 of each RECURRENCES row, for
# n = 0, 1, ...: they do not depend on p, so each process builds them once, on
# first use, and extends them when a larger p asks for more.  The key is the row
# itself, so a changed row gets tables of its own.
_COEFFICIENTS: dict[Recurrence, tuple[list[int], list[int]]] = {}


def coefficients(rec: Recurrence, count: int) -> tuple[list[int], list[int]]:
    """The tables P and Q of rec, each holding at least count values.  Every
    caller shares them, so none may modify them."""
    P, Q = _COEFFICIENTS.setdefault(rec, ([], []))
    if len(P) < count:
        e = rec.e
        new = range(len(P), count)
        P.extend(map(rec.P, new))
        Q.extend([e * n**6 for n in new])
    return P, Q


# The walk's pair weights (n+1)^3 and (n(n+1))^3 for n = 0, 1, ...: they
# depend on neither p nor the row, so each process builds one table on first
# use and extends it when a larger p asks for more.
_PAIR_WEIGHTS: tuple[list[int], list[int]] = ([], [])


def pair_weights(count: int) -> tuple[list[int], list[int]]:
    """The tables (n+1)^3 and (n(n+1))^3, each holding at least count values.
    Every caller shares them, so none may modify them."""
    cubes, products = _PAIR_WEIGHTS
    if len(cubes) < count:
        new = range(len(cubes), count)
        cubes.extend([(n + 1) ** 3 for n in new])
        products.extend([(n * (n + 1)) ** 3 for n in new])
    return _PAIR_WEIGHTS


class PrimeContext:
    """All of the sweep's work at p that rows at p share: each form's
    representation and, for the families in shared, the cofactorial table and
    the family's terms, each made once.

    lhs_sum walks a row of any other family on its own (see _walk).  sweep
    shares exactly the families that have two or more of its rows: on the
    full catalog's left sides at p <= 300 the shared terms took 50 ms where a
    walk per row took 150 ms, while one lone row walks in about half the time
    of building the table and the terms for it alone.  The default, every
    family, keeps a context made as PrimeContext(p) on the shared path.
    terms keeps one term per index, each reduced, so that a row reads any
    prefix of it; lhs_sum pairs them up.

    Every index here is below p, so every factorial is a p-adic unit: terms
    need no division, and lhs_sum and rhs_value each invert once.
    """

    def __init__(self, p: int, shared: frozenset[SequenceId] = frozenset(SequenceId)):
        if p < 3 or not is_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        self.p = p
        self.pk = p**3
        self.shared = shared
        self._terms: dict[SequenceId, list[int]] = {}
        self._reps: dict[FormSpec, QuadRep | None] = {}

    @functools.cached_property
    def table(self) -> list[int]:
        """n! mod p^3 for n < p.  No check reads it; it stays because
        perfbench's traced sweep times it and a test pins it."""
        table = [1] * self.p
        for n in range(1, self.p):
            table[n] = table[n - 1] * n % self.pk
        return table

    @functools.cached_property
    def cofactorials(self) -> list[int]:
        """c_n = ((p-1)!/n!)^3 mod p^3 for n < p, from c_{p-1} = 1 down by
        c_{n-1} = c_n n^3."""
        pk = self.pk
        c = [1] * self.p
        for n in range(self.p - 1, 0, -1):
            c[n - 1] = c[n] * (n * n * n) % pk
        return c

    def representation(self, form: FormSpec) -> QuadRep | None:
        """represent(p, form), solved once per form at this p."""
        if form not in self._reps:
            self._reps[form] = represent(self.p, form)
        return self._reps[form]

    def terms(self, seq: SequenceId) -> list[int]:
        """t_n = a_n ((p-1)!)^3 mod p^3 for n < p, every n on one scale.  One loop,
        the same for every family, runs its RECURRENCES row times (n!)^3, which
        never divides, x_{n+1} = P(n) x_n - Q(n) x_{n-1}, x_0 = 1, for
        x_n = a_n (n!)^3, with P and Q read from the row's coefficient tables,
        and stores t_n = x_n c_n."""
        if seq not in self._terms:
            rec = RECURRENCES[seq]
            P, Q = coefficients(rec, self.p - 1)
            pk, cof = self.pk, self.cofactorials
            prev, cur, terms = 0, 1, [cof[0]]
            for pn, qn, cn in zip(P, Q, cof[1:]):
                prev, cur = cur, (pn * cur - qn * prev) % pk
                terms.append(cur * cn % pk)
            self._terms[seq] = terms
        return self._terms[seq]


def _walk(rec: Recurrence, m: int, limit: int, modulus: int) -> int:
    """Z_{L+1} = (L!)^3 m^L sum_{k<=L} a_k m^-k mod modulus, L = limit, in one
    pass: the row's recurrence for x_n = a_n (n!)^3, the same step for every
    family, x_{n+1} = P(n) x_n - Q(n) x_{n-1}, steps together with the
    accumulating product Z_{n+1} = n^3 m Z_n + x_n (the form of Costa, Gerbicz &
    Harvey's Wilson-prime search).  Each pass merges the steps at n and n+1, the
    first level of their product tree, from (x_{n-1}, x_n, Z_n):

        x_{n+1} = P(n) x_n - Q(n) x_{n-1}
        Z_{n+2} = (n(n+1))^3 m^2 Z_n + (n+1)^3 m x_n + x_{n+1}
        x_{n+2} = P(n+1) x_{n+1} - Q(n+1) x_n

    three reductions for two indices, with the weights from pair_weights.  An
    even count L+1 of indices starts from (x_{-1}, x_0, Z_0) = (0, 1, 0) at
    n = 0, an odd one from (x_0, x_1, Z_1) = (1, P(0), 1) at n = 1.  The walk
    builds no table that depends on p, and a half row stops at (p-1)/2."""
    P, Q = coefficients(rec, limit + 1)
    cubes, products = pair_weights(limit)
    m2 = m * m % modulus
    if limit % 2:
        start, prev, cur, z = 0, 0, 1, 0
    else:
        start, prev, cur, z = 1, 1, P[0], 1
    for p0, p1, q0, q1, w1, w2 in zip(P[start:limit:2], P[start + 1:limit + 1:2],
                                      Q[start:limit:2], Q[start + 1:limit + 1:2],
                                      cubes[start:limit:2], products[start:limit:2]):
        nxt = (p0 * cur - q0 * prev) % modulus
        z = (z * m2 * w2 + cur * m * w1 + nxt) % modulus
        prev, cur = nxt, (p1 * nxt - q1 * cur) % modulus
    return z


def _factorial_mod(n: int, modulus: int) -> int:
    """n! mod modulus in time linear in n: exact products of 32 factors at a
    time, each reduced.  At n = 99990 this took 12 ms where the exact
    math.factorial(n) took 286 ms (2-core Xeon, Python 3.11.7)."""
    f = 1
    for lo in range(1, n + 1, 32):
        f = f * prod(range(lo, min(lo + 32, n + 1))) % modulus
    return f


def lhs_sum(spec: CongruenceSpec, p: int, ctx: PrimeContext | None = None) -> int:
    """sum_{k<=L} a_k m^-k mod p^mod_exp; it raises ValueError when p | m.

    A family in ctx.shared reads the context's terms t_k = a_k ((p-1)!)^3:
    Horner in m, two terms a step, z <- z m^2 + t_k m + t_{k+1} for
    k = 0, 2, .., with m^2 mod p^3 made once per row and one zero term put in
    front when the count L+1 is odd, gives z = ((p-1)!)^3 m^L times the sum.
    Any other row, and every row without a context, walks (_walk), which gives
    z = (L!)^3 m^L times the sum.  Either way one inversion of the scale
    finishes it.
    """
    if ctx is None:
        ctx = PrimeContext(p, frozenset())
    pk = ctx.pk
    mm = spec.m % pk
    limit = (p - 1) // 2 if spec.limit == "half" else p - 1
    if spec.sequence in ctx.shared:
        terms = ctx.terms(spec.sequence)[:limit + 1]
        if len(terms) % 2:
            terms.insert(0, 0)
        m2 = mm * mm % pk
        pairs = iter(terms)
        z = 0
        for t0, t1 in zip(pairs, pairs):
            z = (z * m2 + t0 * mm + t1) % pk
        cube = ctx.cofactorials[0]
    else:
        z = _walk(RECURRENCES[spec.sequence], mm, limit, pk)
        cube = pow(_factorial_mod(limit, pk), 3, pk)
    return z * pow(cube * pow(mm, limit, pk), -1, pk) % p**spec.mod_exp


def rhs_value(
    spec: CongruenceSpec,
    branch: Branch,
    p: int,
    rep: QuadRep | None,
    ctx: PrimeContext,
) -> int:
    """The branch's right-hand side times (character/p) mod p^mod_exp: one fraction
    num/den mod p^3, one inversion.  QF: den = r4 x^2, num = (r1 x^2 + r2 p) den
    + r3 p^2.  InvBinomSq(rho, n, r): num = rho_num p^2 and den = rho_den C(n, r)^2,
    where C(n, r) is a unit as n < p, and only its residue mod p matters."""
    rhs = branch.rhs
    if isinstance(rhs, ZeroRhs):
        return 0
    if isinstance(rhs, QF):
        if rep is None:
            raise ValueError("quadratic template needs a representation")
        x2 = rep.x * rep.x
        den = rhs.r4 * x2
        num = (rhs.r1 * x2 + rhs.r2 * p) * den + rhs.r3 * p * p
    else:
        n = rhs.top.eval(p)
        r = rhs.bottom.eval(p)
        if not (0 <= r <= n < p):
            raise ValueError(f"binomial arguments out of range at p={p}")
        num = rhs.rho.numerator * p * p
        den = rhs.rho.denominator * comb(n, r) ** 2
    val = num * pow(den, -1, ctx.pk)
    return jacobi(branch.character, p) * val % p**spec.mod_exp


def verify(spec: CongruenceSpec, p: int, ctx: PrimeContext | None = None) -> Row:
    """Outcome of one (congruence, prime) check; every failure is data.

    The row carries the spec's catalog status; the detail of a failing row
    that is not proven starts with that status word.
    """
    def skip(reason: str) -> Row:
        return Row(spec.id, p, "skip", reason, status=spec.status)

    if spec.m % p == 0:
        return skip(SKIP_DIVIDES_M)
    if not spec.qualifies(p):
        return skip(SKIP_PREDICATE)
    branch = spec.match_branch(p)
    if branch is None:
        return skip(SKIP_BRANCH_ANOMALY)
    if ctx is None:
        ctx = PrimeContext(p, frozenset())  # a row checked alone walks
    rep = None
    if branch.rep is not None:
        rep = ctx.representation(branch.rep)
        if rep is None:
            return skip(SKIP_REPRESENTABILITY_ANOMALY)
    lhs = lhs_sum(spec, p, ctx)
    rhs = rhs_value(spec, branch, p, rep, ctx)
    outcome = "pass" if lhs == rhs else "fail"
    detail = ""
    if outcome == "fail":
        detail = f"lhs-rhs={(lhs - rhs) % p ** spec.mod_exp}"
        if spec.status != "proven":
            detail = f"{spec.status} {detail}"
    return Row(
        spec.id, p, outcome, detail, lhs, rhs,
        rep.x if rep else None, rep.y if rep else None, spec.status,
    )


def _sweep_chunk(args) -> list[Row]:
    specs, shared, primes = args
    rows = []
    for p in primes:
        ctx = PrimeContext(p, shared)
        for spec in specs:
            try:
                rows.append(verify(spec, p, ctx))
            except Exception as exc:  # one broken (spec, p) pair must not lose the sweep
                rows.append(error_row(spec.id, p, exc, spec.status))
    return rows


def sweep(
    spec_ids: list[str],
    lo: int,
    hi: int,
    workers: int = 1,
) -> Report:
    """Verify the named congruences at every prime p >= MIN_P in [lo, hi].

    Each id is looked up once, here, so an unknown one raises KeyError before
    any check runs.  A family with two or more of the rows shares one term
    list per prime; the row of a family with one row walks (see _walk).  The
    choice depends on the rows alone, never on p.  Work is split by prime,
    over at most one process per prime; the report is sorted (spec id, then
    p), so output is identical for any worker count.  Only workers > 1
    imports multiprocessing, so a serial sweep does not pay for its import.
    """
    if lo > hi:
        raise ValueError("empty prime range")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    specs = [lookup(sid) for sid in spec_ids]
    rows_per_family = Counter(spec.sequence for spec in specs)
    shared = frozenset(seq for seq, n in rows_per_family.items() if n > 1)
    primes = primes_in(max(lo, MIN_P), hi)
    workers = min(workers, len(primes))  # a process per prime at most
    # interleave primes so chunks carry comparable work
    chunks = [(specs, shared, primes[i::workers]) for i in range(workers)]
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_sweep_chunk, chunks)
    else:
        results = map(_sweep_chunk, chunks)
    report = Report([row for rows in results for row in rows])
    report.sort()
    return report
