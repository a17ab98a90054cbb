"""Representations c*p = a*x^2 + d*y^2 and the p-adic facts hanging off them.

The solver is a deliberately simple O(sqrt(p)) search: at sweep scale it is
instant and obviously correct, and it doubles as the oracle for the
representability predicates in the congruence catalog.  The p-adic side lifts
the square root x/y of -d mod p to p^4 by Newton's method and checks the
degree-4 expansions of x + y*sqrt(-d) and its square.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .arith import is_prime


@dataclass(frozen=True)
class FormSpec:
    """The form a*x^2 + d*y^2 representing c*p."""

    a: int
    d: int
    c: int


@dataclass(frozen=True)
class QuadRep:
    x: int
    y: int
    form: FormSpec
    p: int


def represent(p: int, form: FormSpec) -> QuadRep | None:
    """Solve c*p = a*x^2 + d*y^2 with x > 0, y >= 0; least y wins.

    Returns None when no representation exists (absence is data: the harness
    cross-checks it against the catalog predicate).
    """
    a, d, c = form.a, form.d, form.c
    target = c * p
    y = 0
    while d * y * y < target:
        rem = target - d * y * y
        if rem % a == 0:
            x2 = rem // a
            x = math.isqrt(x2)
            if x * x == x2:
                return QuadRep(x, y, form, p)
        y += 1
    return None


def unit_leading(rep: QuadRep) -> QuadRep:
    """Rescale a=2 representations to an equivalent a=1 one.

    p = 2x^2 + dy^2 doubles to 2p = (2x)^2 + (2d)y^2, which is the shape the
    p-adic expansion lemma speaks about.
    """
    f = rep.form
    if f.a == 1:
        return rep
    if f.a == 2:
        return QuadRep(2 * rep.x, rep.y, FormSpec(1, 2 * f.d, 2 * f.c), rep.p)
    raise ValueError(f"unsupported leading coefficient {f.a}")


@dataclass(frozen=True)
class Lemma23Result:
    ok: bool
    p: int
    form: FormSpec  # the a = 1 form that was checked: c*p = x^2 + d*y^2
    x: int
    y: int
    diff_linear: int  # residual of the expansion of x + y*sqrt(-d), 0 on pass
    diff_square: int  # residual of the expansion of its square, 0 on pass


def lemma23_check(rep: QuadRep) -> Lemma23Result:
    """Check both degree-4 p-adic expansions of A = x + y*sqrt(-d) mod p^4.

    With c*p = x^2 + d*y^2 and A a unit, A and A^2 admit closed expansions
    in powers of p with denominators that are powers of 2x:

        A   = 2x - cp/(2x) - c^2 p^2/(8x^3) - c^3 p^3/(16x^5)   mod p^4
        A^2 = 4x^2 - 2cp - c^2 p^2/(4x^2) - c^3 p^3/(8x^4)      mod p^4

    With t = cp/(4x^2), which has p-adic valuation >= 1, these read
    A = 2x(1 - t - t^2 - 2t^3) and A^2 = 4x^2(1 - 2t - t^2 - 2t^3): the
    Catalan series of A = x(1 + sqrt(1 - 4t)) cut after t^3.

    The root of -d is known mod p, as x/y, since c*p = x^2 + d*y^2; two Newton
    steps lift it to p^4.  Then A = 2x mod p is the unit root of z^2 - 2xz + cp.
    p cannot divide y: with a = 1, p | y would force p | x, which raises.
    """
    p = rep.p
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    u = unit_leading(rep)
    x, y, d, c = u.x, u.y, u.form.d, u.form.c
    pk = p**4
    if x % p == 0:
        raise ValueError("p divides x; representation violates preconditions")
    r = x * pow(y, -1, p)
    for _ in range(2):  # each step doubles the p-adic precision: p^2, then p^4
        r = (r - (r * r + d) * pow(2 * r, -1, pk)) % pk
    a_val = (x + y * r) % pk
    t = c * p * pow(4 * x * x, -1, pk) % pk
    t2 = t * t % pk
    t3 = t2 * t % pk
    rhs1 = 2 * x * (1 - t - t2 - 2 * t3) % pk
    rhs2 = 4 * x * x * (1 - 2 * t - t2 - 2 * t3) % pk
    diff1 = (a_val - rhs1) % pk
    diff2 = (a_val * a_val - rhs2) % pk
    return Lemma23Result(diff1 == 0 and diff2 == 0, p, u.form, x, y, diff1, diff2)


def lemma23_trials(forms: list[FormSpec], trials: int, seed: int) -> list[Lemma23Result]:
    """Run lemma23_check on `trials` seeded random (form, p) cases.

    Each case draws a form from `forms` and then p from [3, 10^4); draws with
    p composite, p dividing 2*a*d*c, or c*p not represented by the form are
    skipped and do not count.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    out = []
    while len(out) < trials:
        form = rng.choice(forms)
        p = rng.randrange(3, 10_000)
        if not is_prime(p) or (2 * form.a * form.d * form.c) % p == 0:
            continue
        rep = represent(p, form)
        if rep is None:
            continue
        out.append(lemma23_check(rep))
    return out
