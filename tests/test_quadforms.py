import random

import pytest

from supercong.arith import Modulus, jacobi, primes_in, sqrt_mod_pk
from supercong.congruence import catalog_forms
from supercong.quadforms import (
    FormSpec,
    QuadRep,
    lemma23_check,
    lemma23_trials,
    padic_root_select,
    represent,
    unit_leading,
)


def test_represent_examples():
    assert represent(29, FormSpec(1, 7, 1)) == QuadRep(1, 2, FormSpec(1, 7, 1), 29)
    assert represent(13, FormSpec(1, 4, 1)) == QuadRep(3, 1, FormSpec(1, 4, 1), 13)
    assert represent(5, FormSpec(1, 11, 4)) == QuadRep(3, 1, FormSpec(1, 11, 4), 5)
    assert represent(5, FormSpec(1, 7, 1)) is None


def test_represent_exhaustive_check():
    rng = random.Random(31)
    for _ in range(200):
        p = rng.choice(primes_in(3, 500))
        form = FormSpec(rng.choice((1, 2)), rng.randint(1, 30), rng.choice((1, 2, 4)))
        rep = represent(p, form)
        solutions = [
            (x, y)
            for y in range(0, form.c * p)
            if form.d * y * y <= form.c * p
            for x in range(1, form.c * p)
            if form.a * x * x + form.d * y * y == form.c * p
        ]
        if rep is None:
            assert not solutions
        else:
            assert (rep.x, rep.y) in solutions
            assert rep.y == min(y for _, y in solutions)


def test_unit_leading():
    rep = represent(5, FormSpec(2, 3, 1))
    assert (rep.x, rep.y) == (1, 1)
    scaled = unit_leading(rep)
    assert (scaled.x, scaled.y) == (2, 1)
    assert scaled.form == FormSpec(1, 6, 2)
    assert scaled.form.c * 5 == scaled.x**2 + scaled.form.d * scaled.y**2


def test_padic_root_select():
    m = Modulus.make(29, 4)
    rep = represent(29, FormSpec(1, 7, 1))
    r = padic_root_select(rep, m)
    assert r * r % m.pk == -7 % m.pk
    assert (rep.x + rep.y * r) % 29 != 0

    m13 = Modulus.make(13, 4)
    rep13 = represent(13, FormSpec(1, 4, 1))
    r13 = padic_root_select(rep13, m13)
    assert (rep13.x + rep13.y * r13) % 13 != 0

    # y = 0 mod p: x is a unit, so either root is acceptable
    m3 = Modulus.make(3, 2)
    assert sqrt_mod_pk(-5 % 9, m3) is not None
    root = padic_root_select(QuadRep(1, 0, FormSpec(1, 5, 2), 3), m3)
    assert (1 + 0 * root) % 3 != 0


LEMMA23_EXAMPLES = ((29, FormSpec(1, 7, 1)), (13, FormSpec(1, 4, 1)), (5, FormSpec(1, 11, 4)))


def test_lemma23_examples():
    for p, form in LEMMA23_EXAMPLES:
        rep = represent(p, form)
        res = lemma23_check(rep)
        assert res.ok, res


def test_lemma23_rejects_a_non_representation():
    """Negative control: x + p with the same y misses c*p = x^2 + d*y^2, so
    the expansion of x + y*sqrt(-d) fails already mod p^2."""
    for p, form in LEMMA23_EXAMPLES:
        rep = represent(p, form)
        res = lemma23_check(QuadRep(rep.x + p, rep.y, form, p))
        assert not res.ok and res.diff_linear % (p * p) != 0, (p, form, res)


def test_lemma23_random_catalog_forms():
    forms = catalog_forms()
    assert len(forms) >= 15
    for form, res in lemma23_trials(forms, 100, 41):
        assert res.ok, (form, res.p, res)


def test_representability_matches_residue_classes_for_intro_forms():
    # p = x^2 + d y^2 (x > 0) solvable exactly on the stated classes
    for p in primes_in(3, 500):
        assert (represent(p, FormSpec(1, 7, 1)) is not None) == (p % 7 in (1, 2, 4))
        assert (represent(p, FormSpec(1, 4, 1)) is not None) == (p % 4 == 1)
        assert (represent(p, FormSpec(1, 3, 1)) is not None) == (p % 3 == 1)
        assert (represent(p, FormSpec(1, 2, 1)) is not None) == (p % 8 in (1, 3))


@pytest.mark.parametrize("trials", [0, -3])
def test_lemma23_trials_rejects_no_trials(trials):
    with pytest.raises(ValueError, match="trials"):
        lemma23_trials(catalog_forms(), trials, seed=1)
