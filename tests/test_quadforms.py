import functools
import random

import pytest

from supercong.arith import primes_in
from supercong.congruence import PrimeContext, catalog_forms
from supercong.quadforms import (
    FormSpec,
    QuadRep,
    lemma23_check,
    lemma23_trials,
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


LEMMA23_EXAMPLES = ((29, FormSpec(1, 7, 1)), (13, FormSpec(1, 4, 1)), (5, FormSpec(1, 11, 4)))


def test_lemma23_examples():
    for p, form in LEMMA23_EXAMPLES:
        rep = represent(p, form)
        res = lemma23_check(rep)
        assert res.ok, res


@functools.cache
def _catalog_representations() -> list[QuadRep]:
    """Each catalog form at each prime 3 <= p < 3000 with p not dividing 2adc
    that it represents."""
    reps = []
    for form in catalog_forms():
        for p in primes_in(3, 2999):
            if (2 * form.a * form.d * form.c) % p:
                rep = represent(p, form)
                if rep is not None:
                    reps.append(rep)
    return reps


def test_lemma23_holds_for_every_catalog_form_below_3000():
    reps = _catalog_representations()
    assert len(reps) > 3000
    for rep in reps:
        res = lemma23_check(rep)
        assert res.ok, res


def test_lemma23_rejects_a_non_representation():
    """Negative control: moving x by p^e (same y) misses c*p = x^2 + d*y^2 and
    moves A = x + y*sqrt(-d) by p^e but its expansion by 2p^e, so the check
    fails exactly at p^(e+1); e = 3 needs the whole p^4 modulus."""
    for rep in _catalog_representations():
        p = rep.p
        for e in (1, 2, 3):
            res = lemma23_check(QuadRep(rep.x + p**e, rep.y, rep.form, p))
            assert not res.ok, (e, res)
            assert res.diff_linear % p**e == 0 != res.diff_linear % p ** (e + 1), (e, res)


def test_lemma23_preconditions():
    with pytest.raises(ValueError, match="p divides x"):
        lemma23_check(QuadRep(29, 2, FormSpec(1, 7, 1), 29))
    for p in (-3, 0, 1, 2, 4, 9):
        with pytest.raises(ValueError, match="odd prime"):
            lemma23_check(QuadRep(1, 1, FormSpec(1, 7, 1), p))
        with pytest.raises(ValueError, match="odd prime"):
            PrimeContext(p)


def test_lemma23_random_catalog_forms():
    forms = catalog_forms()
    assert len(forms) >= 15
    for res in lemma23_trials(forms, 100, 41):
        assert res.ok, res


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
