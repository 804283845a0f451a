import random
from math import gcd

import pytest

from conftest import (
    burau_generator,
    burau_matmul,
    equal_up_to_units,
    generator_product,
    random_knot_word,
    random_word,
)
import twistsum.burau as burau_mod
from twistsum import (
    BraidWord,
    InternalInvariantViolation,
    LaurentPoly,
    NotAKnot,
    NotAlexanderLike,
    NotDivisible,
    alexander_from_braid,
    alexander_span,
    braid_connected_sum,
    braid_mirror,
    knot_determinant,
    torus_alexander_closed,
    torus_braid,
    twisted_torus_braid,
)
from twistsum.burau import BurauMatrix, burau_of_word
from twistsum.laurent import normalize_alexander

MINUS_T = LaurentPoly.monomial(1, -1)


# The first five tests check the dense reference in conftest.py that the
# column updates of burau_of_word are compared against.


def test_generator_smallest_case():
    g = burau_generator(2, 1)
    assert len(g.entries) == 1
    assert g.entries[0][0] == MINUS_T
    assert burau_generator(2, -1).entries[0][0] == LaurentPoly.monomial(-1, -1)


def test_generator_inverse_pairs():
    for n in range(2, 6):
        for i in range(1, n):
            assert generator_product(n, (i, -i)) == BurauMatrix.identity(n - 1)
            assert generator_product(n, (-i, i)) == BurauMatrix.identity(n - 1)


def test_braid_relation_n3():
    a, b = burau_generator(3, 1), burau_generator(3, 2)
    assert burau_matmul(burau_matmul(a, b), a) == burau_matmul(burau_matmul(b, a), b)


def test_braid_relations_through_n5():
    for n in range(3, 6):
        for i in range(1, n - 1):
            assert generator_product(n, (i, i + 1, i)) == generator_product(n, (i + 1, i, i + 1))
        for i in range(1, n):
            for j in range(i + 2, n):
                assert generator_product(n, (i, j)) == generator_product(n, (j, i))


def test_generator_rejects_bad_input():
    with pytest.raises(ValueError):
        burau_generator(1, 1)
    with pytest.raises(ValueError):
        burau_generator(3, 3)
    with pytest.raises(ValueError):
        burau_generator(3, 0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        burau_matmul(burau_generator(3, 1), burau_generator(4, 1))


def test_burau_of_word_basics():
    assert burau_of_word(BraidWord(4, ())) == BurauMatrix.identity(3)
    assert burau_of_word(BraidWord(2, (1,))).entries[0][0] == MINUS_T
    cube = burau_of_word(BraidWord(2, (1, 1, 1)))
    assert cube.entries[0][0] == LaurentPoly.monomial(3, -1)
    with pytest.raises(ValueError, match="at least 2 strands"):
        burau_of_word(BraidWord(1, ()))
    with pytest.raises(ValueError, match="square"):
        BurauMatrix(((LaurentPoly.one(), LaurentPoly.zero()),))


def test_burau_of_word_matches_generator_products():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 5)
        w = random_word(rng, n, rng.randint(0, 8))
        assert burau_of_word(w) == generator_product(n, w.letters)


def test_alexander_small_knots():
    assert alexander_from_braid(torus_braid(2, 3)) == LaurentPoly({0: 1, 1: -1, 2: 1})
    assert alexander_from_braid(torus_braid(2, 1)) == LaurentPoly.one()
    assert alexander_from_braid(BraidWord(1, ())) == LaurentPoly.one()


def test_alexander_rejects_links():
    with pytest.raises(NotAKnot):
        alexander_from_braid(torus_braid(2, 2))


@pytest.mark.parametrize("det, cause", [
    (LaurentPoly.one(), NotDivisible),  # not a multiple of 1 + t + t^2
    (LaurentPoly({0: 2, 1: 2, 2: 2}), NotAlexanderLike),  # quotient 2, not +-1 at t = 1
])
def test_alexander_guards_reject_a_wrong_determinant(monkeypatch, det, cause):
    monkeypatch.setattr(burau_mod, "_det_bareiss", lambda rows: det)
    with pytest.raises(InternalInvariantViolation) as raised:
        alexander_from_braid(torus_braid(3, 4))
    assert isinstance(raised.value.__cause__, cause)


def test_alexander_torus_oracle():
    for p in range(2, 8):
        for q in range(p + 1, 8):
            if gcd(p, q) != 1:
                continue
            assert alexander_from_braid(torus_braid(p, q)) == torus_alexander_closed(p, q)


def test_alexander_first_family_example():
    got = alexander_from_braid(twisted_torus_braid(9, 5, 7, -1))
    want = normalize_alexander(torus_alexander_closed(2, 3) * torus_alexander_closed(2, 5))
    assert got == want
    assert want == LaurentPoly({0: 1, 1: -2, 2: 3, 3: -3, 4: 3, 5: -2, 6: 1})


def test_alexander_multiplicative_under_connected_sum():
    # The stated product equals both the polynomial product of the factors
    # and the braid-level computation on the joined word.
    joined = braid_connected_sum(torus_braid(2, 3), torus_braid(2, -5))
    product = normalize_alexander(
        LaurentPoly({0: 1, 1: -1, 2: 1}) * LaurentPoly({0: 1, 1: -1, 2: 1, 3: -1, 4: 1})
    )
    assert alexander_from_braid(joined) == product

    rng = random.Random(8)
    for _ in range(25):
        b1 = random_knot_word(rng, 4, 10)
        b2 = random_knot_word(rng, 4, 10)
        lhs = alexander_from_braid(braid_connected_sum(b1, b2))
        rhs = normalize_alexander(alexander_from_braid(b1) * alexander_from_braid(b2))
        assert lhs == rhs


def test_alexander_markov_invariance():
    rng = random.Random(9)
    for _ in range(60):
        w = random_knot_word(rng, 5, 14)
        base = alexander_from_braid(w)
        conj = rng.choice([s * i for s in (1, -1) for i in range(1, w.strands)])
        conjugated = BraidWord(w.strands, (conj,) + w.letters + (-conj,))
        assert alexander_from_braid(conjugated) == base
        stabilized = BraidWord(w.strands + 1, w.letters + (rng.choice([1, -1]) * w.strands,))
        assert alexander_from_braid(stabilized) == base


def test_alexander_mirror_blind():
    rng = random.Random(10)
    for _ in range(25):
        w = random_knot_word(rng, 5, 12)
        assert alexander_from_braid(braid_mirror(w)) == alexander_from_braid(w)


def test_alexander_palindromic():
    rng = random.Random(11)
    for _ in range(25):
        p = alexander_from_braid(random_knot_word(rng, 5, 12))
        assert equal_up_to_units(p, p.invert_var())


def test_knot_determinant():
    assert knot_determinant(torus_braid(2, 3)) == 3
    assert knot_determinant(BraidWord(1, ())) == 1
    assert knot_determinant(twisted_torus_braid(9, 5, 7, -1)) == 15


def test_alexander_span():
    assert alexander_span(LaurentPoly({0: 1, 1: -1, 2: 1})) == 2
    assert alexander_span(LaurentPoly.one()) == 0
    assert alexander_span(alexander_from_braid(twisted_torus_braid(9, 5, 7, -1))) == 6
    with pytest.raises(ValueError):
        alexander_span(LaurentPoly.zero())
