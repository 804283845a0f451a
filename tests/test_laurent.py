import random

import pytest

from conftest import equal_up_to_units
from twistsum import LaurentPoly, NotAlexanderLike, NotDivisible
from twistsum.laurent import normalize_alexander
from twistsum.knot_expr import torus_alexander_closed


def lp(terms):
    return LaurentPoly(terms)


def test_add_cancellation():
    assert lp({1: 1, 0: 1}) + lp({1: -1, 0: 1}) == lp({0: 2})


def test_add_identity():
    p = lp({-2: 3, 5: -1})
    assert LaurentPoly.zero() + p == p
    assert p + LaurentPoly.zero() == p


def test_add_disjoint_supports():
    assert lp({-1: 1}) + lp({1: 1}) == lp({-1: 1, 1: 1})


def test_mul_examples():
    assert lp({1: 1, 0: 1}) * lp({1: 1, 0: -1}) == lp({2: 1, 0: -1})
    p = lp({-3: 2, 0: -1, 4: 7})
    assert p * LaurentPoly.one() == p


def test_mul_min_exponent_adds():
    p, q = lp({-3: 2, 1: 5}), lp({-1: 1, 2: -4})
    assert (p * q).min_exp == p.min_exp + q.min_exp
    assert (p * q).max_exp == p.max_exp + q.max_exp


def test_mul_trefoil_times_cinquefoil():
    # Closed-form oracle: Alexander of the (2,k) torus knot is
    # (t^{2k} - 1)(t - 1) / ((t^2 - 1)(t^k - 1)).
    def two_strand_alexander(k):
        num = lp({2 * k: 1, 0: -1}) * lp({1: 1, 0: -1})
        den = lp({2: 1, 0: -1}) * lp({k: 1, 0: -1})
        return num.div_exact(den)

    trefoil = two_strand_alexander(3)
    cinquefoil = two_strand_alexander(5)
    assert trefoil == lp({0: 1, 1: -1, 2: 1})
    assert cinquefoil == lp({0: 1, 1: -1, 2: 1, 3: -1, 4: 1})
    product = trefoil * cinquefoil
    assert product == lp({0: 1, 1: -2, 2: 3, 3: -3, 4: 3, 5: -2, 6: 1})
    assert normalize_alexander(product) == product


def test_div_exact_examples():
    assert lp({2: 1, 0: -1}).div_exact(lp({1: 1, 0: -1})) == lp({1: 1, 0: 1})
    num = lp({6: 1, 0: -1}) * lp({1: 1, 0: -1})
    den = lp({2: 1, 0: -1}) * lp({3: 1, 0: -1})
    assert num.div_exact(den) == lp({0: 1, 1: -1, 2: 1})


def test_div_exact_not_divisible():
    with pytest.raises(NotDivisible):
        lp({2: 1, 0: -1}).div_exact(lp({1: 1, 0: 2}))


def test_div_exact_laurent_shifts():
    p = lp({-4: 3, -1: -3})
    q = lp({-2: 3})
    assert p.div_exact(q) == lp({-2: 1, 1: -1})


def test_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        LaurentPoly.one().div_exact(LaurentPoly.zero())


def test_invert_var():
    assert lp({2: 1, 1: 3}).invert_var() == lp({-2: 1, -1: 3})
    assert lp({0: 5}).invert_var() == lp({0: 5})
    p = lp({-2: 1, 0: -4, 3: 9})
    assert p.invert_var().invert_var() == p


def test_eval_unit():
    p = lp({0: 1, 1: -1, 2: 1})
    assert p.eval_unit(1) == 1
    assert p.eval_unit(-1) == 3
    assert LaurentPoly.zero().eval_unit(1) == 0
    assert LaurentPoly.zero().eval_unit(-1) == 0
    with pytest.raises(ValueError):
        p.eval_unit(2)


def test_normalize_alexander():
    base = lp({0: 1, 1: -1, 2: 1})
    assert normalize_alexander(lp({-1: -1, 0: 1, 1: -1})) == base
    assert normalize_alexander(LaurentPoly.one()) == LaurentPoly.one()
    assert normalize_alexander(lp({3: 1, 4: -1, 5: 1})) == base


def test_normalize_alexander_rejects():
    with pytest.raises(NotAlexanderLike):
        normalize_alexander(lp({1: 1, 0: -1}))  # value 0 at t=1
    with pytest.raises(NotAlexanderLike):
        normalize_alexander(LaurentPoly.zero())


def test_equal_up_to_units():
    assert equal_up_to_units(lp({0: 1, 1: -1, 2: 1}), lp({5: -1, 4: 1, 3: -1}))
    assert equal_up_to_units(LaurentPoly.one(), lp({1: 1}))
    assert not equal_up_to_units(lp({0: 1, 1: -1, 2: 1}), lp({0: 1, 1: 1, 2: 1}))
    assert equal_up_to_units(LaurentPoly.zero(), LaurentPoly.zero())
    assert not equal_up_to_units(LaurentPoly.zero(), LaurentPoly.one())


def _random_poly(rng, max_terms=6, exp_range=8, coeff_range=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[rng.randint(-exp_range, exp_range)] = rng.randint(-coeff_range, coeff_range)
    return LaurentPoly(terms)


def test_ring_axioms_random():
    rng = random.Random(20251)
    for _ in range(300):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_div_exact_inverts_mul_random():
    rng = random.Random(20252)
    for _ in range(200):
        a = _random_poly(rng)
        b = _random_poly(rng)
        if not b:
            continue
        assert (a * b).div_exact(b) == a


def test_invert_var_is_ring_homomorphism_random():
    rng = random.Random(20253)
    for _ in range(200):
        a, b = _random_poly(rng), _random_poly(rng)
        assert (a + b).invert_var() == a.invert_var() + b.invert_var()
        assert (a * b).invert_var() == a.invert_var() * b.invert_var()


def test_normalize_alexander_idempotent_random():
    rng = random.Random(20254)
    base = lp({0: 1, 1: -1, 2: 1, 3: -1, 4: 1})
    for _ in range(100):
        unit = LaurentPoly.monomial(rng.randint(-6, 6), rng.choice([1, -1]))
        out = normalize_alexander(base * unit)
        assert out == base
        assert out.min_exp == 0
        assert out.eval_unit(1) == 1
        assert normalize_alexander(out) == out


def test_pow_and_shift():
    t = LaurentPoly.monomial(1)
    assert (t + LaurentPoly.one()) ** 2 == lp({2: 1, 1: 2, 0: 1})
    assert t ** 0 == LaurentPoly.one()
    assert lp({0: 1, 2: -1}).shifted(-1) == lp({-1: 1, 1: -1})
    with pytest.raises(ValueError):
        t ** -1


def test_span_and_exponents():
    p = lp({-2: 1, 5: 3})
    assert (p.min_exp, p.max_exp, p.span) == (-2, 5, 7)
    with pytest.raises(ValueError):
        LaurentPoly.zero().min_exp


def test_hash_and_equality_structural():
    assert hash(lp({0: 1, 2: 1})) == hash(lp({2: 1, 0: 1}))
    assert lp({1: 1, 0: 0}) == lp({1: 1})


def test_json_roundtrip():
    p = lp({-3: 2, 0: -1, 7: 10 ** 30})
    obj = p.to_json_obj()
    assert obj["var"] == "t"
    assert obj["terms"] == [[-3, "2"], [0, "-1"], [7, str(10 ** 30)]]
    assert LaurentPoly.from_json_obj(obj) == p


def test_to_text():
    assert LaurentPoly.zero().to_text() == "0"
    assert lp({0: 1, 1: -1, 2: 1}).to_text() == "1 - t + t^2"
    assert lp({-1: 1, 1: 1}).to_text() == "t^-1 + t"
    assert lp({2: 3}).to_text() == "3*t^2"
    assert lp({2: -1, -2: -1}).to_text("A") == "-A^-2 - A^2"


def test_closed_form_alexander_of_t_2_10001():
    # The closed form divides by (t^2 - 1)(t^q - 1), four terms spanning
    # q + 2 exponents; Alexander of T(2, q) is 1 - t + t^2 - ... + t^(q-1).
    q = 10001
    assert torus_alexander_closed(2, q) == lp({e: (-1) ** e for e in range(q)})


def test_div_exact_inverts_mul_of_sparse_polys():
    rng = random.Random(777)

    def sparse(min_terms):
        terms = {}
        while len(terms) < min_terms:
            terms[rng.randint(-500, 500)] = rng.choice((-1, 1)) * rng.randint(1, 2 ** 40)
        return lp(terms)

    for _ in range(100):
        a, b = sparse(rng.randint(1, 5)), sparse(rng.randint(2, 5))
        product = a * b
        assert product.div_exact(b) == a
        assert product.div_exact(a) == b
        # b is no unit (it has two terms or more), so a stray monomial leaves a remainder
        with pytest.raises(NotDivisible):
            (product + lp({product.max_exp + 1: 1})).div_exact(b)
