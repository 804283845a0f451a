"""The packed-integer Bareiss determinant and the Alexander pipeline against an independent oracle."""

import random
from types import SimpleNamespace

import pytest

import twistsum.burau as burau
from conftest import alexander_from_pd, det_cofactor, random_knot_word
from twistsum import (
    BraidWord,
    BurauMatrix,
    InternalInvariantViolation,
    LaurentPoly,
    alexander_from_braid,
    burau_generator,
    burau_of_word,
    closure_pd_code,
)

P = LaurentPoly
ZERO = LaurentPoly.zero()


def expected_det(rows):
    """Cofactor determinant of the matrix with each row shifted to minimum exponent 0."""
    shift = sum(min(p.min_exp for p in row if p) for row in rows)
    return det_cofactor(rows).shifted(-shift)


def record_widths(monkeypatch):
    widths = []
    real_unpack = burau._unpack

    def spy(base, packed, width, stride):
        widths.append(width)
        return real_unpack(base, packed, width, stride)

    monkeypatch.setattr(burau, "_unpack", spy)
    return widths


def test_one_by_one():
    assert burau._det_bareiss([[P({2: 3, 5: -5})]]) == P({0: 3, 3: -5})
    assert burau._det_bareiss([[ZERO]]) == ZERO
    assert burau._det_bareiss([]) == LaurentPoly.one()


def test_zero_first_pivot_forces_row_swap():
    rows = [
        [ZERO, P({0: 1, 1: 1}), P({1: 2})],
        [P({1: 1}), P({0: 2}), P({0: -1, 2: 1})],
        [P({0: 3}), P({-1: 1}), ZERO],
    ]
    got = burau._det_bareiss(rows)
    assert got and got == expected_det(rows)


def test_zero_later_pivot_forces_row_swap():
    # After the first step the (1, 1) entry is 1*1 - 1*1 = 0, so the second
    # step must swap in row 2.
    one = LaurentPoly.one()
    rows = [
        [one, one, ZERO, ZERO],
        [one, one, P({1: 1}), ZERO],
        [ZERO, P({0: 2}), one, P({2: -1})],
        [P({1: 1}), ZERO, P({0: 1, 1: -1}), one],
    ]
    got = burau._det_bareiss(rows)
    assert got and got == expected_det(rows)


def test_singular_matrix():
    row = [P({0: 1, 1: -1}), P({1: 2}), P({0: 5})]
    rows = [row, [p.shifted(3) * -2 for p in row], [P({0: 1}), ZERO, P({2: 7})]]
    assert det_cofactor(rows) == ZERO
    assert burau._det_bareiss(rows) == ZERO
    assert burau._det_bareiss([[P({0: 1}), ZERO], [ZERO, ZERO]]) == ZERO


def test_coefficients_near_2_to_the_70_widen_the_slots(monkeypatch):
    widths = record_widths(monkeypatch)
    big = 2 ** 70
    rows = [
        [P({0: big - 1, 1: 3}), P({2: -big}), P({0: 1})],
        [P({1: big + 5}), P({0: 7, 3: -1}), P({1: -big // 3})],
        [P({0: -2}), P({0: big - 11}), P({2: big, 4: 1})],
    ]
    got = burau._det_bareiss(rows)
    assert widths and widths[-1] > 64
    assert got == expected_det(rows)
    assert max(abs(c) for _, c in got.items()) > 2 ** 64


def test_random_small_matrices_match_cofactor_expansion():
    rng = random.Random(12)
    for _ in range(200):
        m = rng.randint(1, 4)
        rows = [
            [
                P({rng.randint(-3, 3): rng.randint(-9, 9) for _ in range(rng.randint(0, 3))})
                if rng.random() < 0.7 else ZERO
                for _ in range(m)
            ]
            for _ in range(m)
        ]
        if any(not any(row) for row in rows):
            assert burau._det_bareiss(rows) == ZERO
        else:
            assert burau._det_bareiss(rows) == expected_det(rows)


def test_corrupted_division_raises(monkeypatch):
    monkeypatch.setattr(burau, "divmod", lambda a, b: (a // b, 1), raising=False)
    rows = [
        [P({0: 2}), P({1: 1}), P({0: 1})],
        [P({0: 1}), P({0: 3}), P({2: 1})],
        [P({1: 1}), P({0: 1}), P({0: 4})],
    ]
    with pytest.raises(InternalInvariantViolation):
        burau._det_bareiss(rows)
    with pytest.raises(InternalInvariantViolation):
        alexander_from_braid(BraidWord(4, (1, -2, 3) * 3))


def test_alexander_matches_pd_matrix_oracle():
    # Mixed-sign words, so none is a (positive or negative) torus braid.
    rng = random.Random(31)
    checked = 0
    while checked < 200:
        word = random_knot_word(rng, 6, 14)
        if not min(word.letters) < 0 < max(word.letters):
            continue
        assert alexander_from_braid(word) == alexander_from_pd(closure_pd_code(word)), word
        checked += 1


def test_pd_matrix_oracle_on_known_knots():
    assert alexander_from_pd(closure_pd_code(BraidWord(2, (1, 1, 1)))) == P({0: 1, 1: -1, 2: 1})
    figure_eight = BraidWord(3, (1, -2, 1, -2))
    assert alexander_from_pd(closure_pd_code(figure_eight)) == P({0: -1, 1: 3, 2: -1})


def test_random_sparse_matrices_match_cofactor_expansion():
    rng = random.Random(41)
    checked = 0
    for _ in range(300):
        m = rng.randint(2, 7)
        density = rng.uniform(0.25, 0.35)
        rows = [
            [
                P({rng.randint(-4, 4): rng.choice((-1, 1)) * rng.randint(1, 9)
                   for _ in range(rng.randint(1, 3))})
                if rng.random() < density else ZERO
                for _ in range(m)
            ]
            for _ in range(m)
        ]
        if any(not any(row) for row in rows):
            assert burau._det_bareiss(rows) == ZERO
            continue
        got = burau._det_bareiss(rows)
        assert got == expected_det(rows), rows
        checked += bool(got)
    assert checked >= 40  # enough of them are nonsingular to test the sign


def record_divisors(monkeypatch):
    divisors = []
    real_divmod = divmod

    def spy(a, b):
        divisors.append(b)
        return real_divmod(a, b)

    monkeypatch.setattr(burau, "divmod", spy, raising=False)
    return divisors


@pytest.mark.parametrize("stale_row_is_pivot", [True, False])
def test_lazy_scaling_over_skipped_non_unit_pivots(monkeypatch, stale_row_is_pivot):
    # The pivots of steps 0, 1, 2 are 2, 6 and 30. Row 4 is updated at step 0
    # (pivot 2), has no entry in columns 1 and 2, and is touched again only
    # at step 3, so it must be caught up over the pivots 6 and 30 it skipped.
    # Its true entry in column 3 then is -3 * 30 / 2 = -45; row 3's is
    # r * 30, so r = 2 makes row 4 the pivot and r = 1 makes row 3 it.
    c = [P({0: v}) if v else ZERO for v in range(10)]
    r = 2 if stale_row_is_pivot else 1
    rows = [
        [c[2], ZERO, ZERO, c[1], ZERO],
        [ZERO, c[3], c[1], ZERO, ZERO],
        [ZERO, ZERO, c[5], ZERO, c[1]],
        [ZERO, ZERO, ZERO, c[r], c[1]],
        [c[3], ZERO, ZERO, ZERO, c[1]],
    ]
    divisors = record_divisors(monkeypatch)
    got = burau._det_bareiss(rows)
    assert got and got == expected_det(rows)
    # Only the caught-up row is divided, by the pivot it was last updated
    # with; a dense elimination would also divide by the skipped 6 and 30.
    assert divisors and set(divisors) == {2}


def test_burau_of_long_words_matches_generator_products():
    inverse_power = burau_of_word(BraidWord(2, (-1,) * 500))
    assert inverse_power.entries == ((LaurentPoly.monomial(-500),),)
    expected = BurauMatrix.identity(1)
    for _ in range(500):
        expected = expected @ burau_generator(2, -1)
    assert inverse_power == expected
    rng = random.Random(23)
    for length in (200, 400):
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(length))
        assert min(letters) < 0 < max(letters)
        expected = BurauMatrix.identity(3)
        for letter in letters:
            expected = expected @ burau_generator(4, letter)
        assert burau_of_word(BraidWord(4, letters)) == expected


def test_burau_refuses_words_that_overflow_the_exponent_field():
    class HugeLetters:  # stands in for a word of 2^31 letters without building it
        def __len__(self):
            return 2 ** 31

    with pytest.raises(ValueError, match="2\\^31 letters"):
        burau_of_word(SimpleNamespace(strands=3, letters=HugeLetters()))
