"""The packed-integer Bareiss determinant and the Alexander pipeline against an independent oracle."""

import random

import pytest

import twistsum.burau as burau
from conftest import alexander_from_pd, det_cofactor, random_knot_word
from twistsum import (
    BraidWord,
    InternalInvariantViolation,
    LaurentPoly,
    alexander_from_braid,
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
