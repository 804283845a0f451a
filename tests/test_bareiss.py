"""The packed-integer Bareiss determinant and the Alexander pipeline against an independent oracle."""

import random

import pytest

import twistsum.burau as burau
from conftest import alexander_from_pd, det_cofactor, generator_product, random_knot_word
from twistsum import (
    BraidWord,
    InternalInvariantViolation,
    LaurentPoly,
    alexander_from_braid,
    closure_pd_code,
    is_knot_closure,
    twisted_torus_braid,
)
from twistsum.burau import burau_of_word

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


def test_a_corrupted_division_by_a_non_unit_raises(monkeypatch):
    # divisions by +-1 are left exact, so the guard must hold on the others
    # alone: 3 of the 12 divisions of this word are by non-units
    non_units = []

    def corrupted(a, b):
        if abs(b) > 1:
            non_units.append(b)
            return a // b, 1
        return divmod(a, b)

    monkeypatch.setattr(burau, "divmod", corrupted, raising=False)
    with pytest.raises(InternalInvariantViolation):
        alexander_from_braid(twisted_torus_braid(9, 5, 7, -1))
    assert non_units


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
    assert inverse_power == generator_product(2, (-1,) * 500)
    rng = random.Random(23)
    for length in (200, 400):
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(length))
        assert min(letters) < 0 < max(letters)
        assert burau_of_word(BraidWord(4, letters)) == generator_product(4, letters)


@pytest.mark.parametrize("strands, letters", [
    (5, (1, 2)),  # starts at column 0
    (5, (3, 4)),  # ends at the last column
    (5, (-2, -1)),  # ends at column 0
    (5, (-4, -3)),  # starts at the last column
    (5, (1, 2, 3, 4)),  # full length
    (5, (-4, -3, -2, -1)),
    (2, (1, -1, 1)),  # every run is a lone letter on the only column
    (6, (2, 3, -4, -3, 1, 2, 3, 4, 5)),  # runs cut by sign changes
    (5, (-2, -1, 1, 2)),  # -1 is not followed by 0, so the runs stay apart
    (5, (1, 2, 3) * 4),  # repeated runs
    (4, (1, 2, 3, -3, -2, -1)),  # (1,2,3) then (-3,-2,-1) cancel to the identity
    (7, (2, 3, 4, 5, 2, 3, 4, 3, 4, 5, 6, -6, -5, -4, -3, -2, 3)),
])
def test_fused_runs_match_generator_products(strands, letters):
    assert burau_of_word(BraidWord(strands, letters)) == generator_product(strands, letters)


def random_run_word(rng, strands, runs):
    letters = []
    for _ in range(runs):
        lo = rng.randint(1, strands - 1)
        hi = rng.randint(lo, strands - 1)
        run = list(range(lo, hi + 1))
        letters += run if rng.random() < 0.5 else [-x for x in reversed(run)]
    return BraidWord(strands, tuple(letters))


def test_seeded_run_words_match_generator_products():
    rng = random.Random(53)
    for _ in range(60):
        word = random_run_word(rng, rng.randint(2, 7), rng.randint(1, 8))
        assert burau_of_word(word) == generator_product(word.strands, word.letters), word


def test_alexander_of_run_words_matches_pd_matrix_oracle():
    rng = random.Random(59)
    checked = 0
    while checked < 80:
        word = random_run_word(rng, rng.randint(3, 7), rng.randint(2, 6))
        if not is_knot_closure(word):
            continue
        assert alexander_from_braid(word) == alexander_from_pd(closure_pd_code(word)), word
        checked += 1


def constant_rows(values):
    return [[P({0: v}) if v else ZERO for v in row] for row in values]


# Each matrix below reaches one case of the per-entry update at its last
# elimination step, where row 3 or row 4 (the "target") is updated with entry
# S of tag s and left entry S_ik of tag s' (None: an input entry). Pivot order
# is row order, so the pivots are 2, then 5 * 2 = 10 at step 1, and so on.
# The expected divisors follow from the module docstring; a stale value is
# never divided by a pivot it skipped unless both of its entries are stale.
@pytest.mark.parametrize("values, divisors", [
    # (s, s) = (2, 2): the target's columns 2 and 3 are both stored at step 0
    # and skip step 1. Its candidate value -3 * 10 / 2 and its update both
    # divide by 2; catching up first would also divide by 10.
    ([[2, 0, 1, 3], [0, 5, 0, 0], [0, 0, 1, 1], [3, 0, 0, 0]], [2, 2]),
    # (None, 2): column 3 is an input entry, the left entry has tag 2, so the
    # update is 10 * 4 - (-3 * 10) / 2.
    ([[2, 0, 1, 0], [0, 5, 0, 0], [0, 0, 1, 1], [3, 0, 0, 4]], [2, 2]),
    # (2, None): the left entry is the input 4, so the update is
    # (10 * -3) / 2 - 4 * 10, and the candidate value 4 * 10 needs no division.
    ([[2, 0, 0, 1], [0, 5, 0, 0], [0, 0, 1, 1], [3, 0, 4, 0]], [2]),
    # (2, 10) at step 3, previous pivot 30: the left entry (column 3, stored
    # at step 1) is caught up by 10, the entry (column 4, stored at step 0)
    # by 2, and the update is divided by 30.
    ([[2, 0, 0, 0, 1], [0, 5, 0, 1, 0], [0, 0, 3, 0, 0], [0, 0, 0, 1, 1], [3, 7, 0, 0, 0]],
     [2, 10, 30]),
])
def test_each_tag_case_matches_cofactor_expansion(monkeypatch, values, divisors):
    rows = constant_rows(values)
    recorded = record_divisors(monkeypatch)
    got = burau._det_bareiss(rows)
    assert got and got == expected_det(rows)
    assert sorted(recorded) == divisors


def arrow_rows(m):
    # an upper bidiagonal (2 on the diagonal, 1 above it) whose last row is all 3
    values = [[0] * m for _ in range(m)]
    for i in range(m - 1):
        values[i][i], values[i][i + 1] = 2, 1
    values[m - 1] = [3] * m
    return constant_rows(values)


def test_arrow_matrix_divides_linearly_often(monkeypatch):
    rows = arrow_rows(6)
    assert burau._det_bareiss(rows) == expected_det(rows)
    counts = {}
    for m in (8, 16, 32, 64):
        recorded = record_divisors(monkeypatch)
        # expanding along the dense last row: each cofactor is 2^j times +-1
        assert burau._det_bareiss(arrow_rows(m)) == P({0: (-1) ** (m - 1) * (1 - (-2) ** m)})
        counts[m] = len(recorded)
    # the dense row is touched at one new column per step, so the divisions
    # grow like m; rescaling the whole dense row at each step would need
    # about m^2 / 2 of them (1891 at m = 64)
    assert all(counts[m] <= 2 * m for m in counts), counts
