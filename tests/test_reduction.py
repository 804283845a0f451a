"""The Markov reduction of twisted torus words to r strands (``_reduced_twisted_torus_braid``).

Each destabilization removes a positive kink, so the bracket of the p-strand
word is (-A^3)^(p - r) times that of the reduced word, and the Jones and
Alexander polynomials are equal.
"""

import math

import pytest

from twistsum import (
    BraidWord,
    FamilyParams,
    LaurentPoly,
    alexander_from_braid,
    family_enumerate,
    family_instantiate,
    jones_from_braid,
    kauffman_bracket,
    twisted_torus_braid,
)
from twistsum.braid import _D_power, _delta_power, _from_blocks, _reduced_twisted_torus_braid
from twistsum.temperley_lieb import _bracket, _diagrams, _modules

KINK = LaurentPoly({3: -1})  # -A^3, the bracket factor of one positive destabilization


def _params(fp):
    inst = family_instantiate(fp)
    return inst.p, inst.q, inst.r, inst.s


def _tier1_members():
    return list(family_enumerate(3, 4, 4)) + [FamilyParams(1, 5, 2)]


def test_reduced_word_shape():
    # d_7^(-2) D_5^2: the 82-letter 9-strand word becomes 20 letters on 7 strands
    assert _reduced_twisted_torus_braid(9, 5, 7, -1) == BraidWord(7, (-6, -5, -4, -3, -2, -1) * 2 + (4, 3, 2, 1) * 2)
    assert len(twisted_torus_braid(9, 5, 7, -1)) == 82
    assert _reduced_twisted_torus_braid(19, 13, 15, -1).strands == 15
    assert len(_reduced_twisted_torus_braid(19, 13, 15, -1)) == 76
    assert _reduced_twisted_torus_braid(7, 3, 5, 1) == BraidWord(5, (1, 2, 3, 4) * 8 + (2, 1) * 2)
    # q >= r keeps the stated word
    assert _reduced_twisted_torus_braid(7, 5, 3, -1) == twisted_torus_braid(7, 5, 3, -1)
    assert _reduced_twisted_torus_braid(7, 3, 3, 2) == twisted_torus_braid(7, 3, 3, 2)
    with pytest.raises(ValueError, match="gcd"):
        _reduced_twisted_torus_braid(9, 3, 7, -1)
    # the family word of (a, k1, k2) has k2 (r - 1) + k1 (q - 1) letters
    for fp in _tier1_members():
        p, q, r, s = _params(fp)
        reduced = _reduced_twisted_torus_braid(p, q, r, s)
        assert (reduced.strands, len(reduced)) == (r, fp.k2 * (r - 1) + fp.k1 * (q - 1)), fp
        assert reduced._blocks is not None, fp


@pytest.mark.parametrize("fp", [fp for fp in family_enumerate(3, 4, 4) if family_instantiate(fp).p <= 11],
                         ids=lambda fp: f"{fp.a}-{fp.k1}-{fp.k2}")
def test_reduced_bracket_on_both_routes_for_grid_members_up_to_11_strands(fp):
    p, q, r, s = _params(fp)
    word, reduced = twisted_torus_braid(p, q, r, s), _reduced_twisted_torus_braid(p, q, r, s)
    stated = kauffman_bracket(word)  # the module route on p strands
    for tables in (_modules(r), _diagrams(r)):
        assert stated == KINK ** (p - r) * _bracket(reduced, tables), (fp, tables)
    assert jones_from_braid(word) == jones_from_braid(reduced)


def test_reduced_bracket_of_the_13_strand_member_1_4_2():
    p, q, r, s = _params(FamilyParams(1, 4, 2))
    assert (p, r) == (13, 9)
    word, reduced = twisted_torus_braid(p, q, r, s), _reduced_twisted_torus_braid(p, q, r, s)
    assert _bracket(word, _modules(p)) == KINK ** (p - r) * _bracket(reduced, _modules(r))


def test_alexander_of_the_reduced_word_for_every_tier1_member():
    for fp in _tier1_members():
        p, q, r, s = _params(fp)
        assert alexander_from_braid(twisted_torus_braid(p, q, r, s)) == \
            alexander_from_braid(_reduced_twisted_torus_braid(p, q, r, s)), fp


def test_general_form_sweep():
    # every knot with p <= 9, q < r < p and s = +-1, +-2; Jones only where the
    # stated word is cheap
    members = [(p, q, r, s) for p in range(3, 10) for r in range(2, p) for q in range(1, r)
               if math.gcd(p, q) == 1 for s in (-2, -1, 1, 2)]
    assert len(members) == 244
    # the reduced words with |q + rs| >= r carry whole twists, which their
    # bracket peels; the stated words carry none on p strands
    assert sum(abs(q + r * s) >= r for _, q, r, s in members) == 183
    for m in members:
        word, reduced = twisted_torus_braid(*m), _reduced_twisted_torus_braid(*m)
        assert alexander_from_braid(word) == alexander_from_braid(reduced), m
        if m[0] <= 8 or abs(m[3]) == 1:
            assert jones_from_braid(word) == jones_from_braid(reduced), m


def test_general_form_sweep_with_whole_twists_on_p_strands():
    # q > p: the stated word, which is also the reduced one, starts with
    # floor(q / p) whole twists on all p strands; the same letters given
    # without blocks take the full transfer
    members = [(p, q, r, s) for p in range(3, 8) for q in range(p + 1, 2 * p + 2) if math.gcd(p, q) == 1
               for r in range(2, p) for s in (-1, 1)]
    assert len(members) == 142
    for m in members:
        word = _reduced_twisted_torus_braid(*m)
        assert word == twisted_torus_braid(*m) and word._blocks[0] == _delta_power(m[0], m[1]), m
        assert jones_from_braid(word) == jones_from_braid(BraidWord(word.strands, word.letters)), m


def test_the_full_twist_moved_out_of_the_reduced_word_gives_the_same_bracket():
    # The full twist is central, so d_r^(q + rs) = d_r^(rs) d_r^q: the word
    # with the blocks d_r^(rs), d_r^q and D_q^(p - r) is the reduced word as
    # a braid. Its bracket peels the whole twists d_r^(rs) and steps q periods
    # of d_r, where the reduced word steps r - q periods of d_r^(-1)
    members = [fp for fp in _tier1_members() if _params(fp)[2] <= 13]
    assert len(members) == 12
    for fp in members:
        p, q, r, s = _params(fp)
        moved = _from_blocks(r, [_delta_power(r, r * s), _delta_power(r, q), _D_power(q, p - r)])
        reduced = _reduced_twisted_torus_braid(p, q, r, s)
        assert moved.letters != reduced.letters, fp
        assert kauffman_bracket(moved, threshold=13) == kauffman_bracket(reduced, threshold=13), fp


# A sign flip keeps the permutation, so the corrupted word still closes to a
# knot, and each corruption names the block it hits.
@pytest.mark.parametrize("index", [0, -1], ids=["first-letter-of-the-d-block-flipped", "last-letter-of-the-D-block-flipped"])
def test_a_corrupted_reduced_word_fails_the_comparison(index):
    p, q, r, s = 9, 5, 7, -1
    word, reduced = twisted_torus_braid(p, q, r, s), _reduced_twisted_torus_braid(p, q, r, s)
    letters = list(reduced.letters)
    letters[index] = -letters[index]
    corrupted = BraidWord(r, tuple(letters))
    assert kauffman_bracket(word) != KINK ** (p - r) * kauffman_bracket(corrupted)
    assert jones_from_braid(word) != jones_from_braid(corrupted)
    assert alexander_from_braid(word) != alexander_from_braid(corrupted)
