"""The Markov reductions of twisted torus words (``_reduced_twisted_torus_braid``).

Each destabilization of the lemma removes a positive kink, so the bracket of
the p-strand word is (-A^3)^(p - r) times that of the r-strand word. For
s = -1 each destabilization of the mirror lemma removes a negative kink, so
the bracket of the r-strand word is (-A^(-3))^j times that of the reduced
word on max(q, k2) strands, with k2 = r - q and j = min(q, k2); for every
family member k2 < q, so that word is on q strands and j = k2. The Jones and
Alexander polynomials of all three words are equal.
"""

import math

import pytest

from conftest import block_letters
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
MIRROR_KINK = LaurentPoly({-3: -1})  # -A^(-3), that of one negative destabilization


def _params(fp):
    inst = family_instantiate(fp)
    return inst.p, inst.q, inst.r, inst.s


def _tier1_members():
    return list(family_enumerate(3, 4, 4)) + [FamilyParams(1, 5, 2)]


def _r_strand(p, q, r, s):
    """The lemma's word d_r^(q + rs) D_q^(p - r) on r strands, with its blocks."""
    return _from_blocks(r, [_delta_power(r, q + r * s), _D_power(q, p - r)])


def test_reduced_word_shape():
    # d_5^(-2) D_2^(-2) D_5^2: the 82-letter 9-strand word becomes 18 letters
    # on 5 strands, where the r-strand word has 20 on 7
    assert _reduced_twisted_torus_braid(9, 5, 7, -1) == \
        BraidWord(5, (-4, -3, -2, -1) * 2 + (-1,) * 2 + (4, 3, 2, 1) * 2)
    assert _r_strand(9, 5, 7, -1) == BraidWord(7, (-6, -5, -4, -3, -2, -1) * 2 + (4, 3, 2, 1) * 2)
    assert len(twisted_torus_braid(9, 5, 7, -1)) == 82
    assert _reduced_twisted_torus_braid(19, 13, 15, -1).strands == 13
    assert len(_reduced_twisted_torus_braid(19, 13, 15, -1)) == 74
    # k2 = 3 > q = 2: the chain stops on 3 strands, with the inverse full
    # twist d_3^(-3) and D_3^(-2)
    assert _reduced_twisted_torus_braid(7, 2, 5, -1) == BraidWord(3, (-2, -1) * 3 + (-1, -2) * 2 + (1,) * 2)
    # s != -1 keeps the r-strand word
    assert _reduced_twisted_torus_braid(7, 3, 5, 1) == BraidWord(5, (1, 2, 3, 4) * 8 + (2, 1) * 2)
    assert _reduced_twisted_torus_braid(9, 5, 7, -2) == _r_strand(9, 5, 7, -2)
    # q >= r keeps the stated word
    assert _reduced_twisted_torus_braid(7, 5, 3, -1) == twisted_torus_braid(7, 5, 3, -1)
    assert _reduced_twisted_torus_braid(7, 3, 3, 2) == twisted_torus_braid(7, 3, 3, 2)
    with pytest.raises(ValueError, match="gcd"):
        _reduced_twisted_torus_braid(9, 3, 7, -1)
    # the family word of (a, k1, k2) has k2 (r - 1) + k1 (q - 1) letters on r
    # strands, and k2 (q - 1) + k2 (k2 - 1) + k1 (q - 1) on q
    for fp in _tier1_members():
        p, q, r, s = _params(fp)
        reduced, r_word = _reduced_twisted_torus_braid(p, q, r, s), _r_strand(p, q, r, s)
        assert (r_word.strands, len(r_word)) == (r, fp.k2 * (r - 1) + fp.k1 * (q - 1)), fp
        assert (reduced.strands, len(reduced)) == (q, fp.k2 * (q - 1) + fp.k2 * (fp.k2 - 1) + fp.k1 * (q - 1)), fp
        assert reduced._blocks is not None, fp


def test_the_q_strand_blocks_give_back_the_letters():
    # three blocks, d_m^(-k2), D_(k2)^(-j) and D_q^(p - r), of which those
    # on one strand are empty and dropped: TT(p, 1, 2, -1) is the empty word
    # on one strand, with no block
    members = [(p, q, r, -1) for p in range(3, 12) for r in range(2, p) for q in range(1, r) if math.gcd(p, q) == 1]
    members += [_params(fp) for fp in _tier1_members()]
    for p, q, r, s in members:
        k2 = r - q
        m = max(q, k2)
        reduced = _reduced_twisted_torus_braid(p, q, r, s)
        blocks = [(period, count) for period, count in
                  (_delta_power(m, -k2), _D_power(k2, -min(q, k2)), _D_power(q, p - r)) if period]
        assert reduced.strands == m and reduced._blocks == (blocks or None), (p, q, r)
        assert block_letters(blocks) == reduced.letters, (p, q, r)
    assert _reduced_twisted_torus_braid(9, 5, 7, -1)._blocks == \
        [((-4, -3, -2, -1), 2), ((-1,), 2), ((4, 3, 2, 1), 2)]


@pytest.mark.parametrize("fp", [fp for fp in family_enumerate(3, 4, 4) if family_instantiate(fp).p <= 11],
                         ids=lambda fp: f"{fp.a}-{fp.k1}-{fp.k2}")
def test_reduced_bracket_on_both_routes_for_grid_members_up_to_11_strands(fp):
    p, q, r, s = _params(fp)
    word, r_word = twisted_torus_braid(p, q, r, s), _r_strand(p, q, r, s)
    stated = kauffman_bracket(word)  # the module route on p strands
    for tables in (_modules(r), _diagrams(r)):
        assert stated == KINK ** (p - r) * _bracket(r_word, tables), (fp, tables)
    assert jones_from_braid(word) == jones_from_braid(r_word)


@pytest.mark.parametrize("fp", [fp for fp in family_enumerate(3, 4, 4) if family_instantiate(fp).q <= 11],
                         ids=lambda fp: f"{fp.a}-{fp.k1}-{fp.k2}")
def test_q_strand_bracket_on_both_routes_for_grid_members_up_to_11_strands(fp):
    p, q, r, s = _params(fp)
    r_word, reduced = _r_strand(p, q, r, s), _reduced_twisted_torus_braid(p, q, r, s)
    assert reduced.strands == q
    on_r = _bracket(r_word, _modules(r), r_word._blocks)
    for tables, blocks in ((_modules(q), reduced._blocks), (_diagrams(q), None)):
        assert on_r == MIRROR_KINK ** (r - q) * _bracket(reduced, tables, blocks), (fp, tables)
    assert jones_from_braid(r_word, threshold=r) == jones_from_braid(reduced)


def test_reduced_bracket_of_the_13_strand_member_1_4_2():
    p, q, r, s = _params(FamilyParams(1, 4, 2))
    assert (p, q, r) == (13, 7, 9)
    word, r_word = twisted_torus_braid(p, q, r, s), _r_strand(p, q, r, s)
    reduced = _reduced_twisted_torus_braid(p, q, r, s)
    assert _bracket(word, _modules(p)) == KINK ** (p - r) * _bracket(r_word, _modules(r))
    assert _bracket(r_word, _modules(r)) == MIRROR_KINK ** (r - q) * _bracket(reduced, _modules(q))


def test_alexander_of_the_reduced_word_for_every_tier1_member():
    for fp in _tier1_members():
        p, q, r, s = _params(fp)
        stated = alexander_from_braid(twisted_torus_braid(p, q, r, s))
        assert stated == alexander_from_braid(_r_strand(p, q, r, s)), fp
        assert stated == alexander_from_braid(_reduced_twisted_torus_braid(p, q, r, s)), fp


def test_general_form_sweep():
    # every knot with p <= 9, q < r < p and s = +-1, +-2; Jones only where the
    # stated word is cheap
    members = [(p, q, r, s) for p in range(3, 10) for r in range(2, p) for q in range(1, r)
               if math.gcd(p, q) == 1 for s in (-2, -1, 1, 2)]
    assert len(members) == 244
    # the r-strand words with |q + rs| >= r carry whole twists, which their
    # bracket peels; the stated words carry none on p strands
    assert sum(abs(q + r * s) >= r for _, q, r, s in members) == 183
    # for s = -1 the word is on max(q, k2) strands: on q where k2 <= q
    reduced_words = [m for m in members if m[3] == -1]
    assert len(reduced_words) == 61
    assert sum(r - q <= q for _, q, r, _ in reduced_words) == 33
    for m in members:
        word, reduced = twisted_torus_braid(*m), _reduced_twisted_torus_braid(*m)
        p, q, r, s = m
        assert reduced.strands == (max(q, r - q) if s == -1 else r), m
        assert alexander_from_braid(word) == alexander_from_braid(reduced), m
        if p <= 8 or abs(s) == 1:
            assert jones_from_braid(word) == jones_from_braid(reduced), m
        if s == -1:
            assert jones_from_braid(_r_strand(*m)) == jones_from_braid(reduced), m


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
    # with the blocks d_r^(rs), d_r^q and D_q^(p - r) is the r-strand word as
    # a braid. Its bracket peels the whole twists d_r^(rs) and steps q periods
    # of d_r, where the r-strand word steps r - q periods of d_r^(-1)
    members = [fp for fp in _tier1_members() if _params(fp)[2] <= 13]
    assert len(members) == 12
    for fp in members:
        p, q, r, s = _params(fp)
        moved = _from_blocks(r, [_delta_power(r, r * s), _delta_power(r, q), _D_power(q, p - r)])
        r_word = _r_strand(p, q, r, s)
        assert moved.letters != r_word.letters, fp
        assert kauffman_bracket(moved, threshold=13) == kauffman_bracket(r_word, threshold=13), fp


# A sign flip keeps the permutation, so the corrupted word still closes to a
# knot, and each corruption names the block it hits.
@pytest.mark.parametrize("index", [0, -1], ids=["first-letter-of-the-d-block-flipped", "last-letter-of-the-D-block-flipped"])
def test_a_corrupted_reduced_word_fails_the_comparison(index):
    p, q, r, s = 9, 5, 7, -1
    word, r_word = twisted_torus_braid(p, q, r, s), _r_strand(p, q, r, s)
    letters = list(r_word.letters)
    letters[index] = -letters[index]
    corrupted = BraidWord(r, tuple(letters))
    assert kauffman_bracket(word) != KINK ** (p - r) * kauffman_bracket(corrupted)
    assert jones_from_braid(word) != jones_from_braid(corrupted)
    assert alexander_from_braid(word) != alexander_from_braid(corrupted)


# The Delta block D_(k2)^(-k2) of the q-strand word: its letters follow the
# d_q^(-k2) block, k2 (q - 1) letters in. The member (1,2,3), TT(11,6,9,-1),
# has the 6 letters (-1, -2) * 3 there.
@pytest.mark.parametrize("index", [0, -1], ids=["first-letter-of-the-Delta-block-flipped",
                                                 "last-letter-of-the-Delta-block-flipped"])
def test_a_corrupted_q_strand_word_fails_the_comparison(index):
    p, q, r, s = _params(FamilyParams(1, 2, 3))
    k2 = r - q
    word, reduced = twisted_torus_braid(p, q, r, s), _reduced_twisted_torus_braid(p, q, r, s)
    delta = range(k2 * (q - 1), k2 * (q - 1) + k2 * (k2 - 1))
    assert reduced.letters[delta.start:delta.stop] == (-1, -2) * 3
    letters = list(reduced.letters)
    letters[delta[index]] = -letters[delta[index]]
    corrupted = BraidWord(q, tuple(letters))
    assert kauffman_bracket(word) != KINK ** (p - r) * MIRROR_KINK ** k2 * kauffman_bracket(corrupted)
    assert jones_from_braid(word) != jones_from_braid(corrupted)
    assert alexander_from_braid(word) != alexander_from_braid(corrupted)
