import random
import sys
import threading

import pytest

from conftest import bracket_from_pd, random_knot_word
from twistsum import (
    BraidWord,
    LaurentPoly,
    LOOP_VALUE,
    NoncrossingMatching,
    NotAKnot,
    TooManyStrands,
    braid_connected_sum,
    braid_mirror,
    catalan,
    closure_pd_code,
    enumerate_matchings,
    jones_from_braid,
    kauffman_bracket,
    tl_apply_letter,
    torus_braid,
    torus_jones_closed,
    twisted_torus_braid,
)
from twistsum import temperley_lieb
from twistsum.temperley_lieb import _cupcap, _identity_pairing, _rotated

CATALAN_EXPECTED = [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def test_catalan_numbers():
    assert [catalan(n) for n in range(1, 11)] == CATALAN_EXPECTED


def test_enumerate_matchings_counts():
    for n in range(1, 9):
        matchings = list(enumerate_matchings(n))
        assert len(matchings) == catalan(n)
        assert len(set(matchings)) == len(matchings)


def test_matching_validation():
    NoncrossingMatching((1, 0, 3, 2))
    NoncrossingMatching((3, 2, 1, 0))
    with pytest.raises(ValueError):
        NoncrossingMatching((2, 3, 0, 1))  # crossing pairs
    with pytest.raises(ValueError):
        NoncrossingMatching((0, 1))  # fixed points
    with pytest.raises(ValueError):
        NoncrossingMatching((1, 0, 2))  # odd length


def test_identity_matching():
    assert NoncrossingMatching.identity(2).pairing == (3, 2, 1, 0)
    assert NoncrossingMatching.identity(3).strands == 3


def test_apply_letter_on_identity():
    one = LaurentPoly.one()
    vec = {NoncrossingMatching.identity(2): one}
    out = tl_apply_letter(vec, 1, 2)
    assert out == {
        NoncrossingMatching.identity(2): LaurentPoly.monomial(1),
        NoncrossingMatching((1, 0, 3, 2)): LaurentPoly.monomial(-1),
    }


def test_apply_letter_then_inverse_is_identity_action():
    one = LaurentPoly.one()
    for n in range(2, 5):
        for m in enumerate_matchings(n):
            vec = {m: one}
            for i in range(1, n):
                assert tl_apply_letter(tl_apply_letter(vec, i, n), -i, n) == vec
                assert tl_apply_letter(tl_apply_letter(vec, -i, n), i, n) == vec


def test_cup_cap_relations():
    # e_i e_i = delta e_i and e_i e_{i+-1} e_i = e_i, checked on every basis
    # diagram of the 3-strand algebra.
    n = 3
    for m in enumerate_matchings(n):
        for i in (0, 1):
            once, loops_once = _cupcap(m.pairing, i)
            twice, loops_twice = _cupcap(once, i)
            assert twice == once and loops_twice == 1
            for j in (i - 1, i + 1):
                if 0 <= j < n - 1:
                    there, l1 = _cupcap(once, j)
                    back, l2 = _cupcap(there, i)
                    assert back == once and l1 + l2 == 0


def test_apply_letter_is_linear_over_mixed_exponents():
    # A caller's coefficient may mix exponent residues mod 4 and carry large
    # integers; the result must equal the sum over its monomials.
    n = 4
    poly = LaurentPoly({-7: 1, 0: 5, 1: -3, 2: 10**30, 6: -(2**70)})
    for m in enumerate_matchings(n):
        for letter in (1, -2, 3):
            expected: dict = {}
            for e, c in poly.items():
                for k, v in tl_apply_letter({m: LaurentPoly.one()}, letter, n).items():
                    expected[k] = expected.get(k, LaurentPoly.zero()) + v.shifted(e) * c
            expected = {k: v for k, v in expected.items() if v}
            assert tl_apply_letter({m: poly}, letter, n) == expected


def test_apply_letter_braid_relation():
    one = LaurentPoly.one()
    for n in range(3, 5):
        for m in enumerate_matchings(n):
            vec = {m: one}
            for i in range(1, n - 1):
                lhs = tl_apply_letter(tl_apply_letter(tl_apply_letter(vec, i, n), i + 1, n), i, n)
                rhs = tl_apply_letter(tl_apply_letter(tl_apply_letter(vec, i + 1, n), i, n), i + 1, n)
                assert lhs == rhs


def test_bracket_base_cases():
    assert kauffman_bracket(BraidWord(1, ())) == LaurentPoly.one()
    assert kauffman_bracket(BraidWord(2, ())) == LOOP_VALUE
    assert kauffman_bracket(BraidWord(2, (1,))) == LaurentPoly.monomial(3, -1)


def test_bracket_matches_brute_force_pd():
    rng = random.Random(12)
    words = [torus_braid(2, 3), torus_braid(2, -3), BraidWord(3, (1, -2, 1, -2))]
    words += [random_knot_word(rng, 4, 8) for _ in range(8)]
    for w in words:
        assert kauffman_bracket(w) == bracket_from_pd(closure_pd_code(w))


def test_strand_threshold():
    with pytest.raises(TooManyStrands) as info:
        kauffman_bracket(torus_braid(19, 13))
    err = info.value
    assert str(err) == "strands 19 exceeds threshold 12"
    assert (err.strands, err.threshold) == (19, 12)
    assert err.basis_size == catalan(19)

    with pytest.raises(TooManyStrands, match="strands 4 exceeds threshold 3"):
        kauffman_bracket(torus_braid(4, 3), threshold=3)
    # explicit override above the default is honoured
    assert kauffman_bracket(torus_braid(4, 3), threshold=13) == kauffman_bracket(torus_braid(4, 3))


def test_jones_small_knots():
    assert jones_from_braid(torus_braid(2, 3)) == LaurentPoly({1: 1, 3: 1, 4: -1})
    assert jones_from_braid(torus_braid(2, 1)) == LaurentPoly.one()
    assert jones_from_braid(BraidWord(1, ())) == LaurentPoly.one()
    assert jones_from_braid(torus_braid(2, 5)) == LaurentPoly(
        {2: 1, 4: 1, 5: -1, 6: 1, 7: -1}
    )


def test_jones_figure_eight():
    # The closure of (s1 s2^-1)^2 is amphichiral; its Jones polynomial is
    # symmetric under t -> 1/t.
    fig8 = BraidWord(3, (1, -2, 1, -2))
    j = jones_from_braid(fig8)
    assert j == LaurentPoly({-2: 1, -1: -1, 0: 1, 1: -1, 2: 1})
    assert j == j.invert_var()


def test_jones_rejects_links():
    with pytest.raises(NotAKnot):
        jones_from_braid(torus_braid(2, 4))


def test_jones_torus_oracle():
    for p, q in [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5)]:
        assert jones_from_braid(torus_braid(p, q)) == torus_jones_closed(p, q)


def test_jones_mirror_property():
    rng = random.Random(13)
    for _ in range(20):
        w = random_knot_word(rng, 5, 12)
        assert jones_from_braid(braid_mirror(w)) == jones_from_braid(w).invert_var()


def test_jones_markov_invariance():
    rng = random.Random(14)
    for _ in range(40):
        w = random_knot_word(rng, 5, 12)
        base = jones_from_braid(w)
        conj = rng.choice([s * i for s in (1, -1) for i in range(1, w.strands)])
        assert jones_from_braid(BraidWord(w.strands, (conj,) + w.letters + (-conj,))) == base
        stab = BraidWord(w.strands + 1, w.letters + (rng.choice([1, -1]) * w.strands,))
        assert jones_from_braid(stab) == base


def test_jones_multiplicative_under_connected_sum():
    rng = random.Random(15)
    for _ in range(20):
        b1 = random_knot_word(rng, 4, 9)
        b2 = random_knot_word(rng, 4, 9)
        joined = braid_connected_sum(b1, b2)
        assert jones_from_braid(joined) == jones_from_braid(b1) * jones_from_braid(b2)


def test_identity_pairing_shape():
    assert _identity_pairing(3) == (5, 4, 3, 2, 1, 0)


def test_rotation_rule():
    assert _rotated(()) == ()
    assert _rotated((2, 2, -2)) == (2, 2, -2)
    # the longest run avoiding generator 3 is (1, 2, 1)
    assert _rotated((3, 1, 2, 1, 3, 2)) == (1, 2, 1, 3, 2, 3)
    # the run may wrap around the end of the word
    assert _rotated((1, 3, 2, 3, 2, 1)) == (2, 1, 1, 3, 2, 3)
    # a twisted torus word starts at its twist block
    w = twisted_torus_braid(9, 5, 7, -1)
    twist = len(w.letters) - 42
    assert _rotated(w.letters) == w.letters[twist:] + w.letters[:twist]


def test_bracket_of_every_rotation_matches_brute_force_pd():
    rng = random.Random(21)
    for _ in range(12):
        w = random_knot_word(rng, 5, 12)
        expected = bracket_from_pd(closure_pd_code(w))
        for k in range(len(w.letters)):
            rotation = BraidWord(w.strands, w.letters[k:] + w.letters[:k])
            assert kauffman_bracket(rotation) == expected


def test_bracket_unchanged_by_cancelling_padding():
    # Each (i, -i) pair is a Reidemeister II move; the padding lengthens the
    # word, so intermediate coefficients grow large before they cancel.
    rng = random.Random(22)
    for _ in range(6):
        w = random_knot_word(rng, 6, 10)
        i = rng.randint(1, w.strands - 1)
        at = rng.randint(0, len(w.letters))
        padded = BraidWord(w.strands, w.letters[:at] + (i, -i) * 30 + w.letters[at:])
        assert kauffman_bracket(padded) == kauffman_bracket(w)


def test_jones_of_five_figure_eights():
    fig8 = BraidWord(3, (1, -2, 1, -2))
    total = fig8
    for _ in range(4):
        total = braid_connected_sum(total, fig8)
    assert total.strands == 11
    assert jones_from_braid(total) == jones_from_braid(fig8) ** 5


def test_bracket_independent_of_table_state(monkeypatch):
    rng = random.Random(23)
    words = [random_knot_word(rng, 6, 16) for _ in range(10)]
    words += [torus_braid(5, 6), twisted_torus_braid(5, 3, 3, -1)]
    warm = [kauffman_bracket(w) for w in words]
    assert [kauffman_bracket(w) for w in words] == warm
    cold = []
    for w in words:
        monkeypatch.setattr(temperley_lieb, "_DIAGRAMS", {})
        cold.append(kauffman_bracket(w))
    assert cold == warm
    # ids assigned in another order: tables first filled from arbitrary diagrams
    monkeypatch.setattr(temperley_lieb, "_DIAGRAMS", {})
    for n in range(2, 7):
        for m in list(enumerate_matchings(n))[::-3]:
            tl_apply_letter({m: LaurentPoly.one()}, n - 1, n)
    assert [kauffman_bracket(w) for w in reversed(words)] == warm[::-1]


def test_bracket_tables_shared_across_threads(monkeypatch):
    # Threads fill one strand count's tables at once; an id published before
    # its table rows exist fails here within a few dozen rounds.
    rng = random.Random(24)
    words = [random_knot_word(rng, 8, 30) for _ in range(32)]
    expected = [kauffman_bracket(w) for w in words]

    def work(first, results):
        for i in range(first, len(words), 4):
            results[i] = kauffman_bracket(words[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            monkeypatch.setattr(temperley_lieb, "_DIAGRAMS", {})
            results = [None] * len(words)
            threads = [threading.Thread(target=work, args=(k, results)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert results == expected
    finally:
        sys.setswitchinterval(interval)
