import random
from math import gcd

import pytest

from conftest import bracket_from_pd, random_knot_word, random_word
from twistsum import (
    BraidWord,
    EmptyDiagram,
    NotAKnot,
    TwistedTorusParams,
    braid_connected_sum,
    braid_mirror,
    braid_permutation,
    braid_to_text,
    closure_pd_code,
    is_knot_closure,
    kauffman_bracket,
    pd_code_to_text,
    torus_braid,
    twisted_torus_braid,
    writhe,
)


def test_braid_word_validation():
    BraidWord(1, ())
    with pytest.raises(ValueError):
        BraidWord(0, ())
    with pytest.raises(ValueError):
        BraidWord(2, (2,))
    with pytest.raises(ValueError):
        BraidWord(3, (0,))


def test_torus_braid_examples():
    assert torus_braid(2, 3) == BraidWord(2, (1, 1, 1))
    assert torus_braid(3, -2) == BraidWord(3, (-1, -2, -1, -2))
    assert torus_braid(5, 3) == BraidWord(5, (1, 2, 3, 4) * 3)
    assert torus_braid(1, 7) == BraidWord(1, ())
    assert torus_braid(1, 2 ** 64) == BraidWord(1, ())
    assert torus_braid(4, 0) == BraidWord(4, ())
    with pytest.raises(ValueError):
        torus_braid(0, 3)


def test_twisted_torus_braid_examples():
    tt = twisted_torus_braid(5, 3, 2, 1)
    assert tt.strands == 5
    assert tt.letters == torus_braid(5, 3).letters + (1, 1)

    ex1 = twisted_torus_braid(9, 5, 7, -1)
    assert ex1.strands == 9 and len(ex1) == 40 + 42 == 82

    ex2 = twisted_torus_braid(19, 13, 15, -1)
    assert ex2.strands == 19 and len(ex2) == 234 + 210 == 444


def test_twisted_torus_negative_twist_is_inverse_word():
    plus = twisted_torus_braid(5, 3, 3, 1).letters[len(torus_braid(5, 3)) :]
    minus = twisted_torus_braid(5, 3, 3, -1).letters[len(torus_braid(5, 3)) :]
    assert minus == tuple(-l for l in reversed(plus))


def test_twisted_params_validation_names_inequality():
    with pytest.raises(ValueError, match="p > r"):
        TwistedTorusParams(5, 3, 7, 1)
    with pytest.raises(ValueError, match="r > 1"):
        TwistedTorusParams(5, 3, 1, 1)
    with pytest.raises(ValueError, match="q > 0"):
        TwistedTorusParams(5, -3, 2, 1)
    with pytest.raises(ValueError, match=r"gcd\(p, q\) = 1"):
        TwistedTorusParams(6, 3, 2, 1)
    # s may be any integer, including 0
    assert twisted_torus_braid(5, 3, 2, 0).letters == torus_braid(5, 3).letters


def test_letter_count_formula():
    rng = random.Random(1)
    for _ in range(40):
        p = rng.randint(3, 12)
        q = rng.choice([v for v in range(1, 12) if gcd(p, v) == 1])
        r = rng.randint(2, p - 1)
        s = rng.randint(-3, 3)
        word = twisted_torus_braid(p, q, r, s)
        assert len(word) == (p - 1) * q + (r - 1) * r * abs(s)


def test_braid_permutation_examples():
    assert braid_permutation(torus_braid(3, 2)) == (2, 3, 1)
    assert braid_permutation(BraidWord(4, ())) == (1, 2, 3, 4)
    # a full twist is a pure braid
    full_twist = BraidWord(5, tuple(range(1, 4)) * 4)
    assert braid_permutation(full_twist) == (1, 2, 3, 4, 5)


def test_full_twist_keeps_torus_permutation():
    for (p, q, r, s) in [(5, 3, 2, 1), (9, 5, 7, -1), (7, 4, 3, -2), (8, 3, 5, 2)]:
        assert braid_permutation(twisted_torus_braid(p, q, r, s)) == braid_permutation(
            torus_braid(p, q)
        )


def test_is_knot_closure():
    assert is_knot_closure(torus_braid(2, 3))
    assert not is_knot_closure(torus_braid(2, 2))
    assert is_knot_closure(twisted_torus_braid(9, 5, 7, -1))
    assert is_knot_closure(BraidWord(1, ()))
    for p, q in [(3, 4), (4, 3), (5, 2), (6, 5)]:
        assert is_knot_closure(torus_braid(p, q)) == (gcd(p, q) == 1)


def test_writhe():
    assert writhe(torus_braid(2, 3)) == 3
    assert writhe(twisted_torus_braid(9, 5, 7, -1)) == 40 - 42 == -2
    rng = random.Random(2)
    for _ in range(25):
        w = random_word(rng, rng.randint(2, 6), rng.randint(0, 15))
        assert writhe(braid_mirror(w)) == -writhe(w)


def test_braid_mirror():
    assert braid_mirror(BraidWord(2, (1, 1, 1))) == BraidWord(2, (-1, -1, -1))
    assert braid_mirror(BraidWord(3, ())) == BraidWord(3, ())
    rng = random.Random(3)
    for _ in range(25):
        w = random_word(rng, rng.randint(2, 6), rng.randint(0, 15))
        assert braid_mirror(braid_mirror(w)) == w


def test_connected_sum_examples():
    trefoil = torus_braid(2, 3)
    unknot = BraidWord(1, ())
    assert braid_connected_sum(trefoil, unknot) == trefoil
    assert braid_connected_sum(unknot, trefoil) == trefoil

    joined = braid_connected_sum(trefoil, torus_braid(2, -5))
    assert joined == BraidWord(3, (1, 1, 1, -2, -2, -2, -2, -2))

    with pytest.raises(NotAKnot):
        braid_connected_sum(torus_braid(2, 2), trefoil)


def test_connected_sum_properties():
    rng = random.Random(4)
    for _ in range(30):
        b1 = random_knot_word(rng, 4, 10)
        b2 = random_knot_word(rng, 4, 10)
        joined = braid_connected_sum(b1, b2)
        assert joined.strands == b1.strands + b2.strands - 1
        assert is_knot_closure(joined)
        assert writhe(joined) == writhe(b1) + writhe(b2)


def test_pd_code_structure():
    rng = random.Random(5)
    words = [torus_braid(2, 3), torus_braid(3, 4), twisted_torus_braid(5, 3, 2, 1)]
    words += [random_knot_word(rng, 4, 8) for _ in range(10)]
    for w in words:
        pd = closure_pd_code(w)
        assert len(pd) == len(w.letters)
        labels = [x for rec in pd for x in rec]
        assert sorted(set(labels)) == list(range(1, 2 * len(pd) + 1))
        assert all(labels.count(x) == 2 for x in set(labels))


def test_pd_code_empty_word():
    with pytest.raises(EmptyDiagram):
        closure_pd_code(BraidWord(3, ()))


def test_pd_code_trefoil_matches_published_code():
    pd = closure_pd_code(torus_braid(2, 3))
    assert pd == ((2, 1, 3, 4), (4, 3, 5, 6), (6, 5, 1, 2))
    # Relabeling edges carries the emitted code onto the published trefoil
    # PD code X[1,4,2,5] X[3,6,4,1] X[5,2,6,3].
    relabel = {2: 1, 1: 4, 3: 2, 4: 5, 5: 6, 6: 3}
    relabeled = {tuple(relabel[x] for x in rec) for rec in pd}
    assert relabeled == {(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)}


def test_pd_code_bracket_agrees_with_transfer():
    rng = random.Random(6)
    words = [torus_braid(2, 3), BraidWord(3, (1, -2, 1, -2))]
    words += [random_knot_word(rng, 4, 7) for _ in range(6)]
    for w in words:
        assert bracket_from_pd(closure_pd_code(w)) == kauffman_bracket(w)


def test_pd_text_format():
    pd = closure_pd_code(torus_braid(2, 1))
    assert pd_code_to_text(pd) == "X[2,1,1,2]"


def test_braid_text_format():
    assert braid_to_text(torus_braid(2, 3)) == "2;1,1,1"
    assert braid_to_text(BraidWord(3, (1, -2))) == "3;1,-2"
    assert braid_to_text(BraidWord(4, ())) == "4;"
