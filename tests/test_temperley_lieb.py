import importlib.util
import math
import pathlib
import random
import sys
import threading

import pytest

from conftest import DELTA, bracket_from_pd, enumerate_pairings, fresh_tables, random_knot_word, random_word
from twistsum import (
    BraidWord,
    FamilyParams,
    InternalInvariantViolation,
    LaurentPoly,
    NotAKnot,
    TooManyStrands,
    braid_connected_sum,
    braid_mirror,
    closure_pd_code,
    family_enumerate,
    family_instantiate,
    jones_from_braid,
    kauffman_bracket,
    torus_braid,
    torus_jones_closed,
    twisted_torus_braid,
)
from twistsum import temperley_lieb
from twistsum.braid import _delta_power, _reduced_twisted_torus_braid, _twisted_torus_blocks
from twistsum.temperley_lieb import (
    _basis_size,
    _bracket,
    _cupcap,
    _diagrams,
    _identity_pairing,
    _is_noncrossing_pairing,
    _modules,
    _reachable,
    _rotated,
    _transfer,
    catalan,
)


CATALAN_EXPECTED = [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def test_catalan_numbers():
    assert [catalan(n) for n in range(1, 11)] == CATALAN_EXPECTED


def test_enumerate_matchings_counts():
    for n in range(1, 9):
        pairings = list(enumerate_pairings(n))
        assert len(pairings) == catalan(n)
        assert len(set(pairings)) == len(pairings)
        assert all(_is_noncrossing_pairing(p) for p in pairings)


@pytest.mark.parametrize("tables", ["shared", "cold"])
def test_reachable_basis_is_every_noncrossing_pairing(monkeypatch, tables):
    if tables == "cold":
        fresh_tables(monkeypatch)
    for n in range(1, 9):
        diagrams = temperley_lieb._diagrams(n)
        ids = _reachable(diagrams)
        assert ids[0] == 0 and len(set(ids)) == len(ids) == catalan(n)
        assert {diagrams.states[d] for d in ids} == set(enumerate_pairings(n))
        # every table entry of the basis is filled, and stays inside it
        basis = set(ids)
        assert all(0 <= row[d] and row[d] >> 1 in basis for row in diagrams.moves for d in ids)


def test_matching_validation():
    assert _is_noncrossing_pairing((1, 0, 3, 2))
    assert _is_noncrossing_pairing((3, 2, 1, 0))
    assert not _is_noncrossing_pairing((2, 3, 0, 1))  # crossing pairs
    assert not _is_noncrossing_pairing((0, 1))  # fixed points
    assert not _is_noncrossing_pairing((1, 0, 2))  # odd length


def test_identity_matching():
    assert _identity_pairing(2) == (3, 2, 1, 0)
    assert _is_noncrossing_pairing(_identity_pairing(3))


def _basis_ids(n):
    diagrams = _diagrams(n)
    return [diagrams.intern(p) for p in enumerate_pairings(n)]


def test_apply_letter_on_identity():
    cupcap = _diagrams(2).intern((1, 0, 3, 2))
    assert _transfer(_diagrams(2), 0, (1,)) == {
        0: LaurentPoly.monomial(1),
        cupcap: LaurentPoly.monomial(-1),
    }


def _routes(n):
    """Each route's tables on n strands with every diagram or link state to start from."""
    return ((_diagrams(n), _basis_ids(n)), (_modules(n), _modules(n).starts))


def test_apply_letter_then_inverse_is_identity_action():
    one = LaurentPoly.one()
    for n in range(2, 5):
        for tables, starts in _routes(n):
            for d in starts:
                for i in range(1, n):
                    assert _transfer(tables, d, (i, -i)) == {d: one}
                    assert _transfer(tables, d, (-i, i)) == {d: one}


def test_cup_cap_relations():
    # e_i e_i = delta e_i and e_i e_{i+-1} e_i = e_i, checked on every basis
    # diagram of the 3-strand algebra.
    n = 3
    for m in enumerate_pairings(n):
        for i in (0, 1):
            once, loops_once = _cupcap(m, i)
            twice, loops_twice = _cupcap(once, i)
            assert twice == once and loops_twice == 1
            for j in (i - 1, i + 1):
                if 0 <= j < n - 1:
                    there, l1 = _cupcap(once, j)
                    back, l2 = _cupcap(there, i)
                    assert back == once and l1 + l2 == 0


def test_apply_letter_braid_relation():
    for n in range(3, 5):
        for tables, starts in _routes(n):
            for d in starts:
                for i in range(1, n - 1):
                    assert _transfer(tables, d, (i, i + 1, i)) == _transfer(tables, d, (i + 1, i, i + 1))


def test_bracket_base_cases():
    assert kauffman_bracket(BraidWord(1, ())) == LaurentPoly.one()
    assert kauffman_bracket(BraidWord(2, ())) == LaurentPoly({2: -1, -2: -1})
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


def test_basis_size_is_exact_wherever_it_can_be_printed():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    # C(n) reaches the default limit of 4300 digits at n = 7153
    for n in range(7140, 7170):
        size = catalan(n)
        assert _basis_size(n) == (size if size < 10 ** limit else f"C({n})")
    assert _basis_size(19) == catalan(19)
    assert _basis_size(10 ** 30) == f"C({10 ** 30})"


@pytest.mark.parametrize("limit, first", [(640, 1060), (5000, 8300)])
def test_basis_size_follows_a_changed_digit_limit(monkeypatch, limit, first):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit, raising=False)
    for n in range(first, first + 30):
        size = catalan(n)
        assert _basis_size(n) == (size if size < 10 ** limit else f"C({n})")


@pytest.mark.parametrize("limit, n", [(4300, 7156), (4300, 8599), (10 ** 6, 2 * 10 ** 6 - 1)])
def test_basis_size_refuses_without_computing_a_catalan_number(monkeypatch, limit, n):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit, raising=False)
    monkeypatch.setattr(temperley_lieb, "catalan", lambda n: pytest.fail(f"computed C({n})"))
    assert _basis_size(n) == f"C({n})"


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
    # the rotation starts right after the last letter 3
    assert _rotated((3, 1, 2, 1, 3, 2)) == (2, 3, 1, 2, 1, 3)
    # the letters after it wrap around to the start of the word
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
        fresh_tables(monkeypatch)
        cold.append(kauffman_bracket(w))
    assert cold == warm
    # ids assigned in another order: tables first filled from arbitrary diagrams
    fresh_tables(monkeypatch)
    for n in range(2, 7):
        diagrams = temperley_lieb._diagrams(n)
        for pairing in list(enumerate_pairings(n))[::-3]:
            _transfer(diagrams, diagrams.intern(pairing), (n - 1,))
    assert [kauffman_bracket(w) for w in reversed(words)] == warm[::-1]


def test_bracket_tables_shared_across_threads(monkeypatch):
    # Threads fill one strand count's tables at once; an id published before
    # its table rows exist fails here within a few dozen rounds. The random
    # words fill the diagram tables, which stay lazy, so the race is there;
    # the module tables are complete before _modules returns them.
    rng = random.Random(24)
    words = [random_knot_word(rng, 8, 30) for _ in range(32)]
    words += [twisted_torus_braid(7, 3, 4, -1), torus_braid(7, 4), torus_braid(6, 7), torus_braid(6, -5)]
    expected = [kauffman_bracket(w) for w in words]

    def work(first, results):
        for i in range(first, len(words), 4):
            results[i] = kauffman_bracket(words[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            fresh_tables(monkeypatch)
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


def test_link_states_are_the_noncrossing_states_with_no_arc_over_a_defect():
    # the states the walk reaches from one link state per module, grouped by
    # defects: distinct, valid and as many as W_k has, so every link state
    for n in range(1, 13):
        modules = _modules(n)
        for k in range(n % 2, n + 1, 2):
            states = [state for state, defects in zip(modules.states, modules.group) if defects == k]
            arcs = (n - k) // 2
            assert len(set(states)) == len(states) == math.comb(n, arcs) - (math.comb(n, arcs - 1) if arcs else 0)
            for state in states:
                assert state.count(-1) == k
                assert all(state[state[i]] == i != state[i] for i in range(n) if state[i] >= 0)
                for i in range(n):
                    # no arc crosses one that starts inside it, and none passes over a defect
                    inside = range(min(i, state[i]) + 1, max(i, state[i])) if state[i] >= 0 else ()
                    assert all(state[m] >= 0 and min(i, state[i]) < state[m] < max(i, state[i]) for m in inside)


def test_cell_module_sizes_above_the_selftest_strand_counts():
    # the selftest counts the modules up to 13 strands; CI runs the module
    # route on 15
    for n in range(14, 17):
        defects = _modules(n).group
        for arcs in range(n // 2 + 1):
            assert defects.count(n - 2 * arcs) == math.comb(n, arcs) - (math.comb(n, arcs - 1) if arcs else 0), (n, arcs)


def test_cupcap_on_link_states():
    # (0 1) then a defect at 2: re-pairing (1, 2) leaves 0 as the defect
    assert _cupcap((1, 0, -1), 1) == ((-1, 2, 1), 0)
    assert _cupcap((1, 0, -1), 0) == ((1, 0, -1), 1)
    assert _cupcap((-1, -1, -1), 0) is None
    assert _cupcap((1, 0, 3, 2), 1) == ((3, 2, 1, 0), 0)


def _shape_oracle(b, reduced=True):
    """The twisted torus shape by trying every (period, q, r, s) and (period, q, m, j) the word's length allows.

    The negative full twist on r strands is written (s_(r-1)^-1 ... s_1^-1)^r,
    as ``twisted_torus_braid`` builds it. With ``reduced`` the shape also
    takes the torus block (s_(n-1)^-1 ... s1^-1)^q and D_m^j = (s_(m-1) ... s1)^j
    after the torus block, the blocks ``_reduced_twisted_torus_braid`` builds;
    without, it is the shape that chose the module route before them.
    """
    n, letters = b.strands, b.letters
    up = tuple(range(1, n))
    periods = [up, tuple(-i for i in up)] + ([tuple(-i for i in reversed(up))] if reduced else [])
    for period in periods:
        for q in range(1, len(letters) // max(n - 1, 1) + 1):
            torus = period * q
            if not torus or letters[:len(torus)] != torus:
                continue
            rest = letters[len(torus):]
            if not rest:
                return True
            for r in range(2, n):
                turns = len(rest) // (r * (r - 1))
                if turns and rest in (tuple(range(1, r)) * (r * turns), tuple(range(1 - r, 0)) * (r * turns)):
                    return True
                if reduced and rest == tuple(range(r - 1, 0, -1)) * (len(rest) // (r - 1)):
                    return True
    return False


def _torus_grid():
    words = [torus_braid(p, s * q) for p in range(2, 10) for q in range(1, 4) for s in (1, -1)]
    words += [twisted_torus_braid(p, q, r, s)
              for p in range(3, 10) for q in range(1, 3) if math.gcd(p, q) == 1
              for r in sorted({2, p - 1}) for s in (-1, 1)]
    words += [_reduced_twisted_torus_braid(p, q, p - 1, s)
              for p in range(4, 10) for q in range(1, 3) if math.gcd(p, q) == 1 for s in (-1, 1)]
    return words


def test_module_route_matches_the_full_transfer_on_the_torus_grid():
    for w in _torus_grid():
        blocks = _twisted_torus_blocks(w)
        expected = _bracket(w, _diagrams(w.strands))
        # the block kernel and letterwise stepping on the same module tables
        assert _bracket(w, _modules(w.strands), blocks) == _bracket(w, _modules(w.strands)) == expected, w


def test_block_and_letterwise_module_brackets_agree_on_the_reduced_family_words():
    # the reduced word of every tier-1 family member with at most 13 strands,
    # the most a tier-1 Jones computation runs on
    members = list(family_enumerate(3, 4, 4)) + [FamilyParams(1, 5, 2)]
    words = []
    for fp in members:
        inst = family_instantiate(fp)
        words.append(_reduced_twisted_torus_braid(inst.p, inst.q, inst.r, inst.s))
    words = [w for w in words if w.strands <= 13]
    assert len(words) == 12
    for w in words:
        blocks = _twisted_torus_blocks(w)
        assert len(blocks) == 2, w
        assert _bracket(w, _modules(w.strands), blocks) == _bracket(w, _modules(w.strands)), w


def test_module_route_matches_the_full_transfer_and_the_pd_oracle_on_random_words():
    rng = random.Random(31)
    for _ in range(400):
        n = rng.randint(2, 9)
        w = random_word(rng, n, rng.randint(1, 8))
        expected = _bracket(w, _diagrams(n))
        assert _bracket(w, _modules(n)) == expected, w
        # a strand position no letter touches closes into a circle the PD code
        # cannot carry, a split unknot: one more factor delta
        touched = {p for l in w.letters for p in (abs(l), abs(l) + 1)}
        assert bracket_from_pd(closure_pd_code(w)) * DELTA ** (n - len(touched)) == expected, w


def _small_braids_words(seed):
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for n, word, conjugate, stabilized in workloads.small_braid_specs(seed, negative=False):
        yield from (BraidWord(n, word), BraidWord(n, conjugate), BraidWord(n + 1, stabilized))


def test_module_route_matches_the_full_transfer_on_the_small_braids_words():
    words = list(_small_braids_words(1))
    assert len(words) == 1800
    for w in words:
        assert _bracket(w, _modules(w.strands)) == _bracket(w, _diagrams(w.strands)), w


def test_no_small_braids_word_changes_route():
    # the reduced words' blocks widened the module route's shape; a random
    # word keeps the route it took before, where the full transfer steps fewer
    # entries
    words = list(_small_braids_words(1))
    assert [w for w in words if (_twisted_torus_blocks(w) is not None) != _shape_oracle(w, reduced=False)] == []


def _letters(blocks):
    return tuple(letter for period, count in blocks for _ in range(count) for letter in period)


def test_the_blocks_give_back_the_word():
    rng = random.Random(33)
    for w in _torus_grid():
        assert _letters(_twisted_torus_blocks(w)) == w.letters, w
        # the accepted one-letter changes too
        for i in range(len(w.letters)):
            letter = rng.choice([s * g for s in (1, -1) for g in range(1, w.strands) if s * g != w.letters[i]])
            blocks = _twisted_torus_blocks(BraidWord(w.strands, w.letters[:i] + (letter,) + w.letters[i + 1:]))
            assert blocks is None or _letters(blocks) == w.letters[:i] + (letter,) + w.letters[i + 1:], w
    # one period per block: d_7^(-2) D_5^2, d_9^5 d_7^(-7) and T(2,-3)
    assert _twisted_torus_blocks(_reduced_twisted_torus_braid(9, 5, 7, -1)) == [((-6, -5, -4, -3, -2, -1), 2),
                                                                                ((4, 3, 2, 1), 2)]
    assert _twisted_torus_blocks(twisted_torus_braid(9, 5, 7, -1)) == [(tuple(range(1, 9)), 5),
                                                                       (tuple(range(-6, 0)), 7)]
    assert _twisted_torus_blocks(torus_braid(2, -3)) == [((-1,), 3)]


def test_shape_check_accepts_the_family_words_and_rejects_near_misses():
    rng = random.Random(32)
    for w in _torus_grid():
        assert _shape_oracle(w)
        # every one-letter change, checked against the oracle: some changes
        # give another word of the shape, such as T(3,2) -> TT(3,1,2,1)
        for _ in range(3):
            i = rng.randrange(len(w.letters))
            letter = rng.choice([s * g for s in (1, -1) for g in range(1, w.strands) if s * g != w.letters[i]])
            changed = BraidWord(w.strands, w.letters[:i] + (letter,) + w.letters[i + 1:])
            assert (_twisted_torus_blocks(changed) is not None) == _shape_oracle(changed), changed
    near_misses = [
        BraidWord(5, (1, 2, 3, 4, 1, 2, 4, 4)),  # one letter changed
        BraidWord(5, (2, 3, 4, 1) * 3),  # the run starts at sigma_2
        BraidWord(5, (1, 2, 3, 4) * 3 + _delta_power(5, -5)),  # a twist on r = n strands
        BraidWord(5, (1, 2, 3, 4) * 2 + _delta_power(3, -3)[:-1]),  # a twist cut short
        BraidWord(5, (1, 2, 3, 4, 1, 2, 3)),  # a partial period
        BraidWord(5, (-4, -3, -2, -1) + (3, 2, 1, 3, 2)),  # a power of D_4 cut short
        BraidWord(5, (1, 2, 3, 4) + (4, 3, 2, 1)),  # D_m on m = n strands
        BraidWord(5, (1, 2, 3, 4) + (-3, -2, -1)),  # a negative power of D_4
        BraidWord(5, (-4, -3, -2, -1, -1, -2, -3, -4)),  # two inverse periods of different forms
        BraidWord(1, ()),
        BraidWord(4, ()),
    ]
    for w in near_misses:
        assert _twisted_torus_blocks(w) is None and not _shape_oracle(w), w
    for w in (twisted_torus_braid(9, 5, 7, -1), torus_braid(9, 10), torus_braid(8, -11),
              _reduced_twisted_torus_braid(9, 5, 7, -1), _reduced_twisted_torus_braid(19, 13, 15, -1)):
        assert _twisted_torus_blocks(w) is not None


def test_a_twisted_torus_bracket_takes_the_module_route(monkeypatch):
    fresh_tables(monkeypatch)
    kauffman_bracket(twisted_torus_braid(9, 5, 7, -1))
    kauffman_bracket(torus_braid(8, -9))
    kauffman_bracket(_reduced_twisted_torus_braid(9, 5, 7, -1))
    cache = temperley_lieb._diagrams
    assert cache.cache_info().currsize == 0
    kauffman_bracket(BraidWord(9, (1, 2, 3, 4, 5, 6, 7, -8)))
    # one strand count cached, and asking for 9 adds none
    assert cache.cache_info().currsize == 1
    cache(9)
    assert cache.cache_info().currsize == 1


# Each start is stepped by its own kernel call: _run_blocks on the module
# route, _run on the full transfer. Key 0 is in the stepped state
# of start 0 on both routes. On the module route it is the all-defect state
# of W_n, a diagonal entry of every word; with n even, Delta_n(0) = +-1, so a
# changed trace leaves a remainder. On the full transfer it is the identity
# diagram, the one start, which only the all-straight smoothing reaches; the
# figure-eight word is outside the twisted torus shape, so it takes that
# route. The first start of W_0, c_0 = (0 1)(2 3), weighs Delta_0 = 1 and,
# like every state of W_0, has no diagonal entry for T(4,3), so corrupting
# it raises only if the bracket runs that start and closes its own entry.
@pytest.mark.parametrize("word, w0, corrupt", [
    (torus_braid(4, 3), False, lambda base, packed: (base + 2, packed)),
    (torus_braid(4, 3), False, lambda base, packed: (base, packed + 1)),
    (BraidWord(3, (1, -2, 1, -2)), False, lambda base, packed: (base + 2, packed)),
    (torus_braid(4, 3), True, lambda base, packed: (base, packed + 1)),
], ids=["exponent-off-by-2", "trace-off-by-1", "full-transfer-exponent-off-by-2", "w0-start-trace-off-by-1"])
def test_a_corrupted_module_trace_raises(monkeypatch, word, w0, corrupt):
    n = word.strands
    blocks = _twisted_torus_blocks(word)
    tables = temperley_lieb._modules(n) if blocks is not None else temperley_lieb._diagrams(n)
    target = tables.group.index(0) if w0 else 0
    kernel = "_run" if blocks is None else "_run_blocks"
    real_run = getattr(temperley_lieb, kernel)
    real_rows = temperley_lieb._block_rows
    runs, row_tables = [], []

    def corrupted(source, start, steps, width):
        runs.append((source, start, steps))
        state = real_run(source, start, steps, width)
        if start == target:
            state[target] = corrupt(*state.get(target, (0, 0)))
        return state

    def rows(row_source, period, width):
        row_tables.append(row_source)
        return real_rows(row_source, period, width)

    monkeypatch.setattr(temperley_lieb, kernel, corrupted)
    monkeypatch.setattr(temperley_lieb, "_block_rows", rows)
    with pytest.raises(InternalInvariantViolation):
        kauffman_bracket(word)
    assert [start for _, start, _ in runs] == list(tables.starts)
    if blocks is None:  # the full transfer steps the rotation of the word
        assert row_tables == []
        assert all(source is tables and steps == _rotated(word.letters) for source, _, steps in runs)
    else:  # the modules step the word as written, one period at a time
        assert row_tables == [tables]
        assert all(steps == blocks and list(source) == [period for period, _ in blocks] for source, _, steps in runs)


def test_a_module_route_state_stays_within_one_cell_module(monkeypatch):
    # Each start is stepped alone and no entry leaves its module, so no
    # stepped state holds more than max_k dim W_k entries, 165 at 11 strands:
    # neither a block step nor a letter step of a block row.
    sizes = {"_block_step": [], "_step": []}
    for kernel, recorded in sizes.items():
        def recording(*args, real=getattr(temperley_lieb, kernel), recorded=recorded):
            out = real(*args)
            recorded.append(len(out))
            return out

        monkeypatch.setattr(temperley_lieb, kernel, recording)
    jones_from_braid(twisted_torus_braid(11, 6, 8, -1))  # the (a, k1, k2) = (1, 3, 2) member
    defects = _modules(11).group
    bound = max(defects.count(k) for k in range(11, -1, -2))
    assert bound == 165
    assert all(recorded and max(recorded) <= bound for recorded in sizes.values()), sizes


# A block row changed in one entry changes the diagonal of every start whose
# paths pass through that entry; the bracket then leaves a remainder, meets
# an exponent gap that is not a multiple of 4, or comes out different. The
# entry changed is a state's own term in its row, which the all-straight
# smoothing reaches, so at least the start at that state passes through it.
# Not every entry of a short word is on such a path: for the reduced
# TT(9,5,7,-1), changing the last term of each period's longest row changes
# no diagonal.
@pytest.mark.parametrize("corrupt", [
    lambda target, base, packed: (target, base + 2, packed),
    lambda target, base, packed: (target, base, packed + 1),
    lambda target, base, packed: (target, base, -packed),
], ids=["row-exponent-off-by-2", "row-coefficient-off-by-1", "row-sign-flipped"])
@pytest.mark.parametrize("word", [torus_braid(4, 3), _reduced_twisted_torus_braid(9, 5, 7, -1)],
                         ids=["T(4,3)", "TT(9,5,7,-1)-reduced"])
def test_a_corrupted_block_row_raises_or_changes_the_bracket(monkeypatch, word, corrupt):
    expected = kauffman_bracket(word)
    real_rows = temperley_lieb._block_rows

    def corrupted(tables, period, width):
        rows = real_rows(tables, period, width)
        d = max(range(len(rows)), key=lambda d: len(rows[d]))  # a state the period leaves several terms in
        own = [target for target, _, _ in rows[d]].index(d)
        rows[d][own] = corrupt(*rows[d][own])
        return rows

    monkeypatch.setattr(temperley_lieb, "_block_rows", corrupted)
    try:
        got = kauffman_bracket(word)
    except InternalInvariantViolation:
        return
    assert got != expected
