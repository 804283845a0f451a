import importlib.util
import math
import pathlib
import random
import sys
import threading

import pytest

from conftest import (
    DELTA,
    block_letters,
    bracket_from_pd,
    enumerate_pairings,
    fresh_tables,
    random_knot_word,
    random_word,
)
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
    family_verify,
    jones_from_braid,
    kauffman_bracket,
    torus_braid,
    torus_jones_closed,
    twisted_torus_braid,
)
from twistsum import temperley_lieb
from twistsum.braid import _reduced_twisted_torus_braid
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
    _twist_base,
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
        ids = _reachable(diagrams, diagrams.starts)
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
        blocks = w._blocks
        expected = _bracket(w, _diagrams(w.strands))
        # the block kernel and letterwise stepping on the same module tables
        assert _bracket(w, _modules(w.strands), blocks) == _bracket(w, _modules(w.strands)) == expected, w


def _reduced_family_words(max_strands):
    """The reduced word of every tier-1 family member with at most ``max_strands`` strands."""
    words = []
    for fp in list(family_enumerate(3, 4, 4)) + [FamilyParams(1, 5, 2)]:
        inst = family_instantiate(fp)
        words.append(_reduced_twisted_torus_braid(inst.p, inst.q, inst.r, inst.s))
    return [w for w in words if w.strands <= max_strands]


def test_block_and_letterwise_module_brackets_agree_on_the_reduced_family_words():
    # 13 strands is the most a tier-1 Jones computation runs on
    words = _reduced_family_words(13)
    assert len(words) == 17
    for w in words:
        blocks = w._blocks
        assert len(blocks) == 3, w
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


def test_the_blocks_give_back_the_word():
    # the four jones-9 words: T(9,10), T(8,9), T(8,11) and the reduced word
    # of the (1,2,2) member, TT(9,5,7,-1), on 5 strands
    jones9 = [torus_braid(9, 10), torus_braid(8, 9), torus_braid(8, 11), _reduced_twisted_torus_braid(9, 5, 7, -1)]
    for w in _torus_grid() + _reduced_family_words(13) + jones9:
        assert block_letters(w._blocks) == w.letters, w
    # one period per block: d_5^(-2) D_2^(-2) D_5^2, d_9^5 d_7^(-7) and T(2,-3)
    assert _reduced_twisted_torus_braid(9, 5, 7, -1)._blocks == [((-4, -3, -2, -1), 2), ((-1,), 2), ((4, 3, 2, 1), 2)]
    assert twisted_torus_braid(9, 5, 7, -1)._blocks == [(tuple(range(1, 9)), 5), (tuple(range(-6, 0)), 7)]
    assert torus_braid(2, -3)._blocks == [((-1,), 3)]


def test_empty_periods_and_zero_counts_leave_no_block():
    # T(1, q) has the empty period, T(p, 0) no period at all
    for w in (torus_braid(1, 5), torus_braid(1, -5), torus_braid(5, 0), BraidWord(4, ())):
        assert w.letters == () and w._blocks is None, w
    # no full twist for s = 0
    assert twisted_torus_braid(7, 3, 5, 0)._blocks == [(tuple(range(1, 7)), 3)]
    # D_1 is empty, so an r-strand word with q = 1 is its twist block alone
    assert _reduced_twisted_torus_braid(7, 1, 5, -2)._blocks == [(tuple(range(-4, 0)), 9)]


def test_a_word_given_by_its_letters_takes_the_full_transfer_to_the_same_bracket(monkeypatch):
    # the same letters without blocks: an equal word, whose bracket comes from
    # the full transfer instead of the module route
    words = _torus_grid() + _reduced_family_words(11)
    routes = []
    real_bracket = temperley_lieb._bracket

    def recording(b, tables, blocks=None):
        routes.append(("diagrams" if tables is _diagrams(b.strands) else "modules", blocks))
        return real_bracket(b, tables, blocks)

    monkeypatch.setattr(temperley_lieb, "_bracket", recording)
    for w in words:
        given = BraidWord(w.strands, w.letters)
        assert given == w and hash(given) == hash(w) and repr(given) == repr(w), w
        assert given._blocks is None
        assert kauffman_bracket(given) == kauffman_bracket(w), w
    assert routes == [route for w in words for route in (("diagrams", None), ("modules", w._blocks))]


def test_mirror_and_connected_sum_words_carry_no_blocks():
    # nothing takes their Jones by blocks: expr_jones mirrors the polynomial,
    # and the Torus nodes of a sum have closed forms
    assert braid_mirror(torus_braid(5, 7))._blocks is None
    assert braid_connected_sum(torus_braid(2, 3), torus_braid(3, 4))._blocks is None
    assert jones_from_braid(braid_mirror(torus_braid(5, 7))) == jones_from_braid(torus_braid(5, -7))


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


def test_a_jones9_pass_rebuilds_no_module_tables(monkeypatch):
    # the four jones-9 computations use the module tables on 9, 8 and 5
    # strands, the last for the q-strand word of TT(9,5,7,-1); the cache
    # keeps four strand counts, so a second pass builds none
    fresh_tables(monkeypatch)

    def jones9_pass():
        assert family_verify(FamilyParams(1, 2, 2), "full").verdict == "verified-at-level"
        for p, q in ((9, 10), (8, 9), (8, 11)):
            assert jones_from_braid(torus_braid(p, q)) == torus_jones_closed(p, q)

    jones9_pass()
    info = temperley_lieb._modules.cache_info()
    assert (info.misses, info.currsize) == (3, 3)
    jones9_pass()
    assert temperley_lieb._modules.cache_info().misses == info.misses


# Each start is stepped by its own kernel call: _run_blocks on the module
# route, _run on the full transfer. Key 0 is in the stepped state
# of start 0 on both routes. On the module route it is the all-defect state
# of W_n, a diagonal entry of every word; with n even, Delta_n(0) = +-1, so a
# changed trace leaves a remainder. On the full transfer it is the identity
# diagram, the one start, which only the all-straight smoothing reaches; the
# figure-eight word is given by its letters and carries no blocks, so it
# takes that route. The first start of W_0, c_0 = (0 1)(2 3), weighs
# Delta_0 = 1 and, like every state of W_0, has no diagonal entry for T(4,3),
# so corrupting it raises only if the bracket runs that start and closes its
# own entry.
@pytest.mark.parametrize("word, w0, corrupt", [
    (torus_braid(4, 3), False, lambda base, packed: (base + 2, packed)),
    (torus_braid(4, 3), False, lambda base, packed: (base, packed + 1)),
    (BraidWord(3, (1, -2, 1, -2)), False, lambda base, packed: (base + 2, packed)),
    (torus_braid(4, 3), True, lambda base, packed: (base, packed + 1)),
], ids=["exponent-off-by-2", "trace-off-by-1", "full-transfer-exponent-off-by-2", "w0-start-trace-off-by-1"])
def test_a_corrupted_module_trace_raises(monkeypatch, word, w0, corrupt):
    n = word.strands
    blocks = word._blocks
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
# Not every entry of a short word is on such a path: for the 7-strand word
# d_7^(-2) D_5^2 of TT(9,5,7,-1), changing the last term of each period's
# longest row changes no diagonal.
@pytest.mark.parametrize("corrupt", [
    lambda base, packed: (base + 2, packed),
    lambda base, packed: (base, packed + 1),
    lambda base, packed: (base, -packed),
], ids=["row-exponent-off-by-2", "row-coefficient-off-by-1", "row-sign-flipped"])
@pytest.mark.parametrize("word", [torus_braid(4, 3), _reduced_twisted_torus_braid(9, 5, 7, -1), torus_braid(9, 10)],
                         ids=["T(4,3)", "TT(9,5,7,-1)-reduced", "T(9,10)-one-period-after-the-peel"])
def test_a_corrupted_block_row_raises_or_changes_the_bracket(monkeypatch, word, corrupt):
    expected = kauffman_bracket(word)
    real_rows = temperley_lieb._block_rows

    def corrupted(tables, period, width):
        rows = real_rows(tables, period, width)
        d = max(range(len(rows)), key=lambda d: len(rows[d]))  # a state the period leaves several terms in
        rows[d] = {**rows[d], d: corrupt(*rows[d][d])}
        return rows

    monkeypatch.setattr(temperley_lieb, "_block_rows", corrupted)
    try:
        got = kauffman_bracket(word)
    except InternalInvariantViolation:
        return
    assert got != expected


def _full_twist_periods(n):
    """d_n, D_n and their inverses, each with the sign of its n-th power, Delta^(+-2).

    Spelled here letter by letter, apart from the builders in ``braid.py``;
    D_n^(-1) is the mirror of d_n.
    """
    return [(1, tuple(range(1, n))), (1, tuple(range(n - 1, 0, -1))),
            (-1, tuple(range(-1, -n, -1))), (-1, tuple(range(1 - n, 0)))]


def test_a_full_twist_is_one_monomial_on_every_link_state():
    # Delta^(+-2) acts on W_k as A^(+-(k(k + 2) - 3n)), running writhe
    # included: on every link state up to 10 strands, and on c_k, the state
    # each module's walk starts from, on 11 and 12
    for n in range(2, 13):
        modules = _modules(n)
        group = modules.group
        starts = [s for s in modules.starts if n <= 10 or s == 0 or group[s] != group[s - 1]]
        assert len(starts) == (len(modules.states) if n <= 10 else n // 2 + 1)
        for sign, period in _full_twist_periods(n):
            for s in starts:
                k = group[s]
                assert _twist_base(n, k) + n * (n - 1) == k * (k + 2) - 3 * n
                assert _transfer(modules, s, period * n) == {s: LaurentPoly.monomial(sign * (k * (k + 2) - 3 * n))}, \
                    (n, period, s)


def test_peeled_torus_brackets_match_stepping_every_letter():
    # T(p, +-q) with q >= p carries floor(q / p) whole twists. The full
    # transfer is the reference up to 7 strands; on 9 and 10 it took 21 s
    # and 125 s for this grid, so from 8 strands on the reference is the
    # letterwise module route, which the tests above hold to the full
    # transfer
    for p in range(2, 11):
        reference = _diagrams(p) if p <= 7 else _modules(p)
        for q in range(p, 26):
            for w in (torus_braid(p, q), torus_braid(p, -q)):
                assert _bracket(w, _modules(p), w._blocks) == _bracket(w, reference), w


@pytest.mark.parametrize("p, q", [(13, 40), (12, -37), (11, -23)])
def test_jones_of_torus_knots_with_whole_twists_peeled(p, q):
    assert jones_from_braid(torus_braid(p, q), threshold=13) == torus_jones_closed(p, q)


def test_the_letterwise_module_route_steps_every_letter(monkeypatch):
    # without blocks, the tests' reference, each start steps the whole word,
    # its whole twist included; with blocks, T(9,10) steps one period of d_9
    # to build the rows, and the twist is peeled. Each start's row is its
    # state after that period, so no block step runs
    w = torus_braid(9, 10)
    modules = _modules(9)
    runs, block_steps = [], []
    real_run, real_block_step = temperley_lieb._run, temperley_lieb._block_step

    def recording(tables, start, letters, width):
        runs.append(letters)
        return real_run(tables, start, letters, width)

    def block_step(state, rows, width):
        block_steps.append(len(state))
        return real_block_step(state, rows, width)

    monkeypatch.setattr(temperley_lieb, "_run", recording)
    monkeypatch.setattr(temperley_lieb, "_block_step", block_step)
    letterwise = _bracket(w, modules)
    assert runs == [w.letters] * len(modules.starts)
    runs.clear()
    assert _bracket(w, modules, w._blocks) == letterwise
    assert runs == [tuple(range(1, 9))] * len(modules.starts)
    assert block_steps == []
    # T(9,11) has two periods left: one block step per start
    w = torus_braid(9, 11)
    assert _bracket(w, modules, w._blocks) == _bracket(w, modules)
    assert len(block_steps) == len(modules.starts)


def test_whole_D_n_twists_are_peeled(monkeypatch):
    # the reduced word of TT(11,3,5,-1) is d_3^(-2) D_2^(-2) D_3^6 on 3
    # strands, and D_3^6 is two full twists: no row is built for D_3, and
    # each start takes three block steps, the second period of d_3^(-1) and
    # both of D_2^(-1)
    w = _reduced_twisted_torus_braid(11, 3, 5, -1)
    assert w.strands == 3 and w._blocks == [((-2, -1), 2), ((-1,), 2), ((2, 1), 6)]
    modules = _modules(3)
    periods, block_steps = [], []
    real_rows, real_block_step = temperley_lieb._block_rows, temperley_lieb._block_step

    def rows(tables, period, width):
        periods.append(period)
        return real_rows(tables, period, width)

    def block_step(state, rows, width):
        block_steps.append(len(state))
        return real_block_step(state, rows, width)

    monkeypatch.setattr(temperley_lieb, "_block_rows", rows)
    monkeypatch.setattr(temperley_lieb, "_block_step", block_step)
    peeled = _bracket(w, modules, w._blocks)
    assert periods == [(-2, -1), (-1,)]
    assert len(block_steps) == 3 * len(modules.starts)
    assert peeled == _bracket(w, modules) == _bracket(w, _diagrams(3))


# A wrong twist exponent on every module multiplies the bracket by a power
# of A; on one module only, it changes that module's trace. Off by 2 on one
# module, with an odd number of twists, puts that trace 2 mod 4 away from
# the others, which the gap check in _closed refuses. Each word peels an odd
# number of twists from a different period: d_9, the mirror of d_8 (D_8^(-1)),
# the inverse of d_7 and D_3.
@pytest.mark.parametrize("error, top_only, raises", [(4, False, False), (4, True, False), (2, True, True)],
                         ids=["off-by-4-everywhere", "off-by-4-on-W_n", "off-by-2-on-W_n"])
@pytest.mark.parametrize("word", [torus_braid(9, 10), torus_braid(8, -25), _reduced_twisted_torus_braid(9, 5, 7, -2),
                                  _reduced_twisted_torus_braid(10, 3, 5, -1)],
                         ids=["T(9,10)", "T(8,-25)", "TT(9,5,7,-2)-reduced", "TT(10,3,5,-1)-reduced"])
def test_a_wrong_twist_exponent_raises_or_changes_the_bracket(monkeypatch, word, error, top_only, raises):
    expected = kauffman_bracket(word)  # builds the module tables with the right exponent
    n = word.strands
    full = {period: sign for sign, period in _full_twist_periods(n)}
    assert sum(full.get(period, 0) * (count // n) for period, count in word._blocks) % 2
    real = temperley_lieb._twist_base
    monkeypatch.setattr(temperley_lieb, "_twist_base",
                        lambda strands, k: real(strands, k) + (error if k == strands or not top_only else 0))
    if raises:
        with pytest.raises(InternalInvariantViolation, match="not a multiple of 4"):
            kauffman_bracket(word)
        return
    try:
        got = kauffman_bracket(word)
    except InternalInvariantViolation:
        return
    assert got != expected


def test_building_the_modules_checks_the_twist_exponent(monkeypatch):
    fresh_tables(monkeypatch)
    real = temperley_lieb._twist_base
    monkeypatch.setattr(temperley_lieb, "_twist_base", lambda strands, k: real(strands, k) + (4 if k == 1 else 0))
    with pytest.raises(InternalInvariantViolation, match="full twist"):
        temperley_lieb._modules(5)
    assert temperley_lieb._modules(4).strands == 4  # no module has one defect
