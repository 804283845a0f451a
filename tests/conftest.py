"""Shared test helpers: independent oracles and random braid generators.

The PD-code bracket evaluator here is deliberately independent of the
Temperley-Lieb transfer in the package: it brute-forces all 2^c smoothing
states of a planar-diagram code and counts loops with union-find, so it can
cross-check both the PD export and the bracket pipeline.

The PD-code Alexander evaluator is independent of the Burau pipeline in the
same way: it builds the Alexander matrix of the diagram (one row per
crossing, one column per arc) and takes a first minor by memoized cofactor
expansion, sharing nothing with the Burau column updates or the Bareiss
elimination.

The dense reduced Burau generators and their matrix product, and the
recursive enumeration of noncrossing pairings, are the reference algebra the
pipelines' column updates and reachable Temperley-Lieb basis are compared
against; the package runs neither. ``equal_up_to_units`` compares
polynomials up to the units +-t^k, which only the tests need.
``fresh_tables`` gives a test empty Temperley-Lieb table caches, so it can
count the tables a computation builds. ``block_letters`` spells out a word's
attached blocks on its own, to compare with the letters the builders make.
"""

from __future__ import annotations

import functools
import random
from typing import Iterator

from twistsum import BraidWord, LaurentPoly, is_knot_closure, temperley_lieb
from twistsum.burau import BurauMatrix
from twistsum.laurent import normalize_alexander

DELTA = LaurentPoly({2: -1, -2: -1})


def block_letters(blocks) -> tuple[int, ...]:
    """The letters of blocks ``[(period, count), ...]``: each period repeated ``count`` times, in turn."""
    return tuple(letter for period, count in blocks for _ in range(count) for letter in period)


def fresh_tables(monkeypatch) -> None:
    """Give the diagram and the module tables fresh, empty caches for the rest of the test."""
    monkeypatch.setattr(temperley_lieb, "_diagrams", functools.cache(temperley_lieb._diagrams.__wrapped__))
    monkeypatch.setattr(temperley_lieb, "_modules",
                        functools.lru_cache(maxsize=4)(temperley_lieb._modules.__wrapped__))


def burau_generator(n: int, letter: int) -> BurauMatrix:
    """Reduced Burau image of a single signed generator in the n-strand group, as a dense matrix."""
    if n < 2:
        raise ValueError(f"requires n >= 2: got n={n}")
    if letter == 0 or abs(letter) > n - 1:
        raise ValueError(f"letter {letter} out of range for {n} strands")
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    rows = [[one if i == j else zero for j in range(n - 1)] for i in range(n - 1)]
    c = abs(letter) - 1
    # column c holds (t, -t, 1) for a positive letter, (1, -1/t, 1/t) for a negative one
    above, diagonal, below = (
        (LaurentPoly.monomial(1), LaurentPoly.monomial(1, -1), one) if letter > 0
        else (one, LaurentPoly.monomial(-1, -1), LaurentPoly.monomial(-1))
    )
    if c - 1 >= 0:
        rows[c - 1][c] = above
    rows[c][c] = diagonal
    if c + 1 < n - 1:
        rows[c + 1][c] = below
    return BurauMatrix(tuple(map(tuple, rows)))


def burau_matmul(x: BurauMatrix, y: BurauMatrix) -> BurauMatrix:
    """The matrix product x y, entry by entry."""
    if len(x.entries) != len(y.entries):
        raise ValueError("dimension mismatch")
    cols = list(zip(*y.entries))
    return BurauMatrix(tuple(
        tuple(sum((a * b for a, b in zip(row, col) if a and b), LaurentPoly.zero()) for col in cols)
        for row in x.entries
    ))


def generator_product(strands: int, letters) -> BurauMatrix:
    """The ordered product of the generators' dense images: the reference for burau_of_word."""
    product = BurauMatrix.identity(strands - 1)
    for letter in letters:
        product = burau_matmul(product, burau_generator(strands, letter))
    return product


def enumerate_pairings(strands: int) -> Iterator[tuple[int, ...]]:
    """All C(strands) noncrossing perfect matchings on 2*strands points, as pairings.

    Built by recursion on the partner of the first free point, independently
    of the transfer's tables, so it serves as the reference for the basis.
    """
    points = 2 * strands
    seq = [-1] * points

    def fill(free: list[int]) -> Iterator[None]:
        if not free:
            yield None
            return
        first = free[0]
        # The partner must leave an even number of points enclosed.
        for idx in range(1, len(free), 2):
            partner = free[idx]
            seq[first], seq[partner] = partner, first
            inner, outer = free[1:idx], free[idx + 1:]
            for _ in fill(inner):
                yield from fill(outer)

    for _ in fill(list(range(points))):
        yield tuple(seq)


def bracket_from_pd(pd) -> LaurentPoly:
    """Kauffman bracket of a PD code by brute force over all smoothing states.

    For a record X[a,b,c,d] (counterclockwise from the incoming under edge)
    the A-smoothing joins a-d and b-c, the B-smoothing joins a-b and c-d.
    """
    edges = sorted({x for rec in pd for x in rec})
    total = LaurentPoly.zero()
    for state in range(2 ** len(pd)):
        parent = {e: e for e in edges}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        exponent = 0
        for k, (a, b, c, d) in enumerate(pd):
            if (state >> k) & 1:
                exponent += 1
                pairs = ((a, d), (b, c))
            else:
                exponent -= 1
                pairs = ((a, b), (c, d))
            for x, y in pairs:
                parent[find(x)] = find(y)
        loops = len({find(e) for e in edges})
        total = total + LaurentPoly.monomial(exponent) * DELTA ** (loops - 1)
    return total


def det_cofactor(matrix) -> LaurentPoly:
    """Determinant of a square matrix of LaurentPoly by cofactor expansion.

    Expands along the first remaining row; the minor left after choosing
    columns for the rows above depends only on the columns still free, so it
    is memoized on that tuple and zero entries are skipped.
    """
    n = len(matrix)
    memo: dict[tuple[int, ...], LaurentPoly] = {(): LaurentPoly.one()}

    def minor(cols: tuple[int, ...]) -> LaurentPoly:
        if cols not in memo:
            row = matrix[n - len(cols)]
            total = LaurentPoly.zero()
            for idx, j in enumerate(cols):
                if row[j]:
                    term = row[j] * minor(cols[:idx] + cols[idx + 1:])
                    total = total + term if idx % 2 == 0 else total - term
            memo[cols] = total
        return memo[cols]

    return minor(tuple(range(n)))


def alexander_from_pd(pd) -> LaurentPoly:
    """Normalized Alexander polynomial of a knot's PD code, from its Alexander matrix.

    Walking the knot once orients every edge: an edge leaves one crossing and
    enters the next, entering either at the under slot a or at one of the over
    slots b, d. The over strand of X[a,b,c,d] is one arc (edges b and d
    joined); a and c end and start under-arcs. By Fox calculus on the
    Wirtinger relation, the crossing's row holds 1 - t at the over arc and
    t, -1 at the incoming and outgoing under arcs, swapped when the over
    strand enters at d instead of b (the crossing of the other sign). Which
    sign gets which order does not matter: swapping both gives the mirror,
    whose normalized Alexander polynomial is the same. Any first minor of the
    matrix is +-t^k times the Alexander polynomial.
    """
    n = len(pd)
    ends: dict[int, list[tuple[int, int]]] = {}
    for x, rec in enumerate(pd):
        for slot, e in enumerate(rec):
            ends.setdefault(e, []).append((x, slot))
    over_in: dict[int, int] = {}
    at = (0, 2)  # leave crossing 0 along its outgoing under edge c
    for _ in range(2 * n):
        first, second = ends[pd[at[0]][at[1]]]
        x, slot = second if first == at else first
        assert slot != 2, "edge enters a crossing at its outgoing under slot"
        if slot != 0:
            over_in[x] = slot
        at = (x, 2 if slot == 0 else 4 - slot)
    assert at == (0, 2) and len(over_in) == n, "PD code is not one oriented component"

    parent = {e: e for e in ends}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for _, b, _, d in pd:
        parent[find(b)] = find(d)
    arc = {root: i for i, root in enumerate(sorted({find(e) for e in ends}))}
    assert len(arc) == n, "a knot diagram has as many arcs as crossings"

    t, one = LaurentPoly.monomial(1), LaurentPoly.one()
    matrix = [[LaurentPoly.zero()] * n for _ in range(n)]
    for x, (a, b, c, _) in enumerate(pd):
        row = matrix[x]
        incoming, outgoing = (t, -one) if over_in[x] == 1 else (-one, t)
        row[arc[find(b)]] = row[arc[find(b)]] + one - t
        row[arc[find(a)]] = row[arc[find(a)]] + incoming
        row[arc[find(c)]] = row[arc[find(c)]] + outgoing
    return normalize_alexander(det_cofactor([row[:-1] for row in matrix[:-1]]))


def equal_up_to_units(p: LaurentPoly, q: LaurentPoly) -> bool:
    """True iff p = +-t^k * q for some integer k."""
    if not p or not q:
        return not p and not q
    ps = p.shifted(-p.min_exp)
    qs = q.shifted(-q.min_exp)
    return ps == qs or ps == -qs


def random_word(rng: random.Random, strands: int, length: int) -> BraidWord:
    letters = tuple(
        rng.choice([s * i for s in (1, -1) for i in range(1, strands)])
        for _ in range(length)
    )
    return BraidWord(strands, letters)


def random_knot_word(rng: random.Random, max_strands: int, max_length: int) -> BraidWord:
    """A random braid word whose closure is a knot, by rejection sampling."""
    while True:
        strands = rng.randint(2, max_strands)
        word = random_word(rng, strands, rng.randint(1, max_length))
        if is_knot_closure(word):
            return word
