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
"""

from __future__ import annotations

import random

from twistsum import BraidWord, LaurentPoly, is_knot_closure
from twistsum.laurent import normalize_alexander

DELTA = LaurentPoly({2: -1, -2: -1})


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
