"""Workload inputs and the items the benchmark times.

Inputs are made from the seed with the benchmark's own code; the library
only ever receives the finished inputs (family parameters, torus parameters
or braid words). Each item returns True when its result agrees with an
independent reference:

* family items: a ``verified-at-level`` verdict, braid pipelines against the
  closed forms of the connected sum;
* torus items: equality with ``torus_jones_closed``;
* small-braids items: a word, a conjugate of it and a Markov stabilization of
  it must have identical Alexander and Jones polynomials.

With ``negative=True`` every reference is deliberately wrong (it gains a
trefoil summand), so every item must fail: the control that shows the
correctness gate trips.

Library functions are looked up on the package at call time (``ts.name``),
never bound here, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import twistsum as ts

WORKLOADS = ("jones-9", "alexander-sweep", "small-braids")

# jones-9: the 9-strand family member at full level plus three torus braids
# whose Jones polynomial has a closed form. The 11-strand members take about
# a minute each and are left out.
JONES9_FAMILY = (1, 2, 2)
JONES9_TORUS = ((9, 10), (8, 9), (8, 11))

# alexander-sweep: every member of the (a, k1, k2) <= (4, 5, 5) grid at the
# standard level, which never calls the Temperley-Lieb layer.
SWEEP_BOUNDS = (4, 5, 5)

# small-braids: WORDS_PER_CELL words for each (strands, length) cell, with
# strands 3..6 and every length in 6..30 whose parity allows a knot closure.
# Stratifying keeps a pass's total work nearly the same for every seed.
SMALL_STRANDS = range(3, 7)
SMALL_LENGTHS = range(6, 31)
WORDS_PER_CELL = 12


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def family_item(a: int, k1: int, k2: int, level: str, negative: bool):
    def run(tr) -> bool:
        fp = ts.FamilyParams(a, k1, k2)
        if negative:
            inst = ts.family_instantiate(fp)
            wrong = ts.Sum((inst.rhs, ts.Torus(2, 3)))
            report = ts.verify_pair(inst.lhs, wrong, level)
        else:
            report = ts.family_verify(fp, level)
        with tr.span("family.report_json"):
            json.dumps(report.to_json_obj())
        return report.verdict == "verified-at-level"

    return run


def torus_item(p: int, q: int, negative: bool):
    def run(tr) -> bool:
        value = ts.jones_from_braid(ts.torus_braid(p, q))
        reference = ts.torus_jones_closed(p, q)
        if negative:
            reference = reference * ts.torus_jones_closed(2, 3)
        return value == reference

    return run


def word_item(n: int, word: tuple, conjugate: tuple, stabilized: tuple):
    def run(tr) -> bool:
        with tr.span("braid.construct"):
            braids = (
                ts.BraidWord(n, word),
                ts.BraidWord(n, conjugate),
                ts.BraidWord(n + 1, stabilized),
            )
        tr.count("braid.letters", len(word) + len(conjugate) + len(stabilized))
        values = [(ts.alexander_from_braid(b), ts.jones_from_braid(b)) for b in braids]
        return values[0] == values[1] == values[2]

    return run


def _closes_to_knot(n: int, letters: list) -> bool:
    """True iff the word's permutation is a single n-cycle."""
    occupant = list(range(n))
    for l in letters:
        i = abs(l)
        occupant[i - 1], occupant[i] = occupant[i], occupant[i - 1]
    at, length = occupant[0], 1
    while at != 0:
        at = occupant[at]
        length += 1
    return length == n


def _random_knot_word(rng: random.Random, n: int, length: int) -> tuple:
    while True:
        letters = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]
        if min(letters) < 0 < max(letters) and _closes_to_knot(n, letters):
            return tuple(letters)


def small_braid_specs(seed: int, negative: bool) -> list:
    """(strands, word, conjugate, stabilized) for every generated word.

    The conjugate is a cyclic rotation of the word wrapped in a generator and
    its inverse; the stabilization appends one signed letter on a new strand.
    The negative control appends three positive letters instead, which adds a
    trefoil summand.
    """
    rng = random.Random(seed)
    specs = []
    for n in SMALL_STRANDS:
        for length in SMALL_LENGTHS:
            if length % 2 != (n - 1) % 2:  # an n-cycle has the parity of n - 1
                continue
            for _ in range(WORDS_PER_CELL):
                word = _random_knot_word(rng, n, length)
                rot = rng.randrange(length)
                g = rng.choice((1, -1)) * rng.randint(1, n - 1)
                conjugate = (g,) + word[rot:] + word[:rot] + (-g,)
                tail = (n, n, n) if negative else (rng.choice((1, -1)) * n,)
                specs.append((n, word, conjugate, word + tail))
    rng.shuffle(specs)
    return specs


def _family_size(a: int, k1: int, k2: int) -> tuple[int, int]:
    p = (a + 1) * (k1 + k2) + 1
    q = a * (k1 + k2) + 1
    r = p - k1
    return p, (p - 1) * q + (r - 1) * r


def build(workload: str, seed: int, negative: bool = False):
    """Items, a digest of the generated inputs, and their sizes.

    Each item is (label, run, strands, letters); ``run(tracer)`` returns True
    when the result matches its reference. The seed fixes the order of the
    items and, for small-braids, the words themselves.
    """
    rng = random.Random(seed)
    if workload == "jones-9":
        a, k1, k2 = JONES9_FAMILY
        p, letters = _family_size(a, k1, k2)
        items = [(f"family{JONES9_FAMILY}", family_item(a, k1, k2, "full", negative), p, letters)]
        items += [(f"torus{pq}", torus_item(*pq, negative), pq[0], (pq[0] - 1) * pq[1])
                  for pq in JONES9_TORUS]
        rng.shuffle(items)
        spec = [label for label, *_ in items]
    elif workload == "alexander-sweep":
        items = []
        for fp in ts.family_enumerate(*SWEEP_BOUNDS):
            p, letters = _family_size(fp.a, fp.k1, fp.k2)
            items.append((f"family{(fp.a, fp.k1, fp.k2)}",
                          family_item(fp.a, fp.k1, fp.k2, "standard", negative), p, letters))
        rng.shuffle(items)
        spec = [label for label, *_ in items]
    elif workload == "small-braids":
        specs = small_braid_specs(seed, negative)
        items = [(f"word{i}", word_item(*s), s[0], len(s[1])) for i, s in enumerate(specs)]
        spec = specs
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    digest = hashlib.sha256(repr((workload, negative, spec)).encode()).hexdigest()[:16]
    sizes = {
        "items": len(items),
        "strands": sorted({n for _, _, n, _ in items}),
        "letters_max": max(l for *_, l in items),
        "letters_total": sum(l for *_, l in items),
        "catalan_max": max(catalan(n) for _, _, n, _ in items),
    }
    return items, digest, sizes
