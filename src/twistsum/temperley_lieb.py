"""Kauffman bracket and Jones polynomial of a braid closure via a Temperley-Lieb transfer.

Diagrams. A planar (Temperley-Lieb) diagram on n strands is a perfect
noncrossing matching of 2n boundary points. The points are numbered in a
fixed circular order: 0..n-1 along the bottom from left to right, then
n..2n-1 along the top from RIGHT to left. Reading the pairing in that order,
noncrossing matchings are exactly the balanced-parenthesis sequences, so the
involution array (point i is matched with pairing[i]) is a canonical,
hashable encoding, and the number of diagrams on n strands is the Catalan
number C(n).

Transfer. The bracket is computed as a transfer: start from the identity
diagram with coefficient 1 and apply the word letter by letter. A positive
letter at position i expands as A * (identity) + A^{-1} * (cup-cap at i); a
negative letter swaps the two weights. Composing a cup-cap onto a diagram
either re-pairs four points or, when the two bottom points were already
matched to each other, closes a loop, multiplying the coefficient by
delta = -A^2 - A^{-2}. Letters act on each basis diagram locally, so the
state is a sparse map from diagrams to coefficients; materializing
C(n) x C(n) generator matrices would waste memory. Closing the braid matches
bottom point i with the top point above it and contributes delta^(loops - 1).

Ids and tables. Each diagram a word reaches gets an integer id, interned per
strand count. For generator j there is a table giving, per id,
``target_id * 2 + loop``: the diagram the cup-cap at j composes it into, and
whether that closed a loop. Table entries are filled on first use, only for
the diagrams a word actually reaches, and kept per strand count for later
words, so a letter step is a list lookup instead of a tuple rewrite and a
hash. Nothing is built at import time.

Packed coefficients. Within one diagram's coefficient all exponents of A are
congruent mod 4: capping the diagram off with a fixed closure turns every
smoothing state that reaches it into a state of one closed diagram, and
there A^(#A - #B) delta^loops changes exponent by a multiple of 4 from one
state to the next. So a coefficient is A^base * P(x) with x = A^4, and P is
stored as the integer P(2^W) = sum c_i 2^(W i), its digits c_i taken in
balanced signed form. Evaluation at x = 2^W is a ring homomorphism from Z[x]
to Z, so sums, shifts by whole slots and products computed on the integers
are exact however large intermediate digits grow: multiplying by x^k is a
shift by k*W bits, and delta = -A^{-2}(1 + x) maps (base, P) to
(base - 2, -(P + (P << W))). Multiplying by A^{+-1} only moves an exponent:
the straight term of every letter carries the same power of A, so it is
kept as one offset for the whole state (the running writhe) and a diagram's
base moves only on its smoothed term. The packed total is decoded into a
LaurentPoly once, at closure; decoding is unique when every coefficient c of
the result satisfies |c| < 2^(W-1).

Width bound. Take W = bit_length(3^L) + n + 1 for a word of L letters on n
strands. Expanding every crossing gives 2^L smoothing states. A state that
takes the cup-cap smoothing at k crossings closes at most k loops during the
transfer (a loop closes only when a cup-cap is composed), and closure adds
delta^(loops - 1) with at most n loops, so it contributes +-A^e delta^m with
m <= k + n - 1. The
coefficients of (1 + x)^m sum to 2^m, so every bracket coefficient is at
most sum_k C(L, k) 2^(k+n-1) = 3^L 2^(n-1) < 2^(W-2) in absolute value.

Rotation. The closure of a braid word does not change under cyclic rotation
of the word (conjugation by a prefix), and neither does the writhe, so the
bracket is computed on a rotation that keeps the state small for longer:
the word starts at the beginning of the longest circular run of letters that
avoids its highest generator. While that run is applied, the strand right
of the highest generator stays straight, so the state holds at most
C(n - 1) diagrams for as long as possible. The rule costs one pass over the
word.

The Jones polynomial is the writhe correction (-A^3)^(-writhe) times the
bracket, re-expressed in t = A^{-4}. For a knot every exponent of the
corrected bracket is divisible by 4; a failure of that divisibility is a
convention bug, never valid input, and raises immediately.

Diagram counts grow like C(n), so bracket computations refuse strand counts
above a feasibility threshold (default 12, C(12) = 208012) instead of
consuming unbounded time; callers may raise the threshold explicitly.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Iterator, Mapping

from .braid import BraidWord, is_knot_closure, writhe
from .errors import (
    ExponentNotDivisibleBy4,
    InternalInvariantViolation,
    NotAKnot,
    TooManyStrands,
)
from .laurent import LaurentPoly, _wrap

DEFAULT_STRAND_THRESHOLD = 12

LOOP_VALUE = LaurentPoly({2: -1, -2: -1})


def catalan(n: int) -> int:
    """The n-th Catalan number; the dimension of the diagram algebra on n strands."""
    return math.comb(2 * n, n) // (n + 1)


def _identity_pairing(strands: int) -> tuple[int, ...]:
    """Every bottom point joined straight up: i with 2n-1-i."""
    return tuple(2 * strands - 1 - i for i in range(2 * strands))


def _is_noncrossing_pairing(seq: tuple[int, ...]) -> bool:
    n = len(seq)
    if n % 2:
        return False
    if not all(0 <= seq[i] < n and seq[i] != i and seq[seq[i]] == i for i in range(n)):
        return False
    stack: list[int] = []
    for i in range(n):
        if i < seq[i]:
            stack.append(seq[i])
        elif stack.pop() != i:
            return False
    return True


@dataclass(frozen=True)
class NoncrossingMatching:
    """A perfect noncrossing matching of the 2n boundary points of a diagram."""

    pairing: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "pairing", tuple(self.pairing))
        if not self.pairing or not _is_noncrossing_pairing(self.pairing):
            raise ValueError("not a noncrossing perfect matching")

    @property
    def strands(self) -> int:
        return len(self.pairing) // 2

    @classmethod
    def identity(cls, strands: int) -> NoncrossingMatching:
        return cls(_identity_pairing(strands))


def enumerate_matchings(strands: int) -> Iterator[NoncrossingMatching]:
    """All C(strands) noncrossing perfect matchings on 2*strands points."""
    if strands < 1:
        raise ValueError("strand count must be >= 1")
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
        yield NoncrossingMatching(tuple(seq))


def _cupcap(pairing: tuple[int, ...], j: int) -> tuple[tuple[int, ...], int]:
    """Compose the cup-cap generator at bottom positions (j, j+1) under a diagram.

    Returns the new pairing and the number of loops closed (0 or 1).
    """
    a, b = pairing[j], pairing[j + 1]
    if a == j + 1:
        return pairing, 1
    new = list(pairing)
    new[j], new[j + 1] = j + 1, j
    new[a], new[b] = b, a
    return tuple(new), 0


def _closure_loops(pairing: tuple[int, ...], strands: int) -> int:
    closure = _identity_pairing(strands)
    seen = [False] * (2 * strands)
    loops = 0
    for start in range(2 * strands):
        if seen[start]:
            continue
        loops += 1
        v = start
        while not seen[v]:
            seen[v] = True
            partner = pairing[v]
            seen[partner] = True
            v = closure[partner]
    return loops


class _Diagrams:
    """Integer ids for the diagrams on one strand count, with lazily filled cup-cap tables.

    ``moves[j][d]`` is ``target * 2 + loop`` for the cup-cap at bottom
    positions (j, j+1) composed under diagram ``d``, or -1 while not yet
    computed. ``closure[d]`` is the number of loops of d's braid closure,
    minus one. Id 0 is the identity diagram.

    The tables are shared by every caller in the process. A new id is
    published only after every row holds an entry for it, under a lock, so
    the lock-free reads of the transfer never see a partial diagram.
    """

    __slots__ = ("strands", "pairings", "ids", "moves", "closure", "lock")

    def __init__(self, strands: int):
        self.strands = strands
        self.pairings: list[tuple[int, ...]] = []
        self.ids: dict[tuple[int, ...], int] = {}
        self.moves: list[list[int]] = [[] for _ in range(strands - 1)]
        self.closure: list[int] = []
        self.lock = threading.Lock()
        self.intern(_identity_pairing(strands))

    def intern(self, pairing: tuple[int, ...]) -> int:
        with self.lock:
            d = self.ids.get(pairing)
            if d is None:
                d = len(self.pairings)
                self.pairings.append(pairing)
                for row in self.moves:
                    row.append(-1)
                self.closure.append(_closure_loops(pairing, self.strands) - 1)
                self.ids[pairing] = d
            return d

    def move(self, j: int, d: int) -> int:
        new, loops = _cupcap(self.pairings[d], j)
        code = self.moves[j][d] = self.intern(new) * 2 + loops
        return code


_DIAGRAMS: dict[int, _Diagrams] = {}


def _diagrams(strands: int) -> _Diagrams:
    table = _DIAGRAMS.get(strands)
    if table is None:
        table = _DIAGRAMS[strands] = _Diagrams(strands)
    return table


def _step(state: dict, letter: int, diagrams: _Diagrams, width: int) -> dict:
    """One letter of the transfer on packed coefficients ``{id: (base, P)}``.

    The straight term's factor A^(sign of letter) is left to the caller's
    running offset, so only the smoothed term moves its base, by twice the
    opposite sign, and by -2 more with a sign flip and a (1 + x) factor when
    it closes a loop.
    """
    j = abs(letter) - 1
    shift = -2 if letter > 0 else 2
    table = diagrams.moves[j]
    out = dict(state)
    get = out.get
    for d, (base, packed) in state.items():
        code = table[d]
        if code < 0:
            code = diagrams.move(j, d)
        target = code >> 1
        if code & 1:
            base += shift - 2
            packed = -(packed + (packed << width))
        else:
            base += shift
        cur = get(target)
        if cur is None:
            out[target] = (base, packed)
            continue
        cur_base, cur_packed = cur
        if cur_base == base:
            packed += cur_packed
        elif cur_base < base:
            packed = cur_packed + (packed << ((base - cur_base) >> 2) * width)
            base = cur_base
        else:
            packed += cur_packed << ((cur_base - base) >> 2) * width
        if packed:
            out[target] = (base, packed)
        else:
            del out[target]
    return out


def _pack(terms: dict[int, int], width: int) -> tuple[int, int]:
    """(base, P) for terms whose exponents are all congruent mod 4."""
    base = min(terms)
    return base, sum(c << ((e - base) >> 2) * width for e, c in terms.items())


def _unpack(base: int, packed: int, width: int) -> dict[int, int]:
    """Terms of A^base * P(A^4), reading P's balanced digits from the lowest slot up."""
    mask, half = (1 << width) - 1, 1 << (width - 1)
    terms = {}
    while packed:
        c = packed & mask
        packed >>= width
        if c >= half:
            c -= 1 << width
            packed += 1
        if c:
            terms[base] = c
        base += 4
    return terms


def tl_apply_letter(
    vec: Mapping[NoncrossingMatching, LaurentPoly], letter: int, strands: int
) -> dict[NoncrossingMatching, LaurentPoly]:
    """Apply the two-term skein expansion of one crossing to a diagram combination.

    The input is arbitrary, so its exponents need not share a residue mod 4
    within a diagram; each (diagram, residue) part is stepped on its own and
    the results are summed.
    """
    if letter == 0 or abs(letter) > strands - 1:
        raise ValueError(f"letter {letter} out of range for {strands} strands")
    diagrams = _diagrams(strands)
    offset = 1 if letter > 0 else -1
    out: dict[int, LaurentPoly] = {}
    for m, poly in vec.items():
        d = diagrams.intern(m.pairing)
        for residue in range(4):
            terms = {e: c for e, c in poly.items() if e % 4 == residue}
            if not terms:
                continue
            width = (3 * max(abs(c) for c in terms.values())).bit_length() + 1
            stepped = _step({d: _pack(terms, width)}, letter, diagrams, width)
            for target, (base, packed) in stepped.items():
                part = _wrap(_unpack(base + offset, packed, width))
                out[target] = out.get(target, LaurentPoly.zero()) + part
    return {NoncrossingMatching(diagrams.pairings[t]): p for t, p in out.items() if p}


def _rotated(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The rotation starting at the longest circular run that avoids the highest generator."""
    if not letters:
        return letters
    top = max(abs(l) for l in letters)
    length = len(letters)
    first = next(i for i, l in enumerate(letters) if abs(l) == top)
    best_start, best_len, run_start, run_len = 0, 0, 0, 0
    for k in range(first + 1, first + length + 1):
        i = k % length
        if abs(letters[i]) == top:
            if run_len > best_len:
                best_start, best_len = run_start, run_len
            run_len = 0
        else:
            if not run_len:
                run_start = i
            run_len += 1
    return letters[best_start:] + letters[:best_start]


def kauffman_bracket(b: BraidWord, threshold: int | None = None) -> LaurentPoly:
    """Kauffman bracket of the braid closure (a Laurent polynomial in A)."""
    limit = DEFAULT_STRAND_THRESHOLD if threshold is None else threshold
    if b.strands > limit:
        raise TooManyStrands(b.strands, limit, catalan(b.strands))
    width = (3 ** len(b.letters)).bit_length() + b.strands + 1
    diagrams = _diagrams(b.strands)
    state = {0: (0, 1)}
    for letter in _rotated(b.letters):
        state = _step(state, letter, diagrams, width)
    # Each diagram closes into closure[d] + 1 loops, a factor
    # delta^m = (-1)^m A^(-2m) (1 + x)^m with m = closure[d]. Terms are summed
    # per m on a common base, then multiplied by the packed (1 + x)^m.
    closure = diagrams.closure
    low = min(base - 2 * closure[d] for d, (base, _) in state.items())
    sums: dict[int, int] = {}
    for d, (base, packed) in state.items():
        m = closure[d]
        gap = base - 2 * m - low
        if gap & 3:
            raise InternalInvariantViolation(f"bracket exponents differ by {gap}, not a multiple of 4")
        sums[m] = sums.get(m, 0) + (packed << (gap >> 2) * width)
    one_plus_x = 1 + (1 << width)
    total = sum((-1) ** m * s * one_plus_x ** m for m, s in sums.items())
    return _wrap(_unpack(low + writhe(b), total, width))


def jones_from_braid(b: BraidWord, threshold: int | None = None) -> LaurentPoly:
    """Jones polynomial of the knot closure (a Laurent polynomial in t)."""
    if not is_knot_closure(b):
        raise NotAKnot(f"closure of {b.strands}-strand word is not a knot")
    w = writhe(b)
    bracket = kauffman_bracket(b, threshold)
    corrected = bracket.shifted(-3 * w) * (1 if w % 2 == 0 else -1)
    terms = {}
    for e, c in corrected.items():
        if e % 4:
            raise ExponentNotDivisibleBy4(
                f"corrected bracket exponent {e} not divisible by 4"
            )
        terms[-e // 4] = c
    return LaurentPoly(terms)
