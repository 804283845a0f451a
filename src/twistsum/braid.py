"""Braid words and the torus / twisted-torus constructions.

Conventions, pinned operationally by the right-trefoil oracle in the test
suite:

* A braid on n strands is a sequence of nonzero letters; letter ``l`` means
  the Artin generator with index ``|l|`` (1-based, so 1 <= |l| <= n-1), and a
  positive letter crosses strand position ``|l|`` OVER position ``|l|+1``.
* The torus braid for (p, q) is (s1 s2 ... s_{p-1})^q on p strands; the
  closure of a positive word is the right-handed knot (the closure of
  ``2;1,1,1`` has Jones polynomial t + t^3 - t^4).
* The twisted torus braid for (p, q; r, s) appends s full twists
  ((s1 ... s_{r-1})^r)^s on strand positions 1..r to the torus braid. The
  twist block sits on the lowest-indexed strands; any choice of r adjacent
  strands closes to the same knot, so this one is fixed for determinism.

Text format: ``"n;l1,l2,...,lk"``, e.g. ``"2;1,1,1"``. Planar-diagram codes
are emitted as ``X[a,b,c,d]`` records, listing the four edge labels around a
crossing counterclockwise starting from the incoming under-strand edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EmptyDiagram, NotAKnot

Crossing = tuple[int, int, int, int]


@dataclass(frozen=True)
class BraidWord:
    """A braid group element given as a word in the Artin generators."""

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError(f"strand count must be >= 1, got {self.strands}")
        object.__setattr__(self, "letters", tuple(self.letters))
        for l in self.letters:
            if not isinstance(l, int) or l == 0 or abs(l) > self.strands - 1:
                raise ValueError(
                    f"letter {l!r} out of range for {self.strands} strands "
                    f"(need 1 <= |letter| <= {self.strands - 1})"
                )

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class TwistedTorusParams:
    """Parameters (p, q; r, s) with the standing constraints p > r > 1, q > 0, gcd(p, q) = 1."""

    p: int
    q: int
    r: int
    s: int

    def __post_init__(self):
        if not self.p > self.r:
            raise ValueError(f"requires p > r: got p={self.p}, r={self.r}")
        if not self.r > 1:
            raise ValueError(f"requires r > 1: got r={self.r}")
        if not self.q > 0:
            raise ValueError(f"requires q > 0: got q={self.q}")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"requires gcd(p, q) = 1: got p={self.p}, q={self.q}")


def torus_braid(p: int, q: int) -> BraidWord:
    """The standard p-strand presentation (s1 ... s_{p-1})^q of the (p, q) torus link.

    Negative q gives the mirror word; q = 0 or p = 1 gives the empty word.
    Coprimality is not enforced here (the closure may be a link); use
    is_knot_closure to check for a knot.
    """
    if p < 1:
        raise ValueError(f"requires p >= 1: got p={p}")
    if p == 1 or q == 0:
        return BraidWord(p, ())
    run = tuple(range(1, p))
    if q < 0:
        run = tuple(-i for i in run)
    return BraidWord(p, run * abs(q))


def _full_twist_block(r: int, s: int) -> tuple[int, ...]:
    """((s1 ... s_{r-1})^r)^s; the inverse word (reversed, negated) for s < 0."""
    word = tuple(range(1, r)) * r
    if s >= 0:
        return word * s
    inverse = tuple(-l for l in reversed(word))
    return inverse * (-s)


def twisted_torus_braid(p: int, q: int, r: int, s: int) -> BraidWord:
    """Torus braid for (p, q) followed by s full twists on strand positions 1..r."""
    params = TwistedTorusParams(p, q, r, s)
    base = torus_braid(params.p, params.q)
    return BraidWord(params.p, base.letters + _full_twist_block(params.r, params.s))


def braid_permutation(b: BraidWord) -> tuple[int, ...]:
    """Image of each strand position under the word, 1-based and sign-insensitive.

    Entry i-1 is the bottom position reached by the strand entering at top
    position i.
    """
    position = list(range(b.strands + 1))  # position[strand] (1-based strands)
    occupant = list(range(b.strands + 1))  # occupant[position]
    for l in b.letters:
        i = abs(l)
        a, c = occupant[i], occupant[i + 1]
        occupant[i], occupant[i + 1] = c, a
        position[a], position[c] = i + 1, i
    return tuple(position[1:])


def is_knot_closure(b: BraidWord) -> bool:
    """True iff the closure is a single-component knot (the permutation is one n-cycle)."""
    perm = braid_permutation(b)
    seen = 1
    at = perm[0]
    while at != 1:
        at = perm[at - 1]
        seen += 1
    return seen == b.strands


def writhe(b: BraidWord) -> int:
    """Exponent sum of the word = signed crossing count of the closure diagram."""
    return sum(1 if l > 0 else -1 for l in b.letters)


def braid_mirror(b: BraidWord) -> BraidWord:
    """Negate every letter; the closure is the mirror-image knot."""
    return BraidWord(b.strands, tuple(-l for l in b.letters))


def braid_connected_sum(b1: BraidWord, b2: BraidWord) -> BraidWord:
    """Side-by-side join whose closure is the connected sum of the two knot closures.

    The second word is shifted onto strands n1..n1+n2-1, sharing one strand
    with the first. Requires both closures to be knots; otherwise the
    component receiving the sum would be ambiguous.
    """
    for b in (b1, b2):
        if not is_knot_closure(b):
            raise NotAKnot("connected sum requires both closures to be knots")
    shift = b1.strands - 1
    shifted = tuple(l + shift if l > 0 else l - shift for l in b2.letters)
    return BraidWord(b1.strands + b2.strands - 1, b1.letters + shifted)


def closure_pd_code(b: BraidWord) -> tuple[Crossing, ...]:
    """Planar-diagram code of the braid closure.

    One X[a,b,c,d] record per letter, labels counterclockwise from the
    incoming under-strand edge, with strand orientation running down the
    braid. Edge labels form the contiguous range 1..2*len(letters) and each
    label appears exactly twice. Strand positions never used by a letter
    close into crossing-free circles, which a planar-diagram code cannot
    carry; the empty word is rejected outright.
    """
    if not b.letters:
        raise EmptyDiagram("closure of the empty word has no crossings to emit")
    counter = 0

    def fresh() -> int:
        nonlocal counter
        counter += 1
        return counter

    current: dict[int, int] = {}
    first: dict[int, int] = {}
    records: list[Crossing] = []
    for l in b.letters:
        j = abs(l) - 1
        for pos in (j, j + 1):
            if pos not in current:
                current[pos] = first[pos] = fresh()
        left_in, right_in = current[j], current[j + 1]
        left_out, right_out = fresh(), fresh()
        if l > 0:
            records.append((right_in, left_in, left_out, right_out))
        else:
            records.append((left_in, left_out, right_out, right_in))
        current[j], current[j + 1] = left_out, right_out
    # The closure arcs identify each position's last outgoing edge with its
    # first incoming edge, then labels are compressed to 1..2*crossings.
    merge = {current[pos]: first[pos] for pos in current if current[pos] != first[pos]}
    merged = [tuple(merge.get(x, x) for x in rec) for rec in records]
    relabel = {old: new for new, old in enumerate(sorted({x for rec in merged for x in rec}), start=1)}
    return tuple(tuple(relabel[x] for x in rec) for rec in merged)  # type: ignore[return-value]


def pd_code_to_text(pd: tuple[Crossing, ...]) -> str:
    return " ".join(f"X[{a},{b},{c},{d}]" for a, b, c, d in pd)


def braid_to_text(b: BraidWord) -> str:
    return f"{b.strands};{','.join(str(l) for l in b.letters)}"


def braid_from_text(text: str) -> BraidWord:
    head, sep, tail = text.partition(";")
    if not sep:
        raise ValueError(f"braid text needs the form 'n;l1,l2,...': got {text!r}")
    try:
        strands = int(head)
        # int() rejects an empty token, so "3;1,,2" and "3;1,2," fail here;
        # only a wholly empty letter list means the empty word.
        letters = tuple(int(tok) for tok in tail.split(",")) if tail.strip() else ()
    except ValueError as exc:
        raise ValueError(f"braid text needs the form 'n;l1,l2,...': got {text!r}") from exc
    return BraidWord(strands, letters)
