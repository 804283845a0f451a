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
    # p = 1 is the unknot for any q, even one too large to repeat a sequence by
    word = _delta_power(p, abs(q)) if p > 1 else ()
    return BraidWord(p, word if q >= 0 else tuple(-l for l in word))


def _delta_power(m: int, k: int) -> tuple[int, ...]:
    """d_m^k with d_m = s1 ... s_(m-1); for k < 0 in the inverse form, d_m^(-1) = s_(m-1)^-1 ... s1^-1.

    s full twists on strands 1..m are d_m^(ms). The period is repeated by
    ``*``, so a k too large to index with raises at once.
    """
    period = tuple(range(1, m)) if k >= 0 else tuple(range(1 - m, 0))
    return period * abs(k)


def _D_power(m: int, j: int) -> tuple[int, ...]:
    """D_m^j with D_m = s_(m-1) ... s1, j >= 0."""
    return tuple(range(m - 1, 0, -1)) * j


def twisted_torus_braid(p: int, q: int, r: int, s: int) -> BraidWord:
    """Torus braid for (p, q) followed by s full twists on strand positions 1..r."""
    TwistedTorusParams(p, q, r, s)  # validates; q > 0, so the torus part is positive
    return BraidWord(p, _delta_power(p, q) + _delta_power(r, r * s))


def _reduced_twisted_torus_braid(p: int, q: int, r: int, s: int) -> BraidWord:
    """A word on r strands whose closure is that of ``twisted_torus_braid(p, q, r, s)``, for q < r.

    The word is d_r^(q + rs) D_q^(p - r), where d_m = s1 ... s_(m-1),
    D_m = s_(m-1) ... s1 and d_r^(-1) = s_(r-1)^-1 ... s1^-1. Its bracket is
    that of the p-strand word divided by (-A^3)^(p - r), and its writhe is
    p - r lower, so the Jones polynomials agree. For q >= r the p-strand word
    itself is returned.

    Lemma. Let 1 <= q <= m and let X be a word on strands 1..m (no letter m).
    Then closure(d_(m+1)^q X) on m + 1 strands is closure(d_m^q X D_q) on m
    strands, and its bracket is -A^3 times the latter's.

    (a) d_m s_i = s_(i+1) d_m for 1 <= i <= m - 2: s_(i+1) commutes with
        s1 .. s_(i-1), and s_i s_(i+1) s_i = s_(i+1) s_i s_(i+1). Also
        s_m d_m s_m = d_m s_m s_(m-1), as s_m commutes with s1 .. s_(m-2)
        and s_(m-1) s_m s_(m-1) = s_m s_(m-1) s_m.
    (b) d_(m+1)^k = d_m^k c_k with c_k = s_m s_(m-1) ... s_(m-k+1), for
        1 <= k <= m. For k = 1 this is d_(m+1) = d_m s_m. For k + 1 <= m,
        d_(m+1)^(k+1) = d_m^k c_k d_m s_m. By (a), s_(m-1) ... s_(m-k+1) d_m
        = d_m s_(m-2) ... s_(m-k), every index moved being at least 2; s_m
        commutes with s_(m-2) ... s_(m-k), so c_k d_m s_m =
        s_m d_m s_m s_(m-2) ... s_(m-k) = d_m s_m s_(m-1) ... s_(m-k) = d_m c_(k+1).
    (c) So d_(m+1)^q X = d_m^q s_m E X with E = s_(m-1) ... s_(m-q+1), and
        s_m occurs once. Closure is invariant under cyclic rotation, so it is
        the closure of s_m (E X d_m^q), with E X d_m^q on strands 1..m; a
        Markov destabilization removes s_m and strand m + 1, and with them
        one positive kink, a factor -A^3 of the bracket. What is left closes
        as d_m^q E X.
    (d) Applying (a) m - q times moves D_q = s_(q-1) ... s1 up to E:
        E = d_m^(m-q) D_q d_m^(q-m). The full twist d_m^m is central in B_m,
        so d_m^q E X = d_m^m D_q d_m^(q-m) X = D_q d_m^q X, which closes as
        d_m^q X D_q.

    The lemma applied for m = p - 1, p - 2, ..., r, with
    X = (d_r^r)^s D_q^j on strands 1..r (q < r <= m), takes d_p^q (d_r^r)^s,
    the word ``twisted_torus_braid`` builds, to d_r^q (d_r^r)^s D_q^(p - r)
    on r strands. The full twist block is ``_delta_power(r, r * s)``, which
    is (d_r^r)^s letter for letter, so d_r^q (d_r^r)^s reduces freely to
    d_r^(q + rs). Its exponent is never 0: it is q for s = 0, and
    |rs| >= r > q otherwise.
    """
    TwistedTorusParams(p, q, r, s)
    if q >= r:
        return twisted_torus_braid(p, q, r, s)
    return BraidWord(r, _delta_power(r, q + r * s) + _D_power(q, p - r))


def _twisted_torus_blocks(b: BraidWord) -> list[tuple[tuple[int, ...], int]] | None:
    """The blocks ``[(period, count), ...]`` of a torus-shaped word, or None for any other word.

    A torus-shaped word is a torus block on all n strands, then nothing, full
    twists on strands 1..r or D_m^j, r, m < n. The torus block is d_n^q, its
    mirror (s1^-1 ... s_(n-1)^-1)^q or its inverse d_n^(-q), q >= 1; the full
    twists are d_r^(rs) of either sign, and j >= 1. These are the words
    ``torus_braid``, ``twisted_torus_braid`` and
    ``_reduced_twisted_torus_braid`` build, from the same blocks, and
    ``kauffman_bracket`` takes the cell-module route, one period at a time,
    for exactly them: on random words that route steps more entries than the
    full transfer. The inverse block and D_m^j were added for the reduced
    words; they moved none of the 9,000 small-braids words of seeds 1, 2, 3,
    21 and 81 to the module route. Whole periods are matched from the start,
    the period picked by the first letter (on 2 strands the mirror and the
    inverse period are both (-1,)); what follows holds no letter n - 1, so it
    cannot extend them, and must equal the twist block or the power of D_m
    its highest letter and length imply. The periods repeated ``count`` times
    each and concatenated give the word back.
    """
    n, letters = b.strands, b.letters
    period = _delta_power(n, 1)
    if letters[:1] == (-1,):
        period = tuple(-l for l in period)
    elif letters[:1] == (1 - n,):
        period = _delta_power(n, -1)
    end = 0
    while period and letters[end:end + n - 1] == period:
        end += n - 1
    if not end:
        return None
    blocks = [(period, end // (n - 1))]
    rest = letters[end:]
    if not rest:
        return blocks
    m = max(map(abs, rest)) + 1  # r or m
    if m >= n:
        return None
    twist = _delta_power(m, 1 if rest[0] > 0 else -1)
    turns, extra = divmod(len(rest), m * (m - 1))
    if not extra and rest == twist * (m * turns):
        return blocks + [(twist, m * turns)]
    count = len(rest) // (m - 1)
    if rest == _D_power(m, count):
        return blocks + [(_D_power(m, 1), count)]
    return None


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
