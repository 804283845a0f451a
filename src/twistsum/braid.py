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
from dataclasses import dataclass, field

from .errors import EmptyDiagram, NotAKnot

Crossing = tuple[int, int, int, int]


@dataclass(frozen=True)
class BraidWord:
    """A braid group element given as a word in the Artin generators.

    ``_blocks`` is None for a word given by its letters. The builders below
    set it to the blocks ``[(period, count), ...]`` the letters were made
    from, and ``kauffman_bracket`` steps those blocks one period at a time. It
    takes no part in equality, hashing or ``repr``.
    """

    strands: int
    letters: tuple[int, ...] = ()
    _blocks: list[tuple[tuple[int, ...], int]] | None = field(default=None, init=False, compare=False, repr=False)

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


def _from_blocks(strands: int, blocks: list[tuple[tuple[int, ...], int]]) -> BraidWord:
    """The word of each period repeated ``count`` times in turn, with those blocks attached.

    Empty periods and zero counts are dropped first; a word with no block
    left gets None, as a word given by its letters does. Each period is
    repeated by ``*``, so a count too large to index with raises at once.
    """
    blocks = [(period, count) for period, count in blocks if period and count]
    letters: tuple[int, ...] = ()
    for period, count in blocks:
        letters += period * count
    word = BraidWord(strands, letters)
    object.__setattr__(word, "_blocks", blocks or None)
    return word


def torus_braid(p: int, q: int) -> BraidWord:
    """The standard p-strand presentation (s1 ... s_{p-1})^q = d_p^q of the (p, q) torus link.

    Negative q gives D_p^q, the mirror word: D_p^(-1) = s1^-1 ... s_(p-1)^-1
    is d_p with every letter negated. q = 0 or p = 1 gives the empty word.
    Coprimality is not enforced here (the closure may be a link); use
    is_knot_closure to check for a knot.
    """
    if p < 1:
        raise ValueError(f"requires p >= 1: got p={p}")
    return _from_blocks(p, [_delta_power(p, q) if q >= 0 else _D_power(p, q)])


def _delta_power(m: int, k: int) -> tuple[tuple[int, ...], int]:
    """The block of d_m^k with d_m = s1 ... s_(m-1); for k < 0 in the inverse form, d_m^(-1) = s_(m-1)^-1 ... s1^-1.

    s full twists on strands 1..m are d_m^(ms).
    """
    return (tuple(range(1, m)) if k >= 0 else tuple(range(1 - m, 0))), abs(k)


def _D_power(m: int, j: int) -> tuple[tuple[int, ...], int]:
    """The block of D_m^j with D_m = s_(m-1) ... s1; for j < 0 in the inverse form, D_m^(-1) = s1^-1 ... s_(m-1)^-1."""
    return (tuple(range(m - 1, 0, -1)) if j >= 0 else tuple(range(-1, -m, -1))), abs(j)


def twisted_torus_braid(p: int, q: int, r: int, s: int) -> BraidWord:
    """Torus braid for (p, q) followed by s full twists on strand positions 1..r."""
    TwistedTorusParams(p, q, r, s)  # validates; q > 0, so the torus part is positive
    return _from_blocks(p, [_delta_power(p, q), _delta_power(r, r * s)])


def _reduced_twisted_torus_braid(p: int, q: int, r: int, s: int) -> BraidWord:
    """A word on fewer strands whose closure is that of ``twisted_torus_braid(p, q, r, s)``, for q < r.

    For s = -1 the word is d_m^(-k2) D_(k2)^(-j) D_q^(p - r) on
    m = max(q, k2) strands, with k2 = r - q and j = min(q, k2); for every
    other s it is d_r^(q + rs) D_q^(p - r) on r strands. Here
    d_m = s1 ... s_(m-1), D_m = s_(m-1) ... s1, d_m^(-1) = s_(m-1)^-1 ... s1^-1
    and D_m^(-1) = s1^-1 ... s_(m-1)^-1. The bracket of the r-strand word is
    that of the p-strand word divided by (-A^3)^(p - r), and its writhe is
    p - r lower; the bracket of the m-strand word is that of the r-strand
    word divided by (-A^(-3))^j, and its writhe is j higher. So all three
    Jones polynomials agree. For q >= r the p-strand word itself is
    returned.

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
    |rs| >= r > q otherwise. The word carries the blocks d_r^(q + rs) and
    D_q^(p - r), or only the first for q = 1, where D_1 is empty.

    Mirror lemma. Let 1 <= k <= m and let Y be a word on strands 1..m. Then
    closure(d_(m+1)^(-k) Y) on m + 1 strands is closure(d_m^(-k) D_k^(-1) Y)
    on m strands, and its bracket is -A^(-3) times the latter's.

    This is the lemma seen through inversion, s_i -> s_i^-1 with the letters
    reversed, which sends d^k to d^(-k). Inverting (b) gives
    d_(m+1)^(-k) = c_k^(-1) d_m^(-k) = E^(-1) s_m^-1 d_m^(-k), with
    E = s_(m-1) ... s_(m-k+1) as in (c). So
    d_(m+1)^(-k) Y = E^(-1) s_m^-1 d_m^(-k) Y, and s_m^-1 occurs once. Its
    rotation s_m^-1 (d_m^(-k) Y E^(-1)) has d_m^(-k) Y E^(-1) on strands
    1..m; a Markov destabilization removes s_m^-1 and strand m + 1, and with
    them one negative kink, a factor -A^(-3) of the bracket. What is left
    closes as E^(-1) d_m^(-k) Y. Inverting (d) gives
    E^(-1) = d_m^(m-k) D_k^(-1) d_m^(k-m), and d_m^(-m) is central in B_m,
    so E^(-1) d_m^(-k) = d_m^(-m) d_m^(m-k) D_k^(-1) = d_m^(-k) D_k^(-1), and
    what is left closes as d_m^(-k) D_k^(-1) Y.

    For s = -1 the r-strand word is d_r^(-k2) D_q^(p - r). The mirror lemma
    applied for m = r - 1, r - 2, ..., with k = k2 and, after i steps,
    Y = D_(k2)^(-i) D_q^(p - r), takes it to
    d_m^(-k2) D_(k2)^(-i - 1) D_q^(p - r) on m strands. Y has letters up to
    max(k2, q) - 1, so the hypotheses k2 <= m and Y on strands 1..m hold
    exactly while m >= max(q, k2): the chain takes
    j = r - max(q, k2) = min(q, k2) steps and stops at max(q, k2) strands.
    For k2 <= q, every member of the family, it reaches q strands, and
    D_(k2)^(-k2) is the inverse full twist on strands 1..k2; TT(9,5,7,-1)
    becomes 18 letters on 5 strands. For k2 > q the next step, to k2 - 1
    strands, would need k <= m, which k2 > k2 - 1 breaks, so the word stays
    on k2 strands, where d_(k2)^(-k2) is an inverse full twist on all of
    them. For s != -1 the twist block d_r^(q + rs) is positive, or longer
    than a whole inverse twist, and the r-strand word is kept.
    """
    TwistedTorusParams(p, q, r, s)
    if q >= r:
        return twisted_torus_braid(p, q, r, s)
    if s == -1:
        k2 = r - q
        m = max(q, k2)
        return _from_blocks(m, [_delta_power(m, -k2), _D_power(k2, -min(q, k2)), _D_power(q, p - r)])
    return _from_blocks(r, [_delta_power(r, q + r * s), _D_power(q, p - r)])


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
