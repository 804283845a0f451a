"""Kauffman bracket and Jones polynomial of a braid closure via Temperley-Lieb transfers.

Two routes compute the bracket: a transfer over all diagrams from the
identity, and a sum of traces on the cell modules. Both compute
delta <closure(b)> as a weighted sum of diagonal entries, through one kind of
table, one kernel (``_step``) and one closing path (``_bracket``); they differ
in their tables, their start states, their letter order and their weights.

Diagrams. A planar (Temperley-Lieb) diagram on n strands is a perfect
noncrossing matching of 2n boundary points. The points are numbered in a
fixed circular order: 0..n-1 along the bottom from left to right, then
n..2n-1 along the top from RIGHT to left. Reading the pairing in that order,
noncrossing matchings are exactly the balanced-parenthesis sequences, so the
involution array (point i is matched with pairing[i]) is a canonical,
hashable encoding, and the number of diagrams on n strands is the Catalan
number C(n).

Transfer. The full-diagram route starts from the identity diagram with
coefficient 1 and applies the word letter by letter. A positive
letter at position i expands as A * (identity) + A^{-1} * (cup-cap at i); a
negative letter swaps the two weights. Composing a cup-cap onto a diagram
either re-pairs four points or, when the two bottom points were already
matched to each other, closes a loop, multiplying the coefficient by
delta = -A^2 - A^{-2}. Letters act on each basis diagram locally, so the
state is a sparse map from diagrams to coefficients; materializing
C(n) x C(n) generator matrices would waste memory. Closing the braid matches
bottom point i with the top point above it; a diagram whose closure has m
loops contributes delta^(m - 1) to the bracket, so delta^m to
delta <closure(b)>.

Ids and tables. Both routes use one table type, ``_Tables``, per strand
count. It gives each diagram or link state a word reaches an integer id:
from the identity, id 0, for the full transfer (``_diagrams``), and from one
link state per cell module for the trace (``_modules``). ``group[d]``
picks the closing weight of d: the loops of a diagram's closure, or the
defects of a link state. For generator j a row gives, per id,
``target_id * 2 + loop``: the state the cup-cap at j composes it into, and
whether that closed a loop; -1 marks an entry not yet computed, -2 a term a
cell module drops. The diagram tables are filled on first use, by ``move``,
only for the diagrams a word actually reaches; the module tables are
complete when ``_modules`` returns them. Both are kept for later words, so a
letter step is a list lookup instead of a tuple rewrite and a hash. Nothing
is built at import time. A stepped state maps ids to packed coefficients,
so on both routes its keys are plain diagram or link state ids. Both routes
run through the same functions: ``_run`` steps one start through the word,
``_transfer`` decodes its stepped state per diagram or link state (the
selftest and the tests check the algebra's relations through it),
``_closed`` sums the closing terms with their weights, and ``_bracket`` runs
every start, divides the closed sum by delta and decodes it.
``_reachable`` walks the tables from the starts, filling them as the kernel
does: ``_modules`` builds the modules with it, and the selftest counts the
Catalan basis with it.

The diagram tables keep every strand count a process has used; the module
tables, at most C(n, floor(n/2)) states each, keep the last four. Diagram
tables built in full, as the arc-only link states on 2n points, took 0.52 s
and a 55 MB peak at 11 strands and 3.4 s and 169 MB at 12 (one 2-core Xeon
host), while the lazy transfer of a random 25-letter 12-strand word took
0.004-0.072 s and reached 576-4,992 of the 208,012 diagrams (three seeds),
and five figure-eights summed on 11 strands took 0.026-0.037 s and reached
3,125 of 58,786. A small bound on the strand counts kept would rebuild tables
within one pass over mixed strand counts: the small-braids benchmark draws
words on five strand counts, 3 to 7, in shuffled order.

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
full transfer runs on the rotation that starts right after the last
occurrence of the highest generator. Until that generator occurs again, the
strand right of it stays straight, so the state holds at most C(n - 1)
diagrams. On the 5,399 full-transfer brackets of the small-braids words of
seeds 1-3 this rotation steps 1,601,432 entries, where the word as written
steps 1,696,628 and a rotation to the longest run that avoids the highest
generator 1,574,671. Rotation included, it took 0.470-0.476 s, against
0.478-0.484 s for each of the other two (sum over the words of the best of
6 runs, two rounds, one 2-core host). The module route steps the word as
written: rotated by this rule, the reduced word of (a, k1, k2) = (1,2,5)
steps 3.35 million entries there instead of 1.17 million.

Cell modules. A link state on n points pairs some points by noncrossing arcs
and leaves k of them as defects, with no arc passing over a defect. The link
states with k defects (k = n, n - 2, ... >= 0) span the cell module W_k, of
dimension C(n, (n-k)/2) - C(n, (n-k)/2 - 1); the squares of these dimensions
sum to C(n). The cup-cap E_j acts on a link state by the same rewrite as on
a diagram (``_cupcap``): when j and j+1 are joined to each other it closes a
loop; when they are joined to other points a and b it re-pairs (j, j+1) and
(a, b); when one of them is a defect, the defect moves to the partner of the
other; when both are defects the result is 0, since it would join two
through-lines. With Delta_0 = 1, Delta_1 = delta and
Delta_(k+1) = delta Delta_k - Delta_(k-1) (Goodman, de la Harpe and Jones,
Coxeter Graphs and Towers of Algebras, 1989; link states as in Ridout and
Saint-Aubin, arXiv:1204.4505),

    delta * <closure(b)> = sum_k Delta_k(delta) tr(b on W_k).

Writing Delta_k = A^(-2k) Q_k(x) gives Q_0 = 1, Q_1 = -(1 + x) and
Q_(k+1) = -(1 + x) Q_k - x Q_(k-1).

One link state per module reaches all of W_k: c_k, which pairs (0, 1),
(2, 3), ... and leaves the last k points as defects. Its orbit is the set
of link states that products of cup-caps take it to; each such product
gives a power of delta times one link state, or 0. The orbit is the whole
basis of W_k:

- every Temperley-Lieb diagram is a product of cup-caps (the identity the
  empty one), so the span of the orbit is the submodule TL_n c_k;
- W_k is irreducible over Q(delta) (Goodman, de la Harpe and Jones; Ridout
  and Saint-Aubin), so that span is W_k;
- the orbit is a subset of the link-state basis, and a subset of a basis
  that spans W_k is the whole basis.

The rewrite does not depend on delta, so neither does the orbit. So
``_modules`` walks the tables from the states c_k, which fills every entry,
and makes every state it reaches a start.

Module route. Link states get the ids 0, 1, ... over all modules of one
strand count, module by module from k = n defects down, and within W_k in
the order the walk from c_k first reaches them. Every one of them is a
start. No sum over the starts depends on that order, but it was measured:
one walk over all modules at once, which interleaves their ids, made the
jones-9 torus brackets 2-4% slower (best of 40 in-process runs each).
``_bracket`` steps each start s on its own, with coefficient 1, through the
word and keeps only the entry at s, its diagonal: entries of different
starts never combine, so a trace needs nothing else. The full transfer runs through the
same loop with the identity as its one start, and there every entry is a
diagonal. ``_closed`` sums the diagonals per group: per module into tr_k,
weighted by A^(-2k) Q_k(x), and per loop count m, weighted by
delta^m = A^(-2m) (-(1 + x))^m. Either sum is delta <closure(b)>; it is
divided exactly by 1 + 2^W, the packed 1 + x of delta = -A^(-2)(1 + x), and
decoded once. In the full transfer every weight is a multiple of delta, so
there the division always leaves no remainder.

Memory in the modules. A cup-cap never changes the number of defects of a
link state, so no table entry leaves its module, and the stepped state of a
start in W_k holds at most dim W_k entries, whatever the word: at most
max_k dim W_k, which is 165 at 11 strands, 572 at 13 and 2,002 at 15. The
bound rests on the tables being right: ``_modules`` checks that no entry
leaves its module when it builds them, at every strand count, and raises
InternalInvariantViolation if one does.

Exponents mod 4 in the modules. Over Z[delta] the algebra is graded mod 2 with
every E_j and delta odd: its defining relations E_j^2 = delta E_j,
E_j E_(j+-1) E_j = E_j and E_i E_j = E_j E_i (|i - j| > 1) are homogeneous
mod 2, and each diagram, a product of cup-caps, is homogeneous. A link state t
of W_k stands for the diagram with bottom half t and a fixed top half, so it
has a degree g(t), and E_j t = delta^l t' gives g(t') = g(t) + 1 + l mod 2.
A smoothing path from s to t with m cup-caps and l loops therefore has
m + l = g(t) - g(s) mod 2. Every cup-cap moves the base by +-2 and every loop
by -2 more, so a path's base is 2(m + l) = 2(g(t) - g(s)) mod 4: all terms of
one entry share a base mod 4, so the entry packs, and every diagonal entry
has base 0 mod 4, for every start and every module. The weights
A^(-2k) differ by multiples of 4 across modules, as k = n mod 2, so all the
weighted terms meet on one base. An exponent gap that is not a multiple of
4, or a remainder in the division, is a broken table or kernel and raises
InternalInvariantViolation; ``_closed`` holds the one gap check for both
routes.

Width in the modules. The routes use the same W. An entry of one start's
state sums, over the subsets of smoothed letters that lead to it, one term
+-A^e delta^l with l at most the number of smoothed letters, so its
coefficients sum to at most sum_m C(L, m) 2^m = 3^L in absolute value. A
module trace adds the diagonals of its dim W_k <= C(n, floor(n/2)) < 2^n
starts, so its coefficients stay below
dim W_k * 3^L < 2^n 2^bit_length(3^L) = 2^(W-1), and each trace is uniquely
decodable on its own. The decoded quotient is the bracket, under 2^(W-2) by
the bound above.

Why both routes. The two routes share every function but their table
constructors, and differ most in where they start. The module route steps
each of the C(n, floor(n/2)) link states, where the full transfer steps the
identity alone, and random words fill their states: on the 1,800 words of
the small-braids benchmark (seed 1) it steps 1,440,600 entries against
535,538 and takes about 2.7 times as long. On torus and twisted torus words
it stays sparse: on the torus words of jones-9 (T(9,10), T(8,9), T(8,11)) it
steps 35,886, 12,221 and 15,113 entries where the full transfer steps
288,043, 66,857 and 86,877. Its tables hold the C(n, floor(n/2)) link
states (1,716 at n = 13), where the full transfer interns every diagram it
reaches, up to C(n) (742,900 at n = 13). The Jones polynomial of a ``TT``
node with q < r runs on the shorter r-strand word d_r^(q + rs) D_q^(p - r)
that ``_reduced_twisted_torus_braid`` builds, with d_m = s1 ... s_(m-1) and
D_m = s_(m-1) ... s1. The module route steps 1,985 entries of that word for
TT(9,5,7,-1), the fourth jones-9 word, 7 strands and 20 letters, where the
full transfer steps 2,155, and both take 1-3 ms on their first run; on the
11 strands of (a, k1, k2) = (2,2,2) it steps 105,489 against 366,268 and
takes 0.03 s against 0.15-0.46 s, the higher figure while the tables fill.
So ``kauffman_bracket`` takes the module route for exactly the torus-shaped
words that ``_is_twisted_torus_word`` in ``braid.py`` accepts, the words
that module builds, and the full transfer for every other word.

The Jones polynomial is the writhe correction (-A^3)^(-writhe) times the
bracket, re-expressed in t = A^{-4}. For a knot every exponent of the
corrected bracket is divisible by 4; a failure of that divisibility is a
convention bug, never valid input, and raises immediately.

Diagram counts grow like C(n), so bracket computations refuse strand counts
above a feasibility threshold (default 12, C(12) = 208012) instead of
consuming unbounded time; callers may raise the threshold explicitly.
"""

from __future__ import annotations

import functools
import math
import sys
import threading

from .braid import BraidWord, _is_twisted_torus_word, is_knot_closure, writhe
from .errors import (
    ExponentNotDivisibleBy4,
    InternalInvariantViolation,
    NotAKnot,
    TooManyStrands,
)
from .laurent import LaurentPoly, _unpack, _wrap

DEFAULT_STRAND_THRESHOLD = 12


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


def _cupcap(state: tuple[int, ...], j: int) -> tuple[tuple[int, ...], int] | None:
    """Compose the cup-cap generator at bottom positions (j, j+1) under a diagram or a link state.

    ``state[i]`` is the partner of point i, or -1 where i is a defect. Returns
    the new state and the number of loops closed (0 or 1), or None where j and
    j+1 are both defects: the term would join two through-lines, which a
    cell module drops. A point paired with j or j+1 takes the partner of the
    other one, so a defect moves from j+1 (or j) to that point.
    """
    a, b = state[j], state[j + 1]
    if a == j + 1:
        return state, 1
    if a < 0 and b < 0:
        return None
    new = list(state)
    new[j], new[j + 1] = j + 1, j
    if a >= 0:
        new[a] = b
    if b >= 0:
        new[b] = a
    return tuple(new), 0


def _closure_loops(pairing: tuple[int, ...]) -> int:
    last = len(pairing) - 1  # the closure joins point i with point last - i
    seen = [False] * len(pairing)
    loops = 0
    for start in range(len(pairing)):
        if seen[start]:
            continue
        loops += 1
        v = start
        while not seen[v]:
            seen[v] = True
            partner = pairing[v]
            seen[partner] = True
            v = last - partner
    return loops


class _Tables:
    """Integer ids for the diagrams or link states on one strand count, with their cup-cap tables.

    ``starts`` are the ids of the states passed in, interned first; any other
    state gets the next id when a move first reaches it. ``_modules``
    interns its own states, one per module, and makes every state a start. ``group[d]`` picks the closing weight of d:
    the loops of a diagram's braid closure, or the defects of a link state,
    the module it spans. ``moves[j][d]`` is ``target * 2 + loop`` for the
    cup-cap at bottom positions (j, j+1) composed under d, -1 while not yet
    computed, or -2 where the term is 0 in a cell module (j and j+1 both
    defects).

    The tables are shared by every caller in the process. A new id is
    published only after every row holds an entry for it, under a lock, so
    the lock-free reads of the transfer never see a partial state.
    """

    __slots__ = ("strands", "states", "ids", "group", "grouping", "moves", "lock", "starts")

    def __init__(self, strands: int, starts: list[tuple[int, ...]], grouping):
        self.strands = strands
        self.states: list[tuple[int, ...]] = []
        self.ids: dict[tuple[int, ...], int] = {}
        self.group: list[int] = []
        self.grouping = grouping
        self.moves: list[list[int]] = [[] for _ in range(strands - 1)]
        self.lock = threading.Lock()
        for state in starts:
            self.intern(state)
        self.starts = range(len(starts))

    def intern(self, state: tuple[int, ...]) -> int:
        with self.lock:
            d = self.ids.get(state)
            if d is None:
                d = len(self.states)
                self.states.append(state)
                for row in self.moves:
                    row.append(-1)
                self.group.append(self.grouping(state))
                self.ids[state] = d
            return d

    def move(self, j: int, d: int) -> int:
        moved = _cupcap(self.states[d], j)
        code = -2 if moved is None else self.intern(moved[0]) * 2 + moved[1]
        self.moves[j][d] = code
        return code


@functools.cache
def _diagrams(strands: int) -> _Tables:
    """The full transfer's tables: the identity is the one start; kept for every strand count used."""
    return _Tables(strands, [_identity_pairing(strands)], _closure_loops)


def _reachable(tables: _Tables) -> list[int]:
    """Ids of every state reachable from the starts through the cup-cap tables ``_step`` reads.

    From the identity these are the C(strands) basis diagrams, as the
    cup-caps generate the diagram algebra; from one link state per cell
    module, every link state. Table entries still missing are filled on the
    way, by the ``move`` the kernel calls.
    """
    order, reached = list(tables.starts), set(tables.starts)
    for d in order:  # grows while it is walked: a breadth-first search
        for j, row in enumerate(tables.moves):
            code = row[d]
            if code == -1:
                code = tables.move(j, d)
            if code >= 0 and code >> 1 not in reached:
                reached.add(code >> 1)
                order.append(code >> 1)
    return sorted(order)


@functools.lru_cache(maxsize=4)
def _modules(strands: int) -> _Tables:
    """The cell modules' tables, complete: every link state starts, module by module from k = n defects down.

    Each module is walked from c_k alone, which pairs (0, 1), (2, 3), ...
    and leaves the last k points as defects; the walk reaches every link
    state of W_k (see the module docstring) and fills every entry. An entry
    that leaves its module raises InternalInvariantViolation.
    """
    tables = _Tables(strands, [], lambda state: state.count(-1))
    for arcs in range(strands // 2 + 1):
        c_k = tuple(i ^ 1 if i < 2 * arcs else -1 for i in range(strands))
        tables.starts = [tables.intern(c_k)]
        _reachable(tables)
    tables.starts = range(len(tables.states))
    group = tables.group
    for j, row in enumerate(tables.moves):
        if any(code >= 0 and group[code >> 1] != group[d] for d, code in enumerate(row)):
            raise InternalInvariantViolation(f"a cup-cap at {j} leaves a cell module on {strands} strands")
    return tables


def _step(state: dict, letter: int, tables: _Tables, width: int) -> dict:
    """One letter of the transfer on packed coefficients ``{d: (base, P)}``, d a diagram or link state id.

    The straight term's factor A^(sign of letter) is left to the caller's
    running offset, so only the smoothed term moves its base, by twice the
    opposite sign, and by -2 more with a sign flip and a (1 + x) factor when
    it closes a loop.
    """
    j = abs(letter) - 1
    smoothed = -2 if letter > 0 else 2
    table = tables.moves[j]
    out = state.copy()
    get = out.get
    for d, (base, packed) in state.items():
        code = table[d]
        if code < 0:
            if code == -1:
                code = tables.move(j, d)
            if code == -2:  # both defects: the cell module drops the term
                continue
        target = code >> 1
        if code & 1:
            base += smoothed - 2
            packed = -(packed + (packed << width))
        else:
            base += smoothed
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


def _run(tables: _Tables, start: int, letters: tuple[int, ...]) -> tuple[dict, int]:
    """The diagram or link state ``start`` with coefficient 1, stepped through ``letters``.

    Returns the packed state and the width W = bit_length(3^L) + n + 1 it was
    stepped at; the width bound holds for the state before closure too.
    """
    width = (3 ** len(letters)).bit_length() + tables.strands + 1
    state = {start: (0, 1)}
    for letter in letters:
        state = _step(state, letter, tables, width)
    return state, width


def _transfer(tables: _Tables, s: int, letters: tuple[int, ...]) -> dict[int, LaurentPoly]:
    """Diagram or link state ``s`` stepped through ``letters``, decoded per diagram or link state.

    The selftest and the tests check the relations of the algebra through
    this function, so they are checked on the kernel the bracket runs.
    """
    state, width = _run(tables, s, letters)
    offset = sum(1 if letter > 0 else -1 for letter in letters)
    return {
        d: _wrap(_unpack(base + offset, packed, width, 4))
        for d, (base, packed) in state.items()
    }


def _rotated(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The rotation that starts right after the last occurrence of the highest generator."""
    if not letters:
        return letters
    top = max(abs(l) for l in letters)
    cut = max(i for i, l in enumerate(letters) if abs(l) == top) + 1
    return letters[cut:] + letters[:cut]


def _basis_size(strands: int) -> int | str:
    """C(strands), or the text "C(<strands>)" where that number has too many digits to print.

    The limit is the interpreter's int-to-str digit limit, or CPython's default
    of 4300 digits where it has none. C(n) >= 4^n / ((2n + 1)(n + 1)) > 2^(2n - b),
    b the bit length of (2n + 1)(n + 1), and 2^(floor(3.322 * limit) + 1) > 10^limit,
    so C(n) is computed only where that bound leaves the comparison open, at most
    about 1.00003 * limit + log10(n) + 2 digits (at the default, n <= 7155).
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    if 2 * strands - ((2 * strands + 1) * (strands + 1)).bit_length() <= limit * 3322 // 1000:
        size = catalan(strands)
        if size < 10 ** limit:
            return size
    return f"C({strands})"


def _check_strands(strands: int, threshold: int | None) -> None:
    """Refuse a transfer on more strands than the threshold (None: DEFAULT_STRAND_THRESHOLD)."""
    limit = DEFAULT_STRAND_THRESHOLD if threshold is None else threshold
    if strands > limit:
        raise TooManyStrands(strands, limit, _basis_size(strands))


def _closed(terms: list[tuple[int, int, int]], weights: list[int], width: int) -> tuple[int, int]:
    """The terms ``(g, base, packed)`` closed with the weight A^(-2g) ``weights[g]`` of their group g.

    Both routes close this way: a diagram that closes into m + 1 loops is
    weighted by delta^m = A^(-2m) (-(1 + x))^m, and module k by
    Delta_k = A^(-2k) Q_k(x). The terms of each group are summed on the
    lowest base, and each sum is multiplied by its packed weight once.
    Returns that base and the packed total.
    """
    low = min(base - 2 * g for g, base, _ in terms)
    sums: dict[int, int] = {}
    for g, base, packed in terms:
        gap = base - 2 * g - low
        if gap & 3:
            raise InternalInvariantViolation(f"closure exponents differ by {gap}, not a multiple of 4")
        sums[g] = sums.get(g, 0) + (packed << (gap >> 2) * width)
    return low, sum(weights[g] * total for g, total in sums.items())


def _bracket(b: BraidWord, tables: _Tables) -> LaurentPoly:
    """The bracket from the diagonal entries of every start stepped through the word, divided by delta.

    delta <closure(b)> is the weighted sum of the diagonal entries. With one
    start, the identity, every entry is diagonal and a diagram whose closure
    has m loops weighs delta^m. The cell modules, with more starts, step the
    word as written once per start, keep only the start's own entry and weigh
    the diagonal of W_k by Delta_k. On one strand both tables hold one state
    that weighs delta.
    """
    trace = len(tables.starts) > 1
    # the full transfer steps a rotation of the word, with the same closure,
    # to keep its state small for longer; the modules step it as written
    letters = b.letters if trace else _rotated(b.letters)
    group = tables.group
    diagonal = []
    for s in tables.starts:
        state, width = _run(tables, s, letters)
        if not trace:
            diagonal.extend((group[d], base, packed) for d, (base, packed) in state.items())
        elif s in state:
            diagonal.append((group[s], *state[s]))
    x = 1 << width
    if trace:  # Delta_k = A^(-2k) Q_k(x)
        weights = [1, -(1 + x)]
        while len(weights) <= b.strands:
            weights.append(-(1 + x) * weights[-1] - x * weights[-2])
    else:  # delta^m = A^(-2m) (-(1 + x))^m
        weights = [(-1 - x) ** m for m in range(b.strands + 1)]
    low, total = _closed(diagonal, weights, width)
    # delta = -A^(-2)(1 + x), so <closure> = -A^(low + 2) total / (1 + x)
    quotient, remainder = divmod(total, 1 + x)
    if remainder:
        raise InternalInvariantViolation("weighted closures are not a multiple of delta")
    return _wrap(_unpack(low + 2 + writhe(b), -quotient, width, 4))


def kauffman_bracket(b: BraidWord, threshold: int | None = None) -> LaurentPoly:
    """Kauffman bracket of the braid closure (a Laurent polynomial in A)."""
    _check_strands(b.strands, threshold)
    return _bracket(b, _modules(b.strands) if _is_twisted_torus_word(b) else _diagrams(b.strands))


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
