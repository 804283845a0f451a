"""Kauffman bracket and Jones polynomial of a braid closure via Temperley-Lieb transfers.

Two routes compute the bracket: a transfer over all diagrams from the
identity, and a sum of traces on the cell modules. Both compute
delta <closure(b)> as a weighted sum of diagonal entries, through one kind of
table, one letter kernel (``_step``) and one closing path (``_bracket``);
they differ in their tables, their start states, their letter order and
their weights. The module route steps a word one period at a time, through
block rows that ``_step`` builds, from the blocks its builder attached, and
takes the whole full twists of a block off as one monomial per module.

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
run through the same functions: ``_run`` steps one start through a word
letter by letter (``_run_blocks`` one period at a time, on the module route,
for a word that carries blocks), ``_transfer`` decodes its stepped state per
diagram or link state (the selftest and the tests check the algebra's
relations through it), ``_closed`` sums the closing terms with their
weights, and ``_bracket`` runs every start, divides the closed sum by delta
and decodes it.
``_reachable`` walks the tables from the ids it is given, filling them as
the kernel does: ``_modules`` builds the modules with it, and the selftest
counts the Catalan basis with it.

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
written, in the blocks it was built from. Letter by letter, rotated by this
rule, the reduced word of (a, k1, k2) = (1,2,5) steps 3.35 million entries
there instead of 1.17 million.

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

Block steps. The torus and twisted torus builders in ``braid.py`` make
each word from a few periods, each repeated, and only ``_delta_power`` and
``_D_power`` there spell a period: d_m^(+-1) or D_m^(+-1), with
d_m = s1 ... s_(m-1), D_m = s_(m-1) ... s1 and the inverse forms
d_m^(-1) = s_(m-1)^-1 ... s1^-1 and D_m^(-1) = s1^-1 ... s_(m-1)^-1, the
mirror of d_m. They attach these blocks ``[(period, count), ...]`` to the
word, as ``BraidWord._blocks``, and the letters are the periods
repeated and concatenated, so the two agree by construction. For each
distinct period ``_bracket`` builds one row per link state: the state with
coefficient 1 stepped through the period's letters by ``_run``, at the
whole word's width W, kept as the stepped state ``{target: (base, packed)}``.
The row of a start s for the first period of the word is s stepped through
that period, so ``_run_blocks`` takes it as the state of s after one period
and steps every later period by ``_block_step``: an entry
A^b P(x) at state s and a term A^c R(x) of the row of s add
A^(b + c) (P R)(x) at the term's target, merged as ``_step`` merges.
A block step builds a new state and never changes a row.
Evaluation at x = 2^W is a ring homomorphism, so the packed product of
P(2^W) and R(2^W) is (P R)(2^W), and a block step reaches the state that
letterwise stepping reaches, with the same integer polynomial in every
entry: it sums the same smoothing paths, grouped by the link states they
pass at the period boundaries. The rows are built per call from the
cached module tables and dropped with it; building them steps one period
per link state, and the full transfer, ``_transfer`` and the relation checks
keep stepping letter by letter. So does ``_bracket`` on the cell modules
when it is given no blocks, the tests' letterwise reference.

Full twists. On n strands the n-th power of each of the four periods is a
full twist Delta^(+-2), which is central in B_n (W.-L. Chow, Annals of
Math., 1948; F. A. Garside, Quart. J. Math., 1969). Delta^2 = d_n^n, with
Delta the half twist. Conjugation by Delta sends s_i to s_(n-i) (Garside),
so D_n = Delta d_n Delta^(-1) and D_n^n = Delta d_n^n Delta^(-1) = d_n^n,
as d_n^n is central. The inverse forms are the inverses of d_n and D_n, so
their n-th powers are Delta^(-2).

On the link states a letter acts as s_j = A + A^-1 E_j, so E_j = A s_j - A^2,
and an element central in B_n commutes with every E_j. Let T be the action
of Delta^(+-2) on W_k and suppose T c_k = lambda c_k. Every link state t of
W_k is in the orbit of c_k (see Cell modules, where the irreducibility of
W_k over Q(delta) gives it): a product X of cup-caps has X c_k = delta^l t.
Then delta^l T t = T X c_k = X T c_k = lambda delta^l t, and delta is not 0
in Q(A), so T t = lambda t: T is the scalar lambda on W_k. Both sides have
their coefficients in Z[A^+-1], so the identity holds there too. On c_k,
lambda is A^(+-(k(k + 2) - 3n)): the twisting coefficient (-1)^k A^(k(k+2))
of the k-th Jones-Wenzl channel (L. H. Kauffman and S. Lins, Temperley-Lieb
Recoupling Theory and Invariants of 3-Manifolds, 1994) times (-A^3)^(-n),
whose signs cancel as k = n mod 2. On W_n, where every E_j is 0 and s_j is
A, it is A^(n(n - 1)), as it must be. ``_modules`` steps d_n^n and d_n^(-n)
from every c_k when it builds the tables and raises
InternalInvariantViolation unless each gives c_k times exactly that
monomial, so the value holds on the tables every bracket steps.

A trace is unchanged by moving a central factor, so the trace of a word
with t full twists taken out of it is lambda^t times the trace of what is
left. ``_bracket`` peels them off every block whose period is one of the
four on all n strands of the word: of ``count`` periods it steps
``count mod n`` and adds floor(count / n) twists, Delta^2 for d_n and D_n
and Delta^(-2) for their inverses. Each twist moves the base of a diagonal
entry of W_k by +-(k - n)(k + n + 2) (``_twist_base``): lambda without the
A^(+-n(n - 1)) of the peeled letters, which the writhe of the whole word
adds at decoding. k - n and k + n + 2 are both even, so the move is a multiple of 4, and the
gap check of ``_closed`` holds for the peeled entries as for the stepped
ones. On the jones-9 torus words one period is left of T(9,10) and of
T(8,9), and three of T(8,11). The D_3^6 block of TT(11,3,5,-1)'s reduced
word is two whole twists and takes no block step.

Memory in the modules. A cup-cap never changes the number of defects of a
link state, so no table entry leaves its module, and the stepped state of a
start in W_k holds at most dim W_k entries, whatever the word: at most
max_k dim W_k, which is 165 at 11 strands, 572 at 13 and 2,002 at 15. The
bound rests on the tables being right: ``_modules`` checks that no entry
leaves its module when it builds them, at every strand count, and raises
InternalInvariantViolation if one does. A block row is a stepped state too,
so a row of a state of W_k holds at most dim W_k terms, and the rows of a
word's periods, held for one call, add at most that many terms per link
state and period.

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

Width in the modules. The routes use the same W, and so do block steps: a
block step computes the same integer polynomial entries as letterwise
stepping, so the bound below holds for them and the same W decodes them.
W is taken from the whole word's length, peeled twists included: a peeled
trace is a monomial times the trace of a shorter word, with that trace's
coefficients, which the bound for the whole word covers.
The packed row terms and products are exact whatever their digits; only
the final decoding needs the bound. An entry of one start's
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
identity alone, and random words fill their states: letter by letter on
the 1,800 words of the small-braids benchmark (seed 1) it steps 1,440,600
entries against 535,538 and takes about 2.7 times as long. On torus and
twisted torus words it stays sparse: on the torus words of jones-9
(T(9,10), T(8,9), T(8,11)) it builds the rows in 2,152, 941 and 941
letter-step entries (letter by letter it stepped 35,886, 12,221 and 15,113
entries), where the full transfer steps 288,043, 66,857 and 86,877. Once
the whole twists are peeled, T(9,10) and T(8,9) have one period left, which
their rows hold, and take no block step; T(8,11) takes 613 row terms in its
two (without the peel, 6,638, 2,522 and 3,135 in all). T(12,-37), with
three whole twists and one period left, takes no block step either, where
the full transfer steps 330,941 entries. Its tables hold the C(n, floor(n/2)) link states (1,716 at
n = 13), where the full transfer interns every diagram it reaches, up to
C(n) (742,900 at n = 13). The Jones polynomial of a ``TT`` node with q < r
runs on the shorter word that ``_reduced_twisted_torus_braid`` builds, on
q strands for every family member. For TT(9,5,7,-1), the fourth jones-9
word, 5 strands and 18 letters, the module route takes 152 row terms and
128 row-building entries (360 entries letter by letter), where the full
transfer steps 525. On the 9 strands of (a, k1, k2) = (2,2,2) it takes
3,726 and 4,430 (17,617 letter by letter) against 67,569.
So ``kauffman_bracket`` takes the module route, by blocks, for exactly the
words that carry blocks, the words the builders in ``braid.py`` make, and
the full transfer for every other word. A ``BraidWord`` given by its
letters takes the full transfer even where it has the torus shape; the
bracket is the same on both routes.

The Jones polynomial is the writhe correction (-A^3)^(-writhe) times the
bracket, re-expressed in t = A^{-4}. For a knot every exponent of the
corrected bracket is divisible by 4; a failure of that divisibility is a
convention bug, never valid input, and raises immediately.

Diagram counts grow like C(n), so bracket computations refuse strand counts
above a feasibility threshold (default 12, C(12) = 208012) instead of
consuming unbounded time; callers may raise the threshold explicitly. The
threshold reads the strand count on both routes. The module route's tables
hold only C(n, floor(n/2)) link states (924 at n = 12), but it steps every
one of them as a start; the refusal record gives C(n) on both routes.
"""

from __future__ import annotations

import functools
import math
import sys
import threading

from .braid import BraidWord, _D_power, _delta_power, is_knot_closure, writhe
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


def _reachable(tables: _Tables, roots) -> list[int]:
    """Ids of every state reachable from the ids ``roots`` through the cup-cap tables ``_step`` reads.

    From the identity these are the C(strands) basis diagrams, as the
    cup-caps generate the diagram algebra; from one link state per cell
    module, every link state. Table entries still missing are filled on the
    way, by the ``move`` the kernel calls.
    """
    order, reached = list(roots), set(roots)
    for d in order:  # grows while it is walked: a breadth-first search
        for j, row in enumerate(tables.moves):
            code = row[d]
            if code == -1:
                code = tables.move(j, d)
            if code >= 0 and code >> 1 not in reached:
                reached.add(code >> 1)
                order.append(code >> 1)
    return sorted(order)


def _twist_base(strands: int, k: int) -> int:
    """How far one full twist Delta^2 moves the base of an entry of W_k, its running writhe n(n - 1) left out.

    Delta^2 acts on W_k as A^(k(k + 2) - 3n) (see the module docstring);
    that is A^((k - n)(k + n + 2)) times the A^(n(n - 1)) of its n(n - 1)
    positive letters. Delta^(-2) moves it the opposite way.
    """
    return (k - strands) * (k + strands + 2)


@functools.lru_cache(maxsize=4)
def _modules(strands: int) -> _Tables:
    """The cell modules' tables, complete: every link state starts, module by module from k = n defects down.

    Each module is walked from c_k alone, which pairs (0, 1), (2, 3), ...
    and leaves the last k points as defects; the walk reaches every link
    state of W_k (see the module docstring) and fills every entry. An entry
    that leaves its module raises InternalInvariantViolation, and so does a
    full twist Delta^(+-2), stepped from each c_k, that does not give c_k
    times A^(+-(k(k + 2) - 3n)), the scalar ``_bracket`` peels twists with.
    """
    tables = _Tables(strands, [], lambda state: state.count(-1))
    c_ids = []
    for arcs in range(strands // 2 + 1):
        c_ids.append(tables.intern(tuple(i ^ 1 if i < 2 * arcs else -1 for i in range(strands))))
        _reachable(tables, [c_ids[-1]])
    tables.starts = range(len(tables.states))
    group = tables.group
    for j, row in enumerate(tables.moves):
        if any(code >= 0 and group[code >> 1] != group[d] for d, code in enumerate(row)):
            raise InternalInvariantViolation(f"a cup-cap at {j} leaves a cell module on {strands} strands")
    # Delta^(+-2) is d_n^(+-n), and its running writhe is +-n(n - 1)
    for sign in (1, -1):
        period, count = _delta_power(strands, sign * strands)
        for c in c_ids:
            k = group[c]
            twist = sign * (_twist_base(strands, k) + strands * (strands - 1))
            if _transfer(tables, c, period * count) != {c: LaurentPoly.monomial(twist)}:
                raise InternalInvariantViolation(f"a full twist is not A^{twist} on W_{k} on {strands} strands")
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


def _width(letters: int, strands: int) -> int:
    """The slot width W = bit_length(3^L) + n + 1 of a word of L letters on n strands.

    The width bound holds for every stepped state before closure too.
    """
    return (3 ** letters).bit_length() + strands + 1


def _run(tables: _Tables, start: int, letters: tuple[int, ...], width: int) -> dict:
    """The diagram or link state ``start`` with coefficient 1, stepped letter by letter through ``letters``."""
    state = {start: (0, 1)}
    for letter in letters:
        state = _step(state, letter, tables, width)
    return state


def _block_rows(tables: _Tables, period: tuple[int, ...], width: int) -> list[dict]:
    """Per start id, the start stepped through ``period`` by ``_run``: its state ``{target: (base, packed)}``."""
    return [_run(tables, s, period, width) for s in tables.starts]


def _block_step(state: dict, rows: list[dict], width: int) -> dict:
    """One period of the word on packed coefficients: each entry times its block row, merged as ``_step`` merges.

    An entry A^base P(x) of state s and a row term A^row_base R(x) of s give
    A^(base + row_base) (P R)(x) at the row's target, and evaluation at
    x = 2^W is a ring homomorphism, so the packed product is ``P * R``.
    """
    out: dict = {}
    get = out.get
    for s, (base, packed) in state.items():
        for target, (row_base, row_packed) in rows[s].items():
            new_base = base + row_base
            new = packed * row_packed
            cur = get(target)
            if cur is None:
                out[target] = (new_base, new)
                continue
            cur_base, cur_packed = cur
            if cur_base == new_base:
                new += cur_packed
            elif cur_base < new_base:
                new = cur_packed + (new << ((new_base - cur_base) >> 2) * width)
                new_base = cur_base
            else:
                new += cur_packed << ((cur_base - new_base) >> 2) * width
            if new:
                out[target] = (new_base, new)
            else:
                del out[target]
    return out


def _run_blocks(rows: dict, start: int, blocks: list[tuple[tuple[int, ...], int]], width: int) -> dict:
    """The link state ``start`` with coefficient 1, stepped through ``count`` periods of each block in turn.

    ``rows`` maps each block's period to its ``_block_rows``. The first
    period's row of ``start`` is that start stepped through one period, so it
    is the state the block steps go on from; ``_block_step`` builds a new
    state and never changes a row.
    """
    state = None
    for period, count in blocks:
        period_rows = rows[period]
        for _ in range(count):
            state = period_rows[start] if state is None else _block_step(state, period_rows, width)
    return {start: (0, 1)} if state is None else state


def _transfer(tables: _Tables, s: int, letters: tuple[int, ...]) -> dict[int, LaurentPoly]:
    """Diagram or link state ``s`` stepped through ``letters``, decoded per diagram or link state.

    The selftest and the tests check the relations of the algebra through
    this function, so they are checked on the kernel the bracket runs.
    """
    width = _width(len(letters), tables.strands)
    offset = sum(1 if letter > 0 else -1 for letter in letters)
    return {
        d: _wrap(_unpack(base + offset, packed, width, 4))
        for d, (base, packed) in _run(tables, s, letters, width).items()
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


def _bracket(b: BraidWord, tables: _Tables, blocks: list[tuple[tuple[int, ...], int]] | None = None) -> LaurentPoly:
    """The bracket from the diagonal entries of every start stepped through the word, divided by delta.

    delta <closure(b)> is the weighted sum of the diagonal entries. With one
    start, the identity, every entry is diagonal and a diagram whose closure
    has m loops weighs delta^m. The cell modules, with more starts, step the
    word as written once per start, keep only the start's own entry and weigh
    the diagonal of W_k by Delta_k. On one strand both tables hold one state
    that weighs delta. With ``blocks``, the blocks the word's builder
    attached, the cell modules (and only they, as every link state starts)
    step it one period at a time through block rows built for this call,
    after peeling the whole full twists off every period d_n^(+-1) or
    D_n^(+-1) on all n strands: each twist moves the base of a diagonal
    entry of W_k by ``_twist_base`` (see Full twists in the module
    docstring). Without blocks, every start is stepped letter by letter.
    """
    trace = len(tables.starts) > 1
    n = b.strands
    width = _width(len(b.letters), n)
    twists = 0
    if blocks is None:
        # the full transfer steps a rotation of the word, with the same
        # closure, to keep its state small for longer; the modules step it
        # as written
        letters = b.letters if trace else _rotated(b.letters)
        states = (_run(tables, s, letters, width) for s in tables.starts)
    else:
        # n periods of d_n or D_n are Delta^2, and n of their inverses Delta^(-2)
        full = {power(n, sign)[0]: sign for power in (_delta_power, _D_power) for sign in (1, -1)}
        stepped = []
        for period, count in blocks:
            if period in full:
                twists += full[period] * (count // n)
                count %= n
            if count:
                stepped.append((period, count))
        rows = {period: _block_rows(tables, period, width) for period, _ in stepped}
        states = (_run_blocks(rows, s, stepped, width) for s in tables.starts)
    group = tables.group
    diagonal = []
    for s, state in zip(tables.starts, states):
        if not trace:
            diagonal.extend((group[d], base, packed) for d, (base, packed) in state.items())
        elif s in state:
            base, packed = state[s]
            diagonal.append((group[s], base + twists * _twist_base(n, group[s]), packed))
    x = 1 << width
    if trace:  # Delta_k = A^(-2k) Q_k(x)
        weights = [1, -(1 + x)]
        while len(weights) <= n:
            weights.append(-(1 + x) * weights[-1] - x * weights[-2])
    else:  # delta^m = A^(-2m) (-(1 + x))^m
        weights = [(-1 - x) ** m for m in range(n + 1)]
    low, total = _closed(diagonal, weights, width)
    # delta = -A^(-2)(1 + x), so <closure> = -A^(low + 2) total / (1 + x)
    quotient, remainder = divmod(total, 1 + x)
    if remainder:
        raise InternalInvariantViolation("weighted closures are not a multiple of delta")
    return _wrap(_unpack(low + 2 + writhe(b), -quotient, width, 4))


def kauffman_bracket(b: BraidWord, threshold: int | None = None) -> LaurentPoly:
    """Kauffman bracket of the braid closure (a Laurent polynomial in A)."""
    _check_strands(b.strands, threshold)
    if b._blocks is None:
        return _bracket(b, _diagrams(b.strands))
    return _bracket(b, _modules(b.strands), b._blocks)


def jones_from_braid(b: BraidWord, threshold: int | None = None) -> LaurentPoly:
    """Jones polynomial of the knot closure (a Laurent polynomial in t)."""
    if not is_knot_closure(b):
        raise NotAKnot(f"closure of {b.strands}-strand word is not a knot")
    w = writhe(b)
    sign = -1 if w % 2 else 1
    terms = {}
    for e, c in kauffman_bracket(b, threshold).items():
        e -= 3 * w
        if e % 4:
            raise ExponentNotDivisibleBy4(f"corrected bracket exponent {e} not divisible by 4")
        terms[-e // 4] = sign * c
    return _wrap(terms)
