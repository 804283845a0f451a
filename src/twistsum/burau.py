"""Reduced Burau representation and the Alexander polynomial of a braid closure.

The reduced Burau image of the generator with index i is the identity matrix
except in column i, which holds t at row i-1, -t at row i, and 1 at row i+1
(rows outside 1..n-1 dropped); the inverse letter holds 1, -t^{-1}, t^{-1} in
the same slots. Because a generator differs from the identity in one column
only, right-multiplying an accumulated matrix by a generator updates a single
column as a combination of its neighbours, so a word of length L costs
O(L * n) polynomial operations instead of L dense matrix products. With
m = n - 1 rows, each column is one flat map from exponent * m + row to a
nonzero coefficient: multiplying a column by t^e adds e * m to its keys, floor
division and remainder by m give back the exponent (of either sign) and the
row, and a letter touches only the nonzero terms of three columns.

Runs. The letters of a word are applied in maximal runs, each letter one more
than the one before: positive runs i+1, i+2, ..., k+1 act on the ascending
columns i..k and negative runs -(k+1), ..., -(i+1) on the descending columns
k..i. A run of the family braids is a whole sigma_1 ... sigma_(p-1) block, so
most letters sit in long runs. Write c_j for column j before the run and c_j'
after it; columns outside 0..n-2 are zero. A positive letter on column j sets
c_j to t c_(j-1) - t c_j + c_(j+1) = c_(j+1) + t (c_(j-1) - c_j), and inside
the run the c_(j-1) it reads is already c_(j-1)'. With D = t (c_(i-1) - c_i),
the run's first letter gives c_i' = c_(i+1) + D, and if c_(j-1)' = c_j +
t^(j-1-i) D then

    c_j' = c_(j+1) + t (c_(j-1)' - c_j) = c_(j+1) + t^(j-i) D,

so D is built once per run. A negative letter on column j sets c_j to
c_(j-1) - t^-1 c_j + t^-1 c_(j+1) = c_(j-1) + t^-1 (c_(j+1) - c_j), inside
the run reading c_(j+1)', and the same induction down from the top of the
run, with E = t^-1 (c_(k+1) - c_k), gives

    c_j' = c_(j-1) + t^-(k-j) E.

In a positive run the old c_(j+1) is read by the letter on column j and by no
later letter, so its map becomes c_j' in place (likewise c_(j-1) and c_j' in a
negative run); only the run's last column gets a fresh map, because the
neighbour it reads lies outside the run and keeps its value. A lone letter is
a run of length one: D is built from c_i and c_(i-1), and c_(i+1) is added
into it, the three dict passes of the letter-by-letter update.

The Alexander polynomial of the closure comes from the classical identity

    det(burau(word) - I)  =  (unit) * Delta(t) * (1 - t^n) / (1 - t),

so the determinant is divided exactly by 1 + t + ... + t^{n-1} and the unit
ambiguity is removed by normalization. The determinant itself uses Bareiss
fraction-free elimination after shifting each row to minimum exponent 0; the
row shifts only change the determinant by a unit, which normalization absorbs.
Cofactor expansion is useless at this scale: the (4, 5, 5) family member has
51 strands, so the elimination runs on a 50x50 matrix. That matrix is sparse:
B - I has 144 nonzero entries out of 2500 (two diagonals and two dense rows),
so the elimination holds rows as sparse maps from column to entry and never
computes or stores a zero.

Packed elimination. The elimination does not run on polynomials. Every entry
of the row-shifted matrix is a polynomial in Z[t] and is replaced by its
value at t = 2^W (Kronecker substitution), and Bareiss runs on those Python
integers; only the final integer is decoded, in balanced digits of W bits.
Evaluation at 2^W is a ring homomorphism from Z[t] to Z, so an identity
num = d * q between polynomials holds between their values, and the integer
division of num's value by d's value is exact and yields q's value. A
nonzero remainder can only mean the arithmetic itself went wrong, and raises.

Pivot rule. Columns are eliminated in their natural order. At step k the
pivot is, among the remaining rows with a nonzero entry in column k, one whose
entry has the smallest absolute value, ties going to the row with fewer
nonzeros; on Burau matrices this is usually +-1. Moving it from position p
among the remaining rows to their front is p adjacent swaps, each flipping
the sign. Choosing the pivot row at each step is the same as running Bareiss
without pivoting on the matrix whose rows are permuted into pivot order (the
rows' relative order is otherwise kept), so every value below is that of the
permuted matrix, whose determinant is +-det. Any nonzero entry is a valid
pivot, so the rule affects only speed; if no remaining row has an entry in
column k, the first k+1 columns are linearly dependent and det = 0.

Lazy scaling. Bareiss step k (pivot p_k, previous pivot p_(k-1), p_(-1) = 1)
replaces each entry of each remaining row i by

    T_ij' = (p_k T_ij - T_ik T_kj) / p_(k-1).

An entry whose column the pivot row lacks (T_kj = 0) becomes T_ij p_k /
p_(k-1), so the factors telescope. Each entry is therefore stored as a value S
with a tag s, the pivot of the step that stored it (s = p_(-1) = 1, None in
the code, for an input entry), and stands for the true value T = S p_(k-1) / s
at step k. An entry is left alone until a step whose pivot row holds its
column eliminates its row, so a dense row costs work only where the pivot rows
reach it, not at every step. The speed relies on the two dense lines of
B - I being rows: run on the transpose (B - I)^T, which has the same
determinant and gave the same Alexander polynomials on the 1,800
small-braids words and the 64 alexander-sweep members, the 64 sweep
determinants took 14.6 s against 0.063 s (2-core Xeon, Python 3.11.7).
When its row becomes the pivot row, each entry is
caught up to T with one exact division by its own tag. Candidate pivots are
compared by their true values. When step k updates entry j of row i, with S =
S_ij of tag s and S_ik of tag s', substituting T = S p_(k-1) / s and T_ik =
S_ik p_(k-1) / s' gives

    T_ij' = p_k S / s - S_ik T_kj / s',

computed with one exact division where possible:
- s = s': T_ij' = (p_k S - S_ik T_kj) / s, whose quotient is T_ij' itself;
- s = 1 (s' not): T_ij' = p_k S - (S_ik T_kj) / s', where the quotient is
  p_k S - T_ij', an integer;
- s' = 1 (s not): T_ij' = (p_k S) / s - S_ik T_kj, where the quotient is
  T_ij' + S_ik T_kj;
- otherwise both are caught up first: T_ij' = (p_k T_ij - T_ik T_kj) / p_(k-1),
  with T_ij and T_ik true values at step k, so every quotient is one.
An absent entry (S = 0) takes the tag s'. The result is stored with tag p_k.
Tags are compared by value, since the formulas use only values. So every
stored value is an entry of the pivoting-free Bareiss run on the permuted
matrix at some step s, and by Sylvester's identity that is the minor of the
leading s+1 rows bordered by row i, column j: +- a minor of the row-shifted
matrix. Every pivot and every divisor (a tag or p_(k-1)) is such a minor too,
and every quotient is a polynomial in Z[t], so each division is exact on the
packed values.

Width bound. Let H be the product over rows of the row's L1 norm, the sum of
the absolute values of all coefficients of all its entries, and take W =
bit_length(H) + 2. The L1 norm of polynomials is subadditive and
submultiplicative, so a k x k minor on a set R of rows, a signed sum over
permutations of products of one entry per row, has L1 norm at most the product
of the L1 norms of the rows in R, which is at most H because every nonzero
integer row has norm at least 1. By the two paragraphs above, every stored
value, pivot and divisor is +- such a minor, so each of its coefficients is at
most H < 2^(W-2) in absolute value. (The products and quotients formed on the
way to a stored value are not minors, but none is decoded, and a numerator
tested for zero is a divisor times a minor.) A nonzero polynomial whose
coefficients are below 2^(W-1) in absolute value does not vanish at 2^W,
because its top term outweighs all the others together. So a stored integer is
zero exactly when the polynomial is, sparsity and pivot candidates are the
ones elimination over polynomials would see, no divisor is zero, and the
balanced digits of the final pivot are the coefficients of the determinant. On
the (a, k1, k2) <= (4, 5, 5) family sweep W is at most 64 bits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord, is_knot_closure
from .errors import InternalInvariantViolation, NotAKnot, NotAlexanderLike, NotDivisible
from .laurent import LaurentPoly, _unpack, _wrap, normalize_alexander

_ONE = LaurentPoly.one()
_ZERO = LaurentPoly.zero()


@dataclass(frozen=True)
class BurauMatrix:
    """A square matrix of Laurent polynomials, dimension n-1 for n strands."""

    entries: tuple[tuple[LaurentPoly, ...], ...]

    def __post_init__(self):
        dim = len(self.entries)
        if any(len(row) != dim for row in self.entries):
            raise ValueError("matrix must be square")

    @classmethod
    def identity(cls, dimension: int) -> BurauMatrix:
        return cls(tuple(
            tuple(_ONE if i == j else _ZERO for j in range(dimension))
            for i in range(dimension)
        ))


def _add_shifted(target: dict[int, int], source: dict[int, int], shift: int) -> None:
    """target += t^e * source for shift = e * m, in place, keeping target free of zeros."""
    get = target.get
    for key, v in source.items():
        key += shift
        v += get(key, 0)
        if v:
            target[key] = v
        else:
            del target[key]


def _apply_run(cols: list[dict[int, int]], a: int, length: int, d: int) -> None:
    """Right-multiply by one run of letters, in place (see the module docstring).

    The run's letters act on columns a, a + d, ..., a + d * (length - 1); d is
    +1 for a positive ascending run and -1 for a negative descending one, and
    it is also the exponent of t in the run's common difference.
    """
    m = len(cols)
    shift = d * m  # multiplies a column by t^d
    diff = {key + shift: -v for key, v in cols[a].items()}
    if 0 <= a - d < m:
        _add_shifted(diff, cols[a - d], shift)
    last = diff
    if length > 1:  # a lone letter, the common case in random words, skips the loop
        # the column each letter reads from its far side is used by no later
        # letter of the run, so its dict becomes the new column in place
        for r in range(length - 1):
            col = cols[a + d * (r + 1)]
            _add_shifted(col, diff, shift * r)
            cols[a + d * r] = col
        last = {key + shift * (length - 1): v for key, v in diff.items()}
    if 0 <= a + d * length < m:
        _add_shifted(last, cols[a + d * length], 0)
    cols[a + d * (length - 1)] = last


def burau_of_word(b: BraidWord) -> BurauMatrix:
    """Ordered product of generator images, via column updates fused over runs of letters."""
    if b.strands < 2:
        raise ValueError("reduced Burau needs at least 2 strands")
    m = b.strands - 1
    # Each column is one flat {exponent * m + row: coefficient} map without
    # zero coefficients; column j of the identity is t^0 at row j.
    cols = [{j: 1} for j in range(m)]
    letters = b.letters
    total = len(letters)
    start = 0
    while start < total:
        end = start + 1
        while end < total and letters[end] == letters[end - 1] + 1:
            end += 1
        first = letters[start]
        _apply_run(cols, abs(first) - 1, end - start, 1 if first > 0 else -1)
        start = end
    rows = [[_ZERO] * m for _ in range(m)]
    for j, col in enumerate(cols):
        cells: dict[int, dict[int, int]] = {}
        for key, v in col.items():
            r = key % m
            terms = cells.get(r)
            if terms is None:
                terms = cells[r] = {}
            terms[key // m] = v
        for r, terms in cells.items():
            rows[r][j] = _wrap(terms)
    return BurauMatrix(tuple(map(tuple, rows)))


def _exact_div(num: int, divisor: int) -> int:
    q, rem = divmod(num, divisor)
    if rem:  # mathematically impossible
        raise InternalInvariantViolation("Bareiss elimination hit a non-exact division")
    return q


def _catch_up(value: int, last: int | None, prev: int | None) -> int:
    """value * prev / last: an entry stored by the step with pivot ``last``, brought up to date.

    ``prev`` is the latest pivot; None stands for 1, the pivot before step 0.
    """
    if last == prev:
        return value
    value *= prev
    return value if last is None else _exact_div(value, last)


def _det_bareiss(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Fraction-free determinant, up to a unit factor +-t^k (rows get unit-cleared).

    Runs on the entries' values at t = 2^W over sparse rows whose entries are
    scaled lazily; see the module docstring for W, the pivot rule and the four
    cases of the per-entry update.
    """
    m = len(rows)
    if m == 0:
        return _ONE
    row_terms = []
    bound = 1
    for row in rows:
        items = [(j, p.items()) for j, p in enumerate(row) if p]
        if not items:
            return _ZERO
        bound *= sum(abs(c) for _, terms in items for _, c in terms)
        row_terms.append((min(terms[0][0] for _, terms in items), items))
    width = bound.bit_length() + 2
    # A remaining row is a sparse {column: (value, tag)} map: each entry as
    # the step whose pivot was ``tag`` stored it (None: never updated).
    # Remaining rows keep their original relative order.
    active = [
        {j: (sum(c << (e - shift) * width for e, c in terms), None) for j, terms in items}
        for shift, items in row_terms
    ]
    sign = 1
    prev = None
    for k in range(m):
        touched = []  # (row, true entry in column k) of every row that has one
        best = None
        for pos, entries in enumerate(active):
            entry = entries.get(k)
            if entry is None:
                continue
            value = _catch_up(*entry, prev)
            touched.append((entries, value))
            key = (abs(value), len(entries))
            if best is None or key < best[0]:
                best = (key, pos, entries, value)
        if best is None:
            return _ZERO
        _, pos, pivot_row, pivot = best
        if pos & 1:  # moving the pivot row to the front takes pos swaps
            sign = -sign
        del active[pos]
        del pivot_row[k]
        pivot_items = [(j, _catch_up(v, tag, prev)) for j, (v, tag) in pivot_row.items()]
        for entries, left_now in touched:
            if entries is pivot_row:
                continue
            left, left_tag = entries.pop(k)
            absent = (0, left_tag)
            for j, pv in pivot_items:
                value, tag = entries.get(j, absent)
                # the four (s, s') cases of the module docstring, in its order
                if tag == left_tag:
                    v = pivot * value - left * pv
                    if v and tag is not None:
                        v = _exact_div(v, tag)
                elif tag is None:
                    v = pivot * value - _exact_div(left * pv, left_tag)
                elif left_tag is None:
                    v = _exact_div(pivot * value, tag) - left * pv
                else:
                    v = pivot * _catch_up(value, tag, prev) - left_now * pv
                    if v:
                        v = _exact_div(v, prev)
                if v:
                    entries[j] = (v, pivot)
                elif value:
                    del entries[j]
        prev = pivot
    return _wrap(_unpack(0, -prev if sign < 0 else prev, width, 1))


def alexander_from_braid(b: BraidWord) -> LaurentPoly:
    """Normalized Alexander polynomial of the knot closure of a braid word."""
    if not is_knot_closure(b):
        raise NotAKnot(f"closure of {b.strands}-strand word is not a knot")
    if b.strands == 1:
        return LaurentPoly.one()
    m = b.strands - 1
    burau = burau_of_word(b)
    shifted = [
        [burau.entries[i][j] - _ONE if i == j else burau.entries[i][j] for j in range(m)]
        for i in range(m)
    ]
    det = _det_bareiss(shifted)
    cyclotomic_sum = LaurentPoly({e: 1 for e in range(b.strands)})
    try:
        quotient = det.div_exact(cyclotomic_sum)
    except NotDivisible as exc:
        raise InternalInvariantViolation(
            "Burau determinant not divisible by 1 + t + ... + t^(n-1)"
        ) from exc
    try:
        return normalize_alexander(quotient)
    except NotAlexanderLike as exc:
        raise InternalInvariantViolation("closure Alexander value at 1 is not +-1") from exc


def knot_determinant(b: BraidWord) -> int:
    """|Delta(-1)| of the knot closure."""
    return abs(alexander_from_braid(b).eval_unit(-1))


def alexander_span(p: LaurentPoly) -> int:
    """Exponent span (max minus min); twice the Seifert genus for fibred knots."""
    return p.span
