"""Reduced Burau representation and the Alexander polynomial of a braid closure.

The reduced Burau image of the generator with index i is the identity matrix
except in column i, which holds t at row i-1, -t at row i, and 1 at row i+1
(rows outside 1..n-1 dropped); the inverse letter holds 1, -t^{-1}, t^{-1} in
the same slots. Because a generator differs from the identity in one column
only, right-multiplying an accumulated matrix by a generator updates a single
column as a combination of its neighbours, so a word of length L costs
O(L * n) polynomial operations instead of L dense matrix products. Each
column is one flat map from row << 32 | (exponent + 2^31) to a nonzero
coefficient, so multiplying a column by t^+-1 adds +-1 to its keys, and a
letter touches only the nonzero terms of three columns.

The Alexander polynomial of the closure comes from the classical identity

    det(burau(word) - I)  =  (unit) * Delta(t) * (1 - t^n) / (1 - t),

so the determinant is divided exactly by 1 + t + ... + t^{n-1} and the unit
ambiguity is removed by normalization. The determinant itself uses Bareiss
fraction-free elimination after shifting each row to minimum exponent 0; the
row shifts only change the determinant by a unit, which normalization absorbs.
Cofactor expansion is useless at this scale: the (4, 5, 5) family member has
51 strands, so the elimination runs on a 50x50 matrix. That matrix is sparse:
B - I has 144 nonzero entries out of 2500 (two diagonals and two dense rows),
so the elimination holds rows as sparse {column: value} maps and never
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
replaces row i by (p_k * a_ij - a_ik * a_kj) / p_(k-1). For a row with
a_ik = 0 that is a_ij * p_k / p_(k-1), so the factors telescope: a row last
updated at step s and untouched through step k-1 holds S, while Bareiss would
hold T = S * p_(k-1) / p_s. It is left alone until a step k finds it holds an
entry in column k. If it is then the pivot row it is brought up to date as
T; otherwise its update (p_k * T_j - T_k * a_kj) / p_(k-1) is computed as
(p_k * S_j - S_k * a_kj) / p_s, which is the same value, with one exact
division (none when s = -1). Candidate pivots are compared by their true
values T_k. So every stored entry is an entry of the pivoting-free Bareiss
run on the permuted matrix at some step s, and by Sylvester's identity that
is the minor of the leading s+1 rows bordered by row i, column j: +- a minor
of the row-shifted matrix. Every pivot and divisor is such a minor too.

Width bound. Let H be the product over rows of the row's L1 norm, the sum of
the absolute values of all coefficients of all its entries, and take
W = bit_length(H) + 2. The L1 norm of polynomials is subadditive and
submultiplicative, so a k x k minor on a set R of rows, a signed sum over
permutations of products of one entry per row, has L1 norm at most the
product of the L1 norms of the rows in R, which is at most H because every
nonzero integer row has norm at least 1. By the two paragraphs above, every
stored value, pivot and divisor is +- such a minor, so each of its
coefficients is at most H < 2^(W-2) in absolute value. (The products formed
on the way to a division are not minors, but they are never decoded or
tested for zero: each is a divisor times a minor.) A nonzero polynomial
whose coefficients are below 2^(W-1) in absolute value does not vanish at
2^W, because its top term outweighs all the others together. So a stored
integer is zero exactly when the polynomial is, sparsity and pivot
candidates are the ones elimination over polynomials would see, no divisor
is zero, and the balanced digits of the final pivot are the coefficients of
the determinant. On the (a, k1, k2) <= (4, 5, 5) family sweep W is at most
64 bits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord, is_knot_closure
from .errors import InternalInvariantViolation, NotAKnot, NotAlexanderLike, NotDivisible
from .laurent import LaurentPoly, _unpack, _wrap, normalize_alexander

_T = LaurentPoly.monomial(1)
_TINV = LaurentPoly.monomial(-1)
_MINUS_T = LaurentPoly.monomial(1, -1)
_MINUS_TINV = LaurentPoly.monomial(-1, -1)
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

    @property
    def dimension(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, dimension: int) -> BurauMatrix:
        return cls(tuple(
            tuple(_ONE if i == j else _ZERO for j in range(dimension))
            for i in range(dimension)
        ))

    def __matmul__(self, other: BurauMatrix) -> BurauMatrix:
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")
        dim = self.dimension
        cols = list(zip(*other.entries))
        out = []
        for row in self.entries:
            out_row = []
            for col in cols:
                acc = _ZERO
                for a, b in zip(row, col):
                    if a and b:
                        acc = acc + a * b
                out_row.append(acc)
            out.append(tuple(out_row))
        return BurauMatrix(tuple(out))


def burau_generator(n: int, letter: int) -> BurauMatrix:
    """Reduced Burau image of a single signed generator in the n-strand group."""
    if n < 2:
        raise ValueError(f"requires n >= 2: got n={n}")
    if letter == 0 or abs(letter) > n - 1:
        raise ValueError(f"letter {letter} out of range for {n} strands")
    rows = [[_ONE if i == j else _ZERO for j in range(n - 1)] for i in range(n - 1)]
    c = abs(letter) - 1
    if letter > 0:
        if c - 1 >= 0:
            rows[c - 1][c] = _T
        rows[c][c] = _MINUS_T
        if c + 1 < n - 1:
            rows[c + 1][c] = _ONE
    else:
        if c - 1 >= 0:
            rows[c - 1][c] = _ONE
        rows[c][c] = _MINUS_TINV
        if c + 1 < n - 1:
            rows[c + 1][c] = _TINV
    return BurauMatrix(tuple(tuple(row) for row in rows))


# Column keys of burau_of_word: row << _ROW_SHIFT | (exponent + _EXP_OFFSET).
_ROW_SHIFT = 32
_EXP_OFFSET = 1 << 31
_EXP_MASK = (1 << _ROW_SHIFT) - 1


def burau_of_word(b: BraidWord) -> BurauMatrix:
    """Ordered product of generator images, via per-letter column updates."""
    if b.strands < 2:
        raise ValueError("reduced Burau needs at least 2 strands")
    if len(b.letters) >= _EXP_OFFSET:
        raise ValueError(f"words of 2^31 letters or more are not supported: got {len(b.letters)}")
    m = b.strands - 1
    # Each column is one flat {row << 32 | (exponent + 2^31): coefficient}
    # map without zero coefficients; an exponent never leaves (-2^31, 2^31)
    # because each letter moves it by at most one. Multiplying by t^+-1 adds
    # +-1 to every key, so a letter costs one dict pass per source column.
    cols = [{j << _ROW_SHIFT | _EXP_OFFSET: 1} for j in range(m)]
    for l in b.letters:
        c = abs(l) - 1
        # positive: col_c <- t*col_{c-1} - t*col_c + col_{c+1}
        # negative: col_c <- col_{c-1} - t^{-1}*col_c + t^{-1}*col_{c+1}
        left_shift, mid_shift, right_shift = (1, 1, 0) if l > 0 else (0, -1, -1)
        new = {key + mid_shift: -v for key, v in cols[c].items()}
        for src, shift in ((c - 1, left_shift), (c + 1, right_shift)):
            if 0 <= src < m:
                for key, v in cols[src].items():
                    key += shift
                    v += new.get(key, 0)
                    if v:
                        new[key] = v
                    else:
                        del new[key]
        cols[c] = new
    rows = [[_ZERO] * m for _ in range(m)]
    for j, col in enumerate(cols):
        cells: dict[int, dict[int, int]] = {}
        for key, v in col.items():
            r = key >> _ROW_SHIFT
            terms = cells.get(r)
            if terms is None:
                terms = cells[r] = {}
            terms[(key & _EXP_MASK) - _EXP_OFFSET] = v
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

    Runs on the entries' values at t = 2^W over sparse, lazily scaled rows;
    see the module docstring for W, the pivot rule and the lazy scaling.
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
    # A remaining row is [entries, last]: a sparse {column: value} map as the
    # step whose pivot was ``last`` left it (None before its first update).
    # Remaining rows keep their original relative order.
    active = [
        [{j: sum(c << (e - shift) * width for e, c in terms) for j, terms in items}, None]
        for shift, items in row_terms
    ]
    sign = 1
    prev = None
    for k in range(m):
        best = None
        for pos, (entries, last) in enumerate(active):
            value = entries.get(k)
            if value is None:
                continue
            value = _catch_up(value, last, prev)
            key = (abs(value), len(entries))
            if best is None or key < best[0]:
                best = (key, pos, value)
        if best is None:
            return _ZERO
        _, pos, pivot = best
        if pos & 1:  # moving the pivot row to the front takes pos swaps
            sign = -sign
        entries, last = active.pop(pos)
        del entries[k]
        pivot_items = [(j, _catch_up(v, last, prev)) for j, v in entries.items()]
        for row in active:
            entries, last = row
            left = entries.pop(k, None)
            if left is None:
                continue
            num = {j: pivot * v for j, v in entries.items()}
            for j, v in pivot_items:
                num[j] = num.get(j, 0) - left * v
            if last is None:
                row[0] = {j: v for j, v in num.items() if v}
            else:
                row[0] = {j: _exact_div(v, last) for j, v in num.items() if v}
            row[1] = pivot
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
    if not p:
        raise ValueError("span of the zero polynomial is undefined")
    return p.span
