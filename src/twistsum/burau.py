"""Reduced Burau representation and the Alexander polynomial of a braid closure.

The reduced Burau image of the generator with index i is the identity matrix
except in column i, which holds t at row i-1, -t at row i, and 1 at row i+1
(rows outside 1..n-1 dropped); the inverse letter holds 1, -t^{-1}, t^{-1} in
the same slots. Because a generator differs from the identity in one column
only, right-multiplying an accumulated matrix by a generator updates a single
column as a combination of its neighbours, so a word of length L costs
O(L * n) polynomial operations instead of L dense matrix products. The
columns are kept sparse, so a row whose entries in the three source columns
are all zero costs nothing; on the family sweeps that is most rows.

The Alexander polynomial of the closure comes from the classical identity

    det(burau(word) - I)  =  (unit) * Delta(t) * (1 - t^n) / (1 - t),

so the determinant is divided exactly by 1 + t + ... + t^{n-1} and the unit
ambiguity is removed by normalization. The determinant itself uses Bareiss
fraction-free elimination after shifting each row to minimum exponent 0; the
row shifts only change the determinant by a unit, which normalization absorbs.
Cofactor expansion is useless at this scale: the (4, 5, 5) family member has
51 strands, so the elimination runs on a 50x50 matrix.

Packed elimination. The elimination does not run on polynomials. Every entry
of the row-shifted matrix is a polynomial in Z[t] and is replaced by its
value at t = 2^W (Kronecker substitution), and the same pivoting Bareiss runs
on those Python integers; only the final integer is decoded, in balanced
digits of W bits. Evaluation at 2^W is a ring homomorphism from Z[t] to Z, so
each step's difference of products is the value of prev * minor, where prev
is the previous pivot and minor is the polynomial Bareiss would store, and
its integer division by the value of prev is exact. A nonzero remainder can
only mean the arithmetic itself went wrong, and raises.

Width bound. Let H be the product over rows of the row's L1 norm, the sum of
the absolute values of all coefficients of all its entries, and take
W = bit_length(H) + 2. The L1 norm of polynomials is subadditive and
submultiplicative, so a k x k minor on a set R of rows, a signed sum over
permutations of products of one entry per row, has L1 norm at most the
product of the L1 norms of the rows in R, which is at most H because every
nonzero integer row has norm at least 1. Every pivot, divisor and stored
intermediate of Bareiss elimination is +- a minor of the row-shifted matrix
(Sylvester's identity; a row swap only reorders rows), so each of its
coefficients is at most H < 2^(W-2) in absolute value. A nonzero polynomial
whose coefficients are below 2^(W-1) in absolute value does not vanish at
2^W, because its top term outweighs all the others together. So an integer
pivot is zero exactly when the polynomial pivot is, the pivot choices are the
ones elimination over polynomials makes, no divisor is zero, and the balanced
digits of the final integer are the coefficients of the determinant. On the
(a, k1, k2) <= (4, 5, 5) family sweep W is at most 64 bits.
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


def _add_column(new: dict, col: dict, shift: int, sign: int) -> None:
    """new += sign * t^shift * col, for sparse columns {row: {exponent: coefficient}}.

    Entries of ``new`` that cancel to zero are removed; an entry copied into
    ``new`` is always a fresh dict, never one of ``col``'s.
    """
    for r, p in col.items():
        acc = new.get(r)
        if acc is None:
            new[r] = {e + shift: sign * v for e, v in p.items()}
            continue
        for e, v in p.items():
            e += shift
            v = acc.get(e, 0) + sign * v
            if v:
                acc[e] = v
            else:
                del acc[e]
        if not acc:
            del new[r]


def burau_of_word(b: BraidWord) -> BurauMatrix:
    """Ordered product of generator images, via per-letter column updates."""
    if b.strands < 2:
        raise ValueError("reduced Burau needs at least 2 strands")
    m = b.strands - 1
    # The matrix is held by columns, each a sparse {row: {exponent: coefficient}}
    # map that omits zero entries, and wrapped once at the end, so rows whose
    # entries in columns c-1..c+1 are all zero are never visited.
    cols: list[dict[int, dict[int, int]]] = [{j: {0: 1}} for j in range(m)]
    for l in b.letters:
        c = abs(l) - 1
        # positive: col_c <- t*col_{c-1} - t*col_c + col_{c+1}
        # negative: col_c <- col_{c-1} - t^{-1}*col_c + t^{-1}*col_{c+1}
        left_shift, mid_shift, right_shift = (1, 1, 0) if l > 0 else (0, -1, -1)
        col = cols[c]
        for r, p in col.items():
            col[r] = {e + mid_shift: -v for e, v in p.items()}
        if c > 0:
            _add_column(col, cols[c - 1], left_shift, 1)
        if c + 1 < m:
            _add_column(col, cols[c + 1], right_shift, 1)
    rows = [[_ZERO] * m for _ in range(m)]
    for j, col in enumerate(cols):
        for i, p in col.items():
            rows[i][j] = _wrap(p)
    return BurauMatrix(tuple(map(tuple, rows)))


def _det_bareiss(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Fraction-free determinant, up to a unit factor +-t^k (rows get unit-cleared).

    Runs on the entries' values at t = 2^W; see the module docstring for W.
    """
    m = len(rows)
    if m == 0:
        return _ONE
    row_terms = []
    bound = 1
    for row in rows:
        exps = [p.min_exp for p in row if p]
        if not exps:
            return _ZERO
        items = [p.items() for p in row]
        bound *= sum(abs(c) for entry in items for _, c in entry)
        row_terms.append((min(exps), items))
    width = bound.bit_length() + 2
    work = [
        [sum(c << (e - shift) * width for e, c in entry) for entry in items]
        for shift, items in row_terms
    ]
    sign = 1
    prev = 1
    for k in range(m - 1):
        if not work[k][k]:
            for i in range(k + 1, m):
                if work[i][k]:
                    work[k], work[i] = work[i], work[k]
                    sign = -sign
                    break
            else:
                return _ZERO
        pivot_row = work[k]
        pivot = pivot_row[k]
        for i in range(k + 1, m):
            row = work[i]
            left = row[k]
            for j in range(k + 1, m):
                num = row[j] * pivot - left * pivot_row[j]
                if num and k:
                    num, rem = divmod(num, prev)
                    if rem:  # mathematically impossible
                        raise InternalInvariantViolation(
                            "Bareiss elimination hit a non-exact division"
                        )
                row[j] = num
            row[k] = 0
        prev = pivot
    result = work[m - 1][m - 1]
    return _wrap(_unpack(0, -result if sign < 0 else result, width, 1))


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
