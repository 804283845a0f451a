"""Exact Laurent-polynomial arithmetic over Python's arbitrary-precision integers.

A polynomial is a finite mapping from integer exponents (negative allowed) to
nonzero integer coefficients; the zero polynomial is the empty mapping. Only
nonzero coefficients are ever stored, so equality is structural equality of
canonical forms. The variable name is not part of the value: the same object
serves as a polynomial in t (Alexander, Jones) or in A (Kauffman bracket), and
only rendering and serialization attach a letter.

Values are immutable after construction and every operation returns a fresh
value, so unrestricted concurrent use is safe.
"""

from __future__ import annotations

from typing import Mapping

from .errors import NotAlexanderLike, NotDivisible


class LaurentPoly:
    """An immutable Laurent polynomial in one variable with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] = {}):
        """``terms`` maps exponent to coefficient; zero coefficients are dropped."""
        self._terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls()

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> LaurentPoly:
        return cls({exponent: coefficient})

    # -- structure ---------------------------------------------------------

    def items(self) -> tuple[tuple[int, int], ...]:
        """Terms as (exponent, coefficient) pairs, ascending in exponent."""
        return tuple(sorted(self._terms.items()))

    @property
    def min_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self._terms)

    @property
    def max_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self._terms)

    @property
    def span(self) -> int:
        """max exponent minus min exponent."""
        return self.max_exp - self.min_exp

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.items())

    def __repr__(self) -> str:
        return f"<LaurentPoly {self.to_text()}>"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        acc = dict(self._terms)
        for e, c in other._terms.items():
            s = acc.get(e, 0) + c
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
        return _wrap(acc)

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> LaurentPoly:
        return _wrap({e: -c for e, c in self._terms.items()})

    def __mul__(self, other: LaurentPoly | int) -> LaurentPoly:
        if isinstance(other, int):
            if not other:
                return LaurentPoly()
            return _wrap({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        acc: dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                k = e1 + e2
                s = acc.get(k, 0) + c1 * c2
                if s:
                    acc[k] = s
                else:
                    del acc[k]
        return _wrap(acc)

    def __rmul__(self, other: int) -> LaurentPoly:
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int) -> LaurentPoly:
        if exponent < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = LaurentPoly.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def shifted(self, offset: int) -> LaurentPoly:
        """Multiply by the monomial with exponent ``offset``."""
        if not offset or not self._terms:
            return self
        return _wrap({e + offset: c for e, c in self._terms.items()})

    def invert_var(self) -> LaurentPoly:
        """Substitute the variable by its inverse: every exponent e becomes -e."""
        return _wrap({-e: c for e, c in self._terms.items()})

    def eval_unit(self, x: int) -> int:
        """Exact evaluation at x in {1, -1}, the only points where Laurent evaluation stays integral."""
        if x == 1:
            return sum(self._terms.values())
        if x == -1:
            return sum(c if e % 2 == 0 else -c for e, c in self._terms.items())
        raise ValueError(f"evaluation point must be 1 or -1, got {x!r}")

    def div_exact(self, den: LaurentPoly) -> LaurentPoly:
        """Exact quotient in the Laurent ring; raises NotDivisible if a remainder arises.

        Both operands are shifted to minimum exponent 0, long division runs in
        the ordinary polynomial ring, and the quotient is shifted back. Each
        quotient term subtracts only the divisor's nonzero terms, so dividing
        by a sparse divisor such as (t^p - 1)(t^q - 1) costs its term count,
        not its degree, per quotient slot.
        """
        if not den._terms:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self._terms:
            return LaurentPoly()
        nmin, dmin = self.min_exp, den.min_exp
        ndeg = self.max_exp - nmin
        ddeg = den.max_exp - dmin
        if ndeg < ddeg:
            raise NotDivisible("numerator degree span below denominator degree span")
        num = [0] * (ndeg + 1)
        for e, c in self._terms.items():
            num[e - nmin] = c
        dterms = [(e - dmin, c) for e, c in den._terms.items()]
        dlead = den._terms[ddeg + dmin]
        quot = [0] * (ndeg - ddeg + 1)
        for k in range(ndeg - ddeg, -1, -1):
            lead = num[k + ddeg]
            if not lead:
                continue
            qc, rem = divmod(lead, dlead)
            if rem:
                raise NotDivisible("leading coefficient does not divide")
            quot[k] = qc
            for j, c in dterms:
                num[k + j] -= qc * c
        if any(num):
            raise NotDivisible("nonzero remainder")
        return _wrap({k + nmin - dmin: c for k, c in enumerate(quot) if c})

    # -- rendering and serialization ----------------------------------------

    def to_text(self, var: str = "t") -> str:
        """Conventional one-line rendering, e.g. ``1 - t + t^2``."""
        if not self._terms:
            return "0"
        parts: list[str] = []
        for e, c in self.items():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                head = var if e == 1 else f"{var}^{e}"
                body = head if mag == 1 else f"{mag}*{head}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(parts)

    def to_json_obj(self) -> dict:
        """Serialized form: terms ascending, coefficients as decimal strings."""
        return {"var": "t", "terms": [[e, str(c)] for e, c in self.items()]}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> LaurentPoly:
        return cls({int(e): int(c) for e, c in obj["terms"]})


def _wrap(terms: dict[int, int]) -> LaurentPoly:
    """Adopt an already-canonical dict without copying (internal fast path)."""
    p = LaurentPoly.__new__(LaurentPoly)
    p._terms = terms
    return p


def _unpack(base: int, packed: int, width: int, stride: int) -> dict[int, int]:
    """Terms of sum c_i t^(base + stride * i) from the Kronecker-packed integer sum c_i 2^(width * i).

    Digits are read in balanced signed form from the lowest slot up, so the
    decoding is unique when every coefficient c_i satisfies
    |c_i| < 2^(width - 1). The result is a canonical terms dict for ``_wrap``.
    """
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
        base += stride
    return terms


def normalize_alexander(p: LaurentPoly) -> LaurentPoly:
    """Strip the unit +-t^k ambiguity from an Alexander polynomial.

    Returns the unique associate with minimum exponent 0 and value +1 at 1.
    Raises NotAlexanderLike when the value at 1 is not +-1, which signals an
    invariant-computation bug upstream rather than bad user input.
    """
    if not p:
        raise NotAlexanderLike("zero polynomial")
    at_one = p.eval_unit(1)
    if at_one not in (1, -1):
        raise NotAlexanderLike(f"value at 1 is {at_one}, expected +1 or -1")
    out = p.shifted(-p.min_exp)
    return out if at_one == 1 else -out
