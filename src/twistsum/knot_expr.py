"""Symbolic knot expressions: torus knots, twisted torus knots, mirrors, connected sums.

An expression is a tree over four node kinds:

    Torus(p, q)            the (p, q) torus knot, gcd(|p|, |q|) = 1
    TwistedTorus(params)   the twisted torus knot for (p, q; r, s)
    Sum(children)          connected sum of one or more expressions
    Mirror(child)          mirror image

Torus accepts a negative entry in either slot; a sign flip in one slot is the
mirror image, so the pair is normalized internally to (|p|, sign-carried q).
The canonical unknot is Torus(1, 1).

Invariants of Torus nodes come from closed forms, so expressions serve as an
oracle that is independent of the braid pipelines: the Alexander polynomial of
a torus knot is (t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)) normalized (blind
to mirroring), and the Jones polynomial for p, q > 0 is

    t^{(p-1)(q-1)/2} * (1 - t^{p+1} - t^{q+1} + t^{p+q}) / (1 - t^2),

with mirrors handled by t -> t^{-1}. Connected sums multiply both invariants.
TwistedTorus nodes delegate to the braid pipelines; no closed form for them is
claimed anywhere, and discovering one is not this package's job.

Text grammar (whitespace-insensitive), used by the command-line front end:

    expr ::= "T" "(" int "," int ")"
           | "TT" "(" int "," int "," int "," int ")"
           | "Mirror" "(" expr ")"
           | "Sum" "(" expr (";" expr)* ")"

Mirror and Sum nodes may nest at most MAX_DEPTH levels deep; deeper text is
refused as a syntax error, so neither the parser nor the recursive fold over
the tree can exhaust the interpreter's stack.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Union

from .braid import BraidWord, TwistedTorusParams, braid_connected_sum, braid_mirror, torus_braid, twisted_torus_braid
from .burau import alexander_from_braid
from .errors import ExpressionSyntaxError
from .laurent import LaurentPoly, normalize_alexander
from .temperley_lieb import _check_strands, jones_from_braid


@dataclass(frozen=True)
class Torus:
    p: int
    q: int

    def __post_init__(self):
        if self.p == 0 or self.q == 0:
            raise ValueError("torus parameters must be nonzero")
        if math.gcd(abs(self.p), abs(self.q)) != 1:
            raise ValueError(
                f"requires gcd(p, q) = 1: got p={self.p}, q={self.q} (closure would be a link)"
            )


@dataclass(frozen=True)
class TwistedTorus:
    params: TwistedTorusParams


@dataclass(frozen=True)
class Sum:
    children: tuple["KnotExpression", ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ValueError("connected sum needs at least one summand")


@dataclass(frozen=True)
class Mirror:
    child: "KnotExpression"


KnotExpression = Union[Torus, TwistedTorus, Sum, Mirror]

MAX_DEPTH = 100


def torus_alexander_closed(p: int, q: int) -> LaurentPoly:
    """Normalized Alexander polynomial of the (p, q) torus knot, from the closed form."""
    Torus(p, q)  # refuses a zero or non-coprime pair with ValueError
    pp, qq = abs(p), abs(q)
    if pp == 1 or qq == 1:
        return LaurentPoly.one()
    num = LaurentPoly({pp * qq: 1, 0: -1}) * LaurentPoly({1: 1, 0: -1})
    den = LaurentPoly({pp: 1, 0: -1}) * LaurentPoly({qq: 1, 0: -1})
    return normalize_alexander(num.div_exact(den))


def torus_jones_closed(p: int, q: int) -> LaurentPoly:
    """Jones polynomial of the (p, q) torus knot, from the closed form.

    Orientation convention matches jones_from_braid on the positive torus
    braid; a single negative parameter is the mirror and applies t -> t^{-1}.
    """
    Torus(p, q)  # refuses a zero or non-coprime pair with ValueError
    pp, qq = abs(p), abs(q)
    if pp == 1 or qq == 1:
        return LaurentPoly.one()
    num = LaurentPoly({0: 1, pp + 1: -1, qq + 1: -1, pp + qq: 1})
    body = num.div_exact(LaurentPoly({0: 1, 2: -1}))
    value = body.shifted((pp - 1) * (qq - 1) // 2)
    return value if p * q > 0 else value.invert_var()


def _fold(e: KnotExpression, torus, twisted, combine, mirror):
    """The one dispatch over node kinds: fold the tree from the leaves up.

    ``torus`` maps a Torus leaf, ``twisted`` a TwistedTorus leaf's params,
    ``combine`` the list of a Sum's folded children and ``mirror`` a Mirror's
    folded child. Callers name the pipelines and closed forms inside their own
    bodies, so those module globals are looked up at each call and a patched
    module attribute is honoured.
    """
    if isinstance(e, Torus):
        return torus(e)
    if isinstance(e, TwistedTorus):
        return twisted(e.params)
    if isinstance(e, Sum):
        return combine([_fold(c, torus, twisted, combine, mirror) for c in e.children])
    if isinstance(e, Mirror):
        return mirror(_fold(e.child, torus, twisted, combine, mirror))
    raise TypeError(f"not a knot expression: {e!r}")


def _torus_braid(t: Torus) -> BraidWord:
    sign = 1 if t.p * t.q > 0 else -1
    return torus_braid(abs(t.p), sign * abs(t.q))


def _twisted_braid(pr: TwistedTorusParams) -> BraidWord:
    return twisted_torus_braid(pr.p, pr.q, pr.r, pr.s)


def _product(values: list[LaurentPoly]) -> LaurentPoly:
    return reduce(operator.mul, values)


def expr_to_braid(e: KnotExpression) -> BraidWord:
    """Concrete braid presentation of an expression; closure realizes the knot."""
    return _fold(e, _torus_braid, _twisted_braid,
                 lambda words: reduce(braid_connected_sum, words), braid_mirror)


def expr_alexander(e: KnotExpression) -> LaurentPoly:
    """Normalized Alexander polynomial of the represented knot.

    Torus nodes use the closed form, sums multiply, mirrors are invisible
    (normalization absorbs t -> t^{-1}), and twisted torus nodes delegate to
    the Burau pipeline.
    """
    return _fold(e, lambda t: torus_alexander_closed(t.p, t.q),
                 lambda pr: alexander_from_braid(_twisted_braid(pr)),
                 lambda polys: normalize_alexander(_product(polys)), lambda poly: poly)


def expr_jones(e: KnotExpression, threshold: int | None = None) -> LaurentPoly:
    """Jones polynomial of the represented knot.

    TwistedTorus nodes go through the Temperley-Lieb pipeline and are subject
    to its strand threshold; TooManyStrands propagates to the caller.
    """
    def twisted(pr: TwistedTorusParams) -> LaurentPoly:
        # the braid has p strands; refuse on that before building a word
        # whose length alone may be unrepresentable
        _check_strands(pr.p, threshold)
        return jones_from_braid(_twisted_braid(pr), threshold)

    return _fold(e, lambda t: torus_jones_closed(t.p, t.q), twisted,
                 _product, LaurentPoly.invert_var)


def expr_genus(e: KnotExpression) -> int | None:
    """Seifert genus when determined by the expression shape, else None.

    Torus knots have genus (|p|-1)(|q|-1)/2, genus adds under connected sum
    and survives mirroring; a TwistedTorus node that has not been decomposed
    carries no genus information here.
    """
    return _fold(e, lambda t: (abs(t.p) - 1) * (abs(t.q) - 1) // 2, lambda pr: None,
                 lambda parts: None if None in parts else sum(parts), lambda g: g)


def format_expression(e: KnotExpression) -> str:
    return _fold(e, lambda t: f"T({t.p},{t.q})",
                 lambda pr: f"TT({pr.p},{pr.q},{pr.r},{pr.s})",
                 lambda parts: "Sum(" + "; ".join(parts) + ")",
                 lambda child: f"Mirror({child})")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise ExpressionSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if self.pos == start:
            raise ExpressionSyntaxError("expected a node name (T, TT, Mirror, Sum)", start)
        return self.text[start:self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        token = self.text[start:self.pos]
        try:
            return int(token)
        except ValueError:
            raise ExpressionSyntaxError("expected an integer", start) from None

    def int_list(self, count: int) -> list[int]:
        self.expect("(")
        values = [self.integer()]
        for _ in range(count - 1):
            self.expect(",")
            values.append(self.integer())
        self.expect(")")
        return values

    def expression(self, depth: int = 0) -> KnotExpression:
        start = self.pos
        if depth > MAX_DEPTH:
            raise ExpressionSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", start)
        name = self.word()
        try:
            if name == "T":
                p, q = self.int_list(2)
                return Torus(p, q)
            if name == "TT":
                p, q, r, s = self.int_list(4)
                return TwistedTorus(TwistedTorusParams(p, q, r, s))
            if name == "Mirror":
                self.expect("(")
                child = self.expression(depth + 1)
                self.expect(")")
                return Mirror(child)
            if name == "Sum":
                self.expect("(")
                children = [self.expression(depth + 1)]
                while self.peek() == ";":
                    self.expect(";")
                    children.append(self.expression(depth + 1))
                self.expect(")")
                return Sum(tuple(children))
        except ValueError as exc:
            raise ExpressionSyntaxError(str(exc), start) from None
        raise ExpressionSyntaxError(f"unknown node name {name!r}", start)


def parse_expression(text: str) -> KnotExpression:
    """Parse the expression grammar; errors carry the offending position."""
    parser = _Parser(text)
    expr = parser.expression()
    parser.skip_ws()
    if parser.pos != len(text):
        raise ExpressionSyntaxError("trailing input after expression", parser.pos)
    return expr
