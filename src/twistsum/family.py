"""The parametric family of composite twisted torus knots and its verification.

For integers a > 0, k1 > 1, k2 > 1 put

    p = (a + 1)(k1 + k2) + 1,   q = a(k1 + k2) + 1,   r = p - k1,   s = -1.

The twisted torus knot for (p, q; r, s) is then a connected sum of two torus
knots, T(k1, a*k1 + 1) and T(k2, -(a + 1)*k2 - 1). This module instantiates
those parameters, produces the strand-partition certificates backing the
decomposition, and verifies the claimed equality at the level of exact
polynomial invariants: the left side is computed through the braid pipelines
(Burau determinant, Temperley-Lieb transfer) and the right side through
closed forms, two routes that share no code beyond Laurent arithmetic.

A report's verdict speaks only about invariants. Polynomial invariants are
incomplete, so "verified-at-level" means "invariants consistent with the
decomposition", never "knots proven equal"; every report carries that caveat.
Mismatches are verdicts, not errors, so batch sweeps always complete.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

from .errors import InternalInvariantViolation, TooManyStrands
from .braid import TwistedTorusParams
from .knot_expr import (
    KnotExpression,
    Sum,
    Torus,
    TwistedTorus,
    expr_alexander,
    expr_genus,
    expr_jones,
    format_expression,
    torus_alexander_closed,
    torus_jones_closed,
)
from .laurent import LaurentPoly

LEVELS = ("alexander", "standard", "full")

CAVEAT = "invariant equality does not prove knot equivalence"


@dataclass(frozen=True)
class FamilyParams:
    """The family parameters a > 0, k1 > 1, k2 > 1."""

    a: int
    k1: int
    k2: int

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError(f"requires a > 0: got a={self.a}")
        if not self.k1 > 1:
            raise ValueError(f"requires k1 > 1: got k1={self.k1}")
        if not self.k2 > 1:
            raise ValueError(f"requires k2 > 1: got k2={self.k2}")


@dataclass(frozen=True)
class FamilyInstance:
    """Derived parameters and the two sides of the claimed knot equality."""

    p: int
    q: int
    r: int
    s: int
    lhs: KnotExpression
    rhs: KnotExpression


@dataclass(frozen=True)
class BunchCertificate:
    """Strand partitions behind the decomposition, plus the re-derived winding identity.

    The partitions decompose p, q and r into bunches of parallel strands:
    p into (a+1) bunches of k1, a of k2 and one of k2+1; q into a bunches of
    k1, (a-1) of k2 and one of k2+1; r into a bunches of k2, a of k1 and one
    of k2+1. They are emitted in alternating reading order, but only the
    multisets and their sums are contractual. ``winding_offset`` is
    a*k2 + 1 - ((a+1)*k2 + 1), the residual rotation that exhibits the second
    factor as a torus knot; it always equals -k2.
    """

    p_partition: tuple[int, ...]
    q_partition: tuple[int, ...]
    r_partition: tuple[int, ...]
    winding_offset: int


@dataclass(frozen=True)
class InvariantCheck:
    """Outcome of comparing one invariant across the two sides."""

    invariant: str
    equal: bool | None
    lhs: LaurentPoly | int | None
    rhs: LaurentPoly | int | None
    skipped: bool = False
    reason: str | None = None
    millis: float = 0.0

    def to_json_obj(self, include_millis: bool = False) -> dict:
        if self.skipped:
            obj: dict = {"invariant": self.invariant, "skipped": True, "reason": self.reason}
        else:
            obj = {
                "invariant": self.invariant,
                "equal": self.equal,
                "lhs": self._value(self.lhs),
                "rhs": self._value(self.rhs),
            }
        if include_millis:
            obj["millis"] = round(self.millis, 3)
        return obj

    @staticmethod
    def _value(v):
        return v.to_json_obj() if isinstance(v, LaurentPoly) else v


@dataclass(frozen=True)
class VerificationReport:
    """Structured outcome of an invariant-equality check between two expressions."""

    lhs: KnotExpression
    rhs: KnotExpression
    level: str
    checks: tuple[InvariantCheck, ...]
    verdict: str
    params: FamilyParams | None = None
    derived: tuple[int, int, int, int] | None = None

    caveat: str = field(default=CAVEAT, init=False)

    def to_json_obj(self, include_millis: bool = False) -> dict:
        return {
            "params": (
                {"a": self.params.a, "k1": self.params.k1, "k2": self.params.k2}
                if self.params is not None
                else None
            ),
            "derived": (
                dict(zip(("p", "q", "r", "s"), self.derived))
                if self.derived is not None
                else None
            ),
            "lhs": format_expression(self.lhs),
            "rhs": format_expression(self.rhs),
            "level": self.level,
            "checks": [c.to_json_obj(include_millis) for c in self.checks],
            "verdict": self.verdict,
            "caveat": self.caveat,
        }


def family_instantiate(fp: FamilyParams) -> FamilyInstance:
    """Derive (p, q, r, s) and the two sides of the claimed equality.

    The emitted parameters provably satisfy p > r > 1, q > 0, gcd(p, q) = 1
    and r > q (indeed r - q = k2); those facts are asserted rather than
    assumed, and a failure would be a bug, not bad input.
    """
    a, k1, k2 = fp.a, fp.k1, fp.k2
    p = (a + 1) * (k1 + k2) + 1
    q = a * (k1 + k2) + 1
    r = p - k1
    s = -1
    if not (p > r > 1 and q > 0 and math.gcd(p, q) == 1 and r - q == k2 and r > q):
        raise InternalInvariantViolation(
            f"family arithmetic violated its own constraints at a={a}, k1={k1}, k2={k2}"
        )
    lhs = TwistedTorus(TwistedTorusParams(p, q, r, s))
    rhs = Sum((Torus(k1, a * k1 + 1), Torus(k2, -(a + 1) * k2 - 1)))
    return FamilyInstance(p, q, r, s, lhs, rhs)


def bunch_certificate(fp: FamilyParams) -> BunchCertificate:
    """Strand partitions of p, q, r in alternating reading order, with sums re-checked."""
    a, k1, k2 = fp.a, fp.k1, fp.k2
    inst = family_instantiate(fp)
    p_partition = tuple([k1, k2] * a + [k1, k2 + 1])
    q_partition = tuple([k1, k2] * (a - 1) + [k1, k2 + 1])
    r_partition = tuple([k2, k1] * a + [k2 + 1])
    winding_offset = (a * k2 + 1) - ((a + 1) * k2 + 1)
    ok = (
        sum(p_partition) == inst.p
        and sum(q_partition) == inst.q
        and sum(r_partition) == inst.r
        and winding_offset == -k2
    )
    if not ok:
        raise InternalInvariantViolation(
            f"bunch partition arithmetic failed at a={a}, k1={k1}, k2={k2}"
        )
    return BunchCertificate(p_partition, q_partition, r_partition, winding_offset)


def factor_equivalence_check(fp: FamilyParams) -> bool:
    """Closed-form invariant equality of the two presentations of the second factor.

    The decomposition first exhibits the factor as T((a+1)*k2 + 1, -k2) and
    then re-expresses it as T(k2, -(a+1)*k2 - 1); both presentations must have
    equal Alexander and equal Jones polynomials.
    """
    a, k2 = fp.a, fp.k2
    big = (a + 1) * k2 + 1
    alex_equal = torus_alexander_closed(big, -k2) == torus_alexander_closed(k2, -big)
    jones_equal = torus_jones_closed(big, -k2) == torus_jones_closed(k2, -big)
    return alex_equal and jones_equal


def _timed(invariant: str, compute) -> InvariantCheck:
    """Compare the two sides ``compute`` returns, with the wall time it took.

    A computation refused by the strand threshold becomes a skip record.
    """
    start = time.perf_counter()
    try:
        lhs, rhs = compute()
        outcome = {"equal": lhs == rhs, "lhs": lhs, "rhs": rhs}
    except TooManyStrands as exc:
        outcome = {"equal": None, "lhs": None, "rhs": None, "skipped": True, "reason": str(exc)}
    return InvariantCheck(invariant, **outcome, millis=(time.perf_counter() - start) * 1000.0)


def _verify(
    lhs: KnotExpression,
    rhs: KnotExpression,
    level: str,
    jones_threshold: int | None,
    genus_target: int | None = None,
    params: FamilyParams | None = None,
    derived: tuple[int, int, int, int] | None = None,
) -> VerificationReport:
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    alex = _timed("alexander", lambda: (expr_alexander(lhs), expr_alexander(rhs)))
    checks = [alex]
    if level != "alexander":
        alex_l, alex_r = alex.lhs, alex.rhs
        checks.append(_timed(
            "determinant", lambda: (abs(alex_l.eval_unit(-1)), abs(alex_r.eval_unit(-1)))
        ))
        checks.append(_timed("span", lambda: (alex_l.span, alex_r.span)))
        if genus_target is not None:
            checks.append(_timed("span_vs_genus", lambda: (alex_l.span, 2 * genus_target)))
    if level == "full":
        checks.append(_timed(
            "jones", lambda: (expr_jones(lhs, jones_threshold), expr_jones(rhs, jones_threshold))
        ))
    return VerificationReport(lhs, rhs, level, tuple(checks), _verdict(checks), params, derived)


def _verdict(checks: list[InvariantCheck]) -> str:
    if any(c.equal is False for c in checks):
        return "mismatch"
    if any(c.skipped for c in checks):
        return "partially-skipped"
    return "verified-at-level"


def verify_pair(
    lhs: KnotExpression,
    rhs: KnotExpression,
    level: str = "standard",
    jones_threshold: int | None = None,
) -> VerificationReport:
    """Compare two arbitrary expressions invariant by invariant.

    Level "alexander" compares normalized Alexander polynomials; "standard"
    adds the knot determinant and the Alexander span; "full" adds the Jones
    polynomial where the strand threshold allows, recording a skip otherwise.
    The comparison is symmetric in its arguments at every level.
    """
    return _verify(lhs, rhs, level, jones_threshold)


def family_verify(
    fp: FamilyParams,
    level: str = "standard",
    jones_threshold: int | None = None,
) -> VerificationReport:
    """Verify one family member: braid pipelines on the left, closed forms on the right.

    Beyond the pairwise checks of verify_pair, the "standard" and "full"
    levels also compare the computed Alexander span against twice the genus of
    the right-hand side, which is known exactly for a sum of torus knots.
    """
    inst = family_instantiate(fp)
    return _verify(
        inst.lhs, inst.rhs, level, jones_threshold, expr_genus(inst.rhs),
        params=fp, derived=(inst.p, inst.q, inst.r, inst.s),
    )


def family_enumerate(a_max: int, k1_max: int, k2_max: int) -> Iterator[FamilyParams]:
    """All family parameters within the bounds, in lexicographic order, yielded one at a time.

    The bounds are checked at the call; the members are made only as they are
    asked for, so a box too large to hold in memory still streams.
    """
    if a_max < 1 or k1_max < 2 or k2_max < 2:
        raise ValueError(
            f"bounds must allow a >= 1, k1 >= 2, k2 >= 2: got ({a_max}, {k1_max}, {k2_max})"
        )
    return (
        FamilyParams(a, k1, k2)
        for a in range(1, a_max + 1)
        for k1 in range(2, k1_max + 1)
        for k2 in range(2, k2_max + 1)
    )
