"""Exact braid-closure knot invariants and connected-sum verification for twisted torus knots.

The package constructs (twisted) torus knots as braid closures, computes their
Alexander polynomial through the reduced Burau representation and their Jones
polynomial through a Temperley-Lieb transfer of the Kauffman bracket, all in
exact arbitrary-precision arithmetic, and verifies connected-sum
decompositions of the parametric family

    p = (a+1)(k1+k2) + 1,  q = a(k1+k2) + 1,  r = p - k1,  s = -1
    ->  T(p, q; r, s) ~ T(k1, a*k1 + 1) # T(k2, -(a+1)*k2 - 1)

by comparing braid-pipeline invariants of the left side against closed-form
invariants of the right side. Equal invariants are consistency evidence, not a
proof of knot equivalence; every verification report says so.
"""

from .errors import (
    EmptyDiagram,
    ExponentNotDivisibleBy4,
    ExpressionSyntaxError,
    InternalInvariantViolation,
    NotAKnot,
    NotAlexanderLike,
    NotDivisible,
    TooManyStrands,
    TwistsumError,
)
from .laurent import LaurentPoly
from .braid import (
    BraidWord,
    TwistedTorusParams,
    braid_connected_sum,
    braid_mirror,
    braid_permutation,
    braid_to_text,
    closure_pd_code,
    is_knot_closure,
    pd_code_to_text,
    torus_braid,
    twisted_torus_braid,
    writhe,
)
from .burau import alexander_from_braid, alexander_span, knot_determinant
from .temperley_lieb import jones_from_braid, kauffman_bracket
from .knot_expr import (
    Mirror,
    Sum,
    Torus,
    TwistedTorus,
    format_expression,
    torus_alexander_closed,
    torus_jones_closed,
)
from .family import (
    FamilyParams,
    bunch_certificate,
    factor_equivalence_check,
    family_enumerate,
    family_instantiate,
    family_verify,
    verify_pair,
)

__version__ = "0.1.0"

# The supported API: what the README, the demos and the benchmark use, plus
# the error classes callers catch. Every other name is internal and is
# imported from its submodule.
__all__ = [
    # errors
    "EmptyDiagram", "ExponentNotDivisibleBy4", "ExpressionSyntaxError",
    "InternalInvariantViolation", "NotAKnot", "NotAlexanderLike", "NotDivisible",
    "TooManyStrands", "TwistsumError",
    # laurent
    "LaurentPoly",
    # braid
    "BraidWord", "TwistedTorusParams", "braid_connected_sum", "braid_mirror",
    "braid_permutation", "braid_to_text", "closure_pd_code", "is_knot_closure",
    "pd_code_to_text", "torus_braid", "twisted_torus_braid", "writhe",
    # burau
    "alexander_from_braid", "alexander_span", "knot_determinant",
    # temperley_lieb
    "jones_from_braid", "kauffman_bracket",
    # knot_expr
    "Mirror", "Sum", "Torus", "TwistedTorus", "format_expression", "torus_alexander_closed",
    "torus_jones_closed",
    # family
    "FamilyParams", "bunch_certificate", "factor_equivalence_check", "family_enumerate",
    "family_instantiate", "family_verify", "verify_pair",
]
