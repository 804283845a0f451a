import pytest

from twistsum import (
    ExpressionSyntaxError,
    LaurentPoly,
    Mirror,
    Sum,
    Torus,
    TooManyStrands,
    TwistedTorus,
    TwistedTorusParams,
    UNKNOT,
    braid_to_text,
    expr_alexander,
    expr_genus,
    expr_jones,
    expr_to_braid,
    format_expression,
    jones_from_braid,
    normalize_alexander,
    parse_expression,
    torus_alexander_closed,
    torus_braid,
    torus_jones_closed,
)

TREFOIL_ALEX = LaurentPoly({0: 1, 1: -1, 2: 1})
TREFOIL_JONES = LaurentPoly({1: 1, 3: 1, 4: -1})


def test_torus_alexander_closed_examples():
    assert torus_alexander_closed(2, 3) == TREFOIL_ALEX
    assert torus_alexander_closed(2, -5) == LaurentPoly({0: 1, 1: -1, 2: 1, 3: -1, 4: 1})
    big = torus_alexander_closed(4, 9)
    assert big.span == 24 and big.min_exp == 0 and big.eval_unit(1) == 1
    assert torus_alexander_closed(1, 7) == LaurentPoly.one()
    with pytest.raises(ValueError):
        torus_alexander_closed(4, 6)


def test_torus_alexander_symmetric_and_mirror_blind():
    for p, q in [(2, 3), (3, 5), (4, 9)]:
        assert torus_alexander_closed(p, q) == torus_alexander_closed(q, p)
        assert torus_alexander_closed(p, q) == torus_alexander_closed(p, -q)
        assert torus_alexander_closed(p, q) == torus_alexander_closed(-p, q)


def test_torus_jones_closed_examples():
    assert torus_jones_closed(2, 3) == TREFOIL_JONES
    assert torus_jones_closed(2, -5) == torus_jones_closed(2, 5).invert_var()
    assert torus_jones_closed(1, 9) == LaurentPoly.one()
    with pytest.raises(ValueError):
        torus_jones_closed(6, 3)


def test_torus_jones_symmetry_via_braids():
    # The (3,2) braid is a different word from the (2,3) braid but closes to
    # the same knot.
    assert jones_from_braid(torus_braid(3, 2)) == torus_jones_closed(2, 3)
    assert torus_jones_closed(3, 2) == torus_jones_closed(2, 3)
    assert torus_jones_closed(-2, -3) == torus_jones_closed(2, 3)


def test_torus_node_validation():
    with pytest.raises(ValueError):
        Torus(2, 2)
    with pytest.raises(ValueError):
        Torus(0, 1)
    Torus(1, 5)  # unknot-degenerate is fine


def test_sum_needs_children():
    with pytest.raises(ValueError):
        Sum(())


def test_expr_alexander():
    e = Sum((Torus(2, 3), Torus(2, -5)))
    expected = normalize_alexander(torus_alexander_closed(2, 3) * torus_alexander_closed(2, 5))
    assert expr_alexander(e) == expected
    assert expr_alexander(Mirror(Torus(2, 3))) == TREFOIL_ALEX
    assert expr_alexander(TwistedTorus(TwistedTorusParams(9, 5, 7, -1))) == expected
    assert expr_alexander(UNKNOT) == LaurentPoly.one()


def test_expr_jones():
    e = Sum((Torus(2, 3), Torus(2, -5)))
    expected = torus_jones_closed(2, 3) * torus_jones_closed(2, -5)
    assert expr_jones(e) == expected
    assert expr_jones(Mirror(Mirror(e))) == expected
    assert expr_jones(Mirror(Torus(2, 3))) == TREFOIL_JONES.invert_var()
    assert expr_jones(TwistedTorus(TwistedTorusParams(9, 5, 7, -1))) == expected


def test_expr_jones_threshold_propagates():
    with pytest.raises(TooManyStrands, match="strands 19 exceeds threshold 12"):
        expr_jones(TwistedTorus(TwistedTorusParams(19, 13, 15, -1)))


def test_expr_to_braid():
    assert braid_to_text(expr_to_braid(Torus(2, 3))) == "2;1,1,1"
    assert braid_to_text(expr_to_braid(Sum((Torus(2, 3), Torus(2, -5))))) == "3;1,1,1,-2,-2,-2,-2,-2"
    assert braid_to_text(expr_to_braid(Mirror(Torus(2, 3)))) == "2;-1,-1,-1"
    # negative first slot normalizes to a sign-carried second slot
    assert expr_to_braid(Torus(-2, 3)) == expr_to_braid(Torus(2, -3))
    assert expr_to_braid(Torus(-2, -3)) == expr_to_braid(Torus(2, 3))


def test_expr_genus():
    assert expr_genus(Torus(2, 3)) == 1
    assert expr_genus(Sum((Torus(2, 3), Torus(2, -5)))) == 3
    assert expr_genus(TwistedTorus(TwistedTorusParams(9, 5, 7, -1))) is None
    assert expr_genus(Mirror(Torus(4, 9))) == 12
    assert expr_genus(UNKNOT) == 0
    assert expr_genus(Sum((Torus(2, 3), TwistedTorus(TwistedTorusParams(5, 3, 2, 1))))) is None


def test_expr_alexander_normalized_and_palindromic():
    from twistsum import equal_up_to_units

    expressions = [
        Torus(2, 3),
        Torus(4, 9),
        Sum((Torus(2, 3), Torus(2, -5))),
        Mirror(Sum((Torus(3, 4), Torus(2, 7)))),
        TwistedTorus(TwistedTorusParams(9, 5, 7, -1)),
        TwistedTorus(TwistedTorusParams(5, 3, 2, 1)),
    ]
    for e in expressions:
        p = expr_alexander(e)
        assert p.min_exp == 0
        assert p.eval_unit(1) == 1
        assert equal_up_to_units(p, p.invert_var())


def test_sum_order_does_not_change_invariants():
    a, b, c = Torus(2, 3), Torus(2, -5), Torus(3, 4)
    forward = Sum((a, b, c))
    backward = Sum((c, b, a))
    assert expr_alexander(forward) == expr_alexander(backward)
    assert expr_jones(forward) == expr_jones(backward)


def test_parse_roundtrip():
    texts = [
        "T(2,3)",
        "TT(9,5,7,-1)",
        "Mirror(T(2,3))",
        "Sum(T(2,3); T(2,-5))",
        "Sum(T(2,3); Mirror(TT(5,3,2,1)); T(3,4))",
    ]
    for text in texts:
        expr = parse_expression(text)
        assert format_expression(expr) == text
        assert parse_expression(format_expression(expr)) == expr


def test_parse_whitespace_insensitive():
    assert parse_expression(" Sum( T( 2 , 3 ) ;  Mirror( TT(9, 5, 7, -1) ) ) ") == Sum(
        (Torus(2, 3), Mirror(TwistedTorus(TwistedTorusParams(9, 5, 7, -1))))
    )


def test_parse_errors_carry_position():
    with pytest.raises(ExpressionSyntaxError) as info:
        parse_expression("T(2,3")
    assert info.value.position == 5

    with pytest.raises(ExpressionSyntaxError) as info:
        parse_expression("Knot(2,3)")
    assert "unknown node name" in str(info.value)

    with pytest.raises(ExpressionSyntaxError):
        parse_expression("T(2,)")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("T(2,3) junk")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("")
    # constructor violations surface as syntax errors with a position
    with pytest.raises(ExpressionSyntaxError, match="gcd"):
        parse_expression("T(2,2)")


FOLDS = [expr_to_braid, expr_alexander, expr_jones, expr_genus, format_expression]


@pytest.mark.parametrize("fold", FOLDS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("bad", [("T", 2, 3), Mirror(("T", 2, 3)), Sum((Torus(2, 3), "T(2,3)"))])
def test_every_fold_refuses_a_non_expression(fold, bad):
    with pytest.raises(TypeError, match="not a knot expression"):
        fold(bad)


def test_folds_call_the_closed_forms_through_module_attributes(monkeypatch):
    # The benchmark tracer and the CLI tests patch these module attributes, so
    # the folds must look them up at each call rather than bind them once.
    import twistsum.knot_expr as knot_expr

    calls = {"alexander": 0, "jones": 0}

    def counting(kind, closed_form):
        def wrapper(p, q):
            calls[kind] += 1
            return closed_form(p, q)
        return wrapper

    monkeypatch.setattr(knot_expr, "torus_alexander_closed",
                        counting("alexander", knot_expr.torus_alexander_closed))
    monkeypatch.setattr(knot_expr, "torus_jones_closed",
                        counting("jones", knot_expr.torus_jones_closed))
    expr = parse_expression("Sum(T(2,3); Mirror(T(3,4)))")
    alex = expr_alexander(expr)
    assert calls == {"alexander": 2, "jones": 0}
    jones = expr_jones(expr)
    assert calls == {"alexander": 2, "jones": 2}
    assert alex == normalize_alexander(torus_alexander_closed(2, 3) * torus_alexander_closed(3, 4))
    assert jones == torus_jones_closed(2, 3) * torus_jones_closed(3, 4).invert_var()
