from math import gcd

import pytest

from twistsum import (
    FamilyParams,
    Mirror,
    Sum,
    Torus,
    TwistedTorus,
    TwistedTorusParams,
    bunch_certificate,
    factor_equivalence_check,
    family_enumerate,
    family_instantiate,
    family_verify,
    torus_alexander_closed,
    verify_pair,
)
from twistsum.family import CAVEAT


def test_family_params_validation():
    with pytest.raises(ValueError, match="a > 0"):
        FamilyParams(0, 2, 2)
    with pytest.raises(ValueError, match="k1 > 1"):
        FamilyParams(1, 1, 2)
    with pytest.raises(ValueError, match="k2 > 1"):
        FamilyParams(1, 2, 1)


def test_instantiate_first_example():
    inst = family_instantiate(FamilyParams(1, 2, 2))
    assert (inst.p, inst.q, inst.r, inst.s) == (9, 5, 7, -1)
    assert inst.lhs == TwistedTorus(TwistedTorusParams(9, 5, 7, -1))
    assert inst.rhs == Sum((Torus(2, 3), Torus(2, -5)))


def test_instantiate_second_example():
    inst = family_instantiate(FamilyParams(2, 4, 2))
    assert (inst.p, inst.q, inst.r, inst.s) == (19, 13, 15, -1)
    assert inst.rhs == Sum((Torus(4, 9), Torus(2, -7)))


def test_instantiate_direct_substitution():
    inst = family_instantiate(FamilyParams(1, 3, 2))
    assert (inst.p, inst.q, inst.r, inst.s) == (11, 6, 8, -1)
    assert inst.rhs == Sum((Torus(3, 4), Torus(2, -5)))


def test_instantiated_parameters_satisfy_constraints():
    for fp in family_enumerate(3, 4, 4):
        inst = family_instantiate(fp)
        assert inst.p > inst.r > 1
        assert inst.q > 0
        assert gcd(inst.p, inst.q) == 1
        assert inst.r - inst.q == fp.k2
        assert inst.r > inst.q


def test_bunch_certificate_examples():
    cert = bunch_certificate(FamilyParams(2, 4, 2))
    assert cert.p_partition == (4, 2, 4, 2, 4, 3) and sum(cert.p_partition) == 19
    assert cert.q_partition == (4, 2, 4, 3) and sum(cert.q_partition) == 13
    assert cert.r_partition == (2, 4, 2, 4, 3) and sum(cert.r_partition) == 15
    assert cert.winding_offset == -2

    cert = bunch_certificate(FamilyParams(1, 2, 2))
    assert cert.p_partition == (2, 2, 2, 3) and sum(cert.p_partition) == 9


def test_bunch_certificate_window():
    for fp in family_enumerate(3, 4, 4):
        inst = family_instantiate(fp)
        cert = bunch_certificate(fp)
        assert sum(cert.p_partition) == inst.p
        assert sum(cert.q_partition) == inst.q
        assert sum(cert.r_partition) == inst.r
        assert cert.winding_offset == -fp.k2
        # contractual multisets: (a+1) k1's + a k2's + one k2+1, and so on
        assert sorted(cert.p_partition) == sorted(
            [fp.k1] * (fp.a + 1) + [fp.k2] * fp.a + [fp.k2 + 1]
        )
        assert sorted(cert.q_partition) == sorted(
            [fp.k1] * fp.a + [fp.k2] * (fp.a - 1) + [fp.k2 + 1]
        )
        assert sorted(cert.r_partition) == sorted(
            [fp.k2] * fp.a + [fp.k1] * fp.a + [fp.k2 + 1]
        )


def test_factor_equivalence():
    assert factor_equivalence_check(FamilyParams(2, 2, 2))
    assert factor_equivalence_check(FamilyParams(1, 2, 2))
    for fp in family_enumerate(3, 4, 4):
        assert factor_equivalence_check(fp)
    # a deliberately perturbed pair has different determinants (7 vs 5)
    seven = torus_alexander_closed(7, -2)
    five = torus_alexander_closed(2, -5)
    assert seven != five
    assert abs(seven.eval_unit(-1)) == 7 and abs(five.eval_unit(-1)) == 5


def test_verify_pair_reflexive():
    report = verify_pair(Torus(2, 3), Torus(2, 3), "full")
    assert report.verdict == "verified-at-level"
    assert all(c.equal for c in report.checks)


def test_verify_pair_detects_chirality():
    report = verify_pair(Torus(2, 3), Mirror(Torus(2, 3)), "full")
    assert report.verdict == "mismatch"
    by_name = {c.invariant: c for c in report.checks}
    assert by_name["alexander"].equal is True
    assert by_name["determinant"].equal is True
    assert by_name["jones"].equal is False


def test_verify_pair_is_symmetric():
    lhs, rhs = Torus(2, 3), Mirror(Torus(2, 3))
    for level in ("alexander", "standard", "full"):
        assert verify_pair(lhs, rhs, level).verdict == verify_pair(rhs, lhs, level).verdict


def test_verify_pair_prime_twisted_torus_control():
    # T(5,3;2,1) is prime; a sum with determinant 9 cannot match its
    # determinant 1.
    lhs = TwistedTorus(TwistedTorusParams(5, 3, 2, 1))
    rhs = Sum((Torus(2, 3), Torus(2, 3)))
    report = verify_pair(lhs, rhs, "standard")
    assert report.verdict == "mismatch"
    by_name = {c.invariant: c for c in report.checks}
    assert by_name["determinant"].lhs == 1 and by_name["determinant"].rhs == 9


def test_verify_pair_wrong_twist_sign_control():
    lhs = TwistedTorus(TwistedTorusParams(9, 5, 7, 1))
    rhs = Sum((Torus(2, 3), Torus(2, -5)))
    report = verify_pair(lhs, rhs, "alexander")
    assert report.verdict == "mismatch"
    assert report.checks[0].invariant == "alexander"
    assert report.checks[0].equal is False


def test_family_verify_first_example_full():
    report = family_verify(FamilyParams(1, 2, 2), "full")
    assert report.verdict == "verified-at-level"
    names = [c.invariant for c in report.checks]
    assert names == ["alexander", "determinant", "span", "span_vs_genus", "jones"]
    assert all(c.equal for c in report.checks)
    assert report.derived == (9, 5, 7, -1)
    assert report.caveat == CAVEAT


def test_family_verify_second_example_skips_jones():
    report = family_verify(FamilyParams(2, 4, 2), "full")
    assert report.verdict == "partially-skipped"
    by_name = {c.invariant: c for c in report.checks}
    assert by_name["alexander"].equal and by_name["determinant"].equal
    assert by_name["span"].equal and by_name["span_vs_genus"].equal
    jones = by_name["jones"]
    assert jones.skipped and jones.reason == "strands 19 exceeds threshold 12"


def test_family_verify_alexander_level_only():
    report = family_verify(FamilyParams(1, 2, 2), "alexander")
    assert [c.invariant for c in report.checks] == ["alexander"]
    assert report.verdict == "verified-at-level"


def test_family_verify_threshold_override_computes_jones():
    report = family_verify(FamilyParams(1, 2, 2), "full", jones_threshold=9)
    assert report.verdict == "verified-at-level"
    assert not any(c.skipped for c in report.checks)


def test_verify_level_validation():
    with pytest.raises(ValueError):
        family_verify(FamilyParams(1, 2, 2), "everything")
    with pytest.raises(ValueError):
        verify_pair(Torus(2, 3), Torus(2, 3), "nope")


def test_family_enumerate():
    assert tuple(family_enumerate(1, 2, 2)) == (FamilyParams(1, 2, 2),)
    assert tuple(family_enumerate(1, 3, 2)) == (FamilyParams(1, 2, 2), FamilyParams(1, 3, 2))
    grid = tuple(family_enumerate(2, 3, 3))
    assert len(grid) == 8
    assert grid == tuple(sorted(grid, key=lambda fp: (fp.a, fp.k1, fp.k2)))
    # bad bounds raise at the call, before anything is iterated
    with pytest.raises(ValueError):
        family_enumerate(0, 2, 2)
    with pytest.raises(ValueError):
        family_enumerate(1, 1, 2)
    # a box no tuple could hold still yields its first member
    assert next(iter(family_enumerate(2**63 + 1, 2, 2))) == FamilyParams(1, 2, 2)


def test_report_json_schema():
    report = family_verify(FamilyParams(1, 2, 2), "alexander")
    obj = report.to_json_obj()
    assert list(obj) == ["params", "derived", "lhs", "rhs", "level", "checks", "verdict", "caveat"]
    assert obj["params"] == {"a": 1, "k1": 2, "k2": 2}
    assert obj["derived"] == {"p": 9, "q": 5, "r": 7, "s": -1}
    assert obj["caveat"] == "invariant equality does not prove knot equivalence"
    check = obj["checks"][0]
    assert list(check) == ["invariant", "equal", "lhs", "rhs"]
    assert check["lhs"]["terms"][0] == [0, "1"]

    timed = report.to_json_obj(include_millis=True)
    assert "millis" in timed["checks"][0]

    pair_obj = verify_pair(Torus(2, 3), Torus(2, 3), "alexander").to_json_obj()
    assert pair_obj["params"] is None and pair_obj["derived"] is None

    skipped = family_verify(FamilyParams(2, 4, 2), "full").to_json_obj()
    jones = [c for c in skipped["checks"] if c["invariant"] == "jones"][0]
    assert jones == {"invariant": "jones", "skipped": True, "reason": "strands 19 exceeds threshold 12"}
