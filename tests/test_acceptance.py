"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; every comparison is exact (integer/polynomial equality, zero
tolerance).
"""

import json
import random
import time
from math import gcd

from conftest import enumerate_pairings, generator_product, random_knot_word
from twistsum import (
    BraidWord,
    LaurentPoly,
    Mirror,
    Sum,
    Torus,
    TwistedTorus,
    TwistedTorusParams,
    alexander_from_braid,
    braid_connected_sum,
    bunch_certificate,
    factor_equivalence_check,
    family_enumerate,
    family_instantiate,
    family_verify,
    jones_from_braid,
    torus_alexander_closed,
    torus_braid,
    torus_jones_closed,
    verify_pair,
    FamilyParams,
)
from twistsum.burau import BurauMatrix
from twistsum.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, main
from twistsum.laurent import normalize_alexander
from twistsum.temperley_lieb import _diagrams, _transfer, catalan


def _verify_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1])


def test_criterion_1_example1_full_verification(capsys):
    start = time.perf_counter()
    code, report = _verify_cli(
        capsys, "verify", "--a", "1", "--k1", "2", "--k2", "2", "--level", "full"
    )
    elapsed = time.perf_counter() - start
    assert code == EXIT_OK
    assert report["verdict"] == "verified-at-level"
    assert report["derived"] == {"p": 9, "q": 5, "r": 7, "s": -1}
    computed = {c["invariant"]: c for c in report["checks"]}
    for name in ("alexander", "determinant", "span", "jones"):
        assert computed[name]["equal"] is True, name
    assert elapsed < 60.0
    print(f"PASS criterion 1: TT(9,5,7,-1) vs T(2,3)#T(2,-5) fully verified ({elapsed:.1f}s)")


def test_criterion_2_example2_verification_with_jones_skip(capsys):
    start = time.perf_counter()
    code, report = _verify_cli(
        capsys, "verify", "--a", "2", "--k1", "4", "--k2", "2", "--level", "full"
    )
    elapsed = time.perf_counter() - start
    assert code == EXIT_OK
    assert report["verdict"] == "partially-skipped"
    assert report["derived"] == {"p": 19, "q": 13, "r": 15, "s": -1}
    computed = {c["invariant"]: c for c in report["checks"]}
    for name in ("alexander", "determinant", "span"):
        assert computed[name]["equal"] is True, name
    assert computed["jones"] == {
        "invariant": "jones",
        "skipped": True,
        "reason": "strands 19 exceeds threshold 12",
    }
    # the report must state that knot-type equality itself is not decided
    assert report["caveat"] == "invariant equality does not prove knot equivalence"
    assert elapsed < 120.0
    print(f"PASS criterion 2: TT(19,13,15,-1) vs T(4,9)#T(2,-7) verified, Jones skipped ({elapsed:.1f}s)")


def test_criterion_3_family_grid():
    start = time.perf_counter()
    grid = tuple(family_enumerate(3, 4, 4))
    assert len(grid) == 27
    for fp in grid:
        report = family_verify(fp, "alexander")
        assert report.verdict == "verified-at-level", fp
    jones_members = [fp for fp in grid if family_instantiate(fp).p <= 12]
    assert sorted((fp.a, fp.k1, fp.k2) for fp in jones_members) == [
        (1, 2, 2), (1, 2, 3), (1, 3, 2),
    ]
    for fp in jones_members:
        report = family_verify(fp, "full")
        assert report.verdict == "verified-at-level", fp
        jones = [c for c in report.checks if c.invariant == "jones"][0]
        assert not jones.skipped and jones.equal is True
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0
    print(f"PASS criterion 3: 27-member grid at alexander level, Jones for p <= 12 ({elapsed:.1f}s)")


def test_criterion_3_a_13_strand_member_above_the_default_threshold():
    # the cheapest p = 13 member of the grid; the default threshold skips its Jones
    start = time.perf_counter()
    fp = FamilyParams(1, 4, 2)
    assert family_instantiate(fp).p == 13
    report = family_verify(fp, "full", 13)
    assert report.verdict == "verified-at-level"
    jones = [c for c in report.checks if c.invariant == "jones"][0]
    assert not jones.skipped and jones.equal is True
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 3: (1,4,2), 13 strands, Jones equals the closed form ({elapsed:.1f}s)")


def test_criterion_4_torus_oracles():
    start = time.perf_counter()
    pairs = 0
    for p in range(2, 8):
        for q in range(p + 1, 8):
            if gcd(p, q) != 1:
                continue
            assert alexander_from_braid(torus_braid(p, q)) == torus_alexander_closed(p, q), (p, q)
            pairs += 1
    for p, q in [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5)]:
        assert jones_from_braid(torus_braid(p, q)) == torus_jones_closed(p, q), (p, q)
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 4: {pairs} Alexander and 5 Jones torus oracles exact ({elapsed:.1f}s)")


def test_criterion_5_negative_controls(capsys):
    report = verify_pair(
        TwistedTorus(TwistedTorusParams(9, 5, 7, 1)),
        Sum((Torus(2, 3), Torus(2, -5))),
        "alexander",
    )
    assert report.verdict == "mismatch"
    assert report.checks[0].invariant == "alexander" and report.checks[0].equal is False

    report = verify_pair(Torus(2, 3), Mirror(Torus(2, 3)), "full")
    assert report.verdict == "mismatch"
    by_name = {c.invariant: c for c in report.checks}
    assert by_name["alexander"].equal is True
    assert by_name["jones"].equal is False

    # exit codes: 0 verified, 2 parameter error, 3 infeasible
    code, _ = _verify_cli(capsys, "verify", "--a", "1", "--k1", "2", "--k2", "2",
                          "--level", "alexander")
    assert code == EXIT_OK
    assert main(["verify", "--a", "0", "--k1", "2", "--k2", "2"]) == EXIT_USAGE
    capsys.readouterr()
    code, obj = _verify_cli(capsys, "invariant", "TT(19,13,15,-1)", "jones")
    assert code == EXIT_INFEASIBLE and obj["reason"] == "strands 19 exceeds threshold 12"
    print("PASS criterion 5: negative controls mismatch as required, exit codes stable")


def test_criterion_6_property_suites():
    start = time.perf_counter()
    rng = random.Random(987654321)

    # Markov invariance of both invariants on 200 random knot braids.
    for _ in range(200):
        word = random_knot_word(rng, 6, 20)
        alex = alexander_from_braid(word)
        jones = jones_from_braid(word)
        conj = rng.choice([s * i for s in (1, -1) for i in range(1, word.strands)])
        conjugated = BraidWord(word.strands, (conj,) + word.letters + (-conj,))
        stabilized = BraidWord(word.strands + 1, word.letters + (rng.choice([1, -1]) * word.strands,))
        for moved in (conjugated, stabilized):
            assert alexander_from_braid(moved) == alex
            assert jones_from_braid(moved) == jones

    # Connected-sum multiplicativity of both invariants on 50 random pairs.
    for _ in range(50):
        b1, b2 = random_knot_word(rng, 4, 10), random_knot_word(rng, 4, 10)
        joined = braid_connected_sum(b1, b2)
        assert alexander_from_braid(joined) == normalize_alexander(
            alexander_from_braid(b1) * alexander_from_braid(b2)
        )
        assert jones_from_braid(joined) == jones_from_braid(b1) * jones_from_braid(b2)

    # Catalan basis counts, exactly.
    expected = [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
    for n, want in zip(range(1, 11), expected):
        assert catalan(n) == want
        assert sum(1 for _ in enumerate_pairings(n)) == want

    # Braid relations and inverse identities for both generator actions, n <= 5.
    one = LaurentPoly.one()
    for n in range(2, 6):
        for i in range(1, n):
            assert generator_product(n, (i, -i)) == BurauMatrix.identity(n - 1)
        for i in range(1, n - 1):
            assert generator_product(n, (i, i + 1, i)) == generator_product(n, (i + 1, i, i + 1))
        diagrams = _diagrams(n)
        for d in [diagrams.intern(p) for p in enumerate_pairings(n)]:
            for i in range(1, n):
                assert _transfer(diagrams, d, (i, -i)) == {d: one}
            for i in range(1, n - 1):
                assert _transfer(diagrams, d, (i, i + 1, i)) == _transfer(diagrams, d, (i + 1, i, i + 1))

    elapsed = time.perf_counter() - start
    print(f"PASS criterion 6: randomized Markov/multiplicativity/Catalan/relation suites ({elapsed:.1f}s)")


def test_criterion_7_structural_certificates():
    for fp in family_enumerate(3, 4, 4):
        inst = family_instantiate(fp)
        cert = bunch_certificate(fp)
        assert sum(cert.p_partition) == inst.p
        assert sum(cert.q_partition) == inst.q
        assert sum(cert.r_partition) == inst.r
        assert cert.winding_offset == -fp.k2
        assert factor_equivalence_check(fp)
    print("PASS criterion 7: bunch certificates and factor equivalence on the full grid")
