import json

import pytest

from twistsum.cli import EXIT_INFEASIBLE, EXIT_INTERNAL, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from twistsum.knot_expr import MAX_DEPTH


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_braid(capsys):
    code, out, _ = run(capsys, "construct", "T(2,3)", "--format", "braid")
    assert code == EXIT_OK and out.strip() == "2;1,1,1"


def test_construct_default_is_braid(capsys):
    code, out, _ = run(capsys, "construct", "TT(9,5,7,-1)")
    assert code == EXIT_OK
    word = out.strip()
    assert word.startswith("9;") and len(word.split(";")[1].split(",")) == 82


def test_construct_pd(capsys):
    code, out, _ = run(capsys, "construct", "T(2,3)", "--format", "pd")
    assert code == EXIT_OK
    assert out.strip() == "X[2,1,3,4] X[4,3,5,6] X[6,5,1,2]"


def test_construct_expr(capsys):
    code, out, _ = run(capsys, "construct", " Sum(T(2,3);T(2,-5)) ", "--format", "expr")
    assert code == EXIT_OK and out.strip() == "Sum(T(2,3); T(2,-5))"


def test_construct_gcd_violation_exits_2(capsys):
    code, out, err = run(capsys, "construct", "T(2,2)")
    assert code == EXIT_USAGE and "gcd" in err


def test_construct_parse_error_has_position(capsys):
    code, _, err = run(capsys, "construct", "T(2,3")
    assert code == EXIT_USAGE and "position 5" in err


def test_invariant_alexander(capsys):
    code, out, _ = run(capsys, "invariant", "T(2,3)", "alexander")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj == {
        "expr": "T(2,3)",
        "invariant": "alexander",
        "value": {"var": "t", "terms": [[0, "1"], [1, "-1"], [2, "1"]]},
    }


def test_invariant_determinant(capsys):
    code, out, _ = run(capsys, "invariant", "Sum(T(2,3); T(2,-5))", "determinant")
    assert code == EXIT_OK and json.loads(out)["value"] == 15


def test_invariant_span(capsys):
    code, out, _ = run(capsys, "invariant", "TT(9,5,7,-1)", "span")
    assert code == EXIT_OK and json.loads(out)["value"] == 6


def test_invariant_jones_over_threshold(capsys):
    code, out, _ = run(capsys, "invariant", "TT(19,13,15,-1)", "jones")
    assert code == EXIT_INFEASIBLE
    obj = json.loads(out)
    assert obj["error"] == "too-many-strands"
    assert obj["reason"] == "strands 19 exceeds threshold 12"
    assert obj["basis_size"] == 1767263190


def test_verify_first_example_alexander(capsys):
    code, out, _ = run(capsys, "verify", "--a", "1", "--k1", "2", "--k2", "2",
                       "--level", "alexander")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["verdict"] == "verified-at-level"
    assert obj["derived"] == {"p": 9, "q": 5, "r": 7, "s": -1}


def test_verify_invalid_params(capsys):
    code, _, err = run(capsys, "verify", "--a", "0", "--k1", "2", "--k2", "2")
    assert code == EXIT_USAGE and "a > 0" in err


def test_enumerate_single(capsys):
    code, out, _ = run(capsys, "enumerate", "--a-max", "1", "--k1-max", "2",
                       "--k2-max", "2", "--level", "alexander")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 2
    report = json.loads(lines[0])
    assert report["verdict"] == "verified-at-level"
    assert json.loads(lines[1]) == {"summary": {"pass": 1, "mismatch": 0, "skipped": 0}}


def test_enumerate_bad_bounds(capsys):
    code, _, err = run(capsys, "enumerate", "--a-max", "1", "--k1-max", "1", "--k2-max", "2")
    assert code == EXIT_USAGE and "bounds" in err


def test_outputs_are_deterministic(capsys):
    _, first, _ = run(capsys, "invariant", "TT(9,5,7,-1)", "alexander")
    _, second, _ = run(capsys, "invariant", "TT(9,5,7,-1)", "alexander")
    assert first == second
    _, report1, _ = run(capsys, "verify", "--a", "1", "--k1", "2", "--k2", "2",
                        "--level", "alexander")
    _, report2, _ = run(capsys, "verify", "--a", "1", "--k1", "2", "--k2", "2",
                        "--level", "alexander")
    assert report1 == report2
    assert "millis" not in report1


def test_timings_flag_adds_millis(capsys):
    code, out, _ = run(capsys, "verify", "--a", "1", "--k1", "2", "--k2", "2",
                       "--level", "alexander", "--timings")
    assert code == EXIT_OK
    assert "millis" in json.loads(out)["checks"][0]


def test_timings_flag_only_where_reports_have_times(capsys):
    with pytest.raises(SystemExit) as info:
        main(["invariant", "T(2,3)", "jones", "--timings"])
    assert info.value.code == EXIT_USAGE
    assert "--timings" in capsys.readouterr().err
    code, out, _ = run(capsys, "selftest", "--timings")
    assert code == EXIT_OK
    assert all("millis" in entry for entry in json.loads(out)["selftest"])


def test_polynomial_json_roundtrip(capsys):
    from twistsum import LaurentPoly, torus_alexander_closed

    _, out, _ = run(capsys, "invariant", "T(4,9)", "alexander")
    value = json.loads(out)["value"]
    assert LaurentPoly.from_json_obj(value) == torus_alexander_closed(4, 9)


def test_env_threshold(capsys, monkeypatch):
    # thresholds only matter for braid pipelines, so use a twisted torus node
    monkeypatch.setenv("TWISTSUM_JONES_THRESHOLD", "2")
    code, out, _ = run(capsys, "invariant", "TT(5,3,2,1)", "jones")
    assert code == EXIT_INFEASIBLE
    assert json.loads(out)["reason"] == "strands 5 exceeds threshold 2"


def test_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("TWISTSUM_JONES_THRESHOLD", "2")
    code, out, _ = run(capsys, "invariant", "TT(5,3,2,1)", "jones", "--jones-threshold", "5")
    assert code == EXIT_OK
    assert json.loads(out)["invariant"] == "jones"


def test_threshold_must_be_at_least_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["invariant", "T(2,3)", "jones", "--jones-threshold", "1"])
    assert info.value.code == EXIT_USAGE


def test_bad_env_threshold(capsys, monkeypatch):
    monkeypatch.setenv("TWISTSUM_JONES_THRESHOLD", "plenty")
    with pytest.raises(SystemExit) as info:
        main(["invariant", "T(2,3)", "jones"])
    assert info.value.code == EXIT_USAGE


def test_text_format(capsys):
    code, out, _ = run(capsys, "invariant", "T(2,3)", "alexander", "--format", "text")
    assert code == EXIT_OK
    assert "value: 1 - t + t^2" in out


def test_verify_text_format_mentions_caveat(capsys):
    code, out, _ = run(capsys, "verify", "--a", "1", "--k1", "2", "--k2", "2",
                       "--level", "alexander", "--format", "text")
    assert code == EXIT_OK
    assert "verdict: verified-at-level" in out
    assert "invariant equality does not prove knot equivalence" in out


def test_verify_exit_code_on_mismatch(capsys, monkeypatch):
    # The family itself never mismatches, so force the verdict to exercise
    # the exit-code contract.
    import twistsum.cli as cli_mod
    from twistsum import family_verify as real_family_verify

    def forced_mismatch(params, level, threshold=None):
        report = real_family_verify(params, "alexander", threshold)
        object.__setattr__(report, "verdict", "mismatch")
        return report

    monkeypatch.setattr(cli_mod, "family_verify", forced_mismatch)
    code, out, _ = run(capsys, "verify", "--a", "1", "--k1", "2", "--k2", "2")
    assert code == EXIT_MISMATCH
    code, out, _ = run(capsys, "enumerate", "--a-max", "1", "--k1-max", "2", "--k2-max", "2")
    assert code == EXIT_MISMATCH
    assert json.loads(out.strip().splitlines()[-1])["summary"]["mismatch"] == 1


def test_selftest_runs_clean(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "1")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["ok"] is True
    suites = {entry["suite"] for entry in obj["selftest"]}
    assert {"torus-alexander-oracle", "torus-jones-oracle", "catalan-basis"} <= suites


def test_deep_nesting_is_a_syntax_error(capsys):
    deep = "Mirror(" * 2000 + "T(2,3)" + ")" * 2000
    code, out, err = run(capsys, "invariant", deep, "alexander")
    assert code == EXIT_USAGE and out == ""
    assert f"nested deeper than {MAX_DEPTH} levels" in err
    nested_sums = "Sum(" * (MAX_DEPTH + 1) + "T(2,3)" + ")" * (MAX_DEPTH + 1)
    code, _, err = run(capsys, "construct", nested_sums)
    assert code == EXIT_USAGE and "nested deeper" in err


def test_nesting_at_the_limit_still_evaluates(capsys):
    spec = "Mirror(" * MAX_DEPTH + "T(2,3)" + ")" * MAX_DEPTH
    code, out, _ = run(capsys, "invariant", spec, "alexander")
    assert code == EXIT_OK
    assert json.loads(out)["value"]["terms"] == [[0, "1"], [1, "-1"], [2, "1"]]


def test_internal_error_exits_4(capsys, monkeypatch):
    import twistsum.knot_expr as expr_mod
    from twistsum import InternalInvariantViolation

    def broken(word):
        raise InternalInvariantViolation("forced failure")

    monkeypatch.setattr(expr_mod, "alexander_from_braid", broken)
    code, out, err = run(capsys, "invariant", "TT(9,5,7,-1)", "alexander")
    assert code == EXIT_INTERNAL == 4
    assert out == "" and "internal error: forced failure" in err


def test_bareiss_remainder_guard_exits_4(capsys, monkeypatch):
    import twistsum.burau as burau_mod

    monkeypatch.setattr(burau_mod, "divmod", lambda a, b: (a // b, 1), raising=False)
    code, out, err = run(capsys, "verify", "--a", "1", "--k1", "2", "--k2", "2")
    assert code == EXIT_INTERNAL
    assert out == "" and "non-exact division" in err


def test_exponent_not_divisible_by_4_exits_4(capsys, monkeypatch):
    # A bracket whose writhe-corrected exponent is odd can only come from a
    # convention bug, so the Jones layer's own check must surface as exit 4.
    import twistsum.temperley_lieb as tl_mod
    from twistsum import ExponentNotDivisibleBy4, InternalInvariantViolation, LaurentPoly

    assert issubclass(ExponentNotDivisibleBy4, InternalInvariantViolation)
    def odd_bracket(b, threshold=None):
        return LaurentPoly({3 * tl_mod.writhe(b) + 1: 1})  # corrected exponent 1

    monkeypatch.setattr(tl_mod, "kauffman_bracket", odd_bracket)
    code, out, err = run(capsys, "invariant", "TT(9,5,7,-1)", "jones")
    assert code == EXIT_INTERNAL
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: internal error: corrected bracket exponent")


@pytest.mark.parametrize("exc, message", [
    (MemoryError, "error: internal error: out of memory\n"),
    (KeyboardInterrupt, "error: internal error: interrupted\n"),
])
def test_memory_error_and_interrupt_exit_4(capsys, monkeypatch, exc, message):
    import twistsum.knot_expr as expr_mod

    def broken(word):
        raise exc()

    monkeypatch.setattr(expr_mod, "alexander_from_braid", broken)
    code, out, err = run(capsys, "invariant", "TT(9,5,7,-1)", "alexander")
    assert code == EXIT_INTERNAL
    assert out == "" and err == message


def test_timings_cover_every_check_including_a_skip(capsys, monkeypatch):
    monkeypatch.delenv("TWISTSUM_JONES_THRESHOLD", raising=False)
    argv = ["verify", "--a", "2", "--k1", "4", "--k2", "2", "--level", "full"]
    code, out, _ = run(capsys, *argv, "--timings")
    assert code == EXIT_OK
    checks = json.loads(out)["checks"]
    assert [c["invariant"] for c in checks] == [
        "alexander", "determinant", "span", "span_vs_genus", "jones",
    ]
    assert all(isinstance(c["millis"], float) for c in checks)
    assert list(checks[-1]) == ["invariant", "skipped", "reason", "millis"]
    # the refused Jones still built its braid, so its time is not zero
    assert checks[-1]["skipped"] is True and checks[-1]["millis"] > 0
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK and "millis" not in out


def test_selftest_refused_by_threshold_exits_3(capsys):
    # A strand threshold below the oracles' braids is a declared
    # infeasibility, reported like any other refused Jones computation.
    code, out, err = run(capsys, "selftest", "--jones-threshold", "2")
    assert code == EXIT_INFEASIBLE and err == ""
    assert json.loads(out) == {
        "error": "too-many-strands",
        "reason": "strands 3 exceeds threshold 2",
        "strands": 3,
        "threshold": 2,
        "basis_size": 5,
    }
