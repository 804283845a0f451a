import json

import pytest

from twistsum.cli import EXIT_INFEASIBLE, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main


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
