import errno
import functools
import io
import json
import os
import random
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import twistsum
from twistsum.cli import EXIT_INFEASIBLE, EXIT_INTERNAL, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, _selftest_suites, main
from twistsum.family import LEVELS
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


@pytest.mark.parametrize("output_format", ["json", "text"])
def test_over_threshold_record_with_an_unprintable_basis_size(capsys, output_format):
    # C(8001) has more digits than int-to-str converts, so the record names it
    code, out, err = run(capsys, "invariant", "TT(8001,1,2,1)", "jones", "--format", output_format)
    assert code == EXIT_INFEASIBLE and err == ""
    record = {
        "error": "too-many-strands",
        "reason": "strands 8001 exceeds threshold 12",
        "strands": 8001,
        "threshold": 12,
        "basis_size": "C(8001)",
    }
    if output_format == "json":
        assert out.count("\n") == 1 and json.loads(out) == record
    else:
        assert out.splitlines() == [f"{key}: {value}" for key, value in record.items()]


class _FailingStdout(io.TextIOBase):
    """A stdout on /dev/full or a closed pipe: with buffering, writes succeed and the flush fails."""

    def __init__(self, buffered, error):
        self.buffered = buffered
        self.error = error

    def write(self, text):
        if not self.buffered:
            self.flush()
        return len(text)

    def flush(self):
        raise self.error


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("output_format", ["json", "text"])
@pytest.mark.parametrize("spec, which", [("TT(19,13,15,-1)", "jones"), ("T(2,3)", "alexander")],
                         ids=["over-threshold-record", "result"])
def test_a_failed_write_exits_4_on_one_stderr_line(capsys, monkeypatch, spec, which, output_format, buffered):
    for error in (OSError(errno.ENOSPC, "No space left on device"),
                  BrokenPipeError(errno.EPIPE, "Broken pipe")):
        monkeypatch.setattr(sys, "stdout", _FailingStdout(buffered, error))
        code = main(["invariant", spec, which, "--format", output_format])
        assert code == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err == f"error: cannot write output: {error.strerror}\n"


def _package_env(buffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = os.path.dirname(os.path.dirname(twistsum.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_process_writing_to_a_full_device_exits_4_on_one_stderr_line(buffered):
    # console_entry must leave nothing for the flush at interpreter exit to fail on
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "twistsum", "invariant", "TT(19,13,15,-1)", "jones"],
                              stdout=full, stderr=subprocess.PIPE, env=_package_env(buffered),
                              text=True, timeout=60)
    assert proc.returncode == EXIT_INTERNAL
    assert proc.stderr == "error: cannot write output: No space left on device\n"


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_process_whose_reader_has_gone_exits_4_on_one_stderr_line(buffered):
    # `twistsum enumerate ... | head -c 1`, with the reader gone before the
    # first write so the broken pipe does not depend on timing
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "twistsum", "enumerate", "--a-max", "1",
                               "--k1-max", "2", "--k2-max", "3", "--format", "text"],
                              stdout=write_end, stderr=subprocess.PIPE, env=_package_env(buffered),
                              text=True, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_INTERNAL
    assert proc.stderr == "error: cannot write output: Broken pipe\n"


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


@pytest.mark.parametrize("argv, env", [
    (["verify", "--a", "1"], None),
    ([], None),
    (["bogus"], None),
    (["invariant", "T(2,3)", "nope"], None),
    (["invariant", "T(2,3)", "jones", "--timings"], None),
    (["invariant", "T(2,3)", "jones", "--jones-threshold", "1"], None),
    (["invariant", "T(2,3)", "jones"], "plenty"),
])
def test_usage_error_is_one_stderr_line(capsys, monkeypatch, argv, env):
    if env is None:
        monkeypatch.delenv("TWISTSUM_JONES_THRESHOLD", raising=False)
    else:
        monkeypatch.setenv("TWISTSUM_JONES_THRESHOLD", env)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


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


def test_selftest_checks_the_kernels_the_pipelines_run(monkeypatch):
    import twistsum.burau as burau_mod
    import twistsum.temperley_lieb as tl_mod

    real_apply_run = burau_mod._apply_run
    real_cupcap = tl_mod._cupcap

    def first_letter_of_each_run(cols, a, length, d):
        real_apply_run(cols, a, 1, d)

    monkeypatch.setattr(burau_mod, "_apply_run", first_letter_of_each_run)
    # tables built from the broken rules go to fresh caches; the shared ones are left as they were
    monkeypatch.setattr(tl_mod, "_diagrams", functools.cache(tl_mod._diagrams.__wrapped__))
    monkeypatch.setattr(tl_mod, "_modules", functools.lru_cache(maxsize=4)(tl_mod._modules.__wrapped__))
    monkeypatch.setattr(tl_mod, "_cupcap", lambda pairing, j: (pairing, 1))
    suites = dict(_selftest_suites(SimpleNamespace(seed=0, jones_threshold=None)))
    assert not suites["burau-relations"]()
    assert not suites["catalan-basis"]()

    # a module table that joins two adjacent defects instead of sending them to
    # 0; the joined term falls to a module with fewer defects and never returns
    # to a diagonal entry, so brackets stay right and only the closure check
    # of catalan-basis can see it. Diagrams have no defects, so the diagram
    # tables, rebuilt here, come out right and the basis count passes.
    def join_defects(state, j):
        if state[j] < 0 and state[j + 1] < 0:
            joined = list(state)
            joined[j], joined[j + 1] = j + 1, j
            return tuple(joined), 0
        return real_cupcap(state, j)

    monkeypatch.setattr(tl_mod, "_cupcap", join_defects)
    monkeypatch.setattr(tl_mod, "_diagrams", functools.cache(tl_mod._diagrams.__wrapped__))
    monkeypatch.setattr(tl_mod, "_modules", functools.lru_cache(maxsize=4)(tl_mod._modules.__wrapped__))
    suites = dict(_selftest_suites(SimpleNamespace(seed=0, jones_threshold=None)))
    assert not suites["catalan-basis"]()


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
    # the refused Jones still ran the strand check, so its time is not zero
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


@pytest.mark.parametrize("value", ["abc", "1"])
def test_construct_ignores_the_jones_threshold_variable(capsys, monkeypatch, value):
    # construct computes no Jones polynomial, so a bad threshold is not its error
    monkeypatch.setenv("TWISTSUM_JONES_THRESHOLD", value)
    code, out, err = run(capsys, "construct", "T(2,3)")
    assert (code, out.strip(), err) == (EXIT_OK, "2;1,1,1", "")


@pytest.mark.parametrize("argv", [
    ["invariant", "T(2,3)", "jones"],
    ["invariant", "T(2,3)", "alexander"],
    ["verify", "--a", "1", "--k1", "2", "--k2", "2"],
])
def test_commands_that_take_the_threshold_still_reject_a_bad_variable(capsys, monkeypatch, argv):
    monkeypatch.setenv("TWISTSUM_JONES_THRESHOLD", "abc")
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_USAGE
    assert "TWISTSUM_JONES_THRESHOLD must be an integer" in capsys.readouterr().err


# 10^20 + 1 is coprime to 2 and 3 and does not fit a machine word, so no
# sequence of that length can even be requested.
UNREPRESENTABLE = "100000000000000000001"


@pytest.mark.parametrize("argv", [
    ["construct", f"T(3,{UNREPRESENTABLE})"],
    ["invariant", f"T(3,{UNREPRESENTABLE})", "alexander"],
    ["construct", f"TT({UNREPRESENTABLE},2,3,-1)"],
])
def test_unrepresentable_parameters_exit_4(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INTERNAL and out == ""
    assert err.startswith("error: internal error: OverflowError: ") and err.count("\n") == 1


@pytest.mark.parametrize("p, argv", [
    ("18446744073709551617", ["TT(18446744073709551617,3,2,1)", "jones", "--jones-threshold", "3"]),
    (UNREPRESENTABLE, [f"TT({UNREPRESENTABLE},2,3,-1)", "jones"]),
])
def test_jones_refuses_by_strand_count_before_building_the_word(capsys, p, argv):
    # the word on p strands is too long to build, but its strand count is known
    start = time.perf_counter()
    code, out, err = run(capsys, "invariant", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_INFEASIBLE and err == ""
    record = json.loads(out)
    assert (record["strands"], record["basis_size"]) == (int(p), f"C({p})")


def test_unexpected_exception_exits_4_with_its_type(capsys, monkeypatch):
    import twistsum.knot_expr as expr_mod

    def broken(word):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(expr_mod, "alexander_from_braid", broken)
    code, out, err = run(capsys, "invariant", "TT(9,5,7,-1)", "alexander")
    assert (code, out, err) == (EXIT_INTERNAL, "", "error: internal error: RuntimeError: forced failure\n")


def _contract_param(rng):
    if rng.random() < 0.1:
        return str(rng.choice((1, -1)) * (2 ** 63 + rng.randrange(2 ** 64)))
    return str(rng.randint(-13, 13))


def _contract_spec(rng, depth=2):
    roll = rng.random()
    if depth and roll < 0.15:
        return f"Mirror({_contract_spec(rng, depth - 1)})"
    if depth and roll < 0.3:
        children = [_contract_spec(rng, depth - 1) for _ in range(rng.randint(1, 3))]
        return "Sum(" + ";".join(children) + ")"
    if roll < 0.6:
        return f"T({_contract_param(rng)},{_contract_param(rng)})"
    if roll < 0.8:
        return "TT(" + ",".join(_contract_param(rng) for _ in range(4)) + ")"
    r = rng.randint(2, 12)  # mostly valid twisted torus parameters
    return f"TT({rng.randint(r + 1, 13)},{rng.randint(1, 13)},{r},{rng.randint(-13, 13)})"


def _contract_text(rng):
    roll = rng.random()
    if roll < 0.15:  # nesting around the limit
        depth = rng.randint(MAX_DEPTH - 1, MAX_DEPTH + 2)
        node = rng.choice(("Mirror(", "Sum("))
        return node * depth + "T(2,3)" + ")" * depth
    spec = _contract_spec(rng)
    if roll < 0.4:  # malformed: one character cut, swapped in, or truncated after
        i = rng.randrange(len(spec))
        spec = rng.choice((spec[:i] + spec[i + 1:], spec[:i] + rng.choice("(),;TMx-9 ") + spec[i + 1:],
                           spec[:i]))
    return spec


def _contract_argv(rng):
    # Jones runs only under a threshold of at most 7 strands, and enumerate
    # only over small or refused boxes: mid-size inputs that are accepted
    # still run for a long time.
    threshold = ["--jones-threshold", str(rng.randint(2, 7))]
    command = rng.choice(("construct", "invariant", "invariant", "verify", "enumerate", "usage"))
    if command == "construct":
        return ["construct", _contract_text(rng), "--format", rng.choice(("braid", "pd", "expr"))]
    if command == "invariant":
        which = rng.choice(("alexander", "jones", "determinant", "span"))
        return ["invariant", _contract_text(rng), which, "--format", rng.choice(("json", "text"))] + threshold
    level = ["--level", rng.choice(LEVELS)]
    if command == "verify":
        params = [str(rng.randint(1, 3)), str(rng.randint(2, 3)), str(rng.randint(2, 3))]
        if rng.random() < 0.4:
            params[rng.randrange(3)] = rng.choice((str(rng.randint(-1, 1)), _contract_param(rng)))
        return ["verify", "--a", params[0], "--k1", params[1], "--k2", params[2]] + level + threshold
    if command == "enumerate":
        bounds = [str(rng.randint(1, 2)), str(rng.randint(2, 3)), str(rng.randint(2, 3))]
        if rng.random() < 0.4:  # refused up front, however large the other bounds are
            bounds[0] = str(2 ** 63 + rng.randrange(2 ** 64))
            bounds[rng.randint(1, 2)] = str(rng.randint(-1, 1))
        return ["enumerate", "--a-max", bounds[0], "--k1-max", bounds[1], "--k2-max", bounds[2]] + level + threshold
    return rng.choice((
        [], ["bogus"], ["invariant"], ["invariant", "T(2,3)", "genus"], ["verify", "--a", "x"],
        ["construct", "T(2,3)", "--format", "svg"], ["selftest", "--seed", "x"],
        ["invariant", "T(2,3)", "jones", "--jones-threshold", str(2 ** 63 + rng.randrange(2 ** 64))],
        ["selftest", "--seed", str(rng.randrange(2 ** 70))] + threshold,
    ))


def test_cli_contract_on_seeded_argv(capsys, monkeypatch):
    # Whatever the input, main ends with a contract exit code, at most one
    # stderr line and no traceback.
    monkeypatch.delenv("TWISTSUM_JONES_THRESHOLD", raising=False)
    rng = random.Random(2024)
    codes = set()
    for _ in range(200):
        argv = _contract_argv(rng)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code in range(5), argv
        assert err.count("\n") <= 1 and "Traceback" not in err, argv
        codes.add(code)
    assert {EXIT_OK, EXIT_USAGE, EXIT_INFEASIBLE, EXIT_INTERNAL} <= codes
