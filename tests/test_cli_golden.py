"""Byte-for-byte CLI output against recorded fixtures.

Each case in CASES runs ``main`` in-process and compares stdout, stderr and
the exit code with ``tests/golden/<name>.out``, ``<name>.err`` and the entry
in ``tests/golden/exit_codes.json``. The fixtures are the reference output:
a change that alters any byte of them is a change of the CLI contract and
has to say so, not a refactor. ``python tests/test_cli_golden.py`` rewrites
them from the tree it is run in.
"""

import json
from pathlib import Path

import pytest

from twistsum.cli import ENV_THRESHOLD, main

GOLDEN = Path(__file__).parent / "golden"

FAMILY_112 = ["--a", "1", "--k1", "2", "--k2", "2", "--level", "full"]

CASES = {
    "construct-braid": ["construct", "TT(9,5,7,-1)", "--format", "braid"],
    "construct-pd": ["construct", "Sum(T(2,3); Mirror(T(2,5)))", "--format", "pd"],
    "construct-gcd-error": ["construct", "T(2,2)"],
    "construct-expr": ["construct", " Sum( T(2,3) ;Mirror(TT(9,5,7,-1))) ", "--format", "expr"],
    "invariant-alexander": ["invariant", "TT(9,5,7,-1)", "alexander"],
    "invariant-jones-text": ["invariant", "Sum(T(2,3); Mirror(T(3,4)))", "jones",
                             "--format", "text"],
    "invariant-determinant": ["invariant", "Sum(T(2,3); T(2,-5))", "determinant"],
    "invariant-span": ["invariant", "TT(9,5,7,-1)", "span"],
    "invariant-jones-over-threshold": ["invariant", "TT(19,13,15,-1)", "jones"],
    "verify-full-json": ["verify", *FAMILY_112],
    "verify-full-text": ["verify", *FAMILY_112, "--format", "text"],
    "verify-bad-params": ["verify", "--a", "0", "--k1", "2", "--k2", "2"],
    "verify-missing-args": ["verify", "--a", "1"],
    "verify-full-skip": ["verify", "--a", "2", "--k1", "4", "--k2", "2", "--level", "full"],
    "enumerate-standard": ["enumerate", "--a-max", "2", "--k1-max", "3", "--k2-max", "3",
                           "--level", "standard"],
    "selftest-json": ["selftest", "--seed", "3"],
    "selftest-text": ["selftest", "--seed", "3", "--format", "text"],
}


def _run(argv: list[str]) -> int:
    """The exit code of ``main``; argparse's usage errors leave it through SystemExit."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def _read(path: Path) -> str:
    return path.read_bytes().decode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys, monkeypatch):
    monkeypatch.delenv(ENV_THRESHOLD, raising=False)
    code = _run(CASES[name])
    captured = capsys.readouterr()
    assert captured.out == _read(GOLDEN / f"{name}.out")
    assert captured.err == _read(GOLDEN / f"{name}.err")
    assert code == json.loads(_read(GOLDEN / "exit_codes.json"))[name]


def _write_fixtures() -> None:
    import contextlib
    import io
    import os

    os.environ.pop(ENV_THRESHOLD, None)
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes[name] = _run(argv)
        (GOLDEN / f"{name}.out").write_bytes(out.getvalue().encode("utf-8"))
        (GOLDEN / f"{name}.err").write_bytes(err.getvalue().encode("utf-8"))
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _write_fixtures()
