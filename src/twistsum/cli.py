"""Command-line front end with stable JSON output for scripting.

Commands: construct, invariant, verify, enumerate, selftest. Exit codes are
stable across commands: 0 success/verified, 1 invariant mismatch, 2 usage or
parameter error, 3 declared infeasibility (strand threshold), 4 internal
error (an identity that must hold mathematically failed: a bug; also running
out of memory, an interrupt, or any other exception, such as a parameter too
large for the interpreter to index with, reported as ``internal error:
<Type>: <message>``; and a standard output that refuses the output, such as
/dev/full or a pipe closed early, reported as ``cannot write output:
<reason>``), each reported on one stderr line. That holds
for the usage errors argparse detects too (a missing argument, an invalid
choice, a bad threshold): one ``error: <message>`` line, no usage block. The
commands only return 0 or 1, or 2 for a parameter ValueError; every library
error is mapped to its exit code at one boundary, in main. Identical
inputs produce byte-identical outputs; timing fields appear only with
--timings so golden-file comparisons stay reproducible. The Jones strand
threshold can be overridden with --jones-threshold or the environment
variable TWISTSUM_JONES_THRESHOLD (the flag wins); only the commands that
take the flag read the variable.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from math import comb, gcd

from . import braid as braid_mod
from . import temperley_lieb as tl
from .burau import BurauMatrix, alexander_from_braid, burau_of_word
from .errors import InternalInvariantViolation, TooManyStrands, TwistsumError
from .family import FamilyParams, LEVELS, family_enumerate, family_verify
from .knot_expr import (
    expr_alexander,
    expr_jones,
    expr_to_braid,
    format_expression,
    parse_expression,
    torus_alexander_closed,
    torus_jones_closed,
)
from .laurent import LaurentPoly

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4

ENV_THRESHOLD = "TWISTSUM_JONES_THRESHOLD"


def _resolve_threshold(flag_value: int | None, parser: argparse.ArgumentParser) -> int | None:
    value = flag_value
    if value is None and ENV_THRESHOLD in os.environ:
        try:
            value = int(os.environ[ENV_THRESHOLD])
        except ValueError:
            parser.error(f"{ENV_THRESHOLD} must be an integer")
    if value is not None and value < 2:
        parser.error(f"jones threshold must be >= 2, got {value}")
    return value


class _OutputFailed(Exception):
    """Standard output refused a write or the flush: the program itself did not fail."""


def _print(text: str) -> None:
    """Print one line of output; a failed write raises _OutputFailed with the system's reason."""
    try:
        print(text)
    except OSError as exc:
        raise _OutputFailed(exc.strerror or str(exc)) from exc


def _emit(obj, args) -> None:
    if getattr(args, "output_format", "json") == "json":
        _print(json.dumps(obj))
    else:
        _emit_text(obj)


def _emit_text(obj, indent: str = "") -> None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, dict) and set(value) == {"var", "terms"}:
                _print(f"{indent}{key}: {LaurentPoly.from_json_obj(value).to_text(value['var'])}")
            elif isinstance(value, (dict, list)):
                _print(f"{indent}{key}:")
                _emit_text(value, indent + "  ")
            else:
                _print(f"{indent}{key}: {value}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            if i:
                _print(f"{indent}-")
            _emit_text(value, indent)
    else:
        _print(f"{indent}{obj}")


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_construct(args) -> int:
    expr = parse_expression(args.spec)
    if args.format == "expr":
        _print(format_expression(expr))
        return EXIT_OK
    word = expr_to_braid(expr)
    if args.format == "braid":
        _print(braid_mod.braid_to_text(word))
        return EXIT_OK
    _print(braid_mod.pd_code_to_text(braid_mod.closure_pd_code(word)))
    return EXIT_OK


def cmd_invariant(args) -> int:
    expr = parse_expression(args.spec)
    if args.which == "alexander":
        value = expr_alexander(expr).to_json_obj()
    elif args.which == "jones":
        value = expr_jones(expr, args.jones_threshold).to_json_obj()
    elif args.which == "determinant":
        value = abs(expr_alexander(expr).eval_unit(-1))
    else:
        value = expr_alexander(expr).span
    _emit({"expr": format_expression(expr), "invariant": args.which, "value": value}, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        params = FamilyParams(args.a, args.k1, args.k2)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    report = family_verify(params, args.level, args.jones_threshold)
    _emit(report.to_json_obj(include_millis=args.timings), args)
    return EXIT_MISMATCH if report.verdict == "mismatch" else EXIT_OK


def cmd_enumerate(args) -> int:
    try:
        members = family_enumerate(args.a_max, args.k1_max, args.k2_max)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    counts = {"pass": 0, "mismatch": 0, "skipped": 0}
    for fp in members:
        report = family_verify(fp, args.level, args.jones_threshold)
        if report.verdict == "verified-at-level":
            counts["pass"] += 1
        elif report.verdict == "mismatch":
            counts["mismatch"] += 1
        else:
            counts["skipped"] += 1
        _emit(report.to_json_obj(include_millis=args.timings), args)
    _emit({"summary": counts}, args)
    return EXIT_MISMATCH if counts["mismatch"] else EXIT_OK


def _selftest_suites(args):
    def torus_alexander_oracle() -> bool:
        for p in range(2, 8):
            for q in range(p + 1, 8):
                if gcd(p, q) != 1:
                    continue
                braidword = braid_mod.torus_braid(p, q)
                if alexander_from_braid(braidword) != torus_alexander_closed(p, q):
                    return False
        return True

    def torus_jones_oracle() -> bool:
        for p, q in ((2, 3), (2, 5), (2, 7), (3, 4), (3, 5)):
            braidword = braid_mod.torus_braid(p, q)
            if tl.jones_from_braid(braidword, args.jones_threshold) != torus_jones_closed(p, q):
                return False
        return True

    def catalan_basis() -> bool:
        # the diagrams the transfer reaches from the identity are C(n)
        # distinct noncrossing pairings
        expected = [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
        if [tl.catalan(n) for n in range(1, 11)] != expected:
            return False
        for n in range(1, 9):
            diagrams = tl._diagrams(n)
            ids = tl._reachable(diagrams)
            pairings = {diagrams.states[d] for d in ids}
            if not (len(ids) == len(pairings) == expected[n - 1]
                    and all(tl._is_noncrossing_pairing(p) for p in pairings)):
                return False
        # the cell modules the trace steps: C(n, (n-k)/2) - C(n, (n-k)/2 - 1)
        # link states with k defects, squares summing to C(n), and no table
        # entry, filled by the walk as the kernel fills it, leaving its module
        for n in range(1, 14):
            modules = tl._modules(n)
            defects = modules.group
            arcs = range(n // 2 + 1)  # (n - k) / 2 for each module
            dims = [defects.count(n - 2 * a) for a in arcs]
            if dims != [comb(n, a) - (comb(n, a - 1) if a else 0) for a in arcs]:
                return False
            if sum(d * d for d in dims) != tl.catalan(n):
                return False
            if tl._reachable(modules) != list(modules.starts):
                return False
            for row in modules.moves:
                if any(code >= 0 and defects[code >> 1] != defects[s] for s, code in enumerate(row)):
                    return False
        return True

    def burau_relations() -> bool:
        # on the column updates the Alexander route runs. A positive braid
        # relation sets a run of two letters and a lone letter against the
        # lone letter and the run; a negative one sets three lone letters
        # against a negative run and a lone letter.
        def image(n: int, *letters: int) -> BurauMatrix:
            return burau_of_word(braid_mod.BraidWord(n, letters))

        for n in range(3, 6):
            for i in range(1, n - 1):
                for s in (1, -1):
                    if image(n, s * i, s * (i + 1), s * i) != image(n, s * (i + 1), s * i, s * (i + 1)):
                        return False
            one = BurauMatrix.identity(n - 1)
            for i in range(1, n):
                if image(n, i, -i) != one or image(n, -i, i) != one:
                    return False
        return True

    def temperley_lieb_relations() -> bool:
        # g_i g_i^-1 = g_i^-1 g_i = 1 and the braid relation, on every basis
        # diagram and on every link state of every cell module, stepped by the
        # kernels the bracket runs
        for n in range(2, 6):
            for tables in (tl._diagrams(n), tl._modules(n)):
                for d in tl._reachable(tables):
                    one = {d: LaurentPoly.one()}
                    for i in range(1, n):
                        if tl._transfer(tables, d, (i, -i)) != one or tl._transfer(tables, d, (-i, i)) != one:
                            return False
                    for i in range(1, n - 1):
                        if tl._transfer(tables, d, (i, i + 1, i)) != tl._transfer(tables, d, (i + 1, i, i + 1)):
                            return False
        return True

    def markov_sample() -> bool:
        rng = random.Random(args.seed)
        for _ in range(25):
            n = rng.randint(2, 5)
            while True:
                letters = tuple(
                    rng.choice([s * i for s in (1, -1) for i in range(1, n)])
                    for _ in range(rng.randint(1, 12))
                )
                word = braid_mod.BraidWord(n, letters)
                if braid_mod.is_knot_closure(word):
                    break
            base_alex = alexander_from_braid(word)
            base_jones = tl.jones_from_braid(word, args.jones_threshold)
            conj = rng.choice([s * i for s in (1, -1) for i in range(1, n)])
            conjugated = braid_mod.BraidWord(n, (conj,) + letters + (-conj,))
            stabilized = braid_mod.BraidWord(n + 1, letters + (rng.choice([n, -n]),))
            for moved in (conjugated, stabilized):
                if alexander_from_braid(moved) != base_alex:
                    return False
                if tl.jones_from_braid(moved, args.jones_threshold) != base_jones:
                    return False
        return True

    return [
        ("torus-alexander-oracle", torus_alexander_oracle),
        ("torus-jones-oracle", torus_jones_oracle),
        ("catalan-basis", catalan_basis),
        ("burau-relations", burau_relations),
        ("temperley-lieb-relations", temperley_lieb_relations),
        ("markov-sample", markov_sample),
    ]


def cmd_selftest(args) -> int:
    results = []
    all_ok = True
    for name, suite in _selftest_suites(args):
        start = time.perf_counter()
        ok = suite()
        entry = {"suite": name, "ok": ok}
        if args.timings:
            entry["millis"] = round((time.perf_counter() - start) * 1000.0, 1)
        results.append(entry)
        all_ok = all_ok and ok
    _emit({"selftest": results, "ok": all_ok}, args)
    return EXIT_OK if all_ok else EXIT_MISMATCH


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line, like every other error; subparsers inherit it."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twistsum",
        description="Exact braid-closure knot invariants and twisted-torus-knot verification.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", dest="output_format", choices=("json", "text"),
                        default="json", help="output format (default json)")
    common.add_argument("--jones-threshold", type=int, default=None,
                        help="strand threshold for Jones computations "
                             f"(default {tl.DEFAULT_STRAND_THRESHOLD})")
    # only the commands whose reports carry wall-time fields take --timings
    timed = argparse.ArgumentParser(add_help=False)
    timed.add_argument("--timings", action="store_true",
                       help="include wall-time fields in reports")
    sub = parser.add_subparsers(dest="command", required=True)

    # construct prints plain text and has its own output selector, so it does
    # not take the common json/text flags
    p_construct = sub.add_parser("construct", help="construct a knot from an expression")
    p_construct.add_argument("spec", help='expression, e.g. "T(2,3)" or "TT(9,5,7,-1)"')
    p_construct.add_argument("--format", dest="format", choices=("braid", "pd", "expr"),
                             default="braid", help="what to print (default braid)")
    p_construct.set_defaults(func=cmd_construct)

    p_invariant = sub.add_parser("invariant", parents=[common],
                                 help="compute one invariant of an expression")
    p_invariant.add_argument("spec")
    p_invariant.add_argument("which", choices=("alexander", "jones", "determinant", "span"))
    p_invariant.set_defaults(func=cmd_invariant)

    p_verify = sub.add_parser("verify", parents=[common, timed],
                              help="verify one family member against its decomposition")
    p_verify.add_argument("--a", type=int, required=True)
    p_verify.add_argument("--k1", type=int, required=True)
    p_verify.add_argument("--k2", type=int, required=True)
    p_verify.add_argument("--level", choices=LEVELS, default="standard")
    p_verify.set_defaults(func=cmd_verify)

    p_enum = sub.add_parser("enumerate", parents=[common, timed],
                            help="sweep the family over a parameter box")
    p_enum.add_argument("--a-max", type=int, required=True)
    p_enum.add_argument("--k1-max", type=int, required=True)
    p_enum.add_argument("--k2-max", type=int, required=True)
    p_enum.add_argument("--level", choices=LEVELS, default="alexander")
    p_enum.set_defaults(func=cmd_enumerate)

    p_self = sub.add_parser("selftest", parents=[common, timed],
                            help="run the built-in oracle suites")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "jones_threshold"):  # construct computes no Jones polynomial
        args.jones_threshold = _resolve_threshold(args.jones_threshold, parser)
    try:
        try:
            code = args.func(args)
        except TooManyStrands as exc:
            # written inside the outer try, so a failed write is mapped there too
            _emit({
                "error": "too-many-strands",
                "reason": str(exc),
                "strands": exc.strands,
                "threshold": exc.threshold,
                "basis_size": exc.basis_size,
            }, args)
            code = EXIT_INFEASIBLE
        try:
            sys.stdout.flush()  # a block-buffered stdout fails here, not in print
        except OSError as exc:
            raise _OutputFailed(exc.strerror or str(exc)) from exc
        return code
    except _OutputFailed as exc:
        return _fail(f"cannot write output: {exc}", EXIT_INTERNAL)
    except InternalInvariantViolation as exc:
        return _fail(f"internal error: {exc}", EXIT_INTERNAL)
    except MemoryError:
        return _fail("internal error: out of memory", EXIT_INTERNAL)
    except KeyboardInterrupt:
        return _fail("internal error: interrupted", EXIT_INTERNAL)
    except TwistsumError as exc:
        return _fail(str(exc), EXIT_USAGE)
    except Exception as exc:  # a bug, or an input the arithmetic cannot represent
        return _fail(f"internal error: {type(exc).__name__}: {exc}", EXIT_INTERNAL)


def console_entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:  # main reported it; leave the flush at exit nothing to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
