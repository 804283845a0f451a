"""The package namespace is the supported API, and the demos and the benchmark use only it.

The demos, the README example and ``perfbench/workloads.py`` are read as
text, never imported or changed, so a name they need cannot leave
``twistsum.__all__`` unnoticed. Conversely, every public module-level name in
the package must have a caller outside the tests.
"""

import ast
import re
import runpy
import types
from pathlib import Path

import pytest

import twistsum

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PACKAGE = sorted((ROOT / "src" / "twistsum").glob("*.py"))
EXPORTED = set(twistsum.__all__)

PUBLIC = {
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
}


def _imported_from_package(source: str) -> set[str]:
    """Names bound by ``from twistsum import ...`` statements."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "twistsum"
        for alias in node.names
    }


def _package_attributes(source: str) -> set[str]:
    """Attributes read from the package under the alias of ``import twistsum as <alias>``."""
    tree = ast.parse(source)
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "twistsum"
    }
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    }


def test_all_is_the_pinned_public_surface():
    assert len(twistsum.__all__) == len(PUBLIC) == 41
    assert EXPORTED == PUBLIC
    for name in twistsum.__all__:
        value = getattr(twistsum, name)
        assert not isinstance(value, types.ModuleType), name


def test_demos_import_only_public_names():
    assert len(DEMOS) == 3
    for demo in DEMOS:
        used = _imported_from_package(demo.read_text())
        assert used, demo.name
        assert used <= EXPORTED, (demo.name, used - EXPORTED)


README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)


def test_readme_example_imports_only_public_names():
    used = set().union(*(_imported_from_package(block) for block in README_BLOCKS))
    assert used
    assert used <= EXPORTED, used - EXPORTED


def test_readme_example_runs(capsys):
    for block in README_BLOCKS:
        exec(compile(block, "README.md", "exec"), {})
    assert "verified-at-level" in capsys.readouterr().out


def test_benchmark_workloads_use_only_public_names():
    used = _package_attributes((ROOT / "perfbench" / "workloads.py").read_text())
    assert used
    assert used <= EXPORTED, used - EXPORTED


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out


def _top_level_names(tree: ast.Module):
    """(name, node) for each module-level function, class and assigned constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def test_every_public_name_has_a_caller_outside_the_tests():
    # a caller is the package itself outside the name's own definition,
    # pyproject.toml, a demo, a README code block or the benchmark
    outside = [(ROOT / "pyproject.toml").read_text(), *README_BLOCKS]
    outside += [path.read_text() for path in DEMOS + sorted((ROOT / "perfbench").glob("*.py"))]
    sources = {path: path.read_text() for path in PACKAGE}
    unreached = []
    for path, source in sources.items():
        lines = source.splitlines()
        for name, node in _top_level_names(ast.parse(source)):
            if name.startswith("_"):
                continue
            rest = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
            texts = [rest, *outside, *(text for other, text in sources.items() if other != path)]
            if not any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts):
                unreached.append(f"{path.stem}.{name}")
    assert unreached == []
