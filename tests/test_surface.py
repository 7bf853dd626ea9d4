"""symkit's public surface is what the program reaches (DECISIONS.md D10).

Every public module-level function and class of ``src/symkit`` must be named
by code in ``src/symkit`` or ``scripts`` other than its own definition: as a
name, an attribute or an import alias.  Strings and docstrings do not count,
so a name that only a docstring or the benchmark's span table mentions is
not reached.  The one exception is ``experiments.VERBS``: the CLI looks its
runners up by the names it holds, so those names are reached.  A name only
tests call fails here; D10 deletes such names.

The scripts are imported too (their ``__main__`` blocks do not run), so a
name they still import after its deletion fails here rather than on the
script's next run.

The decisions ledger resolves both ways: every ``D<n>`` that the code, the
tests, the scripts, README.md or ROADMAP.md cite is an entry of
DECISIONS.md, and every test function or class that the ledger names is
defined under ``tests/``.
"""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

from symkit.experiments import VERBS

_REPO = Path(__file__).resolve().parents[1]
_LIBRARY = sorted((_REPO / "src" / "symkit").glob("*.py"))
_SCRIPTS = sorted((_REPO / "scripts").glob("*.py"))


def _named(node: ast.AST) -> set[str]:
    """Every identifier ``node`` names as a variable, attribute or import alias."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
    return out


def _public_definitions(tree: ast.Module) -> list[ast.AST]:
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node for node in tree.body if isinstance(node, defs) and not node.name.startswith("_")]


def _unreached() -> list[str]:
    trees = {path: ast.parse(path.read_text(), str(path)) for path in _LIBRARY + _SCRIPTS}
    # the names each top-level statement uses, so that a definition's own body is left out
    uses = [(node, _named(node)) for tree in trees.values() for node in tree.body]
    dispatched = {runner for runner, _ in VERBS.values()}
    unreached = []
    for path in _LIBRARY:
        for definition in _public_definitions(trees[path]):
            name = definition.name
            if name not in dispatched and not any(name in named for node, named in uses if node is not definition):
                unreached.append(f"{path.stem}.{name}")
    return unreached


def test_every_public_name_is_reached_by_the_program():
    assert _unreached() == []


@pytest.mark.parametrize("script", [p.stem for p in _SCRIPTS])
def test_script_imports_resolve(script, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # run_full_suite prepends its src
    spec = importlib.util.spec_from_file_location(f"_script_{script}", _REPO / "scripts" / f"{script}.py")
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


_LEDGER = (_REPO / "DECISIONS.md").read_text()


def test_every_cited_decision_has_an_entry():
    entries = set(re.findall(r"^## (D\d+)\.", _LEDGER, re.M))
    citing = [*(_REPO / "src").rglob("*.py"), *(_REPO / "tests").rglob("*.py"), *_SCRIPTS]
    citing += [_REPO / "README.md", _REPO / "ROADMAP.md"]
    missing = {(path.name, d) for path in citing for d in re.findall(r"\bD\d+\b", path.read_text()) if d not in entries}
    assert sorted(missing) == []


def test_every_test_the_ledger_cites_exists():
    tests = sorted((_REPO / "tests").rglob("*.py"))
    defined = {
        node.name
        for path in tests
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    modules = {path.stem for path in tests}  # a bare module name such as test_cli is not a test
    cited = set(re.findall(r"\b(test_\w+|Test[A-Z]\w*)\b", _LEDGER))
    assert sorted(cited - defined - modules) == []
