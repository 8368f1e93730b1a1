"""Every name a `crawford` module imports is used there, and every name
in `__all__` resolves: an import nobody reads is dead code that hides
what a module depends on."""

import ast
import importlib
from pathlib import Path

import pytest

import crawford

PACKAGE = Path(crawford.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))

# perfbench's tracer patches these names on `crawford.cli`, so cli keeps
# them bound although it never calls them
TRACED_IN_CLI = {"clear_denominators", "frobenius_ceiling", "hermitian_split"}


def imported_names(tree):
    """Names bound by the module's imports, with their line numbers."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def declared_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    allowed = declared_all(tree) | (TRACED_IN_CLI if name == "cli" else set())
    unused = {
        imp: line
        for imp, line in imported_names(tree).items()
        if imp not in used and imp not in allowed
    }
    assert not unused, f"crawford/{name}.py imports names it never uses: {unused}"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(
        "crawford" if name == "__init__" else f"crawford.{name}"
    )
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
