"""Every name a `crawford` module imports is used there, and every name
in `__all__` resolves: an import nobody reads is dead code that hides
what a module depends on.  Every function and class the package defines
is named somewhere else.  The package itself exports exactly the
library API, which covers what the README's Library block imports."""

import ast
import importlib
import re
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


def docstring_nodes(tree):
    """The string constants that are docstrings: they describe code, they
    do not name it for use."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                out.add(id(first.value))
    return out


def named_in(tree):
    """Every identifier the tree names as a name, an attribute or an
    import, and every identifier of a non-docstring string constant made
    only of dotted or colon-separated names ("crawford.linalg:ComplexMatrix",
    "translate"), as perfbench's TARGETS names the functions it patches."""
    docs = docstring_nodes(tree)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docs
            and re.fullmatch(r"[\w.:]+", node.value)
        ):
            out.update(re.split(r"[.:]", node.value))
    return out


def test_every_definition_is_named_elsewhere():
    # a definition's own def or class statement binds its name without
    # naming it, so a function or class nothing names anywhere is dead
    root = PACKAGE.parents[1]
    named = set()
    for folder in ("src", "tests", "scripts", "perfbench"):
        for path in (root / folder).rglob("*.py"):
            named |= named_in(ast.parse(path.read_text()))
    dead = [
        f"{name}.py:{node.lineno} {node.name}"
        for name in MODULES
        for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in named
    ]
    assert not dead, f"defined in crawford but never named: {dead}"


def test_package_exports_the_library_api():
    assert crawford.__all__ == [
        "ComplexMatrix",
        "CrawfordQuery",
        "CrawfordResult",
        "EllipsoidCapExceeded",
        "GaussianRational",
        "Method",
        "crawford",
    ]


def test_readme_library_imports_resolve():
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    section = readme.split("## Library", 1)[1]
    code = section.split("```python", 1)[1].split("```", 1)[0]
    imports = [
        node
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "crawford"
    ]
    names = [alias.name for node in imports for alias in node.names]
    assert names, "the README's Library block imports nothing from crawford"
    assert set(names) <= set(crawford.__all__)
    assert all(hasattr(crawford, name) for name in names)
