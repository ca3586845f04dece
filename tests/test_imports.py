"""The package's import boundary: the runtime needs numpy alone."""

import ast
import subprocess
import sys
from pathlib import Path

import hookup


def scipy_imports(path: Path) -> list[str]:
    """Dotted names of every scipy import in one source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names += [f"{node.module}.{a.name}" for a in node.names]
    return sorted(n for n in names if n.split(".")[0] == "scipy")


def test_no_module_imports_scipy():
    found = {p.name: scipy_imports(p) for p in Path(hookup.__file__).parent.glob("*.py")}
    assert {name: names for name, names in found.items() if names} == {}


def test_import_leaves_scipy_unloaded():
    # A fresh interpreter, so that scipy loaded by the tests' own oracles does not count.
    code = "import sys, hookup; print('scipy' in sys.modules)"
    src = str(Path(hookup.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_import_adds_only_numpy_outside_stdlib():
    # ``import hookup`` is the set-up every run pays: outside the standard
    # library it may load numpy and the package alone.  ``site`` loads some
    # modules of its own before (_distutils_hack, certifi), so only top-level
    # modules that the import adds count.
    code = (
        "top = lambda: {name.partition('.')[0] for name in sys.modules}; before = top(); "
        "import hookup; print(sorted(top() - before - set(sys.stdlib_module_names)))"
    )
    src = str(Path(hookup.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "['hookup', 'numpy']"


def unused_imports(path: Path) -> list[str]:
    """Names a source file imports but never references."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_every_import_is_used():
    # __init__.py imports to re-export, so only the other modules are checked.
    modules = [p for p in Path(hookup.__file__).parent.glob("*.py") if p.name != "__init__.py"]
    found = {p.name: unused_imports(p) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def test_every_definition_is_used():
    # A module-level function or class that no module of the package references
    # and __init__.py does not export is a path kept alive only by tests.
    package = Path(hookup.__file__).parent
    trees = {p.name: ast.parse(p.read_text()) for p in package.glob("*.py")}
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    exported = {
        a.asname or a.name
        for node in ast.walk(trees.pop("__init__.py"))
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    }
    dead = {
        name: sorted(
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in used | exported
        )
        for name, tree in trees.items()
    }
    assert {name: defs for name, defs in dead.items() if defs} == {}
