"""The package's import boundary: scipy serves only the search's refinement."""

import ast
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


def test_scipy_is_imported_only_by_the_refinement():
    found = {p.name: scipy_imports(p) for p in Path(hookup.__file__).parent.glob("*.py")}
    assert {name: names for name, names in found.items() if names} == {
        "search.py": ["scipy.optimize.minimize"]
    }
