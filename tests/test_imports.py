"""No module of the package or of its tests imports a name it never uses.

A deletion or a moved helper that leaves its imports behind fails here.
The package's ``__init__.py`` re-exports names for callers, so it is exempt.
"""

import ast
from pathlib import Path

import causeweave

PACKAGE = Path(causeweave.__file__).parent
TESTS = Path(__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in ``source``."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def stale_imports(modules) -> dict[str, list[str]]:
    modules = list(modules)
    assert modules
    return {
        p.name: found
        for p in modules
        if (found := unused_imports(p.read_text(encoding="utf-8")))
    }


def test_no_unused_imports_in_package():
    assert stale_imports(sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")) == {}


def test_no_unused_imports_in_tests():
    assert stale_imports(sorted(TESTS.glob("*.py"))) == {}


def test_unused_import_is_reported():
    source = "import os\nimport sys\nfrom math import inf, pi\nprint(sys.argv, pi)\n"
    assert unused_imports(source) == ["os (line 1)", "inf (line 3)"]
