"""No module of the package or of its tests imports a name it never uses,
and no package module imports another package module's private name.

A deletion or a moved helper that leaves its imports behind fails here.
The package's ``__init__.py`` re-exports names for callers, so it is exempt
from the first check.  Tests may import private names on purpose, so the
second check reads the package only.
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


def private_imports(source: str) -> list[str]:
    """``_``-prefixed names ``source`` imports from a package module."""
    return [
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "causeweave")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_private_names_imported_across_package_modules():
    found = {
        p.name: names
        for p in sorted(PACKAGE.glob("*.py"))
        if (names := private_imports(p.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_private_import_is_reported():
    source = (
        "from .maximize import _better, best_record\n"
        "from causeweave.experiments import _map_reps\n"
        "from os import _exit\n"
        "from __future__ import annotations\n"
    )
    assert private_imports(source) == ["_better (line 1)", "_map_reps (line 2)"]


def test_unused_import_is_reported():
    source = "import os\nimport sys\nfrom math import inf, pi\nprint(sys.argv, pi)\n"
    assert unused_imports(source) == ["os (line 1)", "inf (line 3)"]
