"""Only ``dataset.py`` reads input files.

Every other module goes through ``dataset.read_input`` or
``dataset.read_json``, so how an input file is decoded (a UTF-8 byte-order
mark is skipped) and refused is decided in one place.  Writes are not
reads: ``cli._write`` writes with ``Path.write_text``, which is allowed.
"""

import ast
from pathlib import Path

import causeweave

PACKAGE = Path(causeweave.__file__).parent
READERS = {"open", "read_text"}


def input_reads(source: str) -> list[str]:
    """Calls of ``open``, ``<x>.open``, ``<x>.read_text`` or ``json.load``
    in ``source``, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in READERS:
            found.append((node.lineno, func.id))
        elif isinstance(func, ast.Attribute) and (
            func.attr in READERS
            or func.attr == "load" and isinstance(func.value, ast.Name) and func.value.id == "json"
        ):
            found.append((node.lineno, func.attr))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_only_dataset_reads_input_files():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "dataset.py")
    assert modules
    readers = {
        p.name: found
        for p in modules
        if (found := input_reads(p.read_text(encoding="utf-8")))
    }
    assert readers == {}


def test_input_read_is_reported():
    source = (
        "import json\n"
        "with open(p) as fh:\n"
        "    json.load(fh)\n"
        "Path(p).read_text()\n"
        "Path(p).open()\n"
        "Path(p).write_text(t)\n"
        "json.loads(t)\n"
    )
    assert input_reads(source) == ["open (line 2)", "load (line 3)", "read_text (line 4)",
                                   "open (line 5)"]
