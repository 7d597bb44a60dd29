"""The benchmark's tracer patches package functions by name; every name it
lists must still resolve, or a per-layer metric silently reads zero."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves_to_a_callable():
    points = load_tracer().patch_points()
    assert points
    missing = []
    for module, path in points:
        assert module.startswith("causeweave.")
        owner = importlib.import_module(module)
        for name in path.split("."):
            owner = getattr(owner, name, None)
        if not callable(owner):
            missing.append(f"{module}:{path}")
    assert missing == []
