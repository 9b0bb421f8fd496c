"""Source-level guards: verification code must not rely on assert, and the
benchmark tracer's targets must exist in the package."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_no_assert_in_package():
    """assert disappears under python -O; checks raise CheckFailed instead."""
    found = []
    for path in sorted((ROOT / "src" / "specrep").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_tracer_targets_resolve():
    """perfbench/run.py --trace 1 wraps these names; a rename must not
    break it silently."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{mod}.{fn}" for mod, fn, _ in tracer.targets()
               if not callable(getattr(importlib.import_module(f"specrep.{mod}"), fn, None))]
    assert missing == []
