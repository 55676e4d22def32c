"""orbench/tracer.py wraps orbitlab functions by name, so every name it
lists must still resolve in orbitlab, or the traced benchmark run breaks.
The list is read with ast: orbench itself is not imported."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "orbench" / "tracer.py"


def _traced():
    """The literal TRACED list of orbench/tracer.py."""
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["TRACED"]):
            return ast.literal_eval(node.value)
    raise AssertionError("orbench/tracer.py has no TRACED list")


def test_traced_names_resolve():
    traced = _traced()
    assert len(traced) == 42
    missing = []
    for module, name in traced:
        obj = importlib.import_module(f"orbitlab.{module}")
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{name}")
    assert not missing
