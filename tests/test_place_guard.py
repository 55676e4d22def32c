"""The place modules ask the ring object which place it is; none of them
may import the concrete field classes to recover that by isinstance."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "orbitlab"
FIELD_CLASSES = {"PadicField", "PrimeField", "RealField", "RationalField"}


@pytest.mark.parametrize("module", ["etale", "quadforms", "descent",
                                    "orbits", "thetarep", "cli", "linalg",
                                    "poly", "lattices", "census"])
def test_no_field_class_imports(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute) and node.attr in FIELD_CLASSES:
            imported.add(node.attr)
    assert not imported & FIELD_CLASSES, sorted(imported & FIELD_CLASSES)
