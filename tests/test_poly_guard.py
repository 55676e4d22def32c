"""poly.factor runs on its own kernels over Q and GF(p); poly.py may not
reach sympy's factoring (sympy stays the test oracle for it)."""

import ast
from pathlib import Path

POLY = Path(__file__).resolve().parent.parent / "src" / "orbitlab" / "poly.py"


def test_poly_does_not_reach_sympy_factoring():
    tree = ast.parse(POLY.read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "sympy":
            found += [a.name for a in node.names
                      if a.name in ("Poly", "factor_list")]
        elif isinstance(node, ast.Name) and node.id == "factor_list":
            found.append(node.id)
        elif isinstance(node, ast.Attribute):
            if node.attr == "factor_list":
                found.append(node.attr)
            elif (node.attr == "Poly" and isinstance(node.value, ast.Name)
                  and node.value.id == "sympy"):
                found.append("sympy.Poly")
    assert not found, found
