"""poly.factor runs on its own kernels over Q and GF(p); poly.py may not
reach sympy's factoring. No module of the package imports sympy, which is
the tests' oracle only. numpy is loaded by census alone: importing the CLI,
or descent, or running a verb other than census and heights, loads
neither."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "orbitlab"
POLY = SRC / "poly.py"


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


@pytest.mark.parametrize("module", [
    "census", "cli", "descent", "errors", "etale", "lattices", "linalg",
    "orbits", "poly", "quadforms", "rings", "thetarep"])
def test_module_imports_no_sympy(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    found = [ast.unparse(node) for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             and any(a.name.split(".")[0] == "sympy" for a in node.names)
             or isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[0] == "sympy"]
    assert not found, found


def _fresh_modules(code):
    """Which of sympy and numpy a fresh interpreter holds after code."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\n"
         "print(sorted({'sympy', 'numpy'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    return out.stdout.strip().splitlines()[-1]


def test_descent_loads_no_numpy():
    assert "numpy" not in _fresh_modules("import orbitlab.descent")


def test_cli_import_loads_neither_sympy_nor_numpy():
    assert _fresh_modules("import orbitlab.cli") == "[]"


def test_real_descent_verb_loads_neither_sympy_nor_numpy():
    code = ("import io\nfrom orbitlab.cli import dispatch\n"
            "assert dispatch(['descent', 'local', '--f', '1,0,-1,1', '--e', "
            "'1', '--base', 'Q', '--place', 'R'], io.StringIO()) == 0")
    assert _fresh_modules(code) == "[]"
