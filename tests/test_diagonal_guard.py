"""diagonalize computes a form's diagonalization and GramForm.diagonal
keeps it on the form; the rest of the package reads that pair, so no
other code may call or import diagonalize."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "orbitlab"


class _DiagonalizeUses(ast.NodeVisitor):
    """(module, enclosing scope) of every call or import of diagonalize."""

    def __init__(self, module):
        self.module, self.scope, self.found = module, [], []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_ImportFrom(self, node):
        if any(alias.name == "diagonalize" for alias in node.names):
            self.found.append((self.module, "import"))

    def visit_Call(self, node):
        fn = node.func
        if getattr(fn, "id", getattr(fn, "attr", None)) == "diagonalize":
            self.found.append((self.module, ".".join(self.scope)))
        self.generic_visit(node)


def test_only_gram_form_diagonal_calls_diagonalize():
    found = []
    for path in sorted(SRC.glob("*.py")):
        uses = _DiagonalizeUses(path.stem)
        uses.visit(ast.parse(path.read_text()))
        found += uses.found
    assert found == [("quadforms", "GramForm.diagonal")]
