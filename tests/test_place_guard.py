"""The place modules ask the ring object which place it is; none of them
may import the concrete field classes to recover that by isinstance."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "orbitlab"
FIELD_CLASSES = {"PadicField", "PrimeField", "RealField", "RationalField"}


def _imported_names(module, names):
    """The names of `names` that the module imports or reads as attributes."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute) and node.attr in names:
            imported.add(node.attr)
    return sorted(imported & names)


@pytest.mark.parametrize("module", ["etale", "quadforms", "descent",
                                    "orbits", "thetarep", "cli", "linalg",
                                    "poly", "lattices", "census"])
def test_no_field_class_imports(module):
    assert not _imported_names(module, FIELD_CLASSES)


# poly and quadforms construct Padic values, so they may import the class
@pytest.mark.parametrize("module", ["etale", "cli", "census", "descent",
                                    "lattices", "linalg", "orbits",
                                    "thetarep"])
def test_no_padic_element_imports(module):
    assert not _imported_names(module, {"Padic"})


PLACE_READS = {"is_real", "is_padic", "is_dyadic", "is_finite", "is_global"}


def _attribute_reads(module, names):
    """How many times the module reads an attribute named in `names`."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return sum(isinstance(node, ast.Attribute) and node.attr in names
               for node in ast.walk(tree))


def test_etale_square_classes_dispatch_once():
    """EtaleAlgebra.coordinates picks the coordinates class of its place
    kind, and no coordinate method asks the place again."""
    assert _attribute_reads("etale", PLACE_READS) <= 12


def test_quadforms_reads_only_local_places():
    """quadforms refuses the global place in one helper and keeps no
    rational branch of its own."""
    assert _attribute_reads("quadforms", PLACE_READS) <= 9


def test_orbits_place_reads():
    """orbit_from_class sends Q to the section with one place read."""
    assert _attribute_reads("orbits", PLACE_READS) <= 5
