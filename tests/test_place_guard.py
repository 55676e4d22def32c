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


# the most place reads each module of src/orbitlab may make; the reads in
# lattices, thetarep and census check input from outside
PLACE_READ_CAPS = {"etale": 12, "linalg": 6, "poly": 6, "orbits": 5,
                   "quadforms": 4, "descent": 3, "lattices": 3,
                   "thetarep": 3, "rings": 2, "census": 1, "cli": 1,
                   "errors": 0, "__init__": 0}


def test_every_module_has_a_cap():
    assert {path.stem for path in SRC.glob("*.py")} == set(PLACE_READ_CAPS)


@pytest.mark.parametrize("module", sorted(
    set(PLACE_READ_CAPS) - {"etale", "quadforms", "orbits", "descent"}))
def test_place_read_cap(module):
    assert _attribute_reads(module, PLACE_READS) <= PLACE_READ_CAPS[module]


def test_etale_square_classes_dispatch_once():
    """EtaleAlgebra.coordinates picks the coordinates class of its place
    kind, and no coordinate method asks the place again."""
    assert _attribute_reads("etale", PLACE_READS) <= PLACE_READ_CAPS["etale"]


def test_quadforms_reads_only_local_places():
    """quadforms reads the place kind of a form's base once, in _local,
    which refuses Q and picks the invariants and the isotropic search."""
    assert _attribute_reads("quadforms", PLACE_READS) <= \
        PLACE_READ_CAPS["quadforms"]


def test_orbits_place_reads():
    """orbit_from_class sends Q to the section with one place read."""
    assert _attribute_reads("orbits", PLACE_READS) <= PLACE_READ_CAPS["orbits"]


def test_local_image_picks_its_strategy_once():
    """local_image chooses all classes, real sampling, p-adic sampling or
    the unramified subgroup in one ladder; _good_reduction reads no place."""
    assert _attribute_reads("descent", PLACE_READS) <= \
        PLACE_READ_CAPS["descent"]
