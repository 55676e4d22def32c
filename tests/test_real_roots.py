"""Real roots over Q as Sturm intervals (poly.real_roots_exact,
poly.sign_at_root) against the sympy root objects they replaced.

The oracle below is the real-root path the package used before: sympy's
real_roots, and signs read on rational boxes around each root that are
widened through evalf or RootOf refinement. It is kept here only as a
reference.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from orbitlab import descent
from orbitlab.errors import PrecisionError, PreconditionError
from orbitlab.etale import (EtaleAlgebra, norm_one_classes, real_roots_exact,
                            sign_at_root, square_class)
from orbitlab.orbits import stabilizer_info
from orbitlab.poly import Poly, discriminant
from orbitlab.rings import QQ, RR
from orbitlab.thetarep import Invariants

_x = sympy.Symbol("x")


# ---------------------------------------------------------------------------
# the replaced path, as the oracle


def _to_sympy(f: Poly):
    return sum(sympy.Rational(c) * _x ** i for i, c in enumerate(f.coeffs))


def _oracle_roots(f: Poly):
    """Sorted exact real roots (sympy root objects) of a separable f."""
    return sympy.real_roots(_to_sympy(f), _x)


def _rational_approx(root, dx):
    if root.is_Rational:
        return sympy.Rational(root)
    if isinstance(root, sympy.RootOf):
        return root.eval_rational(dx=dx)
    digits = max(20, len(str(sympy.Integer(sympy.ceiling(1 / dx)))) + 5)
    return sympy.Rational(str(root.evalf(digits)))


def _oracle_sign(g: Poly, root) -> int:
    """Sign of g at a sympy root: g's sign at the bottom of a rational box
    around the root that holds no root of g."""
    gs = sympy.Poly(_to_sympy(g), _x)
    if gs.degree() <= 0:
        val = Fraction(str(gs.as_expr())) if gs.degree() == 0 else Fraction(0)
        if val == 0:
            raise PreconditionError("sign of zero")
        return 1 if val > 0 else -1
    if root.is_Rational:
        val = Fraction(str(gs.eval(root)))
        if val == 0:
            raise PreconditionError("sign of zero")
        return 1 if val > 0 else -1
    for bits in (16, 32, 64, 128, 256, 512, 1024, 2048):
        dx = sympy.Rational(1, 2 ** bits)
        approx = _rational_approx(root, dx)
        a, b = approx - dx, approx + dx
        if gs.count_roots(a, b) > 0:
            continue
        va = gs.eval(a)
        if va != 0:
            return 1 if va > 0 else -1
    raise PrecisionError("could not separate sign at real root")


def _inside(root, iv) -> bool:
    """Whether the sympy root lies in (iv.lo, iv.hi], by the oracle's signs
    of x - lo and x - hi."""
    if root.is_Rational:
        return iv.lo < Fraction(str(root)) <= iv.hi
    return (_oracle_sign(_from_roots(iv.lo), root) == 1
            and _oracle_sign(_from_roots(iv.hi), root) == -1)


# ---------------------------------------------------------------------------
# inputs


def _seeded_squarefree(degree, count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(degree)]
        f = Poly(QQ, coeffs + [Fraction(rng.choice([1, 1, 2, -3]))])
        if discriminant(f) != 0:
            out.append(f)
    return out


def _from_roots(*roots):
    f = Poly.const(QQ, Fraction(1))
    for r in roots:
        f = f * Poly(QQ, [-Fraction(r), Fraction(1)])
    return f


_DYADIC = [
    _from_roots(0, 1, Fraction(-1, 2)),
    _from_roots(Fraction(1, 4), Fraction(-3, 8), 2, -16),
    _from_roots(Fraction(1, 2), Fraction(1, 2) + Fraction(1, 1024), -1),
]
_CLOSE = [
    _from_roots(Fraction(1, 1000), Fraction(-1, 1000), 2),
    _from_roots(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10 ** 6)),
    Poly.from_ints(QQ, [-2, 0, 0, 1]) * _from_roots(Fraction(5, 4)),
]
_CASES = (_seeded_squarefree(3, 6, 31) + _seeded_squarefree(5, 4, 53)
          + _seeded_squarefree(7, 3, 77) + _DYADIC + _CLOSE)


@pytest.mark.parametrize("f", _CASES, ids=repr)
def test_intervals_and_signs_match_sympy_roots(f):
    """Same number of roots, in order, each inside its interval; the
    intervals ascend and are disjoint; g's sign agrees for seeded g and
    for the factors of f, and a zero is a PreconditionError on both."""
    new, old = real_roots_exact(f), _oracle_roots(f)
    assert len(new) == len(old)
    assert all(iv.lo < iv.hi for iv in new)
    assert all(a.hi < b.lo for a, b in zip(new, new[1:]))
    assert all(_inside(r, iv) for r, iv in zip(old, new))
    rng = random.Random(repr(f))
    gs = [Poly(QQ, [Fraction(rng.randint(-5, 5))
                    for _ in range(rng.randint(1, f.degree))])
          for _ in range(3)]
    gs += [_from_roots(Fraction(str(r))) for r in old if r.is_Rational]
    for g in gs:
        for iv, r in zip(new, old):
            try:
                expected = _oracle_sign(g, r)
            except (PreconditionError, PrecisionError):
                with pytest.raises(PreconditionError, match="sign of zero"):
                    sign_at_root(g, iv)
                continue
            assert sign_at_root(g, iv) == expected


def test_sign_of_zero_is_a_precondition():
    """x^2 - 3 vanishes at the roots +-sqrt(3) of (x^2 - 3)(x - 2): that is
    a precondition failure at once, not a precision failure to retry."""
    f = Poly.from_ints(QQ, [6, -3, -2, 1])
    g = Poly.from_ints(QQ, [-3, 0, 1])
    roots = real_roots_exact(f)
    assert len(roots) == 3
    for root in roots[:2]:
        with pytest.raises(PreconditionError, match="sign of zero"):
            sign_at_root(g, root)
    assert sign_at_root(g, roots[2]) == 1


def test_repeated_roots_count_once():
    """(x - 1)^2 (x + 1) has two distinct real roots; as f is not
    separable, its stabilizer is refused over R as over Q."""
    f = _from_roots(1, 1, -1)
    roots = real_roots_exact(f)
    assert len(roots) == 2
    assert all(iv.lo < r <= iv.hi for iv, r in zip(roots, (-1, 1)))
    c = Invariants(QQ, (Fraction(-1), Fraction(-1)), Fraction(1))
    assert c.fpoly() == f
    for base in (RR, None):
        with pytest.raises(PreconditionError, match="separable"):
            stabilizer_info(c, base)


_FRESH_SAMPLES = """
from orbitlab import descent
from orbitlab.poly import Poly, real_roots_exact
from orbitlab.rings import QQ
h = Poly.from_ints(QQ, [1, -4, 0, 1])
print(descent._real_components(h, real_roots_exact(h)))
"""


def test_real_samples_ignore_earlier_sign_computations():
    """The real sample points of x^3 - 4x + 1 in a fresh process come back
    after square classes of that f were computed over R, from the roots the
    algebra over R holds (descent.local_image samples curve 1 around them)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    fresh = subprocess.run([sys.executable, "-c", _FRESH_SAMPLES], env=env,
                           capture_output=True, text=True, check=True).stdout
    L = EtaleAlgebra(Poly.from_ints(RR, [1, -4, 0, 1]))
    for a in [L.gamma(), L.gamma() + L.one()] + [
            c.rep for c in norm_one_classes(L)]:
        square_class(L, a)
    h = Poly.from_ints(QQ, [1, -4, 0, 1])
    again = descent._real_components(h, L.real_roots)
    assert str(again) == fresh.strip()
