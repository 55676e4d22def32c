import random
from fractions import Fraction

import pytest

from orbitlab.poly import discriminant
from orbitlab.rings import GF, QQ, Qp
from orbitlab.thetarep import Invariants

SEED = 0xA5EED


def is_rs(c: Invariants) -> bool:
    ring = c.ring
    return (not ring.is_zero(c.e)
            and not ring.is_zero(discriminant(c.fpoly())))


def random_rs_invariants(ring, rng, n=3, span=9):
    """A random regular semisimple invariant tuple over the given ring."""
    while True:
        if hasattr(ring, "p") and not hasattr(ring, "prec"):  # prime field
            a = tuple(ring.from_int(rng.randrange(ring.p))
                      for _ in range(n - 1))
            e = ring.from_int(rng.randrange(1, ring.p))
        else:
            a = tuple(ring.from_fraction(Fraction(rng.randint(-span, span)))
                      for _ in range(n - 1))
            e = ring.from_fraction(Fraction(rng.randint(1, span)))
        c = Invariants(ring, a, e)
        if is_rs(c):
            return c


def section_witness(ring, n):
    """span(e_1..e_m) of V_i, m = n // 2, as distinguished_witness
    candidates: the maximal isotropic subspace a Kostant section point
    carries on its own side."""
    return [[[ring.one if r == q else ring.zero for r in range(n)]
             for q in range(n // 2)]]


def abs_digits(x):
    """The absolute precision of a p-adic value, None when exact."""
    if x.is_exact_zero():
        return None
    return x.v if x.is_zero() else x.v + x.prec


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name (a module function or a method) for the rest of the
    test; the returned list gets the positional arguments of every call."""
    calls, original = [], getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.fixture
def rng():
    return random.Random(SEED)


@pytest.fixture(scope="session")
def f5():
    return GF(5)


@pytest.fixture(scope="session")
def q7():
    return Qp(7, 20)


@pytest.fixture(scope="session")
def base_c_f5(f5):
    # f = x^3 + 4x^2 + x + 4 over F_5: split with three rational roots
    return Invariants(f5, (f5.from_int(4), f5.from_int(1)), f5.from_int(2))


@pytest.fixture(scope="session")
def base_c_q():
    # f = x^3 - x + 1 over Q: irreducible, disc -23
    return Invariants(QQ, (Fraction(0), Fraction(-1)), Fraction(1))
