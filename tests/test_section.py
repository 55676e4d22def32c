"""The Kostant section against the isotropic search it replaces for the
classes 1 and -gamma at F_p and Q_p: the search stays as the oracle there.
Both must give the same recovered class; the section's point has exactly
c's invariants and carries its own distinguished witness, span(e_1..e_m)
of V_i. Over Q the section is the only construction."""

import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (SEED, count_calls, random_rs_invariants,
                      section_witness)
from orbitlab import orbits
from orbitlab.cli import dispatch
from orbitlab.errors import PrecisionError, PreconditionError, UsageError
from orbitlab.etale import norm_one_classes, square_class
from orbitlab.linalg import det, inverse
from orbitlab.orbits import (_orbit_by_search, algebra_of,
                             distinguished_coincide, neg_gamma,
                             orbit_from_class, recompute_class, section_point)
from orbitlab.quadforms import GramForm, split_isometry, standard_split_gram
from orbitlab.rings import GF, QQ, Qp
from orbitlab.thetarep import (Invariants, distinguished_witness,
                               invariants_of, star)


def _search_witness(c, nu, i):
    """Maximal isotropic candidates transported from the algebra side by
    the search's own frame: the span of gamma^k / f'(gamma) (times
    gamma^(-1) on side 2) is isotropic for the trace form."""
    ring, n, L = c.ring, c.n, algebra_of(c)
    g1, g2, _ = orbits.delta_map(c, nu)
    B = standard_split_gram(ring, n).gram
    P = (split_isometry(g1, GramForm(B)) if i == 1
         else split_isometry(g2, GramForm(-B)))
    el = L.inv(L.reduce(c.fpoly().derivative()))
    if i == 2:
        el = L.mul(el, L.inv(L.gamma()))
    ys = []
    for _ in range(n // 2):
        ys.append(list(el.coeffs) + [ring.zero] * (n - len(el.coeffs)))
        el = L.mul(el, L.gamma())
    return [[M.apply(y) for y in ys] for M in (P, inverse(P))]


def _exact(rep, c):
    ring, got = c.ring, invariants_of(rep)
    return all(ring.eq(x, y) for x, y in zip(got.a + (got.e,), c.a + (c.e,)))


def _same_class(L, rep, nu):
    """recompute_class(rep) is the class of nu: equal labels at a local
    base, a square quotient over Q."""
    got = recompute_class(rep)
    if L.ring.is_global:
        return square_class(L, L.mul(got.rep, nu)).is_trivial()
    return got.labels == square_class(L, nu).labels


def test_section_constants():
    """The slopes of the cubic section on side 1 (a_1 = 10/3 x_2, a_2 =
    -2 x_1 + ..., e = -x_0) and the primes it excludes, per n."""
    sides, primes = orbits._kostant(3)
    assert sides[0].steps == ((2, Fraction(10, 3)), (1, Fraction(-2)),
                              (0, Fraction(-1)))
    assert primes == {2, 3, 5}
    assert orbits._kostant(5)[1] == {2, 3, 5, 7, 11, 13}


_DIFFERENTIAL = [(QQ, 3), (Qp(7, 20), 3), (Qp(11, 20), 3), (GF(7), 3),
                 (GF(11), 3), (GF(13), 3), (Qp(17, 20), 5), (GF(17), 5)]


@pytest.mark.parametrize("ring, n", _DIFFERENTIAL,
                         ids=[f"{r.tag}-{n}" for r, n in _DIFFERENTIAL])
def test_section_matches_the_search(ring, n):
    rng = random.Random(SEED + 70)
    done = 0
    while done < 8:
        c = random_rs_invariants(ring, rng, n=n, span=9)
        L = algebra_of(c)
        try:
            for i, nu in ((1, L.one()), (2, neg_gamma(L))):
                point = section_point(c, i)
                assert _exact(point, c)
                assert _same_class(L, point, nu)
                assert distinguished_witness(
                    point, i, candidates=section_witness(ring, n))
                if ring.is_global:  # no search over Q to compare with
                    continue
                found = _orbit_by_search(c, nu)
                assert _same_class(L, found, nu)
                if n == 3:  # the search's witness, as criterion 4 had it
                    witness = (None if ring.is_finite
                               else _search_witness(c, nu, i))
                    assert distinguished_witness(found, i, witness)
        except PrecisionError:
            continue  # p-adic draw whose f is inseparable mod p
        done += 1


def _quintics(count):
    rng = random.Random(SEED + 72)
    while count:
        c = random_rs_invariants(QQ, rng, n=5, span=9)
        yield ",".join(["1", *(str(a) for a in c.a), str(c.e * c.e)]), c.e
        count -= 1


def test_quintic_panel_over_q():
    """40 seeded quintics at --base Q: both classes answer, in a median
    time under 1 s, with exactly the requested invariants (the search
    failed or ran past 4 s on most of them). The median, not each call,
    is timed, so one call slowed by a loaded host does not fail it."""
    times = []
    for f, e in _quintics(40):
        for cls in ([], ["--class=-gamma"]):
            out = io.StringIO()
            start = time.perf_counter()
            code = dispatch(["orbit", "construct", "--f", f, "--e", str(e),
                             *cls, "--base", "Q"], out)
            times.append(time.perf_counter() - start)
            assert code == 0
            inv = json.loads(out.getvalue())["invariants"]
            assert inv["a"] == f.split(",")[1:5] and inv["e"] == str(e)
    assert statistics.median(times) < 1.0


@pytest.mark.parametrize("base, searched", [
    ("Q", False), ("Qp:7", False), ("F:7", False), ("Qp:11", False),
    ("F:5", True), ("Qp:3", True), ("Qp:5", True)])
def test_section_bases(monkeypatch, base, searched):
    """Cubics take the section for 1 and -gamma at Q and p not in {2, 3, 5};
    elsewhere, and for every other class, the search."""
    calls = count_calls(monkeypatch, orbits, "split_isometry")
    for cls in ([], ["--class=-gamma"]):
        argv = ["orbit", "construct", "--f", "1,4,1,4", "--e", "2", *cls,
                "--base", base]
        assert dispatch(argv, io.StringIO()) == 0
    assert bool(calls) == searched


def test_other_classes_and_quintics_at_7_take_the_search(monkeypatch):
    calls = count_calls(monkeypatch, orbits, "split_isometry")
    argv = ["orbit", "construct", "--f", "1,0,-1,1", "--e", "1",
            "--class", "((0, 1), (0, 1))", "--base", "Qp:7"]
    assert dispatch(argv, io.StringIO()) == 0
    assert len(calls) == 2
    argv = ["orbit", "construct", "--f", "1,0,-3,0,2,1", "--e", "1",
            "--base", "F:7"]
    assert dispatch(argv, io.StringIO()) == 0
    assert len(calls) == 4


def test_rational_classes_by_the_square_test():
    """Over Q, nu = 4 and 4 * (-gamma) take the section by the global
    square test: the section's point, exact invariants, and the class of
    nu read back."""
    rng = random.Random(SEED + 74)
    for n in (3, 3, 5):
        c = random_rs_invariants(QQ, rng, n=n, span=9)
        L = algebra_of(c)
        four = L.scalar(QQ.from_int(4))
        # when -gamma is a square, both classes take side 1
        sides = (1, 1) if distinguished_coincide(c) else (1, 2)
        for i, nu in zip(sides, (four, L.mul(four, neg_gamma(L)))):
            rep = orbit_from_class(c, nu)
            assert rep.A == section_point(c, i).A
            assert _exact(rep, c) and _same_class(L, rep, nu)


def test_rational_other_classes_refused(monkeypatch):
    """Over Q a class other than 1 and -gamma is refused before any trace
    form is built: there is no isotropic search over Q."""
    calls = count_calls(monkeypatch, orbits, "trace_gram")
    c = Invariants(QQ, (Fraction(0), Fraction(-1)), Fraction(1))
    L = algebra_of(c)
    for nu in (L.scalar(QQ.from_int(2)), L.gamma(),
               L.mul(L.gamma(), L.scalar(QQ.from_int(3)))):
        with pytest.raises(UsageError, match="1 and -gamma"):
            orbit_from_class(c, nu)
    assert not calls


def test_section_certifies_its_invariants(monkeypatch):
    """A wrong slope gives a point off the fiber, which is refused."""
    real = orbits._kostant_at

    def skewed(ring, prec, n):
        sides = real(ring, prec, n)
        s = sides[0]
        (j, slope), *rest = s.steps
        bad = s._replace(steps=((j, ring.mul(slope, ring.from_int(2))),
                                *rest))
        return [bad, sides[1]]

    monkeypatch.setattr(orbits, "_kostant_at", skewed)
    c = Invariants(QQ, (Fraction(1), Fraction(-1)), Fraction(1))
    with pytest.raises(PreconditionError, match="misses the invariants"):
        orbit_from_class(c, algebra_of(c).one())
    assert _exact(orbit_from_class(c, neg_gamma(algebra_of(c))), c)


@pytest.mark.parametrize("ring", [GF(5), GF(7), Qp(5, 20)],
                         ids=lambda r: r.tag)
def test_search_answers_in_c_own_fiber(ring):
    """Where the search stays, an answer whose e reads -e(c) is negated:
    n is odd, so det(-A) = -det(A), while A*A and the class stay."""
    rng = random.Random(SEED + 73)
    negated = 0
    for _ in range(12):
        c = random_rs_invariants(ring, rng, span=9)
        L = algebra_of(c)
        try:
            classes = norm_one_classes(L)
        except PrecisionError:
            continue
        for cls in classes:
            try:
                found = _orbit_by_search(c, cls.rep)
            except PreconditionError:
                continue  # a class with no rational orbit over Q_p
            neg = found.negated()
            assert ring.eq(det(neg.A), ring.neg(det(found.A)))
            assert neg.AstarA == found.AstarA
            assert star(neg.A) == -found.Astar
            assert ring.eq(invariants_of(neg).e, neg.invariants.e)
            assert recompute_class(neg).labels == recompute_class(
                found).labels == cls.labels
            rep = orbit_from_class(c, cls.rep)
            assert _exact(rep, c)
            assert recompute_class(rep).labels == cls.labels
            negated += not ring.eq(invariants_of(found).e, c.e)
    assert negated >= 5


_IMPORT_ONLY = """
from orbitlab import thetarep
calls = []
real = thetarep.regular_nilpotents
thetarep.regular_nilpotents = lambda *a, **k: calls.append(a) or real(*a, **k)
import orbitlab.cli
from orbitlab import orbits
print(len(calls), orbits._kostant.cache_info().currsize,
      orbits._kostant_at.cache_info().currsize)
"""


def test_import_builds_no_section_data():
    """Importing the CLI and orbits computes no regular nilpotent and no
    section: the section data is built on the first construction."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _IMPORT_ONLY], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0", "0", "0"]
