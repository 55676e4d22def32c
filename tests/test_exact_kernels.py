"""The integer kernels of the exact rings against the generic algorithms
they replaced: the subresultant PRS resultant against the Euclidean
scheme, the integer Berkowitz charpoly against Berkowitz in the ring's
own arithmetic, and the norm as a resultant against det(mult_matrix)."""

import io
import random
import weakref
from fractions import Fraction

import pytest

from conftest import count_calls
from orbitlab import etale, orbits, thetarep
from orbitlab.cli import dispatch
from orbitlab.etale import EtaleAlgebra
from orbitlab.linalg import Mat, charpoly, det, sum_prod
from orbitlab.poly import Poly, discriminant, resultant
from orbitlab.rings import GF, QQ, RR, Qp
from orbitlab.thetarep import Invariants

SEED_KERNELS = 0x12E5


def euclid_resultant(f: Poly, g: Poly):
    """Res(f, g) by the Euclidean scheme in the ring's own arithmetic."""
    R = f.ring
    if f.is_zero() or g.is_zero():
        return R.zero
    res = R.one
    a, b = f, g
    while b.degree > 0:
        r = a.mod(b)
        if r.is_zero():
            return R.zero
        da, db, dr = a.degree, b.degree, r.degree
        sign = R.from_int((-1) ** (da * db))
        lead = R.one
        for _ in range(da - dr):
            lead = R.mul(lead, b.lc)
        res = R.mul(res, R.mul(sign, lead))
        a, b = b, r
    out = res
    for _ in range(a.degree):
        out = R.mul(out, b.lc)
    return out


def ring_berkowitz(M: Mat) -> Poly:
    """det(xI - M) by Berkowitz in the ring's add/sub/mul."""
    R = M.ring
    n = M.nrows
    if n == 0:
        return Poly(R, [R.one])
    C = [R.neg(M.rows[0][0]), R.one]
    for k in range(1, n):
        a = M.rows[k][k]
        row = [M.rows[k][j] for j in range(k)]
        colv = [M.rows[i][k] for i in range(k)]
        sub = [[M.rows[i][j] for j in range(k)] for i in range(k)]
        t = [a]
        w = colv
        for _ in range(k):
            t.append(sum_prod(R, row, w))
            w = [sum_prod(R, sub[i], w) for i in range(k)]
        newC = [R.zero] * (k + 2)
        for d in range(k + 1):
            newC[d + 1] = R.add(newC[d + 1], C[d])
        for i, ti in enumerate(t):
            for d in range(k + 1):
                if d + i <= k:
                    newC[d] = R.sub(newC[d], R.mul(ti, C[d + i]))
        C = newC
    return Poly(R, C)


def _rational(rng, span=9, dens=(1, 1, 2, 3, 4, 6, 9)):
    return Fraction(rng.randint(-span, span), rng.choice(dens))


def _poly(ring, rng, degree):
    """A random polynomial of exactly this degree; the leading coefficient
    has either sign."""
    coeffs = [ring.from_fraction(_rational(rng)) for _ in range(degree)]
    lc = ring.zero
    while ring.is_zero(lc):
        lc = ring.from_fraction(_rational(rng))
    return Poly(ring, coeffs + [lc])


def _matrix(ring, rng, n):
    return Mat(ring, [[ring.from_fraction(_rational(rng)) for _ in range(n)]
                      for _ in range(n)])


def _padic_digits(x):
    return (x.v, x.u, x.prec)


class TestResultant:
    @pytest.mark.parametrize("ring", [QQ, RR, GF(5), GF(7)],
                             ids=["QQ", "RR", "GF5", "GF7"])
    def test_against_euclid_on_seeded_pairs(self, ring):
        rng = random.Random(SEED_KERNELS)
        for _ in range(300):
            f = _poly(ring, rng, rng.randint(0, 6))
            g = _poly(ring, rng, rng.randint(0, 6))
            assert ring.eq(resultant(f, g), euclid_resultant(f, g)), (f, g)

    @pytest.mark.parametrize("ring", [QQ, GF(5)], ids=["QQ", "GF5"])
    def test_sparse_pairs_with_degree_gaps(self, ring):
        """Mostly-zero coefficients make remainders drop several degrees
        at once (an abnormal PRS)."""
        rng = random.Random(SEED_KERNELS + 8)
        for _ in range(200):
            f, g = ([ring.from_fraction(_rational(rng))
                     if rng.random() < 0.3 else ring.zero
                     for _ in range(rng.randint(2, 9))] + [ring.one]
                    for _ in range(2))
            f, g = Poly(ring, f), Poly(ring, g)
            assert ring.eq(resultant(f, g), euclid_resultant(f, g)), (f, g)

    def test_denominators_and_negative_leads(self):
        f = Poly(QQ, [Fraction(1, 2), Fraction(-2, 3), Fraction(-5, 7)])
        g = Poly(QQ, [Fraction(3, 4), Fraction(0), Fraction(1, 6),
                      Fraction(-9, 2)])
        for a, b in ((f, g), (g, f), (f, -g), (-f, g)):
            assert resultant(a, b) == euclid_resultant(a, b)
        assert resultant(f, g) == (-1) ** 6 * resultant(g, f)

    @pytest.mark.parametrize("ring", [QQ, GF(7)], ids=["QQ", "GF7"])
    def test_degree_zero(self, ring):
        rng = random.Random(SEED_KERNELS + 1)
        c = Poly.const(ring, ring.from_fraction(Fraction(-3, 2)))
        d = Poly.const(ring, ring.from_fraction(Fraction(5)))
        for k in range(5):
            g = _poly(ring, rng, k)
            want = ring.one
            for _ in range(k):
                want = ring.mul(want, c.lc)
            assert ring.eq(resultant(c, g), want)
            assert ring.eq(resultant(g, c), euclid_resultant(g, c))
        assert ring.eq(resultant(c, d), ring.one)
        assert ring.is_zero(resultant(Poly(ring, []), c))

    @pytest.mark.parametrize("ring", [QQ, GF(5)], ids=["QQ", "GF5"])
    def test_shared_factor_gives_zero(self, ring):
        rng = random.Random(SEED_KERNELS + 2)
        for _ in range(50):
            h = _poly(ring, rng, rng.randint(1, 3))
            f = h * _poly(ring, rng, rng.randint(0, 3))
            g = h * _poly(ring, rng, rng.randint(0, 3))
            assert ring.is_zero(resultant(f, g))

    def test_discriminant_against_euclid(self):
        rng = random.Random(SEED_KERNELS + 3)
        for _ in range(200):
            f = _poly(QQ, rng, rng.randint(1, 6))
            d = f.degree
            want = (Fraction((-1) ** (d * (d - 1) // 2))
                    * euclid_resultant(f, f.derivative()) / f.lc)
            assert discriminant(f) == want

    def test_qp_keeps_the_euclidean_digits(self):
        ring = Qp(5, 12)
        rng = random.Random(SEED_KERNELS + 4)
        for _ in range(40):
            f = _poly(ring, rng, rng.randint(1, 4))
            g = _poly(ring, rng, rng.randint(1, 4))
            r, want = resultant(f, g), euclid_resultant(f, g)
            assert _padic_digits(r) == _padic_digits(want)


class TestCharpoly:
    @pytest.mark.parametrize("ring", [QQ, RR, GF(5), GF(7)],
                             ids=["QQ", "RR", "GF5", "GF7"])
    def test_against_ring_berkowitz(self, ring):
        rng = random.Random(SEED_KERNELS + 5)
        for n in [0, 1, 1, 2, 3, 4, 5, 6] * 6:
            M = _matrix(ring, rng, n)
            assert charpoly(M) == ring_berkowitz(M), M
            want = ring.mul(ring.from_int((-1) ** n),
                            ring_berkowitz(M).coeff(0))
            assert ring.eq(det(M), want)

    def test_empty_and_one_by_one(self):
        assert charpoly(Mat(QQ, [])).coeffs == (Fraction(1),)
        assert det(Mat(QQ, [])) == 1
        M = Mat(QQ, [[Fraction(-7, 3)]])
        assert charpoly(M).coeffs == (Fraction(7, 3), Fraction(1))
        assert det(M) == Fraction(-7, 3)

    def test_denominator_powers(self):
        """chi_M(x) = d^-n chi_dM(dx): different denominators per entry."""
        M = Mat(QQ, [[Fraction(1, 2), Fraction(1, 3), 0],
                     [Fraction(-1, 4), Fraction(5, 6), Fraction(2)],
                     [Fraction(3), Fraction(-1, 9), Fraction(-7, 12)]])
        assert charpoly(M) == ring_berkowitz(M)
        assert charpoly(M.scale(Fraction(-1, 5))) == \
            ring_berkowitz(M.scale(Fraction(-1, 5)))

    def test_qp_digits_unchanged(self):
        ring = Qp(5, 10)
        rng = random.Random(SEED_KERNELS + 6)
        for n in (1, 2, 3, 4, 5):
            M = Mat(ring, [[ring.from_fraction(Fraction(
                rng.randint(-60, 60), rng.choice((1, 5, 25, 3))))
                for _ in range(n)] for _ in range(n)])
            got, want = charpoly(M).coeffs, ring_berkowitz(M).coeffs
            assert ([_padic_digits(c) for c in got]
                    == [_padic_digits(c) for c in want])


class TestNorm:
    @pytest.mark.parametrize("ring", [QQ, RR, GF(5), GF(7)],
                             ids=["QQ", "RR", "GF5", "GF7"])
    def test_resultant_equals_determinant(self, ring):
        rng = random.Random(SEED_KERNELS + 7)
        built = 0
        while built < 12:
            f = _poly(ring, rng, rng.randint(1, 5)).monic()
            if ring.is_zero(discriminant(f)):
                continue
            built += 1
            L = EtaleAlgebra(f)
            for _ in range(8):
                a = _poly(ring, rng, rng.randint(0, 2 * L.n))
                assert ring.eq(L.norm(a), det(L.mult_matrix(a))), (f, a)
            assert ring.is_zero(L.norm(L.f))  # a = 0 mod f


class TestEachConstantOnce:
    """disc(f) is computed once per algebra, and shared with the
    invariants it was built from."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Algebra builds and discriminant calls, with an empty registry."""
        monkeypatch.setattr(orbits, "_ALGEBRAS", weakref.WeakValueDictionary())
        built = count_calls(monkeypatch, EtaleAlgebra, "__init__")
        discs = [count_calls(monkeypatch, module, "discriminant")
                 for module in (etale, thetarep)]
        return built, discs

    def test_irreducible_cubic(self, counted):
        built, discs = counted
        # x^3 + 5x^2 - 3x + 121 is irreducible over Q, N(-gamma) = e^2
        c = Invariants(QQ, (Fraction(5), Fraction(-3)), Fraction(11))
        orbits.distinguished_coincide(c)
        L = orbits.algebra_of(c)
        assert L.comp_algebra(0) is L
        assert len(built) == 1
        assert sum(map(len, discs)) == 1

    def test_orbit_construct(self, counted):
        built, discs = counted
        argv = ["orbit", "construct", "--f", "1,0,-1,1", "--e", "1",
                "--base", "Q"]
        assert dispatch(argv, io.StringIO()) == 0
        assert len(built) == 1
        assert sum(map(len, discs)) == 1
