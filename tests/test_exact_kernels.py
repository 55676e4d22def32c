"""The integer kernels of the exact rings against the generic algorithms
they replaced: each ring's dot against the add-and-multiply loop, Mat
products over Q and GF(p) polynomial products and division against the
loops in ring arithmetic, the subresultant PRS resultant against the
Euclidean scheme, the integer Berkowitz charpoly against Berkowitz in the
ring's own arithmetic, and the norm as a resultant against
det(mult_matrix)."""

import io
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls
from orbitlab import etale, orbits, thetarep
from orbitlab.cli import dispatch
from orbitlab.errors import PreconditionError
from orbitlab.etale import EtaleAlgebra
from orbitlab.linalg import Mat, charpoly, det
from orbitlab.poly import Poly, discriminant, resultant
from orbitlab.rings import GF, QQ, RR, Padic, Qp
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


def sum_prod(R, xs, ys):
    """sum x_i y_i, one ring add and mul per term (the loop every ring's
    dot kernel replaced)."""
    acc = R.zero
    for a, b in zip(xs, ys):
        acc = R.add(acc, R.mul(a, b))
    return acc


def ring_poly_mul(f: Poly, g: Poly) -> Poly:
    """f * g by the schoolbook loop in ring arithmetic."""
    R = f.ring
    out = [R.zero] * max(len(f.coeffs) + len(g.coeffs) - 1, 0)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = R.add(out[i + j], R.mul(a, b))
    return Poly(R, out)


def ring_divmod(f: Poly, g: Poly):
    """(q, r) by long division in ring arithmetic."""
    R = f.ring
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q = [R.zero] * max(f.degree - g.degree + 1, 0)
    r = list(f.coeffs)
    inv_lc = R.inv(g.lc)
    while r and len(r) - 1 >= g.degree:
        if R.is_zero(r[-1]):
            r.pop()
            continue
        k = len(r) - 1 - g.degree
        c = q[k] = R.mul(r[-1], inv_lc)
        for i, b in enumerate(g.coeffs):
            r[k + i] = R.sub(r[k + i], R.mul(c, b))
    return Poly(R, q), Poly(R, r)


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


def _outcome(f, *args):
    """f(*args) as p-adic digits, a rational or a residue, or the type of
    the exception it raised."""
    try:
        x = f(*args)
    except Exception as exc:  # the type is what gets compared
        return type(exc)
    if isinstance(x, Padic):
        return (x.p,) + _padic_digits(x)
    return type(x), x


def _random_padic(rng, p):
    """An exact zero, an O(p^k), or p^v * u + O(p^(v+N)) with v of either
    sign and N from 1 to 6."""
    kind = rng.random()
    if kind < 0.1:
        return Padic.zero(p)
    if kind < 0.25:
        return Padic.zero(p, rng.randint(-3, 5))
    prec = rng.randint(1, 6)
    u = rng.randrange(1, p ** prec)
    while u % p == 0:
        u = rng.randrange(1, p ** prec)
    return Padic(p, rng.randint(-3, 4), u, prec)


class TestDot:
    """Every ring's dot against the add-and-multiply loop."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_padic_digits_and_exceptions(self, p):
        K, rng = Qp(p, 6), random.Random(SEED_KERNELS + 10 + p)
        for _ in range(17_000):
            xs = [_random_padic(rng, p) for _ in range(rng.randint(0, 5))]
            ys = [_random_padic(rng, p) for _ in xs]
            if xs and rng.random() < 0.2:  # the sum cancels, or nearly
                ys += [-y for y in ys]
                xs += [x if rng.random() < 0.7 else _random_padic(rng, p)
                       for x in xs]
            want = _outcome(sum_prod, K, xs, ys)
            assert _outcome(K.dot, xs, ys) == want, (xs, ys)

    def test_padic_full_cancellation(self):
        K = Qp(5, 6)
        x, y = Padic(5, -2, 7, 3), Padic(5, 1, 11, 6)
        for xs, ys in (([x, x], [y, -y]), ([x, -x, x, x], [y, y, -y, y])):
            got = K.dot(xs, ys)
            assert got.is_zero() and not got.is_exact_zero()
            assert _padic_digits(got) == _padic_digits(sum_prod(K, xs, ys))
        assert K.dot([x, K.zero], [K.zero, y]).is_exact_zero()
        assert K.dot([], []).is_exact_zero()

    @pytest.mark.parametrize("ring", [QQ, RR, GF(2), GF(5), GF(7)],
                             ids=["QQ", "RR", "GF2", "GF5", "GF7"])
    def test_exact_rings(self, ring):
        rng = random.Random(SEED_KERNELS + 9)
        for _ in range(2_000):
            k = rng.randint(0, 6)
            xs, ys = ([ring.from_fraction(_rational(rng)) if ring.char == 0
                       else ring.from_int(rng.randint(-9, 9))
                       for _ in range(k)] for _ in range(2))
            if ring.char == 0 and xs:  # ints are rationals too
                xs[0] = rng.randint(-9, 9)
            if xs and rng.random() < 0.2:
                ys = ys + [ring.neg(y) for y in ys]
                xs = xs + xs
            assert _outcome(ring.dot, xs, ys) == _outcome(sum_prod, ring,
                                                          xs, ys)

    @pytest.mark.parametrize("ring", [QQ, RR, GF(5), Qp(5, 6)],
                             ids=["QQ", "RR", "GF5", "Qp5"])
    def test_dimension_mismatch(self, ring):
        one = ring.one
        with pytest.raises(PreconditionError, match="dimension mismatch"):
            ring.dot([one, one, one], [one, one])
        with pytest.raises(PreconditionError, match="dimension mismatch"):
            ring.dot([], [one])
        M = Mat.from_ints(ring, [[1, 2], [3, 4]])
        with pytest.raises(PreconditionError, match="dimension mismatch"):
            M.apply([one])
        with pytest.raises(PreconditionError, match="dimension mismatch"):
            M.apply([one, one, one])
        with pytest.raises(PreconditionError, match="dimension mismatch"):
            Mat(ring, []).apply([one, one, one])  # rowless is 0 x 0
        for other in (Mat.from_ints(ring, [[1]]), Mat(ring, []),
                      Mat.from_ints(ring, [[1, 2]])):
            for a, b in ((M, other), (other, M)):
                with pytest.raises(PreconditionError,
                                   match="dimension mismatch"):
                    a + b
                with pytest.raises(PreconditionError,
                                   match="dimension mismatch"):
                    a - b


class TestMatProduct:
    @pytest.mark.parametrize("ring", [QQ, RR], ids=["QQ", "RR"])
    def test_against_entry_loop(self, ring):
        rng = random.Random(SEED_KERNELS + 11)
        for _ in range(300):
            m, k, n = (rng.randint(1, 5) for _ in range(3))
            A = Mat(ring, [[_rational(rng) for _ in range(k)]
                           for _ in range(m)])
            B = Mat(ring, [[_rational(rng) for _ in range(n)]
                           for _ in range(k)])
            want = [[sum_prod(ring, r, B.col(j)) for j in range(n)]
                    for r in A.rows]
            got = A * B
            assert got.ring is ring
            assert [list(r) for r in got.rows] == want
            assert all(type(x) is Fraction for r in got.rows for x in r)

    def test_integer_entries_and_mismatch(self):
        A = Mat(QQ, [[1, Fraction(1, 2)], [Fraction(-2, 3), 0]])
        assert (A * A).rows == ((Fraction(2, 3), Fraction(1, 2)),
                                (Fraction(-2, 3), Fraction(-1, 3)))
        with pytest.raises(PreconditionError):
            A * Mat(QQ, [[1, 2]])


class TestGFPoly:
    """GF(p) products and division on the integer kernels."""

    @pytest.mark.parametrize("p", [2, 5, 7])
    def test_against_ring_loops(self, p):
        ring, rng = GF(p), random.Random(SEED_KERNELS + 12 + p)
        for _ in range(400):
            f, g = (Poly(ring, [rng.randrange(p)
                                for _ in range(rng.randint(0, top))])
                    for top in (8, 5))
            assert f * g == ring_poly_mul(f, g)
            assert g * f == ring_poly_mul(g, f)
            if g.is_zero():
                with pytest.raises(ZeroDivisionError):
                    f.divmod(g)
                continue
            q, r = f.divmod(g)
            wq, wr = ring_divmod(f, g)
            assert (q.coeffs, r.coeffs) == (wq.coeffs, wr.coeffs), (f, g)
            assert q * g + r == f and r.degree < g.degree

    def test_edge_cases(self):
        F = GF(7)
        g = Poly(F, [3, 0, 5])  # not monic
        f = Poly(F, [1, 2, 3, 4, 5])
        q, r = f.divmod(g)
        assert (q, r) == ring_divmod(f, g) and q * g + r == f
        small = Poly(F, [6, 1])  # divisor of higher degree than dividend
        assert small.divmod(g) == (Poly(F, []), small)
        zero = Poly(F, [])
        assert zero.divmod(g) == (zero, zero)
        assert (zero * g).is_zero() and (g * zero).is_zero()
        with pytest.raises(ZeroDivisionError):
            f.divmod(zero)


def _unit_invariant(x: Padic) -> bool:
    """u == 0, or u a unit reduced mod p^prec with prec >= 1."""
    return x.u == 0 or (x.prec >= 1 and 0 < x.u < x.p ** x.prec
                        and x.u % x.p != 0)


@st.composite
def _padics(draw, p):
    kind = draw(st.sampled_from(["exact", "fuzzy", "unit"]))
    if kind == "exact":
        return Padic.zero(p)
    if kind == "fuzzy":
        return Padic.zero(p, draw(st.integers(-4, 6)))
    prec = draw(st.integers(1, 6))
    u = draw(st.integers(1, p ** prec - 1).filter(lambda u: u % p))
    return Padic(p, draw(st.integers(-4, 6)), u, prec)


class TestPadicUnitInvariant:
    """Padic._unit trusts its caller; every arithmetic result must still
    be a zero or a reduced unit with at least one digit."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([2, 3, 5]).flatmap(
        lambda p: st.lists(_padics(p), min_size=2, max_size=8)))
    def test_results_keep_the_invariant(self, xs):
        K, half = Qp(xs[0].p, 6), len(xs) // 2
        a, b = xs[0], xs[1]
        dot = K.dot(xs[:half], xs[half:2 * half])
        for x in (a + b, a - b, a * b, -a, dot):
            assert _unit_invariant(x), x


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
