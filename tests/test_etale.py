import random
from fractions import Fraction

import pytest

from conftest import abs_digits
from orbitlab.errors import PreconditionError
from orbitlab.etale import (EtaleAlgebra, norm_one_classes, real_roots_exact,
                            square_class)
from orbitlab.poly import Poly
from orbitlab.rings import GF, QQ, RR, Qp


def _poly(ring, desc):
    return Poly.from_ints(ring, list(reversed(desc)))


def _alg(ring, desc):
    return EtaleAlgebra(_poly(ring, desc))


def _random_el(L, rng):
    ring = L.ring
    n = L.f.degree
    while True:
        if hasattr(ring, "p") and not hasattr(ring, "prec"):
            el = Poly(ring, [ring.from_int(rng.randrange(ring.p))
                             for _ in range(n)])
        else:
            el = Poly(ring, [ring.from_fraction(Fraction(rng.randint(-5, 5)))
                             for _ in range(n)])
        if not ring.is_zero(L.norm(el)):
            return el


def _trace(L, a):
    """Tr(a) = Tr(a * 1 * 1), the corner of the trace form of a."""
    return L.pairing_gram(a)[0, 0]


def _gram_by_traces(L, w):
    """The trace form as it was computed before the power sums: 2n - 1
    traces of multiplication matrices of w * gamma^m."""
    ring, traces, acc = L.ring, [], w
    for _ in range(2 * L.n - 1):
        M, trace = L.mult_matrix(acc), ring.zero
        for i in range(L.n):
            trace = ring.add(trace, M[i, i])
        traces.append(trace)
        acc = L.mul(acc, L.gamma())
    return [[traces[i + j] for j in range(L.n)] for i in range(L.n)]


def _random_algebra(ring, rng, n, p=None):
    """k[x]/(f) for a random separable monic f of degree n; with p, a
    third of the coefficients are multiples of p."""
    while True:
        coeffs = [rng.randint(-9, 9) * (p if p and rng.random() < 1 / 3
                                        else 1) for _ in range(n)]
        try:
            return _alg(ring, [1] + coeffs)
        except PreconditionError:
            continue


def _random_multiplier(L, rng):
    """A random element with small rational (or GF(p)) coefficients,
    given with more than n coefficients so that it is reduced mod f."""
    ring = L.ring
    return Poly(ring, [ring.from_fraction(
        Fraction(rng.randint(-20, 20), rng.choice([1, 1, 2, 3, 49])))
        if ring.char == 0 else ring.from_int(rng.randrange(ring.p))
        for _ in range(L.n + 2)])


class TestPairingGram:
    """pairing_gram (Hankel in the power sums) against the traces of
    multiplication matrices it replaced."""

    @pytest.mark.parametrize("ring", [QQ, RR, GF(5), GF(7)],
                             ids=lambda k: k.tag)
    @pytest.mark.parametrize("n", [3, 5])
    def test_exact_bases_equal(self, ring, n):
        rng = random.Random(40 + n)
        for _ in range(12):
            L = _random_algebra(ring, rng, n)
            w = _random_multiplier(L, rng)
            assert [list(r) for r in L.pairing_gram(w).rows] == \
                _gram_by_traces(L, w)

    @pytest.mark.parametrize("p,prec", [(3, 10), (5, 20), (7, 40), (2, 20),
                                        (7, 10)])
    @pytest.mark.parametrize("n", [3, 5])
    def test_padic_agrees_within_precision(self, p, prec, n):
        ring = Qp(p, prec)
        rng = random.Random(50 + p + prec + n)
        for _ in range(12):
            L = _random_algebra(ring, rng, n, p=p)
            w = _random_multiplier(L, rng)
            new = [x for r in L.pairing_gram(w).rows for x in r]
            old = [x for r in _gram_by_traces(L, w) for x in r]
            for x, y in zip(new, old):
                assert (x - y).is_zero()
                dx, dy = abs_digits(x), abs_digits(y)
                assert dx is None or (dy is not None and dx >= dy)


class TestAlgebraArithmetic:
    @pytest.mark.parametrize("ring", [GF(5), QQ, Qp(7, 20)])
    def test_norm_multiplicative(self, ring):
        L = _alg(ring, [1, 4, 1, 4])
        rng = random.Random(21)
        for _ in range(15):
            x, y = _random_el(L, rng), _random_el(L, rng)
            lhs = L.norm(L.mul(x, y))
            rhs = ring.mul(L.norm(x), L.norm(y))
            assert ring.eq(lhs, rhs)

    @pytest.mark.parametrize("ring", [GF(5), QQ])
    def test_trace_additive(self, ring):
        L = _alg(ring, [1, 0, -1, 1])
        rng = random.Random(22)
        for _ in range(15):
            x, y = _random_el(L, rng), _random_el(L, rng)
            lhs = _trace(L, L.add(x, y))
            rhs = ring.add(_trace(L, x), _trace(L, y))
            assert ring.eq(lhs, rhs)

    def test_inverse(self):
        L = _alg(GF(7), [1, 0, -1, 1])
        rng = random.Random(23)
        for _ in range(10):
            x = _random_el(L, rng)
            assert L.reduce(L.mul(x, L.inv(x))).coeffs == L.one().coeffs

    def test_gamma_satisfies_f(self):
        L = _alg(QQ, [1, 0, -1, 1])
        g = L.gamma()
        val = L.reduce(L.f.compose(g) if hasattr(L.f, "compose")
                       else L.f)
        # f(gamma) = 0 in L
        acc = L.scalar(QQ.zero)
        power = L.one()
        for coeff in L.f.coeffs:
            acc = L.add(acc, L.mul(L.scalar(coeff), power))
            power = L.mul(power, g)
        assert all(QQ.is_zero(c) for c in L.reduce(acc).coeffs)

    def test_norm_of_neg_gamma_is_e_squared_shape(self):
        # N(-gamma) = f(0) for monic odd-degree f
        for ring, desc in ((GF(5), [1, 4, 1, 4]), (QQ, [1, 0, -1, 1])):
            L = _alg(ring, desc)
            ng = L.mul(L.gamma(), L.scalar(ring.neg(ring.one)))
            assert ring.eq(L.norm(ng), L.f.eval(ring.zero))

    def test_repeated_factor_rejected(self):
        with pytest.raises(PreconditionError):
            _alg(GF(5), [1, 2, 1]).factors  # (x+1)^2

    def test_lazy_factorization(self):
        # construction succeeds even with inseparable reduction;
        # arithmetic that avoids .factors keeps working
        K = Qp(2, 24)
        L = _alg(K, [1, 0, 0, -256, 0, 4096])  # congruent to x^5 mod 2
        x = L.gamma()
        y = L.mul(x, x)
        assert L.reduce(y).degree <= 4


class TestSquareClasses:
    def test_group_law_on_labels(self):
        L = _alg(GF(5), [1, 4, 1, 4])
        classes = norm_one_classes(L)
        for c1 in classes:
            for c2 in classes:
                prod = c1 * c2
                expected = tuple((a + b) % 2
                                 for a, b in zip(c1.labels, c2.labels))
                assert prod.labels == expected

    def test_counts_gf(self):
        # split cubic over F_5: |(L*/L*2)_{N=1}| = 2^(r-1) = 4
        L = _alg(GF(5), [1, 4, 1, 4])
        assert len(norm_one_classes(L)) == 4
        # irreducible cubic (x^3 + x + 1 has no roots mod 5): trivial group
        L1 = _alg(GF(5), [1, 0, 1, 1])
        assert len(norm_one_classes(L1)) == 1

    def test_counts_qp(self):
        # f = x^3 - x + 1 irreducible over Q_7 would give 2 unramified-ish
        # classes; split over Q_5? use x^3+4x^2+x+4 factoring (x+4)(x^2+1):
        # -1 is a QR mod 5 so x^2+1 splits: r = 3 factors
        K = Qp(5, 20)
        L = _alg(K, [1, 4, 1, 4])
        classes = norm_one_classes(L)
        # (Q_5^x / sq)^3 has 4^3 = 64 elements; norm-one condition and
        # quotient: |(L^x/L^x2)_{N=1}| = 4^3/ 4... measured group is closed
        labels = {c.labels for c in classes}
        assert len(labels) == len(classes)
        for c1 in classes:
            for c2 in classes:
                assert (c1 * c2).labels in labels

    def test_counts_rr(self):
        # three real roots: sign vectors with product +1 on the norm-one part
        L = _alg(RR, [1, 0, -4, 1])  # three real roots
        classes = norm_one_classes(L)
        assert len(classes) == 4
        # no real roots beyond one: x^3 + x + 1 has 1 real root
        L1 = _alg(RR, [1, 0, 1, 1])
        assert len(norm_one_classes(L1)) == 1

    def test_square_class_of_square_is_trivial(self):
        L = _alg(GF(5), [1, 4, 1, 4])
        rng = random.Random(24)
        for _ in range(10):
            x = _random_el(L, rng)
            cls = square_class(L, L.mul(x, x))
            assert all(lab == 0 for lab in cls.labels)

    def test_real_roots_exact(self):
        f = _poly(QQ, [1, 0, -4, 1])
        roots = real_roots_exact(f)
        assert len(roots) == 3
