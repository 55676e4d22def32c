import itertools
import random
from fractions import Fraction

import pytest
import sympy

from orbitlab.errors import PrecisionError
from orbitlab.poly import (Poly, _bezout_mod_p, _lift_pair, _zdivmod_monic,
                           _zgcd, _zmul, _zsub, discriminant, euler_split,
                           factor, gcd, resultant)
from orbitlab.rings import GF, QQ, RR, Qp


SEED_POLY = 20261018


def _poly(ring, desc):
    """Build from descending (human-order) integer coefficients."""
    return Poly.from_ints(ring, list(reversed(desc)))


class TestBasics:
    def test_eval_and_arith(self):
        f = _poly(QQ, [1, 0, -1, 1])  # x^3 - x + 1
        assert f.eval(Fraction(2)) == 7
        assert f.degree == 3
        assert f.is_monic()
        assert f.derivative().coeffs == (Fraction(-1), Fraction(0),
                                         Fraction(3))

    def test_divmod(self):
        f = _poly(QQ, [1, 0, -1, 1])
        g = _poly(QQ, [1, -1])
        q, r = f.divmod(g)
        assert r.degree < g.degree
        x = Fraction(3)
        assert q.eval(x) * g.eval(x) + r.eval(x) == f.eval(x)

    def test_shift_multiplies_by_x(self):
        f = _poly(QQ, [1, 2, 3])
        assert f.shift(1).coeffs == (Fraction(0), Fraction(3), Fraction(2),
                                     Fraction(1))


class TestDiscriminantResultant:
    def test_vs_sympy_over_q(self):
        x = sympy.symbols("x")
        for desc in ([1, 0, -1, 1], [1, 4, 1, 4], [1, -5, 4, 25],
                     [1, 2, 3, 4, 5, 6]):
            f = _poly(QQ, desc)
            expected = sympy.discriminant(sympy.Poly(desc, x))
            assert discriminant(f) == Fraction(expected)

    def test_resultant_vs_sympy(self):
        x = sympy.symbols("x")
        f = _poly(QQ, [1, 0, -1, 1])
        g = _poly(QQ, [1, 2, 3])
        expected = sympy.resultant(sympy.Poly([1, 0, -1, 1], x),
                                   sympy.Poly([1, 2, 3], x))
        assert resultant(f, g) == Fraction(expected)

    def test_disc_zero_iff_repeated_root(self):
        F = GF(7)
        f = _poly(F, [1, 5, 6, 0])
        assert not F.is_zero(discriminant(f))
        sq = _poly(F, [1, 2, 1])  # (x+1)^2
        assert F.is_zero(discriminant(sq))


class TestFactor:
    def test_gf_factor_matches_sympy(self):
        x = sympy.symbols("x")
        for p in (3, 5, 7):
            for desc in ([1, 4, 1, 4], [1, 0, -1, 1], [1, 0, 0, 1],
                         [1, 1, 1, 1, 1]):
                F = GF(p)
                f = _poly(F, desc)
                parts = factor(f)
                got = sorted(g.degree for g, m in parts for _ in range(m))
                sf = sympy.factor_list(sympy.Poly(desc, x, modulus=p))
                exp = sorted(g.degree(x) for g, m in sf[1]
                             for _ in range(m))
                assert got == exp
                # monic factors multiply back to f/lc at sample points
                for t in range(p):
                    prod = f.lc
                    for g, m in parts:
                        for _ in range(m):
                            prod = F.mul(prod, g.eval(F.from_int(t)))
                    assert F.eq(prod, f.eval(F.from_int(t)))

    def test_q_factor(self):
        f = _poly(QQ, [1, 4, 1, 4])  # (x+4)(x^2+1) over Q
        degs = sorted(g.degree for g, _ in factor(f))
        assert degs == [1, 2]
        g = _poly(QQ, [1, 0, -1, 1])
        assert [h.degree for h, _ in factor(g)] == [3]

    def test_qp_hensel_factor(self):
        K = Qp(7, 20)
        f = _poly(K, [1, 4, 1, 4])
        parts = factor(f)
        # -1 is not a QR mod 7 (7 = 3 mod 4), so x^2 + 1 stays irreducible
        degs = sorted(g.degree for g, _ in parts)
        assert degs == [1, 2]
        t = K.from_int(3)
        prod = K.one
        for g, _ in parts:
            prod = K.mul(prod, g.eval(t))
        assert K.eq(prod, f.eval(t))

    def test_qp_inseparable_reduction_rejected(self):
        K = Qp(23, 20)
        f = _poly(K, [1, 0, -1, 1])  # disc = -23: ramified at 23
        with pytest.raises(PrecisionError):
            factor(f)

    def test_gcd_separable(self):
        F = GF(5)
        f = _poly(F, [1, 4, 1, 4])
        assert gcd(f, f.derivative()).degree == 0


class TestEulerSplit:
    """euler_split(f, -x, p) against the sympy factorization over GF(p)."""

    @staticmethod
    def _agrees_with_factor(p, coeffs) -> bool:
        """Check one monic f with f(0) != 0; True when f is squarefree."""
        F = GF(p)
        f = Poly(F, coeffs)
        parts = euler_split(coeffs, [0, p - 1], p)
        if F.is_zero(discriminant(f)):
            assert parts is None
            return False
        factors = [g for g, _ in factor(f)]
        for k, fk, square in parts:
            of_degree_k = [g for g in factors if g.degree == k]
            prod = Poly(F, [1])
            for g in of_degree_k:
                prod = prod * g
            assert list(prod.coeffs) == fk
            # -x has norm g(0) on F_p[x]/(g)
            assert square == all(F.is_square(g.coeff(0)) for g in of_degree_k)
        assert sum((len(fk) - 1) // k for k, fk, _ in parts) == len(factors)
        assert all(sq for _, _, sq in parts) == all(
            F.is_square(g.coeff(0)) for g in factors)
        return True

    @pytest.mark.parametrize("p", [3, 5])
    def test_every_squarefree_quintic(self, p):
        squarefree = sum(
            self._agrees_with_factor(p, list(low) + [1])
            for low in itertools.product(range(p), repeat=5) if low[0])
        # monic squarefree quintics: p^5 - p^4; those divisible by x are
        # x g with g squarefree of degree 4 and g(0) != 0
        g4 = sum(self._agrees_with_factor(p, list(low) + [1])
                 for low in itertools.product(range(p), repeat=4) if low[0])
        assert squarefree + g4 == p ** 5 - p ** 4

    def test_seeded_septics(self):
        rng = random.Random(0xA5EED)
        squarefree = 0
        for _ in range(300):
            low = [rng.randrange(1, 7)] + [rng.randrange(7) for _ in range(6)]
            squarefree += self._agrees_with_factor(7, low + [1])
        assert squarefree > 200


def _sympy_factor(f):
    """The test oracle: sympy's factor_list, as [(coeffs, multiplicity)]
    of monic factors sorted by (degree, coeffs)."""
    ring, x = f.ring, sympy.Symbol("x")
    desc = [sympy.Rational(c) if ring.char == 0 else int(c)
            for c in reversed(f.coeffs)]
    sp = (sympy.Poly(desc, x, modulus=ring.p) if ring.char
          else sympy.Poly(desc, x, domain="QQ"))
    out = []
    for g, m in sp.factor_list()[1]:
        coeffs = [Fraction(int(c.p), int(c.q)) if ring.char == 0 else int(c)
                  for c in reversed(g.all_coeffs())]
        target = QQ if ring.char == 0 else ring
        out.append((Poly(target, [target.from_fraction(c) for c in coeffs])
                    .monic().coeffs, m))
    return sorted(out, key=lambda t: (len(t[0]), t[0]))


def _agrees(f):
    got = [(g.coeffs, m) for g, m in factor(f)]
    assert got == _sympy_factor(f), f
    return got


def _q(coeffs):
    return Poly(QQ, [Fraction(c) for c in coeffs])


class TestFactorAgainstSympy:
    """poly.factor against sympy's factor_list, factor for factor."""

    def test_every_cubic_in_the_x2_box(self):
        # x^3 + a1 x^2 + a2 x + a3 within census.height_box_bounds(2, 3)
        shapes = set()
        for a1, a2, a3 in itertools.product(range(-3, 4), range(-15, 16),
                                            range(-7, 8)):
            got = _agrees(_q([a3, a2, a1, 1]))
            shapes.add(tuple(sorted((len(g) - 1, m) for g, m in got)))
        # (x - a)^2 (x - b) and (x - a)^3 are in the box
        assert {((1, 1), (1, 2)), ((1, 3),), ((3, 1),)} <= shapes

    def test_seeded_reducible_sextics(self):
        rng = random.Random(SEED_POLY)
        for _ in range(60):
            g = _q([rng.randint(-9, 9) for _ in range(3)] + [1])
            h = _q([rng.randint(-9, 9) for _ in range(3)] + [1])
            assert len(_agrees(g * h)) >= 2

    def test_chi_t2_sextics(self):
        """chi(t^2) = -f(-t^2) for chi the characteristic polynomial of
        -gamma, on tuples built so that -gamma is a square (then chi(t^2)
        splits as +-g(t) g(-t)) and on plain height-box tuples."""
        rng = random.Random(SEED_POLY + 1)
        split = 0
        for k in range(80):
            b1, b2, b3 = (rng.randint(-3, 3) for _ in range(3))
            if k % 2:
                a1, a2, e = b1 * b1 - 2 * b2, b2 * b2 - 2 * b1 * b3, b3
            else:
                a1, a2, e = b1, 5 * b2, b3
            chi_t2 = _q([-e * e, 0, a2, 0, -a1, 0, 1])
            split += len(_agrees(chi_t2)) > 1
        assert split >= 40

    def test_rational_quintics_and_septics(self):
        rng = random.Random(SEED_POLY + 2)
        for n in [5] * 40 + [7] * 20:
            coeffs = [Fraction(rng.randint(-20, 20), rng.randint(1, 12))
                      for _ in range(n)] + [Fraction(rng.randint(1, 5), 3)]
            _agrees(Poly(QQ, coeffs))
            # and with a repeated rational factor
            lin = Poly(QQ, [Fraction(rng.randint(-5, 5), 7), Fraction(1)])
            _agrees(Poly(QQ, coeffs[:4]) * lin * lin)

    def test_real_coordinates_factor_over_q(self):
        f = Poly.from_ints(RR, [4, 0, -5, 0, 1])  # (x^2 - 1)(x^2 - 4)
        assert [g.ring for g, _ in factor(f)] == [QQ] * 4
        assert [g.coeffs for g, _ in factor(f)] == [
            g.coeffs for g, _ in factor(_q([4, 0, -5, 0, 1]))]

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_every_small_monic_over_gf(self, p):
        F = GF(p)
        top = 6 if p == 2 else 5
        for d in range(1, top + 1):
            for low in itertools.product(range(p), repeat=d):
                _agrees(Poly(F, list(low) + [1]))

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_p_th_powers_over_gf(self, p):
        """g(x^p) = g(x)^p, whose derivative vanishes, times a cofactor."""
        F = GF(p)
        rng = random.Random(SEED_POLY + p)
        for _ in range(40):
            g = [rng.randrange(p) for _ in range(rng.randint(1, 3))] + [1]
            gp = [0] * ((len(g) - 1) * p + 1)
            for i, c in enumerate(g):
                gp[i * p] = c
            _agrees(Poly(F, gp))
            _agrees(Poly(F, gp) * Poly(F, [rng.randrange(p) for _ in range(2)]
                                      + [1]))

    def test_seeded_high_degree_over_larger_fields(self):
        rng = random.Random(SEED_POLY + 3)
        for p in (11, 31, 61):
            F = GF(p)
            for _ in range(25):
                f = Poly(F, [rng.randrange(p) for _ in range(rng.randint(4, 10))]
                         + [1])
                _agrees(f * Poly(F, [rng.randrange(p), 1]))

    def test_yun_fallback_and_swinnerton_dyer(self):
        # every prime below 32 divides disc: squarefreeness comes from Yun
        f = _q([1])
        for i in range(34):
            f = f * _q([-i, 1])
        assert len(_agrees(f)) == 34
        got = dict(_agrees(f * _q([-3, 1])))
        assert got[(Fraction(-3), Fraction(1))] == 2
        # x^4 - 10x^2 + 1 is irreducible but splits modulo every prime
        assert len(_agrees(_q([1, 0, -10, 0, 1]))) == 1


def _linear_lift_pair(f, g, h, p, N):
    """The digit-at-a-time Hensel lift that poly._lift_pair replaced: one
    step per power of p, each with a full G*H product."""
    s, t = _bezout_mod_p(g, h, p)
    G = [c % p ** N for c in g]
    H = [c % p ** N for c in h]
    for k in range(1, N):
        mod = p ** (k + 1)
        diff = _zsub(f, _zmul(G, H, p ** N), p ** N)
        e = [(c % mod) // p ** k for c in diff]
        while e and e[-1] == 0:
            e.pop()
        if not e:
            continue
        dg = _zdivmod_monic(_zmul(t, e, p), [c % p for c in G], p)[1]
        dh = _zdivmod_monic(_zmul(s, e, p), [c % p for c in H], p)[1]
        G = [(G[i] if i < len(G) else 0) + p ** k * (dg[i] if i < len(dg)
                                                      else 0)
             for i in range(max(len(G), len(dg)))]
        H = [(H[i] if i < len(H) else 0) + p ** k * (dh[i] if i < len(dh)
                                                      else 0)
             for i in range(max(len(H), len(dh)))]
    return G, H


class TestQuadraticLift:
    def test_matches_linear_lift(self):
        """The monic lift of a coprime factorization mod p is unique, so the
        quadratic lift returns exactly the linear one's G, H mod p^N, for
        p = 2 and odd p, N = 1 and N not a power of 2, degrees 1-4."""
        rng = random.Random(SEED_POLY + 15)
        seen = set()
        cases = 0
        while cases < 3000:
            p = rng.choice((2, 2, 3, 5, 7, 11, 13))
            N = rng.randint(1, 13)
            g = [rng.randrange(p) for _ in range(rng.randint(1, 4))] + [1]
            h = [rng.randrange(p) for _ in range(rng.randint(1, 4))] + [1]
            if len(_zgcd(g, h, p)) != 1:
                continue
            f = [c + p * rng.randint(-60, 60)
                 for c in _zmul(g, h, p)[:-1]] + [1]
            G, H = _lift_pair(f, g, h, p, N)
            assert (G, H) == _linear_lift_pair(f, g, h, p, N)
            assert _zsub(f, _zmul(G, H, p ** N), p ** N) == []
            seen.add((p == 2, N == 1, N & (N - 1) != 0, len(g) - 1))
            cases += 1
        assert {(True, True), (True, False), (False, True)} <= {
            (two, one) for two, one, _, _ in seen}
        assert any(npow2 for _, _, npow2, _ in seen)
        assert {d for *_, d in seen} == {1, 2, 3, 4}
