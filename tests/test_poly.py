import itertools
import random
from fractions import Fraction

import pytest
import sympy

from orbitlab.errors import PrecisionError
from orbitlab.poly import (Poly, discriminant, euler_split, factor, gcd,
                           parse_coeff_list, resultant)
from orbitlab.rings import GF, QQ, Qp


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

    def test_parse_coeff_list_ascending(self):
        f = parse_coeff_list("1,-1,0,1", QQ)
        assert f.coeffs == (Fraction(1), Fraction(-1), Fraction(0),
                            Fraction(1))
        assert f.eval(Fraction(2)) == 7


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
