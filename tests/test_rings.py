import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitlab.errors import PrecisionError, PreconditionError, UsageError
from orbitlab.rings import (GF, QQ, RR, PadicField, Qp, factorint,
                            hilbert_symbol, is_prime, sqrt_mod_p)

nonzero_rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50)).filter(lambda x: x != 0)


class TestRationals:
    def test_field_ops(self):
        a = QQ.from_fraction(Fraction(3, 4))
        b = QQ.from_fraction(Fraction(-2, 5))
        assert QQ.eq(QQ.mul(a, QQ.inv(a)), QQ.one)
        assert QQ.eq(QQ.add(a, b), Fraction(7, 20))

    def test_squares(self):
        assert QQ.is_square(Fraction(9, 4))
        assert not QQ.is_square(Fraction(2))
        assert not QQ.is_square(Fraction(-1))

    def test_real_field_signs(self):
        assert RR.is_square(RR.from_fraction(Fraction(2)))
        assert not RR.is_square(RR.from_fraction(Fraction(-2)))

    def test_real_sqrt_only_of_rational_squares(self):
        """R holds exact rationals: a positive non-square such as 2 is a
        real square with no representable root, so sqrt refuses it."""
        assert RR.sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert RR.sqrt(Fraction(0)) == 0
        for a in (Fraction(2), Fraction(8), Fraction(1, 2), Fraction(-4)):
            with pytest.raises(PreconditionError, match="rational square"):
                RR.sqrt(a)


class TestPrimeField:
    def test_inverse_all_units(self):
        F = GF(11)
        for u in range(1, 11):
            x = F.from_int(u)
            assert F.eq(F.mul(x, F.inv(x)), F.one)

    def test_square_counts(self):
        # exactly (p-1)/2 nonzero squares
        F = GF(13)
        squares = sum(1 for u in range(1, 13) if F.is_square(F.from_int(u)))
        assert squares == 6

    def test_sqrt_mod_p_roundtrip(self):
        for p in (3, 5, 7, 11, 13, 17):
            for u in range(1, p):
                if pow(u, (p - 1) // 2, p) == 1:
                    r = sqrt_mod_p(u, p)
                    assert r * r % p == u


class TestPadics:
    def test_valuation_arithmetic(self):
        K = Qp(5, 20)
        x = K.from_fraction(Fraction(50))     # 2 * 5^2
        y = K.from_fraction(Fraction(1, 5))
        assert x.valuation() == 2
        assert y.valuation() == -1
        assert K.mul(x, y).valuation() == 1
        assert K.inv(x).valuation() == -2

    def test_from_fraction_exact(self):
        K = Qp(7, 20)
        x = K.from_fraction(Fraction(3, 4))
        back = K.mul(x, K.from_int(4))
        assert K.eq(back, K.from_int(3))

    def test_odd_p_squares(self):
        K = Qp(7, 20)
        assert K.is_square(K.from_int(2))       # 2 is a QR mod 7
        assert not K.is_square(K.from_int(3))   # 3 is not
        assert not K.is_square(K.from_int(7))   # odd valuation
        assert K.is_square(K.from_int(49))

    def test_two_adic_squares_mod8(self):
        K = Qp(2, 24)
        assert K.is_square(K.from_int(17))      # 1 mod 8
        for u in (3, 5, 7):
            assert not K.is_square(K.from_int(u))
        assert K.is_square(K.from_int(4))
        assert not K.is_square(K.from_int(2))

    def test_sqrt_squares_back(self):
        K = Qp(5, 20)
        x = K.from_fraction(Fraction(6))
        s = K.sqrt(K.mul(x, x))
        assert K.eq(K.mul(s, s), K.mul(x, x))

    @pytest.mark.parametrize("prec", [1, 2])
    def test_two_adic_unit_mod_needs_three_digits(self, prec):
        # 3 and 7 are different square classes in Q_2 but agree mod 4
        x = Qp(2, prec).from_fraction(12)
        with pytest.raises(PrecisionError):
            x.unit_mod(3)
        assert Qp(2, 3).from_fraction(12).unit_mod(3) == 3
        assert Qp(2, 3).from_fraction(28).unit_mod(3) == 7
        assert Qp(5, 1).from_fraction(15).unit_mod(1) == 3

    @given(a=nonzero_rationals)
    @settings(max_examples=50, deadline=None)
    def test_square_of_square(self, a):
        K = Qp(3, 20)
        x = K.from_fraction(a)
        assert K.is_square(K.mul(x, x))


class TestHilbertSymbol:
    def test_known_values(self):
        # (-1, -1) = -1 over R and Q_2, +1 at odd p
        assert hilbert_symbol(Fraction(-1), Fraction(-1), RR) == -1
        assert hilbert_symbol(Fraction(-1), Fraction(-1), Qp(2, 20)) == -1
        assert hilbert_symbol(Fraction(-1), Fraction(-1), Qp(5, 20)) == 1
        # (p, u) at odd p = Legendre(u | p)
        assert hilbert_symbol(Fraction(5), Fraction(2), Qp(5, 20)) == -1
        assert hilbert_symbol(Fraction(5), Fraction(4), Qp(5, 20)) == 1

    @pytest.mark.parametrize("prec", [1, 2])
    def test_two_adic_unit_needs_three_digits(self, prec):
        # 3 + O(2^prec) cannot be told from 1 or 7 mod 8, and (3, 2)_2 = -1
        # while (1, 2)_2 = +1: the symbol must decline, not guess
        K = Qp(2, prec)
        with pytest.raises(PrecisionError):
            hilbert_symbol(K.from_fraction(3), 2, K)
        with pytest.raises(PrecisionError):
            hilbert_symbol(2, K.from_fraction(3), K)
        assert hilbert_symbol(Qp(2, 3).from_fraction(3), 2, Qp(2, 3)) == -1

    def test_negative_valuation_gives_int(self):
        # (1/5, 2)_5 = (5, 2)_5 and (1/2, 3)_2 = (2, 3)_2; a negative
        # valuation must not turn the sign into a float
        for a, b, p in ((Fraction(1, 5), 2, 5), (Fraction(1, 2), 3, 2)):
            sym = hilbert_symbol(a, b, Qp(p))
            assert type(sym) is int and sym == -1
            assert type(hilbert_symbol(b, a, Qp(p))) is int

    def test_finite_field_units(self):
        for a, b in ((2, 3), (4, 2), (1, 1)):
            assert hilbert_symbol(a, b, GF(5)) == 1
        with pytest.raises(PreconditionError):
            hilbert_symbol(0, 2, GF(5))

    def test_odd_p_unit_needs_one_digit(self):
        K = Qp(5, 1)
        assert hilbert_symbol(K.from_fraction(5), K.from_fraction(2), K) == -1

    @given(a=nonzero_rationals, b=nonzero_rationals, c=nonzero_rationals)
    @settings(max_examples=40, deadline=None)
    def test_bimultiplicative(self, a, b, c):
        for place in (RR, Qp(2, 24), Qp(3, 20), Qp(5, 20)):
            lhs = hilbert_symbol(a, b * c, place)
            rhs = hilbert_symbol(a, b, place) * hilbert_symbol(a, c, place)
            assert lhs == rhs

    @given(a=nonzero_rationals)
    @settings(max_examples=40, deadline=None)
    def test_a_minus_a(self, a):
        # (a, -a) = 1 always
        for place in (RR, Qp(2, 24), Qp(7, 20)):
            assert hilbert_symbol(a, -a, place) == 1

    @given(a=nonzero_rationals, b=nonzero_rationals)
    @settings(max_examples=30, deadline=None)
    def test_product_formula(self, a, b):
        # product over all places of (a, b)_v = 1; only finitely many -1
        primes = {2}
        for x in (a, b):
            for t in (x.numerator, x.denominator):
                primes.update(sympy.factorint(abs(t)))
        try:
            places = [Qp(p, 24) for p in sorted(primes)]
        except UsageError:
            # Qp refuses a prime that is_prime cannot certify (>= 3.3e24)
            assume(False)
        prod = hilbert_symbol(a, b, RR)
        for place in places:
            prod *= hilbert_symbol(a, b, place)
        assert prod == 1


class TestPlaceMembers:
    def test_tags(self):
        assert [K.tag for K in (QQ, RR, GF(5), Qp(7), Qp(2, 30))] == [
            "Q", "R", "F:5", "Qp:7", "Qp:2"]

    def test_place_tests(self):
        facts = [(K.is_global, K.is_real, K.is_finite, K.is_padic, K.is_dyadic)
                 for K in (QQ, RR, GF(5), Qp(7), Qp(2))]
        assert facts == [(True, False, False, False, False),
                         (False, True, False, False, False),
                         (False, False, True, False, False),
                         (False, False, False, True, False),
                         (False, False, False, True, True)]

    def test_local_size_factor(self):
        assert GF(5).local_size_factor(2) == 1
        assert Qp(7).local_size_factor(2) == 1
        assert Qp(2).local_size_factor(2) == 4
        assert RR.local_size_factor(2) == Fraction(1, 4)
        with pytest.raises(UsageError):
            QQ.local_size_factor(1)


class TestConstruction:
    def test_gf_requires_prime(self):
        with pytest.raises(UsageError):
            GF(9)
        with pytest.raises(UsageError):
            GF(1)

    def test_qp_requires_prime(self):
        with pytest.raises(UsageError):
            Qp(6, 20)

    def test_field_identity(self):
        assert Qp(5, 20) == Qp(5, 20)
        assert isinstance(Qp(5, 20), PadicField)


# the Carmichael numbers below 10^5
CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
              41041, 46657, 52633, 62745, 63973, 75361)


class TestIntegerHelpers:
    """is_prime and factorint against sympy, the oracle."""

    def test_is_prime_matches_sympy_on_seeded_integers(self):
        rng = random.Random(17)
        for _ in range(20000):
            n = rng.getrandbits(rng.randint(16, 81))
            assert is_prime(n) == sympy.isprime(n), n

    def test_is_prime_small_and_carmichael(self):
        assert [n for n in range(-3, 60) if is_prime(n)] == \
            list(sympy.primerange(0, 60))
        for n in CARMICHAEL:
            assert not sympy.isprime(n) and not is_prime(n), n

    @pytest.mark.parametrize("n", [
        3825123056546413051,          # strong pseudoprime to the bases <= 23
        318665857834031151167461])    # ... to the bases <= 37
    def test_is_prime_rejects_strong_pseudoprimes(self, n):
        assert not sympy.isprime(n)
        assert not is_prime(n)

    def test_is_prime_refuses_past_the_proven_bound(self):
        """Past the bound a failed base still proves n composite; an n that
        passes every base is refused, prime or not."""
        assert is_prime(3317044064679887385961979) == \
            sympy.isprime(3317044064679887385961979)
        big = sympy.nextprime(10 ** 30)
        for n in (3317044064679887385961981, big):
            with pytest.raises(UsageError):
                is_prime(n)
            with pytest.raises(UsageError):
                factorint(6 * n)
        assert not is_prime(big * sympy.nextprime(10 ** 20))
        n = 2 ** 5 * 1217 ** 2 * 2147641 ** 2 * 772182877 ** 2  # 127 bits
        assert factorint(n) == sympy.factorint(n)

    def test_factorint_matches_sympy(self):
        rng = random.Random(29)

        def prime(bits):
            return sympy.nextprime(rng.getrandbits(bits) | 1 << (bits - 1))

        cases = [1, 2, 1000, 999983 ** 2, 1009 * 1013, 2 ** 47, 3 ** 30]
        for _ in range(40):
            p, q = prime(24), prime(24)
            cases += [p * q, p * q * rng.randrange(1, 5000), p ** 2, p ** 3,
                      p * prime(12) ** 2, rng.getrandbits(48) + 1]
        for n in cases:
            assert factorint(n) == sympy.factorint(n), n
        with pytest.raises(PreconditionError):
            factorint(0)
