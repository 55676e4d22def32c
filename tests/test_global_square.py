"""The certified global square test over Q against the number-field oracle.

The oracle is the decision the package made before the certified test: a
real-sign screen, then sympy factoring of t^2 - alpha over Q(alpha). It is
slow (tens of milliseconds per element) and is kept here only as a
reference.
"""

import functools
import itertools
import random
from fractions import Fraction

import pytest
import sympy

from conftest import count_calls
from orbitlab import etale
from orbitlab.census import height_enumerate
from orbitlab.errors import PreconditionError
from orbitlab.etale import (EtaleAlgebra, SquareClass, real_roots_exact,
                            sign_at_root, square_class)
from orbitlab.orbits import algebra_of, distinguished_coincide
from orbitlab.poly import (SMALL_ODD_PRIMES, Poly, _zpowmod, discriminant,
                           distinct_degree, factor, fq_sqrt, resultant)
from orbitlab.rings import GF, QQ
from orbitlab.thetarep import Invariants

_t = sympy.Symbol("t")


def to_sympy(f: Poly):
    """f as a sympy expression in x (rational coefficients)."""
    return sum(sympy.Rational(c) * sympy.Symbol("x") ** i
               for i, c in enumerate(f.coeffs))


def oracle_is_square(alg: EtaleAlgebra, rep: Poly) -> bool:
    """Whether rep is a square in the Q-algebra alg, by number-field factoring."""
    for i, fi in enumerate(alg.factors):
        if not QQ.is_square(alg.norm_in_factor(rep, i)):
            return False
        if fi.degree == 1:
            if not QQ.is_square(rep.eval(-fi.coeff(0))):
                return False
            continue
        for root in real_roots_exact(fi):
            if sign_at_root(rep.mod(fi), root) < 0:
                return False
        alpha = sympy.CRootOf(to_sympy(fi), 0)
        val = sum(sympy.Rational(c) * alpha ** k
                  for k, c in enumerate(rep.mod(fi).coeffs))
        _, parts = sympy.factor_list(_t ** 2 - val, _t, extension=alpha)
        if sorted(sympy.Poly(g, _t).degree() for g, _ in parts) != [1, 1]:
            return False
    return True


def _q_poly(desc):
    """Poly over Q from descending integer coefficients."""
    return Poly.from_ints(QQ, list(reversed(desc)))


def _neg_gamma(c: Invariants):
    L = algebra_of(c)
    return L, L.mul(L.gamma(), L.scalar(-1))


def _inv(a1, a2, e):
    return Invariants(QQ, (Fraction(a1), Fraction(a2)), Fraction(e))


@functools.lru_cache(maxsize=None)
def _rs_box_tuples(X):
    """The regular semisimple tuples ((a1, a2), e) of the height-X box."""
    out = []
    for r in height_enumerate(X, 3):
        (a1, a2), e = r["a"], r["e"]
        if e != 0 and discriminant(_inv(a1, a2, e).fpoly()) != 0:
            out.append(((a1, a2), e))
    return out


def _square_tuple(rng, span=3):
    """f = prod(x + theta_i^2) over the roots theta_i of a random monic
    integer cubic g, and e = +-g(0): then -gamma = theta^2 is a square."""
    while True:
        b1, b2, b3 = (rng.randint(-span, span) for _ in range(3))
        c = _inv(b1 * b1 - 2 * b2, b2 * b2 - 2 * b1 * b3,
                 b3 * rng.choice((1, -1)))
        if c.e != 0 and discriminant(c.fpoly()) != 0:
            return c


def check_witnesses(cls: SquareClass):
    """Check every certificate of a global square class independently of
    the code that made it; return the decision they support."""
    alg, rep = cls.algebra, cls.rep
    witnesses = list(cls.witnesses())
    assert [w.factor for w in witnesses] == alg.factors[:len(witnesses)]
    for w in witnesses:
        fi, alpha = w.factor, rep.mod(w.factor)
        if w.root is not None:
            assert w.prime is None
            assert (w.root * w.root).mod(fi) == alpha
        elif w.prime is not None:
            p = w.prime
            assert p % 2 == 1 and sympy.isprime(p)
            dens = [c.denominator for c in fi.coeffs + alpha.coeffs]
            assert all(d % p for d in dens)
            assert discriminant(fi).numerator % p != 0  # unramified
            F = GF(p)
            fbar = fi.map_ring(F, F.from_fraction)
            labels = SquareClass(EtaleAlgebra(fbar),
                                 alpha.map_ring(F, F.from_fraction)).labels
            assert 1 in labels  # a unit non-residue in some residue field
    return all(w.root is not None for w in witnesses)


class TestAgainstOracle:
    def test_x2_box_slice(self):
        tuples = _rs_box_tuples(2)
        assert len(tuples) == 3026
        yes = 0
        for (a1, a2), e in tuples[::15]:
            L, ng = _neg_gamma(_inv(a1, a2, e))
            cls = square_class(L, ng)
            answer = cls.is_trivial()
            assert answer == oracle_is_square(L, ng), (a1, a2, e)
            assert check_witnesses(cls) == answer
            yes += answer
        assert 0 < yes < len(tuples[::15])

    def test_constructed_squares(self):
        rng = random.Random(7)
        for _ in range(25):
            c = _square_tuple(rng)
            L, ng = _neg_gamma(c)
            assert distinguished_coincide(c) is True
            assert oracle_is_square(L, ng)
            assert check_witnesses(square_class(L, ng))

    def test_linear_times_quadratic(self):
        # f = (x - 1)(x^2 + 3x + 4) = x^3 + 2x^2 + x - 4, as an algebra
        L = EtaleAlgebra(_q_poly([1, 2, 1, -4]))
        assert [g.degree for g in L.factors] == [1, 2]
        rng = random.Random(8)
        seen = set()
        for _ in range(40):
            b = Poly(QQ, [Fraction(rng.randint(-3, 3)) for _ in range(3)])
            if QQ.is_zero(L.norm(b)):
                continue
            for a in (b, L.mul(b, b), L.mul(L.mul(b, b), L.scalar(-1))):
                cls = SquareClass(L, a)
                answer = cls.is_trivial()
                assert answer == oracle_is_square(L, a)
                assert check_witnesses(cls) == answer
                seen.add(answer)
        assert seen == {True, False}

    def test_split_tuples(self):
        # tuples whose f has a linear and an irreducible quadratic factor
        found = 0
        for (a1, a2), e in _rs_box_tuples(2):
            c = _inv(a1, a2, e)
            L, ng = _neg_gamma(c)
            if [g.degree for g in L.factors] != [1, 2]:
                continue
            assert distinguished_coincide(c) == oracle_is_square(L, ng)
            found += 1
            if found == 20:
                break
        assert found == 20

    @pytest.mark.parametrize("desc", [[1, 0, -1, 1], [1, 0, -10, 0, 1],
                                      [1, 0, 0, 0, -2]])
    def test_random_elements_and_squares(self, desc):
        L = EtaleAlgebra(_q_poly(desc))
        rng = random.Random(5)
        for _ in range(5):
            b = Poly(QQ, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                          for _ in range(L.n)])
            if QQ.is_zero(L.norm(b)):
                continue
            b2 = L.mul(b, b)
            for a in (b, b2, -b2):
                cls = SquareClass(L, a)
                answer = cls.is_trivial()
                assert answer == oracle_is_square(L, a)
                assert check_witnesses(cls) == answer


class TestCertificates:
    def test_square_has_root(self):
        # x^3 - x + 1 and the square of x + 2
        L = EtaleAlgebra(_q_poly([1, 0, -1, 1]))
        b = _q_poly([1, 2])
        [w] = SquareClass(L, L.mul(b, b)).witnesses()
        assert w.root in (b, -b)

    def test_screen_names_prime(self):
        # -x in Q[x]/(x^3 - x + 1): norm 1, a non-residue at some good prime
        L = EtaleAlgebra(_q_poly([1, 0, -1, 1]))
        cls = SquareClass(L, -L.gamma())
        [w] = cls.witnesses()
        assert w.root is None and w.prime is not None
        assert not check_witnesses(cls)

    def test_non_square_norm_has_no_certificate(self):
        L = EtaleAlgebra(_q_poly([1, 0, -1, 1]))
        [w] = SquareClass(L, L.scalar(2)).witnesses()
        assert w.root is None and w.prime is None


class TestNonGenerating:
    """Q(zeta_8) = Q[x]/(x^4 + 1): elements in proper subfields."""

    @pytest.mark.parametrize("desc, expected", [
        ([1, 0, 0], True),       # x^2 = i = zeta_8^2
        ([2], True),             # (zeta + zeta^-1)^2 = 2
        ([-1], True),            # i^2
        ([3], False),
        ([1, 0, 1], False),      # 1 + i
        ([1, 0], False),         # zeta_8
    ])
    def test_cyclotomic_eight(self, desc, expected):
        L = EtaleAlgebra(_q_poly([1, 0, 0, 0, 1]))
        a = _q_poly(desc)
        cls = SquareClass(L, a)
        assert cls.is_trivial() is expected
        assert oracle_is_square(L, a) is expected
        assert check_witnesses(cls) is expected


def _fq_elements(p, n):
    """Every nonzero element of GF(p)[x]/(f), deg f = n, as an ascending
    residue list without trailing zeros."""
    for code in range(1, p ** n):
        a = [code // p ** k % p for k in range(n)]
        while a[-1] == 0:
            a.pop()
        yield a


def _fq_mul(a, b, f, p):
    F = GF(p)
    return list((Poly(F, a) * Poly(F, b)).mod(Poly(F, f)).coeffs)


def _good_screen_primes(K, alpha):
    """(p, factors of f mod p, alpha mod p) for the primes of
    SMALL_ODD_PRIMES dividing neither disc(f), N(alpha) nor a denominator."""
    bad = discriminant(K.f).numerator * K.norm(alpha).numerator
    for c in K.f.coeffs + alpha.coeffs:
        bad *= c.denominator
    for p in SMALL_ODD_PRIMES:
        F = GF(p)
        if bad % p:
            yield (p, [g for g, _ in factor(K.f.map_ring(F, F.from_fraction))],
                   alpha.map_ring(F, F.from_fraction))


def _inert_primes(K, alpha):
    """The good screen primes at which K's polynomial stays irreducible."""
    return [p for p, gs, _ in _good_screen_primes(K, alpha) if len(gs) == 1]


class TestFqSqrt:
    """The square root in F_q against brute-force squaring, for q = 3 mod 4
    (p = 3, 7 at n = 3; p = 3 at n = 5) and q = 1 mod 4 (p = 5, 13, 17 at
    n = 3; q - 1 = 4 * odd, 4 * odd and 16 * odd)."""

    @pytest.mark.parametrize("p, n", [(3, 3), (5, 3), (7, 3), (13, 3),
                                      (17, 3), (3, 5)])
    def test_against_brute_force(self, p, n):
        F = GF(p)
        f = next(list(g.coeffs) for g in (
            Poly(F, list(c) + [1]) for c in itertools.product(range(p),
                                                              repeat=n))
            if [h.degree for h, _ in factor(g)] == [n])
        z = (list(etale._nonsquare_unit(F, Poly(F, f)).coeffs)
             if p ** n % 4 == 1 else None)
        squares = {tuple(_fq_mul(b, b, f, p)) for b in _fq_elements(p, n)}
        assert len(squares) == (p ** n - 1) // 2
        for a in _fq_elements(p, n):
            if tuple(a) in squares:
                r = fq_sqrt(f, a, z, p)
                assert _fq_mul(r, r, f, p) == a, (a, r)
            else:
                with pytest.raises(PreconditionError):
                    fq_sqrt(f, a, z, p)


class TestLiftedRoot:
    """Seeded squares beta^2 over irreducible f of degree 3, 5 and 7, with
    integer or rational coefficients and beta with denominators."""

    @staticmethod
    def _field(rng, n, dens):
        while True:
            f = Poly(QQ, [Fraction(rng.randint(-5, 5), rng.choice(dens))
                          for _ in range(n)] + [Fraction(1)])
            if f.coeff(0) and [m for _, m in factor(f)] == [1]:
                return EtaleAlgebra(f)

    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("dens", [(1,), (1, 2, 3)], ids=["Z", "Q"])
    def test_squares_certified_by_lift(self, monkeypatch, n, dens):
        rng = random.Random(1000 * n + len(dens))
        fallback = count_calls(monkeypatch, etale, "_square_root")
        lifts = count_calls(monkeypatch, etale, "_lifted_root")
        inert_seen = 0
        for _ in range(10):
            K = self._field(rng, n, dens)
            beta = Poly(QQ, [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                             for _ in range(n)])
            if QQ.is_zero(K.norm(beta)):
                continue
            alpha = K.mul(beta, beta)
            del fallback[:], lifts[:]
            cls = SquareClass(K, alpha)
            [w] = cls.witnesses()
            assert w.root in (beta, -beta)
            if _inert_primes(K, alpha):
                inert_seen += 1
                assert [c[2] for c in lifts] == _inert_primes(K, alpha)[:1]
                assert not fallback
            assert check_witnesses(cls)
        assert inert_seen >= 5

    @pytest.mark.parametrize("desc", [[1, 0, 0, 0, 1], [1, 0, -10, 0, 1]],
                             ids=["zeta8", "sqrt2_sqrt3"])
    def test_no_inert_prime_falls_back(self, monkeypatch, desc):
        # Q(zeta_8) and Q(sqrt 2, sqrt 3): Galois group C2 x C2, so f is
        # reducible mod every good prime and only chi(t^2) finds roots
        L = EtaleAlgebra(_q_poly(desc))
        fallback = count_calls(monkeypatch, etale, "_square_root")
        lifts = count_calls(monkeypatch, etale, "_lifted_root")
        rng = random.Random(9)
        for _ in range(4):
            b = Poly(QQ, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                          for _ in range(L.n)])
            if QQ.is_zero(L.norm(b)):
                continue
            a = L.mul(b, b)
            assert not _inert_primes(L, a)
            del fallback[:]
            cls = SquareClass(L, a)
            assert check_witnesses(cls) is True
            assert fallback
        assert not lifts


def _parent_screen_prime(K, alpha):
    """The first prime of SMALL_ODD_PRIMES at which alpha is a unit
    non-residue in some residue field F_p[x]/(g) of a good reduction, or
    None: there alpha is a square iff its norm Res(g, alpha) is one in F_p."""
    return next((p for p, gs, a in _good_screen_primes(K, alpha)
                 if not all(GF(p).is_square(resultant(g, a.mod(g)))
                            for g in gs)), None)


class TestNoPath:
    def test_screen_witnesses_unchanged_over_x2_box(self, monkeypatch):
        """A non-square that a prime of SMALL_ODD_PRIMES decides keeps that
        witness and runs no lift; every other answer carries certificates
        that check."""
        lifts = count_calls(monkeypatch, etale, "_lifted_root")
        screened = rest = 0
        for (a1, a2), e in _rs_box_tuples(2):
            L, ng = _neg_gamma(_inv(a1, a2, e))
            cls = square_class(L, ng)
            del lifts[:]
            for i, w in enumerate(cls.witnesses()):
                K, alpha = L.comp_algebra(i), ng.mod(w.factor)
                if w.factor.degree == 1 or not QQ.is_square(K.norm(alpha)):
                    continue
                expected = _parent_screen_prime(K, alpha)
                if expected is None:
                    check_witnesses(cls)
                    rest += 1
                else:
                    assert w.prime == expected, (a1, a2, e)
                    assert all(c[0].f != w.factor for c in lifts)
                    screened += 1
        assert screened > 1000 and rest > 100

    def test_survivor_gets_wide_prime(self):
        # -gamma is a residue in every residue field at all ten screen primes
        L, ng = _neg_gamma(_inv(4, 14, 12))
        assert _parent_screen_prime(L, ng) is None
        cls = square_class(L, ng)
        [w] = cls.witnesses()
        assert w.prime is not None and w.prime >= 37
        assert check_witnesses(cls) is False


def _euler_nonresidue_prime(K, alpha, norm, primes):
    """etale._nonresidue_prime as it was before f's splits were cached: at
    every good prime, inert ones included, Euler's criterion
    alpha^((p^k - 1)/2) = 1 on each part of the distinct-degree split."""
    bad = K.disc.numerator * norm.numerator
    for c in K.f.coeffs + alpha.coeffs:
        bad *= c.denominator
    inert = None
    for p in primes:
        if bad % p == 0:
            continue
        F = GF(p)
        fbar, abar = (list(g.map_ring(F, F.from_fraction).coeffs)
                      for g in (K.f, alpha))
        split = distinct_degree(fbar, p)
        if not all(_zpowmod(abar, (p ** k - 1) // 2, g, p) == [1]
                   for k, g in split):
            return p, inert
        if inert is None and split[0][0] == K.n:
            inert = p
    return None, inert


def _monic_with_square_constant(rng, n):
    """A random monic f of degree n >= 1 over Q with f(0) a nonzero rational
    square."""
    s = Fraction(rng.randint(1, 4), rng.choice((1, 2, 3)))
    return Poly(QQ, [s * s] + [Fraction(rng.randint(-5, 5), rng.choice(
        (1, 1, 2, 3))) for _ in range(n - 1)] + [Fraction(1)])


def _screen_cases(rng, count):
    """count seeded (L, alpha): f of degree 1-5 with f(0) a square, half of
    them products of two such factors (so often reducible over Q), and
    alpha = -gamma b^2, whose norm f(0) N(b)^2 is a square."""
    made = 0
    while made < count:
        n = rng.randint(1, 5)
        if n > 1 and rng.random() < 0.5:
            k = rng.randint(1, n - 1)
            f = (_monic_with_square_constant(rng, k)
                 * _monic_with_square_constant(rng, n - k))
        else:
            f = _monic_with_square_constant(rng, n)
        try:
            L = EtaleAlgebra(f)
        except PreconditionError:  # f inseparable
            continue
        b = Poly(QQ, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                      for _ in range(n)])
        if QQ.is_zero(L.norm(b)):
            continue
        made += 1
        yield L, L.mul(L.scalar(-1), L.mul(L.gamma(), L.mul(b, b)))


class TestCachedSplits:
    """The screen reads f's cached distinct-degree splits, skips inert
    primes and leaves the last part with one factor untested; every answer
    matches Euler's criterion on every part at every prime, f factored
    over Q."""

    def test_witnesses_match_euler_screen(self, monkeypatch):
        """Over 5,000 cases the (p, inert) of every screen call and the
        witness lists agree with the Euler screen on f factored over Q."""
        results = []

        def recorded(screen):
            def run(*args):
                results.append(screen(*args))
                return results[-1]
            return run

        new_screen = recorded(etale._nonresidue_prime)
        old_screen = recorded(_euler_nonresidue_prime)
        screened = primes = 0
        for L, alpha in _screen_cases(random.Random(19), 5000):
            monkeypatch.setattr(etale, "_nonresidue_prime", new_screen)
            new = list(SquareClass(L, alpha).witnesses())
            new_results = results[:]
            del results[:]
            old_alg = EtaleAlgebra(L.f)
            old_alg._factors = [g for g, _ in factor(L.f)]
            monkeypatch.setattr(etale, "_nonresidue_prime", old_screen)
            old = list(SquareClass(old_alg, alpha).witnesses())
            assert (L.factors, new, new_results) == (
                old_alg.factors, old, results), (L.f, alpha)
            del results[:]
            screened += len(new_results)
            primes += any(w.prime is not None for w in new)
        assert screened > 2500 and primes > 2000

    @pytest.mark.parametrize("desc, factored", [
        ([1, 0, -1, 1], 0),     # irreducible, inert at 3
        ([1, 2, 1, -4], 1),     # (x - 1)(x^2 + 3x + 4)
        ([1, 0, 0, 0, 1], 1)])  # x^4 + 1: reducible mod every prime
    def test_factored_over_q_only_without_inert_prime(self, monkeypatch,
                                                      desc, factored):
        L = EtaleAlgebra(_q_poly(desc))
        calls = count_calls(monkeypatch, etale, "factor")
        alpha = L.scalar(3) if L.n == 4 else L.mul(L.gamma(), L.scalar(-1))
        list(SquareClass(L, alpha).witnesses())
        assert [f for f, in calls] == [L.f] * factored
