import random
from fractions import Fraction
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls
from orbitlab import quadforms
from orbitlab.errors import PreconditionError, UsageError
from orbitlab.linalg import Mat, det
from orbitlab.quadforms import (GramForm, _legendre_solve, _relevant_primes,
                                _squarefree, diagonalize, form_invariants,
                                is_split, isotropic_vector, split_isometry,
                                standard_split_gram)
from orbitlab.rings import GF, QQ, RR, Qp, hilbert_symbol, sqrt_mod


def _sym_mat(ring, entries):
    return Mat(ring, [[ring.from_fraction(Fraction(x)) for x in row]
                      for row in entries])


def _random_nondeg_sym(ring, rng, n, span=6):
    while True:
        entries = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randint(-span, span)
                entries[i][j] = entries[j][i] = v
        Q = GramForm(_sym_mat(ring, entries))
        if Q.is_nondegenerate():
            return Q


class TestDiagonalize:
    @pytest.mark.parametrize("ring", [QQ, GF(5), GF(7), Qp(5, 20)])
    def test_congruence(self, ring):
        rng = random.Random(1)
        for _ in range(10):
            Q = _random_nondeg_sym(ring, rng, 3)
            P, diag = diagonalize(Q)
            D = Q.congruent(P)
            for i in range(3):
                for j in range(3):
                    if i == j:
                        assert ring.eq(D.gram[i, j], diag[i])
                        assert not ring.is_zero(diag[i])
                    else:
                        assert ring.is_zero(D.gram[i, j])

    def test_det_class_preserved(self):
        Q = GramForm(_sym_mat(QQ, [[0, 1], [1, 0]]))
        P, diag = diagonalize(Q)
        prod = diag[0] * diag[1]
        assert QQ.is_square(QQ.mul(QQ.neg(QQ.one), prod))  # det = -1


class TestSplit:
    @pytest.mark.parametrize("ring", [GF(3), GF(5), QQ, RR, Qp(7, 20)])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_standard_split_is_split(self, ring, n):
        B = standard_split_gram(ring, n)
        assert is_split(B)

    def test_definite_not_split(self):
        Q = GramForm(_sym_mat(RR, [[1, 0], [0, 1]]))
        assert not is_split(Q)
        Q3 = GramForm(_sym_mat(RR, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert not is_split(Q3)

    def test_odd_rank_split_stable_under_negation(self):
        for ring in (GF(5), Qp(7, 20)):
            B = standard_split_gram(ring, 3)
            neg = GramForm(B.gram.scale(ring.neg(ring.one)))
            assert is_split(neg)

    def test_anisotropic_over_qp(self):
        # x^2 - u y^2 - p z^2 + up w^2 is the rank-4 anisotropic form at p
        K = Qp(5, 20)
        Q = GramForm(_sym_mat(K, [[1, 0, 0, 0], [0, -2, 0, 0],
                                  [0, 0, -5, 0], [0, 0, 0, 10]]))
        assert not is_split(Q)
        assert isotropic_vector(Q) is None


def _split_place_by_place(Q: GramForm) -> bool:
    """is_split over Q as it was: the discriminant test, then is_split at
    R and at each relevant prime, each diagonalizing again."""
    n, m = Q.rank, Q.rank // 2
    _, diag = diagonalize(Q)
    disc = Fraction(1)
    for d in diag:
        disc *= d
    if n % 2 == 0 and not QQ.is_square(disc * (-1) ** m):
        return False
    return is_split(Q, RR) and all(is_split(Q, Qp(p))
                                   for p in _relevant_primes(diag))


def _split_in_random_basis(rng, n):
    """lambda * H in a random integer basis: split over Q."""
    while True:
        M = _sym_mat(QQ, [[rng.randint(-3, 3) for _ in range(n)]
                          for _ in range(n)])
        if det(M) != 0:
            break
    lam = Fraction(rng.choice([-6, -5, -3, -2, -1, 1, 2, 3, 7, 10]))
    return GramForm(standard_split_gram(QQ, n).congruent(M).gram.scale(lam))


class TestSplitOverQ:
    def test_matches_place_by_place(self):
        rng = random.Random(3)
        answers = []
        for k in range(80):
            n = 2 + k % 4
            Q = (_split_in_random_basis(rng, n) if k % 3 == 0 else
                 _random_nondeg_sym(QQ, rng, n))
            answers.append(is_split(Q))
            assert answers[-1] == _split_place_by_place(Q)
        assert True in answers and False in answers

    def test_diagonalizes_once(self, monkeypatch):
        Q = _split_in_random_basis(random.Random(4), 5)
        calls = count_calls(monkeypatch, quadforms, "diagonalize")
        assert is_split(Q)
        assert len(calls) == 1


def _split_by_diagonal(Q: GramForm) -> bool:
    """is_split at GF(p) as it was: the discriminant and Hasse invariant of
    a fresh diagonalization."""
    if not Q.is_nondegenerate():
        return False
    _, diag = diagonalize(Q)
    return quadforms._is_split_at(
        quadforms._diag_invariants(diag, Q.ring, Q.ring))


class TestSplitOverFiniteFields:
    """is_split at GF(p), read off det(G), against the diagonal it
    replaced, on seeded symmetric matrices, degenerate ones included."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_matches_diagonal_invariants(self, p):
        F = GF(p)
        rng = random.Random(p)
        seen = set()
        for n in range(1, 7):
            for k in range(40):
                # every fourth form has a repeated row and column
                rows = [[rng.randrange(p) for _ in range(n)]
                        for _ in range(n)]
                S = [[rows[min(i, j)][max(i, j)] for j in range(n)]
                     for i in range(n)]
                if n > 1 and k % 4 == 0:
                    S[-1] = S[0][:]
                    for row in S:
                        row[-1] = row[0]
                Q = GramForm(_sym_mat(F, S))
                got = is_split(Q)
                assert got == _split_by_diagonal(Q), (p, S)
                seen.add((Q.is_nondegenerate(), got))
                if Q.is_nondegenerate():
                    inv, (_, diag) = form_invariants(Q), diagonalize(Q)
                    assert inv.hasse == quadforms._hasse(diag, F) == 1
                    assert F.is_square(F.div(inv.disc, prod(diag) % p))
        assert seen == {(False, False), (True, False), (True, True)}

    def test_reads_no_diagonal(self, monkeypatch):
        calls = count_calls(monkeypatch, quadforms, "diagonalize")
        Q = GramForm(_sym_mat(GF(7), [[1, 2, 3], [2, 5, 1], [3, 1, 5]]))
        assert is_split(Q) and form_invariants(Q).hasse == 1
        assert not calls


class TestIsotropicVector:
    @pytest.mark.parametrize("ring", [GF(3), GF(5), GF(7), GF(11), GF(13)])
    def test_evaluates_to_zero(self, ring):
        rng = random.Random(2)
        for _ in range(10):
            Q = _random_nondeg_sym(ring, rng, 3)
            v = isotropic_vector(Q)
            if v is None:
                # every nondegenerate rank >= 3 form over GF is isotropic
                pytest.fail("rank-3 form over a finite field must be isotropic")
            assert ring.is_zero(Q.quad(v))
            assert any(not ring.is_zero(x) for x in v)

    def test_rational_isotropic(self):
        Q = GramForm(_sym_mat(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, -2]]))
        v = isotropic_vector(Q)
        assert v is not None and QQ.is_zero(Q.quad(v))

    def test_rational_anisotropic(self):
        Q = GramForm(_sym_mat(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert isotropic_vector(Q) is None

    def test_q2_rejected(self):
        Q = GramForm(_sym_mat(Qp(2, 24), [[1, 0], [0, -1]]))
        with pytest.raises(UsageError):
            isotropic_vector(Q)

    def test_deterministic(self):
        Q = GramForm(_sym_mat(GF(13), [[1, 2, 3], [2, 5, 1], [3, 1, 6]]))
        assert isotropic_vector(Q) == isotropic_vector(Q)


class TestSplitIsometry:
    @pytest.mark.parametrize("ring", [GF(5), GF(7), QQ, Qp(7, 20)])
    def test_maps_to_target(self, ring):
        rng = random.Random(3)
        B = standard_split_gram(ring, 3)
        for _ in range(5):
            # manufacture a split form congruent to B
            entries = [[rng.randint(-3, 3) for _ in range(3)]
                       for _ in range(3)]
            M = _sym_mat(ring, entries)
            try:
                from orbitlab.linalg import det as mat_det
                if ring.is_zero(mat_det(M)):
                    continue
            except Exception:
                continue
            Q = B.congruent(M)
            P = split_isometry(Q, B)
            got = Q.congruent(P)
            for i in range(3):
                for j in range(3):
                    assert ring.eq(got.gram[i, j], B.gram[i, j])


class TestInvariants:
    def test_hasse_isometry_invariant(self):
        K = Qp(7, 20)
        rng = random.Random(4)
        for _ in range(5):
            Q = _random_nondeg_sym(K, rng, 3)
            inv1 = form_invariants(Q)
            M = _sym_mat(K, [[rng.randint(-3, 3) for _ in range(3)]
                             for _ in range(3)])
            from orbitlab.linalg import det as mat_det
            if K.is_zero(mat_det(M)):
                continue
            inv2 = form_invariants(Q.congruent(M))
            assert inv1.hasse == inv2.hasse
            assert K.is_square(K.mul(inv1.disc, K.inv(inv2.disc)))

    def test_signature_over_r(self):
        Q = GramForm(_sym_mat(RR, [[2, 0], [0, -3]]))
        inv = form_invariants(Q)
        assert inv.signature == (1, 1)


def _legendre_solve_per_level(a: int, b: int):
    """_legendre_solve as it was: the local solubility test is read again
    at every level of Lagrange's descent, and every step may give up."""
    if a == 1:
        return (1, 1, 0)
    if b == 1:
        return (1, 0, 1)
    for pl in [RR] + [Qp(p) for p in _relevant_primes([a, b])]:
        if hilbert_symbol(Fraction(a), Fraction(b), pl) != 1:
            return None
    if abs(a) > abs(b):
        res = _legendre_solve_per_level(b, a)
        if res is None:
            return None
        x, y, z = res
        return (x, z, y)
    t = sqrt_mod(a, abs(b))
    if t is None:
        return None
    r = (t * t - a) // b
    if r == 0:
        return (t, 1, 0)
    bprime = _squarefree(r)
    m = isqrt(r // bprime)
    res = _legendre_solve_per_level(a, bprime)
    if res is None:
        return None
    x1, y1, z1 = res
    x, y, z = x1 * t + a * y1, x1 + t * y1, bprime * m * z1
    if x == 0 and y == 0 and z == 0:
        return None
    return (x, y, z)


def _squarefrees(lo, hi):
    return [d for d in range(lo, hi + 1) if d and _squarefree(d) == d]


class TestLegendreSolve:
    """One local solubility test, then a descent that cannot fail, against
    the descent that tests at every level."""

    @staticmethod
    def _check(a, b):
        got = _legendre_solve(a, b)
        assert got == _legendre_solve_per_level(a, b), (a, b)
        if got is not None:
            x, y, z = got
            assert x * x == a * y * y + b * z * z and got != (0, 0, 0)
        return got is not None

    def test_matches_per_level_descent_up_to_100(self):
        sf = _squarefrees(-100, 100)
        soluble = [self._check(a, b) for a in sf for b in sf]
        assert 0 < sum(soluble) < len(soluble)

    def test_matches_per_level_descent_on_large_pairs(self):
        rng = random.Random(0x1E6E)
        soluble = 0
        for _ in range(400):
            a, b = (_squarefree(rng.choice([-1, 1]) * rng.randint(2, 10 ** 7))
                    for _ in range(2))
            soluble += self._check(a, b)
        # soluble pairs, built as b = (t^2 - a) / k for a square t^2 mod k
        for _ in range(200):
            a = _squarefree(rng.choice([-1, 1]) * rng.randint(2, 10 ** 6))
            t = rng.randint(1, 10 ** 4)
            b = _squarefree(t * t - a)
            if b not in (0, 1):
                soluble += self._check(a, b)
        assert soluble >= 200


class TestUncertifiedFactoring:
    """An integer the library built itself, with a prime factor past the
    bound below which rings.is_prime is proven, is a PreconditionError
    (exit 3) that gives its bit size, not a usage error (exit 2)."""

    M89 = 2 ** 89 - 1  # a Mersenne prime, past the certified bound

    def test_squarefree(self):
        with pytest.raises(PreconditionError, match="89 bits"):
            _squarefree(self.M89)
        with pytest.raises(PreconditionError, match="90 bits"):
            _squarefree(-2 * self.M89)

    def test_relevant_primes(self):
        with pytest.raises(PreconditionError, match="89 bits"):
            _relevant_primes([Fraction(self.M89)])
        with pytest.raises(PreconditionError, match="89 bits"):
            _relevant_primes([3, Fraction(1, self.M89)])

    def test_certified_inputs_unchanged(self):
        assert _squarefree(-2 ** 5 * 3 ** 2 * 7) == -14
        assert _relevant_primes([Fraction(-45, 14), 11]) == [2, 3, 5, 7, 11]
