import itertools
import random
from fractions import Fraction

import pytest
import sympy

from conftest import abs_digits
from orbitlab import census, thetarep
from orbitlab.errors import PreconditionError, UsageError
from orbitlab.linalg import Mat, block_matrix, charpoly, det
from orbitlab.poly import discriminant
from orbitlab.rings import GF, QQ, Qp
from orbitlab.thetarep import (Invariants, ambient_gram, cusp_classify,
                               invariants_of, lift, regular_nilpotents, star)


def _mat(ring, rows):
    return Mat(ring, [[ring.from_fraction(Fraction(x)) for x in row]
                      for row in rows])


def _random_mat(ring, rng, n, span=5):
    if hasattr(ring, "p") and not hasattr(ring, "prec"):
        return Mat(ring, [[ring.from_int(rng.randrange(ring.p))
                           for _ in range(n)] for _ in range(n)])
    return _mat(ring, [[rng.randint(-span, span) for _ in range(n)]
                       for _ in range(n)])


class TestLift:
    def test_zero(self):
        T = lift(Mat.zero(QQ, 3, 3))
        c = invariants_of(T)
        assert all(QQ.is_zero(a) for a in c.a) and QQ.is_zero(c.e)

    def test_even_size_rejected(self):
        with pytest.raises(PreconditionError):
            lift(Mat.zero(QQ, 4, 4))

    def test_self_adjoint_for_ambient_gram(self):
        """T^t G = G T for every A: the identity that lets lift skip the
        check (A* = -B A^t B, B^2 = 1)."""
        rng = random.Random(11)
        for ring in (QQ, GF(5), Qp(5, 20)):
            for n in (3, 5):
                G = ambient_gram(ring, n)
                for _ in range(20):
                    T = lift(_random_mat(ring, rng, n)).T
                    # (Tv, w) = (v, Tw): G T symmetric
                    M = Mat(ring, [[sum_ring(ring,
                                             [ring.mul(G[i, k], T[k, j])
                                              for k in range(2 * n)])
                                    for j in range(2 * n)]
                                   for i in range(2 * n)])
                    for i in range(2 * n):
                        for j in range(2 * n):
                            assert ring.eq(M[i, j], M[j, i])

    def test_block_structure(self):
        T = lift(_mat(QQ, [[1, 2, 3], [4, 5, 6], [7, 8, 0]])).T
        n = 3
        for i in range(n):
            for j in range(n):
                assert QQ.is_zero(T[i, j])
                assert QQ.is_zero(T[n + i, n + j])


def sum_ring(ring, xs):
    out = ring.zero
    for x in xs:
        out = ring.add(out, x)
    return out


class TestInvariants:
    def test_e_equals_det(self):
        rng = random.Random(12)
        for _ in range(100):
            A = _random_mat(QQ, rng, 3)
            c = invariants_of(lift(A))
            assert c.e == det(A)
            # e^2 = constant term of f
            assert c.fpoly().coeffs[0] == c.e * c.e

    def test_charpoly_even(self):
        # invariants_of asserts evenness internally; spot-check g = f(x^2)
        rng = random.Random(13)
        A = _random_mat(QQ, rng, 3)
        c = invariants_of(lift(A))
        g = c.gpoly()
        f = c.fpoly()
        for t in (Fraction(2), Fraction(-3), Fraction(1, 2)):
            assert g.eval(t) == f.eval(t * t)

    def test_scaling_covariance_symbolic(self):
        # a_i(lam*A) = lam^(2i) a_i(A), e(lam*A) = lam^n e(A)
        lam = sympy.symbols("lam")
        rng = random.Random(14)
        A = _random_mat(QQ, rng, 3)
        c = invariants_of(lift(A))
        # det is degree n, a_i degree 2i in the entries: check numerically
        for l in (Fraction(2), Fraction(-3)):
            B = A.scale(l)
            cb = invariants_of(lift(B))
            for i, (ai, bi) in enumerate(zip(c.a, cb.a), start=1):
                assert bi == l ** (2 * i) * ai
            assert cb.e == l ** 3 * c.e

    def test_star_involution(self):
        rng = random.Random(15)
        for _ in range(10):
            A = _random_mat(QQ, rng, 3)
            assert star(star(A)).rows == A.rows

    def test_invariants_of_astar(self):
        # A and A* have the same invariants up to e-sign
        rng = random.Random(16)
        for _ in range(10):
            A = _random_mat(QQ, rng, 3)
            c1 = invariants_of(lift(A))
            c2 = invariants_of(lift(star(A)))
            assert c1.a == c2.a
            assert c1.e == -c2.e or c1.e == c2.e


def _pfaffian(M: Mat):
    """Pfaffian of an antisymmetric matrix by recursive expansion."""
    R = M.ring

    def rec(idx):
        if not idx:
            return R.one
        i0 = idx[0]
        acc = R.zero
        for pos in range(1, len(idx)):
            j = idx[pos]
            a = M.rows[i0][j]
            if R.is_zero(a):
                continue
            term = R.mul(a, rec([k for k in idx[1:] if k != j]))
            if pos % 2 == 0:
                term = R.neg(term)
            acc = R.add(acc, term)
        return acc

    return rec(list(range(M.nrows)))


def _invariants_2n(A: Mat):
    """The 2n x 2n oracle: a_i from the even coefficients of charpoly(T),
    e = Pf(G T') for T' = [[0, A], [-A*, 0]]."""
    R = A.ring
    n = A.nrows
    cp = charpoly(lift(A).T)
    assert all(R.is_zero(cp.coeff(k)) for k in range(1, 2 * n, 2))
    a = [cp.coeff(2 * (n - i)) for i in range(1, n + 1)]
    Z = Mat.zero(R, n, n)
    Tprime = block_matrix(R, [[Z, A], [-star(A), Z]])
    e = _pfaffian(ambient_gram(R, n) * Tprime)
    return a[: n - 1], e


def _padic_mat(ring, rng, n):
    """Entries u * 5^k with k in [-1, 2], exact zeros now and then."""
    return _mat(ring, [[0 if rng.random() < 0.1 else
                        Fraction(rng.randint(-60, 60) or 1)
                        * Fraction(5) ** rng.randint(-1, 2)
                        for _ in range(n)] for _ in range(n)])


class TestInvariantsAgainst2n:
    """invariants_of (charpoly(A*A) and a cofactor det(BA)) against the
    2n x 2n charpoly and Pfaffian it replaced: equal a_i and e, sign
    included; over Q_p each new value has at least the oracle's digits."""

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("ring", [QQ, GF(7), Qp(5, 20)],
                             ids=lambda k: k.tag)
    def test_matches_oracle(self, ring, n):
        rng = random.Random(60 + n)
        for _ in range(20):
            A = (_padic_mat(ring, rng, n) if ring.is_padic
                 else _random_mat(ring, rng, n))
            c = invariants_of(lift(A))
            a, e = _invariants_2n(A)
            for new, old in zip(list(c.a) + [c.e], a + [e]):
                assert ring.eq(new, old)
                if ring.is_padic:
                    dn, do = abs_digits(new), abs_digits(old)
                    assert dn is None or (do is not None and dn >= do)
                else:
                    assert new == old


class TestRegularNilpotents:
    @pytest.mark.parametrize("n", [3, 5])
    def test_jordan_type(self, n):
        data = regular_nilpotents(n, QQ)
        for E in (data.E1, data.E2):
            M = Mat.identity(QQ, 2 * n)
            powers = [M]
            for _ in range(2 * n):
                M = _matmul(QQ, M, E)
                powers.append(M)
            # partition (2n-1, 1): E^(2n-2) != 0, E^(2n-1) = 0
            assert not _is_zero_mat(QQ, powers[2 * n - 2])
            assert _is_zero_mat(QQ, powers[2 * n - 1])

    @pytest.mark.parametrize("n", [3, 5])
    def test_sl2_relations(self, n):
        data = regular_nilpotents(n, QQ)
        for E, H, F in ((data.E1, data.H1, data.F1),
                        (data.E2, data.H2, data.F2)):
            assert _commutator(QQ, H, E).rows == E.scale(
                QQ.from_int(2)).rows
            assert _commutator(QQ, H, F).rows == F.scale(
                QQ.from_int(-2)).rows
            assert _commutator(QQ, E, F).rows == H.rows

    @pytest.mark.parametrize("n", [3, 5])
    def test_slice_dimension(self, n):
        data = regular_nilpotents(n, QQ)
        assert len(data.slice1) == n
        assert len(data.slice2) == n


def _matmul(ring, A, B):
    n = A.nrows
    return Mat(ring, [[sum_ring(ring, [ring.mul(A[i, k], B[k, j])
                                       for k in range(n)])
                       for j in range(n)] for i in range(n)])


def _commutator(ring, A, B):
    AB = _matmul(ring, A, B)
    BA = _matmul(ring, B, A)
    n = A.nrows
    return Mat(ring, [[ring.sub(AB[i, j], BA[i, j]) for j in range(n)]
                      for i in range(n)])


def _is_zero_mat(ring, M):
    return all(ring.is_zero(x) for row in M.rows for x in row)


class TestCuspClassify:
    def test_zero_matrix(self):
        assert cusp_classify(Mat.zero(QQ, 3, 3)) == "disc-zero-forced"

    def test_red2_pattern(self):
        # top-right 1x2 block zero (m = 1): forced 1-distinguished
        A = _mat(QQ, [[1, 0, 0], [2, 3, 4], [5, 6, 7]])
        assert cusp_classify(A) == "distinguished-forced-1"

    def test_generic_none(self):
        rng = random.Random(17)
        F7 = GF(7)
        hits = 0
        for _ in range(30):
            A = _random_mat(F7, rng, 3)
            if cusp_classify(A) == "none":
                hits += 1
                c = invariants_of(lift(A))
                g = c.gpoly()
                # generically disc(g) != 0 -- count, don't assert each
                if not F7.is_zero(discriminant(c.fpoly())):
                    pass
        assert hits > 15


def _witness_by_points(T, i):
    """distinguished_witness's exhaustive search as it was: every projective
    point v in lexicographic order goes through _check_witness, with
    Mat.apply and the ring's dot."""
    ring, n = T.ring, T.n
    M = T.t_squared_block(i)
    Bi = thetarep._gram_vi(ring, n, i)
    for v in itertools.product(range(ring.p), repeat=3):
        if next((c for c in v if c != 0), 0) != 1:
            continue
        vv = [ring.from_int(c) for c in v]
        if thetarep._check_witness(ring, Bi, M, [vv]):
            return "found", [vv]
    return "none", None


def _assert_witnesses_match(A):
    T = lift(A)
    for i in (1, 2):
        got = thetarep.distinguished_witness(T, i)
        assert (got.status, got.basis) == _witness_by_points(T, i), (A, i)


class TestWitnessSearch:
    """The integer-form scan of distinguished_witness against the search
    it replaced: identical status and basis."""

    @pytest.mark.parametrize("p", [3, 5])
    def test_every_rs_fiber_representative(self, p):
        F = GF(p)
        fibers = 0
        for a1, a2, e in itertools.product(range(p), range(p), range(1, p)):
            c = Invariants(F, (a1, a2), e)
            if F.is_zero(discriminant(c.fpoly())):
                continue
            fibers += 1
            for rep in census.bruteforce_orbits(p, 3, c)[2]:
                _assert_witnesses_match(Mat.from_ints(F, rep.tolist()))
        assert fibers == {3: 14, 5: 84}[p]

    @pytest.mark.parametrize("p", [7, 11, 13])
    def test_seeded_matrices(self, p):
        F = GF(p)
        rng = random.Random(p)
        statuses = set()
        for _ in range(40):
            A = _random_mat(F, rng, 3)
            _assert_witnesses_match(A)
            statuses.add(thetarep.distinguished_witness(lift(A), 1).status)
        assert statuses == {"found", "none"}
