import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls
from orbitlab import quadforms
from orbitlab.errors import PreconditionError, UsageError
from orbitlab.linalg import Mat, det
from orbitlab.quadforms import (GramForm, diagonalize, form_invariants,
                                is_split, isotropic_vector, split_isometry,
                                standard_split_gram)
from orbitlab.rings import GF, QQ, RR, Qp


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
    # the ids keep the numbering the rows had while Q was one of them
    @pytest.mark.parametrize("ring", [GF(3), GF(5), RR, Qp(7, 20)],
                             ids=["ring0", "ring1", "ring3", "ring4"])
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


def _split_by_diagonal(Q: GramForm) -> bool:
    """is_split at GF(p) as it was: the discriminant and Hasse invariant of
    a fresh diagonalization."""
    if not Q.is_nondegenerate():
        return False
    F, (_, diag) = Q.ring, diagonalize(Q)
    return quadforms._is_split_at(quadforms.FormInvariants(
        len(diag), prod(diag) % F.p, quadforms._hasse(diag, F), None, F))


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

    def test_q2_rejected(self):
        Q = GramForm(_sym_mat(Qp(2, 24), [[1, 0], [0, -1]]))
        with pytest.raises(UsageError):
            isotropic_vector(Q)

    def test_deterministic(self):
        Q = GramForm(_sym_mat(GF(13), [[1, 2, 3], [2, 5, 1], [3, 1, 6]]))
        assert isotropic_vector(Q) == isotropic_vector(Q)


class TestSplitIsometry:
    @pytest.mark.parametrize("ring", [GF(5), GF(7), Qp(7, 20)],
                             ids=["ring0", "ring1", "ring3"])  # as in TestSplit
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


class TestGlobalPlaceRefused:
    """Q carries no quadratic-form facts of its own: splitness, invariants
    and isotropic vectors at the global place are refused."""

    B = standard_split_gram(QQ, 3)

    def test_is_split(self):
        with pytest.raises(UsageError, match="over Q"):
            is_split(self.B)

    def test_form_invariants(self):
        with pytest.raises(UsageError, match="over Q"):
            form_invariants(self.B)

    def test_isotropic_vector(self):
        with pytest.raises(UsageError, match="over Q"):
            isotropic_vector(self.B)

    def test_split_isometry(self):
        M = _sym_mat(QQ, [[1, 2, 0], [0, 1, 3], [1, 0, 1]])
        with pytest.raises(UsageError, match="over Q"):
            split_isometry(self.B.congruent(M), self.B)

