import gc
import io
import random
import weakref
from fractions import Fraction

import pytest

from conftest import SEED, count_calls, is_rs, random_rs_invariants
from orbitlab import orbits, quadforms
from orbitlab.cli import dispatch
from orbitlab.errors import PrecisionError, PreconditionError, UsageError
from orbitlab.etale import EtaleAlgebra, norm_one_classes, square_class
from orbitlab.orbits import (algebra_of, alpha1_construct, delta_map,
                             distinguished_coincide, neg_gamma,
                             orbit_from_class, recompute_class,
                             stabilizer_info)
from orbitlab.quadforms import GramForm, is_split, standard_split_gram
from orbitlab.rings import GF, QQ, RR, Qp
from orbitlab.thetarep import (Invariants, distinguished_witness,
                               invariants_of, star)


def _same_invariants(c1, c2):
    ring = c1.ring
    return all(ring.eq(a, b) for a, b in zip(c1.a + (c1.e,), c2.a + (c2.e,)))


class TestDeltaMap:
    def test_disc_normalization_and_kernel(self, base_c_f5, f5):
        L = algebra_of(base_c_f5)
        s = f5.neg(f5.one)  # (-1)^(3*2/2) = -1
        for cls in norm_one_classes(L):
            g1, g2, in_ker = delta_map(base_c_f5, cls.rep)
            d1, d2 = g1.det(), g2.det()
            assert f5.is_square(f5.mul(s, d1))
            assert f5.is_square(f5.mul(f5.neg(s), d2))
            assert in_ker == (is_split(g1) and is_split(g2))

    def test_all_classes_in_kernel_over_gf(self, base_c_f5):
        # odd-rank forms over a finite field are always split
        L = algebra_of(base_c_f5)
        for cls in norm_one_classes(L):
            _, _, in_ker = delta_map(base_c_f5, cls.rep)
            assert in_ker

    def test_builds_no_diagonal_over_gf(self, monkeypatch):
        """Splitness over GF(p) reads det(G): delta_map diagonalizes
        neither trace form, on every class of a seeded fiber at GF(5)."""
        F = GF(5)
        c = random_rs_invariants(F, random.Random(SEED))
        classes = norm_one_classes(algebra_of(c))
        calls = count_calls(monkeypatch, quadforms, "diagonalize")
        assert all(delta_map(c, cls.rep)[2] for cls in classes)
        assert len(classes) > 1 and calls == []


class TestRoundTrip:
    def test_f5_all_classes(self, base_c_f5, f5):
        L = algebra_of(base_c_f5)
        for cls in norm_one_classes(L):
            rep = orbit_from_class(base_c_f5, cls.rep)
            back = invariants_of(rep)
            assert _same_invariants(back, base_c_f5)
            rec = recompute_class(rep)
            assert rec.labels == cls.labels

    def test_random_f5(self, f5):
        rng = random.Random(SEED)
        for _ in range(30):
            c = random_rs_invariants(f5, rng)
            rep = alpha1_construct(c)
            assert _same_invariants(invariants_of(rep), c)

    def test_random_q(self):
        rng = random.Random(SEED + 1)
        for _ in range(20):
            c = random_rs_invariants(QQ, rng, span=5)
            rep = alpha1_construct(c)
            assert _same_invariants(invariants_of(rep), c)

    def test_random_q7(self, q7):
        rng = random.Random(SEED + 2)
        for _ in range(10):
            c = random_rs_invariants(q7, rng, span=5)
            rep = alpha1_construct(c)
            back = invariants_of(rep)
            assert _same_invariants(back, c)

    def test_adjoint_star_identity(self, base_c_f5):
        L = algebra_of(base_c_f5)
        for cls in norm_one_classes(L):
            rep = orbit_from_class(base_c_f5, cls.rep)
            # A and A* determine the same lift data
            assert rep.Astar.rows == star(rep.A).rows

    def test_non_rs_rejected(self, f5):
        c = Invariants(f5, (f5.zero, f5.zero), f5.zero)
        with pytest.raises(PreconditionError):
            alpha1_construct(c)


class TestQuinticRoundTrip:
    """n = 5, where brute force cannot reach: on 8 seeded regular
    semisimple fibers at each of GF(7), GF(11) and GF(13), every norm-one
    class is read back from its constructed orbit, whose e is exactly e(c)."""

    @pytest.mark.parametrize("p", [7, 11, 13])
    def test_every_class(self, p):
        F, rng = GF(p), random.Random(SEED + 38 + p)
        for _ in range(8):
            c = random_rs_invariants(F, rng, n=5)
            for cls in norm_one_classes(algebra_of(c)):
                rep = orbit_from_class(c, cls.rep)
                assert recompute_class(rep).labels == cls.labels, (c, cls)
                assert rep.invariants.e == c.e, (c, cls)


class TestSplitModel:
    """orbit_from_class frames the split models B and -B of V1 and V2 once
    per (ring, n); the trace forms are framed on every call."""

    @staticmethod
    def _model_frames(monkeypatch, n):
        """Rings of the split_frame calls on B or -B of rank n."""
        calls = count_calls(monkeypatch, quadforms, "split_frame")
        out = []

        def seen():
            del out[:]
            for (Q,) in calls:
                B = standard_split_gram(Q.ring, n).gram
                if Q.rank == n and Q.gram in (B, -B):
                    out.append((Q.ring, getattr(Q.ring, "prec", None)))
            return out
        return seen

    def test_repeated_construct_frames_once(self, monkeypatch):
        # cubics at Q_5 and GF(5) take the search (5 divides a constant
        # of the Kostant section)
        orbits._split_models.cache_clear()
        seen = self._model_frames(monkeypatch, 3)
        for base in ("Qp:5:20", "Qp:5:20", "F:5", "Qp:5:20", "F:5"):
            argv = ["orbit", "construct", "--f", "1,0,-1,1", "--e", "1",
                    "--base", base]
            assert dispatch(argv, io.StringIO()) == 0
        assert sorted(seen(), key=repr) == [(GF(5), None)] * 2 + \
            [(Qp(5, 20), 20)] * 2

    @pytest.mark.parametrize("cls", [[], ["--class=-gamma"]])
    @pytest.mark.parametrize("base, f, e", [("Q", "1,0,-1,1", "1"),
                                            ("Qp:7", "1,0,-1,1", "1"),
                                            ("F:5", "1,4,1,4", "2")])
    def test_construct_diagonalizes_each_trace_form_once(
            self, monkeypatch, base, f, e, cls):
        """is_split and the isotropic search of split_frame share the one
        diagonalization kept on each of the two trace forms; the Kostant
        section, which cubics over Q and Q_7 take, diagonalizes none."""
        argv = ["orbit", "construct", "--f", f, "--e", e, *cls,
                "--base", base]
        assert dispatch(argv, io.StringIO()) == 0  # frames the split models
        calls = count_calls(monkeypatch, quadforms, "diagonalize")
        assert dispatch(argv, io.StringIO()) == 0
        assert len(calls) == (2 if base == "F:5" else 0)

    @pytest.mark.parametrize("ring", [Qp(7, 20)], ids=["Qp:7"])
    def test_search_diagonalizes_each_trace_form_once(self, monkeypatch,
                                                      ring):
        c = Invariants(ring, (ring.zero, ring.from_int(-1)), ring.one)
        L = algebra_of(c)
        for nu in (L.one(), neg_gamma(L)):
            orbits._orbit_by_search(c, nu)  # frames the split models
            calls = count_calls(monkeypatch, quadforms, "diagonalize")
            orbits._orbit_by_search(c, nu)
            assert len(calls) == 2
            monkeypatch.undo()

    def test_escalated_precision_frames_afresh(self, monkeypatch):
        """Q_p rings of one p compare equal whatever their precision; a
        construction over Qp(p, 2 * prec) still gets its own models, at its
        own precision."""
        orbits._split_models.cache_clear()
        seen = self._model_frames(monkeypatch, 3)
        q5 = Qp(5, 20)  # the search: 5 divides a constant of the section
        c = Invariants(q5, (q5.from_int(0), q5.from_int(-1)), q5.one)
        alpha1_construct(c)
        assert [prec for _, prec in seen()] == [20, 20]
        wide = Qp(5, 40)
        c2 = Invariants(wide, tuple(wide.from_fraction(a.to_fraction())
                                    for a in c.a), wide.one)
        alpha1_construct(c2)
        alpha1_construct(c2)
        assert [prec for _, prec in seen()] == [20, 20, 40, 40]


class TestPrecisionErrors:
    def test_precision_error_keeps_the_invariants(self, monkeypatch, q7):
        """A PrecisionError inside alpha1_construct reaches the caller, or
        the representative still has c's invariants. Re-embedding -1 of
        Qp(7, 20) through to_fraction() gives 7^20 - 1, another f."""
        real = orbits.orbit_from_class
        raised = []

        def flaky(c, nu):
            if not raised:
                raised.append(True)
                raise PrecisionError("injected")
            return real(c, nu)

        monkeypatch.setattr(orbits, "orbit_from_class", flaky)
        c = Invariants(q7, (q7.from_int(0), q7.from_int(-1)), q7.one)
        try:
            rep = alpha1_construct(c)
        except PrecisionError:
            return
        R, got = rep.ring, invariants_of(rep)
        for x, want in zip(got.a + (got.e,), (0, -1, 1)):
            assert R.is_zero(R.sub(x, R.from_int(want))), (x, want)


class TestDistinguished:
    def test_alpha1_is_1_distinguished(self, f5):
        rng = random.Random(SEED + 3)
        for _ in range(15):
            c = random_rs_invariants(f5, rng)
            rep = alpha1_construct(c)
            assert distinguished_witness(rep, 1).status == "found"

    def test_neg_gamma_is_2_distinguished(self, f5):
        rng = random.Random(SEED + 4)
        for _ in range(15):
            c = random_rs_invariants(f5, rng)
            L = algebra_of(c)
            rep = orbit_from_class(c, neg_gamma(L))
            assert distinguished_witness(rep, 2).status == "found"

    def test_distinguished_coincide_iff_neg_gamma_square(self, f5):
        rng = random.Random(SEED + 5)
        for _ in range(20):
            c = random_rs_invariants(f5, rng)
            L = algebra_of(c)
            cls = square_class(L, neg_gamma(L))
            expected = all(lab == 0 for lab in cls.labels)
            assert distinguished_coincide(c) == expected


class TestStabilizer:
    def test_split_cubic(self, base_c_f5):
        info = stabilizer_info(base_c_f5)
        assert sorted(info.factor_degrees) == [1, 1, 1]
        assert info.order == 4
        assert info.order_closure == 4

    def test_irreducible_over_q(self, base_c_q):
        info = stabilizer_info(base_c_q)
        assert info.factor_degrees == (3,)
        assert info.order == 1
        assert info.order_closure == 4

    def test_base_change(self, base_c_q):
        # f = x^3 - x + 1 factors as (deg 1)(deg 2) over F_5 and Q_5
        info5 = stabilizer_info(base_c_q, base=GF(5))
        assert sorted(info5.factor_degrees) == [1, 2]
        assert info5.order == 2
        # over R: one real root -> one factor of each kind
        infor = stabilizer_info(base_c_q, base=RR)
        assert infor.order == 2 ** (len(infor.factor_degrees) - 1)

    def test_real_base_needs_rational_invariants(self):
        """Only a Q-algebra localizes: over R as over GF(p) and Q_p."""
        K = Qp(5, 20)
        c = Invariants(K, (K.zero, K.from_int(-1)), K.one)
        for base in (RR, GF(5)):
            with pytest.raises(UsageError, match="rational invariants"):
                stabilizer_info(c, base=base)


class TestAlgebraSharing:
    """algebra_of builds k[x]/(f) once and hands out the same object."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The f of every EtaleAlgebra built, with an empty registry so
        that algebras held by other tests' invariants are not found."""
        out = []
        init = EtaleAlgebra.__init__

        def counting(self, f, **kwargs):
            out.append(f)
            init(self, f, **kwargs)

        monkeypatch.setattr(EtaleAlgebra, "__init__", counting)
        monkeypatch.setattr(orbits, "_ALGEBRAS",
                            weakref.WeakValueDictionary())
        return out

    def test_orbit_construct_builds_one(self, built):
        out = io.StringIO()
        argv = ["orbit", "construct", "--f", "1,0,-1,1", "--e", "1",
                "--base", "Q"]
        assert dispatch(argv, out) == 0
        # the recomputed invariants have c's e = 1 and share the algebra
        assert '"e": "1"' in out.getvalue()
        assert len(built) == 1

    def test_fiber_op_builds_one(self, built, base_c_f5):
        c = Invariants(base_c_f5.ring, base_c_f5.a, base_c_f5.e)
        L = algebra_of(c)
        inker = sum(1 for cl in norm_one_classes(L)
                    if delta_map(c, cl.rep)[2])
        assert inker == 4
        distinguished_coincide(c)
        assert algebra_of(c) is L
        assert [f for f in built if f == c.fpoly()] == [c.fpoly()]

    def test_registry_entry_goes_with_last_invariants(self, built,
                                                      base_c_f5):
        """Once its last invariants are dropped, an algebra whose square
        class coordinates were built leaves the registry at once, not when
        the cyclic garbage collector next runs."""
        gc.disable()
        try:
            c = Invariants(base_c_f5.ring, base_c_f5.a, base_c_f5.e)
            L = algebra_of(c)
            assert len(norm_one_classes(L)) == 4
            assert "coordinates" in vars(L)
            assert len(orbits._ALGEBRAS) == 1
            del c, L
            assert len(orbits._ALGEBRAS) == 0
        finally:
            gc.enable()

    def test_padic_invariants_keep_their_own(self, q7):
        c = Invariants(q7, (q7.from_int(0), q7.from_int(-1)), q7.from_int(1))
        twin = Invariants(q7, c.a, c.e)
        assert algebra_of(c) is algebra_of(c)
        assert algebra_of(twin) is not algebra_of(c)
