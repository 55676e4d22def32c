import io
import random
import weakref
from fractions import Fraction

import pytest

from conftest import SEED, count_calls, random_rs_invariants
from orbitlab import descent, etale, orbits, poly
from orbitlab.cli import dispatch
from orbitlab.descent import (LocalImage, MarkedCurve, descent_class,
                              local_image, local_mw_size, sel12_local,
                              two_torsion_size)
from orbitlab.errors import PrecisionError, PreconditionError, UsageError
from orbitlab.etale import EtaleAlgebra, square_class
from orbitlab.orbits import algebra_of
from orbitlab.poly import Poly
from orbitlab.rings import GF, QQ, RR, Qp
from orbitlab.thetarep import Invariants


def _neg_gamma_class(c, place=None):
    L = algebra_of(c)
    ring = c.ring
    ng = L.mul(L.gamma(), L.scalar(ring.neg(ring.one)))
    return square_class(L, ng, place)


class TestMarkedCurve:
    def test_validation(self):
        with pytest.raises(PreconditionError):
            MarkedCurve(Invariants(QQ, (Fraction(0), Fraction(0)),
                                   Fraction(0)), 1)
        with pytest.raises(UsageError):
            MarkedCurve(Invariants(QQ, (Fraction(0), Fraction(-1)),
                                   Fraction(1)), 3)

    @pytest.mark.parametrize("ring", [QQ, GF(7), Qp(5, 20)],
                             ids=lambda k: k.tag)
    def test_inseparable_f_refused(self, ring):
        # f = (x - 1)^2 (x + 1) = x^3 - x^2 - x + 1, e = 1
        c = Invariants(ring, (ring.from_int(-1), ring.from_int(-1)),
                       ring.one)
        for which in (1, 2):
            with pytest.raises(PreconditionError,
                               match="^curve requires separable f$"):
                MarkedCurve(c, which)

    def test_genus(self):
        c = Invariants(QQ, (Fraction(0), Fraction(-1)), Fraction(1))
        assert MarkedCurve(c, 1).genus == 1
        assert MarkedCurve(c, 2).genus == 1

    def test_hpoly(self):
        c = Invariants(QQ, (Fraction(0), Fraction(-1)), Fraction(1))
        f = MarkedCurve(c, 1).hpoly()
        xf = MarkedCurve(c, 2).hpoly()
        t = Fraction(3)
        assert xf.eval(t) == t * f.eval(t)


class TestDescentClass:
    @pytest.mark.parametrize("ring", [GF(5), Qp(3, 20), RR])
    def test_marked_point_maps_to_neg_gamma(self, ring):
        rng = random.Random(SEED + 30)
        for _ in range(15):
            if ring is RR:
                c = random_rs_invariants(QQ, rng, span=5)
                cc = Invariants(RR, tuple(RR.from_fraction(a) for a in c.a),
                                RR.from_fraction(c.e))
            else:
                cc = random_rs_invariants(ring, rng, span=5)
            try:
                for which in (1, 2):
                    curve = MarkedCurve(cc, which)
                    cls = descent_class("marked", curve)
                    assert cls.labels == _neg_gamma_class(cc).labels
            except (PreconditionError, PrecisionError):
                # inseparable reduction mod p: the factor layer declines
                continue
            # N(-gamma) = f(0) = e^2, a square
            L = algebra_of(cc)
            ng = L.mul(L.gamma(), L.scalar(cc.ring.neg(cc.ring.one)))
            norm = L.norm(ng)
            assert cc.ring.eq(norm, cc.ring.mul(cc.e, cc.e))
            assert cc.ring.is_square(norm)

    def test_affine_point_class(self, f5):
        # y^2 = f(x) over F_5 with f = x^3+4x^2+x+4: find a point and map it
        c = Invariants(f5, (f5.from_int(4), f5.from_int(1)), f5.from_int(2))
        curve = MarkedCurve(c, 1)
        f = curve.fpoly()
        found = 0
        for x0 in range(5):
            fx = f.eval(f5.from_int(x0))
            if f5.is_zero(fx) or not f5.is_square(fx):
                continue
            y0 = f5.sqrt(fx)
            cls = descent_class((f5.from_int(x0), y0), curve)
            assert all(lab in (0, 1) for lab in cls.labels)
            found += 1
        assert found > 0

    def test_bad_point_rejected(self, f5):
        c = Invariants(f5, (f5.from_int(4), f5.from_int(1)), f5.from_int(2))
        curve = MarkedCurve(c, 1)
        with pytest.raises(PreconditionError):
            descent_class((f5.from_int(0), f5.from_int(1)), curve)


class TestLocalSizes:
    def test_two_torsion(self, base_c_f5, base_c_q):
        assert two_torsion_size(base_c_f5) == 4
        assert two_torsion_size(base_c_q) == 1
        assert two_torsion_size(base_c_q, place=GF(5)) == 2

    def test_bv_factors(self, base_c_q):
        # |J/2J| = b_v * |J[2]|: 1 at odd p, 2^g at 2, 2^-g over R
        assert local_mw_size(base_c_q, Qp(5, 20), 1) == 2
        assert local_mw_size(base_c_q, Qp(2, 24), 1) == \
            2 * two_torsion_size(base_c_q, place=Qp(2, 24))
        tsr = two_torsion_size(base_c_q, place=RR)
        assert local_mw_size(base_c_q, RR, 1) == tsr // 2


class TestLocalImage:
    def test_gf_full_group(self, base_c_f5):
        im = local_image(base_c_f5, None, 1)
        assert im.complete and len(im.classes) == 4

    def test_good_reduction_unramified(self, base_c_q):
        im = local_image(base_c_q, Qp(7, 20), 1)
        assert im.complete
        assert len(im.classes) == im.target
        for cls in im.classes:
            assert all(lab[0] == 0 for lab in cls.labels)

    def test_real_image(self, base_c_q):
        im = local_image(base_c_q, RR, 1)
        assert im.complete and len(im.classes) == im.target

    def test_two_adic_image(self, base_c_q):
        im = local_image(base_c_q, Qp(2, 24), 1)
        assert im.complete
        assert len(im.classes) == im.target

    def test_group_closure(self, base_c_q):
        im = local_image(base_c_q, Qp(7, 20), 1)
        classes = im.classes
        for c1 in classes:
            for c2 in classes:
                assert im.contains(c1 * c2)

    def test_contains_marked_class(self, base_c_q):
        for place in (Qp(7, 20), RR):
            im = local_image(base_c_q, place, 2)
            assert im.contains(_neg_gamma_class(base_c_q, place))

    def test_two_adic_image_keeps_its_precision(self):
        # f = x^3 - 5x^2 - 5x + 4 at Q_2 (factors of degree 1 and 2): a
        # class built by multiplying raw representatives reached
        # valuation 20 and lost every digit at Qp(2, 20); the answer below
        # is the one the product closure gives at Qp(2, 40) and Qp(2, 80)
        c = Invariants(QQ, (Fraction(-5), Fraction(-5)), Fraction(2))
        data = local_image(c, Qp(2, 20), 1).serialize()
        assert data["complete"] is True and data["target"] == 4
        assert data["classes"] == [
            "((0, (0,), 0), (0, (0, 0), 0))",
            "((0, (0,), 1), (0, (0, 0), 1))",
            "((0, (1,), None), (0, (1, 1), None))",
            "((0, (1,), None), (0, (1, 1), None))"]

    def test_serialize_shape(self, base_c_q):
        im = local_image(base_c_q, Qp(7, 20), 1)
        data = im.serialize()
        assert data["place"] == "Qp:7"
        assert data["complete"] is True
        assert sorted(data["classes"]) == data["classes"]


class TestLocalizedAlgebraBuilds:
    """local_image localizes k[x]/(f) once, however many points it tries."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """The arguments (self, f) of every EtaleAlgebra build and the Q_p
        point candidates drawn, with an empty registry of global
        algebras."""
        built = count_calls(monkeypatch, EtaleAlgebra, "__init__")
        tried = []
        candidates = descent._qp_candidates

        def counting_candidates(*args):
            for x0 in candidates(*args):
                tried.append(x0)
                yield x0

        monkeypatch.setattr(orbits, "_ALGEBRAS",
                            weakref.WeakValueDictionary())
        monkeypatch.setattr(descent, "_qp_candidates", counting_candidates)
        return built, tried

    @pytest.mark.parametrize("f,e,place,which,builds", [
        # f over Q and over Q_7, where it splits into linear factors
        ("1,1,1,49", "7", "7", "2", ["Q", "Qp:7"]),
        # f over Q and over Q_2, plus the field of its quadratic factor
        ("1,-5,-5,4", "2", "2", "1", ["Q", "Qp:2", "Qp:2"])])
    def test_builds_do_not_grow_with_candidates(self, counted, f, e, place,
                                                which, builds):
        built, tried = counted
        drawn = []
        for budget in ("1", "2000"):
            built.clear()
            tried.clear()
            argv = ["descent", "local", "--f", f, "--e", e, "--place", place,
                    "--which", which, "--budget", budget]
            assert dispatch(argv, io.StringIO()) == 0
            assert [f.ring.tag for _, f in built] == builds
            drawn.append(len(tried))
        assert drawn[0] < drawn[1]

    def test_sel12_localizes_once(self, counted):
        """Both curves' images share the Q_7 algebra of f: x^3 - x + 1 has
        good reduction at 7 for both curves, and the norm images there are
        read off the factor degrees, so the field of its quadratic factor
        is not built."""
        built, _ = counted
        argv = ["descent", "sel12", "--f", "1,0,-1,1", "--e", "1",
                "--place", "7"]
        assert dispatch(argv, io.StringIO()) == 0
        assert [(f.ring.tag, f.degree) for _, f in built] == [
            ("Q", 3), ("Qp:7", 3)]

    def test_good_reduction_lists_without_generators(self, counted,
                                                     monkeypatch):
        """At a good odd p the norm images come from the factor degrees:
        listing the norm-one classes pads no generator and takes no norm
        (the labels need no representative)."""
        listed, inside = [], []
        listing = descent.norm_one_classes

        def spy_listing(alg):
            inside.append(alg)
            try:
                return listing(alg)
            finally:
                listed.append(inside.pop())

        calls = {}
        for owner, name in ((etale, "_pad_const"),
                            (EtaleAlgebra, "norm_in_factor")):
            original = getattr(owner, name)

            def spy(*args, _original=original, _name=name):
                if inside:
                    calls[_name] = calls.get(_name, 0) + 1
                return _original(*args)

            monkeypatch.setattr(owner, name, spy)
        monkeypatch.setattr(descent, "norm_one_classes", spy_listing)
        argv = ["descent", "local", "--f", "1,0,-1,1", "--e", "1",
                "--place", "7"]
        assert dispatch(argv, io.StringIO()) == 0
        assert [L.ring.tag for L in listed] == ["Qp:7"]
        assert calls == {}

    @pytest.mark.parametrize("argv", [
        ["local", "--f", "1,0,-1,1", "--e", "1", "--place", "7",
         "--which", "1"],
        ["local", "--f", "1,1,1,49", "--e", "7", "--place", "7",
         "--which", "2"],
        ["local", "--f", "1,-5,-5,4", "--e", "2", "--place", "2",
         "--which", "1"],
        ["sel12", "--f", "1,0,-1,1", "--e", "1", "--place", "7"]],
        ids=["good-7", "sampled-7", "dyadic", "sel12-7"])
    def test_factors_over_qp_once(self, counted, monkeypatch, argv):
        """|J[2](k_v)| and the image read one factorization of f over Q_p,
        that of c's localized algebra, for one curve as for both."""
        factored = count_calls(monkeypatch, poly, "_factor_qp")
        assert dispatch(["descent", *argv], io.StringIO()) == 0
        assert [(f.ring.tag, f.degree) for f, in factored] == [
            ("Qp:" + argv[argv.index("--place") + 1], 3)]

    @pytest.mark.parametrize("which, isolations", [("1", 1), ("2", 2)])
    def test_real_roots_isolated_once_per_polynomial(self, counted,
                                                     monkeypatch, which,
                                                     isolations):
        """Curve 1 at R samples around the roots of f that the R-localized
        algebra isolated; curve 2's x f has its own."""
        calls = [count_calls(monkeypatch, module, "real_roots_exact")
                 for module in (etale, descent)]
        argv = ["descent", "local", "--f", "1,0,-4,1", "--e", "1",
                "--place", "R", "--which", which]
        assert dispatch(argv, io.StringIO()) == 0
        assert sum(map(len, calls)) == isolations

    def test_localize_keys_by_precision(self):
        """Qp(5, 10) == Qp(5, 40), but each gets its own algebra."""
        L = EtaleAlgebra(Poly.from_ints(QQ, [1, -1, 0, 1]))
        assert L.localize(Qp(5, 10)).ring.prec == 10
        assert L.localize(Qp(5, 40)).ring.prec == 40
        assert L.localize(Qp(5, 10)) is L.localize(Qp(5, 10))


def _qp_good_reduction(c, ring, which):
    """descent._good_reduction as it was: c read again as Q_p invariants,
    whose disc(f) is a Q_p discriminant."""
    if not ring.is_padic or ring.is_dyadic:
        return False
    if c.ring == ring:
        conv = c
    elif not c.ring.is_global:
        raise UsageError("place change requires rational invariants")
    else:
        conv = Invariants(ring, tuple(ring.from_fraction(a) for a in c.a),
                          ring.from_fraction(c.e))
    if any(a.valuation() < 0 for a in conv.a if not a.is_zero()):
        return False
    if conv.e.is_zero() or conv.e.valuation() < 0:
        return False
    if which == 2 and conv.e.valuation() != 0:
        return False
    return not conv.disc.is_zero() and conv.disc.valuation() == 0


def _decision(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type
        return type(exc)


class TestGoodReduction:
    def test_rational_valuations_match_qp_invariants(self):
        """Over seeded (a1, a2, e, p, which) the exact rational reading
        decides as the Q_p invariants did, exceptions included: p | e,
        p | disc, p in a denominator, e = 0, disc = 0, at the odd p where
        local_image asks."""
        rng = random.Random(SEED + 18)
        seen = {}
        for _ in range(6000):
            p = rng.choice((3, 3, 5, 5, 7, 11))
            ring = Qp(p, 20)

            def scalar():
                return Fraction(rng.randint(-12, 12),
                                rng.choice((1, 1, 1, 1, 2, p, p * p)))
            if rng.random() < 0.1:  # (x - r)^2 (x + s^2): disc = 0
                r, s = rng.randint(-4, 4), rng.randint(1, 3)
                a = (Fraction(s * s - 2 * r), Fraction(r * r - 2 * r * s * s))
                e = Fraction(r * s)
            elif rng.random() < 0.1:  # a1 in p^-2 Z_p with a unit disc(f)
                a = (Fraction(rng.randint(-12, 12), p * p),
                     Fraction(rng.randint(-12, 12)))
                e = Fraction(p * rng.randint(1, 3))
            else:
                a = (scalar(), scalar())
                e = rng.choice((Fraction(0), p * scalar(), scalar()))
            c = Invariants(QQ, a, e)
            which = rng.randint(1, 2)
            got = _decision(descent._good_reduction, c, ring, which)
            assert got == _decision(_qp_good_reduction, c, ring, which)
            d = c.disc
            a_at_p = any(x.denominator % p == 0 for x in a)
            tags = {"e=0": e == 0,
                    "p|e": e != 0 and e.numerator % p == 0,
                    "p|disc": d != 0 and d.numerator % p == 0,
                    "disc=0": d == 0,
                    "1/p": a_at_p or e.denominator % p == 0,
                    "1/p, unit disc": a_at_p and d != 0
                    and d.numerator * d.denominator % p != 0,
                    "good": got is True}
            for tag, hit in tags.items():
                seen[tag] = seen.get(tag, 0) + hit
        assert min(seen.values()) >= 40, seen


class TestSel12:
    def test_intersection_subset(self, base_c_q):
        place = Qp(7, 20)
        inter = sel12_local(base_c_q, place)
        im1 = local_image(base_c_q, place, 1)
        im2 = local_image(base_c_q, place, 2)
        for cls in inter.classes:
            assert im1.contains(cls) and im2.contains(cls)
        assert inter.complete

    def test_strict_inclusion_family_member(self):
        # f = x(x-1)(x-4) + 25 at p = 5: the two-curve intersection is a
        # proper subgroup of the first curve's image
        c = Invariants(QQ, (Fraction(-5), Fraction(4)), Fraction(5))
        K = Qp(5, 20)
        # 5 * f(5) = 225 is a 5-adic square
        assert K.is_square(K.from_fraction(Fraction(5)
                                           * c.fpoly().eval(Fraction(5))))
        im1 = local_image(c, K, 1)
        inter = sel12_local(c, K)
        assert im1.complete and inter.complete
        assert len(inter.classes) < len(im1.classes)
        assert inter.contains(_neg_gamma_class(c, K))
