"""Acceptance suite: fifteen end-to-end criteria, each printing one
PASS/FAIL line (run with -s to see the lines on success)."""

import functools
import random
from fractions import Fraction

import pytest

from conftest import SEED, random_rs_invariants, section_witness
from orbitlab.census import (bruteforce_orbits, diverges_family, fp_sweep,
                             group_order, height_box_count, height_enumerate,
                             height_lt, scale_invariants)
from orbitlab.descent import (MarkedCurve, descent_class, local_image,
                              sel12_local)
from orbitlab.errors import PrecisionError
from orbitlab.etale import norm_one_classes, square_class
from orbitlab.lattices import (LatticeBasis, integral_representative,
                               ideal_triple_verify, self_dualize,
                               working_precision)
from orbitlab.linalg import Mat
from orbitlab.orbits import (algebra_of, alpha1_construct, delta_map,
                             distinguished_coincide, neg_gamma,
                             orbit_from_class)
from orbitlab.poly import discriminant, factor
from orbitlab.quadforms import GramForm
from orbitlab.rings import GF, QQ, RR, PrimeField, Qp
from orbitlab.thetarep import (Invariants, cusp_classify,
                               distinguished_witness, invariants_of, lift)


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:02d}] {name}: FAIL")
                raise
            print(f"[criterion {num:02d}] {name}: PASS")
        return wrapper
    return deco


def _rs_tuples(p):
    F = GF(p)
    for a1 in range(p):
        for a2 in range(p):
            for e in range(1, p):
                c = Invariants(F, (F.from_int(a1), F.from_int(a2)),
                               F.from_int(e))
                if not F.is_zero(discriminant(c.fpoly())):
                    yield c


@pytest.fixture(scope="module")
def exhaustive_fibers():
    """Per-fiber brute-force data for every rs invariant tuple, p in {3, 5}:
    orbit count, stabilizer orders, factor count, in-kernel class count, and
    the witness-identified 1-/2-distinguished orbit indexes."""
    data = {}
    for p in (3, 5):
        F = GF(p)
        rows = []
        for c in _rs_tuples(p):
            r = len(factor(c.fpoly()))
            count, stabs, reps = bruteforce_orbits(p, 3, c)
            L = algebra_of(c)
            inker = sum(1 for cl in norm_one_classes(L)
                        if delta_map(c, cl.rep)[2])
            d1, d2 = [], []
            for k, rep in enumerate(reps):
                A = Mat(F, [[F.from_int(int(v)) for v in row] for row in rep])
                T = lift(A)
                if distinguished_witness(T, 1):
                    d1.append(k)
                if distinguished_witness(T, 2):
                    d2.append(k)
            rows.append({"c": c, "r": r, "count": count, "stabs": stabs,
                         "inker": inker, "d1": d1, "d2": d2})
        data[p] = rows
    return data


@criterion(1, "orbit-count oracle")
def test_criterion_01(exhaustive_fibers):
    for p in (3, 5):
        assert exhaustive_fibers[p], f"no rs tuples at p={p}"
        for row in exhaustive_fibers[p]:
            assert row["count"] == 2 ** (row["r"] - 1)
            assert row["count"] == row["inker"]


@criterion(2, "stabilizer oracle")
def test_criterion_02(exhaustive_fibers):
    for p in (3, 5):
        for row in exhaustive_fibers[p]:
            expected = 2 ** (row["r"] - 1)
            assert row["stabs"], row["c"].serialize()
            assert all(s == expected for s in row["stabs"])


@criterion(3, "construction round-trip")
def test_criterion_03():
    for ring in (GF(5), QQ, Qp(7, 20)):
        rng = random.Random(SEED + 3)
        done = 0
        while done < 100:
            try:
                c = random_rs_invariants(ring, rng, span=9)
                back = invariants_of(alpha1_construct(c))
            except PrecisionError:
                continue  # p-adic draw too close to inseparable
            assert all(ring.eq(x, y) for x, y in zip(back.a, c.a))
            assert ring.eq(back.e, c.e)  # c's own fiber, not e -> -e
            done += 1


@criterion(4, "distinguishedness of constructed representatives")
def test_criterion_04():
    # GF(5) takes the isotropic search for cubics, GF(7) and Q the section
    for ring in (GF(5), GF(7), QQ):
        rng = random.Random(SEED + 4)
        for _ in range(50):
            c = random_rs_invariants(ring, rng, span=7)
            L = algebra_of(c)
            ng = neg_gamma(L)
            rep1 = alpha1_construct(c)
            rep2 = orbit_from_class(c, ng)
            for i, rep in ((1, rep1), (2, rep2)):
                if isinstance(ring, PrimeField):
                    assert distinguished_witness(rep, i)
                if ring != GF(5):
                    assert distinguished_witness(
                        rep, i, candidates=section_witness(ring, 3))


@criterion(5, "distinguished-orbit coincidence equivalence")
def test_criterion_05(exhaustive_fibers):
    for p in (3, 5):
        for row in exhaustive_fibers[p]:
            # exactly one orbit per fiber carries each witness type
            assert len(row["d1"]) == 1 and len(row["d2"]) == 1
            coincide_brute = row["d1"][0] == row["d2"][0]
            assert coincide_brute == distinguished_coincide(row["c"])


@criterion(6, "two-adic refinement bit-exactness")
def test_criterion_06():
    ring = Qp(2, 28)
    Q = GramForm(Mat(ring, [[ring.from_int(2), ring.zero],
                            [ring.zero, ring.from_int(2)]]))
    lat = LatticeBasis(Mat.identity(ring, 2), 2, 28)
    out = self_dualize(lat, Q, 2)
    G = [[Q.bilinear(out.basis.col(i), out.basis.col(j)) for j in range(2)]
         for i in range(2)]
    assert ring.eq(G[0][0], ring.one) and ring.eq(G[1][1], ring.one)
    assert ring.is_zero(G[0][1]) and ring.is_zero(G[1][0])
    for j in range(2):
        for i in range(2):
            two_x = ring.mul(ring.from_int(2), out.basis[i, j])
            assert ring.eq(two_x, ring.one) or \
                ring.eq(two_x, ring.neg(ring.one))


@criterion(7, "self-dualization pipeline")
def test_criterion_07():
    for p in (3, 5, 7):
        rng = random.Random(SEED + p)
        done = 0
        while done < 20:
            a = (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
            e = Fraction(rng.randint(1, 9))
            c = Invariants(QQ, a, e)
            d = discriminant(c.fpoly())
            K0 = Qp(p, 20)
            if (d == 0 or K0.from_fraction(d).valuation() != 0
                    or e % p == 0):
                continue
            prec = working_precision(Invariants(
                K0, tuple(K0.from_fraction(x) for x in a),
                K0.from_fraction(e))) + 8
            K = Qp(p, prec)
            cl = Invariants(K, tuple(K.from_fraction(x) for x in a),
                            K.from_fraction(e))
            L = algebra_of(cl)
            i1 = LatticeBasis(Mat.identity(K, 3), p, prec, algebra=L)
            ok, report = ideal_triple_verify(
                integral_representative(cl, L.one(), p, i1))
            assert ok and len(report) == 6, report
            done += 1
    # scaled inputs meeting the 2-adic divisibility 2^(4i) | a_i, 2^(2n) | e
    rng = random.Random(SEED + 2)
    lam = 4
    done = 0
    while done < 10:
        a = (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
        e = Fraction(rng.randint(1, 9))
        d = discriminant(Invariants(QQ, a, e).fpoly())
        if d == 0 or d.numerator % 2 == 0 or e % 2 == 0:
            continue
        K = Qp(2, 64)
        cl = Invariants(K, (K.from_fraction(a[0] * lam ** 2),
                            K.from_fraction(a[1] * lam ** 4)),
                        K.from_fraction(e * lam ** 3))
        L = algebra_of(cl)
        diag = [Fraction(1), Fraction(1, lam ** 2), Fraction(1, lam ** 4)]
        i1 = LatticeBasis(Mat(K, [[K.from_fraction(diag[i]) if i == j
                                   else K.zero for j in range(3)]
                                  for i in range(3)]), 2, 64, algebra=L)
        nu = L.scalar(K.from_fraction(Fraction(lam ** 4)))
        ok, report = ideal_triple_verify(
            integral_representative(cl, nu, 2, i1))
        assert ok and len(report) == 6, report
        done += 1


@criterion(8, "marked-point descent normalization")
def test_criterion_08():
    for ring in (GF(5), Qp(3, 20), RR):
        rng = random.Random(SEED + 8)
        done = 0
        while done < 50:
            try:
                if ring is RR:
                    cq = random_rs_invariants(QQ, rng, span=5)
                    c = Invariants(RR,
                                   tuple(RR.from_fraction(x) for x in cq.a),
                                   RR.from_fraction(cq.e))
                else:
                    c = random_rs_invariants(ring, rng, span=5)
                L = algebra_of(c)
                ng = neg_gamma(L)
                expect = square_class(L, ng)
                for which in (1, 2):
                    cls = descent_class("marked", MarkedCurve(c, which))
                    assert cls.labels == expect.labels
            except PrecisionError:
                continue
            norm = L.norm(ng)
            assert ring.eq(norm, ring.mul(c.e, c.e))
            assert ring.is_square(norm)
            done += 1


G1_PANEL = [(0, -1, 1), (2, -3, 3), (0, 2, 3), (-2, 5, 1), (-4, -3, 7),
            (-4, -6, 1), (-4, -5, 3), (-4, -4, 5), (-4, -6, 3), (-4, -5, 1)]
G2_PANEL = [(0, 0, 0, -1, 1), (0, 1, 0, -3, 1), (1, -1, 0, 1, 1),
            (1, 1, 0, -1, 1), (0, -1, 0, 1, 1)]


def _panel_invariants(t):
    *a, e = t
    return Invariants(QQ, tuple(Fraction(x) for x in a), Fraction(e))


def _good_odd_prime(c):
    d = discriminant(c.fpoly())
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        if Qp(p, 20).from_fraction(d).valuation() == 0:
            return p
    raise AssertionError("panel curve has no small good prime")


@criterion(9, "local image sizes on the curve panel")
def test_criterion_09():
    incomplete = []
    for t in G1_PANEL + G2_PANEL:
        c = _panel_invariants(t)
        p = _good_odd_prime(c)
        for place in (Qp(p, 20), Qp(2, 24), RR):
            im = local_image(c, place, 1)
            if im.complete:
                assert len(im.classes) == im.target
            else:
                incomplete.append((t, getattr(place, "p", "R")))
    if incomplete:
        print(f"known-limitation panel entries (incomplete): {incomplete}")
    assert len(incomplete) <= 2


@criterion(10, "good-reduction image is the unramified subgroup")
def test_criterion_10():
    rng = random.Random(SEED + 10)
    pairs = []
    while len(pairs) < 20:
        a = (Fraction(rng.randint(-6, 6)), Fraction(rng.randint(-8, 8)))
        e = Fraction(rng.randint(1, 6))
        c = Invariants(QQ, a, e)
        d = discriminant(c.fpoly())
        if d == 0:
            continue
        for p in (3, 5, 7, 11, 13):
            if (Qp(p, 20).from_fraction(d).valuation() == 0
                    and Qp(p, 20).from_fraction(e).valuation() == 0):
                pairs.append((c, p))
                break
    for c, p in pairs:
        K = Qp(p, 20)
        im = local_image(c, K, 1)
        assert im.complete
        # independent recomputation from sampled points only
        f = c.fpoly()
        L = algebra_of(c)
        got = {square_class(L, L.one(), K),
               descent_class("marked", MarkedCurve(c, 1), K)}
        for t in range(-40, 41):
            for scale in (Fraction(1), Fraction(1, p), Fraction(p)):
                x0 = Fraction(t) * scale
                fx = f.eval(x0)
                if fx == 0 or not K.is_square(K.from_fraction(fx)):
                    continue
                el = L.add(L.scalar(x0),
                           L.mul(L.gamma(), L.scalar(QQ.neg(QQ.one))))
                got.add(square_class(L, el, K))
        group = set()
        frontier = list(got)
        while frontier:
            g = frontier.pop()
            if any(g == h for h in group):
                continue
            group.add(g)
            frontier.extend(g * h for h in list(group))
        assert all(any(g == h for h in im.classes) for g in group)
        assert len(group) == len(im.classes)


@criterion(11, "strict-inclusion family certificates")
def test_criterion_11():
    for p in (5, 7, 11):
        members = diverges_family(p, count=30)
        assert len(members) == 30
        K = Qp(p, 20)
        for c in members:
            val = Fraction(p) * c.fpoly().eval(Fraction(p))
            assert K.is_square(K.from_fraction(val))
            im1 = local_image(c, K, 1)
            inter = sel12_local(c, K)
            assert im1.complete
            assert len(inter.classes) < len(im1.classes)


def _primes_to(bound):
    return [p for p in range(3, bound + 1)
            if all(p % d for d in range(2, int(p ** 0.5) + 1))]


@criterion(12, "finite-field density sweeps")
def test_criterion_12():
    quarter = Fraction(1, 4)
    for p in _primes_to(97):
        rep = fp_sweep(p)
        assert rep.exhaustive
        for key in ("reducible", "nontrivial_stabilizer",
                    "distinguished_or_non_rs"):
            assert rep.densities[key] <= Fraction(999, 1000), (p, key)
        if p >= 11:
            rp = rep.densities["smallonetwo"]
            assert quarter / 2 <= rp * p <= quarter * 2, (p, rp)


@criterion(13, "forced reducibility and distinguishedness patterns")
def test_criterion_13():
    F = GF(3)
    els = [F.from_int(k) for k in range(3)]
    counts = {"disc": 0, "w1": 0, "w2": 0}
    for code in range(3 ** 9):
        digits = []
        rest = code
        for _ in range(9):
            digits.append(rest % 3)
            rest //= 3
        A = Mat(F, [[els[digits[3 * i + j]] for j in range(3)]
                    for i in range(3)])
        cls = cusp_classify(A)
        if cls == "none":
            continue
        T = lift(A)
        if cls == "disc-zero-forced":
            assert F.is_zero(discriminant(invariants_of(T).gpoly()))
            counts["disc"] += 1
        elif cls == "distinguished-forced-1":
            assert distinguished_witness(T, 1)
            counts["w1"] += 1
        else:
            assert cls == "distinguished-forced-2"
            assert distinguished_witness(T, 2)
            counts["w2"] += 1
    assert all(v > 0 for v in counts.values()), counts


@criterion(14, "brute-force group orders")
def test_criterion_14():
    assert group_order(3) == 24
    assert group_order(5) == 120
    for p in (3, 5):
        assert group_order(p) == p * (p * p - 1)


@criterion(15, "height-window counts and homogeneity")
def test_criterion_15():
    for X in (1, 2, 3):
        assert sum(1 for _ in height_enumerate(X, 3)) == \
            height_box_count(X, 3)
    rng = random.Random(SEED + 15)
    for _ in range(100):
        a = [rng.randint(-3, 3), rng.randint(-20, 20)]
        e = rng.randint(-7, 7)
        lam = rng.randint(1, 5)
        X = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        sa, se = scale_invariants(a, e, lam, 3)
        assert height_lt(a, e, X) == height_lt(sa, se, lam * X)
