import ast
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import count_calls
from orbitlab import census
from orbitlab.census import (bruteforce_orbits, diverges_family, fp_sweep,
                             group_order, height_box_count, height_enumerate,
                             height_lt, same_orbit, scale_invariants,
                             so3_group)
from orbitlab.errors import BudgetError, PreconditionError, UsageError
from orbitlab.etale import EtaleAlgebra, square_class
from orbitlab.linalg import Mat, charpoly
from orbitlab.poly import Poly, discriminant, factor
from orbitlab.rings import GF, Qp, is_prime
from orbitlab.thetarep import Invariants

CENSUS_SRC = Path(__file__).resolve().parent.parent / "src" / "orbitlab" \
    / "census.py"


def _oracle_sweep(p):
    """Pure-python recount of every sweep statistic (independent of the
    vectorized implementation)."""
    F = GF(p)
    counts = {"total": 0, "regular_semisimple": 0, "irreducible": 0,
              "reducible_rs": 0, "nontrivial_stabilizer": 0,
              "distinguished_coincide": 0, "e_zero": 0, "smallonetwo": 0}
    for a1 in range(p):
        for a2 in range(p):
            for e in range(p):
                counts["total"] += 1
                if e == 0:
                    counts["e_zero"] += 1
                    # distinct nonzero roots of x^2 + a1 x + a2 with
                    # square product
                    d = (a1 * a1 - 4 * a2) % p
                    if (a2 != 0 and d != 0
                            and pow(d, (p - 1) // 2, p) == 1
                            and pow(a2, (p - 1) // 2, p) == 1):
                        counts["smallonetwo"] += 1
                f = Poly(F, [F.from_int(x) for x in
                             (e * e % p, a2, a1, 1)])
                rs = e != 0 and not F.is_zero(discriminant(f))
                if not rs:
                    continue
                counts["regular_semisimple"] += 1
                parts = factor(f)
                r = len(parts)
                if r == 1:
                    counts["irreducible"] += 1
                else:
                    counts["reducible_rs"] += 1
                    counts["nontrivial_stabilizer"] += 1
                L = EtaleAlgebra(f)
                ng = L.mul(L.gamma(), L.scalar(F.from_int(p - 1)))
                cls = square_class(L, ng)
                if all(lab == 0 for lab in cls.labels):
                    counts["distinguished_coincide"] += 1
    return counts


def _oracle_sampled(p, n, seed, sample_size):
    """Recount of a sampled sweep with poly.factor on every sample,
    drawing the same (a, e) as fp_sweep; smallonetwo is counted at n = 3
    as in _oracle_sweep."""
    F = GF(p)
    rng = random.Random(seed)
    counts = dict.fromkeys(("regular_semisimple", "irreducible",
                            "reducible_rs", "nontrivial_stabilizer",
                            "distinguished_coincide", "e_zero",
                            "smallonetwo"), 0)
    counts["total"] = sample_size
    for _ in range(sample_size):
        a = [rng.randrange(p) for _ in range(n - 1)]
        e = rng.randrange(p)
        counts["e_zero"] += e == 0
        if e == 0 and n == 3:
            d = (a[0] * a[0] - 4 * a[1]) % p
            counts["smallonetwo"] += (
                a[1] != 0 and d != 0 and pow(d, (p - 1) // 2, p) == 1
                and pow(a[1], (p - 1) // 2, p) == 1)
        f = Poly(F, [e * e % p] + a[::-1] + [1])
        if e == 0 or F.is_zero(discriminant(f)):
            continue
        counts["regular_semisimple"] += 1
        parts = factor(f)
        counts["irreducible" if len(parts) == 1 else "reducible_rs"] += 1
        counts["nontrivial_stabilizer"] += len(parts) > 1
        # N(-gamma) over F_p[x]/(g) is g(0)
        counts["distinguished_coincide"] += all(
            F.is_square(g.coeff(0)) for g, _ in parts)
    return counts


class TestSweep:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_pure_python_oracle(self, p):
        rep = fp_sweep(p)
        assert rep.exhaustive
        assert rep.counts == _oracle_sweep(p)

    def test_total_is_p_cubed(self):
        for p in (3, 5, 11):
            rep = fp_sweep(p)
            assert rep.counts["total"] == p ** 3

    def test_densities_are_exact_fractions(self):
        rep = fp_sweep(13)
        for v in rep.densities.values():
            assert isinstance(v, Fraction)
        t = rep.counts["total"]
        assert rep.densities["reducible"] == \
            Fraction(rep.counts["reducible_rs"], t)

    def test_irreducible_fraction_positive(self):
        for p in (3, 5, 97):
            rep = fp_sweep(p)
            assert rep.counts["irreducible"] > 0

    def test_usage_errors(self):
        with pytest.raises(UsageError):
            fp_sweep(2)
        with pytest.raises(UsageError):
            fp_sweep(5, n=4)

    def test_n5_falls_back_to_sampling(self):
        rep = fp_sweep(5, n=5, sample_size=300)
        assert not rep.exhaustive
        assert rep.sample_size == 300
        assert rep.counts["total"] == 300

    def test_deterministic(self):
        assert fp_sweep(7).serialize() == fp_sweep(7).serialize()

    def test_n3_matches_recorded_reports(self):
        """Every exhaustive report, against the serialized reports of the
        earlier root-scan implementation for every odd p <= 97."""
        path = Path(__file__).parent / "data" / "fp_sweep_n3.json"
        recorded = json.loads(path.read_text())
        assert sorted(map(int, recorded)) == [
            p for p in range(3, 98, 2) if is_prime(p)]
        for p, rep in recorded.items():
            assert fp_sweep(int(p)).serialize() == rep, p

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("seed", [1, 2, 0xA5EED])
    def test_sampled_matches_factor_oracle(self, p, seed):
        rep = fp_sweep(p, 5, seed, 500)
        counts = _oracle_sampled(p, 5, seed, 500)
        assert rep.counts == counts
        assert rep.densities["distinguished_or_non_rs"] == Fraction(
            counts["distinguished_coincide"] + 500
            - counts["regular_semisimple"], 500)

    @pytest.mark.parametrize("p, n, size, table", [
        (5, 5, 500, True), (7, 5, 200, False), (101, 3, 2000, False)])
    def test_sampled_sides_match_factor_oracle(self, monkeypatch, p, n,
                                               size, table):
        """Both sides of the size rule p^n <= TABLE_PER_SAMPLE * size:
        table lookups and one euler_split per sample."""
        assert (p ** n <= census.TABLE_PER_SAMPLE * size) == table
        calls = count_calls(monkeypatch, census, "euler_split")
        for seed in (1, 2):
            rep = fp_sweep(p, n, seed, size)
            assert rep.counts == _oracle_sampled(p, n, seed, size)
            assert bool(calls) != table

    def test_sampled_cubic_table_counts_smallonetwo(self, monkeypatch):
        """The table side at n = 3 and p > 97 counts the e = 0 samples too
        (its natural sample size, 20,000, makes the oracle slow)."""
        monkeypatch.setattr(census, "TABLE_PER_SAMPLE", 10 ** 3)
        calls = count_calls(monkeypatch, census, "euler_split")
        rep = fp_sweep(101, 3, 1, 2000)
        assert not calls
        assert rep.counts == _oracle_sampled(101, 3, 1, 2000)
        assert rep.counts["smallonetwo"] > 0


def _factor_flags(F, n, code):
    """(squarefree, irreducible, a factor of degree <= n // 2 with a
    non-residue constant term, any such factor) of the monic of degree
    n with the given index code, by poly.factor."""
    p = F.p
    f = Poly(F, [F.from_int(code // p ** i % p) for i in range(n)]
             + [F.one])
    parts = factor(f)
    nonres = [g.degree for g, _ in parts
              if pow(int(g.coeff(0)), (p - 1) // 2, p) == p - 1]
    return (all(m == 1 for _, m in parts),
            len(parts) == 1 and parts[0][1] == 1,
            any(d <= n // 2 for d in nonres), bool(nonres))


@pytest.mark.parametrize("p, n", [(3, 5), (5, 5), (3, 7)]
                         + [(p, 3) for p in (3, 5, 7, 11, 13)])
def test_factor_table_matches_factor_oracle(p, n):
    """Every flag of every monic of degree n; when f(0) is a nonzero
    square, the small factors decide whether -x is a square in every
    component."""
    F = GF(p)
    sf, irr, bad = census._factor_table(p, n)
    for code in range(p ** n):
        want_sf, want_irr, want_bad, any_bad = _factor_flags(F, n, code)
        assert (sf[code], irr[code], bad[code]) == (want_sf, want_irr,
                                                    want_bad), code
        if pow(code % p, (p - 1) // 2, p) == 1:
            assert bad[code] == any_bad, code


ODD_PRIMES_TO_97 = [p for p in range(3, 98, 2) if is_prime(p)]


def _legendre(p):
    """leg[c] = 1, -1 or 0: c a nonzero square, a non-residue or 0 mod p."""
    leg = -np.ones(p, dtype=np.int64)
    leg[np.arange(1, p) ** 2 % p] = 1
    leg[0] = 0
    return leg


def _table_cubic_counts(p):
    """The exhaustive n = 3 counts weighted off census._factor_table: each
    cubic f, by index code, weighted by #{e != 0 : e^2 = f(0)}, its
    constant term the code's lowest digit; smallonetwo from the quadratic
    table."""
    w = np.bincount(np.arange(1, p) ** 2 % p, minlength=p)
    weight = np.tile(w, p * p)
    sf, irr, bad = census._factor_table(p, 3)
    sf2, irr2, _ = census._factor_table(p, 2)
    return {"regular_semisimple": int(weight @ sf),
            "irreducible": int(weight @ irr),
            "distinguished_coincide": int(weight @ (sf & ~bad)),
            "smallonetwo": int((sf2 & ~irr2 & np.tile(w > 0, p)).sum())}


@pytest.mark.parametrize("p", ODD_PRIMES_TO_97)
def test_closed_form_sweep_matches_table_counts(p):
    """The closed-form exhaustive sweep against the table-weighted count
    it replaced."""
    want = _table_cubic_counts(p)
    counts = fp_sweep(p).counts
    assert {k: counts[k] for k in want} == want
    assert counts["e_zero"] == p * p and counts["total"] == p ** 3


@pytest.mark.parametrize("p, n", [(p, 5) for p in (3, 5, 7, 11, 13)]
                         + [(3, 7), (5, 7), (3, 9)])
def test_closed_form_matches_factor_table(p, n):
    """_irreducible_counts at every degree k <= n and _products at n
    against the factorization-type tables."""
    leg = _legendre(p)
    plus, minus = census._irreducible_counts(p, n)
    for k in range(1, n + 1):
        irr = census._factor_table(p, k)[1]
        g0 = leg[np.arange(p ** k) % p]
        assert (plus[k], minus[k]) == (int((irr & (g0 == 1)).sum()),
                                       int((irr & (g0 == -1)).sum())), k
    sf, _, bad = census._factor_table(p, n)
    f0 = leg[np.arange(p ** n) % p]
    assert census._products(n, plus, minus, 1) == int((sf & (f0 != 0)).sum())
    assert census._products(n, plus, minus, -1) == int(sf @ f0)
    # when f(0) is a nonzero square, bad flags a factor with g(0) a
    # non-residue
    assert census._products(n, plus, minus, 0) == int(
        (sf & ~bad & (f0 == 1)).sum())


def test_exhaustive_sweep_builds_no_table(monkeypatch):
    calls = count_calls(monkeypatch, census, "_factor_table")
    for p in (3, 61, 97):
        assert fp_sweep(p).exhaustive
    assert not calls
    # the sampled side still looks its draws up in the table
    fp_sweep(5, 5, 1, 500)
    assert calls


class TestGroupOrder:
    def test_known_orders(self):
        assert group_order(3) == 24
        assert group_order(5) == 120
        for p in (3, 5):
            assert group_order(p) == p * (p * p - 1)

    def test_elements_preserve_form(self):
        B = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        for p in (3, 5):
            G = so3_group(p)
            for g in G[:: max(1, len(G) // 17)]:
                assert ((g.T @ B @ g) % p == B % p).all()
                assert round(np.linalg.det(g)) % p == 1

    @pytest.mark.parametrize("p, n", [(-3, 3), (1, 3), (2, 3), (4, 3),
                                      (9, 3), (5, 2), (5, 4)])
    def test_refuses_outside_odd_theory(self, p, n):
        with pytest.raises(UsageError):
            group_order(p, n)

    def test_n5_closed_form(self):
        assert group_order(3, n=5) == 3 ** 4 * (3 ** 2 - 1) * (3 ** 4 - 1)

    def test_budget(self):
        with pytest.raises(BudgetError):
            so3_group(101)


class TestBruteforceOrbits:
    def test_split_fiber(self):
        F = GF(5)
        c = Invariants(F, (F.from_int(4), F.from_int(1)), F.from_int(2))
        count, stabs, reps = bruteforce_orbits(5, 3, c)
        assert count == 4
        assert stabs == [4, 4, 4, 4]

    def test_irreducible_fiber(self):
        # x^3 + x + 1 is irreducible mod 5: one orbit, trivial stabilizer
        F = GF(5)
        c = Invariants(F, (F.from_int(0), F.from_int(1)), F.from_int(1))
        count, stabs, _ = bruteforce_orbits(5, 3, c)
        assert count == 1
        assert stabs == [1]

    def test_different_invariants_never_conjugate(self):
        F = GF(3)
        c1 = Invariants(F, (F.from_int(0), F.from_int(2)), F.from_int(1))
        c2 = Invariants(F, (F.from_int(1), F.from_int(2)), F.from_int(1))
        _, _, reps1 = bruteforce_orbits(3, 3, c1)
        _, _, reps2 = bruteforce_orbits(3, 3, c2)
        if reps1 and reps2:
            assert not same_orbit(3, reps1[0], reps2[0])

    def test_refuses_characteristic_2_and_even_n(self):
        F = GF(2)
        c = Invariants(F, (F.one, F.one), F.one)
        with pytest.raises(UsageError, match="odd prime"):
            bruteforce_orbits(2, 3, c)
        with pytest.raises(UsageError, match="odd and at least 3"):
            bruteforce_orbits(5, 4, c)

    def test_refuses_invariants_of_another_degree(self):
        F = GF(3)
        c = Invariants(F, (F.one, F.one), F.one)
        with pytest.raises(UsageError, match="invariants have degree 3, not n = 5"):
            bruteforce_orbits(3, 5, c)

    def test_budget_rejects_large_p(self):
        F = GF(7)
        c = Invariants(F, (F.from_int(0), F.from_int(1)), F.from_int(1))
        with pytest.raises(BudgetError):
            bruteforce_orbits(7, 3, c)


SEED_ORACLE = 20250105


def _matrix(code, p):
    """The 3x3 matrix of an index code: entry (i, j) is base-p digit 3i + j."""
    return tuple(tuple(code // p ** (3 * i + j) % p for j in range(3))
                 for i in range(3))


def _det3(m):
    return sum(m[0][j] * (m[1][(j + 1) % 3] * m[2][(j + 2) % 3]
                          - m[1][(j + 2) % 3] * m[2][(j + 1) % 3])
               for j in range(3))


def _direct_key(A, p):
    """(a1, a2, e) of A by definition: charpoly(A A*) = x^3 + a1 x^2 + a2 x
    + e^2 over F_p with A* = -B A^t B, and e = det A."""
    F = GF(p)
    # (B A^t B)[i][j] = A[2 - j][2 - i] for the antidiagonal B
    Astar = [[-A[2 - j][2 - i] for j in range(3)] for i in range(3)]
    M = [[sum(A[i][k] * Astar[k][j] for k in range(3)) % p
          for j in range(3)] for i in range(3)]
    cp = charpoly(Mat(F, M))
    return cp.coeff(2) % p, cp.coeff(1) % p, _det3(A) % p


def _adjugate_inverse(g, p):
    """Inverse over F_p of an integer 3x3 matrix from its adjugate."""
    g = [[int(x) for x in row] for row in g]

    def cof(i, j):
        r = [k for k in range(3) if k != i]
        c = [k for k in range(3) if k != j]
        return (-1) ** (i + j) * (g[r[0]][c[0]] * g[r[1]][c[1]]
                                  - g[r[0]][c[1]] * g[r[1]][c[0]])

    dinv = pow(sum(g[0][j] * cof(0, j) for j in range(3)) % p, -1, p)
    return [[cof(j, i) * dinv % p for j in range(3)] for i in range(3)]


def _oracle_orbits(p, fiber):
    """The orbit partition of a fiber (matrices as tuples, in fiber order)
    by the slow algorithm: images g1 A g2^(-1) with adjugate inverses,
    collected in sets of big-endian codes, and a per-element walk over the
    fiber."""
    G = so3_group(p)
    Ginv = np.array([_adjugate_inverse(g, p) for g in G], dtype=np.int64)
    weights = p ** np.arange(8, -1, -1, dtype=np.int64)
    codes = (np.array(fiber, dtype=np.int64).reshape(-1, 9) @ weights
             ).tolist()
    members = set(codes)
    seen = set()
    stabs, reps = [], []
    for mat, code in zip(fiber, codes):
        if code in seen:
            continue
        imgs = np.matmul(np.matmul(G[:, None], np.array(mat)[None, None]),
                         Ginv[None, :]) % p
        orbit = set((imgs.reshape(-1, 9) @ weights).tolist())
        assert orbit <= members, "orbit left the fiber"
        seen |= orbit
        reps.append(mat)
        stabs.append(len(G) ** 2 // len(orbit))
    return len(reps), stabs, reps


def _invariants(p, key):
    F = GF(p)
    a1, a2, e = key
    return Invariants(F, (F.from_int(a1), F.from_int(a2)), F.from_int(e))


def _assert_matches_oracle(p, key, fiber):
    count, stabs, reps = bruteforce_orbits(p, 3, _invariants(p, key))
    want = _oracle_orbits(p, fiber)
    assert (count, stabs) == want[:2], key
    assert all(type(s) is int for s in stabs)
    assert [tuple(map(tuple, r.tolist())) for r in reps] == want[2], key
    assert all(r.dtype == np.int64 and r.shape == (3, 3) for r in reps)
    assert not census._MASK_CACHE[p].any()


@pytest.fixture(scope="module")
def keys_at_3():
    """The direct (a1, a2, e) of every matrix over F_3, by index code."""
    return [_direct_key(_matrix(code, 3), 3) for code in range(3 ** 9)]


class TestOrbitOracle:
    """bruteforce_orbits and its fiber table against the slow algorithm
    and the definition of the invariants."""

    def test_every_fiber_at_3(self, keys_at_3):
        p = 3
        fibers = {}
        for code, key in enumerate(keys_at_3):
            fibers.setdefault(key, []).append(_matrix(code, p))
        assert len(fibers) == p ** 3
        for key, fiber in fibers.items():
            _assert_matches_oracle(p, key, fiber)

    def test_seeded_fibers_at_5(self):
        p = 5
        rng = random.Random(SEED_ORACLE)
        keys = [(a1, a2, e) for a1 in range(p) for a2 in range(p)
                for e in range(p)]
        rs = [k for k in keys if _invariants(p, k).is_regular_semisimple()]
        non_rs = [k for k in keys if k not in rs]
        order, bounds = census._fibers(p)
        for key in rng.sample(rs, 10) + rng.sample(non_rs, 10):
            k = census._fiber_key(*key, p)
            fiber = [_matrix(int(code), p)
                     for code in order[bounds[k]:bounds[k + 1]]]
            assert _direct_key(fiber[0], p) == key
            _assert_matches_oracle(p, key, fiber)

    def test_orbit_leaving_the_fiber_is_refused(self, monkeypatch):
        """An orbit with one code from another fiber raises, and the mask
        is left all False for the next call."""
        p, key = 3, (1, 0, 1)
        order, bounds = census._fibers(p)
        k = census._fiber_key(*key, p)
        stray = order[bounds[k + 1]]  # first code of the next fiber
        real = census._orbit_codes
        monkeypatch.setattr(census, "_orbit_codes",
                            lambda *args: np.append(real(*args), stray))
        with pytest.raises(PreconditionError,
                           match=r"^orbit left the fiber \(invariance bug\)$"):
            bruteforce_orbits(p, 3, _invariants(p, key))
        assert not census._MASK_CACHE[p].any()
        monkeypatch.undo()
        assert bruteforce_orbits(p, 3, _invariants(p, key))[0] == 2

    @pytest.mark.parametrize("p", [3, 5])
    def test_fiber_table_keys(self, p, keys_at_3):
        """Every matrix at p = 3 and 2,000 seeded ones at p = 5 sit in the
        fiber of their directly computed invariants."""
        order, bounds = census._fibers(p)
        assert sorted(order.tolist()) == list(range(p ** 9))
        assert bounds[0] == 0 and bounds[-1] == p ** 9
        key_of = np.empty(p ** 9, dtype=np.int64)
        for k in range(p ** 3):
            key_of[order[bounds[k]:bounds[k + 1]]] = k
        if p == 3:
            direct = enumerate(keys_at_3)
        else:
            codes = random.Random(SEED_ORACLE).sample(range(p ** 9), 2000)
            direct = ((code, _direct_key(_matrix(code, p), p))
                      for code in codes)
        for code, key in direct:
            assert key_of[code] == census._fiber_key(*key, p), code
        # fiber order is ascending index-code order
        for k in range(p ** 3):
            part = order[bounds[k]:bounds[k + 1]]
            assert (np.diff(part) > 0).all()


class TestSameOrbit:
    @pytest.mark.parametrize("p", [3, 5])
    def test_translates_are_conjugate(self, p):
        G = so3_group(p)
        rng = random.Random(SEED_ORACLE + p)
        for _ in range(10):
            A = np.array([[rng.randrange(p) for _ in range(3)]
                          for _ in range(3)])
            g1, g2 = G[rng.randrange(len(G))], G[rng.randrange(len(G))]
            assert same_orbit(p, A, g1 @ A @ g2 % p)
            assert same_orbit(p, A, (g1 @ A @ g2 % p) - p)

    @pytest.mark.parametrize("p, key", [(3, (1, 1, 1)), (5, (4, 1, 2))])
    def test_distinct_orbits_are_not(self, p, key):
        count, _, reps = bruteforce_orbits(p, 3, _invariants(p, key))
        assert count >= 2
        for i in range(count):
            for j in range(count):
                assert same_orbit(p, reps[i], reps[j]) == (i == j)


def test_census_uses_no_numpy_linalg():
    """The brute-force oracles are exact: census computes determinants and
    inverses in integers, never with numpy.linalg floats."""
    used = set()
    for node in ast.walk(ast.parse(CENSUS_SRC.read_text())):
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            used.add(ast.unparse(node))
        elif isinstance(node, ast.Import):
            used |= {a.name for a in node.names
                     if a.name.startswith("numpy.linalg")}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            used |= {f"{node.module}.{a.name}" for a in node.names
                     if f"{node.module}.{a.name}".startswith("numpy.linalg")}
    assert not used, sorted(used)


class TestHeights:
    def test_box_counts(self):
        assert height_box_count(1, 3) == 1
        # X = 2: |a1| < 4, |a2| < 16, |e| < 8 -> 7 * 31 * 15
        assert height_box_count(2, 3) == 7 * 31 * 15

    @pytest.mark.parametrize("X", [1, 2])
    def test_enumerate_matches_box(self, X):
        assert sum(1 for _ in height_enumerate(X, 3)) == \
            height_box_count(X, 3)

    @pytest.mark.parametrize("n", [0, 1, 2, 4])
    def test_refuses_n_outside_odd_family(self, n):
        with pytest.raises(UsageError):
            height_box_count(1, n)
        with pytest.raises(UsageError):
            next(height_enumerate(2, n))

    def test_x1_only_zero_and_not_rs(self):
        recs = list(height_enumerate(1, 3, flags=True))
        assert len(recs) == 1
        assert recs[0]["a"] == [0, 0] and recs[0]["e"] == 0
        assert recs[0]["regular_semisimple"] is False

    def test_homogeneity(self):
        import random
        rng = random.Random(1)
        for _ in range(100):
            a = [rng.randint(-3, 3), rng.randint(-20, 20)]
            e = rng.randint(-7, 7)
            lam = rng.randint(1, 4)
            X = Fraction(rng.randint(1, 5))
            sa, se = scale_invariants(a, e, lam, 3)
            assert height_lt(a, e, X) == height_lt(sa, se, lam * X)

    def test_minimality_flag(self):
        recs = {(tuple(r["a"]), r["e"]): r
                for r in height_enumerate(2, 3, flags=True)}
        # (0, -1, e=1) is minimal; nothing scaled by 2 fits in X = 2 boxes
        assert recs[((0, -1), 1)]["minimal"] is True
        assert recs[((0, 0), 0)]["minimal"] is False


class TestDivergesFamily:
    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_members_certified(self, p):
        members = diverges_family(p, count=10)
        assert len(members) == 10
        K = Qp(p, 20)
        for c in members:
            f = c.fpoly()
            # p * f(p) is a p-adic square
            val = Fraction(p) * f.eval(Fraction(p))
            assert K.is_square(K.from_fraction(val))
            # factor pattern: n - 1 = 2 unit roots, one root of even
            # positive valuation
            fK = Poly(K, [K.from_fraction(x) for x in f.coeffs])
            parts = factor(fK)
            assert len(parts) == 3
            vals = sorted(g.coeff(0).valuation() for g, _ in parts)
            assert vals[0] == 0 and vals[1] == 0
            assert vals[2] > 0 and vals[2] % 2 == 0

    @pytest.mark.parametrize("p, n", [(2, 3), (9, 3), (-3, 3), (5, 4)])
    def test_refuses_outside_odd_theory(self, p, n):
        with pytest.raises(UsageError):
            diverges_family(p, n=n, count=1)

    def test_density_of_pattern(self):
        # measured r_p > 0 for p in 5..37 (members exist)
        for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            assert fp_sweep(p).counts["smallonetwo"] > 0
