"""Finite-field and integral statistics: invariant sweeps over F_p,
brute-force orthogonal-group orbit oracles for tiny (n, p), height-box
enumeration over Z, and the strict-inclusion local test family.

The sweeps classify invariant tuples (a, e), f = x^n + a_1 x^(n-1) + ...
+ e^2, by how f factors over F_p and by whether -gamma (the class of -x)
is a square in every factor. For n = 3 all p^3 tuples are read off the
p^3 products (x - r)(x^2 + b x + c): counting the products that give each
cubic yields its number of roots, and counting those with -r or c a
non-residue decides -gamma. Other n are sampled, and each sample is
classified by one distinct-degree split of f with Euler's criterion for -x
on each part (poly.euler_split).

The orbit oracle works in integers on index codes: a matrix A over F_p is
the number sum A[i][j] p^(3i+j). The fiber table sorts all p^9 codes by
their invariants, read off nine digit arrays with integer arithmetic. As
G = SO(B)(F_p) is a group, the orbit of A under A -> g1 A g2^(-1) is
G A G, so no inverse is taken: the codes of all |G|^2 images come from a
per-p table of row actions, and binary search marks them on the fiber.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetError, PreconditionError, UsageError
from .orbits import distinguished_coincide
from .poly import discriminant, euler_split
from .rings import QQ, PrimeField, is_prime
from .thetarep import Invariants

DEFAULT_SEED = 0xA5EED
BRUTEFORCE_BUDGET = 2 * 10 ** 8


# ---------------------------------------------------------------------------
# exhaustive invariant sweeps over F_p (n = 3 closed-form)


@dataclass
class SweepReport:
    p: int
    n: int
    total: int
    counts: dict
    densities: dict
    exhaustive: bool
    sample_size: int
    seed: int

    def serialize(self) -> dict:
        return {
            "p": self.p, "n": self.n, "total": self.total,
            "counts": dict(sorted(self.counts.items())),
            "densities": {k: [v.numerator, v.denominator]
                          for k, v in sorted(self.densities.items())},
            "exhaustive": self.exhaustive,
            "sample_size": self.sample_size,
            "seed": self.seed,
        }


def _cubic_grids(p: int):
    """(a1, a2, e) grids plus derived disc/e2 arrays for all p^3 tuples."""
    r = np.arange(p, dtype=np.int64)
    a1, a2, e = np.meshgrid(r, r, r, indexing="ij")
    a1, a2, e = a1.ravel(), a2.ravel(), e.ravel()
    a3 = (e * e) % p
    # disc(x^3 + a x^2 + b x + c) = 18abc - 4a^3 c + a^2 b^2 - 4 b^3 - 27 c^2;
    # every term is below 30 p^4, exact in int64 for p < 10^4
    disc = (a1 * a2 * (18 * a3 + a1 * a2) - 4 * (a1 ** 3 * a3 + a2 ** 3)
            - 27 * a3 * a3) % p
    return a1, a2, e, a3, disc


def _qr_table(p: int):
    t = np.zeros(p, dtype=bool)
    t[(np.arange(p) ** 2) % p] = True
    return t


def _root_counts(p: int):
    """(nroots, bad) indexed by (a1 p + a2) p + a3 for every monic cubic
    x^3 + a1 x^2 + a2 x + a3 over F_p.

    Builds all p^3 products (x - r)(x^2 + b x + c). A cubic with k distinct
    roots is such a product for exactly k pairs (r, q), so nroots counts
    them; bad counts the pairs with -r or c = q(0) a non-residue.
    """
    r, b, c = (g.ravel() for g in np.meshgrid(
        *[np.arange(p, dtype=np.int64)] * 3, indexing="ij"))
    # (x - r)(x^2 + b x + c) = x^3 + (b - r) x^2 + (c - r b) x - r c
    key = ((b - r) % p * p + (c - r * b) % p) * p + (-r * c) % p
    qr = _qr_table(p)
    bad = ~(qr[-r % p] & qr[c])
    return (np.bincount(key, minlength=p ** 3),
            np.bincount(key[bad], minlength=p ** 3))


def fp_sweep(p: int, n: int = 3, seed: int = DEFAULT_SEED,
             sample_size: int = 20000) -> SweepReport:
    """Counts of the invariant-tuple classes over F_p with exact densities.

    n = 3 (p <= 97) is exhaustive over all p^3 tuples, read off the p^3
    products (x - r)(x^2 + b x + c) by factorization type (_root_counts).
    Other odd n, and n = 3 at larger p, fall back to seeded sampling with
    the sample size reported; each sample is classified by one
    distinct-degree split of f over F_p with Euler's criterion for -x
    (poly.euler_split), without factoring it.
    """
    if n % 2 == 0 or n < 3:
        raise UsageError("n must be odd and at least 3")
    if p == 2 or not is_prime(p):
        raise UsageError("p must be an odd prime")
    if n == 3 and p <= 97:
        return _fp_sweep_cubic(p, seed)
    return _fp_sweep_sampled(p, n, seed, sample_size)


def _fp_sweep_cubic(p: int, seed: int) -> SweepReport:
    a1, a2, e, a3, disc = _cubic_grids(p)
    total = p ** 3
    rs = (e != 0) & (disc != 0)
    nroots, bad = _root_counts(p)
    key = (a1 * p + a2) * p + a3
    nroots = nroots[key]
    qr = _qr_table(p)
    # factor counts for separable cubics: 3 roots -> 3, 1 root -> 2, 0 -> 1
    nfact = np.where(nroots == 3, 3, np.where(nroots == 1, 2, 1))
    irreducible = rs & (nroots == 0)
    # -gamma is a square in a component iff its norm is: -r at a root r,
    # q(0) on an irreducible quadratic q, f(0) = e^2 on an irreducible cubic
    dist_coincide = bad[key] == 0
    # members with e = 0: f = x (x^2 + a1 x + a2), distinct nonzero roots
    # of the quadratic with square product
    quad_disc = (a1 * a1 - 4 * a2) % p
    small = ((e == 0) & (a2 != 0) & (quad_disc != 0) & qr[quad_disc]
             & qr[a2])
    counts = {
        "total": int(total),
        "regular_semisimple": int(rs.sum()),
        "irreducible": int(irreducible.sum()),
        "reducible_rs": int((rs & (nroots > 0)).sum()),
        "nontrivial_stabilizer": int((rs & (nfact > 1)).sum()),
        "distinguished_coincide": int((rs & dist_coincide).sum()),
        "e_zero": int((e == 0).sum()),
        "smallonetwo": int(small.sum()),
    }
    densities = {
        "reducible": Fraction(counts["reducible_rs"], total),
        "nontrivial_stabilizer": Fraction(counts["nontrivial_stabilizer"],
                                          total),
        "distinguished_or_non_rs": Fraction(
            int((dist_coincide | ~rs).sum()), total),
        "smallonetwo": Fraction(counts["smallonetwo"], total),
        "irreducible": Fraction(counts["irreducible"], total),
    }
    return SweepReport(p, 3, total, counts, densities, True, total, seed)


def _fp_sweep_sampled(p: int, n: int, seed: int, sample_size: int
                      ) -> SweepReport:
    rng = random.Random(seed)
    counts = {"total": sample_size, "regular_semisimple": 0,
              "irreducible": 0, "reducible_rs": 0,
              "nontrivial_stabilizer": 0, "distinguished_coincide": 0,
              "e_zero": 0, "smallonetwo": 0}
    dist_or_non_rs = 0
    neg_x = [0, p - 1]
    for _ in range(sample_size):
        a = [rng.randrange(p) for _ in range(n - 1)]
        e = rng.randrange(p)
        if e == 0:
            counts["e_zero"] += 1
            dist_or_non_rs += 1
            continue
        parts = euler_split([e * e % p] + a[::-1] + [1], neg_x, p)
        if parts is None:  # f is not squarefree
            dist_or_non_rs += 1
            continue
        counts["regular_semisimple"] += 1
        if sum((len(g) - 1) // k for k, g, _ in parts) == 1:
            counts["irreducible"] += 1
        else:
            counts["reducible_rs"] += 1
            counts["nontrivial_stabilizer"] += 1
        # -gamma = -x is a square in every residue field
        if all(square for _, _, square in parts):
            counts["distinguished_coincide"] += 1
            dist_or_non_rs += 1
    densities = {k: Fraction(counts[k], sample_size)
                 for k in ("reducible_rs", "nontrivial_stabilizer",
                           "irreducible", "smallonetwo")}
    densities["distinguished_or_non_rs"] = Fraction(dist_or_non_rs,
                                                    sample_size)
    densities["reducible"] = densities.pop("reducible_rs")
    return SweepReport(p, n, p ** n, counts, densities, False,
                       sample_size, seed)


# ---------------------------------------------------------------------------
# brute-force orthogonal groups and orbit partitions


def _det3(m):
    """Exact integer determinant of a 3x3 array m[i][j] whose entries are
    integers or integer arrays (then one determinant per array slot)."""
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _so3_elements(p: int):
    """All of SO(B)(F_p) for the antidiagonal split form B, n = 3: columns
    c1, c3 isotropic with B(c1, c3) = 1, c2 orthogonal to both with
    Q(c2) = 1, and determinant 1."""
    vecs = np.array(list(itertools.product(range(p), repeat=3)),
                    dtype=np.int64)
    q = (2 * vecs[:, 0] * vecs[:, 2] + vecs[:, 1] ** 2) % p
    out = []
    # B(v, c) = v . (B c), and B c reverses c
    for c1 in vecs[(q == 0) & vecs.any(axis=1)]:
        d1 = vecs @ c1[::-1] % p
        for c2 in vecs[(d1 == 0) & (q == 1)]:
            d2 = vecs @ c2[::-1] % p
            for c3 in vecs[(d1 == 1) & (d2 == 0) & (q == 0)]:
                g = np.stack([c1, c2, c3], axis=1)
                if _det3(g) % p == 1:
                    out.append(g)
    return np.array(out, dtype=np.int64)


_SO3_CACHE = {}


def so3_group(p: int):
    if p not in _SO3_CACHE:
        if p ** 6 > BRUTEFORCE_BUDGET:
            raise BudgetError("group enumeration budget exceeded")
        _SO3_CACHE[p] = _so3_elements(p)
    return _SO3_CACHE[p]


def group_order(p: int, n: int = 3) -> int:
    """Brute-force |SO_n(F_p)| for n = 3, checked against the closed form
    p^(m^2) * prod(p^(2i) - 1)."""
    m = n // 2
    formula = p ** (m * m)
    for i in range(1, m + 1):
        formula *= p ** (2 * i) - 1
    if n != 3:
        return formula
    got = len(so3_group(p))
    if got != formula:
        raise PreconditionError(
            f"group order mismatch: enumerated {got}, formula {formula}")
    return got


def _fiber_key(a1: int, a2: int, e: int, p: int) -> int:
    return (a1 % p) * p * p + (a2 % p) * p + (e % p)


def _decode(code: int, p: int):
    """The matrix of an index code: entry (i, j) is base-p digit 3i + j."""
    return np.array([code // p ** k % p for k in range(9)],
                    dtype=np.int64).reshape(3, 3)


_FIBER_CACHE = {}


def _fibers(p: int):
    """(order, bounds): the index codes of all of M_3(F_p) sorted by fiber
    key, ascending within a fiber, and bounds[k]:bounds[k + 1] the slice of
    order holding key k."""
    if p not in _FIBER_CACHE:
        N = p ** 9
        if N * 30 > BRUTEFORCE_BUDGET:
            raise BudgetError("fiber enumeration budget exceeded")
        codes = np.arange(N, dtype=np.int32)
        A = [[(codes // p ** (3 * i + j) % p).astype(np.int16)
              for j in range(3)] for i in range(3)]
        del codes
        # M = A A* with A* = -B A^t B, so M[i][j] = -sum_k A[i][k] A[2-j][2-k]
        M = [[-sum(A[i][k] * A[2 - j][2 - k] for k in range(3)) % p
              for j in range(3)] for i in range(3)]
        tr = M[0][0] + M[1][1] + M[2][2]
        # second elementary symmetric = sum of principal 2x2 minors
        s2 = (M[0][0] * M[1][1] - M[0][1] * M[1][0]
              + M[0][0] * M[2][2] - M[0][2] * M[2][0]
              + M[1][1] * M[2][2] - M[1][2] * M[2][1])
        del M
        # charpoly(M) = x^3 + a1 x^2 + a2 x + e^2 with a1 = -tr, a2 = s2, e=detA
        keys = (-tr % p * p + s2 % p) * p + _det3(A) % p
        del A
        order = np.argsort(keys, kind="stable")
        bounds = np.searchsorted(keys[order], np.arange(p ** 3 + 1))
        _FIBER_CACHE[p] = (order, bounds)
    return _FIBER_CACHE[p]


_ROW_CACHE = {}


def _row_action(p: int):
    """T[v, g] = code of the row vector v g for every v in F_p^3 and g in
    so3_group(p), a row vector coded as sum v_j p^j."""
    if p not in _ROW_CACHE:
        G = so3_group(p)
        w = p ** np.arange(3, dtype=np.int64)
        vecs = np.arange(p ** 3)[:, None] // w % p
        _ROW_CACHE[p] = np.einsum("vk,gkj->vgj", vecs, G) % p @ w
    return _ROW_CACHE[p]


def _orbit_codes(p: int, G, a):
    """Index codes of g1 a g2 for all (g1, g2) in G x G, G = so3_group(p).
    G is a group, so this is the orbit {g1 a g2^(-1)}, with repeats.

    Row i of g1 a g2 is (row i of g1 a) g2, and the index code of a matrix
    is sum_i p^(3i) (code of row i), so the codes are three gathers from
    the row table (_row_action)."""
    T = _row_action(p)
    rows = np.matmul(G, a) % p @ (p ** np.arange(3, dtype=np.int64))
    return (T[rows[:, 0]] + p ** 3 * T[rows[:, 1]]
            + p ** 6 * T[rows[:, 2]]).ravel()


def bruteforce_orbits(p: int, n: int, c: Invariants):
    """(orbit count, per-orbit stabilizer orders, orbit representatives)
    under SO_3 x SO_3 acting by A -> g1 A g2^(-1) on the fiber over c.

    The fiber is a sorted array of index codes (_fibers). As G is a group,
    the orbit of A is G A G: the codes of all |G|^2 images come from a few
    array gathers (_orbit_codes) and are marked on the fiber by binary
    search. Each representative is the first unmarked matrix of the fiber,
    and its stabilizer order is |G|^2 over its orbit's size.
    """
    if n != 3:
        raise BudgetError("brute force is limited to n = 3")
    ring = c.ring
    if not (isinstance(ring, PrimeField) and ring.p == p):
        raise UsageError("invariants must live over F_p")
    G = so3_group(p)
    gsq = len(G) ** 2
    order, bounds = _fibers(p)
    key = _fiber_key(int(c.a[0]), int(c.a[1]), int(c.e), p)
    fiber = order[bounds[key]:bounds[key + 1]]
    covered = np.zeros(fiber.size, dtype=bool)
    stab_orders = []
    reps = []
    k = 0
    while k < fiber.size:
        mat = _decode(int(fiber[k]), p)
        codes = np.sort(_orbit_codes(p, G, mat))
        pos = np.minimum(np.searchsorted(fiber, codes), fiber.size - 1)
        if (fiber[pos] != codes).any():
            raise PreconditionError("orbit left the fiber (invariance bug)")
        covered[pos] = True
        if not covered[k]:
            raise PreconditionError("orbit misses its representative")
        reps.append(mat)
        # the orbit's size is the number of distinct sorted codes
        stab_orders.append(gsq // (1 + int(np.count_nonzero(np.diff(codes)))))
        free = ~covered[k:]
        k = k + int(free.argmax()) if free.any() else fiber.size
    return len(reps), stab_orders, reps


def same_orbit(p: int, A1, A2) -> bool:
    """Whether two 3x3 matrices over F_p are SO_3 x SO_3 conjugate."""
    a1 = np.array(A1, dtype=np.int64) % p
    a2 = np.array(A2, dtype=np.int64) % p
    target = int(a2.ravel() @ p ** np.arange(9, dtype=np.int64))
    return bool((_orbit_codes(p, so3_group(p), a1) == target).any())


# ---------------------------------------------------------------------------
# height windows over Z


def height_box_bounds(X: int, n: int):
    """Per-coordinate strict bounds: |a_i| < X^(2i), |e| < X^n."""
    return [X ** (2 * i) for i in range(1, n)] + [X ** n]


def height_box_count(X: int, n: int) -> int:
    out = 1
    for b in height_box_bounds(X, n):
        out *= max(0, 2 * b - 1)
    return out


def height_enumerate(X: int, n: int = 3, flags: bool = False):
    """All integral invariant tuples with height < X, streamed as dicts."""
    bounds = height_box_bounds(X, n)
    ranges = [range(-b + 1, b) for b in bounds]
    for tup in itertools.product(*ranges):
        a, e = tup[:-1], tup[-1]
        rec = {"a": list(a), "e": e}
        if flags:
            c = Invariants(QQ, tuple(Fraction(x) for x in a), Fraction(e))
            rs = e != 0 and not QQ.is_zero(discriminant(c.fpoly()))
            rec["regular_semisimple"] = rs
            rec["minimal"] = _is_minimal(a, e, n)
            if rs:
                rec["distinguished_coincide"] = distinguished_coincide(c)
        yield rec


def _is_minimal(a, e, n: int) -> bool:
    """No prime scaling lambda = p with p^(2i) | a_i and p^n | e."""
    if e == 0 and all(x == 0 for x in a):
        return False
    candidates = set()
    probe = abs(e) if e != 0 else next(abs(x) for x in a if x != 0)
    d = 2
    while d * d <= probe:
        if probe % d == 0:
            candidates.add(d)
            while probe % d == 0:
                probe //= d
        d += 1
    if probe > 1:
        candidates.add(probe)
    for q in candidates:
        if e % q ** n != 0 and e != 0:
            continue
        if all(x % q ** (2 * i) == 0 for i, x in enumerate(a, start=1)):
            return False
    return True


def scale_invariants(a, e, lam: int, n: int):
    return ([x * lam ** (2 * i) for i, x in enumerate(a, start=1)],
            e * lam ** n)


def height_lt(a, e, X) -> bool:
    """Exact test h(c) < X for rational X (strict box membership)."""
    X = Fraction(X)
    n = len(a) + 1
    for i, x in enumerate(a, start=1):
        if Fraction(abs(x)) >= X ** (2 * i):
            return False
    return Fraction(abs(e)) < X ** n


# ---------------------------------------------------------------------------
# the strict-local-inclusion test family


def diverges_family(p: int, n: int = 3, count: int = 30,
                    seed: int = DEFAULT_SEED):
    """Members c with f = x(x-r1)(x-r2) + (p*m)^2: distinct nonzero unit
    roots with square product, one root of even positive valuation, and
    p * f(p) a p-adic square."""
    if n != 3:
        raise UsageError("the test family is implemented for n = 3")
    if p % 2 == 0 or not is_prime(p):
        raise UsageError("p must be an odd prime")
    rng = random.Random(seed ^ p)
    out = []
    tries = 0
    while len(out) < count and tries < 10000:
        tries += 1
        r1 = rng.randrange(1, p)
        r2 = rng.randrange(1, p)
        if r1 == r2:
            continue
        if pow(r1 * r2 % p, (p - 1) // 2, p) != 1:
            continue
        m = rng.randrange(1, 4)
        e = p * m
        a1 = -(r1 + r2)
        a2 = r1 * r2
        c = Invariants(QQ, (Fraction(a1), Fraction(a2)), Fraction(e))
        if QQ.is_zero(discriminant(c.fpoly())):
            continue
        out.append(c)
    if len(out) < count:
        raise BudgetError("family generation budget exhausted")
    return out
