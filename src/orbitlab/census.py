"""Finite-field and integral statistics: invariant sweeps over F_p,
brute-force orthogonal-group orbit oracles for tiny (n, p), height-box
enumeration over Z, and the strict-inclusion local test family.

The sweeps classify invariant tuples (a, e), f = x^n + a_1 x^(n-1) + ...
+ e^2, by how f factors over F_p and by whether -gamma (the class of -x)
is a square in every factor, i.e. whether each irreducible factor g has
g(0) a square. n = 3 at p <= 97 is exhaustive and counted in closed
form: the monic irreducibles of each degree, split by the residue class of
g(0) (_irreducible_counts), make up each squarefree f as a product of
distinct ones (_products), and each f stands for the number of e with
e^2 = f(0). Other tuples are sampled with a seeded random.Random. For
these sampled lookups one table per (p, n) holds the facts for all p^n
monics of degree n by index code sum c_i p^i (_factor_table); its flags
mark the multiples of each irreducible g of degree <= n // 2. The samples
are looked up in the table when it has at most TABLE_PER_SAMPLE entries
per sample; otherwise each is classified by one distinct-degree split of
f with Euler's criterion for -x on each part (poly.euler_split).

The orbit oracle works in integers on index codes: a matrix A over F_p is
the number sum A[i][j] p^(3i+j). The fiber table sorts all p^9 codes by
their invariants, read off nine digit arrays with integer arithmetic. As
G = SO(B)(F_p) is a group, the orbit of A under A -> g1 A g2^(-1) is
G A G, so no inverse is taken: the codes of all |G|^2 images come from a
per-p table of row actions, and one scatter marks them on a p^9 mask.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import DEFAULT_SEED
from .errors import BudgetError, PreconditionError, UsageError
from .orbits import distinguished_coincide
from .poly import euler_split
from .rings import QQ, factorint, is_prime
from .thetarep import Invariants

BRUTEFORCE_BUDGET = 2 * 10 ** 8
# A sampled sweep reads the factorization-type table when p^n is at most
# this many times its sample size. A table entry costs 0.02-0.08 us and
# about 30 bytes of peak memory to build, one euler_split 0.2-0.7 ms (2-core
# Xeon): at the bound the table costs under 3% of the splits it replaces,
# and a 20,000-sample sweep builds at most 1.3M entries (about 40 MB).
TABLE_PER_SAMPLE = 64


def _check_odd(n: int, p: int | None = None) -> None:
    """UsageError unless n = 2g + 1 >= 3 is odd and p, when given, is an
    odd prime: the paper works with odd n in odd characteristic."""
    if n % 2 == 0 or n < 3:
        raise UsageError("n must be odd and at least 3")
    if p is not None and (p == 2 or not is_prime(p)):
        raise UsageError("p must be an odd prime")


# ---------------------------------------------------------------------------
# invariant sweeps over F_p by factorization type


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


def _monics(p: int, k: int, shape):
    """Ascending coefficient arrays, reshaped to shape, of every monic of
    degree k over F_p in index-code order; the leading 1 last."""
    codes = np.arange(p ** k, dtype=np.int64).reshape(shape)
    return [codes // p ** i % p for i in range(k)] + [1]


def _mul(u, v, p: int):
    """Coefficients of the products of the monics u and v (numpy
    broadcasting pairs them), reduced mod p."""
    a, b = len(u) - 1, len(v) - 1
    return [sum(u[i] * v[j - i] for i in range(max(0, j - b), min(a, j) + 1))
            % p for j in range(a + b)] + [1]


def _multiples(p: int, n: int, g):
    """Index codes of the monic multiples of degree n of each monic g, a
    row per g (coefficients as from _monics with shape (-1, 1)).

    A multiple is f = x^t h + l with t = deg g, h one of the p^(n - t)
    monics of degree n - t and l = -(x^t h mod g), so its code is
    code(l) + p^t code(h). r runs through -(x^(t + i) mod g): it starts
    at g - x^t and is multiplied by x mod g at each step."""
    t = len(g) - 1
    h = _monics(p, n - t, (1, -1))
    r = g[:-1]
    low = [h[0] * c for c in r]
    for hi in h[1:]:
        r = [(c - r[-1] * gj) % p for c, gj in zip([0] + r[:-1], g[:-1])]
        low = [lj + hi * c for lj, c in zip(low, r)]
    code = p ** t * np.arange(p ** (n - t), dtype=np.int64)
    for j, lj in enumerate(low):
        code = code + lj % p * p ** j
    return code


def _factor_table(p: int, n: int):
    """(squarefree, irreducible, bad): boolean arrays over the p^n monic
    f = x^n + sum c_i x^i of degree n over F_p, indexed by sum c_i p^i.

    For each degree k = 1 .. n // 2 and each irreducible g of degree k
    the flags mark multiples: of g, which are reducible; of g^2, which
    are not squarefree; and of g with g(0) a non-residue, which are bad.
    When f(0) is a nonzero square, the Legendre symbols of the constant
    terms of f's factors multiply to 1, so a non-residue g(0) for some
    g | f implies one for a g of degree <= n // 2. bad then says that -x
    is not a square in some F_p[x]/(g), g | f, as its norm there is g(0).
    """
    reducible, square_div, bad = (np.zeros(p ** n, dtype=bool)
                                  for _ in range(3))
    nonres = np.ones(p, dtype=bool)
    nonres[np.arange(p) ** 2 % p] = False
    for k in range(1, n // 2 + 1):
        irr = _factor_table(p, k)[1]
        g = [c[irr] for c in _monics(p, k, (-1, 1))[:-1]] + [1]
        codes = _multiples(p, n, g)
        reducible[codes] = True
        bad[codes[nonres[g[0][:, 0]]]] = True
        square_div[_multiples(p, n, _mul(g, g, p))] = True
    return ~square_div, ~reducible, bad


def _split_flags(f, p: int):
    """(squarefree, irreducible, bad) of one monic f by euler_split."""
    parts = euler_split(f, [0, p - 1], p)
    if parts is None:
        return False, False, False
    return (True, sum((len(g) - 1) // k for k, g, _ in parts) == 1,
            not all(square for _, _, square in parts))


def _classify(p: int, n: int, polys, table: bool):
    """_factor_table's flags for monics of degree n given as ascending
    coefficient lists without the leading 1: table lookups, or else one
    euler_split each."""
    if table:
        codes = (np.array(polys, dtype=np.int64).reshape(-1, n)
                 @ p ** np.arange(n, dtype=np.int64))
        return tuple(t[codes] for t in _factor_table(p, n))
    return np.array([_split_flags(f + [1], p) for f in polys],
                    dtype=bool).reshape(-1, 3).T


def fp_sweep(p: int, n: int = 3, seed: int = DEFAULT_SEED,
             sample_size: int = 20000) -> SweepReport:
    """Counts of the invariant-tuple classes over F_p with exact densities.

    n = 3 at p <= 97 is exhaustive: the p^3 tuples are counted in closed
    form from the numbers of monic irreducibles of degree <= 3 whose g(0)
    is a nonzero square or a non-residue, each squarefree f weighted by
    the number of e != 0 with e^2 = f(0); no table is built. Other odd n,
    and n = 3 at larger p, sample seeded tuples and report the sample
    size. A sampled f is looked up in the factorization-type table
    (_factor_table) when p^n <= TABLE_PER_SAMPLE * sample_size, and
    otherwise classified by one distinct-degree split with Euler's
    criterion for -x (poly.euler_split). smallonetwo counts the e = 0
    tuples at n = 3 only.
    """
    _check_odd(n, p)
    if n == 3 and p <= 97:
        return _fp_sweep_cubic(p, seed)
    return _fp_sweep_sampled(p, n, seed, sample_size)


def _irreducible_counts(p: int, n: int):
    """(plus, minus): plus[k] and minus[k], 1 <= k <= n, count the monic
    irreducibles g of degree k over F_p with g(0) a nonzero square and a
    non-residue.

    The k roots of g have exact degree k in F_(p^k)^x, and N_k(a) =
    N_d(a)^(k/d) for a of exact degree d | k. Half of F_(p^k)^x has a
    square norm. Of the elements of exact degree d < k, all have one when
    k/d is even, and those with N_d(a) a square when k/d is odd. g(0) =
    (-1)^k N_k(a): at odd k every d | k is odd, so exactly half of each
    level has a square norm and the sign swaps two equal counts."""
    exact, square = [0] * (n + 1), [0] * (n + 1)
    plus, minus = [0] * (n + 1), [0] * (n + 1)
    for k in range(1, n + 1):
        divisors = [d for d in range(1, k) if k % d == 0]
        exact[k] = p ** k - 1 - sum(exact[d] for d in divisors)
        square[k] = (p ** k - 1) // 2 - sum(
            square[d] if k // d % 2 else exact[d] for d in divisors)
        plus[k], minus[k] = square[k] // k, (exact[k] - square[k]) // k
    return plus, minus


def _products(n: int, plus, minus, s: int) -> int:
    """[x^n] prod_k (1 + x^k)^plus[k] (1 + s x^k)^minus[k]. A squarefree
    monic f with f(0) != 0 is a product of distinct irreducibles, so s = 1
    counts these f of degree n, s = -1 sums the Legendre symbols of their
    f(0), and s = 0 counts those whose factors all have g(0) a square."""
    series = [1] + [0] * n
    for k in range(1, n + 1):
        for m, t in ((plus[k], 1), (minus[k], s)):
            series = [sum(series[i - k * j] * comb(m, j) * t ** j
                          for j in range(i // k + 1)) for i in range(n + 1)]
    return series[n]


def _fp_sweep_cubic(p: int, seed: int) -> SweepReport:
    # a squarefree f with f(0) a nonzero square stands for the 2 tuples of
    # its e != 0, and f(0) is a square iff an even number of its factors
    # have a non-residue g(0)
    plus, minus = _irreducible_counts(p, 3)
    rs = _products(3, plus, minus, 1) + _products(3, plus, minus, -1)
    dist = 2 * _products(3, plus, minus, 0)
    # e = 0: f = x (x^2 + a_1 x + a_2), the quadratic split with distinct
    # roots whose product a_2 is a nonzero square
    h = (p - 1) // 2
    return _report(p, 3, seed, True, p ** 3, p * p, h * (h - 1), rs,
                   2 * plus[3], dist)


def _fp_sweep_sampled(p: int, n: int, seed: int, sample_size: int
                      ) -> SweepReport:
    rng = random.Random(seed)
    draws = [[rng.randrange(p) for _ in range(n)] for _ in range(sample_size)]
    table = p ** n <= TABLE_PER_SAMPLE * sample_size
    # a draw is (a_1, .., a_(n-1), e): f = x^n + a_1 x^(n-1) + .. + e^2
    polys = [[r[-1] ** 2 % p] + r[-2::-1] for r in draws if r[-1]]
    small = 0
    if n == 3:
        # e = 0: f = x (x^2 + a_1 x + a_2), the quadratic split with a_2 a
        # nonzero square
        quads = [r[1::-1] for r in draws
                 if not r[-1] and pow(r[1], (p - 1) // 2, p) == 1]
        sf, irr, _ = _classify(p, 2, quads, table)
        small = int((sf & ~irr).sum())
    sf, irr, bad = _classify(p, n, polys, table)
    return _report(p, n, seed, False, sample_size, sample_size - len(polys),
                   small, int(sf.sum()), int(irr.sum()),
                   int((sf & ~bad).sum()))


def _report(p, n, seed, exhaustive, total, e_zero, small, rs, irreducible,
            dist):
    """The report of total tuples: e_zero with e = 0, small of them
    smallonetwo, and rs regular semisimple, irreducible of them with f
    irreducible and dist with -gamma a square in every factor."""
    # a reducible separable f has r > 1 factors: stabilizer order 2^(r - 1)
    counts = {"total": total, "regular_semisimple": rs,
              "irreducible": irreducible, "reducible_rs": rs - irreducible,
              "nontrivial_stabilizer": rs - irreducible,
              "distinguished_coincide": dist, "e_zero": e_zero,
              "smallonetwo": small}
    densities = {"reducible": Fraction(rs - irreducible, total),
                 "distinguished_or_non_rs": Fraction(dist + total - rs,
                                                     total)}
    for k in ("nontrivial_stabilizer", "irreducible", "smallonetwo"):
        densities[k] = Fraction(counts[k], total)
    return SweepReport(p, n, p ** n, counts, densities, exhaustive, total,
                       seed)


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
    _check_odd(n, p)
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
# per p, a mask over all p^9 index codes, all False between orbit counts
_MASK_CACHE = {}


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
    array gathers (_orbit_codes) and one scatter marks them on a mask over
    all p^9 codes. The fiber reads its hits and clears its codes, so a code
    still marked lies outside it. Each representative is the first unhit
    matrix of the fiber, its stabilizer order |G|^2 over its orbit's hits.
    """
    _check_odd(n, p)
    if c.n != n:
        raise UsageError(f"invariants have degree {c.n}, not n = {n}")
    if n != 3:
        raise BudgetError("brute force is limited to n = 3")
    ring = c.ring
    if not (ring.is_finite and ring.p == p):
        raise UsageError("invariants must live over F_p")
    G = so3_group(p)
    gsq = len(G) ** 2
    order, bounds = _fibers(p)
    if p not in _MASK_CACHE:
        _MASK_CACHE[p] = np.zeros(p ** 9, dtype=bool)
    mask = _MASK_CACHE[p]
    key = _fiber_key(int(c.a[0]), int(c.a[1]), int(c.e), p)
    fiber = order[bounds[key]:bounds[key + 1]]
    covered = np.zeros(fiber.size, dtype=bool)
    stab_orders = []
    reps = []
    k = 0
    while k < fiber.size:
        mat = _decode(int(fiber[k]), p)
        codes = _orbit_codes(p, G, mat)
        mask[codes] = True
        hit = mask[fiber]
        mask[fiber] = False
        if mask[codes].any():
            mask[codes] = False
            raise PreconditionError("orbit left the fiber (invariance bug)")
        if not hit[k]:
            raise PreconditionError("orbit misses its representative")
        covered |= hit
        reps.append(mat)
        stab_orders.append(gsq // int(np.count_nonzero(hit)))
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
    _check_odd(n)
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
            rs = c.is_regular_semisimple()
            rec["regular_semisimple"] = rs
            rec["minimal"] = _is_minimal(a, e, n)
            if rs:
                rec["distinguished_coincide"] = distinguished_coincide(c)
        yield rec


def _is_minimal(a, e, n: int) -> bool:
    """No prime scaling lambda = p with p^(2i) | a_i and p^n | e."""
    if e == 0 and all(x == 0 for x in a):
        return False
    probe = abs(e) if e != 0 else next(abs(x) for x in a if x != 0)
    for q in factorint(probe):
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
    _check_odd(n, p)
    if n != 3:
        raise UsageError("the test family is implemented for n = 3")
    if count < 0:
        raise UsageError("count must be nonnegative")
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
        if QQ.is_zero(c.disc):
            continue
        out.append(c)
    if len(out) < count:
        raise BudgetError("family generation budget exhausted")
    return out
