"""The representation: n x n matrices A lifted to self-adjoint block
operators T on V1 + V2, their invariants (a_1..a_{n-1}, e), regular
nilpotents with sl2 data and slice bases, distinguished-orbit witnesses
and cusp block-pattern classification.

The invariants are read at n x n, never from the 2n x 2n operator:
T^2 = diag(AA*, A*A) and T is conjugate to -T, so det(x - T) =
det(x^2 - A*A) and a_1..a_n come from charpoly(A*A); and
Pf(G T') = Pf([[0, BA], [-(BA)^t, 0]]) = (-1)^(n(n-1)/2) det(BA) gives e.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property

from .errors import PreconditionError, UsageError
from .linalg import Mat, block_matrix, charpoly, nullspace
from .poly import Poly, discriminant
from .quadforms import standard_split_gram
from .rings import GF, QQ


def antidiag(ring, n: int) -> Mat:
    return standard_split_gram(ring, n).gram


def ambient_gram(ring, n: int) -> Mat:
    """Gram of Q1 + Q2 = diag(B, -B) on V1 + V2."""
    B = antidiag(ring, n)
    Z = Mat.zero(ring, n, n)
    return block_matrix(ring, [[B, Z], [Z, -B]])


def star(A: Mat) -> Mat:
    """A* = (-B A B^{-1})^t = -B A^t B (B is the antidiagonal involution):
    A*[i][j] = -A[n-1-j][n-1-i]."""
    R, rows, n = A.ring, A.rows, A.nrows
    return Mat(R, [[R.neg(rows[n - 1 - j][n - 1 - i]) for j in range(n)]
                   for i in range(n)])


@dataclass(frozen=True)
class Invariants:
    ring: object
    a: tuple          # a_1 .. a_{n-1}
    e: object

    @property
    def n(self) -> int:
        return len(self.a) + 1

    def fpoly(self) -> Poly:
        R = self.ring
        coeffs = [R.mul(self.e, self.e)] + list(reversed(self.a)) + [R.one]
        return Poly(R, coeffs)

    def gpoly(self) -> Poly:
        """g(x) = f(x^2)."""
        out = [self.ring.zero] * (2 * self.n + 1)
        out[::2] = self.fpoly().coeffs
        return Poly(self.ring, out)

    @cached_property
    def disc(self):
        """disc(f), computed once per c (or taken from c's algebra)."""
        return discriminant(self.fpoly())

    def is_regular_semisimple(self) -> bool:
        R = self.ring
        return not R.is_zero(self.e) and not R.is_zero(self.disc)

    def serialize(self) -> str:
        R = self.ring
        body = ",".join(R.scalar_str(x) for x in self.a)
        return f"{body};{R.scalar_str(self.e)}"


class RepElement:
    """Self-adjoint block operator T = [[0, A], [A*, 0]]: A* = -B A^t B and
    B^2 = 1 give T^t G = G T for every A, so T is built only when read."""

    def __init__(self, A: Mat):
        n = A.nrows
        if n % 2 == 0 or n != A.ncols:
            raise PreconditionError("A must be square of odd size")
        self.ring = A.ring
        self.n = n
        self.A = A
        self.Astar = star(A)

    @cached_property
    def T(self) -> Mat:
        Z = Mat.zero(self.ring, self.n, self.n)
        return block_matrix(self.ring, [[Z, self.A], [self.Astar, Z]])

    @cached_property
    def AstarA(self) -> Mat:
        """A*A, the block of T^2 on V2; invariants_of reads it."""
        return self.Astar * self.A

    @cached_property
    def invariants(self) -> Invariants:
        """invariants_of(self), computed once."""
        return invariants_of(self)

    def negated(self) -> "RepElement":
        """lift(-A), in the fiber of e -> -e: (-A)*(-A) = A*A, and n is odd,
        so e = +-det(BA) changes sign. Known invariants carry over."""
        neg = RepElement(-self.A)
        if "invariants" in vars(self):
            c = self.invariants
            neg.invariants = Invariants(c.ring, c.a, c.ring.neg(c.e))
        return neg

    def t_squared_block(self, i: int) -> Mat:
        """T^2 restricted to V_i: AA* for i = 1, A*A for i = 2."""
        if i == 1:
            return self.A * self.Astar
        if i == 2:
            return self.AstarA
        raise UsageError("i must be 1 or 2")

    def __repr__(self):
        return f"RepElement(n={self.n}, A={self.A!r})"


def lift(A: Mat) -> RepElement:
    return RepElement(A)


def invariants_of(rep: RepElement) -> Invariants:
    """a_1..a_{n-1} and e of T, from n x n matrices: g(x) = det(x - T) =
    det(x^2 - A*A) = x^{2n} + a_1 x^{2n-2} + ... + a_n, and e = Pf(G T')
    = (-1)^(n(n-1)/2) det(BA) for T' = [[0, A], [-A*, 0]]. Over Q_p,
    charpoly(A*A) keeps the digits of the 2n x 2n charpoly; charpoly(AA*)
    can lose some."""
    R = rep.ring
    n = rep.n
    cp = charpoly(rep.AstarA)
    a = [cp.coeff(n - i) for i in range(1, n + 1)]
    e = pfaffian(rep.A)
    if not R.eq(R.mul(e, e), a[n - 1]):
        raise PreconditionError("pfaffian square does not match the constant "
                                "invariant")
    return Invariants(R, tuple(a[: n - 1]), e)


def pfaffian(A: Mat):
    """e of lift(A): (-1)^(n(n-1)/2) det(BA), BA being A's rows reversed."""
    R, n = A.ring, A.nrows
    e = _det_by_minors(Mat(R, A.rows[::-1]))
    return R.neg(e) if n * (n - 1) // 2 % 2 else e


def _det_by_minors(M: Mat):
    """Cofactor expansion along the top row, skipping zero entries: the
    products of the Pfaffian recursion on [[0, M], [-M^t, 0]], so a p-adic
    e keeps its digits (Berkowitz, as in linalg.det, can lose one)."""
    R, rows, n = M.ring, M.rows, M.nrows

    @cache
    def minor(cols):  # rows n - len(cols).. against the columns cols
        if not cols:
            return R.one
        row, acc = rows[n - len(cols)], R.zero
        for k, j in enumerate(cols):
            if not R.is_zero(row[j]):
                term = R.mul(row[j], minor(cols[:k] + cols[k + 1:]))
                acc = R.add(acc, R.neg(term) if k % 2 else term)
        return acc

    return minor(tuple(range(n)))


# ---------------------------------------------------------------------------
# regular nilpotents, sl2 data, slices


def _chain_indices(n: int):
    """Basis index chain for E1 (V1 slots 0..n-1, V2 slots n..2n-1).

    Visits f_1, f'_1, f_2, f'_2, ..., f_m, f'_m, f_{m+1}, then skips
    f'_{m+1} and continues f'_{m+2}, f_{m+2}, ..., f'_n, f_n.  This is
    the unique interleaving (up to the f <-> f' swap) whose arrow set is
    closed under the mirror symmetry (f_i -> f'_j) <-> (f'_{n+1-j} ->
    f_{n+1-i}) imposed by the antidiagonal pairing; without that closure
    no choice of coefficients lands the operator in the representation.
    """
    m = n // 2
    chain = []
    for k in range(1, m + 2):
        chain.append(k - 1)          # f_k
        if k <= m:
            chain.append(n + k - 1)  # f'_k
    for k in range(m + 2, n + 1):
        chain.append(n + k - 1)      # f'_k
        chain.append(k - 1)          # f_k
    skipped = n + m                  # f'_{m+1}
    assert len(chain) == 2 * n - 1
    return chain, skipped


def _operator_from_arrows(ring, size, arrows) -> Mat:
    rows = [[ring.zero] * size for _ in range(size)]
    for (src, dst, coeff) in arrows:
        rows[dst][src] = coeff
    return Mat(ring, rows)


def _is_skew_adjoint(E: Mat, G: Mat) -> bool:
    return (E.transpose() * G) == -(G * E)


@dataclass
class Sl2Data:
    n: int
    ring: object
    E1: Mat
    H1: Mat
    F1: Mat
    E2: Mat
    H2: Mat
    F2: Mat
    slice1: list   # A-blocks (n x n) spanning z(F1) in g_1
    slice2: list


def _build_triple(ring, n: int, chain, skipped, G):
    """Signs for the chain making E skew self-adjoint, then (E, H, F)."""
    N = 2 * n
    for signs in itertools.product((1, -1), repeat=len(chain) - 1):
        arrows = [(chain[k], chain[k + 1], ring.from_int(signs[k]))
                  for k in range(len(chain) - 1)]
        E = _operator_from_arrows(ring, N, arrows)
        if _is_skew_adjoint(E, G):
            break
    else:
        raise PreconditionError("no sign pattern makes the chain skew "
                                "self-adjoint")
    # H diagonal with sl2 weights along the chain, 0 on the skipped vector
    L = len(chain)
    hrows = [[ring.zero] * N for _ in range(N)]
    for k, idx in enumerate(chain):
        hrows[idx][idx] = ring.from_int(2 * k - (L - 1))
    H = Mat(ring, hrows)
    # F lowers along the chain: F chain[k] = (k(L-k)/sign_{k-1}) chain[k-1]
    arrows = []
    for k in range(1, L):
        mu = k * (L - k)
        arrows.append((chain[k], chain[k - 1],
                       ring.div(ring.from_int(mu), ring.from_int(signs[k - 1]))))
    F = _operator_from_arrows(ring, N, arrows)
    # sl2 relations
    if not ((H * E - E * H) == E.scale(ring.from_int(2))
            and (H * F - F * H) == F.scale(ring.from_int(-2))
            and (E * F - F * E) == H):
        raise PreconditionError("sl2 completion failed")
    if not _is_skew_adjoint(F, G):
        raise PreconditionError("lowering operator is not skew self-adjoint")
    return E, H, F


def _g1_basis_blocks(ring, n):
    """g_1 elements are [[0, C], [-C*, 0]]; basis via elementary C."""
    blocks = []
    for i in range(n):
        for j in range(n):
            rows = [[ring.one if (r == i and s == j) else ring.zero
                     for s in range(n)] for r in range(n)]
            blocks.append(Mat(ring, rows))
    return blocks


def _g1_embed(C: Mat) -> Mat:
    ring = C.ring
    n = C.nrows
    Z = Mat.zero(ring, n, n)
    return block_matrix(ring, [[Z, C], [-star(C), Z]])


def _slice_basis(ring, n, F):
    """A-blocks C with [Z_C, F] = 0, Z_C the g_1 embedding of C."""
    cols = []
    for C in _g1_basis_blocks(ring, n):
        Z = _g1_embed(C)
        comm = Z * F - F * Z
        cols.append([comm[r, s] for r in range(2 * n) for s in range(2 * n)])
    M = Mat(ring, list(zip(*cols)))   # (4n^2) x (n^2)
    basis = nullspace(M)
    out = []
    blocks = _g1_basis_blocks(ring, n)
    for v in basis:
        C = Mat.zero(ring, n, n)
        for coeff, blk in zip(v, blocks):
            C = C + blk.scale(coeff)
        out.append(C)
    if len(out) != n:
        raise PreconditionError(f"slice dimension {len(out)} != {n}")
    return out


def regular_nilpotents(n: int, ring=QQ) -> Sl2Data:
    if n % 2 == 0 or n < 3:
        raise PreconditionError("n must be odd and at least 3")
    if ring.is_finite and ring.p <= n:
        raise PreconditionError("characteristic must exceed n")
    G = ambient_gram(ring, n)
    chain, skipped = _chain_indices(n)
    E1, H1, F1 = _build_triple(ring, n, chain, skipped, G)
    # nilpotency profile: rank checks for partition [2n-1, 1]
    P = E1
    for _ in range(2 * n - 3):
        P = P * E1
    if all(ring.is_zero(c) for row in P.rows for c in row):
        raise PreconditionError("E1 dies too early (not regular)")
    if not all(ring.is_zero(c) for row in (P * E1).rows for c in row):
        raise PreconditionError("E1 survives too long")
    # swap f_i <-> f'_i conjugation gives the second orbit representative
    S = block_matrix(ring, [[Mat.zero(ring, n, n), Mat.identity(ring, n)],
                            [Mat.identity(ring, n), Mat.zero(ring, n, n)]])
    E2, H2, F2 = S * E1 * S, S * H1 * S, S * F1 * S
    slice1 = _slice_basis(ring, n, F1)
    slice2 = _slice_basis(ring, n, F2)
    return Sl2Data(n, ring, E1, H1, F1, E2, H2, F2, slice1, slice2)


# ---------------------------------------------------------------------------
# distinguished witnesses


@dataclass
class WitnessResult:
    status: str          # 'found' | 'none' | 'undecidable'
    basis: object        # list of V_i vectors when found

    def __bool__(self):
        return self.status == "found"


def _gram_vi(ring, n, i) -> Mat:
    B = antidiag(ring, n)
    return B if i == 1 else -B


def _check_witness(ring, Bi: Mat, M: Mat, vecs) -> bool:
    """vecs isotropic & pairwise orthogonal for Bi, and M vecs inside perp."""
    def pair(x, y):
        return ring.dot(x, Bi.apply(y))

    for x in vecs:
        for y in vecs:
            if not ring.is_zero(pair(x, y)):
                return False
            if not ring.is_zero(pair(y, M.apply(x))):
                return False
    return True


def _quad(S, v) -> int:
    """v S v for an integer matrix S, given by its rows, and vector v."""
    return sum(x * s * y for x, row in zip(v, S) for s, y in zip(row, v))


@cache
def _isotropic_points(p: int):
    """The points v of P^2(F_p), in lexicographic order with first nonzero
    coordinate 1, with v B v = 0 for the forms B and -B on V1 and V2."""
    B = antidiag(GF(p), 3).rows
    return [v for v in itertools.product(range(p), repeat=3)
            if next((c for c in v if c != 0), 0) == 1 and not _quad(B, v) % p]


def distinguished_witness(T: RepElement, i: int, candidates=None) -> WitnessResult:
    """Maximal isotropic X in V_i with T^2 X inside X-perp.

    Searches exhaustively over finite fields (q <= 13, n = 3): the first
    v of _isotropic_points(p) with v B_i M v = 0 mod p, M = T^2 on V_i,
    confirmed by _check_witness; elsewhere verifies candidate bases only.
    """
    ring = T.ring
    n = T.n
    M = T.t_squared_block(i)
    Bi = _gram_vi(ring, n, i)
    if candidates is not None:
        for basis in candidates:
            if len(basis) == n // 2 and _check_witness(ring, Bi, M, basis):
                return WitnessResult("found", basis)
        return WitnessResult("none" if ring.is_finite else "undecidable",
                             None)
    if ring.is_finite and ring.p <= 13 and n == 3:
        p = ring.p
        BM = (Bi * M).rows
        for v in map(list, _isotropic_points(p)):
            if not _quad(BM, v) % p and _check_witness(ring, Bi, M, [v]):
                return WitnessResult("found", [v])
        return WitnessResult("none", None)
    return WitnessResult("undecidable", None)


# ---------------------------------------------------------------------------
# cusp patterns


def _block_zero(A: Mat, rows: int, cols: int) -> bool:
    """Top-right rows x cols block of A identically zero."""
    R = A.ring
    n = A.ncols
    return all(R.is_zero(A[r, c])
               for r in range(rows) for c in range(n - cols, n))


def cusp_classify(A: Mat) -> str:
    n = A.nrows
    m = n // 2
    for i in range(1, n + 1):
        if i <= n and (n + 1 - i) <= n and _block_zero(A, i, n + 1 - i):
            return "disc-zero-forced"
    for i in range(1, m + 1):
        j = n - i
        if i < j and _block_zero(A, i, j) and _block_zero(A, j, i):
            return "disc-zero-forced"
    if _block_zero(A, m, m + 1):
        return "distinguished-forced-1"
    if _block_zero(A, m + 1, m):
        return "distinguished-forced-2"
    return "none"
