"""Exact matrix algebra over the package rings.

Products and matrix-vector products run on the ring's dot kernel; over Q
and R a product clears each row's and column's denominators once and
builds one Fraction per entry. Characteristic polynomials use the
division-free Berkowitz algorithm so p-adic precision is never lost to
pivoting, and over Q and GF(p) it runs on integers; Gaussian routines pick
minimal-valuation pivots over Q_p.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import PreconditionError
from .poly import Poly, clear_denominators


class Mat:
    __slots__ = ("ring", "rows")

    def __init__(self, ring, rows):
        rows = [tuple(r) for r in rows]
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise PreconditionError("ragged matrix")
        self.ring = ring
        self.rows = tuple(rows)

    @staticmethod
    def identity(ring, n: int) -> "Mat":
        return Mat(ring, [[ring.one if i == j else ring.zero
                           for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(ring, m: int, n: int) -> "Mat":
        return Mat(ring, [[ring.zero] * n for _ in range(m)])

    @staticmethod
    def from_ints(ring, rows) -> "Mat":
        return Mat(ring, [[ring.from_int(c) for c in r] for r in rows])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def _same_shape(self, other: "Mat"):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise PreconditionError("matrix dimension mismatch")

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        R = self.ring
        return Mat(R, [[R.add(a, b) for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        R = self.ring
        return Mat(R, [[R.sub(a, b) for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self) -> "Mat":
        R = self.ring
        return Mat(R, [[R.neg(a) for a in r] for r in self.rows])

    def __mul__(self, other: "Mat") -> "Mat":
        R = self.ring
        if self.ncols != other.nrows:
            raise PreconditionError("matrix dimension mismatch")
        ot = other.transpose().rows
        if R.is_finite or R.is_padic:
            return Mat(R, [[R.dot(r, c) for c in ot] for r in self.rows])
        rows = [clear_denominators(r) for r in self.rows]
        cols = [clear_denominators(c) for c in ot]
        return Mat(R, [[Fraction(sum(map(mul, a, b)), d * e) for e, b in cols]
                       for d, a in rows])

    def scale(self, c) -> "Mat":
        R = self.ring
        return Mat(R, [[R.mul(c, a) for a in r] for r in self.rows])

    def transpose(self) -> "Mat":
        return Mat(self.ring, list(zip(*self.rows)) if self.rows else [])

    def apply(self, v):
        """Matrix times column vector (list)."""
        if len(v) != self.ncols:
            raise PreconditionError("matrix dimension mismatch")
        return [self.ring.dot(r, v) for r in self.rows]

    def col(self, j: int):
        return [r[j] for r in self.rows]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        R = self.ring
        return all(R.eq(a, b) for r1, r2 in zip(self.rows, other.rows)
                   for a, b in zip(r1, r2))

    def __hash__(self):
        return hash((self.ring, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(self.ring.scalar_str(c) for c in r)
                         for r in self.rows)
        return f"Mat[{body}]"

    def map_ring(self, ring, conv) -> "Mat":
        return Mat(ring, [[conv(c) for c in r] for r in self.rows])

    def is_symmetric(self) -> bool:
        R = self.ring
        n = self.nrows
        return all(R.eq(self.rows[i][j], self.rows[j][i])
                   for i in range(n) for j in range(i))


def block_matrix(ring, blocks) -> Mat:
    """Assemble from a 2D grid of Mat blocks."""
    rows = []
    for brow in blocks:
        for i in range(brow[0].nrows):
            rows.append([c for blk in brow for c in blk.rows[i]])
    return Mat(ring, rows)


def _pivot_key(ring, a):
    """Smaller is better; p-adic pivots prefer minimal valuation."""
    if ring.is_padic:
        return a.valuation()
    return 0


def best_pivot(ring, col_entries):
    """Index of the first nonzero entry of least valuation over Q_p (of the
    first nonzero one elsewhere), or None; entries are (index, value)."""
    best, best_key = None, None
    for idx, a in col_entries:
        if ring.is_zero(a):
            continue
        key = _pivot_key(ring, a)
        if best is None or key < best_key:
            best, best_key = idx, key
        if key == 0 and not ring.is_padic:
            break
    return best


def rref(M: Mat):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    R = M.ring
    A = [list(r) for r in M.rows]
    m, n = len(A), (len(A[0]) if A else 0)
    piv_cols = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        sel = best_pivot(R, [(i, A[i][c]) for i in range(r, m)])
        if sel is None:
            continue
        A[r], A[sel] = A[sel], A[r]
        inv = R.inv(A[r][c])
        A[r] = [R.mul(inv, a) for a in A[r]]
        for i in range(m):
            if i != r and not R.is_zero(A[i][c]):
                f = A[i][c]
                A[i] = [R.submul(a, f, b) for a, b in zip(A[i], A[r])]
        piv_cols.append(c)
        r += 1
    return Mat(R, A), piv_cols


def rank(M: Mat) -> int:
    return len(rref(M)[1])


def solve(M: Mat, b):
    """One solution of M x = b, or raise if inconsistent."""
    R = M.ring
    aug = Mat(R, [list(r) + [bb] for r, bb in zip(M.rows, b)])
    E, piv = rref(aug)
    n = M.ncols
    for row in E.rows:
        if all(R.is_zero(a) for a in row[:n]) and not R.is_zero(row[n]):
            raise PreconditionError("inconsistent linear system")
    x = [R.zero] * n
    for r_idx, c in enumerate(piv):
        if c < n:
            x[c] = E.rows[r_idx][n]
    return x


def nullspace(M: Mat):
    """Basis (list of vectors) of the right nullspace."""
    R = M.ring
    E, piv = rref(M)
    n = M.ncols
    piv_set = set(piv)
    free = [j for j in range(n) if j not in piv_set]
    basis = []
    for f in free:
        v = [R.zero] * n
        v[f] = R.one
        for r_idx, c in enumerate(piv):
            v[c] = R.neg(E.rows[r_idx][f])
        basis.append(v)
    return basis


def inverse(M: Mat) -> Mat:
    R = M.ring
    n = M.nrows
    aug = Mat(R, [r + e for r, e in zip(M.rows, Mat.identity(R, n).rows)])
    E, piv = rref(aug)
    if piv != list(range(n)):
        raise PreconditionError("matrix not invertible")
    return Mat(R, [row[n:] for row in E.rows])


def det(M: Mat):
    """Determinant via Berkowitz (division-free)."""
    cp = charpoly(M)
    R = M.ring
    n = M.nrows
    return R.mul(R.from_int((-1) ** n), cp.coeff(0))


def charpoly(M: Mat) -> Poly:
    """Monic det(xI - M) by Berkowitz, division-free: over Q (and RR) on
    the integer dM, d a common denominator, as chi_M(x) = d^-n chi_dM(dx);
    over GF(p) on integer lifts; over Q_p on the p-adic entries."""
    R, n = M.ring, M.nrows
    if R.is_padic:
        return Poly(R, _berkowitz(M.rows, R.zero, R.one, R.submul))
    if R.is_finite:
        return Poly(R, [R.from_int(c)
                        for c in _berkowitz(M.rows, 0, 1, R.submul)])
    d, ints = clear_denominators([a for r in M.rows for a in r])
    C = _berkowitz([ints[i * n:i * n + n] for i in range(n)], 0, 1, R.submul)
    return Poly(R, [Fraction(c, d ** (n - k)) for k, c in enumerate(C)])


def _berkowitz(rows, zero, one, submul):
    """Ascending coefficients of det(xI - M) in the entries' own +, -, *
    and the ring's submul: step k multiplies them by the Toeplitz matrix
    of t_0 = M[k][k], t_i = row sub^(i-1) col, sub the top-left block."""
    if not rows:
        return [one]
    C = [-rows[0][0], one]
    for k in range(1, len(rows)):
        row, w = rows[k][:k], [rows[i][k] for i in range(k)]
        t = [rows[k][k]]
        for i in range(k):
            t.append(sum(map(mul, row, w), zero))
            if i < k - 1:
                w = [sum(map(mul, rows[j][:k], w), zero) for j in range(k)]
        newC = [zero] * (k + 2)
        for d in range(k + 1):
            newC[d + 1] = newC[d + 1] + C[d]
        for i, ti in enumerate(t):
            for d in range(k + 1 - i):
                newC[d] = submul(newC[d], ti, C[d + i])
        C = newC
    return C
