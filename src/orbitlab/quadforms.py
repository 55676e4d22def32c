"""Quadratic form toolkit: diagonalization, local invariants, splitness and
explicit isometries onto split models.

A form is classified over its own base, a local place, by one
diagonalization: the signature at R, the discriminant and the Hasse
invariant at Q_p (Serre, A Course in Arithmetic, ch. IV); at GF(p) by
det(G), as the Hasse invariant there is 1. Splitness compares those with
the split model. _local reads the place kind once, for the invariants and
the isotropic search; is_split, form_invariants and isotropic_vector share
the diagonalization kept on the form (GramForm.diagonal). The global place
Q is refused: the rational orbits come from the Kostant section (see
orbits), so no quadratic-form fact is decided over Q.

The module owns the one symmetric congruence, G = P^t G0 P kept with its
basis change P (Congruence): diagonalize drives it here, and lattices
drives it for the Z_p block reduction.

Isotropic vectors come from: exhaustive/diagonal search over GF(q), and
mod-p solutions plus Hensel lifting over Q_p (p odd). Over Q_2 only
invariants are used.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import prod

from .errors import PreconditionError, UsageError
from .linalg import Mat, best_pivot, det as mat_det, inverse, nullspace
from .rings import Padic, hilbert_symbol


class GramForm:
    """A symmetric bilinear form via its Gram matrix."""

    def __init__(self, gram: Mat):
        if not gram.is_symmetric():
            raise PreconditionError("Gram matrix must be symmetric")
        self.gram = gram
        self.ring = gram.ring
        self._det = self._frame = None

    @property
    def rank(self) -> int:
        return self.gram.nrows

    def bilinear(self, v, w):
        return self.ring.dot(v, self.gram.apply(w))

    def quad(self, v):
        return self.bilinear(v, v)

    def det(self):
        if self._det is None:  # is_split, form_invariants and callers share it
            self._det = mat_det(self.gram)
        return self._det

    @cached_property
    def diagonal(self):
        """diagonalize(self) as an immutable (P, diag) pair."""
        P, diag = diagonalize(self)
        return P, tuple(diag)

    def is_nondegenerate(self) -> bool:
        return not self.ring.is_zero(self.det())

    def congruent(self, P: Mat) -> "GramForm":
        return GramForm(P.transpose() * self.gram * P)

    def __repr__(self):
        return f"GramForm({self.gram!r})"


def standard_split_gram(ring, n: int) -> GramForm:
    """Antidiagonal ones: the split model B of rank n."""
    return GramForm(Mat(ring, [[ring.one if i + j == n - 1 else ring.zero
                                for j in range(n)] for i in range(n)]))


# ---------------------------------------------------------------------------
# symmetric congruence and diagonalization


class Congruence:
    """Mutable symmetric congruence G = P^t G0 P, kept with its basis
    change P; diagonalize and the Z_p block reduction of lattices drive it."""

    def __init__(self, Q: GramForm):
        R, n = Q.ring, Q.rank
        self.ring, self.n = R, n
        self.G = [[Q.gram[i, j] for j in range(n)] for i in range(n)]
        self.P = [[R.one if i == j else R.zero for j in range(n)]
                  for i in range(n)]

    def addmul(self, dst: int, src: int, lam):
        """Basis op b_dst += lam * b_src."""
        R, G, n = self.ring, self.G, self.n
        for i in range(n):
            self.P[i][dst] = R.add(self.P[i][dst], R.mul(lam, self.P[i][src]))
        for i in range(n):
            G[i][dst] = R.add(G[i][dst], R.mul(lam, G[i][src]))
        for j in range(n):
            G[dst][j] = R.add(G[dst][j], R.mul(lam, G[src][j]))

    def swap(self, i: int, j: int):
        if i == j:
            return
        for r in range(self.n):
            self.P[r][i], self.P[r][j] = self.P[r][j], self.P[r][i]
        for r in range(self.n):
            self.G[r][i], self.G[r][j] = self.G[r][j], self.G[r][i]
        self.G[i], self.G[j] = self.G[j], self.G[i]

    def set_pair(self, pos: int, e, f):
        """Replace (b_pos, b_pos+1) by the combinations e, f of themselves."""
        R, n = self.ring, self.n
        for row in self.P:
            c = row[pos:pos + 2]
            row[pos], row[pos + 1] = R.dot(e, c), R.dot(f, c)
        # refresh the Gram rows/cols for the pair
        old = [[self.G[pos + a][pos + b] for b in range(2)] for a in range(2)]
        vecs = [e, f]
        for a in range(2):
            for b in range(2):
                self.G[pos + a][pos + b] = R.dot(
                    [R.mul(x, y) for x in vecs[a] for y in vecs[b]],
                    old[0] + old[1])
        for j in range(n):
            if j in (pos, pos + 1):
                continue
            g = [self.G[pos][j], self.G[pos + 1][j]]
            g0, g1 = R.dot(e, g), R.dot(f, g)
            self.G[pos][j], self.G[pos + 1][j] = g0, g1
            self.G[j][pos], self.G[j][pos + 1] = g0, g1

    def clear(self, k: int):
        """Clear row and column k past the pivot G[k][k] != 0."""
        R, G, piv = self.ring, self.G, self.G[k][k]
        for j in range(k + 1, self.n):
            if not R.is_zero(G[k][j]):
                self.addmul(j, k, R.neg(R.div(G[k][j], piv)))


def diagonalize(Q: GramForm):
    """(P, diag) with P^t G P diagonal; raises on degenerate input."""
    R = Q.ring
    if R.char == 2:
        raise PreconditionError("characteristic 2 not supported")
    n = Q.rank
    st = Congruence(Q)
    G = st.G
    for k in range(n):
        pivot = best_pivot(R, [(i, G[i][i]) for i in range(k, n)])
        if pivot is None:
            # all diagonal zero: b_i += b_j gives G[i][i] = 2 G[i][j] != 0
            pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                         if not R.is_zero(G[i][j])), None)
            if pair is None:
                err = PreconditionError("degenerate form: nonzero radical")
                err.radical = list(range(k, n))
                raise err
            pivot = pair[0]
            st.addmul(pivot, pair[1], R.one)
        st.swap(pivot, k)
        st.clear(k)
    return Mat(R, st.P), [G[i][i] for i in range(n)]


# ---------------------------------------------------------------------------
# invariants


@dataclass
class FormInvariants:
    rank: int
    disc: object             # base-field element, defined up to squares
    hasse: object            # +-1 at GF(p) and Q_p, else None
    signature: object        # (pos, neg) over R, else None
    place: object


def _local(ring):
    """The one reading of the base's place kind: (the invariants of a
    nondegenerate form, the isotropic search on its diagonal or why there
    is none). Q is refused; diagonalize refuses GF(2)."""
    if ring.is_global:
        raise UsageError("no quadratic-form invariants, splitness or "
                         "isotropic search over Q (local places only)")
    if ring.is_real:
        return _signature_invariants, "no isotropic search over R"
    if ring.is_finite:
        return (_det_invariants if ring.char != 2 else _hasse_invariants,
                _isotropic_diag_gf)
    if ring.is_dyadic:
        return (_hasse_invariants,
                "no isotropic search over Q_2 (invariants only)")
    return _hasse_invariants, _isotropic_diag_qp


def _hasse(diag, place) -> int:
    return prod(hilbert_symbol(a, b, place)
                for a, b in itertools.combinations(diag, 2))


def _det_invariants(Q: GramForm) -> FormInvariants:
    """At GF(p), p odd, Hilbert symbols of units are 1 and a diagonal
    P^t G P has product det(G) det(P)^2: det(G) and 1, with no diagonal."""
    return FormInvariants(Q.rank, Q.det(), 1, None, Q.ring)


def _hasse_invariants(Q: GramForm) -> FormInvariants:
    ring, (_, diag) = Q.ring, Q.diagonal
    return FormInvariants(len(diag), reduce(ring.mul, diag, ring.one),
                          _hasse(diag, ring), None, ring)


def _signature_invariants(Q: GramForm) -> FormInvariants:
    ring, (_, diag) = Q.ring, Q.diagonal
    n, pos = len(diag), sum(1 for d in diag if d > 0)
    return FormInvariants(n, reduce(ring.mul, diag, ring.one), None,
                          (pos, n - pos), ring)


def form_invariants(Q: GramForm) -> FormInvariants:
    """Rank, discriminant, and the signature (R) or the Hasse invariant
    (GF(p), Q_p) over the form's base."""
    invariants, _ = _local(Q.ring)
    if not Q.is_nondegenerate():
        raise PreconditionError("degenerate form")
    return invariants(Q)


def is_split(Q: GramForm) -> bool:
    """Maximal Witt index over the form's base."""
    invariants, _ = _local(Q.ring)
    if not Q.is_nondegenerate():
        return False
    if Q.ring.char == 2:
        raise UsageError("characteristic 2 not supported")
    return _is_split_at(invariants(Q))


def _is_split_at(inv: FormInvariants) -> bool:
    """Maximal Witt index, from the form's invariants."""
    ring, n, m = inv.place, inv.rank, inv.rank // 2
    if inv.signature is not None:
        pos, neg = inv.signature
        return abs(pos - neg) <= (n % 2)
    # compare with the split model H^m, plus <c> in odd rank
    c = ring.mul(ring.from_int((-1) ** m), inv.disc)
    if n % 2 == 0 and not ring.is_square(c):
        return False
    return inv.hasse == _hasse([1, -1] * m + [c] * (n % 2), ring)


# ---------------------------------------------------------------------------
# isotropic vectors


# The _isotropic_diag_* searches return an isotropic vector of the diagonal
# form as its nonzero slots [(index, coordinate)], or None.


def _isotropic_pair(slots, ring):
    """The first i < j of the (index, d) slots with q = -d_i/d_j a square:
    then (1, sqrt(q)) at (i, j) is isotropic."""
    for (i, di), (j, dj) in itertools.combinations(slots, 2):
        q = ring.neg(ring.div(di, dj))
        if ring.is_square(q):
            return [(i, ring.one), (j, ring.sqrt(q))]
    return None


def _isotropic_diag_gf(diag, ring):
    """Over GF(p), p odd: a pair, else a triple with z = 1 and x, y
    scanned in lex order."""
    p = ring.p
    pair = _isotropic_pair(enumerate(diag), ring)
    if pair is not None:
        return pair
    for i, j, k in itertools.combinations(range(len(diag)), 3):
        for x in range(p):
            for y in range(p):
                if (diag[i] * x * x + diag[j] * y * y + diag[k]) % p == 0:
                    return [(i, x), (j, y), (k, ring.one)]
    return None


def _isotropic_diag_qp(diag, ring):
    """Over Q_p, p odd: within the slots of one valuation parity."""
    p = ring.p
    vals = [d.valuation() for d in diag]  # d_i = p^{v_i} u_i
    for parity in (0, 1):
        group = [(i, Padic(p, 0, d.u, d.prec))
                 for i, d in enumerate(diag) if vals[i] % 2 == parity]
        res = _unit_group_isotropic(group, ring)
        if res is not None:
            # v_i = parity + 2 w_i; coordinate i absorbs p^{-w_i}
            return [(i, ring.mul(t, ring.from_fraction(
                Fraction(p) ** ((parity - vals[i]) // 2)))) for i, t in res]
    return None


def _unit_group_isotropic(group, ring):
    """Isotropic combination using only unit-scaled slots; or None."""
    p = ring.p
    pair = _isotropic_pair(group, ring)
    if pair is not None or len(group) < 3:
        return pair
    # ternary: solve mod p with a liftable first coordinate, then Hensel.
    # After the pair shortcut fails, any mod-p isotropic vector has all
    # coordinates nonzero, so fixing z = 1 and lifting the first slot works.
    for (a, b, c) in itertools.combinations(range(len(group)), 3):
        i, ui = group[a]
        j, uj = group[b]
        k, uk = group[c]
        u = [ui.unit_mod(1), uj.unit_mod(1), uk.unit_mod(1)]
        for x in range(p):
            rhs = -(u[1] * x * x + u[2]) % p
            if rhs != 0 and pow(rhs * pow(u[0], -1, p) % p,
                                (p - 1) // 2, p) == 1:
                val = ring.neg(ring.add(
                    ring.mul(uj, ring.mul(ring.from_int(x), ring.from_int(x))),
                    uk))
                t = ring.sqrt(ring.div(val, ui))
                return [(i, t), (j, ring.from_int(x)), (k, ring.one)]
    return None


def isotropic_vector(Q: GramForm):
    """A nonzero v with Q(v) = 0, or None if none found/exists."""
    ring, (_, search) = Q.ring, _local(Q.ring)
    if isinstance(search, str):
        raise UsageError(search)
    P, diag = Q.diagonal
    w = search(diag, ring)
    if w is None:
        return None
    v = [ring.zero] * len(diag)
    for i, c in w:  # the searches return ring elements
        v[i] = c
    v = P.apply(v)
    if not ring.is_zero(Q.quad(v)):
        raise PreconditionError("isotropic search produced a bad vector")
    return v


# ---------------------------------------------------------------------------
# split frames and isometries


def _complete_hyperbolic(Q: GramForm, v):
    """w with B(v,w) = 1, Q(w) = 0."""
    R = Q.ring
    gv = Q.gram.apply(v)
    w = None
    for j, c in enumerate(gv):
        if not R.is_zero(c):
            w = [R.zero] * len(gv)
            w[j] = R.inv(c)
            break
    if w is None:
        raise PreconditionError("vector lies in the radical")
    qw = Q.quad(w)
    half = R.div(qw, R.from_int(2))
    return [R.sub(w[i], R.mul(half, v[i])) for i in range(len(w))]


def split_frame(Q: GramForm):
    """(P, m, c): P^t G P = H^m (antidiagonal 2x2 blocks) + optional <c>."""
    R = Q.ring
    n = Q.rank
    if n == 0:
        return Mat(R, []), 0, None
    if n == 1:
        return Mat.identity(R, 1), 0, Q.gram[0, 0]
    v = isotropic_vector(Q)
    if v is None:
        raise PreconditionError("form is not split (no isotropic vector)")
    w = _complete_hyperbolic(Q, v)
    # orthogonal complement of span(v, w)
    rows = [Q.gram.apply(v), Q.gram.apply(w)]
    comp = nullspace(Mat(R, rows))
    if len(comp) != n - 2:
        raise PreconditionError("hyperbolic complement has wrong dimension")
    cols = [v, w]
    if comp:
        C = Mat(R, list(zip(*comp)))  # columns = complement basis
        Pc, m, c = split_frame(Q.congruent(C))
        lifted = C * Pc
        for j in range(lifted.ncols):
            cols.append(lifted.col(j))
    else:
        m, c = 0, None
    P = Mat(R, list(zip(*cols)))
    return P, m + 1, c


def split_isometry(Q: GramForm, target: GramForm) -> Mat:
    """P with P^t * Q * P = target; both forms split with equal disc class.
    The target keeps its split frame, so a fixed target is framed once."""
    R = Q.ring
    if Q.rank != target.rank:
        raise PreconditionError("rank mismatch")
    if not R.is_square(R.div(Q.det(), target.det())):
        raise PreconditionError("discriminant mismatch")
    P1, m1, c1 = split_frame(Q)
    if target._frame is None:
        P2, m2, c2 = split_frame(target)
        target._frame = inverse(P2), m2, c2
    P2_inv, m2, c2 = target._frame
    if m1 != m2:
        raise PreconditionError("forms are not both split (Witt index differs)")
    if c1 is not None:
        # scale the last frame vector of Q so the tail entries agree
        s2 = R.div(c1, c2)
        if not R.is_square(s2):
            raise PreconditionError("tail entries differ by a nonsquare")
        s = R.sqrt(s2)
        n = Q.rank
        scale_col = Mat(R, [[R.one if (i == j and i < n - 1)
                             else (R.inv(s) if i == j else R.zero)
                             for j in range(n)] for i in range(n)])
        P1 = P1 * scale_col
    P = P1 * P2_inv
    if not (P.transpose() * Q.gram * P) == target.gram:
        raise PreconditionError("isometry construction failed verification")
    return P
