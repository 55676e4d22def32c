"""Differential test of the shared symmetric congruence: diagonalize and
cassels_diagonalize against the two separate reductions they replaced,
copied below as oracles, digit for digit on seeded symmetric Grams."""

import random
from fractions import Fraction

import pytest

from conftest import SEED
from orbitlab.errors import PrecisionError, PreconditionError, UsageError
from orbitlab.lattices import cassels_diagonalize
from orbitlab.linalg import Mat
from orbitlab.quadforms import GramForm, diagonalize
from orbitlab.rings import GF, QQ, Qp


def _integral(x) -> bool:
    return x.is_zero() or x.valuation() >= 0


def _unit(x) -> bool:
    return (not x.is_zero()) and x.valuation() == 0


# ---------------------------------------------------------------------------
# oracles: the diagonalization with its own column closures, and the
# Z_p block reduction on its own congruence state


def old_diagonalize(Q: GramForm):
    """(P, diag) with P^t G P diagonal; raises on degenerate input."""
    R = Q.ring
    if R.char == 2:
        raise PreconditionError("characteristic 2 not supported")
    n = Q.rank
    G = [[Q.gram[i, j] for j in range(n)] for i in range(n)]
    P = [[R.one if i == j else R.zero for j in range(n)] for i in range(n)]

    def addmul_col(dst, src, c):
        # column op on G (and record in P): col_dst += c*col_src, then row same
        for i in range(n):
            G[i][dst] = R.add(G[i][dst], R.mul(c, G[i][src]))
        for j in range(n):
            G[dst][j] = R.add(G[dst][j], R.mul(c, G[src][j]))
        for i in range(n):
            P[i][dst] = R.add(P[i][dst], R.mul(c, P[i][src]))

    def swap_cols(a, b):
        for i in range(n):
            G[i][a], G[i][b] = G[i][b], G[i][a]
        G[a], G[b] = G[b], G[a]
        for i in range(n):
            P[i][a], P[i][b] = P[i][b], P[i][a]

    for k in range(n):
        # choose pivot among diagonal entries k..n-1
        pivot = None
        best_key = None
        for i in range(k, n):
            if R.is_zero(G[i][i]):
                continue
            key = G[i][i].valuation() if R.is_padic else 0
            if pivot is None or key < best_key:
                pivot, best_key = i, key
        if pivot is None:
            # all diagonal zero: use an off-diagonal entry (char != 2 trick)
            found = None
            for i in range(k, n):
                for j in range(i + 1, n):
                    if not R.is_zero(G[i][j]):
                        found = (i, j)
                        break
                if found:
                    break
            if found is None:
                rad = [j for j in range(k, n)]
                err = PreconditionError("degenerate form: nonzero radical")
                err.radical = rad
                raise err
            i, j = found
            addmul_col(i, j, R.one)  # now G[i][i] = 2*G[i][j] != 0
            pivot = i
        if pivot != k:
            swap_cols(pivot, k)
        d = G[k][k]
        for j in range(k + 1, n):
            if not R.is_zero(G[k][j]):
                addmul_col(j, k, R.neg(R.div(G[k][j], d)))
    Pm = Mat(R, P)
    return Pm, [G[i][i] for i in range(n)]


class _Reduction:
    """Mutable symmetric-congruence state: G tracks C^t G0 C."""

    def __init__(self, Q: GramForm):
        self.ring = Q.ring
        n = Q.rank
        self.n = n
        self.G = [[Q.gram[i, j] for j in range(n)] for i in range(n)]
        self.C = [[self.ring.one if i == j else self.ring.zero
                   for j in range(n)] for i in range(n)]

    def addmul(self, dst: int, src: int, lam):
        """Basis op b_dst += lam * b_src."""
        R, G, n = self.ring, self.G, self.n
        for i in range(n):
            self.C[i][dst] = R.add(self.C[i][dst], R.mul(lam, self.C[i][src]))
        for i in range(n):
            G[i][dst] = R.add(G[i][dst], R.mul(lam, G[i][src]))
        for j in range(n):
            G[dst][j] = R.add(G[dst][j], R.mul(lam, G[src][j]))

    def swap(self, i: int, j: int):
        if i == j:
            return
        for r in range(self.n):
            self.C[r][i], self.C[r][j] = self.C[r][j], self.C[r][i]
        for r in range(self.n):
            self.G[r][i], self.G[r][j] = self.G[r][j], self.G[r][i]
        self.G[i], self.G[j] = self.G[j], self.G[i]

    def set_pair(self, pos: int, e, f):
        """Replace (b_pos, b_pos+1) by the combinations e, f of themselves."""
        R, n = self.ring, self.n
        for row in self.C:
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


def _min_valuation_entry(st: _Reduction, pos: int):
    best, bv = None, None
    for i in range(pos, st.n):
        for j in range(i, st.n):
            g = st.G[i][j]
            if g.is_zero():
                continue
            v = g.valuation()
            if bv is None or v < bv:
                best, bv = (i, j), v
    if best is None:
        raise PreconditionError("form is degenerate to precision")
    return best, bv


def old_cassels_diagonalize(Q: GramForm, p: int = None):
    """(P, blocks) with P^t Q P in block-diagonal normal form over Z_p.

    p odd: 1x1 blocks u * p^b.  p = 2: 1x1 blocks u * 2^b plus 2x2 blocks
    2^b * H (H = [[0,1],[1,0]]) and 2^b * H0 (H0 = [[2,1],[1,2]]).
    Each block is {"type": "unit"|"H"|"H0", "val": b, "unit": u or None}.
    """
    ring = Q.ring
    if not ring.is_padic:
        raise UsageError("block diagonalization works over Z_p")
    if p is not None and p != ring.p:
        raise UsageError("prime mismatch with the coefficient ring")
    p = ring.p
    n = Q.rank
    for i in range(n):
        for j in range(n):
            if not _integral(Q.gram[i, j]):
                raise UsageError("Gram matrix is not integral")
    st = _Reduction(Q)
    blocks = []
    pos = 0
    while pos < n:
        (i, j), w = _min_valuation_entry(st, pos)
        if i != j and p != 2:
            # merge to put a minimal-valuation entry on the diagonal;
            # at odd p at least one of b_i +- b_j works
            st.addmul(i, j, ring.one)
            if st.G[i][i].is_zero() or st.G[i][i].valuation() > w:
                st.addmul(i, j, ring.from_int(-2))
            i = j = i
        if i == j or (p == 2 and _diag_min(st, pos, w) is not None):
            if p == 2 and i != j:
                i = j = _diag_min(st, pos, w)
            st.swap(pos, i)
            piv = st.G[pos][pos]
            for k in range(pos + 1, n):
                if st.G[k][pos].is_zero():
                    continue
                lam = ring.neg(ring.div(st.G[k][pos], piv))
                st.addmul(k, pos, lam)
            blocks.append({"type": "unit", "val": piv.valuation(),
                           "unit": piv})
            pos += 1
            continue
        # p = 2, minimal valuation strictly off-diagonal: 2x2 block
        st.swap(pos, i)
        st.swap(pos + 1, j if j != pos else i)
        blk = [[st.G[pos + a][pos + b] for b in range(2)] for a in range(2)]
        db = ring.sub(ring.mul(blk[0][0], blk[1][1]),
                      ring.mul(blk[0][1], blk[0][1]))
        for k in range(pos + 2, n):
            g0, g1 = st.G[k][pos], st.G[k][pos + 1]
            if g0.is_zero() and g1.is_zero():
                continue
            lam0 = ring.div(ring.sub(ring.mul(blk[0][1], g1),
                                     ring.mul(blk[1][1], g0)), db)
            lam1 = ring.div(ring.sub(ring.mul(blk[0][1], g0),
                                     ring.mul(blk[0][0], g1)), db)
            st.addmul(k, pos, lam0)
            st.addmul(k, pos + 1, lam1)
        btype = _normalize_even_block(st, pos, w)
        blocks.append({"type": btype, "val": w, "unit": None})
        pos += 2
    return Mat(ring, [tuple(row) for row in st.C]), blocks


def _diag_min(st: _Reduction, pos: int, w: int):
    for i in range(pos, st.n):
        g = st.G[i][i]
        if (not g.is_zero()) and g.valuation() == w:
            return i
    return None


def _normalize_even_block(st: _Reduction, pos: int, w: int) -> str:
    """Turn the current 2x2 block (scaled even unimodular) into 2^w * H or
    2^w * H0 by an in-block GL_2(Z_2) change of basis."""
    ring = st.ring
    two_w = ring.from_fraction(Fraction(2) ** w)
    a = ring.div(st.G[pos][pos], two_w)
    b = ring.div(st.G[pos][pos + 1], two_w)
    c = ring.div(st.G[pos + 1][pos + 1], two_w)
    disc = ring.sub(ring.mul(b, b), ring.mul(a, c))   # = -det of the block
    if ring.is_square(disc):
        # hyperbolic: primitive isotropic e, then a unimodular partner
        if a.is_zero():
            e = [ring.one, ring.zero]
        else:
            s = ring.sqrt(disc)
            e = [ring.sub(s, b), a]
            ev = min(x.valuation() for x in e if not x.is_zero())
            sc = ring.from_fraction(Fraction(1, 2 ** ev))
            e = [ring.mul(x, sc) for x in e]
        t = [_blk_bil(ring, a, b, c, e, [ring.one, ring.zero]),
             _blk_bil(ring, a, b, c, e, [ring.zero, ring.one])]
        k = 0 if _unit(t[0]) else 1
        base = [ring.one if m == k else ring.zero for m in range(2)]
        f = [ring.div(x, t[k]) for x in base]
        qf = _blk_q(ring, a, b, c, f)
        lam = ring.neg(ring.div(qf, ring.from_int(2)))
        f = [ring.add(f[m], ring.mul(lam, e[m])) for m in range(2)]
        st.set_pair(pos, e, f)
        return "H"
    # anisotropic: realize [[2,1],[1,2]] exactly
    e = _represent_two(ring, a, b, c)
    t = [_blk_bil(ring, a, b, c, e, [ring.one, ring.zero]),
         _blk_bil(ring, a, b, c, e, [ring.zero, ring.one])]
    k = 0 if _unit(t[0]) else 1
    base = [ring.one if m == k else ring.zero for m in range(2)]
    f = [ring.div(x, t[k]) for x in base]
    # correct f along the direction w with B(e, w) = 0, which keeps
    # B(e, f) = 1 while Q(f + s*w) = 2 is solved exactly (a solution
    # exists because every anisotropic even unimodular block is
    # equivalent to [[2,1],[1,2]])
    w = [t[1], ring.neg(t[0])]
    wv = min(x.valuation() for x in w if not x.is_zero())
    if wv:
        sc = ring.from_fraction(Fraction(1, 2 ** wv))
        w = [ring.mul(x, sc) for x in w]
    qw = _blk_q(ring, a, b, c, w)
    bw = _blk_bil(ring, a, b, c, f, w)
    qf = _blk_q(ring, a, b, c, f)
    disc2 = ring.sub(ring.mul(bw, bw),
                     ring.mul(qw, ring.sub(qf, ring.from_int(2))))
    root = ring.sqrt(disc2)
    sol = None
    for sgn in (root, ring.neg(root)):
        cand = ring.div(ring.sub(sgn, bw), qw)
        if cand.is_zero() or cand.valuation() >= 0:
            sol = cand
            break
    if sol is None:
        raise PrecisionError("no integral norm-2 partner found")
    f = [ring.add(f[m], ring.mul(sol, w[m])) for m in range(2)]
    st.set_pair(pos, e, f)
    return "H0"


def _blk_q(ring, a, b, c, v):
    return ring.add(ring.add(ring.mul(a, ring.mul(v[0], v[0])),
                             ring.mul(ring.from_int(2),
                                      ring.mul(b, ring.mul(v[0], v[1])))),
                    ring.mul(c, ring.mul(v[1], v[1])))


def _blk_bil(ring, a, b, c, v, w):
    return ring.dot([ring.dot([a, b], v), ring.dot([b, c], v)], w)


def _represent_two(ring, a, b, c):
    """Vector e over Z_2 with a e0^2 + 2b e0 e1 + c e1^2 = 2 exactly, for an
    even unimodular anisotropic block (which represents every 2*unit)."""
    two = ring.from_int(2)
    # residue search: a true solution reduces to some residue pair mod 16,
    # and any lift within 2^5 keeps the value ≡ 2 mod 64 with unit gradient
    for x in range(-8, 9):
        for y in range(-8, 9):
            if x % 2 == 0 and y % 2 == 0:
                continue
            e = [ring.from_int(x), ring.from_int(y)]
            val = ring.sub(_blk_q(ring, a, b, c, e), two)
            if val.is_zero():
                return e
            if val.valuation() >= 6:
                return _hensel_refine(ring, a, b, c, e)
    raise PreconditionError("even block represents no vector of norm 2 "
                            "(falsifies the anisotropic classification)")


def _hensel_refine(ring, a, b, c, e):
    """Newton iteration on Q(e + t*d) = 2 along a unit-gradient direction."""
    grads = [[ring.one, ring.zero], [ring.zero, ring.one]]
    d = next(g for g in grads if _unit(_blk_bil(ring, a, b, c, e, g)))
    t = ring.zero
    for _ in range(ring.prec + 2):
        cur = [ring.add(e[0], ring.mul(t, d[0])),
               ring.add(e[1], ring.mul(t, d[1]))]
        h = ring.sub(_blk_q(ring, a, b, c, cur), ring.from_int(2))
        if h.is_zero():
            return cur
        hp = ring.mul(ring.from_int(2), _blk_bil(ring, a, b, c, cur, d))
        t = ring.sub(t, ring.div(h, hp))
    raise PrecisionError("norm-2 refinement did not converge")


# ---------------------------------------------------------------------------
# inputs and comparison


def _digits(x):
    """A scalar as (p, v, u, prec) over Q_p, else as itself."""
    return (x.p, x.v, x.u, x.prec) if hasattr(x, "prec") else x


def _outcome(fn, Q):
    """The result with every scalar as its digits, or the error raised."""
    try:
        P, out = fn(Q)
    except (PrecisionError, PreconditionError, UsageError) as err:
        return type(err), str(err), getattr(err, "radical", None)
    if isinstance(out[0] if out else None, dict):
        out = [dict(b, unit=None if b["unit"] is None else _digits(b["unit"]))
               for b in out]
    else:
        out = [_digits(d) for d in out]
    return [[_digits(x) for x in r] for r in P.rows], out


def _gram(ring, ent):
    return GramForm(Mat(ring, [[ring.from_fraction(Fraction(x)) for x in r]
                               for r in ent]))


def _entry(rng, ring, integral):
    if rng.random() < 0.3:
        return 0
    x = Fraction(rng.randint(-30, 30))
    if ring.is_padic:
        x *= Fraction(ring.p) ** rng.randint(0 if integral else -2, 3)
    elif not integral and ring.char == 0:
        x /= rng.randint(1, 9)
    return x


def _random_grams(ring, rng, count, integral):
    """Symmetric Grams of rank 1..5; every third one with a zero diagonal."""
    for k in range(count):
        n = rng.randint(1, 5)
        ent = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if i != j or k % 3:
                    ent[i][j] = ent[j][i] = _entry(rng, ring, integral)
        yield _gram(ring, ent)


RINGS = [QQ, GF(5), Qp(5, 8), Qp(2, 12)]
IDS = ["QQ", "GF5", "Qp5", "Qp2"]


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
def test_diagonalize_matches_oracle(ring):
    rng = random.Random(SEED + 61)
    for Q in _random_grams(ring, rng, 60, integral=False):
        assert _outcome(diagonalize, Q) == _outcome(old_diagonalize, Q), Q


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
def test_diagonalize_degenerate_and_zero_diagonal(ring):
    # a hyperbolic plane needs the off-diagonal step; [[1, 1], [1, 1]]
    # leaves a radical after one pivot, the zero form at once
    for ent in ([[0, 1], [1, 0]], [[0, 2, 3], [2, 0, 1], [3, 1, 0]],
                [[1, 1], [1, 1]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                [[2, 0, 0], [0, 0, 0], [0, 0, 0]]):
        Q = _gram(ring, ent)
        assert _outcome(diagonalize, Q) == _outcome(old_diagonalize, Q)
    with pytest.raises(PreconditionError, match="nonzero radical") as err:
        diagonalize(_gram(ring, [[2, 0, 0], [0, 0, 0], [0, 0, 0]]))
    assert err.value.radical == [1, 2]


@pytest.mark.parametrize("ring", [Qp(5, 8), Qp(2, 12)], ids=["Qp5", "Qp2"])
def test_cassels_matches_oracle(ring):
    rng = random.Random(SEED + 62)
    for Q in _random_grams(ring, rng, 60, integral=True):
        assert _outcome(cassels_diagonalize, Q) == _outcome(
            old_cassels_diagonalize, Q), Q


@pytest.mark.parametrize("scale", [1, 2, 8])
def test_cassels_two_adic_blocks_match_oracle(scale):
    ring = Qp(2, 12)
    H, H0, D = [[0, 1], [1, 0]], [[2, 1], [1, 2]], [[6, 3], [3, 10]]
    seen = set()
    for blk in (H, H0, D):
        for other in ([[3]], H, H0):
            n = 2 + len(other)
            ent = [[0] * n for _ in range(n)]
            for i in range(2):
                for j in range(2):
                    ent[i][j] = blk[i][j] * scale
            for i, row in enumerate(other):
                for j, x in enumerate(row):
                    ent[2 + i][2 + j] = x
            ent[0][2] = ent[2][0] = 2 * scale  # couple the two blocks
            Q = _gram(ring, ent)
            got = _outcome(cassels_diagonalize, Q)
            assert got == _outcome(old_cassels_diagonalize, Q), ent
            seen |= {b["type"] for b in got[1]}
    assert {"H", "H0"} <= seen
