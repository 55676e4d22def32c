"""Z_p-lattice algorithms: symmetric block diagonalization over Z_p,
self-dualization of a lattice against a second bilinear form, verification
of ideal triples, and integral representative assembly.

The block reduction drives the symmetric congruence that quadforms owns
(quadforms.Congruence): the pivot rule of linalg, its clear step for the
1x1 blocks, and its pair update for the 2-adic 2x2 blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PrecisionError, PreconditionError, UsageError
from .etale import EtaleAlgebra, _nonsquare_unit
from .linalg import Mat, best_pivot, det, inverse
from .orbits import algebra_of, neg_gamma, trace_gram
from .poly import Poly, discriminant
from .quadforms import Congruence, GramForm, is_split, isotropic_vector
from .thetarep import Invariants


def working_precision(c: Invariants) -> int:
    """Default p-adic digit count: 20 plus the valuation of disc of the
    full (even) characteristic polynomial."""
    ring = c.ring
    if not ring.is_padic:
        raise UsageError("working precision is defined for p-adic invariants")
    d = discriminant(c.gpoly())
    if d.is_zero():
        raise PreconditionError("degenerate invariants")
    return 20 + max(0, d.valuation())


def ideal_pairing_gram(L: EtaleAlgebra, mult: Poly) -> Mat:
    """Gram of (x, y) -> Tr(mult * x * y / f'(gamma)) on the power basis.

    The coordinate ring Z_p[gamma] is self-dual for this pairing with
    mult = 1, so self-duality of a fractional ideal I for the multiplier
    nu is equivalent to nu*I^2 integral plus the norm condition
    N(I)^2 * N(nu) being a unit.
    """
    return L.pairing_gram(L.mul(L.inv(L.reduce(L.f.derivative())), mult))


@dataclass
class LatticeBasis:
    """Full-rank lattice in L given by basis columns in the power basis."""
    basis: Mat
    p: int
    prec: int
    algebra: object = None

    def __post_init__(self):
        n = self.basis.nrows
        if n != self.basis.ncols:
            raise UsageError("lattice basis must be square")
        ring = self.basis.ring
        if ring.is_zero(det(self.basis)):
            raise PreconditionError("lattice basis is degenerate to precision")

    @property
    def ring(self):
        return self.basis.ring

    def elements(self):
        """Basis vectors as algebra elements (power-basis polynomials)."""
        ring = self.ring
        n = self.basis.nrows
        return [Poly(ring, [self.basis[i, j] for i in range(n)])
                for j in range(n)]

    def norm_valuation(self) -> int:
        """v_p of the lattice norm N(I) = |det of the basis|."""
        return det(self.basis).valuation()


def _integral(x) -> bool:
    return x.is_zero() or x.valuation() >= 0


def _integral_matrix(M: Mat) -> bool:
    return all(_integral(M[i, j])
               for i in range(M.nrows) for j in range(M.ncols))


def _unit(x) -> bool:
    return (not x.is_zero()) and x.valuation() == 0


# ---------------------------------------------------------------------------
# Cassels-style block diagonalization over Z_p


def cassels_diagonalize(Q: GramForm, p: int = None):
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
    st = Congruence(Q)
    G = st.G
    blocks = []
    pos = 0
    while pos < n:
        ij = best_pivot(ring, [((i, j), G[i][j]) for i in range(pos, n)
                               for j in range(i, n)])
        if ij is None:
            raise PreconditionError("form is degenerate to precision")
        i, j = ij
        w = G[i][j].valuation()
        if i != j and p != 2:
            # merge to put a minimal-valuation entry on the diagonal;
            # at odd p at least one of b_i +- b_j works
            st.addmul(i, j, ring.one)
            if G[i][i].is_zero() or G[i][i].valuation() > w:
                st.addmul(i, j, ring.from_int(-2))
            j = i
        elif i != j:
            # p = 2: a diagonal entry of valuation w still gives a 1x1 block
            k = best_pivot(ring, [(k, G[k][k]) for k in range(pos, n)])
            if k is not None and G[k][k].valuation() == w:
                i = j = k
        if i == j:
            st.swap(pos, i)
            piv = G[pos][pos]
            st.clear(pos)
            blocks.append({"type": "unit", "val": piv.valuation(),
                           "unit": piv})
            pos += 1
            continue
        # p = 2, minimal valuation strictly off-diagonal: 2x2 block
        st.swap(pos, i)
        st.swap(pos + 1, j if j != pos else i)
        blk = [[G[pos + a][pos + b] for b in range(2)] for a in range(2)]
        db = ring.sub(ring.mul(blk[0][0], blk[1][1]),
                      ring.mul(blk[0][1], blk[0][1]))
        for k in range(pos + 2, n):
            g0, g1 = G[k][pos], G[k][pos + 1]
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
    P = Mat(ring, st.P)
    _verify_blocks(Q, P, blocks)
    return P, blocks


def _normalize_even_block(st: Congruence, pos: int, w: int) -> str:
    """Turn the current 2x2 block (scaled even unimodular) into 2^w * H or
    2^w * H0 by an in-block GL_2(Z_2) change of basis."""
    ring = st.ring
    two_w = ring.from_fraction(Fraction(2) ** w)
    a, b, c = (ring.div(st.G[pos + r][pos + s], two_w)
               for r, s in ((0, 0), (0, 1), (1, 1)))
    B = GramForm(Mat(ring, [[a, b], [b, c]]))
    disc = ring.sub(ring.mul(b, b), ring.mul(a, c))   # = -det of the block
    hyperbolic = ring.is_square(disc)
    if not hyperbolic:
        e = _represent_two(B)   # realize [[2,1],[1,2]] exactly
    elif a.is_zero():
        e = [ring.one, ring.zero]
    else:   # a primitive isotropic e
        s = ring.sqrt(disc)
        e = [ring.sub(s, b), a]
        ev = min(x.valuation() for x in e if not x.is_zero())
        sc = ring.from_fraction(Fraction(1, 2 ** ev))
        e = [ring.mul(x, sc) for x in e]
    # a partner f with B(e, f) = 1 on the standard vector where B(e, -)
    # is a unit
    t = [B.bilinear([ring.one, ring.zero], e),
         B.bilinear([ring.zero, ring.one], e)]
    k = 0 if _unit(t[0]) else 1
    f = [ring.div(ring.one if m == k else ring.zero, t[k]) for m in range(2)]
    if hyperbolic:
        lam = ring.neg(ring.div(_blk_q(B, f), ring.from_int(2)))
        f = [ring.add(f[m], ring.mul(lam, e[m])) for m in range(2)]
        st.set_pair(pos, e, f)
        return "H"
    # correct f along the direction d with B(e, d) = 0, which keeps
    # B(e, f) = 1 while Q(f + s*d) = 2 is solved exactly (a solution
    # exists because every anisotropic even unimodular block is
    # equivalent to [[2,1],[1,2]])
    d = [t[1], ring.neg(t[0])]
    dv = min(x.valuation() for x in d if not x.is_zero())
    if dv:
        sc = ring.from_fraction(Fraction(1, 2 ** dv))
        d = [ring.mul(x, sc) for x in d]
    qd = _blk_q(B, d)
    bd = B.bilinear(d, f)
    qf = _blk_q(B, f)
    disc2 = ring.sub(ring.mul(bd, bd),
                     ring.mul(qd, ring.sub(qf, ring.from_int(2))))
    root = ring.sqrt(disc2)
    sol = None
    for sgn in (root, ring.neg(root)):
        cand = ring.div(ring.sub(sgn, bd), qd)
        if cand.is_zero() or cand.valuation() >= 0:
            sol = cand
            break
    if sol is None:
        raise PrecisionError("no integral norm-2 partner found")
    f = [ring.add(f[m], ring.mul(sol, d[m])) for m in range(2)]
    st.set_pair(pos, e, f)
    return "H0"


def _blk_q(B: GramForm, v):
    # B.quad(v) loses a 2-adic digit: cli_gram_h0.json would print mod 2^24
    ring, a, b, c = B.ring, B.gram[0, 0], B.gram[0, 1], B.gram[1, 1]
    return ring.add(ring.add(ring.mul(a, ring.mul(v[0], v[0])),
                             ring.mul(ring.from_int(2),
                                      ring.mul(b, ring.mul(v[0], v[1])))),
                    ring.mul(c, ring.mul(v[1], v[1])))


def _represent_two(B: GramForm):
    """Vector e over Z_2 with a e0^2 + 2b e0 e1 + c e1^2 = 2 exactly, for an
    even unimodular anisotropic block (which represents every 2*unit)."""
    ring = B.ring
    two = ring.from_int(2)
    # residue search: a true solution reduces to some residue pair mod 16,
    # and any lift within 2^5 keeps the value ≡ 2 mod 64 with unit gradient
    for x in range(-8, 9):
        for y in range(-8, 9):
            if x % 2 == 0 and y % 2 == 0:
                continue
            e = [ring.from_int(x), ring.from_int(y)]
            val = ring.sub(_blk_q(B, e), two)
            if val.is_zero():
                return e
            if val.valuation() >= 6:
                return _hensel_refine(B, e)
    raise PreconditionError("even block represents no vector of norm 2 "
                            "(falsifies the anisotropic classification)")


def _hensel_refine(B: GramForm, e):
    """Newton iteration on Q(e + t*d) = 2 along a unit-gradient direction."""
    ring = B.ring
    grads = [[ring.one, ring.zero], [ring.zero, ring.one]]
    d = next(g for g in grads if _unit(B.bilinear(g, e)))
    t = ring.zero
    for _ in range(ring.prec + 2):
        cur = [ring.add(e[0], ring.mul(t, d[0])),
               ring.add(e[1], ring.mul(t, d[1]))]
        h = ring.sub(_blk_q(B, cur), ring.from_int(2))
        if h.is_zero():
            return cur
        hp = ring.mul(ring.from_int(2), B.bilinear(d, cur))
        t = ring.sub(t, ring.div(h, hp))
    raise PrecisionError("norm-2 refinement did not converge")


def _verify_blocks(Q: GramForm, P: Mat, blocks):
    ring = Q.ring
    got = P.transpose() * Q.gram * P
    n = Q.rank
    expected = [[ring.zero] * n for _ in range(n)]
    pos = 0
    for blk in blocks:
        if blk["type"] == "unit":
            expected[pos][pos] = blk["unit"]
            pos += 1
            continue
        tw = ring.from_fraction(Fraction(2) ** blk["val"])
        if blk["type"] == "H":
            expected[pos][pos + 1] = tw
            expected[pos + 1][pos] = tw
        else:
            expected[pos][pos] = ring.mul(tw, ring.from_int(2))
            expected[pos + 1][pos + 1] = ring.mul(tw, ring.from_int(2))
            expected[pos][pos + 1] = tw
            expected[pos + 1][pos] = tw
        pos += 2
    for i in range(n):
        for j in range(n):
            if not ring.eq(got[i, j], expected[i][j]):
                raise PreconditionError(
                    "block reduction failed verification")


# ---------------------------------------------------------------------------
# representing units and self-dualization


_UNIT_REPS = {2: (1, 3, 5, 7, -1, -3, -5, -7)}


def _unit_reps(ring):
    if ring.p == 2:
        return [ring.from_int(u) for u in _UNIT_REPS[2]]
    return [ring.one, _nonsquare_unit(ring, Poly.gen(ring)).coeff(0)]


def _two_adic_candidates(vmax: int):
    """Fractions 2^j * m covering all square classes and residues mod 2^5
    at bounded valuations (a true coordinate of bounded valuation reduces
    to one of these mod 2^(j+5))."""
    out = [Fraction(0)]
    for j in range(-vmax, vmax + 1):
        for m in range(1, 32, 2):
            out.append(Fraction(m) * Fraction(2) ** j)
            out.append(-Fraction(m) * Fraction(2) ** j)
    return out


def _represent_value(Q: GramForm, target):
    """Vector v with v^t G v = target over Q_p, or None."""
    ring = Q.ring
    n = Q.rank
    if ring.p != 2:
        ext = Mat(ring, [[Q.gram[i, j] if i < n and j < n else
                          (ring.neg(target) if i == j else ring.zero)
                          for j in range(n + 1)] for i in range(n + 1)])
        w = isotropic_vector(GramForm(ext))
        if w is None:
            return None
        if not ring.is_zero(w[n]):
            inv_t = ring.inv(w[n])
            return [ring.mul(w[i], inv_t) for i in range(n)]
        # the form itself is isotropic; shift off the isotropic vector
        v = [w[i] for i in range(n)]
        for k in range(n):
            d = [ring.one if i == k else ring.zero for i in range(n)]
            bvd = Q.bilinear(v, d)
            if not ring.is_zero(bvd):
                qd = Q.bilinear(d, d)
                alpha = ring.div(ring.sub(target, qd),
                                 ring.mul(ring.from_int(2), bvd))
                return [ring.add(ring.mul(alpha, v[i]), d[i])
                        for i in range(n)]
        return None
    # p = 2: diagonalize and run a bounded complete search
    P, diag = Q.diagonal
    vmax = max(abs(d.valuation()) for d in diag) // 2 + abs(
        target.valuation()) // 2 + 3
    cands = _two_adic_candidates(vmax)
    for i in range(n):
        r = ring.div(target, diag[i])
        if ring.is_square(r):
            x = ring.sqrt(r)
            return P.apply([x if k == i else ring.zero for k in range(n)])
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for y in cands:
                yy = ring.from_fraction(y)
                rem = ring.sub(target,
                               ring.mul(diag[j], ring.mul(yy, yy)))
                if rem.is_zero():
                    continue
                r = ring.div(rem, diag[i])
                if ring.is_square(r):
                    x = ring.sqrt(r)
                    vec = [ring.zero] * n
                    vec[i], vec[j] = x, yy
                    return P.apply(vec)
    return None


def _unimodular_transform(Q: GramForm) -> Mat:
    """X with X^t G X diagonal with unit entries (a self-dual basis for the
    form), or raises when no unit is represented at some stage."""
    ring = Q.ring
    n = Q.rank
    if n == 0:
        return Mat(ring, [])
    e = None
    for u in _unit_reps(ring):
        e = _represent_value(Q, u)
        if e is not None:
            break
    if e is None:
        raise PreconditionError("no self-dual refinement: the form "
                                "represents no unit")
    qe = Q.bilinear(e, e)
    # complement: project the standard basis away from e
    pivot = max(range(n), key=lambda k: -(e[k].valuation()
                                          if not e[k].is_zero() else 10 ** 9))
    comp = []
    for k in range(n):
        if k == pivot:
            continue
        d = [ring.one if i == k else ring.zero for i in range(n)]
        lam = ring.neg(ring.div(Q.bilinear(e, d), qe))
        comp.append([ring.add(d[i], ring.mul(lam, e[i])) for i in range(n)])
    if not comp:
        return Mat(ring, [[e[0]]])
    sub = Mat(ring, [[Q.bilinear(comp[i], comp[j])
                      for j in range(len(comp))] for i in range(len(comp))])
    rest = Mat(ring, comp).transpose() * _unimodular_transform(GramForm(sub))
    return Mat(ring, [(a,) + r for a, r in zip(e, rest.rows)])


def self_dualize(I1: LatticeBasis, B2: GramForm, p: int = None
                 ) -> LatticeBasis:
    """Lattice between I1 and gamma^(-1) I1 that is self-dual for B2."""
    ring = B2.ring
    if p is not None and p != ring.p:
        raise UsageError("prime mismatch with the coefficient ring")
    G = B2.congruent(I1.basis)
    if not _integral_matrix(G.gram):
        raise PreconditionError("I1 is not integral for the second form")
    if _unit(G.det()):
        return I1
    X = _unimodular_transform(G)
    out = Mat(ring, I1.basis.rows) * X
    lat = LatticeBasis(out, ring.p, ring.prec, I1.algebra)
    check = lat.basis.transpose() * B2.gram * lat.basis
    if not (_integral_matrix(check) and _unit(det(check))):
        raise PreconditionError("self-dualization failed verification")
    if I1.algebra is not None:
        if not (lattice_contains(lat, I1) and
                lattice_contains(_gamma_inverse_lattice(I1), lat)):
            raise PreconditionError(
                "self-dual lattice violates the sandwich inclusions")
    return lat


def _gamma_inverse_lattice(I: LatticeBasis) -> LatticeBasis:
    Mg = I.algebra.mult_matrix(I.algebra.gamma())
    return LatticeBasis(inverse(Mg) * I.basis, I.p, I.prec, I.algebra)


def lattice_contains(outer: LatticeBasis, inner: LatticeBasis) -> bool:
    return _integral_matrix(inverse(outer.basis) * inner.basis)


# ---------------------------------------------------------------------------
# ideal triples


@dataclass
class IdealTriple:
    I1: LatticeBasis
    I2: LatticeBasis
    nu: Poly
    algebra: EtaleAlgebra


def _products_integral(L: EtaleAlgebra, mult: Poly, lat: LatticeBasis
                       ) -> bool:
    els = lat.elements()
    for i, a in enumerate(els):
        for b in els[i:]:
            prod = L.mul(L.mul(mult, a), b)
            if not all(_integral(prod.coeff(k)) for k in range(L.n)):
                return False
    return True


def ideal_triple_verify(t: IdealTriple):
    """(all_ok, report) for the containment/norm/splitness conditions."""
    L = t.algebra
    gamma = L.gamma()
    report = {}
    g1inv = _gamma_inverse_lattice(
        LatticeBasis(t.I1.basis, t.I1.p, t.I1.prec, L))
    report["i_containments"] = (lattice_contains(t.I2, t.I1) and
                                lattice_contains(g1inv, t.I2))
    report["ii_nu_I1_squared_integral"] = _products_integral(L, t.nu, t.I1)
    report["iii_nu_gamma_I2_squared_integral"] = _products_integral(
        L, L.mul(t.nu, gamma), t.I2)
    report["iv_norm_I1"] = (
        2 * t.I1.norm_valuation() == -L.norm(t.nu).valuation())
    neg_gamma_nu = L.mul(t.nu, neg_gamma(L))
    report["v_norm_I2"] = (
        2 * t.I2.norm_valuation() == -L.norm(neg_gamma_nu).valuation())
    g1 = GramForm(trace_gram(L, t.nu))
    g2 = GramForm(trace_gram(L, neg_gamma_nu))
    report["vi_forms_split"] = is_split(g1) and is_split(g2)
    return all(report.values()), report


def integral_representative(c: Invariants, nu, p: int,
                            i1: LatticeBasis) -> IdealTriple:
    """Assemble and verify an ideal triple from a caller-supplied self-dual
    lattice for the first trace form."""
    ring = c.ring
    if not (ring.is_padic and ring.p == p):
        raise UsageError("invariants must live over Q_p for the given p")
    if p == 2:
        n = c.n
        for i, ai in enumerate(c.a, start=1):
            if (not ring.is_zero(ai)) and ai.valuation() < 4 * i:
                raise PreconditionError(
                    "2-adic divisibility 2^(4i) | a_i is required")
        if c.e.valuation() < 2 * n:
            raise PreconditionError(
                "2-adic divisibility 2^(2n) | e is required")
    L = algebra_of(c)
    nu_el = nu.rep if hasattr(nu, "rep") else L.reduce(nu)
    g1 = GramForm(ideal_pairing_gram(L, nu_el))
    gram1 = i1.basis.transpose() * g1.gram * i1.basis
    if not (_integral_matrix(gram1) and _unit(det(gram1))):
        raise PreconditionError("i1 is not self-dual for the first pairing")
    b2 = GramForm(ideal_pairing_gram(L, L.mul(nu_el, L.gamma())))
    i1a = LatticeBasis(i1.basis, p, ring.prec, L)
    lam = self_dualize(i1a, b2, p)
    triple = IdealTriple(i1a, lam, nu_el, L)
    ok, report = ideal_triple_verify(triple)
    if not ok:
        bad = [k for k, v in report.items() if not v]
        raise PreconditionError(
            "assembled triple failed verification: " + ", ".join(bad))
    return triple
