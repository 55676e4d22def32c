"""Rational orbit parametrization: representatives from square classes via
trace forms, stabilizer structure, the class-to-forms map with its kernel
test, class recovery from a representative and distinguished-orbit
coincidence.

The distinguished classes 1 and -gamma come from the Kostant section
E_i + z(F_i) of side i = 1, 2 (thetarep.regular_nilpotents), which meets
the fiber over c in one point sigma_i(c) of the distinguished orbit
(Kostant-Rallis; Thorne, Algebra & Number Theory 7 (2013)). On the slice
E_i + sum x_j C_j the invariants are triangular in the x_j with constant
slopes, so sigma_i(c) is solved coordinate by coordinate, with no trace
form, delta_map or isotropic search. It is used over Q and over F_p and
Q_p for p dividing none of the section's constants (denominators of E_i
and C_j, slopes): 2, 3 and 5 for n = 3; 2, 3, 5, 7, 11 and 13 for n = 5.
The point is certified: its recomputed invariants must equal c exactly,
e included. Over Q the section is the only construction: nu takes it when
nu or nu * (-gamma) is a square, by the certified global square test, and
every other class is refused. Other classes at F_p and Q_p, and the bad
primes, take the isotropic search, whose answer is negated when its e
reads -e(c) (n is odd), so every representative lies in c's own fiber.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import PreconditionError, UsageError
from .etale import EtaleAlgebra, SquareClass, square_class
from .linalg import Mat, charpoly, inverse, rank, solve
from .poly import Poly
from .quadforms import GramForm, is_split, split_isometry, standard_split_gram
from .rings import QQ, factorint
from .thetarep import (Invariants, RepElement, antidiag, lift, pfaffian,
                       regular_nilpotents, star)


def _nu_element(L: EtaleAlgebra, nu) -> Poly:
    if isinstance(nu, SquareClass):
        return nu.rep
    if isinstance(nu, Poly):
        return L.reduce(nu)
    raise UsageError("nu must be a SquareClass or an algebra element")


# algebras held by live Invariants, by the ring and coefficients of f; the
# invariants recomputed from a representative find the algebra of the
# invariants it was built from
_ALGEBRAS = weakref.WeakValueDictionary()


def algebra_of(c: Invariants) -> EtaleAlgebra:
    """L = k[x]/(f) for c, built once per c and shared by every live c with
    the same f over an exact base (p-adic coefficients are not hashable).
    Every cache of an EtaleAlgebra depends on f alone."""
    L = c.__dict__.get("_algebra")
    if L is None:
        f = c.fpoly()
        key = (f.ring, f.coeffs)
        try:
            L = _ALGEBRAS.get(key)
        except TypeError:
            key = None
        if L is None:
            L = EtaleAlgebra(f, disc=c.disc)
            if key is not None:
                _ALGEBRAS[key] = L
        object.__setattr__(c, "_algebra", L)
        c.__dict__.setdefault("disc", L.disc)
    return L


def trace_gram(L: EtaleAlgebra, mult: Poly) -> Mat:
    """Gram of (x, y) -> Tr(f'(gamma) * mult * x * y) in the power basis."""
    return L.pairing_gram(L.mul(L.reduce(L.f.derivative()), mult))


def delta_map(c: Invariants, nu):
    """(form on L, form on L*beta, in_kernel: both split) for the class nu."""
    L = algebra_of(c)
    v = _nu_element(L, nu)
    if not L.is_unit(v):
        raise PreconditionError("nu must be a unit")
    g1 = GramForm(trace_gram(L, v))
    # Second-copy multiplier is +v*gamma: that is the convention under which
    # multiplication by gamma on L (+) L is self-adjoint for diag(g1, g2).
    g2 = GramForm(trace_gram(L, L.mul(v, L.gamma())))
    in_ker = is_split(g1) and is_split(g2)
    return g1, g2, in_ker


@lru_cache(maxsize=32)
def _split_models(ring, prec, n: int):
    """B and -B, the forms on V1 and V2, which keep their split frames: one
    per (ring, n). Q_p rings compare by p alone, hence the precision."""
    B = standard_split_gram(ring, n).gram
    return GramForm(B), GramForm(-B)


class _Section(NamedTuple):
    top: Mat       # the A-block of E_i = [[0, A], [-A*, 0]]
    basis: tuple   # the A-blocks C_j spanning z(F_i)
    steps: tuple   # per invariant a_1, ..., a_(n-1), e: (j, slope of x_j)


def _invariant(A: Mat, k: int):
    """a_(k+1) of lift(A) for k < n - 1, e for k = n - 1."""
    n = A.nrows
    if k == n - 1:
        return pfaffian(A)
    return charpoly(star(A) * A).coeff(n - 1 - k)


@lru_cache(maxsize=None)
def _kostant(n: int):
    """The sections of sides 1 and 2 over Q, and the primes dividing their
    constants. Invariant k is linear in one slice coordinate x_j, with a
    constant slope, and free of the later ones: j and the slope are read
    off the lines E_i + t C_j at t = 1 and 2. Built on first use."""
    data = regular_nilpotents(n)
    sides, bad = [], 1
    for E, basis in ((data.E1, data.slice1), (data.E2, data.slice2)):
        top = Mat(QQ, [row[n:] for row in E.rows[:n]])
        lines = [[[_invariant(top + C.scale(QQ.from_int(t)), k)
                   for k in range(n)] for t in (1, 2)] for C in basis]
        steps = []
        for k in range(n):
            js = [j for j, (one, two) in enumerate(lines)
                  if one[k] and two[k] == 2 * one[k]]
            if len(js) != 1:
                raise PreconditionError("slice is not triangular")
            slope = lines[js[0]][0][k]
            steps.append((js[0], slope))
            bad *= slope.numerator * slope.denominator
        for M in (top, *basis):
            bad *= math.lcm(*(x.denominator for row in M.rows for x in row))
        sides.append(_Section(top, tuple(basis), tuple(steps)))
    return sides, frozenset(factorint(abs(bad)))


@lru_cache(maxsize=32)
def _kostant_at(ring, prec, n: int):
    """_kostant(n)'s sections mapped into the base, once per (ring, n)."""
    conv = ring.from_fraction
    return [_Section(s.top.map_ring(ring, conv),
                     tuple(C.map_ring(ring, conv) for C in s.basis),
                     tuple((j, conv(slope)) for j, slope in s.steps))
            for s in _kostant(n)[0]]


def section_point(c: Invariants, i: int) -> RepElement:
    """sigma_i(c), the point of the Kostant section of side i over c: x_j
    for invariant k is (c_k - invariant k at the point so far) / slope,
    one read per coordinate. Raises PreconditionError unless its
    invariants equal c's exactly."""
    ring = c.ring
    top, basis, steps = _kostant_at(ring, getattr(ring, "prec", None),
                                    c.n)[i - 1]
    want = (*c.a, c.e)
    A = top
    for k, (j, slope) in enumerate(steps):
        # E_i is nilpotent: every invariant reads 0 at the start
        r = _invariant(A, k) if k else ring.zero
        A = A + basis[j].scale(ring.div(ring.sub(want[k], r), slope))
    rep = lift(A)
    got = rep.invariants
    if not all(ring.eq(x, y) for x, y in zip((*got.a, got.e), want)):
        raise PreconditionError("section point misses the invariants")
    return rep


def neg_gamma(L: EtaleAlgebra) -> Poly:
    """-gamma in L, whose class is the second distinguished one."""
    return L.mul(L.gamma(), L.scalar(L.ring.neg(L.ring.one)))


def _global_side(L: EtaleAlgebra, v: Poly) -> int:
    """The section side of nu over Q: 1 when nu is a square, 2 when
    nu * (-gamma) is; any other class has no construction over Q."""
    for side, w in ((1, v), (2, L.mul(v, neg_gamma(L)))):
        if square_class(L, w).is_trivial():
            return side
    raise UsageError("over Q only the classes 1 and -gamma have a "
                     "representative (the Kostant section)")


def orbit_from_class(c: Invariants, nu) -> RepElement:
    """Representative with invariants c whose recomputed class is nu: the
    Kostant section's point for the classes 1 and -gamma where the section
    is defined (see the module docstring), else, at F_p and Q_p, the
    isotropic search's."""
    ring = c.ring
    if ring.is_dyadic:
        raise UsageError("no representative construction over Q_2 "
                         "(isotropic search unavailable)")
    if ring.is_real:
        raise UsageError("no representative construction over R")
    if not c.is_regular_semisimple():
        raise PreconditionError("invariants must be regular semisimple")
    L = algebra_of(c)
    v = _nu_element(L, nu)
    side = 1 if v == L.one() else 2 if v == neg_gamma(L) else None
    if ring.is_global:
        return section_point(c, side or _global_side(L, v))
    if side and ring.p not in _kostant(c.n)[1]:
        return section_point(c, side)
    rep = _orbit_by_search(c, v)
    if ring.eq(rep.invariants.e, ring.neg(c.e)):
        return rep.negated()
    return rep


def _orbit_by_search(c: Invariants, nu) -> RepElement:
    """A representative with invariants a(c) and e = +-e(c) whose class is
    nu, for regular semisimple c: the trace forms of nu, split by an
    isotropic search (split_isometry), transport gamma to A."""
    ring = c.ring
    L = algebra_of(c)
    n = c.n
    g1, g2, in_ker = delta_map(c, nu)
    if not in_ker:
        raise PreconditionError("no rational orbit: forms are not both split")
    s = ring.from_int((-1) ** (n * (n - 1) // 2))
    if not ring.is_square(ring.mul(s, g1.det())):
        raise PreconditionError("form on L has wrong discriminant class")
    if not ring.is_square(ring.neg(ring.mul(s, g2.det()))):
        raise PreconditionError("form on L*beta has wrong discriminant class")
    model1, model2 = _split_models(ring, getattr(ring, "prec", None), n)
    P1 = split_isometry(g1, model1)
    P2 = split_isometry(g2, model2)
    Mg = L.mult_matrix(L.gamma())
    A = inverse(P1) * Mg * P2
    lower = inverse(P2) * P1
    if not lower == star(A):
        raise PreconditionError("transport failed the adjointness relation")
    return lift(A)


def alpha1_construct(c: Invariants) -> RepElement:
    """The base-point representative (trivial class); a PrecisionError
    reaches the caller."""
    return orbit_from_class(c, algebra_of(c).one())


@dataclass
class StabilizerInfo:
    factor_degrees: tuple
    order: int
    order_closure: int


def stabilizer_info(c: Invariants, base=None) -> StabilizerInfo:
    """Factor degrees of f over the base (c's ring by default) and the
    stabilizer orders 2^(r - 1) and 2^(n - 1); f must be separable there.

    The degrees are read off c's algebra, localized at another base: its
    factors over GF(p) or Q_p, its real roots and complex pairs over R. The
    localization is cached per place, so a local image at the same place
    reuses them."""
    ring = c.ring if base is None else base
    if ring != c.ring and not c.ring.is_global:
        raise UsageError("base change requires rational invariants")
    try:  # c's algebra checks disc(f), its localization the reduction mod p
        L = algebra_of(c)
        if ring != c.ring:
            L = L.localize(ring)
    except PreconditionError:
        raise PreconditionError("curve requires separable f") from None
    if ring.is_real:
        degs = (1,) * len(L.real_roots) + (2,) * L.n_pairs
    else:
        degs = tuple(g.degree for g in L.factors)
    r = len(degs)
    return StabilizerInfo(degs, 2 ** (r - 1), 2 ** (c.n - 1))


def recompute_class(rep: RepElement) -> SquareClass:
    """Class of a representative: pull the V1 form back to L and read the
    multiplier against the base trace pairing."""
    ring = rep.ring
    L = algebra_of(rep.invariants)
    n = rep.n
    M1 = rep.t_squared_block(1)
    w = _cyclic_vector(M1)
    cols = []
    v = w
    for _ in range(n):
        cols.append(v)
        v = M1.apply(v)
    W = Mat(ring, list(zip(*cols)))
    B = antidiag(ring, n)
    GL = W.transpose() * B * W
    base = trace_gram(L, L.one())
    nu_coeffs = solve(base, list(GL.rows[0]))
    nu = Poly(ring, nu_coeffs)
    if not trace_gram(L, nu) == GL:
        raise PreconditionError("recovered multiplier fails the Gram check")
    return square_class(L, nu)


def _cyclic_vector(M: Mat):
    ring = M.ring
    n = M.nrows

    def is_cyclic(w):
        cols = []
        v = w
        for _ in range(n):
            cols.append(v)
            v = M.apply(v)
        return rank(Mat(ring, list(zip(*cols)))) == n

    for i in range(n):
        w = [ring.one if j == i else ring.zero for j in range(n)]
        if is_cyclic(w):
            return w
    # sums of basis vectors (deterministic fallback)
    for k in range(2, n + 1):
        for idx in itertools.combinations(range(n), k):
            w = [ring.one if j in idx else ring.zero for j in range(n)]
            if is_cyclic(w):
                return w
    raise PreconditionError("no cyclic vector (operator not regular)")


def distinguished_coincide(c: Invariants) -> bool:
    """Whether -gamma is a square in L over the base."""
    L = algebra_of(c)
    return square_class(L, neg_gamma(L)).is_trivial()
