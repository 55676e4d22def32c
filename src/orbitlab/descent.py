"""Marked hyperelliptic curves y^2 = f(x) and y^2 = x f(x), the explicit
2-descent map on local points, local 2-torsion and Mordell-Weil mod-2 sizes,
generated local images with completeness flags, and their intersections.

A local image is an F_2-subspace of (L_v^x/L_v^x2)_{N=1}, with classes as
coordinate vectors (see etale). It is the span of the descent classes of
the marked point and of sampled local points: each class outside the span
so far doubles it (raises its rank by one), and sampling stops once the
span reaches the local size target or the budget is spent. sel12_local
intersects the two curves' images by vector.

|J[2](k_v)| and the classes come from c's algebra localized at the place
(built once per place); good reduction at an odd p from the exact
valuations of the rational a, e and disc(f).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import DEFAULT_SEED
from .errors import PreconditionError, UsageError
from .etale import EtaleAlgebra, SquareClass, norm_one_classes, square_class
from .orbits import algebra_of, neg_gamma, stabilizer_info
from .poly import Poly, real_roots_exact
from .rings import QQ
from .thetarep import Invariants

DEFAULT_BUDGET = 2000


@dataclass
class MarkedCurve:
    """y^2 = f(x) (which = 1) or y^2 = x f(x) (which = 2), with the marked
    points at x = 0 and at infinity."""
    c: Invariants
    which: int

    def __post_init__(self):
        if self.which not in (1, 2):
            raise UsageError("which must be 1 or 2")
        R = self.c.ring
        if R.is_zero(self.c.e):
            raise PreconditionError("curve requires f(0) = e^2 nonzero")
        try:  # c's algebra, shared with local_image, checks disc(f)
            algebra_of(self.c)
        except PreconditionError:
            raise PreconditionError("curve requires separable f") from None

    @property
    def genus(self) -> int:
        return self.c.n // 2

    def fpoly(self) -> Poly:
        return self.c.fpoly()

    def hpoly(self) -> Poly:
        """The defining right-hand side: f for curve 1, x*f for curve 2."""
        f = self.fpoly()
        return f if self.which == 1 else f.shift(1)


def two_torsion_size(c: Invariants, place=None) -> int:
    """|J[2](k_v)| = 2^(r-1), r = number of factors of f over the place,
    read off c's algebra localized there (see stabilizer_info)."""
    return stabilizer_info(c, base=place).order


def descent_class(P, curve: MarkedCurve, place=None) -> SquareClass:
    """Image of a point under the 2-descent map into (L^x/L^x2)_{N=1}.

    P is either the string "marked" (the divisor of the marked point at
    x = 0 minus the marked point at infinity, mapping to the class of
    -gamma on both curves) or a pair (x0, y0) of base-field scalars with
    y0^2 equal to the defining polynomial at x0.
    """
    c = curve.c
    L = algebra_of(c)
    ring = c.ring
    if P == "marked":
        return square_class(L, neg_gamma(L), place)
    x0, y0 = P
    f = curve.fpoly()
    fx0 = f.eval(x0)
    if ring.is_zero(fx0):
        raise PreconditionError(
            "2-torsion x-coordinate: f(x0) = 0 is not supported")
    rhs = fx0 if curve.which == 1 else ring.mul(x0, fx0)
    if not ring.eq(ring.mul(y0, y0), rhs):
        raise PreconditionError("(x0, y0) is not a point on the curve")
    if curve.which == 2 and ring.is_zero(x0):
        raise PreconditionError("x0 = 0 is a 2-torsion point on curve 2")
    return square_class(L, _point_element(L, x0, curve.which), place)


def _point_element(L: EtaleAlgebra, x0, which: int) -> Poly:
    """x0 - gamma, times x0 on curve 2 to land in norm-one classes."""
    el = L.add(L.scalar(x0), neg_gamma(L))
    return L.mul(el, L.scalar(x0)) if which == 2 else el


def local_mw_size(c: Invariants, place, which: int) -> int:
    """|J(k_v)/2J(k_v)| = b_v * |J[2](k_v)|: b_v is 1 at odd p and over
    finite fields, 2^g at 2, 2^(-g) over R."""
    ts = two_torsion_size(c, place)
    ring = c.ring if place is None else place
    size = ring.local_size_factor(c.n // 2) * ts
    if size != int(size):
        raise PreconditionError(
            "real 2-torsion count not divisible by 2^g "
            "(falsifies the root-count bookkeeping)")
    return int(size)


@dataclass
class LocalImage:
    place: object
    classes: list
    target: int
    complete: bool
    which: int = 0

    def contains(self, cls: SquareClass) -> bool:
        return any(cls == c for c in self.classes)

    def serialize(self) -> dict:
        return {
            "place": self.place.tag,
            "classes": sorted(str(c.labels) for c in self.classes),
            "target": self.target,
            "complete": self.complete,
        }


def _good_reduction(c: Invariants, ring, which: int) -> bool:
    """At Q_p, p odd: p-integral invariants and a unit disc(f); curve 2
    (y^2 = x f(x)) additionally needs f(0) = e^2 to be a unit. c lives
    over Q_p or Q (stabilizer_info refuses any other change of place).
    Rational invariants are exact, so from_fraction reads their
    valuations (and that of disc(f)) exactly at Q_p."""
    e, disc, *a = (x if c.ring == ring else ring.from_fraction(x)
                   for x in (c.e, c.disc, *c.a))
    if any(x.valuation() < 0 for x in a if not x.is_zero()):
        return False
    if e.is_zero() or e.valuation() < 0 or which == 2 and e.valuation():
        return False
    return not disc.is_zero() and disc.valuation() == 0


def _real_components(h: Poly, roots):
    """Rational sample x-values, several per connected arc where h >= 0,
    around cuts at the bottoms of h's roots' intervals, width <= 1/64."""
    cuts = []
    for root in roots:
        while root.hi - root.lo > Fraction(1, 64):
            root = root.refine()
        cuts.append(root.lo)
    samples = ([cuts[0] - 2, cuts[-1] + 2] if cuts
               else [Fraction(0), Fraction(1), Fraction(-1)])
    for a, b in zip(cuts, cuts[1:]):
        mid = (a + b) / 2
        samples += [mid, (a + mid) / 2, (mid + b) / 2]
    for cut in cuts:
        samples += [cut - Fraction(1, 3), cut + Fraction(1, 3)]
    return [x for x in samples if h.eval(x) > 0]


def _qp_candidates(p, budget, seed):
    """Fractions covering small integers, p-power scalings, and random
    p-adic approximations of bounded valuation."""
    rng = random.Random(seed)
    for t in range(-8, 9):
        yield Fraction(t)
    for j in (-1, 1, -2, 2):
        yield Fraction(p) ** j
    count = 0
    while count < budget:
        j = rng.randint(-2, 2)
        u = rng.randint(1, p ** 4)
        if u % p == 0:
            continue
        yield Fraction(u) * Fraction(p) ** j
        count += 1


def local_image(c: Invariants, place, which: int,
                budget: int = DEFAULT_BUDGET, seed: int = DEFAULT_SEED
                ) -> LocalImage:
    """Subgroup of (L^x/L^x2)_{N=1} generated by descent classes of local
    points, with a completeness flag against the local size target."""
    if budget < 0:
        raise UsageError("budget must be nonnegative")
    ring = c.ring if place is None else place
    target = local_mw_size(c, place, which)
    L = algebra_of(c)
    Lv = L if ring == c.ring else L.localize(ring)

    if ring.is_finite:
        # every class is soluble over a finite field
        return LocalImage(ring, norm_one_classes(Lv), target, True, which)
    if ring.is_real:
        curve = MarkedCurve(c, which)
        h = curve.hpoly().map_ring(QQ, Fraction)
        candidates = _real_components(h, Lv.real_roots if which == 1
                                      else real_roots_exact(h))
    elif ring.is_dyadic or not _good_reduction(c, ring, which):
        curve = MarkedCurve(c, which)
        candidates = _qp_candidates(ring.p, budget, seed)
    else:
        classes = [cl for cl in norm_one_classes(Lv)
                   if all(lab[0] == 0 for lab in cl.labels)]
        if len(classes) != target:
            raise PreconditionError(
                "unramified subgroup size disagrees with the 2-torsion count")
        return LocalImage(ring, classes, target, True, which)

    cring = c.ring
    span = {0: SquareClass(Lv, Lv.one())}  # by vector

    def adjoin(el):
        """Add the class of el; one outside the span doubles it."""
        cls = SquareClass(Lv, el.map_ring(ring, ring.from_fraction))
        if cls.vector not in span:
            span.update({v ^ cls.vector: g * cls
                         for v, g in list(span.items())})

    adjoin(neg_gamma(L))
    f = curve.fpoly()
    used = 0
    for x0 in candidates:
        if len(span) >= target or used >= budget:
            break
        used += 1
        x0b = cring.from_fraction(x0)
        try:
            fx = f.eval(x0b)
            if cring.is_zero(fx) or (which == 2 and cring.is_zero(x0b)):
                continue
            rhs = fx if which == 1 else cring.mul(x0b, fx)
            if not ring.is_square(ring.from_fraction(rhs)):
                continue
            adjoin(_point_element(L, x0b, which))
        except PreconditionError:
            continue
    return LocalImage(ring, list(span.values()), target, len(span) >= target,
                      which)


def sel12_local(c: Invariants, place, budget: int = DEFAULT_BUDGET,
                seed: int = DEFAULT_SEED) -> LocalImage:
    """Intersection of the two curves' local images."""
    im1 = local_image(c, place, 1, budget, seed)
    im2 = local_image(c, place, 2, budget, seed)
    in2 = {g.vector for g in im2.classes}
    inter = [g for g in im1.classes if g.vector in in2]
    complete = im1.complete and im2.complete
    return LocalImage(im1.place, inter, len(inter) if complete else -1,
                      complete, 0)
