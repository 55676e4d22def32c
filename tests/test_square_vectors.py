"""Square classes as F_2 vectors.

The coordinates are checked three ways: against the group law (the vector
of a product is the sum of the vectors), against brute-force square tests
in integer arithmetic, and against the algorithms they replaced -- closing
a set of classes under products of representatives, and listing norm-one
classes by filtering every product of generators -- kept below as oracles.
"""

import itertools
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SEED, random_rs_invariants
from orbitlab import descent, orbits
from orbitlab.descent import DEFAULT_BUDGET, local_image, local_mw_size
from orbitlab.errors import PrecisionError, PreconditionError, UsageError
from orbitlab.etale import (EtaleAlgebra, SquareClass, _mod8_factor,
                            _mod8_mul, _nonsquare_unit, _pad_const,
                            _residues, _unit2_bits, norm_one_classes,
                            sign_at_root, square_class)
from orbitlab.census import DEFAULT_SEED
from orbitlab.orbits import algebra_of
from orbitlab.poly import (Poly, discriminant, distinct_degree, powmod,
                           real_roots_exact)
from orbitlab.rings import GF, QQ, RR, Qp
from orbitlab.thetarep import Invariants


def _alg(ring, coeffs_desc):
    return EtaleAlgebra(Poly(ring, [ring.from_int(c)
                                    for c in reversed(coeffs_desc)]))


# ---------------------------------------------------------------------------
# the replaced algorithms, as oracles


def _raw_product(a, b):
    """The class of the product of the two representatives."""
    return SquareClass(a.algebra, a.algebra.mul(a.rep, b.rep))


def _same_class(a, b):
    """Labels decide away from 2; at 2 the raw product is tested."""
    if a.algebra.ring.is_dyadic:
        return _raw_product(a, b).is_trivial()
    return a.labels == b.labels


def _close_under_product(classes, trivial):
    group = [trivial]
    frontier = list(classes)
    while frontier:
        g = frontier.pop()
        if any(_same_class(g, h) for h in group):
            continue
        group.append(g)
        frontier.extend(_raw_product(g, h) for h in list(group))
    return group


def _filtered_products(alg, per_factor):
    """Every product of one generator per factor (odometer order, first
    factor fastest) whose norm is a square, deduplicated."""
    out = []
    idx = [0] * len(per_factor)
    while True:
        rep = alg.one()
        for i, k in enumerate(idx):
            rep = alg.mul(rep, per_factor[i][k])
        if alg.ring.is_square(alg.norm(rep)):
            out.append(SquareClass(alg, rep))
        j = 0
        while j < len(idx):
            idx[j] += 1
            if idx[j] < len(per_factor[j]):
                break
            idx[j] = 0
            j += 1
        if j == len(idx):
            break
    uniq = []
    for c in out:
        if not any(_same_class(c, u) for u in uniq):
            uniq.append(c)
    return uniq


def _unit_reps_by_product_test(alg, i):
    """O_i^x/O_i^x2 at 2: a unit residue is kept unless its product with a
    kept one of the same label -- the level bits, and t only when they are
    0 -- is a square mod 8."""
    ring, fi = alg.ring, alg.factors[i]
    d = fi.degree
    f8, fbar = _mod8_factor(fi)
    buckets, reps = {}, []
    for code in range(8 ** d):
        u8 = tuple(code // 8 ** k % 8 for k in range(d))
        if not any(c % 2 for c in u8):
            continue
        level, t = _unit2_bits(u8, f8, fbar)
        lab = (level, None if level else t)
        if any(_unit2_bits(_mod8_mul(u8, v8, f8), f8, fbar) == (0, 0)
               for v8 in buckets.get(lab, [])):
            continue
        buckets.setdefault(lab, []).append(u8)
        reps.append(Poly(ring, [ring.from_int(c) for c in u8]))
        if len(reps) == 2 ** (d + 1):
            return reps
    raise AssertionError("2-adic unit class enumeration incomplete")


def _oracle_norm_one_classes(alg):
    ring = alg.ring
    if ring.is_real:
        k = len(alg.real_roots)
        if k == 0:
            return [SquareClass(alg, alg.one())]
        gens = [Poly(ring, [ring.neg(ring.from_fraction(m)), ring.one])
                for m in _separators(alg.real_roots)]
        out = []
        for mask in range(2 ** k):
            v = [(mask >> j) & 1 for j in range(k)]
            if sum(v) % 2:
                continue
            rep = alg.one()
            for idx in range(k):
                if v[idx] ^ (v[idx + 1] if idx + 1 < k else 0):
                    rep = alg.mul(rep, gens[idx])
            out.append(SquareClass(alg, rep))
        return out
    if ring.char == 2:
        return [SquareClass(alg, alg.one())]
    per_factor = []
    for i in range(alg.r):
        if ring.is_dyadic:
            units = [_pad_const(alg, u, i)
                     for u in _unit_reps_by_product_test(alg, i)]
        else:
            units = [alg.one(), _pad_const(
                alg, _nonsquare_unit(ring, alg.factors[i]), i)]
        if ring.is_padic:
            pi = _pad_const(alg, Poly.const(ring, ring.from_int(ring.p)), i)
            units += [alg.mul(u, pi) for u in units]
        per_factor.append(units)
    return _filtered_products(alg, per_factor)


def _good_reduction(c, place, which):
    """descent._good_reduction where local_image asks it: at odd p."""
    return (place.is_padic and not place.is_dyadic
            and descent._good_reduction(c, place, which))


def _oracle_local_image(c, place, which):
    """local_image as it was: one localization per class, groups closed
    under products of representatives."""
    ring = place
    target = local_mw_size(c, place, which)
    if ring.is_finite:
        L = algebra_of(c).localize(ring)
        return _oracle_norm_one_classes(L), target, True
    if _good_reduction(c, ring, which):
        L = algebra_of(c).localize(ring)
        classes = [cl for cl in _oracle_norm_one_classes(L)
                   if all(lab[0] == 0 for lab in cl.labels)]
        return classes, target, True
    L = algebra_of(c)
    curve = descent.MarkedCurve(c, which)
    trivial = square_class(L, L.one(), place)
    group = _close_under_product(
        [descent.descent_class("marked", curve, place)], trivial)
    if ring.is_real:
        h = curve.hpoly()
        candidates = descent._real_components(h, real_roots_exact(h))
    else:
        candidates = descent._qp_candidates(ring.p, DEFAULT_BUDGET,
                                            DEFAULT_SEED)
    f = curve.fpoly()
    used = 0
    for x0 in candidates:
        if len(group) >= target or used >= DEFAULT_BUDGET:
            break
        used += 1
        fx = f.eval(x0)
        if fx == 0 or (which == 2 and x0 == 0):
            continue
        if not ring.is_square(ring.from_fraction(fx if which == 1
                                                 else x0 * fx)):
            continue
        el = L.add(L.scalar(x0), L.mul(L.gamma(), L.scalar(-1)))
        if which == 2:
            el = L.mul(el, L.scalar(x0))
        try:
            cls = square_class(L, el, place)
        except PreconditionError:
            continue
        if not any(_same_class(cls, g) for g in group):
            group = _close_under_product(group + [cls], trivial)
    return group, target, len(group) >= target


def _nonsquare_unit_by_trials(ring, fi):
    """_nonsquare_unit as it was: every trial z, the constants included,
    raised to (p^d - 1) / 2 modulo the reduction of fi."""
    p, d = ring.p, fi.degree
    F = GF(p)
    fbar = Poly(F, _residues(fi, p, d + 1, "non-integral factor"))
    half = (p ** d - 1) // 2
    for trial in range(1, p ** d):
        z = Poly(F, [trial // p ** k % p for k in range(d)])
        pw = powmod(z, half, fbar)
        if pw.degree == 0 and F.eq(pw.coeff(0), F.from_int(-1)):
            return z.map_ring(ring, ring.from_int)
    raise PreconditionError("no nonsquare found (is p = 2?)")


# ---------------------------------------------------------------------------
# differential tests


def _reprs(classes):
    return [repr(c.rep) for c in classes]


_NORM_ONE_ALGEBRAS = [
    (GF(5), [1, 4, 1, 4]), (GF(5), [1, 0, 1, 1]), (GF(7), [1, 0, -1, 1]),
    (RR, [1, 0, -4, 1]), (RR, [1, 0, 1, 1]), (RR, [1, -1, -9, 9, 2, -1]),
    (Qp(3, 20), [1, 0, -1, 1]), (Qp(5, 20), [1, 4, 1, 4]),
    (Qp(7, 20), [1, -5, -5, 4]), (Qp(7, 20), [1, 0, -7, 1]),
    (Qp(2, 20), [1, 0, -1, 1]), (Qp(2, 20), [1, -5, -5, 4]),
    (Qp(2, 20), [1, 1, 1]), (Qp(2, 20), [1, 0, -3, 1]),
]


@pytest.mark.parametrize("ring,coeffs", _NORM_ONE_ALGEBRAS)
def test_norm_one_classes_match_filtered_products(ring, coeffs):
    L = _alg(ring, coeffs)
    new = norm_one_classes(L)
    new_reps = _reprs(new)
    old = _oracle_norm_one_classes(L)
    assert new_reps == _reprs(old)
    assert [c.labels for c in new] == [c.labels for c in old]
    assert len({c.vector for c in new}) == len(new)
    assert all(L.ring.is_square(L.norm(c.rep)) for c in new)


def _nonsquare_cases():
    """(ring, ascending coefficients of fi): every monic of degree 1 and 2
    over GF(p), p <= 7, seeded ones of degree 3 and 4, and over Z_p
    reductions g^k with k = 1 .. 4 and a non-integral factor."""
    rng = random.Random(SEED)
    cases = []
    for p in (2, 3, 5, 7):
        F = GF(p)
        for d in (1, 2):
            cases += [(F, list(low) + [1])
                      for low in itertools.product(range(p), repeat=d)]
        for d in (3, 4) if p <= 5 else (3,):
            cases += [(F, [rng.randrange(p) for _ in range(d)] + [1])
                      for _ in range(12)]
    for p in (3, 5, 7):
        K = Qp(p, 20)
        cases += [(K, [rng.randint(-9, 9) for _ in range(d)] + [1])
                  for d in ((1, 2, 3, 4) if p <= 5 else (1, 2, 3))
                  for _ in range(4)]
        cases += [(K, [-p, 0, 1]),                 # x^2: k = 2
                  (K, [-p, 0, 0, 1]),              # x^3: k = 3
                  (K, [1 + p, 3, 3, 1]),           # (x + 1)^3
                  (K, [Fraction(1, p), 1]),        # non-integral
                  (K, [1, Fraction(1, p), 1])]
    K = Qp(3, 20)
    cases += [(K, [3, 0, 0, 0, 1]),                # x^4
              (K, [1, 3, 2, 0, 1]),                # (x^2 + 1)^2 + 3x
              (K, [4, 0, 1]), (K, [-1, 0, 0, 1])]  # irreducible mod 3
    return cases


def _outcome_of(fn, ring, fi):
    try:
        z = fn(ring, fi)
    except Exception as exc:  # the same type and message, or a value
        return type(exc), str(exc)
    return [ring.scalar_str(c) for c in z.coeffs]


def test_coordinates_refuse_a_global_base():
    L = _alg(QQ, [1, -1, 0, 1])
    with pytest.raises(UsageError, match="enumeration only over local bases"):
        L.coordinates


def test_real_coordinates_have_no_unit_generators():
    """Over R a class is its signs at the real roots: the coordinates list
    no units and build no generator, both of which read factors that R
    does not have."""
    L = _alg(RR, [1, 0, -4, 1])
    co = L.coordinates
    assert not hasattr(co, "units") and not hasattr(co, "generator")
    assert [c.labels for c in norm_one_classes(L)] == [
        (1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1)]


_RAMIFIED = (PreconditionError,
             "factor appears ramified; only unramified factors are supported")
_NORMALIZATION = (PreconditionError, "2-adic unit normalization failed")


def test_dyadic_listing_refuses_a_ramified_factor():
    """x^2 - 2 at Q_2, its factor set by hand: the norm images and the
    vector of an element refuse it with the same message."""
    for read in (lambda co: co.images, lambda co: co.vector(co.alg.gamma())):
        L = _alg(Qp(2, 20), [1, 0, -2])
        L._factors = [L.f]
        with pytest.raises(PreconditionError) as info:
            read(L.coordinates)
        assert (info.type, str(info.value)) == _RAMIFIED


def test_nonsquare_unit_matches_trials():
    outcomes = set()
    for ring, coeffs in _nonsquare_cases():
        fi = Poly(ring, [ring.from_fraction(Fraction(c)) for c in coeffs])
        got = _outcome_of(_nonsquare_unit, ring, fi)
        assert got == _outcome_of(_nonsquare_unit_by_trials, ring, fi), \
            (ring, coeffs)
        outcomes.add(got if isinstance(got, tuple) else len(got))
    assert outcomes >= {
        1, 2, (PreconditionError, "non-integral factor"),
        (PreconditionError, "no nonsquare found (is p = 2?)")}


# The coordinates as they were, one class asking the place in each method:
# the oracle of the classes per place kind.


def _unit_class_reps_2adic(ring, fi: Poly):
    """O^x/O^x2 for an unramified factor fi at 2, as {unit bits: unit}: the
    first unit residue mod 8O of each class, in the order of its base-8
    code."""
    d = fi.degree
    f8, fbar = _mod8_factor(fi)
    reps = {}
    for code in range(8 ** d):
        u8 = tuple(code // 8 ** k % 8 for k in range(d))
        if not any(c % 2 for c in u8):
            continue
        level, t = _unit2_bits(u8, f8, fbar)
        bits = level << 1 | t << d + 1
        if bits not in reps:
            reps[bits] = Poly(ring, [ring.from_int(c) for c in u8])
            if len(reps) == 2 ** (d + 1):
                return reps
    raise PreconditionError("2-adic unit class enumeration incomplete")


def _factor_bits(ring, fi: Poly, comp: Poly, norm) -> int:
    """Coordinates of an element of k[x]/(fi) (module docstring), from its
    component comp there and its norm; bit 0 is the valuation at Q_p."""
    if ring.is_finite:
        if ring.is_zero(norm):
            raise PreconditionError("square class of a non-unit")
        return 0 if ring.is_square(norm) else 1
    p, d = ring.p, fi.degree
    vN = norm.valuation()
    if vN % d != 0:
        raise PreconditionError(
            "factor appears ramified; only unramified factors are supported")
    vK = vN // d
    if not ring.is_dyadic:
        return vK % 2 | (0 if pow(norm.u % p, (p - 1) // 2, p) == 1 else 2)
    # p = 2: normalize to a unit of O and classify mod 8
    unit_el = comp.scale(ring.from_fraction(Fraction(2) ** -vK)).mod(fi)
    u8 = _residues(unit_el, 8, d, "non-integral unit coordinates at 2")
    level, t = _unit2_bits(tuple(u8), *_mod8_factor(fi))
    return vK % 2 | level << 1 | t << d + 1


class _Coordinates:
    """F_2 coordinates on L^x/L^x2 over a local base: factor i (real root i
    over R) owns widths[i] bits of the vector, from bit offsets[i] up."""

    def __init__(self, alg: EtaleAlgebra):
        ring = alg.ring
        self.alg = weakref.proxy(alg)  # no cycle: alg owns its coordinates
        self.widths = [1] * len(alg.real_roots) if ring.is_real else [
            fi.degree + 2 if ring.is_dyadic else 2 if ring.is_padic else 1
            for fi in alg.factors]
        self.offsets = [sum(self.widths[:i]) for i in range(len(self.widths))]
        self._generators = {}

    def vector(self, rep: Poly) -> int:
        alg, ring = self.alg, self.alg.ring
        if ring.is_real:
            return sum(1 << j for j, root in enumerate(alg.real_roots)
                       if sign_at_root(rep, root) < 0)
        return sum(_factor_bits(ring, fi, alg.component(rep, i),
                                alg.norm_in_factor(rep, i)) << off
                   for i, (fi, off) in enumerate(zip(alg.factors,
                                                     self.offsets)))

    def labels(self, vector: int) -> tuple:
        """Per factor: the sign over R, the residue bit at GF(p), (v, qr)
        at odd p, (v, level bits, t or None) at 2."""
        ring = self.alg.ring
        out = []
        for w, off in zip(self.widths, self.offsets):
            bits = vector >> off & (1 << w) - 1
            if ring.is_real:
                out.append(1 - 2 * bits)
            elif not ring.is_padic:
                out.append(bits)
            elif not ring.is_dyadic:
                out.append((bits & 1, bits >> 1))
            else:
                level = tuple(bits >> j & 1 for j in range(1, w - 1))
                out.append((bits & 1, level,
                            None if any(level) else bits >> w - 1))
        return tuple(out)

    @cached_property
    def units(self):
        """Per factor, {unit bits: unit of k[x]/(f_i), None for 1} in
        listing order: 1 and a non-square unit at GF(p) and odd p, the
        2-adic unit representatives at Q_2."""
        ring = self.alg.ring
        return [{0: None} if ring.char == 2  # all of GF(2^d) are squares
                else _unit_class_reps_2adic(ring, fi) if ring.is_dyadic
                else {0: None, 2 if ring.is_padic else 1:
                      _nonsquare_unit(ring, fi)} for fi in self.alg.factors]

    @cached_property
    def images(self):
        """Per factor, {bits in place: base coordinates of its generator's
        norm} in listing order, units before their products with p (bit 0)
        at Q_p: in closed form at GF(p) and odd p (module docstring), from
        the generators' norms at Q_2, the signs over R."""
        ring = self.alg.ring
        if ring.is_real:
            return [{0: 0, 1 << off: 1} for off in self.offsets]
        return [{b << off: self._image(i, b) for b in ([
            *units, *(u | 1 for u in units)] if ring.is_padic else units)}
            for i, (units, off) in enumerate(zip(self.units, self.offsets))]

    def _image(self, i: int, bits: int) -> int:
        """Base coordinates of the norm of generator(i, bits)."""
        alg, ring = self.alg, self.alg.ring
        if ring.is_dyadic:
            n = alg.norm_in_factor(self.generator(i, bits), i)
            return _factor_bits(ring, Poly.gen(ring), Poly.const(ring, n), n)
        return bits & 2 | bits & alg.factors[i].degree & 1 if ring.is_padic \
            else bits

    def generator(self, i: int, bits: int) -> Poly:
        """Generator of factor i with these bits, built on first use: its
        unit there and 1 elsewhere, times p there (gens[i]) at Q_p bit 0."""
        gens, alg = self._generators, self.alg
        if (i, bits) not in gens:
            if alg.ring.is_padic and bits & 1:
                if i not in gens:
                    gens[i] = _pad_const(alg, alg.scalar(alg.ring.p), i)
                gens[i, bits] = alg.mul(self.generator(i, bits ^ 1), gens[i])
            else:
                u = self.units[i][bits]
                gens[i, bits] = _pad_const(alg, u, i) if u else alg.one()
        return gens[i, bits]

    @cached_property
    def separators(self):
        return _separators(self.alg.real_roots)

    def rep(self, vector: int) -> Poly:
        """The generator product of a vector, factor by factor; over R the
        product of the lines x - m at separators m of the real roots whose
        two sides differ in sign bit."""
        alg, ring = self.alg, self.alg.ring
        rep = alg.one()
        if ring.is_real:
            for j, m in enumerate(self.separators):
                if (vector >> j ^ vector >> j + 1) & 1:
                    rep = alg.mul(rep, Poly(ring, [ring.neg(
                        ring.from_fraction(m)), ring.one]))
            return rep
        for i, (w, off) in enumerate(zip(self.widths, self.offsets)):
            rep = alg.mul(rep, self.generator(i, vector >> off & (1 << w) - 1))
        return rep



def _separators(roots):
    """Rationals between consecutive roots' intervals, and one above all."""
    seps = [(a.hi + b.lo) / 2 for a, b in zip(roots, roots[1:])]
    return seps + [roots[-1].hi + 1] if roots else []

def _oracle_generators(alg):
    """_Coordinates.generators as it was: per factor, {bits in place:
    (generator, base coordinates of its norm)}, every generator built and
    its norm taken."""
    co, ring = _Coordinates(alg), alg.ring
    gens = []
    for i, off in enumerate(co.offsets):
        if ring.char == 2:
            block = {0: alg.one()}
        elif ring.is_dyadic:
            block = {bits: _pad_const(alg, u, i) for bits, u in
                     _unit_class_reps_2adic(ring, alg.factors[i]).items()}
        else:
            ns = _nonsquare_unit(ring, alg.factors[i])
            block = {0: alg.one(),
                     2 if ring.is_padic else 1: _pad_const(alg, ns, i)}
        if ring.is_padic:
            pi = _pad_const(alg, Poly.const(ring, ring.from_int(ring.p)), i)
            block.update({bits | 1: alg.mul(u, pi)
                          for bits, u in block.items()})
        norms = [alg.norm_in_factor(el, i) for el in block.values()]
        gens.append({bits << off: (el, _factor_bits(
            ring, Poly.gen(ring), Poly.const(ring, n), n))
            for (bits, el), n in zip(block.items(), norms)})
    return gens


def _kernel(images):
    """The vectors of the norm-one classes in listing order (first factor
    fastest), from per-factor {bits in place: norm image} blocks."""
    for combo in itertools.product(*[block.items()
                                     for block in reversed(images)]):
        vector = norm = 0
        for bits, image in combo:
            vector, norm = vector | bits, norm ^ image
        if not norm:
            yield vector


def _oracle_listing(alg):
    """The norm images and the norm-one classes (vector, labels, rep) read
    off the oracle's generators."""
    co, gens = _Coordinates(alg), _oracle_generators(alg)
    images = [[(bits, image) for bits, (_, image) in block.items()]
              for block in gens]
    classes = []
    for vector in _kernel([dict(block) for block in images]):
        rep = alg.one()
        for block, w, off in zip(gens, co.widths, co.offsets):
            rep = alg.mul(rep, block[vector & (1 << w) - 1 << off][0])
        classes.append((vector, co.labels(vector), repr(rep)))
    return images, classes


def _listing(alg):
    images = [list(block.items()) for block in alg.coordinates.images]
    return images, [(c.vector, c.labels, repr(c.rep))
                    for c in norm_one_classes(alg)]


def _answers(alg, coordinates, classes):
    """Per question, the answer of coordinates(alg) or the (type, message)
    it raised: widths and offsets, norm images, the norm-one classes
    (vector, labels, rep) and the vectors and labels of seeded elements."""
    co = coordinates(alg)
    rng = random.Random(SEED + 21)
    elements = [Poly(alg.ring, [alg.ring.from_int(rng.randint(-9, 9))
                                for _ in range(alg.n)]) for _ in range(6)]
    questions = [
        lambda: (co.widths, co.offsets),
        lambda: [list(block.items()) for block in co.images],
        lambda: classes(co),
        *[lambda a=a: (co.vector(a), co.labels(co.vector(a)))
          for a in elements]]
    out = []
    for question in questions:
        try:
            out.append(question())
        except (PreconditionError, PrecisionError) as exc:
            out.append((type(exc), str(exc)))
    return out


def _oracle_answers(alg):
    return _answers(alg, _Coordinates, lambda co: [
        (v, co.labels(v), repr(co.rep(v))) for v in _kernel(co.images)])


def _new_answers(alg):
    return _answers(alg, lambda L: L.coordinates, lambda co: [
        (c.vector, c.labels, repr(c.rep)) for c in norm_one_classes(alg)])


def _outcome(listing, ring, coeffs, factors):
    """listing on a fresh algebra (with these factors, when given), or the
    (type, message) it raised."""
    try:
        L = _alg(ring, coeffs)
        if factors:
            L._factors = [_alg(ring, fi).f for fi in factors]
        return listing(L)
    except (PreconditionError, PrecisionError) as exc:
        return type(exc), str(exc)


def _images_cases():
    """Seeded (ring, monic f descending, factors or None): squarefree f mod
    p at GF(p), p = 2 included; at Q_p per degree 1-5 (1-3 at Q_2) one f
    inert mod p (one factor of that degree), one of good reduction (at Q_2
    of degree 2-4, reducible) and, at odd p, one of bad, whose
    factorization raises; factors with fbar_i =
    g^k set by hand, the Eisenstein x^3 - p (k = 3) and x^2 - p (k = 2, no
    non-square unit), alone and beside a linear factor, and x^2 - 2 at Q_2,
    ramified; over R, f with 0, 1, 3 and 5 real roots."""
    rng = random.Random(SEED + 20)

    def draw(p, d, keep):
        while True:
            coeffs = [1] + [rng.randint(-2 * p, 2 * p) for _ in range(d)]
            disc = discriminant(Poly.from_ints(QQ, coeffs[::-1]))
            if disc and keep(disc, distinct_degree(
                    [c % p for c in reversed(coeffs)], p)):
                return coeffs

    for p in (2, 3, 5, 7, 11, 13):
        for d in range(1, 6):
            yield GF(p), draw(p, d, lambda disc, split: disc % p), None
    for p in (3, 5, 7):
        ring = Qp(p, 20)
        for d in range(1, 6):
            yield ring, draw(p, d, lambda disc, split: split[0][0] == d), None
            yield ring, draw(p, d, lambda disc, split: disc % p), None
            if d > 1:
                yield ring, draw(p, d, lambda disc, split: disc % p == 0), None
        for eisenstein in ([1, 0, 0, -p], [1, 0, -p]):
            yield ring, eisenstein, [eisenstein]
        yield ring, [1, -1, 0, -p, p], [[1, -1], [1, 0, 0, -p]]
        yield ring, [1, 1, -p, -p], [[1, 1], [1, 0, -p]]
    ring = Qp(2, 20)
    for d in range(1, 4):
        yield ring, draw(2, d, lambda disc, split: split[0][0] == d), None
        yield ring, draw(2, d + 1, lambda disc, split: disc % 2
                         and split[0][0] <= d), None
    yield ring, [1, 0, -2], [[1, 0, -2]]
    for coeffs in ([1, 0, 1], [1, 0, 1, 1], [1, 0, -4, 1],
                   [1, -1, -9, 9, 2, -1]):
        yield RR, coeffs, None


def test_coordinates_match_the_oracle():
    """The per-kind coordinates against the single class they replaced, on
    fresh algebras: the same widths, offsets, norm images, norm-one classes
    and seeded elements' vectors and labels, or the same error."""
    answered = set()
    for ring, coeffs, factors in _images_cases():
        old = _outcome(_oracle_answers, ring, coeffs, factors)
        if ring.is_dyadic and factors:  # x^2 - 2
            # the oracle's unit normalization failed there (images, classes
            # and the vectors of units); it now refuses as for odd valuation
            assert _RAMIFIED in old and old[1] == old[2] == _NORMALIZATION
            old = [_RAMIFIED if a == _NORMALIZATION else a for a in old]
        assert _outcome(_new_answers, ring, coeffs, factors) == old, \
            (ring.tag, coeffs)
        if isinstance(old, list) and isinstance(old[1], list):
            answered.add(ring.tag)
    assert answered == {"F:2", "F:3", "F:5", "F:7", "F:11", "F:13", "Qp:2",
                        "Qp:3", "Qp:5", "Qp:7", "R"}


def test_norm_images_match_generator_norms():
    """The closed-form norm images at GF(p) and odd p, and the generators
    built on demand, against the generators built and normed up front:
    the same images, labels and representatives, and the same error
    where the up-front build raised."""
    answered, raised = [], []
    for ring, coeffs, factors in _images_cases():
        if ring.is_real:  # no generator per root
            continue
        old = _outcome(_oracle_listing, ring, coeffs, factors)
        if ring.is_dyadic and factors:  # x^2 - 2, as above
            assert old == _NORMALIZATION
            old = _RAMIFIED
        assert _outcome(_listing, ring, coeffs, factors) == old, \
            (ring.tag, coeffs)
        (raised if isinstance(old[0], type) else answered).append(
            (factors is not None and not ring.is_dyadic, old))
    assert len(answered) >= 30 + 3 * 10 + 6
    # x^3 - p answers, alone and beside x - 1; x^2 - p raises in both
    assert sum(by_hand for by_hand, _ in answered) == 6
    assert sum(by_hand for by_hand, _ in raised) == 6


_FRESH_REAL_REPS = """
from orbitlab.etale import EtaleAlgebra, norm_one_classes
from orbitlab.poly import Poly
from orbitlab.rings import RR
L = EtaleAlgebra(Poly.from_ints(RR, [1, -4, 0, 1]))
print([repr(c.rep) for c in norm_one_classes(L)])
"""


def test_real_representatives_ignore_earlier_sign_computations():
    """x^3 - 4x + 1 over R: the norm-one representatives of a fresh process
    come back after the class signs of those representatives were computed
    (no sign computation may move the separators the representatives use)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    fresh = subprocess.run([sys.executable, "-c", _FRESH_REAL_REPS], env=env,
                           capture_output=True, text=True, check=True).stdout
    L = _alg(RR, [1, 0, -4, 1])
    for c in norm_one_classes(L):
        assert SquareClass(L, c.rep).vector == c.vector
    again = _reprs(norm_one_classes(_alg(RR, [1, 0, -4, 1])))
    assert str(again) == fresh.strip()


_PLACES = [GF(5), Qp(3, 20), Qp(5, 20), Qp(7, 20), Qp(2, 20), RR]


@pytest.mark.parametrize("place", _PLACES, ids=lambda k: k.tag)
def test_local_image_matches_product_closure(place):
    rng = random.Random(SEED + 60)
    # at 2 the closure multiplies representatives until their valuations
    # pass the working precision, so it runs with 40 digits there
    oracle_place = Qp(2, 40) if place.is_dyadic else place
    compared = 0
    for k in range(8):
        c = random_rs_invariants(QQ, rng, span=7)
        if k % 2 and place.is_padic and not place.is_dyadic:
            # p | e: curve 2 has bad reduction, so its image is sampled
            c = Invariants(QQ, c.a, c.e * place.p)
        for which in (1, 2):
            try:
                old, target, complete = _oracle_local_image(c, oracle_place,
                                                            which)
            except (PreconditionError, PrecisionError) as exc:
                with pytest.raises(type(exc)):
                    local_image(c, place, which)
                continue
            new = local_image(c, place, which)
            data = new.serialize()
            assert data == {"place": place.tag,
                            "classes": sorted(str(g.labels) for g in old),
                            "target": target, "complete": complete}
            assert sorted(g.vector for g in new.classes) == \
                sorted(g.vector for g in old)
            if place.is_finite or _good_reduction(c, place, which):
                assert _reprs(new.classes) == _reprs(old)
            compared += 1
    assert compared >= 6


@pytest.mark.parametrize("a,e,place", [
    ((-5, -5), 2, Qp(2, 20)), ((-5, -5), 2, RR), ((1, 1), 7, Qp(7, 20))])
def test_local_images_agree_across_calls(a, e, place, monkeypatch):
    """Two computations from scratch: the second gets its own invariants
    and registry, so it shares no algebra (and no localized algebra) with
    the first."""
    def image():
        c = Invariants(QQ, tuple(Fraction(x) for x in a), Fraction(e))
        return local_image(c, place, 2)

    first = image()
    monkeypatch.setattr(orbits, "_ALGEBRAS", weakref.WeakValueDictionary())
    second = image()
    assert first.classes[0].algebra is not second.classes[0].algebra
    assert [g.vector for g in first.classes] == \
        [g.vector for g in second.classes]


# ---------------------------------------------------------------------------
# linearity and faithfulness


def _mulmod(a, b, fm, m):
    """Product of integer coefficient lists modulo (monic fm, m)."""
    d = len(fm) - 1
    out = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    for k in range(len(out) - 1, d - 1, -1):
        c = out[k]
        for i in range(d):
            out[k - d + i] -= c * fm[i]
        out[k] = 0
    return tuple(x % m for x in out[:d])


def _is_square_brute(L, a) -> bool:
    """Whether a is a square in L, factor by factor: over GF(p) some w has
    w^2 = a; over Q_p the valuation is even and the unit part is a square
    mod p (odd p) or mod 8 (p = 2), found by trying every residue w."""
    ring = L.ring
    if ring.is_real:
        return all(sign_at_root(a, r) > 0 for r in L.real_roots)
    for i, fi in enumerate(L.factors):
        d = fi.degree
        comp = L.component(a, i)
        if ring.is_finite:
            m, unit = ring.p, comp
        else:
            v, rem = divmod(L.norm_in_factor(a, i).valuation(), d)
            assert rem == 0
            if v % 2:
                return False
            m = 8 if ring.is_dyadic else ring.p
            unit = comp.scale(ring.from_fraction(Fraction(ring.p) ** -v))
        u = tuple(_residues(unit, m, d, "non-integral"))
        fm = _residues(fi, m, d + 1, "non-integral")
        ws = (tuple(code // m ** k % m for k in range(d))
              for code in range(m ** d))
        if not any(_mulmod(w, w, fm, m) == u for w in ws):
            return False
    return True


_LINEAR_ALGEBRAS = [
    (GF(5), [1, 4, 1, 4]), (GF(7), [1, 0, -1, 1]), (GF(3), [1, 0, 1, 1]),
    (RR, [1, 0, -4, 1]), (RR, [1, 0, 1, 1]),
    (Qp(3, 20), [1, 0, -1, 1]), (Qp(5, 20), [1, 4, 1, 4]),
    (Qp(7, 20), [1, 0, -7, 1]),
    (Qp(2, 20), [1, 0, -1, 1]), (Qp(2, 20), [1, -5, -5, 4]),
    (Qp(2, 20), [1, 1, 1]),
]
_coeffs = st.lists(st.integers(-12, 12), min_size=1, max_size=3)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(range(len(_LINEAR_ALGEBRAS))), _coeffs, _coeffs)
def test_vector_is_linear_and_faithful(k, ca, cb):
    ring, f = _LINEAR_ALGEBRAS[k]
    L, twin = _alg(ring, f), _alg(ring, f)
    a, b = (L.reduce(Poly(ring, [ring.from_int(x) for x in cs]))
            for cs in (ca, cb))
    try:
        A, B = SquareClass(L, a), SquareClass(L, b)
    except PreconditionError:  # a non-unit
        return
    assert SquareClass(L, L.mul(a, b)).vector == A.vector ^ B.vector
    assert (A * B).vector == A.vector ^ B.vector
    assert SquareClass(L, L.mul(a, a)).vector == 0
    assert A.is_trivial() == (A.vector == 0) == _is_square_brute(L, a)
    assert SquareClass(twin, a).vector == A.vector
    assert SquareClass(L, A.rep).vector == A.vector
    product = A * B
    assert SquareClass(L, product.rep).vector == product.vector
