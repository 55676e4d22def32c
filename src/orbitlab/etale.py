"""Etale algebras L = k[x]/(f) with norm/trace and square-class arithmetic.

Elements are polynomials of degree < deg f over the base ring. The ring is
also the place, and the code asks it (is_real, is_global, is_finite,
is_padic, is_dyadic) instead of testing its class. Square classes carry a
representative element plus labels; a class is trivial when its labels
are those of 1, and two classes are equal when their labels are, except
over Q and Q_2, where the product is tested instead:

  * GF(p):   quadratic-residue bit per factor (square in GF(p^d) iff the
             norm down to GF(p) is a residue);
  * R:       sign at each real root (complex pairs contribute nothing);
  * Q_p odd: (valuation mod 2, residue QR bit) per unramified factor;
  * Q_2:     (valuation mod 2, 1+2O-level bits, trace bit) computed in
             O/8O -- a unit is a square iff it is one mod 8; two classes
             can share a label;
  * Q:       no labels; per irreducible factor, an exact answer with a
             certificate: "no" is a non-square norm, or an odd unramified
             prime at which the element is a unit non-residue, or chi(t^2)
             irreducible for the element's characteristic polynomial chi;
             "yes" is an explicit beta with beta^2 = element, checked by
             multiplication.

norm_one_classes enumerates (L^x/L^x2)_{N=1} at a local place from the
generators of each factor: unit classes, times {1, p} over Q_p.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

import sympy

from .errors import PrecisionError, PreconditionError, UsageError
from .linalg import Mat, charpoly, det as mat_det, solve
from .poly import (Poly, discriminant, euler_split, ext_gcd, factor, gcd,
                   powmod, to_sympy)
from .rings import GF, QQ, Padic

_x = sympy.Symbol("x")


# ---------------------------------------------------------------------------
# exact signs at real roots


def real_roots_exact(f: Poly):
    """Sorted exact real roots (sympy root objects) of a separable f over Q/R."""
    expr = to_sympy(f)
    return sympy.real_roots(expr, _x)


def rational_approx(root, dx):
    """A rational within dx of a real algebraic root expression.

    Roots from sympy may be RootOf objects or explicit radical
    expressions (for factorable polynomials); both are handled.
    """
    if root.is_Rational:
        return sympy.Rational(root)
    if isinstance(root, sympy.RootOf):
        return root.eval_rational(dx=dx)
    digits = max(20, len(str(sympy.Integer(sympy.ceiling(1 / dx)))) + 5)
    return sympy.Rational(str(root.evalf(digits)))


def _root_box(root, dx):
    """Rational interval [a, b] containing the root, of width <= 2*dx."""
    if root.is_Rational:
        return root, root
    approx = rational_approx(root, dx)
    return approx - dx, approx + dx


def sign_at_root(g: Poly, root) -> int:
    """Exact sign of g at an algebraic real root; g(root) must be nonzero."""
    gs = sympy.Poly(to_sympy(g), _x)
    if gs.degree() <= 0:
        val = Fraction(str(gs.as_expr())) if gs.degree() == 0 else Fraction(0)
        if val == 0:
            raise PreconditionError("sign of zero")
        return 1 if val > 0 else -1
    if root.is_Rational:
        val = Fraction(str(gs.eval(root)))
        if val == 0:
            raise PreconditionError("sign of zero")
        return 1 if val > 0 else -1
    for bits in (16, 32, 64, 128, 256, 512, 1024, 2048):
        dx = sympy.Rational(1, 2 ** bits)
        a, b = _root_box(root, dx)
        if gs.count_roots(a, b) > 0:
            continue
        va = gs.eval(a)
        if va != 0:
            return 1 if va > 0 else -1
    raise PrecisionError("could not separate sign at real root")


# ---------------------------------------------------------------------------
# GF(2^d) helpers (polynomials mod 2 modulo an irreducible fbar)


def _f2_trace(z: Poly, fbar: Poly) -> int:
    d = fbar.degree
    acc = Poly(GF(2), [])
    w = z.mod(fbar)
    for _ in range(d):
        acc = (acc + w).mod(fbar)
        w = (w * w).mod(fbar)
    if acc.degree > 0:
        raise PreconditionError("trace landed outside GF(2)")
    return acc.coeff(0)


def _mod8_mul(a, b, f8):
    """Multiply coefficient tuples mod 8, reduced modulo monic f8 (ints)."""
    d = len(f8) - 1
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, xa in enumerate(a):
        if xa == 0:
            continue
        for j, xb in enumerate(b):
            out[i + j] = (out[i + j] + xa * xb) % 8
    # reduce modulo monic f8
    for k in range(len(out) - 1, d - 1, -1):
        c = out[k]
        if c:
            out[k] = 0
            for i in range(d):
                out[k - d + i] = (out[k - d + i] - c * f8[i]) % 8
    out = out[:d] + [0] * (d - len(out[:d]))
    return tuple(c % 8 for c in out)


def _unit2_data(u8, f8, fbar):
    """(ebits, tracebit) class data of a 2-adic unit residue u mod 8O.

    ebits is the 1+2O level (a hom to GF(2^d)); tracebit refines the
    classes with ebits = 0 and is None otherwise. The unit is a square
    iff ebits = 0 and tracebit = 0.
    """
    F2 = GF(2)
    d = fbar.degree
    ubar = Poly(F2, [c % 2 for c in u8])
    if ubar.is_zero():
        raise PreconditionError("not a unit at 2")
    w0 = powmod(ubar, 2 ** (d - 1), fbar) if d > 1 else ubar
    # lift w0^{-1} to O/8O by Newton iteration
    w0inv_bar = powmod(w0, 2 ** d - 2, fbar) if d > 1 else Poly(F2, [1])
    z = tuple((w0inv_bar.coeff(i) % 8) for i in range(d))
    w0_8 = tuple((w0.coeff(i) % 8) for i in range(d))
    for _ in range(2):
        two_minus = tuple((-c) % 8 for c in _mod8_mul(w0_8, z, f8))
        two_minus = (two_minus[0] + 2,) + two_minus[1:]
        two_minus = (two_minus[0] % 8,) + two_minus[1:]
        z = _mod8_mul(z, two_minus, f8)
    zz = _mod8_mul(z, z, f8)
    un = _mod8_mul(tuple(u8), zz, f8)
    if un[0] % 2 != 1 or any(c % 2 for c in un[1:]):
        raise PreconditionError("2-adic unit normalization failed")
    e = [( (un[0] - 1) // 2 if i == 0 else un[i] // 2) % 4 for i in range(d)]
    ebits = tuple(c % 2 for c in e)
    if any(ebits):
        return ebits, None
    cbits = Poly(F2, [c // 2 % 2 for c in e])
    return ebits, _f2_trace(cbits, fbar)


# ---------------------------------------------------------------------------
# the algebra


_UNFACTORED = object()


class EtaleAlgebra:
    """k[x]/(f) for monic separable f over QQ, RR, GF(p) or Qp."""

    def __init__(self, f: Poly):
        ring = f.ring
        if f.degree < 1 or not f.is_monic():
            raise PreconditionError("defining polynomial must be monic, degree >= 1")
        if ring.is_zero(discriminant(f)):
            raise PreconditionError("defining polynomial is inseparable")
        self.ring = ring
        self.f = f
        self.n = f.degree
        if ring.is_real:
            self._factors = None
            self.real_roots = real_roots_exact(f)
            self.n_pairs = (self.n - len(self.real_roots)) // 2
        else:
            self.real_roots = None
            self._factors = _UNFACTORED
        self._comp_cache = {}
        self._idem_cache = None
        self._one_labels = None

    @property
    def factors(self):
        """Irreducible factors, computed on first use (multiplication and
        trace/norm work do not need them)."""
        if self._factors is _UNFACTORED:
            parts = factor(self.f)
            if any(m > 1 for _, m in parts):
                raise PreconditionError(
                    "repeated factor in separable polynomial")
            self._factors = [g for g, _ in parts]
        return self._factors

    # -- structural ----------------------------------------------------

    @property
    def r(self) -> int:
        """Number of factors of f over the base."""
        if self.factors is None:
            return len(self.real_roots) + self.n_pairs
        return len(self.factors)

    def gamma(self) -> Poly:
        return Poly.gen(self.ring).mod(self.f)

    def one(self) -> Poly:
        return Poly.const(self.ring, self.ring.one)

    def scalar(self, c) -> Poly:
        return Poly.const(self.ring, self.ring.from_fraction(c)
                          if isinstance(c, (int, Fraction)) else c)

    def reduce(self, a: Poly) -> Poly:
        return a.mod(self.f)

    def mul(self, a: Poly, b: Poly) -> Poly:
        return (a * b).mod(self.f)

    def add(self, a: Poly, b: Poly) -> Poly:
        return a + b

    def sub(self, a: Poly, b: Poly) -> Poly:
        return a - b

    def inv(self, a: Poly) -> Poly:
        d, s, _ = ext_gcd(a.mod(self.f), self.f)
        if d.degree != 0:
            raise PreconditionError("element not invertible (shares a factor)")
        return s.scale(self.ring.inv(d.coeff(0))).mod(self.f)

    def mult_matrix(self, a: Poly) -> Mat:
        """Matrix of multiplication by a in the power basis (columns a*x^j)."""
        a = a.mod(self.f)
        cols = []
        cur = a
        for _ in range(self.n):
            cols.append([cur.coeff(i) for i in range(self.n)])
            cur = cur.shift(1).mod(self.f)
        return Mat(self.ring, list(zip(*cols)))

    def norm(self, a: Poly):
        return mat_det(self.mult_matrix(a))

    def trace(self, a: Poly):
        return self.mult_matrix(a).trace()

    def pairing_gram(self, w: Poly) -> Mat:
        """Gram of (x, y) -> Tr(w * x * y) in the power basis."""
        traces, acc = [], w
        for _ in range(2 * self.n - 1):
            traces.append(self.trace(acc))
            acc = self.mul(acc, self.gamma())
        return Mat(self.ring, [[traces[i + j] for j in range(self.n)]
                               for i in range(self.n)])

    def is_unit(self, a: Poly) -> bool:
        return not self.ring.is_zero(self.norm(a))

    # -- factor-local views ---------------------------------------------

    def component(self, a: Poly, i: int) -> Poly:
        return a.mod(self.factors[i])

    def comp_algebra(self, i: int) -> "EtaleAlgebra":
        if i not in self._comp_cache:
            self._comp_cache[i] = EtaleAlgebra(self.factors[i])
        return self._comp_cache[i]

    def norm_in_factor(self, a: Poly, i: int):
        fi = self.factors[i]
        if fi.degree == 1:
            return a.eval(self.ring.neg(fi.coeff(0)))
        return self.comp_algebra(i).norm(self.component(a, i))

    def idempotents(self):
        """CRT idempotents e_i (1 in factor i, 0 elsewhere)."""
        if self._idem_cache is None:
            out = []
            for fi in self.factors:
                rest = self.f.divmod(fi)[0]
                _, s, _ = ext_gcd(rest.mod(fi), fi)
                out.append((rest * s).mod(self.f))
            self._idem_cache = out
        return self._idem_cache

    def crt(self, parts) -> Poly:
        acc = Poly(self.ring, [])
        for part, e in zip(parts, self.idempotents()):
            acc = (acc + part * e).mod(self.f)
        return acc

    # -- base change ----------------------------------------------------

    def localize(self, place) -> "EtaleAlgebra":
        """The same algebra over a completion (base must be Q)."""
        if not self.ring.is_global:
            raise UsageError("localize only from a Q-algebra")
        return EtaleAlgebra(self.f.map_ring(place, place.from_fraction))

    def one_labels(self):
        """Square-class labels of 1, computed once per algebra."""
        if self._one_labels is None:
            self._one_labels = SquareClass(self, self.one()).labels
        return self._one_labels


# ---------------------------------------------------------------------------
# square classes


class SquareClass:
    """An element of L_v^x / (L_v^x)^2, with a representative element."""

    def __init__(self, algebra: EtaleAlgebra, rep: Poly):
        self.algebra = algebra
        self.rep = algebra.reduce(rep)
        self.labels = self._compute_labels()

    # -- labels ----------------------------------------------------------

    def _compute_labels(self):
        """Signs at the real roots over R; None over Q (decided by
        witnesses); one label per factor at GF(p), Q_p and Q_2."""
        alg, ring, rep = self.algebra, self.algebra.ring, self.rep
        if ring.is_real:
            return tuple(sign_at_root(rep, r) for r in alg.real_roots)
        if ring.is_global:
            if ring.is_zero(alg.norm(rep)):
                raise PreconditionError("square class of a non-unit")
            return None
        return tuple(self._factor_label(i) for i in range(alg.r))

    def _factor_label(self, i: int):
        alg, ring = self.algebra, self.algebra.ring
        Ni = alg.norm_in_factor(self.rep, i)
        if ring.is_finite:
            # square in GF(p^d) iff the norm down to GF(p) is a residue
            if ring.is_zero(Ni):
                raise PreconditionError("square class of a non-unit")
            return 0 if ring.is_square(Ni) else 1
        p = ring.p
        d = alg.factors[i].degree
        vN = Ni.valuation()
        if vN % d != 0:
            raise PreconditionError(
                "factor appears ramified; only unramified factors are supported")
        vK = vN // d
        if not ring.is_dyadic:
            unit = Ni.u  # unit part of the norm, mod p^prec
            qr = 0 if pow(unit % p, (p - 1) // 2, p) == 1 else 1
            return (vK % 2, qr)
        # p = 2: normalize to a unit of O_i and classify mod 8
        fi = alg.factors[i]
        comp = alg.component(self.rep, i)
        scalec = Padic.from_fraction(Fraction(1, 2 ** vK) if vK >= 0
                                     else Fraction(2 ** (-vK)), 2, ring.prec)
        unit_el = (comp.scale(scalec)).mod(fi)
        u8 = _residues(unit_el, 8, d, "non-integral unit coordinates at 2")
        f8 = _residues(fi, 8, d + 1, "non-integral factor at 2")
        fbar = Poly(GF(2), [c % 2 for c in f8])
        ebits, tracebit = _unit2_data(tuple(u8), f8, fbar)
        return (vK % 2, ebits, tracebit)

    # -- predicates -------------------------------------------------------

    def is_trivial(self) -> bool:
        if self.labels is None:
            return all(w.root is not None for w in self.witnesses())
        return self.labels == self.algebra.one_labels()

    def witnesses(self):
        """Per irreducible factor over Q, the SquareWitness deciding whether
        rep is a square there; stops after the first non-square factor."""
        alg, rep = self.algebra, self.rep
        if not alg.ring.is_global:
            raise UsageError("square witnesses are defined over Q")
        for i in range(alg.r):
            w = _factor_witness(alg.comp_algebra(i), rep.mod(alg.factors[i]),
                                alg.norm_in_factor(rep, i))
            yield w
            if w.root is None:
                return

    def norm_is_square(self) -> bool:
        return self.algebra.ring.is_square(self.algebra.norm(self.rep))

    # -- group structure ---------------------------------------------------

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        if self.algebra.f != other.algebra.f:
            raise PreconditionError("square classes from different algebras")
        return SquareClass(self.algebra, self.algebra.mul(self.rep, other.rep))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SquareClass):
            return NotImplemented
        if self.algebra.f != other.algebra.f:
            return False
        if self.labels is None or self.algebra.ring.is_dyadic:
            return (self * other).is_trivial()
        return self.labels == other.labels

    def __hash__(self):
        if self.labels is None:
            raise TypeError("global square classes are not hashable")
        return hash(self.labels)

    def __repr__(self):
        return f"SquareClass({self.rep!r}, labels={self.labels})"


def square_class(algebra: EtaleAlgebra, a: Poly, place=None) -> SquareClass:
    """Square class of a at a place; place defaults to the algebra's base."""
    if place is None or place == algebra.ring:
        return SquareClass(algebra, a)
    loc = algebra.localize(place)
    return SquareClass(loc, a.map_ring(place, place.from_fraction))


# ---------------------------------------------------------------------------
# certified global square test over Q (Cohen, GTM 138)


class SquareWitness(NamedTuple):
    """How an element alpha of K = Q[x]/(factor) was decided.

    root:  beta with beta^2 = alpha in K, so alpha is a square;
    prime: an odd prime dividing neither disc(factor) nor a denominator, at
           which alpha is a unit and a non-residue in some residue field,
           so alpha is not a square.
    With neither, alpha is not a square because its norm is not a rational
    square or chi(t^2) has no factor of degree deg K (chi = charpoly).
    """

    factor: Poly
    root: Poly | None = None
    prime: int | None = None


# odd primes tried by the non-residue screen before the exact root search
_SCREEN_PRIMES = tuple(sympy.primerange(3, 32))


def _factor_witness(K: EtaleAlgebra, alpha: Poly, norm) -> SquareWitness:
    """Decide whether alpha is a square in the number field K (over Q)."""
    fi = K.f
    if not QQ.is_square(norm):  # N(s^2) = N(s)^2
        return SquareWitness(fi)
    if fi.degree == 1:  # alpha is the rational number norm
        return SquareWitness(fi, root=Poly.const(QQ, QQ.sqrt(norm)))
    p = _nonresidue_prime(K, alpha, norm)
    if p is not None:
        return SquareWitness(fi, prime=p)
    beta = _square_root(K, alpha)
    if beta is None:
        return SquareWitness(fi)
    if K.mul(beta, beta) != alpha:
        raise PreconditionError("square root failed its check")
    return SquareWitness(fi, root=beta)


def _nonresidue_prime(K: EtaleAlgebra, alpha: Poly, norm):
    """A screen prime at which alpha is a unit non-residue, or None.

    p must not divide disc(f), a denominator of f or alpha, or the
    numerator of N(alpha): then Z_p[x]/(f) is etale over Z_p and alpha is a
    unit in it, so a square alpha would be a square in every residue field.
    """
    bad = discriminant(K.f).numerator * norm.numerator
    for c in K.f.coeffs + alpha.coeffs:
        bad *= c.denominator
    for p in _SCREEN_PRIMES:
        if bad % p == 0:
            continue
        F = GF(p)
        fbar, abar = (list(g.map_ring(F, F.from_fraction).coeffs)
                      for g in (K.f, alpha))
        if not all(square for _, _, square in euler_split(fbar, abar, p)):
            return p
    return None


def _square_root(K: EtaleAlgebra, alpha: Poly):
    """beta with beta^2 = alpha in the number field K, or None if alpha is
    not a square.

    The root is read off chi(t^2) for the characteristic polynomial chi of
    an element a that generates K. When alpha does not (chi not squarefree:
    alpha lies in a proper subfield, Q included), a = alpha * s^2 for
    s = x + k, k = 0, 1, ..., has the same square class. Each proper
    subfield F takes at most two k: (x + k)^2 in alpha^-1 F for three k
    would put 1, x and x^2 there, hence x in F. So the search ends.
    """
    one, x = K.one(), K.gamma()
    for s in itertools.chain([one], (x + K.scalar(k) for k in itertools.count())):
        a = K.mul(alpha, K.mul(s, s))
        chi = charpoly(K.mult_matrix(a))
        if gcd(chi, chi.derivative()).degree == 0:
            root = _generator_root(K, a, chi)
            return None if root is None else K.mul(root, K.inv(s))


def _generator_root(K: EtaleAlgebra, a: Poly, chi: Poly):
    """Square root of a generator a of K with characteristic polynomial chi.

    chi(t^2) = +-chi_b(t) chi_b(-t) when a = b^2; each irreducible factor of
    chi(t^2) has degree d or 2d, and a factor h of degree d is the minimal
    polynomial of a root b of a. In Q[t]/(h) = K (t -> b), t^2 is a, so
    writing t = sum r_k (t^2)^k mod h gives b = sum r_k a^k.
    """
    d = K.n
    t2 = Poly(QQ, [QQ.zero, QQ.zero, QQ.one])
    h = next((g for g, _ in factor(chi.compose(t2)) if g.degree == d), None)
    if h is None:
        return None
    t2 = t2.mod(h)
    cols, w = [], Poly.const(QQ, QQ.one)
    for _ in range(d):
        cols.append([w.coeff(j) for j in range(d)])
        w = (w * t2).mod(h)
    r = solve(Mat(QQ, list(zip(*cols))), [QQ.one if j == 1 else QQ.zero
                                          for j in range(d)])
    beta, power = Poly(QQ, []), K.one()
    for rk in r:
        beta = beta + power.scale(rk)
        power = K.mul(power, a)
    return beta


# ---------------------------------------------------------------------------
# enumeration of (L^x / L^x2)_{N=1} at local places


def _residues(g: Poly, m: int, length: int, what: str):
    """Coefficients 0..length-1 of g mod m, for GF(p) or p-integral Q_p
    coefficients (m a power of p)."""
    out = []
    for k in range(length):
        c = g.coeff(k)
        if not isinstance(c, Padic):
            out.append(c % m)
        elif c.is_zero():
            out.append(0)
        elif c.valuation() < 0:
            raise PreconditionError(what)
        else:
            out.append(c.u * c.p ** c.valuation() % m)
    return out


def _nonsquare_unit(ring, fi: Poly) -> Poly:
    """A unit of O[x]/(fi), over GF(p) or Z_p with p odd, whose residue is
    a nonsquare: the first in the order 1, 2, ..., p - 1, x, 1 + x, ...;
    for deg fi = 1 that is the least non-residue >= 2."""
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


def _unit_class_reps_2adic(alg: EtaleAlgebra, i: int):
    """Representatives of O_i^x / (O_i^x)^2 for a factor at p = 2."""
    ring = alg.ring
    fi = alg.factors[i]
    d = fi.degree
    f8 = _residues(fi, 8, d + 1, "non-integral factor at 2")
    fbar = Poly(GF(2), [c % 2 for c in f8])
    # labels collide between at most two classes, so bucket by label and
    # separate buckets with the exact mod-8 square test on quotients
    buckets = {}
    reps = []
    target = 2 ** (d + 1)
    for code in range(8 ** d):
        t = code
        u8 = []
        for _ in range(d):
            u8.append(t % 8)
            t //= 8
        if not any(c % 2 for c in u8):
            continue
        u8 = tuple(u8)
        lab = _unit2_data(u8, f8, fbar)
        new = True
        for v8 in buckets.get(lab, []):
            prod = _mod8_mul(u8, v8, f8)
            eb, tb = _unit2_data(prod, f8, fbar)
            if not any(eb) and tb == 0:
                new = False
                break
        if not new:
            continue
        buckets.setdefault(lab, []).append(u8)
        reps.append(Poly(ring, [ring.from_int(c) for c in u8]))
        if len(reps) == target:
            break
    if len(reps) != target:
        raise PreconditionError("2-adic unit class enumeration incomplete")
    return reps


def norm_one_classes(alg: EtaleAlgebra):
    """All of (L^x/L^x2)_{N=1} over a local base (GF, R, Qp)."""
    ring = alg.ring
    if ring.is_real:
        return _real_norm_one_classes(alg)
    if ring.is_global:
        raise UsageError("enumeration only over local bases")
    if ring.char == 2:
        return [SquareClass(alg, alg.one())]
    per_factor = []
    for i in range(alg.r):
        # unit classes, then (over Q_p) the same times the uniformizer;
        # each generator is 1 in the other factors
        if ring.is_dyadic:
            units = [_pad_const(alg, u, i)
                     for u in _unit_class_reps_2adic(alg, i)]
        else:
            units = [alg.one(), _pad_const(
                alg, _nonsquare_unit(ring, alg.factors[i]), i)]
        if ring.is_padic:
            pi = _pad_const(alg, Poly.const(ring, ring.from_int(ring.p)), i)
            units += [alg.mul(u, pi) for u in units]
        per_factor.append(units)
    return _filtered_products(alg, per_factor)


def _real_norm_one_classes(alg: EtaleAlgebra):
    """Sign vectors with product +1, each from a product of linear
    factors (x - m) at rational separators m of the real roots."""
    ring, roots = alg.ring, alg.real_roots
    k = len(roots)
    if k == 0:
        return [SquareClass(alg, alg.one())]
    gens = [Poly(ring, [ring.neg(ring.from_fraction(m)), ring.one])
            for m in _separators(roots)]
    out = []
    for mask in range(2 ** k):
        v = [(mask >> j) & 1 for j in range(k)]
        if sum(v) % 2:
            continue
        rep = alg.one()
        for idx in range(k):
            nxt = v[idx + 1] if idx + 1 < k else 0
            if v[idx] ^ nxt:
                rep = alg.mul(rep, gens[idx])
        out.append(SquareClass(alg, rep))
    return out


def _pad_const(alg: EtaleAlgebra, local_el: Poly, i: int):
    """Element of L equal to local_el in factor i and 1 elsewhere."""
    parts = [alg.one() if j != i else local_el for j in range(alg.r)]
    return alg.crt(parts)


def _filtered_products(alg: EtaleAlgebra, per_factor):
    out = []
    idx = [0] * len(per_factor)
    while True:
        rep = alg.one()
        for i, k in enumerate(idx):
            rep = alg.mul(rep, per_factor[i][k])
        cls = SquareClass(alg, rep)
        if cls.norm_is_square():
            out.append(cls)
        # advance odometer
        j = 0
        while j < len(idx):
            idx[j] += 1
            if idx[j] < len(per_factor[j]):
                break
            idx[j] = 0
            j += 1
        if j == len(idx):
            break
    # deduplicate (products may repeat classes)
    uniq = []
    for c in out:
        if not any(c == u for u in uniq):
            uniq.append(c)
    return uniq


def _separators(roots):
    """Rational points between consecutive real roots, plus one above all."""
    dx = sympy.Rational(1, 4)
    while True:
        ivs = [_root_box(r, dx) for r in roots]
        if all(ivs[i][1] < ivs[i + 1][0] for i in range(len(ivs) - 1)):
            break
        dx /= 16
    vals = [Fraction(str((ivs[i][1] + ivs[i + 1][0]) / 2))
            for i in range(len(ivs) - 1)]
    vals.append(Fraction(str(ivs[-1][1] + 1)))
    return vals
