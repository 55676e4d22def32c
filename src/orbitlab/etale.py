"""Etale algebras L = k[x]/(f) with norm/trace and square-class arithmetic.

Elements are polynomials of degree < deg f over the base ring, which is
also the place.

The trace form (x, y) -> Tr(w x y) in the power basis is the Hankel matrix
sum_k w_k s_(i+j+k) in the power sums s_k = Tr(gamma^k), which Newton's
identities give once per algebra from f.

At a local place L^x/L^x2 is an F_2-vector space, and a class is its
coordinate vector: an int with a block of additive bits per factor, stated
by one class per place kind, which EtaleAlgebra.coordinates picks once:

  * GF(p):   the residue bit of the norm down to GF(p);
  * R:       one sign bit per real root (poly.sign_at_root);
  * Q_p odd: valuation mod 2 and the residue bit of the unit norm;
  * Q_2:     valuation mod 2, then d level bits and a trace bit t of the
             unit part mod 8O (_unit2_bits), for a factor of degree d.

Classes are equal when their vectors are, trivial when it is 0, and
multiply by adding them. A representative is a product of fixed generators
of each factor (over R, lines x - m between the roots' Sturm intervals),
built when a representative is first read, never of other representatives,
so no class needs more precision than they do. Labels are read off the
vector; at Q_2 t shows only when the level bits are 0. norm_one_classes
lists the kernel of the F_2 norm map from the generators' norm images. At
GF(p) and odd p these need no generator: N: F_(p^d)^x -> F_p^x is onto, so
a non-square unit has a non-square norm, and N(p) = p^d for degree d.

Over Q there are no labels; per irreducible factor, an exact answer with a
certificate: "no" is a non-square norm, or an odd unramified prime < 200 at
which the element is a unit non-residue, or chi(t^2) irreducible for the
element's characteristic polynomial chi; "yes" is an explicit beta with
beta^2 = element, checked by multiplication: a root lifted p-adically at an
inert prime, or read off chi(t^2) when there is none. Both read the split
of f mod each prime once per algebra (split_mod), and f is factored over Q
only when it is inert at none of SMALL_ODD_PRIMES.
"""

from __future__ import annotations

import itertools
import math
import weakref
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import PreconditionError, UsageError
from .linalg import Mat, charpoly, det as mat_det, solve
from .poly import (SMALL_ODD_PRIMES, Poly, _zpowmod, discriminant,
                   distinct_degree, ext_gcd, factor, fq_sqrt, gcd, lift_sqrt,
                   powmod, rational_reconstruction, real_roots_exact,
                   resultant, sign_at_root)
from .rings import GF, QQ, is_prime


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
    """Product of coefficient tuples (length deg f8) mod 8 and monic f8."""
    d = len(f8) - 1
    out = [0] * (2 * d - 1)
    for i, xa in enumerate(a):
        for j, xb in enumerate(b):
            out[i + j] += xa * xb
    for k in range(2 * d - 2, d - 1, -1):
        for i in range(d):
            out[k - d + i] -= out[k] * f8[i]
    return tuple(c % 8 for c in out[:d])


def _unit2_bits(u8, f8, fbar):
    """(level bits as an int, t) of a 2-adic unit residue u mod 8O, both
    additive in u.

    u^(2^d - 1) = 1 + 2e is in u's class; the level bits are e mod 2 (the
    class in (1 + 2O)/(1 + 4O)). Times 1 + 2x^j for each set level bit j it
    becomes 1 + 4c, a square iff the trace of c mod 2 is 0: that is t.
    """
    d = len(f8) - 1
    if not any(c % 2 for c in u8):
        raise PreconditionError("not a unit at 2")
    un, w = (1,) + (0,) * (d - 1), tuple(u8)
    for _ in range(d):
        un, w = _mod8_mul(un, w, f8), _mod8_mul(w, w, f8)
    level = [(c - (k == 0)) // 2 % 2 for k, c in enumerate(un)]
    for j in (j for j in range(d) if level[j]):
        un = _mod8_mul(un, tuple((k == 0) + 2 * (k == j) for k in range(d)),
                       f8)
    if (un[0] - 1) % 4 or any(c % 4 for c in un[1:]):
        raise PreconditionError("2-adic unit normalization failed")
    c = Poly(GF(2), [(x - (k == 0)) // 4 % 2 for k, x in enumerate(un)])
    return sum(bit << j for j, bit in enumerate(level)), _f2_trace(c, fbar)


def _mod8_factor(fi: Poly):
    """A factor at 2 as coefficients mod 8 and its reduction mod 2."""
    f8 = _residues(fi, 8, fi.degree + 1, "non-integral factor at 2")
    return f8, Poly(GF(2), [c % 2 for c in f8])


# ---------------------------------------------------------------------------
# the algebra


_UNFACTORED = object()


class EtaleAlgebra:
    """k[x]/(f) for monic separable f over QQ, RR, GF(p) or Qp; disc is
    disc(f), passed in when the caller has it."""

    def __init__(self, f: Poly, *, disc=None):
        ring = f.ring
        if f.degree < 1 or not f.is_monic():
            raise PreconditionError("defining polynomial must be monic, degree >= 1")
        self.disc = discriminant(f) if disc is None else disc
        if ring.is_zero(self.disc):
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
        self._local_cache = {}
        self._split_cache = {}

    @property
    def factors(self):
        """Irreducible factors, computed on first use (multiplication and
        trace/norm work do not need them); over Q, f when it is inert at
        one of SMALL_ODD_PRIMES, which proves it irreducible."""
        if self._factors is _UNFACTORED:
            parts = [(self.f, 1)] if self.ring.is_global and any(
                split and split[0][0] == self.n
                for split in map(self.split_mod, SMALL_ODD_PRIMES)
            ) else factor(self.f)
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
        """det(mult_matrix(a)), which is Res(f, a mod f) for monic f; Q_p
        keeps the determinant, whose digits differ from the resultant's."""
        if self.ring.is_padic:
            return mat_det(self.mult_matrix(a))
        return resultant(self.f, a.mod(self.f))

    @cached_property
    def power_sums(self) -> list:
        """s_k = Tr(gamma^k), k < 3n - 2, for f = x^n + c_1 x^(n-1) + ...:
        s_k = -(k c_k + sum_(0 < i < k, i <= n) c_i s_(k-i)), c_k = 0 past n."""
        R, n = self.ring, self.n
        c = [self.f.coeff(n - i) for i in range(n + 1)]
        s = [R.from_int(n)]
        for k in range(1, 3 * n - 2):
            acc = R.mul(R.from_int(k), c[k]) if k <= n else R.zero
            for i in range(1, min(k, n + 1)):
                acc = R.add(acc, R.mul(c[i], s[k - i]))
            s.append(R.neg(acc))
        return s

    def pairing_gram(self, w: Poly) -> Mat:
        """Gram of (x, y) -> Tr(w * x * y) in the power basis: the Hankel
        matrix of h_m = Tr(w gamma^m) = sum_k w_k s_(m+k), w reduced mod f."""
        n, s, w = self.n, self.power_sums, w.mod(self.f)
        ws = [w.coeff(k) for k in range(n)]
        h = [self.ring.dot(ws, s[m:m + n]) for m in range(2 * n - 1)]
        return Mat(self.ring, [h[i:i + n] for i in range(n)])

    def is_unit(self, a: Poly) -> bool:
        return not self.ring.is_zero(self.norm(a))

    # -- factor-local views ---------------------------------------------

    def component(self, a: Poly, i: int) -> Poly:
        return a.mod(self.factors[i])

    def comp_algebra(self, i: int) -> "EtaleAlgebra":
        """k[x]/(f_i), built once per i; the algebra itself when f is
        irreducible over an exact base (a Q_p factor has its own digits)."""
        if self.r == 1 and not self.ring.is_padic:
            return self
        if i not in self._comp_cache:
            self._comp_cache[i] = EtaleAlgebra(self.factors[i])
        return self._comp_cache[i]

    def norm_in_factor(self, a: Poly, i: int):
        fi = self.factors[i]
        if fi.degree == 1:
            return a.eval(self.ring.neg(fi.coeff(0)))
        return self.comp_algebra(i).norm(self.component(a, i))

    @cached_property
    def idempotents(self):
        """CRT idempotents e_i (1 in factor i, 0 elsewhere)."""
        out = []
        for fi in self.factors:
            rest = self.f.divmod(fi)[0]
            _, s, _ = ext_gcd(rest.mod(fi), fi)
            out.append((rest * s).mod(self.f))
        return out

    def crt(self, parts) -> Poly:
        acc = Poly(self.ring, [])
        for part, e in zip(parts, self.idempotents):
            acc = (acc + part * e).mod(self.f)
        return acc

    # -- base change ----------------------------------------------------

    def localize(self, place) -> "EtaleAlgebra":
        """The same algebra over a completion or residue field (base must
        be Q), built once per place and precision: place equality ignores
        precision. Its disc(f) is the exact rational one, read there."""
        if not self.ring.is_global:
            raise UsageError("localize only from a Q-algebra")
        key = (place.tag, getattr(place, "prec", None))
        if key not in self._local_cache:
            self._local_cache[key] = EtaleAlgebra(
                self.f.map_ring(place, place.from_fraction),
                disc=place.from_fraction(self.disc))
        return self._local_cache[key]

    def split_mod(self, p: int):
        """poly.distinct_degree of f mod the odd prime p over Q, built once
        per p; None where p divides disc(f) or a denominator of f."""
        if p not in self._split_cache:
            F, dens = GF(p), (c.denominator for c in self.f.coeffs)
            bad = self.disc.numerator * math.lcm(*dens)
            self._split_cache[p] = None if bad % p == 0 else distinct_degree(
                list(self.f.map_ring(F, F.from_fraction).coeffs), p)
        return self._split_cache[p]

    @cached_property
    def coordinates(self) -> "_Coordinates":
        """F_2 coordinates of the square classes, by place kind."""
        ring = self.ring
        if ring.is_global:
            raise UsageError("enumeration only over local bases")
        if ring.is_real:
            return _RealCoordinates(self, self.real_roots)
        return (_FiniteCoordinates if ring.is_finite else _DyadicCoordinates
                if ring.is_dyadic else _OddCoordinates)(self, self.factors)


# ---------------------------------------------------------------------------
# square classes


class SquareClass:
    """An element of L_v^x / (L_v^x)^2.

    At a local place the class is its coordinate vector (see the module
    docstring); over Q it is its representative, decided by witnesses."""

    def __init__(self, algebra: EtaleAlgebra, rep: Poly):
        self.algebra = algebra
        self._rep = algebra.reduce(rep)
        if not algebra.ring.is_global:
            self.vector = algebra.coordinates.vector(self._rep)
            return
        self.vector, self._norm = None, algebra.norm(self._rep)
        if algebra.ring.is_zero(self._norm):
            raise PreconditionError("square class of a non-unit")

    @classmethod
    def _of(cls, algebra: EtaleAlgebra, vector: int) -> "SquareClass":
        """The local class with this vector; its representative, the
        generator product, is built on first use."""
        self = cls.__new__(cls)
        self.algebra, self._rep, self.vector = algebra, None, vector
        return self

    @property
    def rep(self) -> Poly:
        if self._rep is None:
            self._rep = self.algebra.coordinates.rep(self.vector)
        return self._rep

    @property
    def labels(self):
        """Signs at the real roots over R; None over Q (decided by
        witnesses); one label per factor at GF(p), Q_p and Q_2."""
        if self.vector is None:
            return None
        return self.algebra.coordinates.labels(self.vector)

    # -- predicates -------------------------------------------------------

    def is_trivial(self) -> bool:
        if self.vector is None:
            return all(w.root is not None for w in self.witnesses())
        return self.vector == 0

    def witnesses(self):
        """Per irreducible factor over Q, the SquareWitness deciding whether
        rep is a square there; stops after the first non-square factor."""
        alg, rep = self.algebra, self.rep
        if not alg.ring.is_global:
            raise UsageError("square witnesses are defined over Q")
        for i in range(alg.r):
            norm = self._norm if alg.r == 1 else alg.norm_in_factor(rep, i)
            w = _factor_witness(alg.comp_algebra(i), rep.mod(alg.factors[i]),
                                norm)
            yield w
            if w.root is None:
                return

    # -- group structure ---------------------------------------------------

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        if self.algebra.f != other.algebra.f:
            raise PreconditionError("square classes from different algebras")
        if self.vector is None:
            return SquareClass(self.algebra,
                               self.algebra.mul(self.rep, other.rep))
        return SquareClass._of(self.algebra, self.vector ^ other.vector)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SquareClass):
            return NotImplemented
        if self.algebra.f != other.algebra.f:
            return False
        if self.vector is None:
            return (self * other).is_trivial()
        return self.vector == other.vector

    def __hash__(self):
        if self.vector is None:
            raise TypeError("global square classes are not hashable")
        return hash(self.vector)

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
    prime: an odd prime below 200 dividing neither disc(factor) nor a
           denominator, at which alpha is a unit and a non-residue in some
           residue field, so alpha is not a square.
    With neither, alpha is not a square because its norm is not a rational
    square or chi(t^2) has no factor of degree deg K (chi = charpoly).
    """

    factor: Poly
    root: Poly | None = None
    prime: int | None = None


# Screened after the first lift try fails. N(alpha) square puts Gal(f(-t^2))
# in S4, so a non-square is a residue in every residue field at a good prime
# with probability 15/24: about 2% of them pass SMALL_ODD_PRIMES.
_WIDE_SCREEN_PRIMES = tuple(p for p in range(37, 200, 2) if is_prime(p))
# The lift tries p^N >= 2^64, 2^128, 2^256: roots r/s with |r|, s < 2^127.
# A non-square that passes both screens runs every try, each costing about
# all before it, so the cap bounds that waste; larger roots go to chi(t^2).
_LIFT_BITS, _LIFT_DOUBLINGS = 64, 2


def _factor_witness(K: EtaleAlgebra, alpha: Poly, norm) -> SquareWitness:
    """Decide whether alpha is a square in the number field K (over Q)."""
    fi = K.f
    if not QQ.is_square(norm):  # N(s^2) = N(s)^2
        return SquareWitness(fi)
    if fi.degree == 1:  # alpha is the rational number norm
        return SquareWitness(fi, root=Poly.const(QQ, QQ.sqrt(norm)))
    p, inert = _nonresidue_prime(K, alpha, norm, SMALL_ODD_PRIMES)
    # In order: the first lift try, the wide screen (cheaper than the
    # longer tries), the longer tries, chi(t^2).
    tries = _lifted_root(K, alpha, inert) if p is None and inert else iter(())
    beta = next(tries, None)
    if beta is not None:
        return SquareWitness(fi, root=beta)
    if p is None:
        p, _ = _nonresidue_prime(K, alpha, norm, _WIDE_SCREEN_PRIMES)
    if p is not None:
        return SquareWitness(fi, prime=p)
    for beta in tries:
        if beta is not None:
            return SquareWitness(fi, root=beta)
    beta = _square_root(K, alpha)
    if beta is None:
        return SquareWitness(fi)
    if K.mul(beta, beta) != alpha:
        raise PreconditionError("square root failed its check")
    return SquareWitness(fi, root=beta)


def _nonresidue_prime(K: EtaleAlgebra, alpha: Poly, norm, primes):
    """(p, inert): the first of primes at which alpha is a unit
    non-residue, or None, and the first good prime before it at which f is
    irreducible (inert), or None.

    A good p divides neither disc(f), a denominator of f or alpha, nor the
    numerator of N(alpha): then Z_p[x]/(f) is etale over Z_p and alpha is a
    unit in it, so a square alpha would be a square in every residue field.
    alpha's characters on the residue fields multiply to that of N(alpha),
    a square (the caller checked it), so an inert p gives no witness and
    the last part of K.split_mod(p) with one factor needs no test; the
    others are decided by Euler's criterion, as in poly.euler_split.
    """
    bad = norm.numerator * math.lcm(*(c.denominator for c in alpha.coeffs))
    inert = None
    for p in primes:
        split = K.split_mod(p)
        if split is None or bad % p == 0:
            continue
        if split[0][0] == K.n:
            inert = inert or p
            continue
        abar = list(alpha.map_ring(GF(p), GF(p).from_fraction).coeffs)
        last = max((i for i, (k, g) in enumerate(split) if len(g) - 1 == k),
                   default=None)
        if not all(_zpowmod(abar, (p ** k - 1) // 2, g, p) == [1]
                   for i, (k, g) in enumerate(split) if i != last):
            return p, inert
    return None, inert


def _lifted_root(K: EtaleAlgebra, alpha: Poly, p: int):
    """Per N up to the cap, beta with beta^2 = alpha over Q or None: the
    root of alpha mod (f, p), f inert at the good prime p, lifted mod p^N
    (poly.lift_sqrt) and read back by rational reconstruction."""
    N = next(N for N in itertools.count(1) if p ** N >= 2 ** _LIFT_BITS)
    precisions = [N << k for k in range(_LIFT_DOUBLINGS + 1)]
    M = p ** precisions[-1]
    f, a = ([c.numerator * pow(c.denominator, -1, M) % M for c in g.coeffs]
            for g in (K.f, alpha))
    F, [(_, fbar)] = GF(p), K.split_mod(p)
    abar = list(alpha.map_ring(F, F.from_fraction).coeffs)
    z = (list(_nonsquare_unit(F, Poly(F, fbar)).coeffs)
         if p ** K.n % 4 == 1 else None)  # read by fq_sqrt only then
    for m, b in lift_sqrt(f, a, fq_sqrt(fbar, abar, z, p), p, precisions):
        coeffs = rational_reconstruction(b, m)
        beta = coeffs and Poly(QQ, coeffs)
        yield beta if beta and K.mul(beta, beta) == alpha else None


def _square_root(K: EtaleAlgebra, alpha: Poly):
    """beta with beta^2 = alpha in the number field K, or None if alpha is
    not a square.

    The root is read off chi(t^2) for the characteristic polynomial chi of
    an element a that generates K. When alpha does not (chi not squarefree:
    alpha lies in a proper subfield, Q included), a = alpha * s^2 for
    s = x + k, k = 0, 1, ..., has the same square class. Each proper
    subfield F takes at most two k: (x + k)^2 in alpha^-1 F for three k
    would put 1, x and x^2 there, hence x in F. So the search ends. It is
    the last resort: for fields with no inert screen prime (Q(zeta_8)),
    roots past the lift's cap and non-squares no prime < 200 decides.
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
# F_2 coordinates of square classes at local places


def _residues(g: Poly, m: int, length: int, what: str):
    """Coefficients 0..length-1 of g mod m, for GF(p) or p-integral Q_p
    coefficients (m a power of p)."""
    out = []
    for k in range(length):
        c = g.coeff(k)
        if not g.ring.is_padic:
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
    a constant c is one iff the integer c^((p^d - 1) / 2) is -1 mod p, d =
    deg fi: the least non-residue at odd d, and none at even d."""
    p, d = ring.p, fi.degree
    F = GF(p)
    fbar = Poly(F, _residues(fi, p, d + 1, "non-integral factor"))
    half = (p ** d - 1) // 2
    for trial in range(1, p ** d):
        z = Poly(F, [trial // p ** k % p for k in range(d)])
        pw = (Poly(F, [pow(trial, half, p)]) if trial < p  # a constant
              else powmod(z, half, fbar))
        if pw.degree == 0 and F.eq(pw.coeff(0), F.from_int(-1)):
            return z.map_ring(ring, ring.from_int)
    raise PreconditionError("no nonsquare found (is p = 2?)")


class _Coordinates:
    """F_2 coordinates on L^x/L^x2 over a local base: factor i (real root i
    over R) owns widths[i] bits of the vector, from bit offsets[i] up. Each
    place kind overrides the one-bit _width and _label defaults."""

    def __init__(self, alg: EtaleAlgebra, factors):
        self.alg = weakref.proxy(alg)  # no cycle: alg owns its coordinates
        self.widths = [self._width(fi) for fi in factors]
        self.offsets = [sum(self.widths[:i]) for i in range(len(self.widths))]

    def _width(self, fi: Poly) -> int:
        return 1

    def _label(self, bits: int, w: int):
        return bits

    def labels(self, vector: int) -> tuple:
        return tuple(self._label(vector >> off & (1 << w) - 1, w)
                     for w, off in zip(self.widths, self.offsets))


class _FactorCoordinates(_Coordinates):
    """The kinds with factors (GF(p), Q_p): each states a factor's _bits
    and _units ({unit bits: unit, None for 1}) and may override the _image
    default; classes are built from per-factor unit generators."""

    def __init__(self, alg: EtaleAlgebra, factors):
        super().__init__(alg, factors)
        self._generators = {}

    def _image(self, i: int, bits: int) -> int:
        return bits  # N: F_(p^d)^x -> F_p^x is onto

    def _listed(self, units):
        return units

    def vector(self, rep: Poly) -> int:
        alg = self.alg
        return sum(self._bits(fi, alg.component(rep, i),
                              alg.norm_in_factor(rep, i)) << off
                   for i, (fi, off) in enumerate(zip(alg.factors,
                                                     self.offsets)))

    @cached_property
    def units(self):
        return [self._units(fi) for fi in self.alg.factors]

    @cached_property
    def images(self):
        """Per factor, {bits: base coordinates of the generator's norm}."""
        return [{b << off: self._image(i, b) for b in self._listed(units)}
                for i, (units, off) in enumerate(zip(self.units,
                                                     self.offsets))]

    def generator(self, i: int, bits: int) -> Poly:
        """Its unit in factor i and 1 elsewhere, built on first use."""
        gens = self._generators
        if (i, bits) not in gens:
            u = self.units[i][bits]
            gens[i, bits] = _pad_const(self.alg, u, i) if u else self.alg.one()
        return gens[i, bits]

    def rep(self, vector: int) -> Poly:
        """The generator product of a vector, factor by factor."""
        alg, rep = self.alg, self.alg.one()
        for i, (w, off) in enumerate(zip(self.widths, self.offsets)):
            rep = alg.mul(rep, self.generator(i, vector >> off & (1 << w) - 1))
        return rep


class _FiniteCoordinates(_FactorCoordinates):
    def _bits(self, fi: Poly, comp: Poly, norm) -> int:
        ring = self.alg.ring
        if ring.is_zero(norm):
            raise PreconditionError("square class of a non-unit")
        return 0 if ring.is_square(norm) else 1

    def _units(self, fi: Poly):
        ring = self.alg.ring  # all of GF(2^d) are squares
        return {0: None} if ring.char == 2 else {
            0: None, 1: _nonsquare_unit(ring, fi)}


_RAMIFIED = "factor appears ramified; only unramified factors are supported"


class _OddCoordinates(_FactorCoordinates):
    """Bit 0 is the valuation mod 2, generated by p, listed after units."""

    def _width(self, fi: Poly) -> int:
        return 2

    def _valuation(self, fi: Poly, norm) -> int:
        if norm.valuation() % fi.degree != 0:
            raise PreconditionError(_RAMIFIED)
        return norm.valuation() // fi.degree

    def _bits(self, fi: Poly, comp: Poly, norm) -> int:
        p, v = self.alg.ring.p, self._valuation(fi, norm)
        return v % 2 | 2 * (pow(norm.u, p // 2, p) != 1)

    def _label(self, bits: int, w: int):
        return bits & 1, bits >> 1

    def _units(self, fi: Poly):
        return {0: None, 2: _nonsquare_unit(self.alg.ring, fi)}

    def _image(self, i: int, bits: int) -> int:
        return bits & 2 | bits & self.alg.factors[i].degree & 1

    def _listed(self, units):
        return [*units, *(u | 1 for u in units)]

    def generator(self, i: int, bits: int) -> Poly:
        gens, alg = self._generators, self.alg
        if bits & 1 and (i, bits) not in gens:
            if i not in gens:  # p in factor i, 1 elsewhere
                gens[i] = _pad_const(alg, alg.scalar(alg.ring.p), i)
            gens[i, bits] = alg.mul(self.generator(i, bits ^ 1), gens[i])
        return super().generator(i, bits)


class _DyadicCoordinates(_OddCoordinates):
    """Unit bits mod 8O; norm images read off the generators' norms."""

    def _width(self, fi: Poly) -> int:
        return fi.degree + 2

    def _bits(self, fi: Poly, comp: Poly, norm) -> int:
        d, vK = fi.degree, self._valuation(fi, norm)
        unit_el = comp.scale(self.alg.ring.from_fraction(Fraction(2) ** -vK))
        u8 = _residues(unit_el, 8, d, "non-integral unit coordinates at 2")
        try:  # a unit of an unramified factor always normalizes
            level, t = _unit2_bits(tuple(u8), *_mod8_factor(fi))
        except PreconditionError:
            raise PreconditionError(_RAMIFIED) from None
        return vK % 2 | level << 1 | t << d + 1

    def _label(self, bits: int, w: int):
        level = tuple(bits >> j & 1 for j in range(1, w - 1))
        return bits & 1, level, None if any(level) else bits >> w - 1

    def _units(self, fi: Poly):
        """O^x/O^x2 as {unit bits: unit}: the first unit residue mod 8O of
        each class, in the order of its base-8 code."""
        ring, d, reps = self.alg.ring, fi.degree, {}
        f8, fbar = _mod8_factor(fi)
        if gcd(fbar, fbar.derivative()).degree:  # fbar = g^k with k > 1
            raise PreconditionError(_RAMIFIED)
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

    def _image(self, i: int, bits: int) -> int:
        ring, n = self.alg.ring, self.alg.norm_in_factor(
            self.generator(i, bits), i)
        return self._bits(Poly.gen(ring), Poly.const(ring, n), n)


class _RealCoordinates(_Coordinates):
    def vector(self, rep: Poly) -> int:
        return sum(1 << j for j, root in enumerate(self.alg.real_roots)
                   if sign_at_root(rep, root) < 0)

    def _label(self, bits: int, w: int):
        return 1 - 2 * bits

    @cached_property
    def images(self):
        return [{0: 0, 1 << off: 1} for off in self.offsets]

    def rep(self, vector: int) -> Poly:
        alg, ring, roots = self.alg, self.alg.ring, self.alg.real_roots
        seps = [(a.hi + b.lo) / 2 for a, b in zip(roots, roots[1:])]
        rep = alg.one()
        for j, m in enumerate(seps + [roots[-1].hi + 1] if roots else []):
            if (vector >> j ^ vector >> j + 1) & 1:
                rep = alg.mul(rep, Poly(ring, [ring.neg(
                    ring.from_fraction(m)), ring.one]))
        return rep


def norm_one_classes(alg: EtaleAlgebra):
    """(L^x/L^x2)_{N=1} over a local base (GF, R, Qp), the kernel of the
    F_2 norm map, listed by running through the generators of each factor
    (the signs of each root over R), the first factor fastest."""
    out = []
    for combo in itertools.product(*[
            block.items() for block in reversed(alg.coordinates.images)]):
        vector = norm = 0
        for bits, image in combo:
            vector, norm = vector | bits, norm ^ image
        if norm == 0:
            out.append(SquareClass._of(alg, vector))
    return out


def _pad_const(alg: EtaleAlgebra, local_el: Poly, i: int):
    """Element of L equal to local_el in factor i and 1 elsewhere."""
    return alg.crt([local_el if j == i else alg.one() for j in range(alg.r)])
