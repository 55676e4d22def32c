"""Dense univariate polynomials over the package's exact rings.

Includes resultants/discriminants (over Q and GF(p) the integer
subresultant PRS, over Q_p the Euclidean scheme), composition (for
g(x) = f(x^2)), and factorization on integer-list kernels:
Cantor-Zassenhaus over GF(p) (squarefree, distinct-degree and
equal-degree splits); over Q a prime p with the integer model squarefree
mod p, Hensel lifting past the Mignotte bound and recombination by exact
division (Yun's decomposition first only when no small p works); over
Q_p Hensel lifting from a separable reduction; square roots mod (f, p),
Newton-lifted mod p^N. Real roots over Q are
Sturm intervals (RealRoot), isolated and refined by bisection with sign
counts in integer arithmetic (Collins-Akritas, SYMSAC 1976).
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import PrecisionError, PreconditionError
from .rings import QQ, Padic, is_prime


class Poly:
    """Coefficients ascending; trailing zeros stripped."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        coeffs = list(coeffs)
        while coeffs and ring.is_zero(coeffs[-1]):
            coeffs.pop()
        self.ring = ring
        self.coeffs = tuple(coeffs)

    @staticmethod
    def from_ints(ring, ints) -> "Poly":
        return Poly(ring, [ring.from_fraction(Fraction(c)) for c in ints])

    @staticmethod
    def gen(ring) -> "Poly":
        return Poly(ring, [ring.zero, ring.one])

    @staticmethod
    def const(ring, c) -> "Poly":
        return Poly(ring, [c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self):
        if self.is_zero():
            raise PreconditionError("leading coefficient of zero polynomial")
        return self.coeffs[-1]

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i <= self.degree else self.ring.zero

    def is_monic(self) -> bool:
        return not self.is_zero() and self.ring.eq(self.lc, self.ring.one)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        R = self.ring
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(R, [R.add(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __neg__(self) -> "Poly":
        R = self.ring
        return Poly(R, [R.neg(c) for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        R = self.ring
        if R.is_finite:
            return Poly(R, _zmul(self.coeffs, other.coeffs, R.p))
        if self.is_zero() or other.is_zero():
            return Poly(R, [])
        out = [R.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = R.add(out[i + j], R.mul(a, b))
        return Poly(R, out)

    def scale(self, c) -> "Poly":
        R = self.ring
        return Poly(R, [R.mul(c, a) for a in self.coeffs])

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return Poly(self.ring, [self.ring.zero] * k + list(self.coeffs))

    def divmod(self, other: "Poly"):
        R = self.ring
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if len(self.coeffs) < len(other.coeffs):
            return Poly(R, []), self
        if R.is_finite:  # over the monic divisor other / lc
            p, inv_lc = R.p, pow(other.lc, -1, R.p)
            q, r = _zdivmod_monic(self.coeffs,
                                  [c * inv_lc % p for c in other.coeffs], p)
            return Poly(R, [c * inv_lc % p for c in q]), Poly(R, r)
        n = len(other.coeffs)
        q = [R.zero] * (len(self.coeffs) - n + 1)
        r = list(self.coeffs)
        inv_lc = R.inv(other.lc)
        while len(r) >= n:
            if R.is_zero(r[-1]):
                r.pop()
                continue
            k = len(r) - n
            c = q[k] = R.mul(r[-1], inv_lc)
            for i, b in enumerate(other.coeffs):
                r[k + i] = R.submul(r[k + i], c, b)
        return Poly(R, q), Poly(R, r)

    def mod(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        return self.scale(self.ring.inv(self.lc))

    def derivative(self) -> "Poly":
        R = self.ring
        return Poly(R, [R.mul(R.from_int(i), c)
                        for i, c in enumerate(self.coeffs)][1:])

    def eval(self, a):
        R = self.ring
        acc = R.zero
        for c in reversed(self.coeffs):
            acc = R.add(R.mul(acc, a), c)
        return acc

    def compose(self, inner: "Poly") -> "Poly":
        """self(inner(x))."""
        R = self.ring
        acc = Poly(R, [])
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly.const(R, c)
        return acc

    def map_ring(self, ring, conv) -> "Poly":
        return Poly(ring, [conv(c) for c in self.coeffs])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(self.ring.eq(a, b) for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = [f"{self.ring.scalar_str(c)}*x^{i}"
                 for i, c in enumerate(self.coeffs) if not self.ring.is_zero(c)]
        return "Poly(" + " + ".join(terms) + ")"

    def serialize(self) -> str:
        return ",".join(self.ring.scalar_str(c) for c in self.coeffs)


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd over a field."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, a.mod(b)
    if a.is_zero():
        return a
    return a.monic()


def ext_gcd(f: Poly, g: Poly):
    """(d, s, t) with s*f + t*g = d, d the monic gcd (over a field)."""
    R = f.ring
    r0, r1 = f, g
    s0, s1 = Poly.const(R, R.one), Poly(R, [])
    t0, t1 = Poly(R, []), Poly.const(R, R.one)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    c = R.inv(r0.lc)
    return r0.scale(c), s0.scale(c), t0.scale(c)


def powmod(a: Poly, e: int, m: Poly) -> Poly:
    """a^e mod m by binary powering."""
    R = a.ring
    out = Poly.const(R, R.one)
    base = a.mod(m)
    while e > 0:
        if e & 1:
            out = (out * base).mod(m)
        base = (base * base).mod(m)
        e >>= 1
    return out


def resultant(f: Poly, g: Poly):
    """Res(f, g): over Q (and RR) and GF(p) by the integer subresultant PRS,
    Res(f, g) = Res(cf, dg) / (c^deg g d^deg f) for cf, dg integral; over
    Q_p by the Euclidean scheme, whose digits the callers rely on."""
    R = f.ring
    if f.is_zero() or g.is_zero():
        return R.zero
    if R.is_finite:
        return R.from_int(_zresultant(list(f.coeffs), list(g.coeffs)))
    if not R.is_padic:
        (c, A), (d, B) = map(clear_denominators, (f.coeffs, g.coeffs))
        return Fraction(_zresultant(A, B), c ** g.degree * d ** f.degree)
    res, a, b = R.one, f, g
    while b.degree > 0:
        r = a.mod(b)
        if r.is_zero():
            return R.zero
        sign, lead = R.from_int((-1) ** (a.degree * b.degree)), R.one
        for _ in range(a.degree - r.degree):
            lead = R.mul(lead, b.lc)
        res = R.mul(res, R.mul(sign, lead))
        a, b = b, r
    for _ in range(a.degree):  # b is a nonzero constant
        res = R.mul(res, b.lc)
    return res


def clear_denominators(coeffs):
    """(d, [d c]) for the lcm d of the denominators of the rationals c."""
    d = math.lcm(*(c.denominator for c in coeffs))
    return d, [c.numerator * (d // c.denominator) for c in coeffs]


def _zresultant(A, B):
    """Res(A, B) for nonzero integer polynomials: the subresultant PRS with
    the contents taken out first (Cohen, GTM 138, Alg. 3.3.7), and
    Res(A, b) = b^deg A for a constant b."""
    s = 1
    if len(A) < len(B):
        A, B, s = B, A, (-1) ** ((len(A) - 1) * (len(B) - 1))
    if len(B) == 1:
        return s * B[0] ** (len(A) - 1)
    a, b = math.gcd(*A), math.gcd(*B)
    t = a ** (len(B) - 1) * b ** (len(A) - 1)
    A, B = [x // a for x in A], [x // b for x in B]
    g = h = 1
    while len(B) > 1:
        delta, lb = len(A) - len(B), B[-1]
        if (len(A) - 1) * (len(B) - 1) % 2:
            s = -s
        r = list(A)  # the pseudo-remainder lc(B)^(delta + 1) A mod B
        for k in range(delta, -1, -1):
            c, r = r[-1], [x * lb for x in r[:-1]]
            for i, y in enumerate(B[:-1]):
                r[k + i] -= c * y
        while r and r[-1] == 0:
            r.pop()
        if not r:
            return 0
        q = g * h ** delta
        A, B, g = B, [x // q for x in r], lb
        h = g ** delta // h ** (delta - 1) if delta else h
    da = len(A) - 1
    return s * t * B[0] ** da // h ** (da - 1)


def discriminant(f: Poly):
    if f.is_zero():
        raise PreconditionError("discriminant of the zero polynomial")
    R, d = f.ring, f.degree
    if d == 0:
        return R.one
    res = resultant(f, f.derivative())
    sign = R.from_int((-1) ** (d * (d - 1) // 2))
    return R.div(R.mul(sign, res), f.lc)


# ---------------------------------------------------------------------------
# Real roots over Q: Sturm sequences and isolating intervals


def _primitive(f: Poly) -> tuple:
    """The positive integer multiple of f over Q with coprime coefficients."""
    ints = clear_denominators(f.coeffs)[1]
    g = math.gcd(*ints)
    return tuple(c // g for c in ints)


@functools.lru_cache(maxsize=256)
def _sturm(f: Poly) -> tuple:
    """Sturm sequence of the squarefree part s = f / gcd(f, f'), deg f > 0:
    s, s', then minus each remainder (Poly.mod over QQ), each term kept as
    its primitive positive integer multiple, which has the same signs."""
    seq = [f.divmod(gcd(f, f.derivative()))[0]]
    seq.append(seq[0].derivative())
    while seq[-1].degree > 0:
        seq.append(-seq[-2].mod(seq[-1]))
    return tuple(_primitive(p) for p in seq)


def _count(f: Poly, lo: Fraction, hi: Fraction) -> int:
    """Distinct roots of f in (lo, hi] by Sturm's theorem: V(lo) - V(hi),
    V(x) the sign changes along the sequence at x = a/b, zeros dropped, a
    term c read as the integer b^deg(c) c(a/b) (homogenized Horner)."""
    seq, changes = _sturm(f), []
    for x in (lo, hi):
        a, b, signs = x.numerator, x.denominator, []
        for c in seq:
            acc, bk = 0, 1
            for ci in reversed(c):
                acc, bk = acc * a + ci * bk, bk * b
            if acc:
                signs.append(acc > 0)
        changes.append(sum(s != t for s, t in zip(signs, signs[1:])))
    return changes[0] - changes[1]


class RealRoot(NamedTuple):
    """The one root of f (over Q) in the interval (lo, hi], lo < hi."""

    f: Poly
    lo: Fraction
    hi: Fraction

    def refine(self) -> "RealRoot":
        """The half of the interval that holds the root."""
        mid = (self.lo + self.hi) / 2
        if _count(self.f, self.lo, mid):
            return self._replace(hi=mid)
        return self._replace(lo=mid)


def real_roots_exact(f: Poly) -> list:
    """The distinct real roots of f over Q (or R), ascending, as RealRoots
    with disjoint closed intervals: (-B, B], B a power of two past the
    Cauchy bound 1 + max |c_i / c_n|, bisected to one root per piece."""
    if f.degree < 1:
        return []
    bound, B = 1 + max(abs(c) for c in f.coeffs[:-1]) / abs(f.lc), 1
    while B <= bound:
        B *= 2
    roots, todo = [], [(Fraction(-B), Fraction(B))]
    while todo:
        lo, hi = todo.pop()
        k = _count(f, lo, hi)
        if k == 1:
            roots.append(RealRoot(f, lo, hi))
        elif k > 1:
            todo += [((lo + hi) / 2, hi), (lo, (lo + hi) / 2)]
    for i in range(len(roots) - 1):  # adjacent pieces may share an end
        while roots[i].hi >= roots[i + 1].lo:
            roots[i], roots[i + 1] = roots[i].refine(), roots[i + 1].refine()
    return roots


def sign_at_root(g: Poly, root: RealRoot) -> int:
    """Exact sign of g at the root. PreconditionError when gcd(f, g) has a
    root in the interval; else the interval is bisected until g has none,
    and g's sign is read at its top."""
    h = gcd(root.f, g)
    if h.degree > 0 and _count(h, root.lo, root.hi):
        raise PreconditionError("sign of zero")
    while g.degree > 0 and _count(g, root.lo, root.hi):
        root = root.refine()
    return 1 if g.eval(root.hi) > 0 else -1


# ---------------------------------------------------------------------------
# Factorization


def factor(f: Poly) -> list:
    """Factor into monic irreducibles; returns [(Poly, multiplicity)]
    sorted by (degree, coefficients).

    The leading coefficient is dropped (callers work with monic data).
    Over Q (and RR's rational coordinates) the factors are over QQ.
    """
    if f.is_zero():
        raise PreconditionError("factoring the zero polynomial")
    ring = f.ring
    if ring.is_padic:
        return _factor_qp(f)
    if f.degree == 0:
        return []
    if ring.is_finite:
        out = [(Poly(ring, g), m)
               for g, m in _factor_gf(list(f.monic().coeffs), ring.p)]
    else:  # QQ, and RR's rational coordinates
        out = _factor_q(f.monic())
    return sorted(out, key=lambda t: (t[0].degree, t[0].coeffs))


# -- integer polynomial kernels over GF(p) and Z ---------------------------
#
# Polynomials are ascending lists of ints without trailing zeros; over
# GF(p) the entries are residues in [0, p).


def _zmul(a, b, mod):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % mod
    return out


def _zsub(a, b, mod):
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % mod
           for i in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _zdivmod_monic(a, b, mod=None):
    """Divide by monic b, with coefficients mod `mod` (over Z for None)."""
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        if a[-1] == 0:
            a.pop()
            continue
        k = len(a) - len(b)
        c = a[-1]
        q[k] = c
        if mod:
            for i, y in enumerate(b):
                a[k + i] = (a[k + i] - c * y) % mod
        else:
            for i, y in enumerate(b):
                a[k + i] -= c * y
        while a and a[-1] == 0:
            a.pop()
    return q, a


def _zderiv(f, p):
    df = [i * c % p for i, c in enumerate(f)][1:]
    while df and df[-1] == 0:
        df.pop()
    return df


def _zgcd(a, b, p):
    """Monic gcd over GF(p) of a and b; a is monic when b = 0."""
    while b:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        a, b = b, _zdivmod_monic(a, b, p)[1]
    return a


def _zpowmod(a, e, m, p):
    """a^e mod the monic m over GF(p), for e >= 1."""
    out, base = [1], _zdivmod_monic(a, m, p)[1]
    while e:
        if e & 1:
            out = _zdivmod_monic(_zmul(out, base, p), m, p)[1]
        e >>= 1
        if e:
            base = _zdivmod_monic(_zmul(base, base, p), m, p)[1]
    return out


def _squarefree_parts(f, p):
    """[(g, m)] with monic f = prod g^m over GF(p), the g squarefree and
    pairwise coprime (Yun's scheme in characteristic p).

    c = gcd(f, f') keeps g^(m-1) of each factor g^m with p not dividing m
    and all of g^m otherwise; w = f/c is peeled once per multiplicity, and
    what c holds then is a p-th power h(x^p) = h(x)^p, read off as h (this
    also covers f' = 0).
    """
    c = _zgcd(f, _zderiv(f, p), p)
    w = _zdivmod_monic(f, c, p)[0]
    out, m = [], 1
    while len(w) > 1:
        y = _zgcd(w, c, p)
        g = _zdivmod_monic(w, y, p)[0]
        if len(g) > 1:
            out.append((g, m))
        w, c, m = y, _zdivmod_monic(c, y, p)[0], m + 1
    if len(c) > 1:
        out += [(g, m * p) for g, m in _squarefree_parts(c[::p], p)]
    return out


def distinct_degree(f, p):
    """[(k, f_k)] for squarefree monic f over GF(p): f_k != 1 is the product
    of the irreducible factors of f of degree k, i.e. the part of
    gcd(f, x^(p^k) - x) left after the smaller k."""
    x = [0, 1]
    parts, rest, h, k = [], list(f), x, 0
    while len(rest) > 2 * (k + 1):  # else rest is irreducible
        k += 1
        h = _zpowmod(h, p, rest, p)  # x^(p^k) mod rest
        part = _zgcd(rest, _zsub(h, x, p), p)
        if len(part) > 1:
            parts.append((k, part))
            rest = _zdivmod_monic(rest, part, p)[0]
            h = _zdivmod_monic(h, rest, p)[1]
    if len(rest) > 1:  # what is left is irreducible
        parts.append((len(rest) - 1, rest))
    return parts


def _equal_degree(f, k, p):
    """The irreducible factors of the squarefree monic f over GF(p), all of
    degree k (Cantor-Zassenhaus, Math. Comp. 36, 1981).

    For a = x, x + 1, ..., x^2, ... (the base-p digits of p, p + 1, ...)
    gcd(f, b) with b = a^((p^k-1)/2) - 1, or the trace b = a + a^2 + ... +
    a^(2^(k-1)) for p = 2, is a proper factor as soon as b is 0 modulo some
    factors of f and not others; by CRT some a of degree < deg f does that.
    """
    if len(f) - 1 == k:
        return [f]
    for m in itertools.count(p):
        a = []
        while m:
            m, r = divmod(m, p)
            a.append(r)
        if p == 2:
            b = t = _zdivmod_monic(a, f, 2)[1]
            for _ in range(k - 1):
                t = _zdivmod_monic(_zmul(t, t, 2), f, 2)[1]
                b = _zsub(b, t, 2)
        else:
            b = _zsub(_zpowmod(a, (p ** k - 1) // 2, f, p), [1], p)
        d = _zgcd(f, b, p)
        if 1 < len(d) < len(f):
            return (_equal_degree(d, k, p)
                    + _equal_degree(_zdivmod_monic(f, d, p)[0], k, p))


def _factor_gf(f, p):
    """[(g, m)]: the monic irreducible factors of monic f over GF(p)."""
    return [(g, m) for sf, m in _squarefree_parts(f, p)
            for k, fk in distinct_degree(sf, p)
            for g in _equal_degree(fk, k, p)]


def euler_split(f, a, p):
    """Distinct-degree split of f over GF(p), p odd, with Euler's criterion
    for a on each part (Cantor-Zassenhaus, Math. Comp. 36, 1981).

    f is monic and a a unit modulo f, both ascending lists of residues.
    Returns [(k, f_k, square)]: f_k != 1 is the product of the irreducible
    factors of f of degree k, and square says whether a is a square in
    every residue field F_p[x]/(g), g | f_k, i.e. a^((p^k - 1)/2) = 1 mod
    f_k. Returns None when f is not squarefree (gcd(f, f') != 1).
    """
    if not _separable_mod(f, p):
        return None
    return [(k, g, _zpowmod(a, (p ** k - 1) // 2, g, p) == [1])
            for k, g in distinct_degree(f, p)]


def fq_sqrt(f, a, z, p):
    """A square root of the nonzero square a in F_q = GF(p)[x]/(f), f monic
    irreducible, q = p^deg f odd, by Tonelli-Shanks (Cohen, GTM 138, Alg.
    1.5.1); z is a non-square, read only when q = 1 mod 4."""
    def mul(x, y):
        return _zdivmod_monic(_zmul(x, y, p), f, p)[1]

    t = p ** (len(f) - 1) - 1
    s = (t & -t).bit_length() - 1  # q - 1 = 2^s t, t odd
    t >>= s
    r, u = _zpowmod(a, (t + 1) // 2, f, p), _zpowmod(a, t, f, p)
    c = _zpowmod(z, t, f, p) if s > 1 else None
    while u != [1]:  # r^2 = a u, u of order 2^i < 2^s
        i, w = 0, u
        while w != [1]:
            i, w = i + 1, mul(w, w)
            if i == s:
                raise PreconditionError("not a square, or z is a square")
        for _ in range(s - i - 1):
            c = mul(c, c)
        r, c = mul(r, c), mul(c, c)
        u, s = mul(u, c), i
    return r


def lift_sqrt(f, a, r, p, precisions):
    """Yield (p^N, b), b^2 = a mod (f, p^N), for each N in precisions
    (ascending), from a root r of a mod (f, p); p odd, f monic. Newton's
    step y <- y (3 - a y^2) / 2 mod m, with 1/2 = (m + 1)/2, doubles the
    digits of y = 1/r; b = a y."""
    y, k = _bezout_mod_p(r, [c % p for c in f], p)[0], 1
    for N in precisions:
        while k < N:
            k = min(2 * k, N)
            m = p ** k
            ay2 = _zdivmod_monic(_zmul(a, _zmul(y, y, m), m), f, m)[1]
            step = [c * (m + 1) // 2 for c in _zsub([3], ay2, m)]
            y = _zdivmod_monic(_zmul(y, step, m), f, m)[1]
        yield p ** N, _zdivmod_monic(_zmul(a, y, p ** N), f, p ** N)[1]


def rational_reconstruction(cs, m):
    """[r/s = c mod m with |r|, s <= sqrt(m/2) for c in cs] (unique when it
    exists; Wang's half-extended Euclid), or None if some c has none."""
    bound, out = math.isqrt(m // 2), []
    for c in cs:
        r0, r1, s0, s1 = m, c % m, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
        if abs(s1) > bound or math.gcd(r1, s1) != 1:
            return None
        out.append(Fraction(r1, s1))
    return out


def _separable_mod(f, p):
    """gcd(f, f') = 1 over GF(p) for monic f (reduced or not)."""
    f = [c % p for c in f]
    df = _zderiv(f, p)
    return bool(df) and len(_zgcd(f, df, p)) == 1


# tried first for a squarefree reduction of an integer polynomial (and by
# etale's non-residue screen)
SMALL_ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _factor_q(f: Poly) -> list:
    """[(Poly over QQ, m)] for monic f over Q: D^n f(x/D) is a monic integer
    g for D the lcm of the denominators; a factor h of g gives h(Dx)/D^deg h.
    """
    D = math.lcm(*(c.denominator for c in f.coeffs))
    n = f.degree
    g = [int(c * D ** (n - i)) for i, c in enumerate(f.coeffs)]
    return [(Poly(QQ, [Fraction(c, D ** (len(h) - 1 - j))
                       for j, c in enumerate(h)]), m)
            for h, m in _factor_z(g)]


def _factor_z(g):
    """[(h, m)] with monic integer g = prod h^m, the h irreducible over Q.

    A prime p with g squarefree mod p certifies g squarefree; only when the
    first few primes fail is Yun's decomposition over Q run, and past it
    every part is squarefree, so some prime works.
    """
    if len(g) <= 2:
        return [(g, 1)]
    p = next((p for p in SMALL_ODD_PRIMES if _separable_mod(g, p)), None)
    if p is None:
        parts = _yun_q(g)
        if parts != [(g, 1)]:
            return [(h, m * e) for s, m in parts for h, e in _factor_z(s)]
        p = next(p for p in itertools.count(SMALL_ODD_PRIMES[-1] + 2, 2)
                 if is_prime(p) and _separable_mod(g, p))
    return [(h, 1) for h in _zassenhaus(g, p)]


def _yun_q(g):
    """Yun's squarefree decomposition [(s, m)] of monic integer g over Q;
    the s are monic, hence integral (Gauss)."""
    f = Poly.from_ints(QQ, g)
    a = gcd(f, f.derivative())
    b = f.divmod(a)[0]
    d = f.derivative().divmod(a)[0] - b.derivative()
    out, m = [], 1
    while b.degree > 0:
        a = gcd(b, d)
        if a.degree > 0:
            out.append(([int(c) for c in a.coeffs], m))
        b = b.divmod(a)[0]
        d = d.divmod(a)[0] - b.derivative()
        m += 1
    return out


def _zassenhaus(g, p):
    """Irreducible factors over Z of monic g, squarefree mod p (Zassenhaus,
    J. Number Theory 1, 1969).

    The factors mod p are lifted to p^N > 2B, B a bound on the coefficients
    of any proper factor h of g: |h_j| <= C(k, j) M(h) <= C(k, j) M(g) <=
    C(k, j) |g|_2 (Mignotte), k = deg h < deg g. A factor over Z is then the
    symmetric residue of the product of a subset of the lifted factors, so
    trying every subset of at most half of them, by exact division, finds
    every factor; what is left over is irreducible.
    """
    fbar = [h for h, _ in _factor_gf([c % p for c in g], p)]
    if len(fbar) == 1:
        return [g]
    n = len(g) - 1
    norm2 = math.isqrt(sum(c * c for c in g)) + 1
    bound = math.comb(n - 1, (n - 1) // 2) * norm2
    N = 1
    while p ** N <= 2 * bound:
        N += 1
    mod = p ** N
    lifted = hensel_factorization(g, p, N, fbar)
    out, s = [], 1
    while 2 * s <= len(lifted):
        for subset in itertools.combinations(range(len(lifted)), s):
            h = [1]
            for i in subset:
                h = _zmul(h, lifted[i], mod)
            h = [c - mod if 2 * c > mod else c for c in h]
            if g[0] and (not h[0] or g[0] % h[0]):
                continue
            q, r = _zdivmod_monic(g, h)
            if not r:
                out.append(h)
                g = q
                lifted = [L for i, L in enumerate(lifted) if i not in subset]
                break
        else:
            s += 1
    return out + [g]


def _bezout_mod_p(g, h, p):
    """s, t with s*g + t*h = 1 over GF(p); g, h coprime."""
    r0, r1 = list(g), list(h)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        lc_inv = pow(r1[-1], -1, p)
        r1m = [c * lc_inv % p for c in r1]
        q, r = _zdivmod_monic(r0, r1m, p)
        q = [c * lc_inv % p for c in q]
        r0, r1 = r1, r
        s0, s1 = s1, _zsub(s0, _zmul(q, s1, p), p)
        t0, t1 = t1, _zsub(t0, _zmul(q, t1, p), p)
    if len(r0) != 1:
        raise PreconditionError("polynomials not coprime mod p")
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _lift_pair(f, g, h, p, N):
    """Lift f = g*h from mod p to mod p^N (f, g, h monic integer polys):
    quadratic Hensel steps with the Bezout pair s*g + t*h = 1 lifted along
    (von zur Gathen-Gerhard, Modern Computer Algebra, Alg. 15.10), the
    last step capped at p^N; the monic lift is unique."""
    s, t = _bezout_mod_p(g, h, p)
    G, H = [c % p for c in g], [c % p for c in h]
    k = 1
    while k < N:
        k = min(2 * k, N)
        m = p ** k
        e = _zsub(_zmul(G, H, m), f, m)
        q, r = _zdivmod_monic(_zmul(s, e, m), H, m)
        G = _zsub(_zsub(G, _zmul(t, e, m), m), _zmul(q, G, m), m)
        H = _zsub(H, r, m)
        if k < N:  # s*G + t*H = 1 again, mod p^k
            b = _zsub(_zmul(s, G, m), _zsub([1], _zmul(t, H, m), m), m)
            c, d = _zdivmod_monic(_zmul(s, b, m), H, m)
            s = _zsub(s, d, m)
            t = _zsub(_zsub(t, _zmul(t, b, m), m), _zmul(c, G, m), m)
    return G, H


def hensel_factorization(f_ints, p, N, fbar_factors):
    """Lift the pairwise-coprime monic factorization of f mod p to mod p^N."""
    if len(fbar_factors) == 1:
        return [[c % p ** N for c in f_ints]]
    g = fbar_factors[0]
    h = [1]
    for fac in fbar_factors[1:]:
        h = _zmul(h, fac, p)
    G, H = _lift_pair(f_ints, g, h, p, N)
    return [G] + hensel_factorization(H, p, N, fbar_factors[1:])


def _factor_qp(f: Poly) -> list:
    ring = f.ring
    p, N = ring.p, ring.prec
    fm = f.monic()
    # integral coefficients are required for the reduction path
    ints = []
    for c in fm.coeffs:
        if c.is_zero():
            ints.append(0)
            continue
        if c.valuation() < 0:
            raise PrecisionError(
                "p-adic factorization requires integral monic input")
        ints.append(c.u * p ** c.valuation() % p ** N)
    fbar = [c % p for c in ints]
    if fbar[-1] == 0:
        raise PrecisionError("leading coefficient degenerates mod p")
    if not _separable_mod(fbar, p):
        raise PrecisionError(
            f"reduction mod {p} not separable; Hensel factorization unavailable")
    fbar_factors = sorted((g for g, _ in _factor_gf(fbar, p)),
                          key=lambda g: (len(g), g))
    lifted = hensel_factorization(ints, p, N, fbar_factors)
    out = [(Poly(ring, [Padic.from_digits(p, 0, c, N) for c in L]), 1)
           for L in lifted]
    return sorted(out, key=lambda t: t[0].degree)

