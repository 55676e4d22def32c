"""Dense univariate polynomials over the package's exact rings.

Includes resultants/discriminants via the Euclidean scheme, composition
(for g(x) = f(x^2)), and factorization: sympy over Q and GF(p), Hensel
lifting from a separable reduction over Q_p.
"""

from __future__ import annotations

from fractions import Fraction

import sympy

from .errors import PrecisionError, PreconditionError, UsageError
from .rings import GF, QQ, Padic, PadicField, PrimeField, RationalField

_x = sympy.Symbol("x")


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
        q = [R.zero] * max(self.degree - other.degree + 1, 0)
        r = list(self.coeffs)
        inv_lc = R.inv(other.lc)
        while len(r) - 1 >= other.degree and r:
            while r and R.is_zero(r[-1]):
                r.pop()
            if len(r) - 1 < other.degree:
                break
            k = len(r) - 1 - other.degree
            c = R.mul(r[-1], inv_lc)
            q[k] = c
            for i, b in enumerate(other.coeffs):
                r[k + i] = R.sub(r[k + i], R.mul(c, b))
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
    R = f.ring
    if f.is_zero() or g.is_zero():
        return R.zero
    res = R.one
    a, b = f, g
    while b.degree > 0:
        r = a.mod(b)
        if r.is_zero():
            return R.zero
        da, db, dr = a.degree, b.degree, r.degree
        sign = R.from_int((-1) ** (da * db))
        lead = R.one
        for _ in range(da - dr):
            lead = R.mul(lead, b.lc)
        res = R.mul(res, R.mul(sign, lead))
        a, b = b, r
    # b is a nonzero constant
    out = res
    for _ in range(a.degree):
        out = R.mul(out, b.lc)
    return out


def discriminant(f: Poly):
    if f.is_zero():
        raise PreconditionError("discriminant of the zero polynomial")
    R = f.ring
    d = f.degree
    if d == 0:
        return R.one
    res = resultant(f, f.derivative())
    sign = R.from_int((-1) ** (d * (d - 1) // 2))
    return R.div(R.mul(sign, res), f.lc)


# ---------------------------------------------------------------------------
# sympy conversion (Q and GF(p) coefficients)


def to_sympy(f: Poly):
    if isinstance(f.ring, PrimeField):
        return sum(sympy.Integer(int(c)) * _x ** i for i, c in enumerate(f.coeffs))
    return sum(sympy.Rational(c) * _x ** i for i, c in enumerate(f.coeffs))


def from_sympy(expr, ring) -> Poly:
    sp = sympy.Poly(expr, _x)
    coeffs = list(reversed(sp.all_coeffs()))
    return Poly(ring, [ring.from_fraction(Fraction(str(c))) for c in coeffs])


# ---------------------------------------------------------------------------
# Factorization


def factor(f: Poly) -> list:
    """Factor into monic irreducibles; returns [(Poly, multiplicity)].

    The leading coefficient is dropped (callers work with monic data).
    """
    if f.is_zero():
        raise PreconditionError("factoring the zero polynomial")
    ring = f.ring
    if isinstance(ring, PadicField):
        return _factor_qp(f)
    if isinstance(ring, PrimeField):
        sp = sympy.Poly(to_sympy(f), _x, modulus=ring.p)
        _, parts = sp.factor_list()
        out = []
        for fac, mult in parts:
            coeffs = list(reversed(fac.all_coeffs()))
            g = Poly(ring, [ring.from_int(int(c)) for c in coeffs]).monic()
            out.append((g, int(mult)))
        return sorted(out, key=lambda t: (t[0].degree, t[0].coeffs))
    if isinstance(ring, RationalField):  # covers RR's rational coordinates
        sp = sympy.Poly(to_sympy(f), _x, domain="QQ")
        _, parts = sp.factor_list()
        out = []
        for fac, mult in parts:
            g = from_sympy(fac.as_expr(), QQ).monic()
            out.append((g, int(mult)))
        return sorted(out, key=lambda t: (t[0].degree, t[0].coeffs))
    raise UsageError(f"factorization unsupported over {ring!r}")


# -- integer polynomial helpers for Hensel lifting -------------------------


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


def _zdivmod_monic(a, b, mod):
    """Divide by monic b with coefficients mod `mod`."""
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        if a[-1] == 0:
            a.pop()
            continue
        k = len(a) - len(b)
        c = a[-1]
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] = (a[k + i] - c * y) % mod
        while a and a[-1] == 0:
            a.pop()
    return q, a


def _zgcd(a, b, p):
    """Monic gcd over GF(p) of a and a nonzero b."""
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


def euler_split(f, a, p):
    """Distinct-degree split of f over GF(p), p odd, with Euler's criterion
    for a on each part (Cantor-Zassenhaus, Math. Comp. 36, 1981).

    f is monic and a a unit modulo f, both ascending lists of residues.
    Returns [(k, f_k, square)]: f_k != 1 is the product of the irreducible
    factors of f of degree k, and square says whether a is a square in
    every residue field F_p[x]/(g), g | f_k, i.e. a^((p^k - 1)/2) = 1 mod
    f_k. Returns None when f is not squarefree (gcd(f, f') != 1).
    """
    df = [i * c % p for i, c in enumerate(f)][1:]
    while df and df[-1] == 0:
        df.pop()
    if not df or len(_zgcd(f, df, p)) > 1:
        return None
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
    return [(k, g, _zpowmod(a, (p ** k - 1) // 2, g, p) == [1])
            for k, g in parts]


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
    """Lift f = g*h from mod p to mod p^N (f, g, h monic integer polys)."""
    s, t = _bezout_mod_p(g, h, p)
    G = [c % p ** N for c in g]
    H = [c % p ** N for c in h]
    for k in range(1, N):
        mod = p ** (k + 1)
        diff = _zsub(f, _zmul(G, H, p ** N), p ** N)
        e = [(c % mod) // p ** k for c in diff]
        while e and e[-1] == 0:
            e.pop()
        if not e:
            continue
        dg = _zdivmod_monic(_zmul(t, e, p), [c % p for c in G], p)[1]
        dh = _zdivmod_monic(_zmul(s, e, p), [c % p for c in H], p)[1]
        G = [(G[i] if i < len(G) else 0) + p ** k * (dg[i] if i < len(dg) else 0)
             for i in range(max(len(G), len(dg)))]
        H = [(H[i] if i < len(H) else 0) + p ** k * (dh[i] if i < len(dh) else 0)
             for i in range(max(len(H), len(dh)))]
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
    ring: PadicField = f.ring
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
    Fp = GF(p)
    fbar = Poly(Fp, [c % p for c in ints])
    if fbar.degree != fm.degree:
        raise PrecisionError("leading coefficient degenerates mod p")
    if Fp.is_zero(discriminant(fbar)):
        raise PrecisionError(
            f"reduction mod {p} not separable; Hensel factorization unavailable")
    parts = factor(fbar)
    fbar_factors = [[int(c) for c in g.coeffs] for g, _ in parts]
    lifted = hensel_factorization(ints, p, N, fbar_factors)
    out = []
    for L in lifted:
        coeffs = []
        for c in L:
            c %= p ** N
            if c == 0:
                coeffs.append(Padic.zero(p, N))
            else:
                v = 0
                while c % p == 0:
                    c //= p
                    v += 1
                coeffs.append(Padic(p, v, c, N - v))
        out.append((Poly(ring, coeffs), 1))
    return sorted(out, key=lambda t: t[0].degree)


def parse_coeff_list(text: str, ring) -> Poly:
    """Parse ascending comma-separated integers or rationals a/b."""
    try:
        coeffs = [ring.from_fraction(Fraction(part.strip()))
                  for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed coefficient list {text!r}: {exc}") from exc
    return Poly(ring, coeffs)
