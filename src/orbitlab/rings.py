"""Exact base rings: Q, R (exact rational coordinates), GF(p), and truncated
Qp, and the integer number theory they rest on.

Every ring object exposes the same small arithmetic API (add/sub/mul/div,
dot, is_zero, eq, from_fraction, is_square, sqrt, ...) so that polynomials,
matrices and quadratic forms can be written once. `dot(xs, ys)` is the one
inner-product kernel each place brings: over GF(p) one integer sum reduced
mod p once, over Q and R one common denominator and one Fraction at the
end, over Q_p one integer sum of the terms' units mod p^A, A the least
absolute precision of the products (the digits of the term-by-term sum).
`submul(x, c, b)` = x - c * b, the update step of division, rref and
Berkowitz, is one reduction over GF(p) and one normalisation over Q_p.

Each ring is also the place it stands for, and the only object that knows
which place that is: its `tag` names it in JSON, `is_global`, `is_real`,
`is_finite`, `is_padic` and `is_dyadic` say what kind it is, and
`hilbert` and `local_size_factor` answer the local questions.

p-adic scalars are precision-tracked triples (valuation, unit mod p^N, N);
all cancellation is accounted for explicitly and a value that cannot be
certified nonzero at its tracked precision raises PrecisionError when a
valuation is demanded. On two units, +, -, * and unary - build their one
result inline and read p^k from a bounded table filled on first use.

The integer helpers have their one implementation here: is_prime
(Miller-Rabin with a proven basis set), factorint (trial division, then
Pollard rho) and sqrt_mod_p (Tonelli-Shanks).
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

from .errors import PrecisionError, PreconditionError, UsageError

DEFAULT_PRECISION = 20

# Miller-Rabin with the 13 primes up to 41 as bases decides primality of
# every n below _PRIME_BOUND (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Primality by Miller-Rabin with the prime bases up to 41, which is
    proven for n < 3,317,044,064,679,887,385,961,981. A failed base proves
    n composite at any size; from that bound on, an n that passes every
    base raises UsageError instead of being called prime unproven."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _PRIME_BOUND:
        raise UsageError(f"{n} passes every base, but primality is "
                         f"certified only below {_PRIME_BOUND}")
    return True


def factorint(n: int) -> dict:
    """{prime: exponent} of an integer n >= 1, primes ascending: trial
    division below 1000, then square roots and Pollard rho on what is left.
    What is left has no factor below 1000, so below 10^6 it is prime."""
    if n < 1:
        raise PreconditionError(f"cannot factor {n}")
    out, d = {}, 2
    while d < 1000 and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        r = math.isqrt(m)
        if r * r == m:
            rest += [r, r]
            continue
        if m < 10 ** 6 or is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        for c in itertools.count(1):  # Floyd cycle search on x^2 + c
            x = y = 2
            g = 1
            while g == 1:
                x = (x * x + c) % m
                y = (y * y + c) % m
                y = (y * y + c) % m
                g = math.gcd(x - y, m)
            if g != m:
                break
        rest += [g, m // g]
    return dict(sorted(out.items()))


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise UsageError(f"cannot coerce {x!r} to a rational")


def _padic_val(n: int, p: int) -> int:
    """Valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _same_length(xs, ys):
    if len(xs) != len(ys):
        raise PreconditionError("dimension mismatch")


def sqrt_mod_p(a: int, p: int) -> int:
    """Tonelli-Shanks square root mod an odd prime p; a must be a QR."""
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        # write p-1 = q * 2^s with q odd
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    if r * r % p != a:
        raise PreconditionError(f"{a} is not a square mod {p}")
    return r


# _POWERS[p][k] = p^k for k < _POW_LEN, with rows for at most _POW_ROWS primes
_POW_LEN, _POW_ROWS, _POWERS = 64, 16, {}


def _power_row(p: int) -> tuple:
    if len(_POWERS) >= _POW_ROWS:
        _POWERS.clear()
    return _POWERS.setdefault(p, tuple(p ** k for k in range(_POW_LEN)))


def _sum(sign: int):
    """Padic.__add__ (sign 1) or __sub__ (sign -1). Two units are summed
    mod p^(A - m), A and m the least absolute precision and valuation."""
    def op(x: "Padic", y: "Padic") -> "Padic":
        u, w = x.u, sign * y.u
        if not (u and w):  # a zero: the other operand to its precision
            y = -y if sign < 0 else y
            if u:
                x, y = y, x
            if x.v is None:
                return y
            if not y.u:
                return x if y.v is None else Padic.zero(x.p, min(x.v, y.v))
            return y._truncate_abs(x.v)
        p, m, n = x.p, x.v, y.v
        k = m + x.prec if m + x.prec < n + y.prec else n + y.prec
        if m > n:
            m, n, u, w = n, m, w, u
        d, k = n - m, k - m
        T = _POWERS.get(p) or _power_row(p)
        s = u + w * (T[d] if d < _POW_LEN else p ** d)
        s %= T[k] if k < _POW_LEN else p ** k
        if s == 0:
            return Padic.zero(p, m + k)
        while s % p == 0:
            s, m, k = s // p, m + 1, k - 1
        z = object.__new__(Padic)
        z.p, z.v, z.u, z.prec = p, m, s, k
        return z
    return op


class Padic:
    """A truncated p-adic number p^v * u + O(p^(v+N)).

    A zero value has u == 0; then v is an absolute precision bound
    (the value is O(p^v)), with v = None meaning an exact zero.
    """

    __slots__ = ("p", "v", "u", "prec")

    def __init__(self, p: int, v, u: int, prec: int):
        if u != 0:
            if prec < 1:
                raise PrecisionError("p-adic value with no significant digits")
            u %= p ** prec
            if u % p == 0 or u == 0:
                raise ValueError("unit part must be a unit")
        self.p = p
        self.v = v
        self.u = u
        self.prec = prec if u != 0 else 0

    # -- constructors -------------------------------------------------

    @classmethod
    def _unit(cls, p: int, v: int, u: int, prec: int) -> "Padic":
        """Trusted constructor: u is already a unit reduced mod p^prec,
        prec >= 1, so __init__'s reduction and unit check are skipped."""
        x = object.__new__(cls)
        x.p, x.v, x.u, x.prec = p, v, u, prec
        return x

    @classmethod
    def from_digits(cls, p: int, m: int, s: int, A: int) -> "Padic":
        """The value s * p^m known mod p^A, with the p-power of s moved
        into the valuation."""
        s = s % p ** (A - m) if A > m else 0
        if s == 0:
            return cls.zero(p, A)
        w = _padic_val(s, p)
        return cls._unit(p, m + w, s // p ** w, A - m - w)

    @staticmethod
    def zero(p: int, abs_prec=None) -> "Padic":
        return Padic(p, abs_prec, 0, 0)

    @staticmethod
    def from_fraction(x, p: int, prec: int = DEFAULT_PRECISION) -> "Padic":
        x = _as_fraction(x)
        if x == 0:
            return Padic.zero(p)
        vn = _padic_val(x.numerator, p)
        vd = _padic_val(x.denominator, p)
        mod = p ** prec
        num = x.numerator // p ** vn
        den = x.denominator // p ** vd
        u = num * pow(den, -1, mod) % mod
        return Padic(p, vn - vd, u, prec)

    # -- queries -------------------------------------------------------

    def is_exact_zero(self) -> bool:
        return self.u == 0 and self.v is None

    def is_zero(self) -> bool:
        """Zero at the tracked precision (exact or indistinguishable)."""
        return self.u == 0

    def valuation(self) -> int:
        if self.u == 0:
            if self.v is None:
                raise PreconditionError("valuation of exact zero")
            raise PrecisionError(
                f"value is O({self.p}^{self.v}); valuation not determined")
        return self.v

    def unit_mod(self, k: int) -> int:
        if self.u == 0:
            raise PrecisionError("unit part of a (possible) zero")
        if self.prec < k:
            raise PrecisionError(f"need {k} digits of unit part, have {self.prec}")
        return self.u % self.p ** k

    # -- arithmetic ----------------------------------------------------

    __add__, __sub__ = _sum(1), _sum(-1)

    def _truncate_abs(self, abs_prec) -> "Padic":
        if abs_prec is None or self.u == 0:
            return self
        if self.v >= abs_prec:
            return Padic.zero(self.p, abs_prec)
        prec = min(self.prec, abs_prec - self.v)
        return Padic._unit(self.p, self.v, self.u % self.p ** prec, prec)

    def __neg__(self) -> "Padic":
        if self.u == 0:
            return self
        p, N, x = self.p, self.prec, object.__new__(Padic)
        x.p, x.v, x.prec = p, self.v, N
        x.u = -self.u % ((_POWERS.get(p) or _power_row(p))[N]
                         if N < _POW_LEN else p ** N)
        return x

    def __mul__(self, other: "Padic") -> "Padic":
        u, w = self.u, other.u
        if u and w:
            N = self.prec if self.prec < other.prec else other.prec
            p, x = self.p, object.__new__(Padic)
            x.p, x.v, x.prec = p, self.v + other.v, N
            x.u = u * w % ((_POWERS.get(p) or _power_row(p))[N]
                           if N < _POW_LEN else p ** N)
            return x
        if self.v is None or other.v is None:  # an exact zero factor
            return self if self.v is None else other
        # O(p^a) * (unit info) -> O(p^(a + v)), pessimistic when both fuzzy
        return Padic.zero(self.p, self.v + other.v)

    def inverse(self) -> "Padic":
        if self.u == 0:
            raise PrecisionError("inverting a (possible) zero")
        mod = self.p ** self.prec
        return Padic(self.p, -self.v, pow(self.u, -1, mod), self.prec)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Padic):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("Padic values are not hashable (inexact equality)")

    def __repr__(self):
        if self.u == 0:
            return "0" if self.v is None else f"O({self.p}^{self.v})"
        return f"{self.p}^{self.v} * {self.u} mod {self.p}^{self.prec}"

    def to_fraction(self) -> Fraction:
        """A rational representative of this approximation."""
        if self.u == 0:
            return Fraction(0)
        return Fraction(self.u) * Fraction(self.p) ** self.v


class Place:
    """Place facts shared by the rings; each ring overrides what holds.
    The arithmetic defaults to Python's operators, which Fraction and
    Padic elements carry; GF(p) reduces mod p instead."""

    is_global = is_real = is_finite = is_padic = is_dyadic = False
    tag: str
    add, sub, mul, neg = map(staticmethod, (operator.add, operator.sub,
                                            operator.mul, operator.neg))

    submul = staticmethod(lambda x, c, b: x - c * b)

    def inv(self, a):
        return self.div(self.one, a)

    def hilbert(self, a, b) -> int:
        raise UsageError(f"Hilbert symbol undefined over {self!r}")

    def local_size_factor(self, g: int):
        """b_v with |J(k_v)/2J(k_v)| = b_v * |J[2](k_v)| for genus g."""
        raise UsageError("local size needs a local place")

    def __eq__(self, other):
        return isinstance(other, Place) and other.tag == self.tag

    def __hash__(self):
        return hash(self.tag)


class RationalField(Place):
    tag = "Q"
    char = 0
    is_global = True

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n: int):
        return Fraction(n)

    def from_fraction(self, x):
        return _as_fraction(x)

    def dot(self, xs, ys):
        _same_length(xs, ys)
        num, den = 0, 1
        for a, b in zip(xs, ys):
            d = a.denominator * b.denominator
            if den % d:
                num, den = num * d, den * d
            num += a.numerator * b.numerator * (den // d)
        return Fraction(num, den)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in Q")
        return a / b

    def is_zero(self, a) -> bool:
        return a == 0

    def eq(self, a, b) -> bool:
        return a == b

    def is_square(self, a) -> bool:
        a = _as_fraction(a)
        if a < 0:
            return False
        if a == 0:
            return True
        n, d = a.numerator, a.denominator
        return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d

    def sqrt(self, a):
        a = _as_fraction(a)
        if not self.is_square(a):
            raise PreconditionError(f"{a} is not a rational square")
        return Fraction(math.isqrt(a.numerator), math.isqrt(a.denominator))

    def scalar_str(self, a) -> str:
        return str(a)

    def __repr__(self):
        return "QQ"


class RealField(RationalField):
    """The real place; elements are exact rational coordinates."""

    tag = "R"
    is_global = False
    is_real = True

    def is_square(self, a) -> bool:
        return _as_fraction(a) >= 0

    def sqrt(self, a):
        # only rational square roots are representable
        return QQ.sqrt(a)

    def hilbert(self, a, b) -> int:
        a, b = _as_fraction(a), _as_fraction(b)
        if a == 0 or b == 0:
            raise PreconditionError("Hilbert symbol of zero")
        return -1 if (a < 0 and b < 0) else 1

    def local_size_factor(self, g: int):
        return Fraction(1, 2 ** g)

    def __repr__(self):
        return "RR"


class PrimeField(Place):
    char: int
    is_finite = True

    def __init__(self, p: int):
        if not is_prime(p):
            raise UsageError(f"GF({p}): only prime fields are supported")
        self.p = p
        self.char = p
        self.tag = f"F:{p}"
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n: int):
        return n % self.p

    def from_fraction(self, x):
        x = _as_fraction(x)
        if x.denominator % self.p == 0:
            raise ZeroDivisionError(f"denominator divisible by {self.p}")
        return x.numerator * pow(x.denominator, -1, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def dot(self, xs, ys):
        _same_length(xs, ys)
        return sum(map(operator.mul, xs, ys)) % self.p

    def submul(self, x, c, b):
        return (x - c * b) % self.p

    def neg(self, a):
        return -a % self.p

    def div(self, a, b):
        if b % self.p == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return a * pow(b, -1, self.p) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def eq(self, a, b) -> bool:
        return (a - b) % self.p == 0

    def is_square(self, a) -> bool:
        a %= self.p
        if a == 0:
            return True
        if self.p == 2:
            return True
        return pow(a, (self.p - 1) // 2, self.p) == 1

    def sqrt(self, a):
        a %= self.p
        if self.p == 2:
            return a
        return sqrt_mod_p(a, self.p)

    def scalar_str(self, a) -> str:
        return str(a % self.p)

    def hilbert(self, a, b) -> int:
        """Every nonzero element of GF(p) is a unit, and (u, w) = 1."""
        if self.is_zero(a) or self.is_zero(b):
            raise PreconditionError("Hilbert symbol of zero")
        return 1

    def local_size_factor(self, g: int):
        return 1

    def __repr__(self):
        return f"GF({self.p})"


class PadicField(Place):
    char = 0
    is_padic = True

    def __init__(self, p: int, prec: int = DEFAULT_PRECISION):
        if not is_prime(p):
            raise UsageError(f"Qp: {p} is not prime")
        if prec < 1:
            raise UsageError("precision must be >= 1")
        self.p = p
        self.prec = prec
        self.tag = f"Qp:{p}"
        self.is_dyadic = p == 2
        self.zero = Padic.zero(p)
        self.one = Padic(p, 0, 1, prec)

    def from_int(self, n: int):
        return Padic.from_fraction(Fraction(n), self.p, self.prec)

    def from_fraction(self, x):
        if isinstance(x, Padic):
            if x.p != self.p:
                raise UsageError("p mismatch")
            return x
        return Padic.from_fraction(_as_fraction(x), self.p, self.prec)

    def dot(self, xs, ys):
        """Digit for digit the term-by-term sum: it is known mod p^A, A the
        least absolute precision of the products."""
        _same_length(xs, ys)
        p, A, terms = self.p, None, []
        for a, b in zip(xs, ys):
            if a.u and b.u:
                v = a.v + b.v
                terms.append((v, a.u * b.u))
                top = v + min(a.prec, b.prec)
            elif a.v is None or b.v is None:
                continue  # an exact zero factor
            else:
                top = a.v + b.v
            if A is None or top < A:
                A = top
        if A is None:
            return Padic.zero(p)
        m = min((v for v, _ in terms), default=A)
        return Padic.from_digits(
            p, m, sum(u * p ** (v - m) for v, u in terms), A)

    def submul(self, x, c, b):
        """x - c * b in one normalisation, digit for digit the three-step
        result: each step reduces mod a power of p at least p^A, A the
        result's absolute precision. A zero factor or an O(p^k) x takes
        the three steps."""
        if not (c.u and b.u) or not x.u and x.v is not None:
            return x - c * b
        p, m, s = self.p, c.v + b.v, -c.u * b.u
        A = m + (c.prec if c.prec < b.prec else b.prec)
        if x.u:
            v, T = x.v, _POWERS.get(p) or _power_row(p)
            if v + x.prec < A:
                A = v + x.prec
            d = v - m if v > m else m - v
            t = T[d] if d < _POW_LEN else p ** d
            s, m = (x.u * t + s, m) if v > m else (x.u + s * t, v)
        return Padic.from_digits(p, m, s, A)

    def div(self, a, b):
        return a * b.inverse()

    def inv(self, a):
        return a.inverse()

    def is_zero(self, a) -> bool:
        return a.is_zero()

    def eq(self, a, b) -> bool:
        return (a - b).is_zero()

    def is_square(self, a: Padic) -> bool:
        v = a.valuation()
        if v % 2 != 0:
            return False
        if self.p == 2:
            return a.unit_mod(3) % 8 == 1
        return pow(a.unit_mod(1), (self.p - 1) // 2, self.p) == 1

    def sqrt(self, a: Padic) -> Padic:
        if not self.is_square(a):
            raise PreconditionError(f"{a} is not a square in Q_{self.p}")
        p, v, N = self.p, a.valuation(), a.prec
        if self.p == 2:
            # lift bit by bit from x = 1 (u = 1 mod 8)
            N = max(N - 1, 1)
            u = a.u % 2 ** (N + 1)
            x = 1
            for k in range(3, N + 1):
                if (u - x * x) % 2 ** (k + 1) != 0:
                    x += 2 ** (k - 1)
            x %= 2 ** N
            if (x * x - a.u) % 2 ** N != 0:
                raise PrecisionError("2-adic square root did not converge")
        else:
            mod = p ** N
            x = sqrt_mod_p(a.u % p, p)
            for _ in range(N.bit_length() + 2):
                x = (x + a.u * pow(x, -1, mod)) * pow(2, -1, mod) % mod
            if x * x % mod != a.u % mod:
                raise PrecisionError("p-adic square root did not converge")
        return Padic(p, v // 2, x, N)

    def scalar_str(self, a: Padic) -> str:
        return repr(a)

    def hilbert(self, a, b) -> int:
        """(a, b)_p with a, b rational or Padic; Serre, Course in Arithmetic,
        ch. III, Thm. 1. Exponents are reduced mod 2, so a negative
        valuation still gives an int."""
        p = self.p
        alpha, u = _val_and_unit(a, p)
        beta, w = _val_and_unit(b, p)
        if p != 2:
            def leg(t):
                return 1 if pow(t % p, (p - 1) // 2, p) == 1 else -1
            eps = (p - 1) // 2
            sign = -1 if alpha * beta * eps % 2 else 1
            return sign * leg(u) ** (beta % 2) * leg(w) ** (alpha % 2)
        # p = 2, with eps(u) = (u-1)/2, omega(u) = (u^2-1)/8 mod 2
        eu, ew = (u - 1) // 2 % 2, (w - 1) // 2 % 2
        ou, ow = (u * u - 1) // 8 % 2, (w * w - 1) // 8 % 2
        return -1 if (eu * ew + alpha * ow + beta * ou) % 2 else 1

    def local_size_factor(self, g: int):
        return 2 ** g if self.is_dyadic else 1

    def __repr__(self):
        return f"Qp({self.p}, prec={self.prec})"


QQ = RationalField()
RR = RealField()


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)


@lru_cache(maxsize=None)
def Qp(p: int, prec: int = DEFAULT_PRECISION) -> PadicField:
    return PadicField(p, prec)


# ---------------------------------------------------------------------------
# Hilbert symbols


def _val_and_unit(x, p: int):
    """Write a nonzero rational (or Padic) as p^v * unit; return (v, unit).

    A Padic unit is read to the digits the symbol depends on (3 at p = 2,
    1 otherwise) and raises PrecisionError when it has fewer.
    """
    if isinstance(x, Padic):
        return x.valuation(), x.unit_mod(3 if p == 2 else 1)
    x = _as_fraction(x)
    if x == 0:
        raise PreconditionError("Hilbert symbol of zero")
    vn, vd = _padic_val(x.numerator, p), _padic_val(x.denominator, p)
    mod = p ** 3
    return vn - vd, (x.numerator // p ** vn
                     * pow(x.denominator // p ** vd, -1, mod) % mod)


def hilbert_symbol(a, b, place) -> int:
    """Hilbert symbol (a, b)_v at R, GF(p) or Q_p. a, b rational or Padic."""
    return place.hilbert(a, b)
