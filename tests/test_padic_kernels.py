"""Q_p arithmetic against the code it replaced, digit for digit.

The scalar add, neg and mul below are the Padic methods as they were
before the inline unit path and the power table; sub is add after neg.
`OldArithmetic` is a Q_p ring that runs them, so the per-element loops
(`ring_divmod`, `ring_berkowitz`, and `old_rref` here) compute in the old
scalar code: three steps and three objects for every x - c * b. Each
operation is compared on at least 10,000 seeded cases drawn by
`_random_padic` (exact zeros, O(p^k), valuations of either sign, N from 1
to 6) at p = 2, 3, 5 and 7, with a share of sums that cancel; the p-adic
digits and the exception type must agree."""

import random

import pytest

from orbitlab import rings
from orbitlab.linalg import Mat, best_pivot, charpoly, rref
from orbitlab.poly import Poly
from orbitlab.rings import GF, QQ, RR, Padic, Qp, _padic_val
from test_exact_kernels import (_padic_digits, _random_padic,
                                ring_berkowitz, ring_divmod)

SEED_PADIC = 0x9AD1C
PRIMES = (2, 3, 5, 7)


# -- the scalar code the inline unit path replaced --------------------------

def old_from_digits(p, m, s, A):
    s = s % p ** (A - m) if A > m else 0
    if s == 0:
        return Padic.zero(p, A)
    w = _padic_val(s, p)
    return Padic(p, m + w, s // p ** w, A - m - w)


def _abs_prec(x):
    return x.v if x.u == 0 else x.v + x.prec


def _truncate_abs(x, abs_prec):
    if abs_prec is None or x.u == 0:
        return x
    if x.v >= abs_prec:
        return Padic.zero(x.p, abs_prec)
    prec = min(x.prec, abs_prec - x.v)
    return Padic(x.p, x.v, x.u % x.p ** prec, prec)


def old_add(x, y):
    p = x.p
    a1, a2 = _abs_prec(x), _abs_prec(y)
    if x.u == 0 and y.u == 0:
        if a1 is None:
            return y
        if a2 is None:
            return x
        return Padic.zero(p, min(a1, a2))
    if x.u == 0:
        return _truncate_abs(y, a1)
    if y.u == 0:
        return _truncate_abs(x, a2)
    m = min(x.v, y.v)
    return old_from_digits(
        p, m, x.u * p ** (x.v - m) + y.u * p ** (y.v - m), min(a1, a2))


def old_neg(x):
    if x.u == 0:
        return x
    return Padic(x.p, x.v, -x.u % x.p ** x.prec, x.prec)


def old_sub(x, y):
    return old_add(x, old_neg(y))


def old_mul(x, y):
    p = x.p
    if x.is_exact_zero() or y.is_exact_zero():
        return Padic.zero(p)
    if x.u == 0 or y.u == 0:
        return Padic.zero(p, x.v + y.v)
    N = min(x.prec, y.prec)
    return Padic(p, x.v + y.v, x.u * y.u % p ** N, N)


class OldArithmetic:
    """The field K with the old scalar add, sub, mul and neg; inverses,
    zero tests and pivots are K's own."""

    add, sub, mul, neg = map(staticmethod, (old_add, old_sub, old_mul,
                                            old_neg))

    def __init__(self, K):
        self.K = K

    def __getattr__(self, name):
        return getattr(self.K, name)


def old_rref(M: Mat):
    """linalg.rref's loop with the update a - f * b in three steps."""
    R = M.ring
    A = [list(r) for r in M.rows]
    m, n = len(A), (len(A[0]) if A else 0)
    piv_cols, r = [], 0
    for c in range(n):
        if r >= m:
            break
        sel = best_pivot(R, [(i, A[i][c]) for i in range(r, m)])
        if sel is None:
            continue
        A[r], A[sel] = A[sel], A[r]
        inv = R.inv(A[r][c])
        A[r] = [R.mul(inv, a) for a in A[r]]
        for i in range(m):
            if i != r and not R.is_zero(A[i][c]):
                f = A[i][c]
                A[i] = [R.sub(a, R.mul(f, b)) for a, b in zip(A[i], A[r])]
        piv_cols.append(c)
        r += 1
    return Mat(R, A), piv_cols


# -- outcomes ---------------------------------------------------------------

def _digits(x):
    """Digits of a Padic, a Poly, a Mat or a tuple of them."""
    if isinstance(x, Padic):
        return _padic_digits(x)
    if isinstance(x, Poly):
        return tuple(map(_padic_digits, x.coeffs))
    if isinstance(x, Mat):
        return tuple(tuple(map(_padic_digits, r)) for r in x.rows)
    if isinstance(x, (tuple, list)):
        return tuple(_digits(y) for y in x)
    return x


def _outcome(f, *args):
    try:
        return _digits(f(*args))
    except Exception as exc:  # the type is what gets compared
        return type(exc)


def _near(rng, x, p):
    """x itself or x plus a small term, so that x - near(x) cancels."""
    if rng.random() < 0.5:
        return x
    return x + _random_padic(rng, p)


def _cases(seed, count):
    rng = random.Random(seed)
    for k in range(count):
        yield rng, PRIMES[k % len(PRIMES)]


N_CASES = 10_000


# -- scalars ----------------------------------------------------------------

class TestScalarOracle:
    def test_add_sub_neg(self):
        for rng, p in _cases(SEED_PADIC, N_CASES):
            x = _random_padic(rng, p)
            y = _random_padic(rng, p)
            if rng.random() < 0.3:  # the sum or the difference cancels
                y = _near(rng, -x if rng.random() < 0.5 else x, p)
            assert _outcome(lambda: x + y) == _outcome(old_add, x, y), (x, y)
            assert _outcome(lambda: x - y) == _outcome(old_sub, x, y), (x, y)
            assert _outcome(lambda: -x) == _outcome(old_neg, x), x

    def test_mul(self):
        for rng, p in _cases(SEED_PADIC + 1, N_CASES):
            x, y = _random_padic(rng, p), _random_padic(rng, p)
            assert _outcome(lambda: x * y) == _outcome(old_mul, x, y), (x, y)

    def test_submul(self):
        for rng, p in _cases(SEED_PADIC + 2, N_CASES):
            K = Qp(p, 6)
            c, b = _random_padic(rng, p), _random_padic(rng, p)
            x = _random_padic(rng, p)
            if rng.random() < 0.3:  # x - c * b cancels, or nearly
                x = _near(rng, c * b, p)
            want = _outcome(lambda: old_sub(x, old_mul(c, b)))
            assert _outcome(K.submul, x, c, b) == want, (x, c, b)

    @pytest.mark.parametrize("p", [2, 3])
    def test_beyond_the_power_table(self, p):
        """Precisions and valuation gaps past rings._POW_LEN."""
        rng, top = random.Random(SEED_PADIC + 3 + p), rings._POW_LEN + 40
        K = Qp(p, top)

        def draw():
            if rng.random() < 0.1:
                return Padic.zero(p, rng.randint(-top, top))
            prec = rng.randint(1, top)
            u = rng.randrange(1, p ** prec)
            while u % p == 0:
                u = rng.randrange(1, p ** prec)
            return Padic(p, rng.randint(-top, top), u, prec)

        for _ in range(2_000):
            x, c, b = draw(), draw(), draw()
            if rng.random() < 0.3:
                x = _near(rng, c * b, p)
            assert _outcome(lambda: x + c) == _outcome(old_add, x, c)
            assert _outcome(lambda: x - c) == _outcome(old_sub, x, c)
            assert _outcome(lambda: -x) == _outcome(old_neg, x)
            assert _outcome(lambda: c * b) == _outcome(old_mul, c, b)
            assert (_outcome(K.submul, x, c, b)
                    == _outcome(lambda: old_sub(x, old_mul(c, b))))

    def test_power_table_is_bounded(self):
        primes = [q for q in range(2, 200) if rings.is_prime(q)]
        for q in primes:
            x = Padic(q, 0, 1, 3)
            assert _padic_digits(x * x + x) == _padic_digits(
                old_add(old_mul(x, x), x))
            assert len(rings._POWERS) <= rings._POW_ROWS
        assert rings._POWERS[primes[-1]][5] == primes[-1] ** 5


@pytest.mark.parametrize("ring", [QQ, RR, GF(2), GF(7)],
                         ids=["QQ", "RR", "GF2", "GF7"])
def test_exact_rings_submul(ring):
    rng = random.Random(SEED_PADIC + 4)
    for _ in range(500):
        x, c, b = (ring.from_int(rng.randint(-20, 20)) for _ in range(3))
        assert ring.eq(ring.submul(x, c, b),
                       ring.sub(x, ring.mul(c, b)))


# -- division, rref and Berkowitz --------------------------------------------

def _padic_poly(rng, K, degree):
    return Poly(K, [_random_padic(rng, K.p) for _ in range(degree + 1)])


def _padic_rows(rng, K, m, n):
    rows = [[_random_padic(rng, K.p) for _ in range(n)] for _ in range(m)]
    if m >= 3 and rng.random() < 0.3:  # a dependent row: elimination cancels
        rows[-1] = [_near(rng, a + b, K.p) for a, b in zip(rows[0], rows[1])]
    return rows


class TestLoopOracles:
    def test_divmod(self):
        for rng, p in _cases(SEED_PADIC + 5, N_CASES):
            K = Qp(p, 6)
            g = _padic_poly(rng, K, rng.randint(0, 3))
            f = _padic_poly(rng, K, rng.randint(0, 6))
            if not g.is_zero() and rng.random() < 0.3:  # the remainder cancels
                f = f * g if rng.random() < 0.5 else f * g + Poly(
                    K, [_random_padic(rng, p)])
            old = OldArithmetic(K)
            want = _outcome(ring_divmod, Poly(old, f.coeffs),
                            Poly(old, g.coeffs))
            assert _outcome(f.divmod, g) == want, (f, g)

    def test_rref(self):
        for rng, p in _cases(SEED_PADIC + 6, N_CASES):
            K = Qp(p, 6)
            m, n = (3, 4) if rng.random() < 0.5 else (rng.randint(1, 4),
                                                      rng.randint(1, 5))
            rows = _padic_rows(rng, K, m, n)
            want = _outcome(old_rref, Mat(OldArithmetic(K), rows))
            assert _outcome(rref, Mat(K, rows)) == want, rows

    def test_charpoly(self):
        for rng, p in _cases(SEED_PADIC + 7, N_CASES):
            K = Qp(p, 6)
            n = rng.choice((1, 2, 2, 3, 3, 3, 4, 4)) if rng.random() < 0.97 \
                else rng.randint(5, 6)
            rows = _padic_rows(rng, K, n, n)
            want = _outcome(ring_berkowitz, Mat(OldArithmetic(K), rows))
            assert _outcome(charpoly, Mat(K, rows)) == want, rows
