"""Each place kind is decided once: a quadratic form answers at its own
base through quadforms._local, and descent.local_image picks its strategy
in one ladder. Differential tests against the functions as they were when
forms took a place argument and every function read the place kind again
(copied verbatim below), on seeded forms and curves at every local place
kind: the results, and each exception's type and message, are identical.
"""

import random
from fractions import Fraction

import pytest

from conftest import SEED, count_calls, random_rs_invariants
from orbitlab import DEFAULT_SEED, descent, quadforms
from orbitlab.descent import (DEFAULT_BUDGET, LocalImage, MarkedCurve,
                              _point_element, _qp_candidates,
                              _real_components, local_mw_size)
from orbitlab.errors import PreconditionError, UsageError
from orbitlab.etale import SquareClass, norm_one_classes
from orbitlab.linalg import Mat
from orbitlab.orbits import algebra_of, neg_gamma
from orbitlab.poly import real_roots_exact
from orbitlab.quadforms import (FormInvariants, GramForm, _hasse,
                                _isotropic_diag_gf, _isotropic_diag_qp)
from orbitlab.rings import GF, QQ, RR, Qp
from orbitlab.thetarep import Invariants

# ---------------------------------------------------------------------------
# quadforms as it was: a place argument, the place kind read per function


def _local_place(Q: GramForm, place):
    """The place, by default the form's base; the global place is refused."""
    place = Q.ring if place is None else place
    if place.is_global:
        raise UsageError("no quadratic-form invariants, splitness or "
                         "isotropic search over Q (local places only)")
    return place


def form_invariants(Q: GramForm, place=None) -> FormInvariants:
    """Rank, discriminant, and the signature (R) or the Hasse invariant
    (GF(p), Q_p) at the local place; the form's base must be the place or
    Q. At GF(p), where Hilbert symbols of units are 1 and a diagonal P^t G P
    has product det(G) det(P)^2, they are det(G) and 1, with no diagonal."""
    ring = Q.ring
    place = _local_place(Q, place)
    if not Q.is_nondegenerate():
        raise PreconditionError("degenerate form")
    if place != ring and (place.is_finite or not ring.is_global):
        raise UsageError(
            f"no invariants at {place!r} for a form over {ring!r}")
    if place.is_finite and place.char != 2:  # diagonalize refuses char 2
        return FormInvariants(Q.rank, Q.det(), 1, None, place)
    return _diag_invariants(Q.diagonal[1], ring, place)


def _diag_invariants(diag, ring, place) -> FormInvariants:
    """form_invariants of the diagonal form with these entries over ring."""
    disc = ring.one
    for d in diag:
        disc = ring.mul(disc, d)
    n = len(diag)
    if place.is_real:
        pos = sum(1 for d in diag if d > 0)
        return FormInvariants(n, disc, None, (pos, n - pos), place)
    return FormInvariants(n, disc, _hasse(diag, place), None, place)


def is_split(Q: GramForm, place=None) -> bool:
    """Maximal Witt index at the local place, the form's base by default."""
    place = _local_place(Q, place)
    if not Q.is_nondegenerate():
        return False
    if place.char == 2:
        raise UsageError("characteristic 2 not supported")
    return _is_split_at(form_invariants(Q, place))


def _is_split_at(inv: FormInvariants) -> bool:
    """Maximal Witt index at a local place, from the form's invariants."""
    place, n, m = inv.place, inv.rank, inv.rank // 2
    if place.is_real:
        pos, neg = inv.signature
        return abs(pos - neg) <= (n % 2)
    # compare with the split model H^m, plus <c> in odd rank
    c = place.mul(place.from_int((-1) ** m), place.from_fraction(inv.disc))
    if n % 2 == 0 and not place.is_square(c):
        return False
    return inv.hasse == _hasse([1, -1] * m + [c] * (n % 2), place)


def isotropic_vector(Q: GramForm):
    """A nonzero v with Q(v) = 0, or None if none found/exists."""
    ring = _local_place(Q, None)
    if ring.is_real:
        raise UsageError("no isotropic search over R")
    if ring.is_dyadic:
        raise UsageError("no isotropic search over Q_2 (invariants only)")
    P, diag = Q.diagonal
    search = _isotropic_diag_gf if ring.is_finite else _isotropic_diag_qp
    w = search(diag, ring)
    if w is None:
        return None
    v = [ring.zero] * len(diag)
    for i, c in w:  # the searches return ring elements
        v[i] = c
    v = P.apply(v)
    if not ring.is_zero(Q.quad(v)):
        raise PreconditionError("isotropic search produced a bad vector")
    return v


# ---------------------------------------------------------------------------
# descent as it was: _good_reduction read the place kind and the change of
# place again


def _good_reduction(c: Invariants, ring, which: int) -> bool:
    """Odd residue characteristic, p-integral invariants, unit disc(f);
    curve 2 (y^2 = x f(x)) additionally needs f(0) = e^2 to be a unit.
    Rational invariants are exact, so from_fraction reads their
    valuations (and that of disc(f)) exactly at Q_p."""
    if not ring.is_padic or ring.is_dyadic:
        return False
    if c.ring != ring and not c.ring.is_global:
        raise UsageError("place change requires rational invariants")
    e, disc, *a = (x if c.ring == ring else ring.from_fraction(x)
                   for x in (c.e, c.disc, *c.a))
    if any(x.valuation() < 0 for x in a if not x.is_zero()):
        return False
    if e.is_zero() or e.valuation() < 0 or which == 2 and e.valuation():
        return False
    return not disc.is_zero() and disc.valuation() == 0


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

    if _good_reduction(c, ring, which):
        classes = [cl for cl in norm_one_classes(Lv)
                   if all(lab[0] == 0 for lab in cl.labels)]
        if len(classes) != target:
            raise PreconditionError(
                "unramified subgroup size disagrees with the 2-torsion count")
        return LocalImage(ring, classes, target, True, which)

    curve = MarkedCurve(c, which)
    cring = c.ring
    span = {0: SquareClass(Lv, Lv.one())}  # by vector

    def adjoin(el):
        """Add the class of el; one outside the span doubles it."""
        cls = SquareClass(Lv, el.map_ring(ring, ring.from_fraction))
        if cls.vector not in span:
            span.update({v ^ cls.vector: g * cls
                         for v, g in list(span.items())})

    adjoin(neg_gamma(L))
    if ring.is_real:
        h = curve.hpoly().map_ring(QQ, Fraction)
        candidates = _real_components(h, Lv.real_roots if which == 1
                                      else real_roots_exact(h))
    else:
        candidates = _qp_candidates(ring.p, budget, seed)

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


# ---------------------------------------------------------------------------
# comparison


def _plain(x):
    """A result with every digit, precision and place spelled out."""
    if isinstance(x, FormInvariants):
        return (x.rank, repr(x.disc), x.hasse, x.signature, repr(x.place))
    if isinstance(x, LocalImage):
        return (x.serialize(), repr(x.place), x.which,
                [(g.vector, repr(g.rep)) for g in x.classes])
    if isinstance(x, list):
        return [repr(v) for v in x]
    return x


def _outcome(fn, *args):
    """The plain result, or the exception's type and message."""
    try:
        return _plain(fn(*args))
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


FORM_RINGS = [GF(2), GF(3), GF(5), GF(7), GF(11), GF(13), RR,
              Qp(3, 20), Qp(5, 20), Qp(7, 20), Qp(2, 24)]


def _seeded_forms(ring, rng):
    """Twelve symmetric entry tables per rank 1-6, one in four with a
    repeated row and column; at Q_p the entries carry powers of p."""
    p = getattr(ring, "p", None)
    padic = hasattr(ring, "prec")
    for n in range(1, 7):
        for k in range(12):
            S = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    x = rng.randint(-6, 6)
                    if padic:
                        x *= p ** rng.randint(0, 2)
                    S[i][j] = S[j][i] = x
            if n > 1 and k % 4 == 0:
                S[-1] = S[0][:]
                for row in S:
                    row[-1] = row[0]
            yield S


def _form(ring, S):
    return GramForm(Mat(ring, [[ring.from_fraction(Fraction(x)) for x in row]
                               for row in S]))


@pytest.mark.parametrize("ring", FORM_RINGS, ids=lambda k: k.tag)
def test_forms_answer_as_before(ring):
    """form_invariants, is_split and isotropic_vector at the form's own
    base, on a fresh form per call so that no cached diagonal is shared."""
    rng = random.Random(SEED + 40)
    for S in _seeded_forms(ring, rng):
        for new, old in ((quadforms.form_invariants, form_invariants),
                         (quadforms.is_split, is_split),
                         (quadforms.isotropic_vector, isotropic_vector)):
            got = _outcome(new, _form(ring, S))
            assert got == _outcome(old, _form(ring, S)), (new.__name__, S)


def test_forms_cover_every_outcome():
    """The seeded forms of test_forms_answer_as_before reach every answer
    and every refusal."""
    outcomes = set()
    for ring in FORM_RINGS:
        rng = random.Random(SEED + 40)
        for S in _seeded_forms(ring, rng):
            outcomes.add(_outcome(quadforms.is_split, _form(ring, S)))
            iso = _outcome(quadforms.isotropic_vector, _form(ring, S))
            outcomes.add(iso if iso is None or isinstance(iso, tuple)
                         else "vector")
    assert {True, False, None, "vector",
            (UsageError, "characteristic 2 not supported"),
            (UsageError, "no isotropic search over R"),
            (UsageError, "no isotropic search over Q_2 (invariants only)"),
            (PreconditionError, "degenerate form: nonzero radical"),
            (PreconditionError, "characteristic 2 not supported")
            } <= outcomes


def test_global_forms_refused_as_before():
    S = [[1, 2, 0], [2, 3, 1], [0, 1, 5]]
    for new, old in ((quadforms.form_invariants, form_invariants),
                     (quadforms.is_split, is_split),
                     (quadforms.isotropic_vector, isotropic_vector)):
        assert _outcome(new, _form(QQ, S)) == _outcome(old, _form(QQ, S))


CURVE_PLACES = [GF(5), GF(7), Qp(3, 20), Qp(5, 20), Qp(7, 20), Qp(2, 20), RR]


def _seeded_curves(place, rng):
    """Twelve rational invariant tuples at the place, p in e for every
    second one at odd p (bad reduction on curve 2); then three over the
    place itself."""
    odd_p = hasattr(place, "prec") and place.p != 2
    for k in range(12):
        c = random_rs_invariants(QQ, rng, span=7)
        if odd_p and k % 2:
            c = Invariants(QQ, c.a, c.e * place.p)
        yield c, place
    for _ in range(3):
        yield random_rs_invariants(place, rng), None


@pytest.mark.parametrize("place", CURVE_PLACES, ids=lambda k: k.tag)
def test_local_images_as_before(place):
    """Both curves, with no sampling and with 300 candidates, which both
    sides draw alike."""
    rng = random.Random(SEED + 41)
    answered = []
    for c, at in _seeded_curves(place, rng):
        for which in (1, 2):
            for budget in (0, 300):
                got = _outcome(descent.local_image, c, at, which, budget)
                assert got == _outcome(local_image, c, at, which, budget), \
                    (c, which, budget)
                if isinstance(got[0], dict):
                    answered.append(_good_reduction(c, place, which))
    assert len(answered) >= 12, answered
    if hasattr(place, "prec") and place.p != 2:  # both strategies ran
        assert set(answered) == {True, False}


def test_no_change_of_place_from_a_local_base():
    """Invariants over GF(7) at Q_7 are refused, by stabilizer_info, as
    the old _good_reduction refused them."""
    c = Invariants(GF(7), (1, 2), 3)
    for fn in (descent.local_image, local_image):
        assert _outcome(fn, c, Qp(7, 20), 1) == (
            UsageError, "base change requires rational invariants")


def test_good_reduction_at_odd_p_as_before():
    """Where the ladder asks it, at odd p, for invariants over Q or over
    Q_p itself, _good_reduction decides as before."""
    rng = random.Random(SEED + 42)
    answers = set()
    for _ in range(300):
        ring = Qp(rng.choice((3, 5, 7, 11)), 20)
        p = ring.p
        a = tuple(Fraction(rng.randint(-12, 12), rng.choice((1, 1, p)))
                  for _ in range(2))
        e = Fraction(rng.randint(0, 12)) * rng.choice((1, 1, p))
        c = Invariants(QQ, a, e)
        for inv in (c, Invariants(ring, tuple(map(ring.from_fraction, a)),
                                  ring.from_fraction(e))):
            for which in (1, 2):
                got = _outcome(descent._good_reduction, inv, ring, which)
                assert got == _outcome(_good_reduction, inv, ring, which)
                answers.add(got)
    assert answers == {True, False}


@pytest.mark.parametrize("place", [RR, Qp(2, 20), GF(7)], ids=lambda k: k.tag)
def test_ladder_asks_good_reduction_only_at_odd_p(place, monkeypatch):
    calls = count_calls(monkeypatch, descent, "_good_reduction")
    c = Invariants(QQ, (Fraction(0), Fraction(-1)), Fraction(1))
    for which in (1, 2):
        descent.local_image(c, place, which, 300)
    assert not calls
    descent.local_image(c, Qp(7, 20), 1)
    assert len(calls) == 1
