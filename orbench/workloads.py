"""The four benchmark workloads: seeded inputs, one operation, output checks
and input-property counts for each.

Every workload hands out its operations in rounds. A round always has the
same composition (the seed picks the inputs and their order), so a run that
completes whole rounds measures the same mix of work for every seed. The
program's functions are looked up through their modules at call time, so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import io
import json
import random
import re
from fractions import Fraction

from orbitlab import (census, cli, descent, etale, lattices, orbits, poly,
                      rings, thetarep)
from orbitlab.errors import PrecisionError
from orbitlab.linalg import Mat

ODD_PRIMES_TO_97 = [p for p in range(3, 98)
                    if all(p % d for d in range(2, int(p ** 0.5) + 1))]


def cubic_disc(a1: int, a2: int, e: int) -> int:
    """Discriminant of x^3 + a1 x^2 + a2 x + e^2, by the integer formula."""
    a3 = e * e
    return (18 * a1 * a2 * a3 - 4 * a1 ** 3 * a3 + a1 * a1 * a2 * a2
            - 4 * a2 ** 3 - 27 * a3 * a3)


def _is_qr(x: int, p: int) -> bool:
    return pow(x % p, (p - 1) // 2, p) == 1


class Declined(str):
    """A failure in which the program declined to answer (PrecisionError)
    instead of answering: it counts as failed, but not as a wrong output."""


class Workload:
    """Seeded rounds of ops. ROUND_S is the seconds a round takes on the
    reference host; CALIBRATION names the units of work the benchmark times
    alongside (see child.py), and unit(op) the one an op is scaled by."""

    CALIBRATION = ("python",)

    def unit(self, op) -> str:
        return self.CALIBRATION[0]


def _round_rng(name: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{k}")


def _q_invariants(a1, a2, e):
    return thetarep.Invariants(rings.QQ, (Fraction(a1), Fraction(a2)),
                               Fraction(e))


def _ring_invariants(ring, a1, a2, e):
    return thetarep.Invariants(
        ring, (ring.from_fraction(Fraction(a1)),
               ring.from_fraction(Fraction(a2))),
        ring.from_fraction(Fraction(e)))


# ---------------------------------------------------------------------------
# heights_q: global square classes over Q


class HeightsQ(Workload):
    """One op is the record height_enumerate(X, 3, flags=True) writes for a
    tuple: the discriminant over Q, then distinguished_coincide when the
    tuple is regular semisimple."""

    name = "heights_q"
    ROUND_S = 0.39
    # per round: tuples drawn uniformly from the X = 2 and X = 3 boxes, and
    # tuples built so that -gamma is a global square (a uniform draw holds
    # only 2-5% "yes" answers, and that path is the one item 2 certifies)
    PER_BOX = 9
    CONSTRUCTED = 2
    CHECK_PRIMES = 2

    def __init__(self, seed: int):
        self.seed = seed

    @staticmethod
    def _box_draw(rng, X):
        return tuple(rng.randint(-b + 1, b - 1)
                     for b in census.height_box_bounds(X, 3))

    @staticmethod
    def _square_draw(rng, span=3):
        """f(x) = prod(x + theta_i^2) for the roots theta_i of a random
        monic integer cubic g, and e = +-g(0): then -gamma = theta^2."""
        while True:
            b1, b2, b3 = (rng.randint(-span, span) for _ in range(3))
            a1, a2, e = b1 * b1 - 2 * b2, b2 * b2 - 2 * b1 * b3, b3
            e *= rng.choice((1, -1))
            if e != 0 and cubic_disc(a1, a2, e) != 0:
                return a1, a2, e

    def warmup(self):
        # outside both boxes (|a1| >= 9), one of them built as a square
        for tup in ((9, 0, 1), (9, 20, 3), (10, 9, 0)):
            self.run(("warmup", tup))

    def round(self, k: int):
        rng = _round_rng(self.name, self.seed, k)
        ops = [("box2", self._box_draw(rng, 2)) for _ in range(self.PER_BOX)]
        ops += [("box3", self._box_draw(rng, 3))
                for _ in range(self.PER_BOX)]
        ops += [("square", self._square_draw(rng))
                for _ in range(self.CONSTRUCTED)]
        rng.shuffle(ops)
        return ops

    def run(self, op):
        a1, a2, e = op[1]
        c = _q_invariants(a1, a2, e)
        rs = e != 0 and not rings.QQ.is_zero(poly.discriminant(c.fpoly()))
        dc = orbits.distinguished_coincide(c) if rs else None
        return rs, dc

    def check(self, op, out):
        kind, (a1, a2, e) = op
        rs, dc = out
        if rs != (e != 0 and cubic_disc(a1, a2, e) != 0):
            return "regular-semisimple flag disagrees with the integer disc"
        if kind == "square" and dc is not True:
            return "constructed square tuple answered False"
        if dc:
            d = cubic_disc(a1, a2, e)
            good = [p for p in ODD_PRIMES_TO_97 if d % p and e % p]
            for p in good[:self.CHECK_PRIMES]:
                cp = _ring_invariants(rings.GF(p), a1, a2, e)
                if not orbits.distinguished_coincide(cp):
                    return f"True over Q but False over GF({p})"
        return None

    def properties(self, records):
        rs = [out[0] for _, out, _ in records if out is not None]
        yes = [out[1] for _, out, _ in records if out is not None and out[0]]
        size = max(max(abs(x) for x in op[1]) for op, _, _ in records)
        return {
            "input.heights_q.rs_share": _share(sum(rs), len(rs)),
            "input.heights_q.yes_share": _share(sum(yes), len(yes)),
            "input.heights_q.max_coeff": size,
        }


# ---------------------------------------------------------------------------
# fp_sweep: the vectorised finite-field census


class FpSweep(Workload):
    """One op is one census.fp_sweep(p, n) call. A round sweeps every odd
    prime p <= 61 exhaustively at n = 3 and samples n = 5 at p = 3 and 5.

    Primes 67-97 are left out: their sweeps take 0.7-3.7 s each, so a run
    would hold one round, and each op's time one reading of a host whose
    speed drifts within seconds. At p <= 61 a run holds about five rounds."""

    name = "fp_sweep"
    ROUND_S = 2.3
    # the n = 3 sweep is numpy array arithmetic, the sampled one Python
    CALIBRATION = ("numpy", "python")
    PRIMES = [p for p in ODD_PRIMES_TO_97 if p <= 61]
    SAMPLED = (3, 5)
    SAMPLE_SIZE = 1000
    ORACLE_PRIMES = (3, 5, 7)

    def __init__(self, seed: int):
        self.seed = seed
        self._oracle = {}

    def warmup(self):
        # n = 7 is outside the timed set and runs the sampled path
        self.run((3, 7, self.seed, 50))

    def round(self, k: int):
        rng = _round_rng(self.name, self.seed, k)
        ops = [(p, 3, self.seed, None) for p in self.PRIMES]
        ops += [(p, 5, rng.randrange(2 ** 32), self.SAMPLE_SIZE)
                for p in self.SAMPLED]
        rng.shuffle(ops)
        return ops

    def unit(self, op) -> str:
        return "numpy" if op[1] == 3 else "python"

    def run(self, op):
        p, n, seed, size = op
        if size is None:
            return census.fp_sweep(p, n, seed=seed)
        return census.fp_sweep(p, n, seed=seed, sample_size=size)

    def check(self, op, rep):
        p, n, seed, size = op
        counts, dens = rep.counts, rep.densities
        exhaustive = n == 3
        den = p ** n if exhaustive else size
        if (rep.p, rep.n, rep.total, rep.exhaustive) != (p, n, p ** n,
                                                         exhaustive):
            return "report header does not match the request"
        if rep.sample_size != den or counts["total"] != den:
            return "sample size does not match"
        rs = counts["regular_semisimple"]
        if counts["irreducible"] + counts["reducible_rs"] != rs:
            return "irreducible + reducible_rs != regular_semisimple"
        expect = {
            "reducible": counts["reducible_rs"],
            "nontrivial_stabilizer": counts["nontrivial_stabilizer"],
            "irreducible": counts["irreducible"],
            "smallonetwo": counts["smallonetwo"],
            "distinguished_or_non_rs":
                counts["distinguished_coincide"] + den - rs,
        }
        if dens != {k: Fraction(v, den) for k, v in expect.items()}:
            return "densities are not counts / total"
        if exhaustive and p in self.ORACLE_PRIMES:
            if p not in self._oracle:
                self._oracle[p] = self._factor_counts(p)
            if counts != self._oracle[p]:
                return "counts differ from the per-tuple factor oracle"
        return None

    @staticmethod
    def _factor_counts(p: int) -> dict:
        """The n = 3 counts by factoring every tuple over GF(p)."""
        F = rings.GF(p)
        out = dict.fromkeys(
            ("regular_semisimple", "irreducible", "reducible_rs",
             "nontrivial_stabilizer", "distinguished_coincide", "e_zero",
             "smallonetwo"), 0)
        out["total"] = p ** 3
        for a1 in range(p):
            for a2 in range(p):
                for e in range(p):
                    if e == 0:
                        out["e_zero"] += 1
                        roots = {r for r in range(p)
                                 if (r * r + a1 * r + a2) % p == 0}
                        if a2 % p and len(roots) == 2 and _is_qr(a2, p):
                            out["smallonetwo"] += 1
                        continue
                    if cubic_disc(a1, a2, e) % p == 0:
                        continue
                    out["regular_semisimple"] += 1
                    f = _ring_invariants(F, a1, a2, e).fpoly()
                    parts = poly.factor(f)
                    key = "irreducible" if len(parts) == 1 else "reducible_rs"
                    out[key] += 1
                    if len(parts) > 1:
                        out["nontrivial_stabilizer"] += 1
                    # N(-gamma) in F_p[x]/(g) is g(0)
                    if all(_is_qr(int(g.coeff(0)), p) for g, _ in parts):
                        out["distinguished_coincide"] += 1
        return out

    def properties(self, records):
        exhaustive = sum(op[0] ** 3 for op, _, _ in records if op[1] == 3)
        sampled = sum(op[3] for op, _, _ in records if op[1] != 3)
        return {"input.fp_sweep.exhaustive_tuples": exhaustive,
                "input.fp_sweep.sampled_tuples": sampled}


# ---------------------------------------------------------------------------
# fp_orbits: the brute-force orbit oracle against the class side over F_p


class FpOrbits(Workload):
    """One op is one regular semisimple fiber at p in {3, 5}: brute-force
    orbits, the in-kernel class count, witnesses on every representative,
    and distinguished_coincide. A round visits all 14 + 84 fibers."""

    name = "fp_orbits"
    ROUND_S = 2.4
    PRIMES = (3, 5)

    def __init__(self, seed: int):
        self.seed = seed
        self.fibers = [(p, a1, a2, e) for p in self.PRIMES
                       for a1 in range(p) for a2 in range(p)
                       for e in range(1, p) if cubic_disc(a1, a2, e) % p]
        self._factors = {}

    def warmup(self):
        # builds so3_group(p) and the p^9 fiber table on a non-rs fiber
        for p in self.PRIMES:
            a1, a2, e = next((a1, a2, e) for a1 in range(p)
                             for a2 in range(p) for e in range(1, p)
                             if cubic_disc(a1, a2, e) % p == 0)
            census.so3_group(p)
            census.bruteforce_orbits(
                p, 3, _ring_invariants(rings.GF(p), a1, a2, e))

    def round(self, k: int):
        ops = list(self.fibers)
        _round_rng(self.name, self.seed, k).shuffle(ops)
        return ops

    def run(self, op):
        p, a1, a2, e = op
        F = rings.GF(p)
        c = _ring_invariants(F, a1, a2, e)
        count, stabs, reps = census.bruteforce_orbits(p, 3, c)
        L = orbits.algebra_of(c)
        inker = sum(1 for cl in etale.norm_one_classes(L)
                    if orbits.delta_map(c, cl.rep)[2])
        d1, d2 = [], []
        for k, rep in enumerate(reps):
            T = thetarep.lift(Mat(F, [[F.from_int(int(v)) for v in row]
                                      for row in rep]))
            if thetarep.distinguished_witness(T, 1):
                d1.append(k)
            if thetarep.distinguished_witness(T, 2):
                d2.append(k)
        return count, stabs, inker, d1, d2, orbits.distinguished_coincide(c)

    def check(self, op, out):
        count, stabs, inker, d1, d2, dc = out
        if op not in self._factors:
            p, a1, a2, e = op
            f = _ring_invariants(rings.GF(p), a1, a2, e).fpoly()
            self._factors[op] = len(poly.factor(f))
        expected = 2 ** (self._factors[op] - 1)
        if count != expected or inker != expected:
            return "orbit count != 2^(r-1) or != in-kernel class count"
        if len(stabs) != count or any(s != expected for s in stabs):
            return "a stabilizer order != 2^(r-1)"
        if len(d1) != 1 or len(d2) != 1:
            return "not exactly one 1- and one 2-distinguished orbit"
        if (d1 == d2) != dc:
            return "coincidence disagrees with distinguished_coincide"
        return None

    def properties(self, records):
        return {}


# ---------------------------------------------------------------------------
# local_queries: per-curve questions at local places, as a CLI user asks them


_PADIC = re.compile(r"(\d+)\^(-?\d+) \* (\d+) mod \d+\^(\d+)$")


def _scalar_matches(text: str, base: str, x: int) -> bool:
    """Whether a CLI scalar string over the base denotes the integer x."""
    if base == "Q":
        return Fraction(text) == x
    if base.startswith("F:"):
        return int(text) == x % int(base[2:])
    m = _PADIC.match(text)
    if m is None:  # "0" or "O(p^k)": zero at the printed precision
        return x == 0 or text.startswith("O(")
    p, v, u, prec = (int(g) for g in m.groups())
    if x == 0:
        return False
    xv = 0
    while x % p == 0:
        x //= p
        xv += 1
    return xv == v and (x - u) % p ** prec == 0


class LocalQueries(Workload):
    """One op is one in-process cli.dispatch call with its JSON captured,
    or the integral-lattice pipeline, which has no CLI verb."""

    name = "local_queries"
    ROUND_S = 0.214
    SPAN = 9
    FAMILY_PRIMES = (5, 7, 11)
    # which place kind each query reads; every round has the same mix
    KINDS = ("F_p", "Qp_good", "Qp_bad", "Q2", "R", "Q")

    def __init__(self, seed: int):
        self.seed = seed
        self.family = {}

    def _curve(self, rng, ok=lambda a1, a2, e, d: True, e_step=1):
        while True:
            a1 = rng.randint(-self.SPAN, self.SPAN)
            a2 = rng.randint(-self.SPAN, self.SPAN)
            e = e_step * rng.randint(1, 3 if e_step > 1 else self.SPAN)
            d = cubic_disc(a1, a2, e)
            if d and ok(a1, a2, e, d):
                return a1, a2, e

    @staticmethod
    def _good_at(p):
        return lambda a1, a2, e, d: d % p and e % p

    @staticmethod
    def _odd_disc(a1, a2, e, d):
        # every factor of f unramified at 2; e is drawn over its whole range
        return d % 2

    @staticmethod
    def _fe(a1, a2, e):
        return ["--f", f"1,{a1},{a2},{e * e}", "--e", str(e)]

    def _descent(self, kind, curve, place, which):
        return ("cli", kind, ["descent", "local", *self._fe(*curve),
                              "--place", str(place), "--which", str(which)])

    def _construct(self, kind, curve, base, cls):
        argv = ["orbit", "construct", *self._fe(*curve), "--base", base]
        if cls is not None:
            argv.append(f"--class={cls}")
        return ("cli", kind, argv)

    def warmup(self):
        for q in self.FAMILY_PRIMES:
            self.family[q] = [
                (int(c.a[0]), int(c.a[1]), int(c.e))
                for c in census.diverges_family(q, count=30, seed=self.seed)]
        # one query of each type on curves outside the timed set (|a2| = 10)
        c, bad = (0, -10, 1), (0, -10, 3)
        member = census.diverges_family(13, count=1, seed=self.seed)[0]
        warm = [self._descent("Qp_good", c, 3, 1),
                self._descent("Qp_bad", bad, 3, 2),
                self._descent("Q2", c, 2, 2), self._descent("R", c, "R", 1),
                ("cli", "Qp_bad", ["descent", "sel12",
                                   *self._fe(int(member.a[0]),
                                             int(member.a[1]),
                                             int(member.e)),
                                   "--place", "13"]),
                self._construct("Q", c, "Q", "-gamma"),
                self._construct("Qp_good", c, "Qp:7", None),
                self._construct("F_p", c, "F:5", "-gamma"),
                ("cli", "Q", ["orbit", "stabilizer", *self._fe(*c)]),
                ("lattice", "Qp_good", (3, *c))]
        for op in warm:
            self.run(op)

    def round(self, k: int):
        rng = _round_rng(self.name, self.seed, k)
        p = rng.choice((3, 5, 7, 11, 13))
        pb = rng.choice((3, 5, 7))
        q = self.FAMILY_PRIMES[k % len(self.FAMILY_PRIMES)]
        ops = [
            self._descent("Qp_good", self._curve(rng, self._good_at(p)), p, 1),
            self._descent("Qp_good", self._curve(rng, self._good_at(p)), p, 2),
            # p | e with a unit disc: curve 2 has bad reduction at p
            self._descent("Qp_bad", self._curve(
                rng, lambda a1, a2, e, d: d % pb, e_step=pb), pb, 2),
            self._descent("Q2", self._curve(rng, self._odd_disc), 2, 1),
            self._descent("Q2", self._curve(rng, self._odd_disc), 2, 2),
            self._descent("R", self._curve(rng), "R", 1),
            self._descent("R", self._curve(rng), "R", 2),
            ("cli", "Qp_bad", ["descent", "sel12",
                               *self._fe(*rng.choice(self.family[q])),
                               "--place", str(q)]),
            self._construct("Q", self._curve(rng), "Q", None),
            self._construct("Q", self._curve(rng), "Q", "-gamma"),
            self._construct("Qp_good", self._curve(rng, self._good_at(7)),
                            "Qp:7", None),
            self._construct("Qp_good", self._curve(rng, self._good_at(7)),
                            "Qp:7", "-gamma"),
            self._construct("F_p", self._curve(rng, self._good_at(5)),
                            "F:5", None),
            self._construct("F_p", self._curve(rng, self._good_at(5)),
                            "F:5", "-gamma"),
            ("cli", "Q", ["orbit", "stabilizer",
                          *self._fe(*self._curve(rng))]),
        ]
        lp = rng.choice((3, 5, 7))
        ops.append(("lattice", "Qp_good",
                    (lp, *self._curve(rng, self._good_at(lp)))))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        verb, _, arg = op
        if verb == "cli":
            buf = io.StringIO()
            code = cli.dispatch(arg, buf)
            return code, buf.getvalue()
        p, a1, a2, e = arg
        K0 = rings.Qp(p, 20)
        prec = lattices.working_precision(_ring_invariants(K0, a1, a2, e)) + 8
        K = rings.Qp(p, prec)
        c = _ring_invariants(K, a1, a2, e)
        L = orbits.algebra_of(c)
        i1 = lattices.LatticeBasis(Mat.identity(K, 3), p, prec, algebra=L)
        ok, report = lattices.ideal_triple_verify(
            lattices.integral_representative(c, L.one(), p, i1))
        return ok, len(report)

    def check(self, op, out):
        verb, _, argv = op
        if verb == "lattice":
            ok, nconds = out
            return None if ok and nconds == 6 else "ideal triple failed"
        code, text = out
        if code == PrecisionError.code:
            return Declined(f"exit code {code}: {text.strip()}")
        if code != 0:
            return f"exit code {code}: {text.strip()}"
        res = json.loads(text.splitlines()[-1])
        opts = dict(zip(argv[2::2], argv[3::2]))
        _, a1, a2, _ = (int(x) for x in opts["--f"].split(","))
        e = int(opts["--e"])
        if argv[:2] == ["descent", "local"]:
            if res["complete"] and len(res["classes"]) != res["target"]:
                return "complete image with len(classes) != target"
        elif argv[:2] == ["descent", "sel12"]:
            q = int(opts["--place"])
            im1 = descent.local_image(_q_invariants(a1, a2, e),
                                      rings.Qp(q, rings.DEFAULT_PRECISION), 1)
            image = set(im1.serialize()["classes"])
            sel = set(res["classes"])
            if not sel < image:
                return "sel12 classes are not a strict subset of the image"
        elif argv[:2] == ["orbit", "construct"]:
            return self._check_construct(argv, opts, res, a1, a2, e)
        elif argv[:2] == ["orbit", "stabilizer"]:
            degs = res["factor_degrees"]
            if (sum(degs) != 3 or res["order"] != 2 ** (len(degs) - 1)
                    or res["order_closure"] != 4):
                return "stabilizer data inconsistent"
        return None

    @staticmethod
    def _check_construct(argv, opts, res, a1, a2, e):
        base = opts["--base"]
        inv = res["invariants"]
        if not all(_scalar_matches(t, base, x)
                   for t, x in zip(inv["a"], (a1, a2))):
            return "constructed invariants differ from the input"
        if not (_scalar_matches(inv["e"], base, e)
                or _scalar_matches(inv["e"], base, -e)):
            return "constructed e differs from the input up to sign"
        if "recovered_class" in res:
            ring = cli.parse_base(base)
            L = orbits.algebra_of(_ring_invariants(ring, a1, a2, e))
            target = L.one()
            if argv[-1] == "--class=-gamma":
                target = L.mul(L.gamma(), L.scalar(ring.neg(ring.one)))
            want = str(etale.square_class(L, target).labels)
            if res["recovered_class"] != want:
                return "recovered class differs from the requested class"
        return None

    def properties(self, records):
        n = len(records)
        return {f"input.local_queries.{kind}_share":
                _share(sum(1 for op, _, _ in records if op[1] == kind), n)
                for kind in self.KINDS}


def _share(k: int, n: int) -> float:
    return k / n if n else 0.0


WORKLOADS = {w.name: w for w in (HeightsQ, FpSweep, FpOrbits, LocalQueries)}
