"""Command-line front end: machine-readable JSON access to invariants,
orbit construction, local descent images, lattice self-dualization, census
sweeps, and height-window enumeration.

Exit codes: 0 success, 2 usage, 3 precondition, 4 precision, 5 budget.
ORBITLAB_SEED overrides the default sampling seed of descent and census.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import DEFAULT_SEED
from .descent import local_image, sel12_local
from .errors import OrbitlabError, UsageError
from .etale import norm_one_classes
from .lattices import LatticeBasis, cassels_diagonalize, self_dualize
from .linalg import Mat
from .orbits import (algebra_of, alpha1_construct, neg_gamma,
                     orbit_from_class, recompute_class, stabilizer_info)
from .quadforms import GramForm
from .rings import GF, QQ, RR, DEFAULT_PRECISION, Qp, is_prime
from .thetarep import Invariants, invariants_of, lift


# ---------------------------------------------------------------------------
# parsing helpers


def _seed_default() -> int:
    env = os.environ.get("ORBITLAB_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env, 0)
    except ValueError as exc:
        raise UsageError(f"ORBITLAB_SEED is not an integer: {env!r}") from exc


def parse_base(text: str):
    """--base {q | Q | Qp:<p>:<prec> | R | F:<q>} -> ring."""
    if text in ("q", "Q"):
        return QQ
    if text == "R":
        return RR
    if text.startswith("Qp:"):
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise UsageError(f"malformed p-adic base: {text!r}")
        p = _parse_prime(parts[1], "p")
        prec = int(parts[2]) if len(parts) == 3 else DEFAULT_PRECISION
        if prec <= 0:
            raise UsageError("precision must be positive")
        return Qp(p, prec)
    if text.startswith("F:"):
        q = int(text[2:])
        if not is_prime(q):
            raise UsageError(
                f"F:{q}: only prime fields are supported (q prime)")
        return GF(q)
    raise UsageError(f"unknown base {text!r}; expected q, Q, Qp:<p>[:<prec>],"
                     " R, or F:<q>")


def _parse_prime(text: str, name: str) -> int:
    try:
        p = int(text)
    except ValueError as exc:
        raise UsageError(f"{name} must be an integer") from exc
    if not is_prime(p):
        raise UsageError(f"{name} = {p} is not prime")
    return p


def _parse_fractions(text: str):
    try:
        return [Fraction(part) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed rational list: {text!r}") from exc


def parse_invariants(fcoeffs: str, etext: str, ring) -> Invariants:
    """--f lists the monic f descending; --e gives e with e^2 = f(0)."""
    coeffs = _parse_fractions(fcoeffs)
    e = _parse_fractions(etext)
    if len(e) != 1:
        raise UsageError("--e takes a single rational")
    e = e[0]
    if len(coeffs) < 4 or len(coeffs) % 2 != 0:
        raise UsageError("--f must list the n+1 coefficients of a monic"
                         " odd-degree polynomial, descending")
    if coeffs[0] != 1:
        raise UsageError("f must be monic")
    if coeffs[-1] != e * e:
        raise UsageError("constant term of f must equal e^2")
    a = tuple(ring.from_fraction(x) for x in coeffs[1:-1])
    return Invariants(ring, a, ring.from_fraction(e))


def _matrix_from_json(data, ring) -> Mat:
    if not (isinstance(data, list) and data
            and all(isinstance(r, list) and len(r) == len(data)
                    for r in data)):
        raise UsageError("matrix file must hold a square array of rationals")
    try:
        rows = [[ring.from_fraction(Fraction(str(x))) for x in row]
                for row in data]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError("matrix entries must be rationals") from exc
    return Mat(ring, rows)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc


def _scalar_strs(mat: Mat):
    ring = mat.ring
    return [[ring.scalar_str(x) for x in row] for row in mat.rows]


def _invariants_json(c: Invariants) -> dict:
    ring = c.ring
    return {"a": [ring.scalar_str(a) for a in c.a],
            "e": ring.scalar_str(c.e), "n": c.n,
            "regular_semisimple": c.is_regular_semisimple()}


def _emit(obj, out) -> None:
    out.write(json.dumps(obj, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# verbs


def _cmd_invariants(args, out) -> int:
    ring = parse_base(args.base)
    A = _matrix_from_json(_load_json(args.A), ring)
    if A.nrows % 2 == 0:
        raise UsageError("matrix size must be odd")
    c = invariants_of(lift(A))
    _emit(_invariants_json(c), out)
    return 0


def _find_class(L, labels_text: str):
    wanted = labels_text.strip()
    classes = norm_one_classes(L)
    for cls in classes:
        if str(cls.labels) == wanted or repr(cls.labels) == wanted:
            return cls
    raise UsageError(
        f"--class {wanted!r} is not a norm-one square class; available: "
        + "; ".join(sorted(str(c.labels) for c in classes)))


def _cmd_orbit(args, out) -> int:
    ring = parse_base(args.base)
    c = parse_invariants(args.f, args.e, ring)
    if args.action == "stabilizer":
        info = stabilizer_info(c)
        _emit({"factor_degrees": list(info.factor_degrees),
               "order": info.order, "order_closure": info.order_closure},
              out)
        return 0
    if args.cls is None:
        rep = alpha1_construct(c)
        label = "1"
    else:
        L = algebra_of(c)
        if args.cls == "-gamma":
            nu = neg_gamma(L)
        else:
            nu = _find_class(L, args.cls).rep
        rep = orbit_from_class(c, nu)
        label = args.cls
    # over an exact base this shares c's algebra and disc(f); over Q_p the
    # read-back builds a second algebra and computes disc(f) again
    recovered = recompute_class(rep)
    result = {"A": _scalar_strs(rep.A), "class": label,
              "invariants": _invariants_json(rep.invariants)}
    if recovered.labels is not None:
        result["recovered_class"] = str(recovered.labels)
    _emit(result, out)
    return 0


def _parse_place(text: str):
    if text == "R":
        return RR
    p = _parse_prime(text, "place")
    return Qp(p, DEFAULT_PRECISION)


def _cmd_descent(args, out) -> int:
    ring = parse_base(args.base)
    c = parse_invariants(args.f, args.e, ring)
    place = None if args.place is None else _parse_place(args.place)
    if not ring.is_global:  # a local base is its own place
        if place not in (None, ring):
            raise UsageError(f"--place {args.place} is not the place of "
                             f"the base {args.base}")
        place = None
    if args.action == "sel12":
        image = sel12_local(c, place, budget=args.budget, seed=args.seed)
    else:
        image = local_image(c, place, args.which,
                            budget=args.budget, seed=args.seed)
    _emit(image.serialize(), out)
    return 0


def _cmd_lattice(args, out) -> int:
    p = _parse_prime(str(args.p), "p")
    data = _load_json(args.gram)
    prec = args.prec or (DEFAULT_PRECISION + 8)
    ring = Qp(p, prec)
    gram = _matrix_from_json(data, ring)
    if not gram.is_symmetric():
        raise UsageError("Gram matrix must be symmetric")
    form = GramForm(gram)
    if args.action == "cassels":
        P, blocks = cassels_diagonalize(form, p)
        _emit({"p": p,
               "basis": _scalar_strs(P),
               "blocks": [{"type": b["type"], "val": b["val"],
                           "unit": (ring.scalar_str(b["unit"])
                                    if b["unit"] is not None else None)}
                          for b in blocks]}, out)
        return 0
    lat = LatticeBasis(Mat.identity(ring, form.rank), p, prec)
    refined = self_dualize(lat, form, p)
    new_gram = [[form.bilinear(refined.basis.col(i), refined.basis.col(j))
                 for j in range(form.rank)] for i in range(form.rank)]
    _emit({"p": p,
           "basis": _scalar_strs(refined.basis),
           "gram": [[ring.scalar_str(x) for x in row] for row in new_gram]},
          out)
    return 0


def _density_csv(report, out) -> None:
    out.write("p,n,lemma,numerator,denominator\n")
    for key, val in sorted(report.densities.items()):
        out.write(f"{report.p},{report.n},{key},"
                  f"{val.numerator},{val.denominator}\n")


def _cmd_census(args, out) -> int:
    from . import census as census_mod  # numpy, which no other verb needs
    seed = args.seed
    if args.action == "sweep":
        report = census_mod.fp_sweep(args.p, args.n, seed=seed)
        if args.format == "csv":
            _density_csv(report, out)
            return 0
        summary = report.serialize()
        if args.lemma:
            if args.lemma not in report.densities:
                raise UsageError(
                    f"unknown lemma id {args.lemma!r}; one of "
                    + ", ".join(sorted(report.densities)))
            val = report.densities[args.lemma]
            summary = {"p": report.p, "n": report.n, "lemma": args.lemma,
                       "density": [val.numerator, val.denominator],
                       "exhaustive": report.exhaustive, "seed": seed}
        _emit(summary, out)
        return 0
    if args.action == "orbits":
        ring = GF(args.p)
        c = parse_invariants(args.f, args.e, ring)
        count, stabs, _ = census_mod.bruteforce_orbits(args.p, args.n, c)
        _emit({"p": args.p, "orbits": count,
               "stabilizer_orders": sorted(stabs)}, out)
        return 0
    if args.action == "group-order":
        _emit({"p": args.p, "n": args.n,
               "order": census_mod.group_order(args.p, args.n)}, out)
        return 0
    if args.action == "family":
        members = census_mod.diverges_family(args.p, n=args.n,
                                             count=args.count, seed=seed)
        for c in members:
            _emit(_invariants_json(c), out)
        _emit({"count": len(members), "p": args.p, "seed": seed}, out)
        return 0
    raise UsageError(f"unknown census action {args.action!r}")


def _cmd_heights(args, out) -> int:
    from . import census as census_mod
    X = args.X
    if X <= 0:
        raise UsageError("--X must be a positive integer")
    count = 0
    for rec in census_mod.height_enumerate(X, args.n, flags=args.flags):
        count += 1
        _emit(rec, out)
    expected = census_mod.height_box_count(X, args.n)
    _emit({"X": X, "box_count": expected, "count": count, "n": args.n}, out)
    return 0


# ---------------------------------------------------------------------------
# dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    top = _Parser(prog="orbitlab", description=__doc__)
    sub = top.add_subparsers(dest="verb", required=True)

    def add_base(p):
        p.add_argument("--base", default="Q",
                       help="q | Q | Qp:<p>[:<prec>] | R | F:<q>")

    def add_inv(p):
        p.add_argument("--f", required=True,
                       help="monic f coefficients, descending, comma-sep")
        p.add_argument("--e", required=True, help="pfaffian e (e^2 = f(0))")

    def add_seed(p):  # the default, None, reads ORBITLAB_SEED (dispatch)
        p.add_argument("--seed", type=lambda s: int(s, 0), default=None)

    p = sub.add_parser("invariants", help="invariants of a matrix")
    p.add_argument("--A", required=True, help="JSON file: square matrix")
    add_base(p)

    p = sub.add_parser("orbit", help="construct or inspect orbits")
    p.add_argument("action", choices=["construct", "stabilizer"])
    add_inv(p)
    add_base(p)
    p.add_argument("--class", dest="cls", default=None,
                   help='square-class labels, or "-gamma"')

    p = sub.add_parser("descent", help="local descent images")
    p.add_argument("action", choices=["local", "sel12"])
    add_inv(p)
    add_base(p)
    p.add_argument("--place", default=None, help="prime p or R")
    p.add_argument("--which", type=int, choices=[1, 2], default=1)
    p.add_argument("--budget", type=int, default=2000)
    add_seed(p)

    p = sub.add_parser("lattice", help="lattice refinement over Z_p")
    p.add_argument("action", choices=["selfdual", "cassels"])
    p.add_argument("--gram", required=True, help="JSON file: Gram matrix")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--prec", type=int, default=None)

    p = sub.add_parser("census", help="finite-field and family statistics")
    p.add_argument("action",
                   choices=["sweep", "orbits", "group-order", "family"])
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--lemma", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--f", default=None)
    p.add_argument("--e", default=None)
    p.add_argument("--count", type=int, default=30)
    add_seed(p)

    p = sub.add_parser("heights", help="integral height-window stream")
    p.add_argument("--X", type=int, required=True)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--flags", action="store_true")
    return top


_HANDLERS = {
    "invariants": _cmd_invariants,
    "orbit": _cmd_orbit,
    "descent": _cmd_descent,
    "lattice": _cmd_lattice,
    "census": _cmd_census,
    "heights": _cmd_heights,
}
_PARSER = None  # built by the first dispatch, not at import


def dispatch(argv, out=None) -> int:
    global _PARSER
    out = out or sys.stdout
    try:
        if _PARSER is None:
            _PARSER = _build_parser()
        args = _PARSER.parse_args(argv)
        if hasattr(args, "seed") and args.seed is None:  # descent, census
            args.seed = _seed_default()
        if args.verb == "census":
            if args.action == "orbits" and (args.f is None or args.e is None):
                raise UsageError("census orbits requires --f and --e")
        return _HANDLERS[args.verb](args, out)
    except OrbitlabError as exc:
        _emit({"error": {"code": type(exc).__name__, "exit": exc.code,
                         "message": str(exc)}}, out)
        return exc.code


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
