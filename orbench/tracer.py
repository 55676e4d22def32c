"""Layer tracing from outside the package.

The tracer replaces each listed public function of orbitlab with a wrapper
that records a span (id, name, start, end, parent id) and keeps per-name
call counts and self time (duration minus child spans). A function is
replaced in every orbitlab module namespace that binds it, because
``from .x import f`` copies the reference; methods are replaced on their
class. Rings scalar arithmetic is not wrapped: it runs ~60k times a second
in local_queries and a wrapper costs more than one such call, so that time
shows up in its callers' self time.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time

from orbitlab.errors import OrbitlabError
from orbitlab.rings import RationalField, RealField

# (module, function or Class.method), top layer first
TRACED = [
    ("cli", "dispatch"),
    ("census", "fp_sweep"), ("census", "so3_group"),
    ("census", "bruteforce_orbits"), ("census", "diverges_family"),
    ("descent", "local_image"), ("descent", "sel12_local"),
    ("descent", "descent_class"),
    ("lattices", "integral_representative"),
    ("lattices", "ideal_triple_verify"), ("lattices", "self_dualize"),
    ("orbits", "distinguished_coincide"), ("orbits", "alpha1_construct"),
    ("orbits", "orbit_from_class"), ("orbits", "delta_map"),
    ("orbits", "recompute_class"),
    ("thetarep", "distinguished_witness"), ("thetarep", "invariants_of"),
    ("thetarep", "lift"),
    ("quadforms", "is_split"), ("quadforms", "form_invariants"),
    ("quadforms", "split_isometry"), ("quadforms", "isotropic_vector"),
    ("etale", "square_class"), ("etale", "SquareClass.is_trivial"),
    ("etale", "norm_one_classes"), ("etale", "EtaleAlgebra.norm"),
    ("etale", "real_roots_exact"),
    ("linalg", "charpoly"), ("linalg", "det"), ("linalg", "inverse"),
    ("linalg", "solve"), ("linalg", "rref"),
    ("poly", "factor"), ("poly", "discriminant"), ("poly", "resultant"),
    ("poly", "hensel_factorization"), ("poly", "powmod"),
    ("rings", "hilbert_symbol"), ("rings", "sqrt_mod_p"),
    ("rings", "PadicField.is_square"), ("rings", "PadicField.sqrt"),
]

ROOT = "op"  # the benchmark's own span around each operation
# functions whose warm-up cost is reported as setup.<name>.calls / .self_s:
# the warm-up builds their caches, so the timed loop sees only cache hits
SETUP_REPORTED = ("census.so3_group", "census.bruteforce_orbits",
                  "census.diverges_family")
COMPLETE = "descent.local_image.complete_ratio"
GLOBAL_YES = "etale.global_square.yes_ratio"


def _is_global(ring) -> bool:
    return isinstance(ring, RationalField) and not isinstance(ring, RealField)


class Tracer:
    """Spans held in memory; wrappers are installed only between
    ``install()`` and ``remove()``. Spans recorded before ``end_setup()``
    belong to the warm-up and are counted apart from the timed loop."""

    def __init__(self):
        self.names = []
        self.spans = []       # (span id, name index, start, end, parent id)
        self.stats = {}       # name -> [calls, self seconds]
        self.setup_stats = {}
        self.setup_spans = 0  # the first this many spans are the warm-up's
        self.outcomes = {COMPLETE: [0, 0], GLOBAL_YES: [0, 0]}
        self.orbits_errors = 0
        self._stack = []      # open spans: [span id, seconds in children]
        self._ids = itertools.count()
        self._patches = []    # (owner, attribute, original, wrapper)
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("orbitlab.")}
        for modname, path in TRACED:
            mod = modules["orbitlab." + modname]
            name = f"{modname}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                self._patches.append((cls, attr, orig,
                                      self._wrap(name, orig)))
                continue
            orig = getattr(mod, path)
            wrapper = self._wrap(name, orig)
            for owner in modules.values():
                for attr, value in list(vars(owner).items()):
                    if value is orig:
                        self._patches.append((owner, attr, orig, wrapper))
        self.root = self._wrap(ROOT, lambda fn, arg: fn(arg))

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    def end_setup(self):
        """Move the counts so far to the warm-up and start the loop's."""
        for name, stat in self.stats.items():
            self.setup_stats[name] = tuple(stat)
            stat[:] = [0, 0.0]
        for outcome in self.outcomes.values():
            outcome[:] = [0, 0]
        self.orbits_errors = 0
        self.setup_spans = len(self.spans)

    def _observe(self, name, args, result):
        if name == "descent.local_image":
            self.outcomes[COMPLETE][0] += bool(result.complete)
            self.outcomes[COMPLETE][1] += 1
        elif (name == "orbits.distinguished_coincide"
              and _is_global(args[0].ring)
              and (len(args) < 2 or args[1] is None)):
            self.outcomes[GLOBAL_YES][0] += bool(result)
            self.outcomes[GLOBAL_YES][1] += 1

    def _wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        stat = self.stats.setdefault(name, [0, 0.0])
        observed = name in ("descent.local_image",
                            "orbits.distinguished_coincide")
        counts_errors = name.startswith("orbits.")
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except OrbitlabError:
                if counts_errors:
                    self.orbits_errors += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                spans.append((frame[0], index, start, end, parent))
            if observed:
                self._observe(name, args, result)
            return result

        return traced

    def metrics(self) -> dict:
        out = {}
        for name, (calls, self_s) in self.stats.items():
            if name != ROOT:
                out[f"{name}.calls"] = calls
                out[f"{name}.self_s"] = self_s
        out["unattributed.self_s"] = self.stats[ROOT][1]
        for name, (hits, total) in self.outcomes.items():
            out[name] = hits / total if total else 0.0
        out["orbits.errors"] = self.orbits_errors
        for name in SETUP_REPORTED:
            calls, self_s = self.setup_stats.get(name, (0, 0.0))
            out[f"setup.{name}.calls"] = calls
            out[f"setup.{name}.self_s"] = self_s
        return out

    def self_total(self) -> float:
        return sum(self_s for _, self_s in self.stats.values())

    def dump(self) -> dict:
        return {"names": self.names,
                "fields": ["id", "name", "start", "end", "parent"],
                "setup_spans": self.setup_spans,
                "spans": self.spans}
