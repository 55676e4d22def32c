"""One workload process: time the imports and the warm-up, run a fixed
number of rounds, check every output, print one JSON object.

Run by run.py with PYTHONPATH set to the checkout's src/ and the BLAS and
OpenMP thread counts pinned to 1. ``--probe`` stops after the set-up.

Times are scaled to the reference host's speed. The shared host runs
Python at speeds that drift by 20-60% over seconds to minutes, so the
process times fixed units of work (``calibrate``) before the set-up, after
it, and between ops at least every CAL_EVERY_S seconds: pure Python, and
numpy array arithmetic for a workload whose time goes to numpy (its
CALIBRATION). An op's time is multiplied by its unit's time on the
reference host over the mean of the calibrations just before and just
after it. The raw times are reported next to the scaled ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

CAL_EVERY_S = 0.1
SETUP_CALS = 3  # calibrations before the set-up and again after it
# the self times of a traced run, unattributed included, must add up to
# the wall time of its traced rounds, loop code included and calibrations
# left out, to this share
COVERAGE_TOLERANCE = 0.01
# a loop stops early only past this many times its nominal seconds
STOP_FACTOR = 3
MAX_REPORTED_FAILURES = 5


def _python_unit() -> None:
    s, d = 0, {}
    for i in range(30000):
        s += i * i % 7
        d[i % 101] = s


_ARRAYS = []


def _numpy_unit() -> None:
    if not _ARRAYS:
        import numpy as np
        a = np.arange(1 << 18, dtype=np.int64)
        _ARRAYS[:] = [a, a[::-1].copy()]
    a, b = _ARRAYS
    x = a
    for r in range(4):
        x = (x * b + r) % 97


# unit -> (work, its seconds on the reference host, a 2-vCPU Xeon VM at
# 2.1 GHz with Python 3.11.7 and numpy 2.4.6): reported times are in
# reference-host seconds
UNITS = {"python": (_python_unit, 0.003), "numpy": (_numpy_unit, 0.0075)}


def calibrate(unit: str = "python") -> float:
    """Seconds the unit of work takes now."""
    work = UNITS[unit][0]
    t = time.perf_counter()
    work()
    return time.perf_counter() - t


def _imports(src: Path) -> dict:
    t0 = time.perf_counter()
    import sympy  # noqa: F401
    t1 = time.perf_counter()
    import orbitlab.cli
    t2 = time.perf_counter()
    loaded = Path(orbitlab.cli.__file__).resolve().parent
    if loaded != (src / "orbitlab").resolve():
        raise SystemExit(f"orbitlab loaded from {loaded}, not from {src}")
    return {"setup.import_sympy_s": t1 - t0,
            "setup.import_orbitlab_s": t2 - t1}


def _warmup(wl, tracer) -> float:
    """The workload's warm-up, traced when there is a tracer."""
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    wl.warmup()
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.remove()
        tracer.end_setup()
    return t1 - t0


def _loop(wl, seconds: float, tracer):
    """Closed loop over a fixed number of whole rounds, sized so the loop
    takes about the given seconds on the reference host: the same seed
    always runs the same ops. With a tracer, odd rounds run traced and even
    rounds untraced, at least one of each. A program far slower than the
    reference stops starting rounds after STOP_FACTOR times the seconds.

    Returns the records (op, output, error), the timings (round, traced,
    raw seconds, index of the calibrations before the op, unit), the
    calibrations ({unit: seconds} each) and the raw wall time of the traced
    and untraced rounds, calibrations left out and loop code included."""
    from orbitlab.errors import PrecisionError
    from workloads import Declined
    records, timings = [], []
    walls = {False: 0.0, True: 0.0}
    units = wl.CALIBRATION
    for u in units:  # a unit's first call allocates: keep it unread
        calibrate(u)
    cals = [{u: calibrate(u) for u in units}]
    last_cal = time.perf_counter()
    rounds = max(1 if tracer is None else 2, round(seconds / wl.ROUND_S))
    stop = time.perf_counter() + STOP_FACTOR * seconds
    for k in range(rounds):
        ops = wl.round(k)
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install()
        start = time.perf_counter()
        in_cal = 0.0
        for op in ops:
            if time.perf_counter() - last_cal >= CAL_EVERY_S:
                c = time.perf_counter()
                cals.append({u: calibrate(u) for u in units})
                last_cal = time.perf_counter()
                in_cal += last_cal - c
            t = time.perf_counter()
            try:
                out = tracer.root(wl.run, op) if traced else wl.run(op)
                err = None
            except PrecisionError as exc:
                out, err = None, Declined(f"PrecisionError: {exc}")
            except Exception as exc:  # a raising op counts as failed
                out, err = None, f"{type(exc).__name__}: {exc}"
            timings.append((k, traced, time.perf_counter() - t,
                            len(cals) - 1, wl.unit(op)))
            records.append((op, out, err))
        end = time.perf_counter()
        walls[traced] += end - start - in_cal
        if traced:
            tracer.remove()
        if k >= 1 and end > stop:
            break
    cals.append({u: calibrate(u) for u in units})
    return records, timings, cals, walls


def _scaled(timings, cals):
    """Latencies scaled to the reference speed, {traced: [seconds]}, and
    the scaled rate of each round, {traced: [ops per second]}."""
    latencies = {False: [], True: []}
    rounds = {}
    for k, traced, seconds, i, unit in timings:
        now = (cals[i][unit] + cals[i + 1][unit]) / 2
        scaled = seconds * UNITS[unit][1] / now
        latencies[traced].append(scaled)
        rounds.setdefault((k, traced), []).append(scaled)
    rates = {False: [], True: []}
    for (_, traced), lat in rounds.items():
        rates[traced].append(len(lat) / sum(lat))
    return latencies, rates


def _tail(sorted_lat):
    """(value, percentile): the highest percentile with at least ten
    samples above it, or the maximum when there are too few samples."""
    n = len(sorted_lat)
    rank = n - 10 if n > 10 else n
    return sorted_lat[rank - 1], 100.0 * rank / n


def _check(wl, records):
    """(message, declined) for each failed op."""
    from workloads import Declined
    failures = []
    for op, out, err in records:
        if err is None:
            try:
                err = wl.check(op, out)
            except Exception as exc:  # a check that cannot run fails the op
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append((f"{op!r}: {err}", isinstance(err, Declined)))
    return failures


def _line_counts(src: Path) -> dict:
    out, total = {}, 0
    for path in sorted((src / "orbitlab").glob("*.py")):
        n = path.read_bytes().count(b"\n")
        total += n
        if not path.stem.startswith("_"):
            out[f"{path.stem}.lines"] = n
    out["src.lines"] = total
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--spans", type=Path, default=None)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    setup_cals = [calibrate() for _ in range(SETUP_CALS)]
    raw_setup = _imports(args.src)
    from workloads import WORKLOADS  # imports every module the tracer wraps
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    wl = WORKLOADS[args.workload](args.seed)
    raw_setup["setup.warmup_s"] = _warmup(wl, tracer)
    setup_cals += [calibrate() for _ in range(SETUP_CALS)]
    setup_scale = UNITS["python"][1] / statistics.median(setup_cals)
    setup = {name: s * setup_scale for name, s in raw_setup.items()}
    if args.probe:
        print(json.dumps({"setup": setup,
                          "raw_setup_s": sum(raw_setup.values())}))
        return 0
    records, timings, cals, walls = _loop(wl, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = _check(wl, records)

    latencies, rates = _scaled(timings, cals)
    untraced = sorted(latencies[False])
    raw = sorted(t[2] for t in timings if not t[1])
    tail, tail_pct = _tail(untraced)
    result = {
        "attempted": len(records),
        "failed": len(failures),
        "declined": sum(declined for _, declined in failures),
        "failures": [msg for msg, _ in failures[:MAX_REPORTED_FAILURES]],
        "setup": setup,
        "raw_setup_s": sum(raw_setup.values()),
        "metrics": {
            "ops_per_s": statistics.median(rates[False]),
            "op_p50_ms": 1000 * statistics.median(untraced),
            "op_tail_ms": 1000 * tail,
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": 1 - len(failures) / len(records),
        },
        "details": {"op_tail.percentile": tail_pct,
                    "op_tail.samples": len(untraced),
                    **{f"host.{u}_unit_ms": 1000 * statistics.median(
                        c[u] for c in cals) for u in wl.CALIBRATION},
                    "host.calibrations": len(cals),
                    "raw.op_p50_ms": 1000 * statistics.median(raw),
                    "raw.op_tail_ms": 1000 * _tail(raw)[0],
                    "raw.loop_s": walls[False] + walls[True],
                    **wl.properties(records), **_line_counts(args.src)},
    }
    if tracer is not None:
        coverage = tracer.self_total() / walls[True]
        loop_scale = sum(latencies[True]) / sum(
            t[2] for t in timings if t[1])
        layers = tracer.metrics()
        for name in layers:
            if name.endswith("_s"):
                layers[name] *= (setup_scale if name.startswith("setup.")
                                 else loop_scale)
        traced_rate = statistics.median(rates[True])
        untraced_rate = statistics.median(rates[False])
        result["layers"] = {
            **layers,
            "trace.ops_per_s": traced_rate,
            "trace.untraced_ops_per_s": untraced_rate,
            "trace.overhead": untraced_rate / traced_rate - 1,
            "trace.coverage": coverage,
        }
        result["coverage_ok"] = abs(1 - coverage) <= COVERAGE_TOLERANCE
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            args.spans.write_text(json.dumps(tracer.dump()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
