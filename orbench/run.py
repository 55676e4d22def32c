"""orbitlab benchmark: one workload, one seed, one run.

    python3 orbench/run.py --workload heights_q --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. The package is imported from the
checkout's src/ in fresh child processes (one thread, one client, closed
loop over a fixed number of seeded rounds, times scaled to the reference
host's speed; see child.py). The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones from a traced run. A readable report goes
to stderr. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up is timed in this many extra fresh processes besides the measured one
SETUP_PROBES = 4
# The measured child stops starting rounds after 3 x --seconds, and a round
# takes at most 2.4 s on the reference host, so it ends within 4 x --seconds
# plus its set-up (2.5 s at most on the reference host) and its output
# checks. A set-up probe gets the margin alone.
LOOP_FACTOR = 4
CHILD_MARGIN_S = 30
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# per-layer names that are absent when they do not apply: another
# workload's input properties, or a module that no longer exists
OPTIONAL_PREFIX, OPTIONAL_SUFFIX = "input.", ".lines"


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.pop("ORBITLAB_SEED", None)
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _run_child(argv, env, timeout):
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *argv], env=env,
            cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"workload process ran past {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _report(title, metrics, units):
    lines = [title]
    for name, value in metrics.items():
        lines.append(f"  {name:<46} {value:>14.6g} {units.get(name, '')}")
    sys.stderr.write("\n".join(lines) + "\n")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = ROOT / "src"
    if not (src / "orbitlab" / "__init__.py").is_file():
        sys.stderr.write(f"no orbitlab package under {src}\n")
        return 2
    env = _child_env(src)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--src", str(src)]

    extra = ["--trace", str(args.trace)]
    if args.trace:
        spans = HERE / "out" / f"spans-{args.workload}-{args.seed}.json"
        extra += ["--spans", str(spans)]
    res = _run_child([*common, *extra], env,
                     LOOP_FACTOR * args.seconds + CHILD_MARGIN_S)
    setups = [sum(res["setup"].values())]
    raw_setups = [res["raw_setup_s"]]
    # The probes run after the measured process: run before it, their
    # allocation churn (about 0.8 GB each in fp_orbits) slowed its loop.
    for _ in range(0 if args.trace else SETUP_PROBES):
        probe = _run_child([*common, "--probe"], env, CHILD_MARGIN_S)
        setups.append(sum(probe["setup"].values()))
        raw_setups.append(probe["raw_setup_s"])
    res["details"]["raw.setup_s"] = statistics.median(raw_setups)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    found = {**res["metrics"], "setup_s": statistics.median(setups),
             **res["setup"], **res["details"], **res.get("layers", {})}
    metrics = {}
    for name in units:
        if name in found:
            metrics[name] = found[name]
        elif name.startswith(OPTIONAL_PREFIX) or name.endswith(
                OPTIONAL_SUFFIX):
            metrics[name] = 0
        else:
            raise SystemExit(f"metric {name} was not measured")
    # an op that declined to answer (PrecisionError) counts as failed, but
    # only a wrong output or another error makes the run incorrect
    correct = (res["failed"] == res["declined"]
               and res.get("coverage_ok", True))

    _report(f"{args.workload} seed={args.seed} trace={args.trace}: "
            f"{res['attempted']} ops, {res['failed']} failed "
            f"({res['declined']} declined)",
            metrics, units)
    if not args.trace:
        _report("details", res["details"], {})
    for failure in res["failures"]:
        sys.stderr.write(f"FAILED {failure}\n")
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
