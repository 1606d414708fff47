#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same build agree?

    python3 perfbench/steady.py [--runs 5] [--first-seed 101]
    python3 perfbench/steady.py --from <build dir>/steady-<time>.json

Runs the benchmark command 2 x RUNS times per workload, interleaving set A
and set B invocation by invocation (A, B, A, B, ...) so that slow drift in
the host lands on both sets alike.  Every invocation gets its own seed.
For each workload and end-to-end metric it prints, in one markdown row,
each set's median and quartiles, the spread of all runs together
(interquartile distance / median), how much worse set B's median is than
set A's, and two verdicts against the metric's bound in BENCHMARK.json:
"agree" when the two medians are within the bound of each other, either
way round, and the spread is within the bound (setup_s's spread is not
bounded), and "tight" when the spread is also within a third of the bound,
the margin aimed for.  Raw results go to
<build dir>/steady-<time>.json; --from reports on such a file again, with
the bounds BENCHMARK.json holds now.  Exits 1 when any row disagrees,
when a run is not correct or when a point failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark command itself)


def invoke(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=run.RUN_TIMEOUT_S + 30, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(xs):
    q1, q3 = run.quartiles(xs)
    m = statistics.median(xs)
    return (q3 - q1) / m if m else 0.0


def worse_by(a, b, better):
    """How much worse b is than a, as a share of a (negative: better)."""
    if a == 0:
        return 0.0
    return (a - b) / a if better == "higher" else (b - a) / a


def collect(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    run.build()
    results = {n: {"A": [], "B": []} for n in names}
    seed = args.first_seed
    for i in range(args.runs):
        for s in ("A", "B"):
            for n in names:
                t0 = time.time()
                out = invoke(n, seed)
                out["seed"] = seed
                results[n][s].append(out)
                print(f"# {n} set {s} run {i} seed {seed}: "
                      f"{time.time() - t0:.1f} s, correct={out['correct']}, "
                      f"failed={out['failed']}/{out['attempted']}",
                      file=sys.stderr)
                seed += 1
    dump = run.build_dir() / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    dump.write_text(json.dumps(results))
    return results, dump


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5, help="runs per set")
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--from", dest="source", help="report on a raw file")
    args = ap.parse_args()
    spec = run.benchmark_spec()
    if args.source:
        dump = Path(args.source)
        results = json.loads(dump.read_text())
    else:
        results, dump = collect(args, spec)
    names = list(results)
    seeds = sorted(r["seed"] for n in names for s in ("A", "B")
                   for r in results[n][s])

    ok = True
    print(f"runs per set: {len(results[names[0]]['A'])}; seeds {seeds[0]}.."
          f"{seeds[-1]}; raw: {dump}")
    print()
    print("| workload | metric | A median [q1, q3] | B median [q1, q3] "
          "| spread (all) | B worse by | bound | agree | tight |")
    print("|---|---|---|---|---|---|---|---|---|")
    for n in names:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in results[n]["A"]]
            b = [r["metrics"][name]["value"] for r in results[n]["B"]]
            qa, qb = run.quartiles(a), run.quartiles(b)
            ma, mb = statistics.median(a), statistics.median(b)
            sp = spread(a + b)
            wb = worse_by(ma, mb, m["better"])
            # Which set is the baseline is arbitrary: both orders must agree.
            gap = max(wb, worse_by(mb, ma, m["better"]))
            unbounded = name == "setup_s"
            good = gap <= bound and (unbounded or sp <= bound)
            ok = ok and good
            agree = "yes" if good else "NO"
            tight = "yes" if unbounded or sp <= bound / 3 else "no"
            print(f"| {n} | {name} | {ma:.6g} [{qa[0]:.6g}, {qa[1]:.6g}] "
                  f"| {mb:.6g} [{qb[0]:.6g}, {qb[1]:.6g}] | {sp:.3f} "
                  f"| {wb:+.3f} | {bound} "
                  f"| {agree} | {tight} |")
    for n in names:
        every = results[n]["A"] + results[n]["B"]
        bad = [r["seed"] for r in every if not r["correct"]]
        failed = sum(r["failed"] for r in every)
        attempted = sum(r["attempted"] for r in every)
        ok = ok and not bad and failed == 0
        print(f"{n}: correct in {len(every) - len(bad)}/{len(every)} runs"
              f"{' (not: seeds ' + str(bad) + ')' if bad else ''}; "
              f"failed points {failed}/{attempted}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
