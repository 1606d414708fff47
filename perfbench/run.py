#!/usr/bin/env python3
"""Benchmark command: builds perfbench/itb_perfbench from source, runs one
workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke          # every workload, in seconds

Run it from the repository root.  Every metric is printed as one JSON record
per line (name, value, unit, sample count and the run's provenance); the
last line is the summary object {"correct", "attempted", "failed",
"metrics"} holding the end-to-end metrics of BENCHMARK.json (--trace 0) or
its per-layer metrics (--trace 1).  With --trace 1 the spans, with their
self times, are also written to <build dir>/spans/<workload>-<seed>.json.
See perfbench/README.md for what each number means.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1  # seed 7 is held out from tuning; see README.md
RUN_TIMEOUT_S = 170
BUILD_JOBS = 3
# Runs like the workloads of BENCHMARK.json but is not one of them: about
# half of its seeds overflow the stop&go slack (the invariant checks fail;
# README), and a benchmark workload must be one on which nothing fails.
EXTRA_WORKLOADS = ["torus512_msg32"]


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configures and builds itb_perfbench; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: simulator sources (src/) not found next to perfbench/")
    out = build_dir() / "perfbench"
    log = sys.stderr
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", str(out), "--target", "itb_perfbench",
                    "-j", str(BUILD_JOBS)], check=True, stdout=log, stderr=log)
    return out / "itb_perfbench"


def commit_id():
    """The git commit, or a hash of the simulator sources outside git."""
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.suffix in (".cpp", ".hpp") or p.name == "CMakeLists.txt":
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


# ---------------------------------------------------------------- statistics

def median(xs):
    return statistics.median(xs) if xs else 0.0


def quartiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0]) if xs else (0.0, 0.0)
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def self_times(spans):
    """Each span's duration minus the part of it its children cover.

    Children of one parent may overlap each other (they do not in this
    benchmark, which is single-threaded at span boundaries), so their
    intervals are merged before they are subtracted."""
    children = {}
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s["start_ns"], s["end_ns"]
        ivs = sorted((max(lo, spans[c]["start_ns"]), min(hi, spans[c]["end_ns"]))
                     for c in children.get(i, []))
        covered, cur_lo, cur_hi = 0, None, None
        for a, b in ivs:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


# ---------------------------------------------------------------- metrics

def end_to_end(raw):
    """name -> (value, unit, samples) for the untraced run.

    Each round runs its own seed.  The seed-dependent times are means over
    the rounds, so a seed on which the simulator is slow costs its share;
    within a round, the repetitions' median speed stands for the round."""
    s, sc = raw["samples"], raw["scalars"]
    speeds = [median([sc["sim_us"] / w for w in walls])
              for walls in s["point_wall_s"]]
    ttr = s["time_to_result_s"]
    return {
        "setup_s": (median(s["setup_s"]), "s", s["setup_s"]),
        "time_to_result_s": (statistics.fmean(ttr), "s", ttr),
        "sim_us_per_wall_s": (statistics.fmean(speeds), "us/s", speeds),
        "peak_rss_mb": (sc["peak_rss_mb"], "MiB", [sc["peak_rss_mb"]]),
        "latency_err_frac": (statistics.fmean(sc["latency_err_fracs"]), "frac",
                             sc["latency_err_fracs"]),
    }


def tuple_scale(pair, k):
    return pair[0] * k, [x * k for x in pair[1]]


def per_layer(raw):
    """name -> (value, unit, samples) for the traced run."""
    spans, sc = raw["spans"], raw["scalars"]
    dur = {}      # (name, parent name) -> [ns]
    by_rep = {}   # (name, rep) under a warm point -> ns
    for s in spans:
        parent = spans[s["parent"]]["name"] if s["parent"] >= 0 else ""
        d = s["end_ns"] - s["start_ns"]
        dur.setdefault((s["name"], parent), []).append(d)
        if parent == "harness.run_point" or s["name"] == "harness.run_point":
            by_rep[(s["name"], s["rep"])] = d

    def span_ms(name, parent):
        xs = [d / 1e6 for d in dur.get((name, parent), [])]
        return median(xs), xs

    reps = raw["counters"]

    def per_rep(f):
        return [f(by_rep, c) for c in reps]

    def counter(key):
        xs = [c[key] for c in reps]
        return median(xs), xs

    sim_us = sc["sim_us"]
    measure_us = raw["provenance"]["measure_us"]
    out = {}

    def put(name, unit, pair):
        out[name] = (pair[0], unit, pair[1])

    put("topo.gen_ms", "ms", span_ms("topo.generate", "bench.setup"))
    put("route.updown_ms", "ms", span_ms("testbed.construct", "bench.setup"))
    put("core.route_build_ms", "ms", span_ms("testbed.warm", "bench.setup"))
    put("core.route_table_mb", "MiB", (sc["route_table_mb"], [sc["route_table_mb"]]))
    put("core.compose_ns", "ns", counter("compose_ns"))
    put("sim.prepare_ms_cold", "ms", span_ms("sim.prepare", "harness.cold_point"))
    put("sim.prepare_ms_warm", "ms", span_ms("sim.prepare", "harness.run_point"))
    put("sim.warmup_s", "s", tuple_scale(span_ms("sim.warmup", "harness.run_point"), 1e-3))
    put("sim.measure_s", "s", tuple_scale(span_ms("sim.measure", "harness.run_point"), 1e-3))
    ns_ev = per_rep(lambda b, c: b[("sim.measure", c["rep"])] / max(c["events_measure"], 1))
    put("sim.ns_per_event", "ns", (median(ns_ev), ns_ev))
    ev = [c["events"] / sim_us for c in reps]
    put("sim.events_per_sim_us", "1/us", (median(ev), ev))
    put("sim.peak_queue_len", "count", counter("peak_queue_len"))
    coal = [c["events_coalesced"] / max(c["events"] + c["events_coalesced"], 1)
            for c in reps]
    put("net.coalesced_frac", "frac", (median(coal), coal))
    put("net.fc_violations", "count", counter("fc_violations"))
    put("net.max_buffer_occupancy", "flits", counter("max_buffer_occupancy"))
    put("net.itbs_per_msg", "count", counter("itbs_per_msg"))
    put("net.spills", "count", counter("spills"))
    msgs = [c["messages_generated"] / sim_us for c in reps]
    put("traffic.msgs_per_sim_us", "1/us", (median(msgs), msgs))
    dlv = [c["delivered"] / measure_us for c in reps]
    put("metrics.delivered_per_sim_us", "1/us", (median(dlv), dlv))

    def run_loop_ns(b, c):
        return b[("sim.warmup", c["rep"])] + b[("sim.measure", c["rep"])]

    bw = per_rep(lambda b, c: (c["barrier_wait_ms"] * 1e6 /
                               (c["lanes"] * run_loop_ns(b, c)))
                 if c["lanes"] else 0.0)
    put("par.barrier_wait_frac", "frac", (median(bw), bw))
    put("par.lane_imbalance", "ratio", counter("lane_imbalance"))
    put("par.windows_executed", "count", counter("windows_executed"))
    epw = [c["events"] / c["windows_executed"] if c["windows_executed"] else 0.0
           for c in reps]
    put("par.events_per_window", "count", (median(epw), epw))
    put("par.boundary_events", "count", counter("boundary_events"))
    put("par.mailbox_depth_peak", "count", counter("mailbox_depth_peak"))
    put("par.boundary_ties", "count", counter("boundary_ties"))
    rounds = raw["samples"]["point_wall_s"]
    walls = [w for r in rounds for w in r]  # indexed by repetition
    # The serial point runs --seed, as does the first round.
    speedup = (sc["serial_wall_s"] / median(rounds[0])
               if "serial_wall_s" in sc else 0.0)
    put("par.speedup_vs_serial", "ratio", (speedup, [speedup]))
    over = per_rep(lambda b, c: (b[("harness.run_point", c["rep"])] -
                                 b[("sim.prepare", c["rep"])] -
                                 run_loop_ns(b, c)) / 1e6)
    put("harness.point_overhead_ms", "ms", (median(over), over))
    # Each traced repetition runs right after its untraced twin.
    ratio = per_rep(lambda b, c: b[("harness.run_point", c["rep"])] / 1e9 /
                    walls[c["rep"]] - 1.0)
    put("obs.bench_trace_overhead_frac", "frac", (median(ratio), ratio))
    return out


# ---------------------------------------------------------------- running

def run_workload(binary, workload, seed, seconds, trace, smoke, commit):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--commit", commit]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(raw, trace, spec):
    """Prints one record per metric and check; returns the summary object."""
    prov = provenance(raw, trace)
    metrics = per_layer(raw) if trace else end_to_end(raw)
    attempted, failed = raw["attempted"], raw["failed"]
    for name, (value, unit, xs) in metrics.items():
        q1, q3 = quartiles(xs)
        print(json.dumps(dict(record="metric", name=name, value=value,
                              unit=unit, samples=len(xs), q1=q1, q3=q3,
                              **prov)))
    # Not in BENCHMARK.json: it reads 0 on healthy workloads, and the
    # summary's attempted/failed carry it.
    print(json.dumps(dict(record="metric", name="failed_frac",
                          value=failed / attempted, unit="frac",
                          samples=attempted, **prov)))
    for c in raw["checks"]:
        print(json.dumps(dict(record="check", **c, **prov)))
    if not trace:
        print(json.dumps(dict(record="fidelity",
                              latency_ns=raw["scalars"]["latency_ns"],
                              flit_exact_ns=raw["scalars"]["latency_flit_exact_ns"],
                              fc_violations=raw["scalars"]["fc_violations"],
                              max_buffer_occupancy=raw["scalars"]["max_buffer_occupancy"],
                              **prov)))
    correct = all(c["ok"] for c in raw["checks"])
    wanted = spec["per_layer" if trace else "end_to_end"]
    summary = {}
    for m in wanted:
        value, unit, _ = metrics[m["name"]]
        summary[m["name"]] = {"value": value, "unit": unit}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": summary}


def provenance(raw, trace):
    return dict(raw["provenance"], workload=raw["workload"], seed=raw["seed"],
                trace=int(trace))


def write_spans(raw):
    spans = raw["spans"]
    selfs = self_times(spans)
    rows = [dict(s, self_ns=st, workload=raw["workload"]) for s, st in zip(spans, selfs)]
    d = build_dir() / "spans"
    d.mkdir(parents=True, exist_ok=True)
    path = d / f"{raw['workload']}-{raw['seed']}.json"
    with open(path, "w") as f:
        json.dump(rows, f)
    totals = {}
    for r in rows:
        totals[r["name"]] = totals.get(r["name"], 0) + r["self_ns"]
    for name, ns in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(json.dumps(dict(record="span_self", name=name, self_ms=ns / 1e6,
                              **provenance(raw, True))))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload, both modes, with tiny windows")
    args = ap.parse_args()
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    if not args.smoke and args.workload not in names + EXTRA_WORKLOADS:
        ap.error(f"--workload must be one of {names + EXTRA_WORKLOADS}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    binary = build()
    commit = commit_id()
    if args.smoke:
        # The extra workloads run too, but only those of BENCHMARK.json must
        # come out correct.
        ok = True
        for name in names + EXTRA_WORKLOADS:
            for trace in (0, 1):
                raw = run_workload(binary, name, args.seed, 0.2, trace, True, commit)
                summary = report(raw, trace, spec)
                if trace:
                    write_spans(raw)
                ok = ok and (summary["correct"] or name not in names)
                print(json.dumps(dict(summary, workload=name, trace=trace)))
        return 0 if ok else 1
    raw = run_workload(binary, args.workload, args.seed, seconds,
                       args.trace == 1, False, commit)
    summary = report(raw, args.trace == 1, spec)
    if args.trace:
        write_spans(raw)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
