"""cutstack benchmark: one closed-loop client per workload, answers checked.

    python3 perfbench/run.py --workload deep_shift --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``. With
``--trace 0`` the last line of output is a JSON object holding the end-to-end
metrics; with ``--trace 1`` the same queries are run a second time under the
per-layer tracer and the JSON holds the per-layer metrics. Lines before it
are the human-readable report. ``--workload all`` runs the four workloads in
turn and then known_failures.py, and ends with a summary. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import OUT_DIR, ROOT, WORKLOADS, build_workload, reset_outputs  # noqa: E402

SRC = ROOT / "src"

# The tail is reported at one fixed percentile, so a faster program does not
# switch percentiles. Every 20 s run leaves at least 50 samples beyond p90. At
# p99, deep_shift's sub-millisecond queries read the machine's scheduling
# hiccups instead of the program: its p99 spread 0.46 over ten runs.
TAIL_PERCENTILE = 90.0
SETUP_SAMPLES = 5
WARMUP_SECONDS = 0.5

# Machine-speed normalization. The machines this runs on are shared, and the
# same queries run up to 1.5x faster or slower from one minute to the next.
# A fixed pure-Python calibration loop is timed between queries (outside the
# timed calls) every CAL_EVERY_S of call time, and times are reported at the
# reference speed, where calibrate() takes CAL_REF_S:
#     reported time = measured time * (CAL_REF_S / median calibration) ** CAL_EXP
# Over windows of identical queries, the workloads' times moved as the
# 0.6-0.7th power of the calibration time (correlation 0.87-0.97), hence
# CAL_EXP (see README.md). The loop touches no cutstack code, so a program change cannot move it.
CAL_REF_S = 0.006
CAL_EXP = 2 / 3
CAL_EVERY_S = 0.25


def calibrate() -> int:
    """Fixed interpreter work of the kinds cutstack does: big-int arithmetic,
    tuple keys in a dict, and a sort of big-int tuples that spills out of the
    small caches."""
    big = 3 ** 300
    acc = 0
    counts = {}
    items = []
    for i in range(1500):
        x = big * (i + 1) + (big >> (i % 64))
        acc += x % 1_000_003
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        items.append((x % 10_007, i))
    items.sort()
    wide = [((i * 2654435761) % 1_000_003 * big, i) for i in range(5000)]
    wide.sort()
    return acc + len(counts) + items[0][0] + wide[0][1]


def slowness(cal: list) -> float:
    """Factor by which measured times exceed reference-speed times."""
    return (statistics.median(cal) / CAL_REF_S) ** CAL_EXP


def time_calibration(n: int) -> list:
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        calibrate()
        out.append(time.perf_counter() - t0)
    return out


def setup(name: str, seed: int):
    """Fresh-process import, families, inputs and expected answers; timed."""
    t0 = time.perf_counter()
    import cutstack  # noqa: F401
    import cutstack.cli  # noqa: F401
    from check import load_expected
    wl = build_workload(name, seed)
    expected = load_expected(name, seed)
    return wl, expected, time.perf_counter() - t0


def normalized_setup(name: str, seed: int):
    """Set-up time at reference speed, calibrated right after the set-up."""
    wl, expected, t = setup(name, seed)
    return wl, expected, t / slowness(time_calibration(5))


def setup_in_child(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_pass(queries, budget_s: float | None, tracer=None, observe=None,
             cal: list | None = None) -> list:
    """Closed loop: issue each query when the previous one returns.

    The client draws the next input between calls, and hands each answer to
    ``observe`` after the call; only the calls are timed. With ``cal``, the
    calibration loop is timed into it every CAL_EVERY_S of call time. Stops
    after the query that brings the summed call time to budget_s, or at the
    end of the queries. Returns the per-query latencies.
    """
    clock = time.perf_counter
    lat = []
    busy = 0.0
    next_cal = 0.0
    for q in queries:
        if cal is not None and busy >= next_cal:
            cal.extend(time_calibration(1))
            next_cal += CAL_EVERY_S
        if tracer is not None:
            tracer.qid = q.qid
        t0 = clock()
        try:
            result, err = q.run(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, err = None, f"{type(exc).__name__}: {exc}"
        dt = clock() - t0
        lat.append(dt)
        if observe is not None:
            observe(q, result, err)
        busy += dt
        if budget_s is not None and busy >= budget_s:
            break
    return lat


def tail(lat_sorted: list, pct: float) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) by nearest rank, falling back to
    the median when fewer than ten samples lie beyond pct."""
    n = len(lat_sorted)
    for p in (pct, 50.0):
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= 10:
            return lat_sorted[rank - 1], p, n - rank
    return lat_sorted[-1], 100.0, 0


def traced_metrics(tracer, lat_traced: list, wall_plain: float,
                   slow: float) -> tuple[dict, dict]:
    """Per-layer metrics of a traced pass. Self times and work counts are per
    query, so they do not grow with the number of queries a pass issues; times
    are at reference speed, like wall_plain."""
    from layertrace import ENGINE_WALKS
    n = len(lat_traced)
    wall_traced = sum(lat_traced) / slow
    layers, top = tracer.self_times()
    layers = {name: t / slow for name, t in layers.items()}
    top /= slow
    c, mx = tracer.counts, tracer.maxima
    rows = c["cli.rows_out"]
    support = c["products.support_runs"]
    walks_in_cli = tracer.count_under("cli", tuple(f"engine.{w}" for w in ENGINE_WALKS))
    per_q = {
        "engine.self_s": layers.get("engine", 0.0),
        "engine.calls": c["engine.calls"],
        "engine.walks": c["engine.walks"],
        "engine.stages_walked": c["engine.stages_walked"],
        "engine.states_out": c["engine.states_out"],
        "runs.self_s": layers.get("runs", 0.0),
        "runs.calls": c["runs.calls"],
        "runs.runs_in": c["runs.runs_in"],
        "runs.runs_out": c["runs.runs_out"],
        "products.self_s": layers.get("products", 0.0),
        "products.calls": c["products.calls"],
        "products.support_runs": support,
        "products.result_runs": c["products.result_runs"],
        "vl.self_s": layers.get("vl", 0.0),
        "vl.calls": c["vl.calls"],
        "vl.candidates": c["vl.candidates"],
        "vl.ie_terms": c["vl.ie_terms"],
        "tower.self_s": layers.get("tower", 0.0),
        "tower.calls": c["tower.calls"],
        "tower.lift_runs_out": c["tower.lift_runs_out"],
        "cli.self_s": layers.get("cli", 0.0),
        "cli.commands": c["cli.commands"],
        "cli.rows_out": rows,
        "afs4.self_s": layers.get("afs4", 0.0),
        "synthesis.self_s": layers.get("synthesis", 0.0),
        "familyfile.self_s": layers.get("familyfile", 0.0),
        "familyfile.loads": c["familyfile.loads"],
    }
    m = {k: (v / n, "s/query" if k.endswith("self_s") else "count/query")
         for k, v in per_q.items()}
    m["engine.lift_stage_max"] = (mx["engine.lift_stage_max"], "stage")
    m["products.useful_ratio"] = (c["products.result_runs"] / support if support else 0.0,
                                  "ratio")
    m["cli.walks_per_row"] = (walks_in_cli / rows if rows else 0.0, "ratio")
    m["trace.overhead_frac"] = ((wall_traced - wall_plain) / wall_plain, "ratio")
    info = {"queries": n, "wall_traced": wall_traced, "wrapped": top,
            "outside": wall_traced - top, "spans": len(tracer.start),
            "support_base": support, "walks_in_cli": walks_in_cli, "totals": per_q}
    return m, info


def run_all(args) -> int:
    """Every workload in its own process, then the known failing operation;
    prints each report and a summary with the failed/attempted counts."""
    here = Path(__file__).resolve().parent
    rows = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(here / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    proc = subprocess.run([sys.executable, str(here / "known_failures.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=900, check=True)
    print(proc.stdout, end="")
    known = json.loads(proc.stdout.strip().splitlines()[-1])
    print("summary:")
    for name, row in rows.items():
        values = " ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in row["metrics"].items())
        print(f"  {name:12s} failed_frac={row['failed']}/{row['attempted']} {values}")
    print(f"  {'known_failures':12s} failed_frac={known['failed']}/{known['attempted']} "
          f"({known['outcome']})")
    print(json.dumps({"workloads": rows, "known_failures": known}))
    return 0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them followed by known_failures.py")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time set-up in this process and print it (used for setup_s)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cutstack" / "__init__.py").is_file():
        print(f"error: no cutstack sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        _, _, t = normalized_setup(args.workload, args.seed)
        print(json.dumps({"setup_s": t}))
        return 0

    reset_outputs(args.workload)
    wl, expected, t_setup = normalized_setup(args.workload, args.seed)
    from check import Checker
    checker = Checker(wl, expected)
    run_pass(wl.warmup, WARMUP_SECONDS)
    cal = []
    lat = run_pass(wl.queries, args.seconds, observe=checker.observe, cal=cal)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = len(lat)
    wall = sum(lat)
    slow = slowness(cal)

    traced = None
    if args.trace:
        from layertrace import Tracer
        # the same queries again, drawn afresh from the seed before tracing starts
        again = list(islice(build_workload(args.workload, args.seed).queries, attempted))
        tracer = Tracer()
        cal_traced = []
        try:
            tracer.install()
            lat_traced = run_pass(again, None, tracer, cal=cal_traced)
        finally:
            tracer.remove()
        traced = traced_metrics(tracer, lat_traced, wall / slow, slowness(cal_traced))
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}.npz")

    checker.finish()
    failed = len(checker.failures)

    setup_samples = [t_setup] + [setup_in_child(args.workload, args.seed)
                                 for _ in range(SETUP_SAMPLES - 1)]
    setup_s = statistics.median(setup_samples)

    lat_sorted = sorted(lat)
    p50 = statistics.median(lat_sorted)
    tail_v, tail_p, beyond = tail(lat_sorted, TAIL_PERCENTILE)
    qps = attempted / wall

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} closed loop, 1 client, pid={os.getpid()}")
    print(f"machine: calibration median {statistics.median(cal) * 1e3:.4f} ms over "
          f"{len(cal)} samples, slowness {slow:.4f}; times below are at reference speed "
          f"(calibration {CAL_REF_S * 1e3:g} ms), measured values in brackets")
    print(f"queries_per_s   = {qps * slow:.4f} 1/s  [{qps:.4f}]  ({attempted} queries in "
          f"{wall:.3f} s of calls)")
    print(f"latency_p50_ms  = {p50 / slow * 1e3:.4f} ms  [{p50 * 1e3:.4f}]")
    print(f"latency_tail_ms = {tail_v / slow * 1e3:.4f} ms  [{tail_v * 1e3:.4f}]  "
          f"(p{tail_p:g}, {beyond} samples beyond, of {attempted})")
    print(f"setup_s         = {setup_s:.4f} s  (median of {len(setup_samples)}: "
          + ", ".join(f"{t:.3f}" for t in setup_samples) + ")")
    print(f"peak_rss_mb     = {peak_rss_mb:.2f} MB")
    print(f"failed_frac     = {failed / attempted:.6f}  ({failed} failed of {attempted} "
          f"attempted)")
    print("checks: " + " ".join(f"{k}={v}" for k, v in checker.counts.items()))
    for qid, why in sorted(checker.failures.items())[:20]:
        print(f"FAILED q{qid}: {why}")

    if traced is None:
        metrics = {"queries_per_s": (qps * slow, "1/s"),
                   "latency_p50_ms": (p50 / slow * 1e3, "ms"),
                   "latency_tail_ms": (tail_v / slow * 1e3, "ms"),
                   "setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        metrics, info = traced
        print(f"trace: {info['spans']} spans; traced wall {info['wall_traced']:.4f} s = "
              f"wrapped {info['wrapped']:.4f} s + outside any wrapper "
              f"{info['outside']:.4f} s; useful_ratio base = {info['support_base']} "
              f"support runs; engine walks under cli = {info['walks_in_cli']}")
        for k, (v, unit) in metrics.items():
            total = info["totals"].get(k)
            print(f"  {k:24s} {v:.6g} {unit}"
                  + ("" if total is None else f"  (total {total:.6g})"))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
