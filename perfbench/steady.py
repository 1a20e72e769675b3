#!/usr/bin/env python3
"""Steadiness runner: repeat each workload and report the spread of every metric.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--trace 0|1] [--seconds S] [--record FILE --label L]

Runs perfbench/run.py --runs times per workload, each with another seed, and
prints for every metric its median, first and third quartile
(statistics.quantiles(n=4)) and the spread (q3 - q1) / median.  An
end-to-end metric whose spread exceeds its bound in BENCHMARK.json is
flagged; the exit code is 1 when any metric is flagged or any run fails its
checks.
--record appends the medians and quartiles, with the machine and build
each run reported, as one JSON line (a trajectory point).
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.monotonic() - t0
    lines = r.stdout.strip().splitlines()
    machine = next((json.loads(l.split(" ", 2)[2]) for l in lines
                    if l.startswith("# machine ")), {})
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr[-2000:])
        return None, machine, elapsed
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(r.stderr[-2000:])
    return result, machine, elapsed


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf")}


def main():
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in decl["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=decl["run_seconds"])
    ap.add_argument("--record", help="append a trajectory point to this JSONL file")
    ap.add_argument("--label", default="")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 to have quartiles")

    bounds = {m["name"]: m.get("bound") for m in decl["end_to_end"]}
    flagged, failures = [], 0
    point = {"label": args.label, "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "run_seconds": args.seconds, "runs": args.runs, "trace": args.trace,
             "machine": None, "workloads": {}}
    for workload in args.workloads.split(","):
        values, units = {}, {}
        for i in range(args.runs):
            seed = args.first_seed + i
            result, machine, elapsed = run_once(workload, seed, args.seconds, args.trace)
            point["machine"] = point["machine"] or {k: v for k, v in machine.items() if k != "seed"}
            if result is None or not result["correct"] or result["failed"]:
                failures += 1
                print(f"{workload} seed {seed}: FAILED ({elapsed:.0f}s)", flush=True)
                continue
            print(f"{workload} seed {seed}: ok ({elapsed:.0f}s, {result['attempted']} attempted)",
                  flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"\n{workload}: {args.runs} runs")
        print(f"  {'metric':40s} {'unit':8s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        summary = {}
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            s = summarize(vals)
            summary[name] = {k: s[k] for k in ("median", "q1", "q3")}
            bound = bounds.get(name) if not args.trace else None
            flag = ""
            if bound is not None and s["spread"] > bound:
                flag = "  SPREAD > BOUND"
                flagged.append(f"{workload}/{name}")
            elif bound is not None and s["spread"] > bound / 3:
                flag = "  (over a third of bound)"
            print(f"  {name:40s} {units[name]:8s} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:8.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")
        point["workloads"][workload] = summary
        print(flush=True)
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps(point, sort_keys=True) + "\n")
    if flagged:
        print("flagged: " + ", ".join(flagged))
    if failures:
        print(f"{failures} runs failed")
    return 1 if flagged or failures else 0


if __name__ == "__main__":
    sys.exit(main())
