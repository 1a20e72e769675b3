#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--seconds 4] [--skip-smoke]

1. BENCHMARK.json is well formed: exact keys, valid and unique names and
   units, bounds within 0.25, a setup_s metric.
2. Smoke: every workload runs untraced and traced; the last stdout line is
   the result object, correct, and every metric BENCHMARK.json declares for
   that mode is emitted with its declared unit as a finite number.
3. A deliberately wrong reference ledger (one LLR moved by one ulp) makes
   the serve check fail, and the true ledger passes; so does a load result
   with a request not answered OK or an OK reply with the wrong LLR count.
4. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
Exit code 0 when every check passes.
"""
import argparse
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark itself)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def test_declaration():
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(set(decl) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, "BENCHMARK.json has exactly the contract's keys")
    check(decl["paths"] == ["perfbench"] and decl["command"][1] == "perfbench/run.py",
          "command runs perfbench/run.py inside paths")
    check(set(w["name"] for w in decl["workloads"]) == set(run.WORKLOADS),
          "declared workloads are the ones run.py implements")
    names = [m["name"] for m in decl["end_to_end"] + decl["per_layer"]]
    names += [w["name"] for w in decl["workloads"]]
    check(len(names) == len(set(names)), "metric and workload names are unique")
    check(all(NAME.match(n) for n in names), "names follow the naming rule")
    metrics = decl["end_to_end"] + decl["per_layer"]
    check(all(UNIT.match(m["unit"]) for m in metrics), "units follow the unit rule")
    check(all(m["better"] in ("higher", "lower") for m in metrics), "every metric has a direction")
    check(all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
              for m in decl["end_to_end"]), "every end-to-end metric has a bound <= 0.25")
    check(all(set(m) == {"name", "unit", "better"} for m in decl["per_layer"]),
          "per-layer metrics carry no bound")
    setup = [m for m in decl["end_to_end"] if m["name"] == "setup_s"]
    check(bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in decl["end_to_end"]),
          "setup_s is declared in s, lower is better, with the largest bound")
    return decl


def run_benchmark(cwd, workload, seconds, trace, seed=7):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def test_smoke(decl, seconds):
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = run_benchmark(ROOT, workload, seconds, trace)
            what = f"{workload} --trace {trace}"
            lines = r.stdout.strip().splitlines()
            try:
                out = json.loads(lines[-1])
            except (IndexError, ValueError):
                check(False, f"{what}: last stdout line is a JSON result")
                sys.stderr.write(r.stderr[-2000:])
                continue
            check(r.returncode == 0, f"{what}: exit code 0")
            check(set(out) == {"correct", "attempted", "failed", "metrics"},
                  f"{what}: result has exactly correct/attempted/failed/metrics")
            check(out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1,
                  f"{what}: correct, nothing failed")
            declared = {m["name"]: m["unit"] for m in decl[key]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            check(got == declared, f"{what}: every {key} metric emitted with its unit")
            check(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                      for v in out["metrics"].values()), f"{what}: values are finite numbers")


def test_wrong_ledger():
    run.build()
    prep = run.prepare_serve_inputs()
    work = run.BUILD_ROOT / "selftest-ledger"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    lines = (prep / "ledger.jsonl").read_text().splitlines()
    entry = json.loads(lines[1])
    entry["fused_llr"][0] = math.nextafter(entry["fused_llr"][0], math.inf)
    wrong = work / "wrong-ledger.jsonl"
    wrong.write_text("\n".join([lines[0], json.dumps(entry), *lines[2:]]) + "\n")
    args = argparse.Namespace(workload="serve_closed", seed=3, seconds=5.0, trace=0)
    spans = run.Spans(enabled=False)
    good = run.serve_workload(args, work, spans, ledger=prep / "ledger.jsonl",
                              bundle=prep / "bundle")
    bad = run.serve_workload(args, work, spans, ledger=wrong, bundle=prep / "bundle")
    shutil.rmtree(work, ignore_errors=True)
    check(not good["problems"], "serve check passes against the true offline ledger")
    check(any(f"utt {entry['utt']}:" in p for p in bad["problems"]),
          "serve check fails against a ledger with one LLR moved by one ulp")


def test_failed_requests():
    clean = {"failed": 0, "connect_errors": 0, "wrong_answers": 0, "repeat_mismatches": 0,
             "llr": {}}
    check(not run.serve_problems(clean), "a load result with every request OK passes")
    for key in ("failed", "connect_errors", "wrong_answers"):
        check(bool(run.serve_problems(dict(clean, **{key: 1}))),
              f"a load result with {key} = 1 fails the serve check")


def test_bare_directory():
    bare = run.BUILD_ROOT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = run_benchmark(bare, "serve_open", 2, 0)
    shutil.rmtree(bare, ignore_errors=True)
    check(r.returncode != 0 and '"correct"' not in r.stdout,
          "without the program's sources the benchmark fails without a result")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seconds", type=float, default=4.0)
    ap.add_argument("--skip-smoke", action="store_true")
    args = ap.parse_args()
    decl = test_declaration()
    test_failed_requests()
    test_bare_directory()
    test_wrong_ledger()
    if not args.skip_smoke:
        test_smoke(decl, args.seconds)
    print(f"\n{len(failures)} failed" if failures else "\nall checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
