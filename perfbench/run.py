#!/usr/bin/env python3
"""The phonolid benchmark: one command per workload.

    python3 perfbench/run.py --workload serve_closed|serve_open \
        --seed N --seconds S --trace 0|1

Run from the root of a phonolid source tree.  The first run builds the
shipped `phonolid` binary and the probe from source into .bench_build/ (see
perfbench/CMakeLists.txt); later runs reuse that build.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are its per-layer metrics, taken from a
traced run whose spans are written as Chrome trace JSON under
.bench_build/traces/.  perfbench/README.md explains every metric.
"""
import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "cmake"
PHONOLID = BUILD_DIR / "phonolid" / "tools" / "phonolid"
PROBE = BUILD_DIR / "perfbench_probe"

# The serve bundle and its offline ledger come from this corpus/model seed
# (the program's default); --seed picks request order and arrival times.
MODEL_SEED = 20090704
SLO_MS = 250.0               # serve latency objective
SETUP_SAMPLES = 24           # set-ups per run, spread over it; setup_s is their median

WORKLOADS = {
    "serve_closed": {"mode": "closed", "tier": "all"},
    "serve_open": {"mode": "open", "tier": "3s"},
}


def log(msg):
    print(f"# {msg}", flush=True)


def fail(msg, code=1, log_path=None):
    if log_path is not None and Path(log_path).exists():
        sys.stderr.write("".join(Path(log_path).read_text().splitlines(True)[-40:]))
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(code)


# ------------------------------------------------------------------ spans --

class Spans:
    """Spans recorded by this script around each call into the program.

    Timestamps are CLOCK_MONOTONIC, the clock the probe uses, so the
    probe's own trace events merge into one timeline.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.events = []
        self.stack = []
        self.next_id = (os.getpid() << 32) + 1

    def open(self, name, **args):
        sid = self.next_id
        self.next_id += 1
        self.stack.append((sid, name, time.monotonic(), args))
        return sid

    def close(self, sid):
        top, name, start, args = self.stack.pop()
        assert top == sid, "spans closed out of order"
        if not self.enabled:
            return
        parent = self.stack[-1][0] if self.stack else 0
        self.events.append({
            "name": name, "ph": "X", "pid": os.getpid(), "tid": 0,
            "ts": start * 1e6, "dur": (time.monotonic() - start) * 1e6,
            "args": dict(args, id=sid, parent=parent),
        })

    def merge_file(self, path):
        if self.enabled and Path(path).exists():
            self.events.extend(json.loads(Path(path).read_text())["traceEvents"])

    def write(self, path, meta):
        doc = {"traceEvents": self.events, "displayTimeUnit": "ms",
               "otherData": meta}
        Path(path).write_text(json.dumps(doc) + "\n")


class span:
    def __init__(self, spans, name, **args):
        self.spans, self.name, self.args = spans, name, args

    def __enter__(self):
        self.sid = self.spans.open(self.name, **self.args)
        return self.sid

    def __exit__(self, *exc):
        self.spans.close(self.sid)


# ------------------------------------------------------------ statistics --

def percentile(values, q):
    """Nearest-rank percentile (an observed value, never interpolated)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values):
    return statistics.median(values)


# ------------------------------------------------------------------ build --

def run_logged(cmd, log_path, **kw):
    with open(log_path, "a") as out:
        out.write("$ " + " ".join(map(str, cmd)) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, **kw)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not a phonolid source tree (no CMakeLists.txt/src)", 2)
    BUILD_ROOT.mkdir(exist_ok=True)
    build_log = BUILD_ROOT / "build.log"
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        r = run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)],
                       build_log)
        if r.returncode != 0:
            fail(f"cmake configure failed, see {build_log}", log_path=build_log)
    r = run_logged(["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1),
                    "--target", "phonolid_cli", "perfbench_probe"], build_log)
    if r.returncode != 0:
        fail(f"build failed, see {build_log}", log_path=build_log)


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def source_digest():
    """Commit id when the tree is a git checkout, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, timeout=10)
            if r.returncode == 0:
                return r.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        p = ROOT / top
        files = [p] if p.is_file() else sorted(
            x for x in p.rglob("*") if x.is_file() and "__pycache__" not in x.parts)
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def machine_info(seed):
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    version = subprocess.run([str(PHONOLID), "version"], capture_output=True,
                             text=True).stdout
    fields = {}
    for line in version.splitlines():
        if ":" in line:
            k, v = line.split(":", 1)
            fields[k.strip()] = v.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": "gcc " + fields.get("compiler", "?"),
        "build_type": fields.get("build type", "?"),
        "phonolid_threads": os.environ.get("PHONOLID_THREADS", "default"),
        "commit": source_digest(),
        "seed": seed,
    }


# ----------------------------------------------------------- preparation --

def prepare_serve_inputs():
    """Bundle + offline ledger for MODEL_SEED, built once per binary.

    Outside every metric: the serve workloads measure the daemon, not the
    trainer that made its bundle.
    """
    prep = BUILD_ROOT / "prep" / file_digest(PHONOLID)[:16]
    if (prep / "done").exists():
        return prep
    tmp = prep.with_name(prep.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    common = ["--scale", "quick", "--seed", str(MODEL_SEED),
              "--cache-dir", str(tmp / "store")]
    steps = [
        [str(PHONOLID), "run", *common, "--ledger", str(tmp / "ledger.jsonl")],
        [str(PHONOLID), "freeze", *common, "--out", str(tmp / "bundle")],
    ]
    for cmd in steps:
        if run_logged(cmd, tmp / "prep.log").returncode != 0:
            fail("preparing the serve bundle failed", log_path=tmp / "prep.log")
    shutil.rmtree(tmp / "store")
    (tmp / "done").write_text("ok\n")
    shutil.rmtree(prep, ignore_errors=True)
    tmp.rename(prep)
    return prep


def ledger_llrs(path):
    """utt -> fused LLRs as %.17g strings, from a decision ledger."""
    out = {}
    with open(path) as f:
        next(f)  # header line
        for line in f:
            entry = json.loads(line)
            if entry.get("fused_llr"):
                out[str(entry["utt"])] = ["%.17g" % v for v in entry["fused_llr"]]
    return out


def check_llrs(served, ledger_path):
    """Served LLRs must %.17g-match the offline ledger, utterance by utterance.

    Returns a list of problems; empty means the daemon agrees bit for bit.
    """
    expected = ledger_llrs(ledger_path)
    problems = []
    if not served:
        problems.append("no utterance was served")
    for utt, llr in served.items():
        if utt not in expected:
            problems.append(f"utt {utt} is not in the ledger")
        elif llr != expected[utt]:
            problems.append(f"utt {utt}: served {llr[:2]}... != ledger {expected[utt][:2]}...")
    return problems


# ----------------------------------------------------------- processes --

def stop(proc, timeout=30):
    """SIGTERM, wait, SIGKILL if it does not drain in time."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def probe(args, spans, name):
    with span(spans, name) as sid:
        cmd = [str(PROBE), *map(str, args), "--span-parent", str(sid)]
        r = subprocess.run(cmd, capture_output=True, text=True)
    if r.returncode != 0 or not r.stdout.strip():
        sys.stderr.write(r.stderr[-4000:])
        return None
    return json.loads(r.stdout.strip().splitlines()[-1])


def start_daemon(bundle, work, spans):
    """Spawn `phonolid serve` and time it until its first ping succeeds."""
    port_file = work / "port"
    port_file.unlink(missing_ok=True)
    ready = subprocess.Popen([str(PROBE), "ready", "--port-file", str(port_file)],
                             stdout=subprocess.PIPE, text=True)
    try:
        if ready.stdout.readline().strip() != "armed":
            fail("probe did not arm")
        with span(spans, "setup.phonolid_serve"), open(work / "serve.log", "a") as log_file:
            t0 = time.monotonic()
            daemon = subprocess.Popen(
                [str(PHONOLID), "serve", "--bundle", str(bundle), "--port", "0",
                 "--port-file", str(port_file)],
                stdout=subprocess.DEVNULL, stderr=log_file)
            line = ready.stdout.readline().split()
    finally:
        ready.wait()
    if ready.returncode != 0 or len(line) != 2 or line[0] != "ready":
        stop(daemon)
        fail("the daemon never answered a ping", log_path=work / "serve.log")
    return daemon, int(port_file.read_text().split()[0]), float(line[1]) - t0


# ------------------------------------------------------------- workloads --

def load_summary(res):
    """End-to-end serve metrics from one probe load result."""
    lat = res["latency_ms"]
    ok, sent = res["ok"], res["requests"]
    return {
        "peak_rss_mb": res["daemon_hwm_mb"],
        "eer_pct": 100.0 * res.get("eer", float("nan")),
        "cavg_pct": 100.0 * res.get("cavg", float("nan")),
        "throughput_rps": ok / res["window_s"],
        "latency_p50_ms": percentile(lat, 50) if lat else float("nan"),
        "latency_p95_ms": percentile(lat, 95) if lat else float("nan"),
        "cpu_ms_per_req": 1e3 * res["daemon_cpu_s"] / max(ok, 1),
        "slo_attainment": sum(1 for v in lat if v <= SLO_MS) / max(sent, 1),
    }


def serve_problems(res, ledger=None):
    """Every request must come back OK with well-formed, repeatable LLRs
    that match the offline ledger (when there is one for the bundle)."""
    if res is None:
        return ["the load probe failed"]
    problems = []
    if res["failed"] or res["connect_errors"]:
        problems.append(f"{res['failed']} requests were not answered OK, "
                        f"{res['connect_errors']} connections failed")
    if res["wrong_answers"]:
        problems.append(f"{res['wrong_answers']} OK replies had the wrong number of LLRs")
    if res["repeat_mismatches"]:
        problems.append(f"{res['repeat_mismatches']} repeated scores differed")
    if ledger is not None:
        problems += check_llrs(res["llr"], ledger)
    return problems


def run_load(spec, args, port, daemon, seconds, spans, trace_out=None, tag="load"):
    cmd = ["load", "--port", port, "--pid", daemon.pid, "--mode", spec["mode"],
           "--seconds", seconds, "--seed", args.seed, "--model-seed", MODEL_SEED,
           "--tier", spec["tier"], "--tag", tag]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    res = probe(cmd, spans, f"probe.{tag}")
    if trace_out:
        spans.merge_file(trace_out)
    return res


def serve_workload(args, work, spans, ledger=None, bundle=None):
    spec = WORKLOADS[args.workload]
    if bundle is None:
        prep = prepare_serve_inputs()
        bundle, ledger = prep / "bundle", prep / "ledger.jsonl"
    # Half the set-ups before the load window (the last daemon serves it),
    # half after, so setup_s samples both ends of the run.
    setups = []

    def spawn_and_stop(count):
        for _ in range(count):
            d, _, t = start_daemon(bundle, work, spans)
            setups.append(t)
            stop(d)

    spawn_and_stop(SETUP_SAMPLES // 2 - 1)
    daemon, port, t = start_daemon(bundle, work, spans)
    setups.append(t)
    try:
        res = run_load(spec, args, port, daemon, args.seconds, spans)
    finally:
        stop(daemon)
    spawn_and_stop(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    problems = serve_problems(res, ledger)
    if res is None:
        return {"metrics": {}, "attempted": 1, "failed": 1, "problems": problems}
    metrics = {"setup_s": median(setups), **load_summary(res)}
    lat = res["latency_ms"]
    if lat:
        log(f"latency ms over {len(lat)} OK requests: p50 {percentile(lat, 50):.1f} "
            f"p95 {percentile(lat, 95):.1f} p99 {percentile(lat, 99):.1f} "
            f"({len(lat) - math.ceil(0.99 * len(lat))} beyond p99) max {max(lat):.1f}")
    log(f"{args.workload}: {res['requests']} requests, {res['ok']} ok, "
        f"window {res['window_s']:.2f}s")
    return {"metrics": metrics, "attempted": res["requests"], "failed": load_failed(res),
            "problems": problems}


def load_failed(res):
    return res["failed"] + res["wrong_answers"] + res["connect_errors"]


# ---------------------------------------------------------- traced runs --

def serve_layer_metrics(res):
    d = res["daemon"]
    phase_sum = (d["queue_wait_mean_ms"] + d["batch_wait_mean_ms"] +
                 d["compute_mean_ms"] + d["write_mean_ms"])
    late = res["late_ms"]
    return {
        "serve.daemon_latency_mean_ms": d["latency_mean_ms"],
        "serve.unattributed_mean_ms": res["send_latency_mean_ms"] - phase_sum,
        "serve.queue_wait_mean_ms": d["queue_wait_mean_ms"],
        "serve.batch_wait_mean_ms": d["batch_wait_mean_ms"],
        "serve.compute_mean_ms": d["compute_mean_ms"],
        "serve.write_mean_ms": d["write_mean_ms"],
        "serve.batch_size_mean": d["batch_size_mean"],
        "serve.sheds": d["sheds"],
        "loadgen.late_p99_ms": percentile(late, 99) if late else 0.0,
        "loadgen.sent_rps": res["requests"] / max(res["send_span_s"], 1e-9),
    }


def bracketed_load(spec, args, port, daemon, spans, trace_out):
    """Untraced, traced and untraced load windows on one daemon, a quarter,
    a half and a quarter of --seconds: the untraced windows bracket the
    traced one, so warm-up and drift fall on both sides of the comparison.

    Returns the three probe results and the tracing overhead in percent:
    the traced window's mean latency over the untraced windows' mean.
    """
    quarter = max(1.0, args.seconds / 4.0)
    windows = [
        run_load(spec, args, port, daemon, quarter, spans, tag="untraced_before"),
        run_load(spec, args, port, daemon, 2 * quarter, spans, trace_out=trace_out,
                 tag="traced"),
        run_load(spec, args, port, daemon, quarter, spans, tag="untraced_after"),
    ]
    if any(w is None or not w["latency_ms"] for w in windows):
        return windows, None
    before, traced, after = windows
    plain = statistics.fmean(before["latency_ms"] + after["latency_ms"])
    return windows, 100.0 * (statistics.fmean(traced["latency_ms"]) / plain - 1.0)


def traced_run(args, work, spans):
    """Per-layer metrics: the layer ladder, and the serve layers from a
    traced load window bracketed by untraced ones (for the tracing
    overhead), under the workload's own load."""
    spec = WORKLOADS[args.workload]
    problems, attempted, failed = [], 1, 0
    metrics = {}

    ladder = probe(["ladder", "--seed", MODEL_SEED, "--utt-seed", args.seed,
                    "--tier", spec["tier"], "--work-dir", work / "ladder",
                    "--trace-out", work / "ladder.trace.json"], spans, "probe.ladder")
    spans.merge_file(work / "ladder.trace.json")
    if ladder is None or ladder["batch_mismatches"]:
        return {"metrics": metrics, "attempted": attempted, "failed": 1,
                "problems": ["layer ladder failed or batched scores disagreed"]}
    metrics.update(ladder["metrics"])

    prep = prepare_serve_inputs()
    ledger = prep / "ledger.jsonl"
    daemon, port, _ = start_daemon(prep / "bundle", work, spans)
    try:
        windows, overhead = bracketed_load(spec, args, port, daemon, spans,
                                           work / "load.trace.json")
    finally:
        stop(daemon)
    for res in windows:
        problems += serve_problems(res, ledger)
        attempted += res["requests"] if res else 1
        failed += load_failed(res) if res else 1
    if overhead is not None:
        metrics.update(serve_layer_metrics(windows[1]))
        metrics["obs.trace_overhead_pct"] = overhead
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems}


# ------------------------------------------------------------------ main --

def load_declared():
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in decl["end_to_end"]},
            {m["name"]: m["unit"] for m in decl["per_layer"]})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json is missing from the tree root", 2)
    end_to_end, per_layer = load_declared()

    build()
    info = machine_info(args.seed)
    log("machine " + json.dumps(info, sort_keys=True))

    work = BUILD_ROOT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spans = Spans(enabled=bool(args.trace))
    try:
        with span(spans, f"workload.{args.workload}", seed=args.seed):
            if args.trace:
                result = traced_run(args, work, spans)
            else:
                result = serve_workload(args, work, spans)
        if args.trace:
            traces = BUILD_ROOT / "traces"
            traces.mkdir(exist_ok=True)
            trace_path = traces / f"{args.workload}-seed{args.seed}.trace.json"
            spans.write(trace_path, info)
            log(f"span trace: {trace_path} ({len(spans.events)} spans)")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = per_layer if args.trace else end_to_end
    metrics = result["metrics"]
    problems = list(result["problems"])
    missing = sorted(set(declared) - set(metrics))
    if missing:
        problems.append("metrics not measured: " + ", ".join(missing))
    bad = [k for k in declared if k in metrics and not math.isfinite(metrics[k])]
    if bad:
        problems.append("non-finite metrics: " + ", ".join(bad))
    for p in problems:
        print(f"perfbench: CHECK FAILED: {p}", file=sys.stderr)
    out = {
        "correct": not problems,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": metrics[k] if k in metrics and math.isfinite(metrics[k]) else 0.0,
                        "unit": unit} for k, unit in declared.items()},
    }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
