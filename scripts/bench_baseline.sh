#!/usr/bin/env bash
# Regenerate the committed run-report baselines that `phonolid report-diff`
# gates against (see DESIGN.md "Observability" and scripts/tier1.sh).
#
#   scripts/bench_baseline.sh [scale]     # scale: quick|default|full
#
# Writes BENCH_<scale>_{run,det,votes}.json at the repo root from the CLI
# subcommands.  Reports embed wall-clock span timings, so regenerate on the
# reference machine before committing; the tier-1 gate only checks the
# deterministic accuracy leaves (EER/Cavg), never timings, exactly so that
# baselines stay meaningful across machines.
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${1:-default}"
case "$SCALE" in
  quick|default|full) ;;
  *) echo "usage: $0 [quick|default|full]" >&2; exit 2 ;;
esac

PHONOLID="build/tools/phonolid"
if [[ ! -x "$PHONOLID" ]]; then
  echo "error: $PHONOLID not built (run: cmake -B build -S . && cmake --build build -j)" >&2
  exit 1
fi

# Baselines always carry the deterministic software energy model so the
# tier-1 energy gate (`report-diff --gate 'energy/total_joules:rel<=0.01'`
# and its per-utterance siblings) has joule leaves to compare.  NOTE: software joules measure work actually done — regenerate
# BENCH_<scale>_run.json with a *fresh* store (unset/clear PHONOLID_CACHE)
# or the warm `run` will bake in a fraction of the cold energy and the
# tier-1 cold-cache smoke will trip its gate.
export PHONOLID_ENERGY=software

# Baselines never carry live profile data: sample counts and shares are
# machine-dependent, so a baseline with them would make every tier-1
# self-share diff noisy.  The committed reports record the profiler as
# explicitly off; profiled runs still diff clean against them (a missing
# numeric profile section is a note, never a violation).
export PHONOLID_PROFILE=off

# All three commands build the same experiment, so share one artifact store:
# `run` trains and decodes everything cold, `det` and `votes` pull every
# stage warm.  The same store also serves the bench/ binaries (they read
# $PHONOLID_CACHE via Experiment::build).  Accuracy leaves are unaffected —
# artifacts are bit-identical to a cold computation by construction.
export PHONOLID_CACHE="${PHONOLID_CACHE:-$PWD/.phonolid-cache}"
echo "=== artifact store: $PHONOLID_CACHE"

for cmd in run det votes; do
  out="BENCH_${SCALE}_${cmd}.json"
  echo "=== $cmd --scale $SCALE -> $out"
  "$PHONOLID" "$cmd" --scale "$SCALE" --report "$out"
done

# Serve baseline (quick scale only — that is what tier-1 gates): freeze a
# bundle from the warm store, bring up the daemon on an ephemeral port, and
# record the load generator's report as BENCH_serve.json.  The gated leaves
# (latency p99/p99.9, throughput, per-phase p99 from the daemon's phase
# histograms) are machine-dependent: regenerate on the reference machine,
# then re-check tier-1's serve gate thresholds against repeated runs.
if [[ "$SCALE" == "quick" ]]; then
  echo "=== bench_serve -> BENCH_serve.json"
  TMP="$(mktemp -d)"
  trap 'rm -rf "$TMP"' EXIT
  "$PHONOLID" run --scale quick --ledger "$TMP/offline.jsonl" > /dev/null
  "$PHONOLID" freeze --scale quick --out "$TMP/bundle" > /dev/null
  "$PHONOLID" serve --bundle "$TMP/bundle" --port 0 \
    --port-file "$TMP/serve.port" > "$TMP/serve.log" 2>&1 &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    [ -s "$TMP/serve.port" ] && break
    sleep 0.1
  done
  ./build/bench/bench_serve --port "$(cat "$TMP/serve.port")" --scale quick \
    --connections 8 --ledger "$TMP/offline.jsonl" --min-batch-p50 2 \
    --report BENCH_serve.json
  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID"
  echo "baseline written: BENCH_serve.json"
fi

echo "baselines written: BENCH_${SCALE}_{run,det,votes}.json"
