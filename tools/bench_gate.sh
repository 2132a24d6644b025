#!/usr/bin/env bash
# Regression gate for the controller-loop, host-engine and
# filesystem-backend benchmarks.
#
# Re-runs crates/bench/benches/{controller,scheduler,fs_backend}.rs with
# the vendored criterion shim's JSON export and compares each bench's p50
# against the budget_us recorded in BENCH_controller.json. Budgets are ~4x
# the committed after-p50 (2x on the fs_backend/* rows, which keeps them
# under their "before"), so the gate trips on order-of-magnitude
# regressions, not on shared-runner jitter. VFC_BENCH_GATE_SCALE (default 1.0) multiplies
# every budget for unusually slow machines.
#
# Rows whose baseline "before" is null are fine (benches that postdate
# the seed have nothing to compare against); the summary prints "-" for
# them, and events/* rows with an "events_per_sample" count also get an
# events/s figure derived from the measured p50.
#
# Usage: tools/bench_gate.sh [baseline.json]
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=${1:-BENCH_controller.json}
OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT

VFC_BENCH_WARMUP=${VFC_BENCH_WARMUP:-20} \
VFC_BENCH_SAMPLES=${VFC_BENCH_SAMPLES:-120} \
VFC_BENCH_JSON="$OUT" \
  cargo bench -q -p vfc-bench --bench controller

# The host engine rows (engine_tick/*, host_period/*): the simulated host
# is most of a node_sim period and of a trace replay, and had no alarm.
VFC_BENCH_WARMUP=${VFC_BENCH_WARMUP:-20} \
VFC_BENCH_SAMPLES=${VFC_BENCH_SAMPLES:-120} \
VFC_BENCH_JSON="$OUT" \
  cargo bench -q -p vfc-bench --bench scheduler

# The filesystem-backend rows (fs_backend/*): the one backend that drives
# a real host. Its fixture tree goes on tmpfs where there is one, so the
# rows time the backend's system calls rather than a journal.
fs_tmp=${TMPDIR:-/tmp}
[ -d /dev/shm ] && [ -w /dev/shm ] && fs_tmp=/dev/shm
TMPDIR="$fs_tmp" \
VFC_BENCH_WARMUP=${VFC_BENCH_WARMUP:-20} \
VFC_BENCH_SAMPLES=${VFC_BENCH_SAMPLES:-120} \
VFC_BENCH_JSON="$OUT" \
  cargo bench -q -p vfc-bench --bench fs_backend

# The placement-index microbench rows (placement/*) live in the
# vfc-placement crate so placement regressions are caught independently
# of the full replay; append its JSON lines to the same run file.
VFC_BENCH_WARMUP=${VFC_BENCH_WARMUP:-20} \
VFC_BENCH_SAMPLES=${VFC_BENCH_SAMPLES:-120} \
VFC_BENCH_JSON="$OUT" \
  cargo bench -q -p vfc-placement --bench index

python3 - "$BASELINE" "$OUT" <<'EOF'
import json, os, sys

baseline_path, run_path = sys.argv[1], sys.argv[2]
scale = float(os.environ.get("VFC_BENCH_GATE_SCALE", "1.0"))

with open(baseline_path) as f:
    baseline = json.load(f)
budgets = {b["bench"]: b["budget_us"] for b in baseline["benches"]}
# "before" is null for benches that postdate the seed — treat the two
# shapes uniformly: a p50 when present, a "-" placeholder otherwise.
before_p50 = {
    b["bench"]: (b.get("before") or {}).get("p50_us") for b in baseline["benches"]
}
events_per_sample = {
    b["bench"]: b["events_per_sample"]
    for b in baseline["benches"]
    if "events_per_sample" in b
}

# The shim appends one line per bench; keep the last run of each.
measured = {}
with open(run_path) as f:
    for line in f:
        line = line.strip()
        if line:
            rec = json.loads(line)
            measured[rec["bench"]] = rec

failed = []  # (bench, reason) pairs, one per failing row
print(
    f"{'bench':<34} {'before':>8} {'p50_us':>8} {'budget_us':>10} "
    f"{'events/s':>10}  verdict"
)
for bench, budget in sorted(budgets.items()):
    allowed = budget * scale
    before = before_p50.get(bench)
    before_s = f"{before:.0f}" if before is not None else "-"
    rec = measured.get(bench)
    if rec is None:
        failed.append(
            (bench, f"no measurement in the run output (budget {allowed:.0f} µs)")
        )
        print(
            f"{bench:<34} {before_s:>8} {'-':>8} {allowed:>10.0f} "
            f"{'-':>10}  MISSING"
        )
        continue
    p50 = rec["p50_us"]
    # events/* rows carry a fixed per-sample event count in the
    # baseline; express the measured p50 as replay throughput too.
    eps = events_per_sample.get(bench)
    eps_s = f"{eps / p50 * 1e6:,.0f}" if eps and p50 > 0 else "-"
    ok = p50 <= allowed
    if not ok:
        failed.append(
            (
                bench,
                f"p50 {p50} µs vs budget {allowed:.0f} µs ({p50 / allowed:.2f}x over)",
            )
        )
    print(
        f"{bench:<34} {before_s:>8} {p50:>8} {allowed:>10.0f} "
        f"{eps_s:>10}  {'ok' if ok else 'OVER BUDGET'}"
    )

if failed:
    print(f"\nbench gate FAILED ({len(failed)} check(s)):", file=sys.stderr)
    for bench, reason in failed:
        print(f"  {bench}: {reason}", file=sys.stderr)
    if scale != 1.0:
        print(f"  (budgets scaled by VFC_BENCH_GATE_SCALE={scale})", file=sys.stderr)
    print("(rebless BENCH_controller.json only with a same-machine before/after run)", file=sys.stderr)
    sys.exit(1)
print("\nbench gate passed")
EOF
