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
# In addition to the per-row budgets, the baseline's "sharding_gate"
# entry pins the sharded-loop scaling claim (ROADMAP open item 1): on
# runners with >= min_cores cores, the sharded 1000-vCPU row must beat
# the single-threaded loop's linearly-extrapolated p50 (from the
# 160-vCPU row of the same run) by >= min_speedup. On smaller runners —
# where the scoped-thread fan-out degenerates to the serial fallback —
# the gate enforces the shard-overhead bound instead: sharding may cost
# at most max_overhead_single_core over the unsharded loop at the same
# vCPU count. The "events_gate" entry applies the same two-sided check
# to the event core's parallel node advance: events/replay_1200nodes
# (auto worker count) must beat its forced-serial twin by >= min_speedup
# on >= min_cores cores, and may cost at most max_overhead_single_core
# over it on few-core runners.
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
shards = {b["bench"]: b.get("shards", 1) for b in baseline["benches"]}
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
    f"{'bench':<34} {'shards':>6} {'before':>8} {'p50_us':>8} {'budget_us':>10} "
    f"{'events/s':>10}  verdict"
)
for bench, budget in sorted(budgets.items()):
    allowed = budget * scale
    n_shards = shards[bench]
    before = before_p50.get(bench)
    before_s = f"{before:.0f}" if before is not None else "-"
    rec = measured.get(bench)
    if rec is None:
        failed.append(
            (bench, f"[{n_shards} shard(s)] no measurement in the run output (budget {allowed:.0f} µs)")
        )
        print(
            f"{bench:<34} {n_shards:>6} {before_s:>8} {'-':>8} {allowed:>10.0f} "
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
                f"[{n_shards} shard(s)] p50 {p50} µs vs budget {allowed:.0f} µs "
                f"({p50 / allowed:.2f}x over)",
            )
        )
    print(
        f"{bench:<34} {n_shards:>6} {before_s:>8} {p50:>8} {allowed:>10.0f} "
        f"{eps_s:>10}  {'ok' if ok else 'OVER BUDGET'}"
    )

# ---- sharded scaling gate ------------------------------------------------
gate = baseline.get("sharding_gate")
if gate:
    cores = os.cpu_count() or 1
    s_bench, s_shards = gate["sharded"], shards.get(gate["sharded"], 1)
    ref, (ref_v, tgt_v) = gate["reference"], gate["scale_vcpus"]
    have = all(b in measured for b in (s_bench, ref, gate["overhead_reference"]))
    if not have:
        failed.append((s_bench, "sharding gate: required rows missing from the run"))
    elif cores >= gate["min_cores"]:
        extrapolated = measured[ref]["p50_us"] * tgt_v / ref_v
        target = extrapolated / gate["min_speedup"]
        p50 = measured[s_bench]["p50_us"]
        verdict = "ok" if p50 <= target else "TOO SLOW"
        print(
            f"\nsharding gate ({cores} cores): {s_bench} [{s_shards} shard(s)] "
            f"p50 {p50} µs vs extrapolated single-thread {extrapolated:.0f} µs "
            f"/ {gate['min_speedup']} = {target:.0f} µs  {verdict}"
        )
        if p50 > target:
            failed.append(
                (
                    s_bench,
                    f"[{s_shards} shard(s)] p50 {p50} µs misses the >={gate['min_speedup']}x "
                    f"speedup target {target:.0f} µs (single-thread extrapolated "
                    f"{extrapolated:.0f} µs from {ref})",
                )
            )
    else:
        # Few-core runner: the parallel fan-out cannot win; bound the
        # price of sharding instead of the speedup.
        base = measured[gate["overhead_reference"]]["p50_us"]
        limit = base * gate["max_overhead_single_core"]
        p50 = measured[s_bench]["p50_us"]
        verdict = "ok" if p50 <= limit else "OVERHEAD"
        print(
            f"\nsharding gate ({cores} cores < {gate['min_cores']}: speedup check skipped): "
            f"{s_bench} [{s_shards} shard(s)] p50 {p50} µs vs overhead bound "
            f"{limit:.0f} µs ({gate['max_overhead_single_core']}x unsharded)  {verdict}"
        )
        if p50 > limit:
            failed.append(
                (
                    s_bench,
                    f"[{s_shards} shard(s)] p50 {p50} µs exceeds the few-core "
                    f"shard-overhead bound {limit:.0f} µs "
                    f"({gate['max_overhead_single_core']}x {gate['overhead_reference']})",
                )
            )

# ---- parallel event-stepping gate ----------------------------------------
# Same two-sided shape as the sharding gate: the auto-threaded replay
# must beat its forced-serial twin on multi-core runners, and may cost
# at most a small overhead factor where only one core exists (there the
# fan-out degenerates to the serial loop and any gap is pure shim cost).
egate = baseline.get("events_gate")
if egate:
    cores = os.cpu_count() or 1
    par, ser = egate["parallel"], egate["serial"]
    if par not in measured or ser not in measured:
        failed.append((par, "events gate: required rows missing from the run"))
    else:
        p_par, p_ser = measured[par]["p50_us"], measured[ser]["p50_us"]
        if cores >= egate["min_cores"]:
            target = p_ser / egate["min_speedup"]
            verdict = "ok" if p_par <= target else "TOO SLOW"
            print(
                f"\nevents gate ({cores} cores): {par} p50 {p_par} µs vs serial "
                f"{p_ser} µs / {egate['min_speedup']} = {target:.0f} µs  {verdict}"
            )
            if p_par > target:
                failed.append(
                    (
                        par,
                        f"p50 {p_par} µs misses the >={egate['min_speedup']}x parallel "
                        f"speedup target {target:.0f} µs (serial twin {p_ser} µs)",
                    )
                )
        else:
            limit = p_ser * egate["max_overhead_single_core"]
            verdict = "ok" if p_par <= limit else "OVERHEAD"
            print(
                f"\nevents gate ({cores} cores < {egate['min_cores']}: speedup check "
                f"skipped): {par} p50 {p_par} µs vs overhead bound {limit:.0f} µs "
                f"({egate['max_overhead_single_core']}x {ser})  {verdict}"
            )
            if p_par > limit:
                failed.append(
                    (
                        par,
                        f"p50 {p_par} µs exceeds the few-core parallel-stepping "
                        f"overhead bound {limit:.0f} µs "
                        f"({egate['max_overhead_single_core']}x {ser})",
                    )
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
