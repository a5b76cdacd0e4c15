#!/usr/bin/env bash
# Tier-1 verification flow.
#
#   1. release build of the whole workspace, then `cargo clippy -D warnings`
#      over every target — libs, bins, tests, examples (the workspace is
#      lint-clean; keep it that way);
#   2. full test suite (unit + integration + property);
#
# Steps 3-11 are experiments of the one `reproduce` binary (exa-bench),
# run in two invocations: `reproduce paper` (the eleven paper artifacts —
# Figure 1, Tables 1-2, Figure 2, the §3 studies; Figure 1 gates its
# 0.90..=1.05 band) plus the default-thread gates, then the four gates
# pinned to EXA_THREADS=4. An experiment that fails its gate makes
# `reproduce` exit non-zero.
#
#   3. telemetry export: `profile_export` re-drives the instrumented Pele /
#      E3SM / GESTS paths and schema-checks its own output (non-empty spans,
#      totals > 0, counters consistent, Chrome-trace invariants) before
#      writing PROFILE_pele.json + PROFILE_pele.trace.json at the repo root,
#      keeping a per-PR telemetry trajectory next to BENCH_graph_fusion.json;
#   4. FOM ledger: `fom_ledger` runs the Table-2 campaign, appends to
#      FOM_LEDGER.json, gates on the regression sentinel, and proves the
#      sentinel detects an injected 2x slowdown;
#   5. overlap: the `comm_overlap` experiment gates >=1.3x on its own
#      comm-bound configuration and bit-identical FFT output;
#   6. parallel substrate: the full test suite re-runs under EXA_THREADS=1
#      and EXA_THREADS=4 (the scheduler's determinism contract says the
#      results cannot differ), and the `sim_throughput` experiment gates >=4x
#      on the 256-rank executed Pele step plus the executed 1024-rank
#      distributed FFT inside its wall budget;
#   7. substrate observability: `obs_export` re-drives the 256-rank
#      executed Pele campaign on 4 lanes with the pool/scheduler observer
#      attached, gates worker occupancy within 10% of wall x lanes, and
#      validates its own Prometheus + folded + Chrome-trace artifacts;
#      the `telemetry_overhead` experiment re-gates < 5% overhead with the
#      pool observer and histograms enabled (order-fair pair timer);
#   8. fault scenarios: `fault_scenarios` sweeps checkpoint intervals
#      against MTBF per Table-2 app (gating the optimum against Young/Daly),
#      runs the 256-rank Pele campaign under an MTBF failure schedule with
#      checkpoint/restart + stragglers (thread-deterministic, physics
#      bit-identical, restart/ time on the critical path), proves the
#      sentinel downgrades tagged chaos drills to warn, and re-runs GESTS
#      on a contended fabric with the overlap engine;
#   9. formatting: `cargo fmt --all -- --check` keeps the workspace
#      byte-stable under rustfmt, next to the clippy wall;
#  10. autotuner: the `autotune` experiment runs the exa-tune pipeline
#      (enumerate -> cost-select -> persist) over the three fft.* knobs,
#      proves TUNED.json is byte-identical across two tuner runs, gates
#      >= 1.25x measured wall on the 1024-rank 128^3 executed FFT round
#      trip and its repartition (transpose) cycle, and >= 1.05x on the
#      4096-rank DNS window, all three bit-identical to frozen; every
#      BENCH_* write also appends a timestamped line to
#      BENCH_HISTORY.jsonl, schema-checked below;
#  11. campaign service: `campaign_load` replays a zipf mix of 1M queries
#      over the eight Table-2 apps through the memoized `exa-serve` engine,
#      gating on >= 1M replayed queries, hit-ratio >= 0.9, p99 <= 50 ms,
#      >= 25k q/s, valid Prometheus/Chrome-trace surfaces, and an SLO drill
#      that flips exactly the drilled query class from pass to fail. It
#      rewrites METRICS.prom with the serve + pool metric surface.
#
# Every artifact the experiments write is then re-checked here through
# `check_artifact <file> <validator>` — the experiments gate themselves, but
# absence or schema drift of the written record is a hard failure too.
#
# Any step failing fails the flow.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo clippy --workspace --release --all-targets -- -D warnings
cargo fmt --all -- --check
for threads in 1 4; do
    EXA_THREADS=$threads cargo test -q
done
cargo run --release -q -p exa-bench --bin reproduce -- paper profile_export fom_ledger comm_overlap sim_throughput autotune
EXA_THREADS=4 cargo run --release -q -p exa-bench --bin reproduce -- obs_export telemetry_overhead fault_scenarios campaign_load

# --- Artifact schema validators --------------------------------------------
# Each validator takes the artifact path, prints its own diagnostic, and
# returns non-zero on schema drift. `check_artifact` adds the presence
# check and uniform failure reporting.

fail() { echo "tier1: $*" >&2; return 1; }

# First numeric value of "key": in a JSON artifact.
json_num() { awk -F'[:,]' -v k="\"$2\":" 'index($0, k) { gsub(/ /, "", $2); print $2; exit }' "$1"; }

num_ok() { awk -v a="$1" -v b="$3" "BEGIN { exit !(a $2 b) }"; }

check_present() { :; }

check_comm_overlap() {
    local speedup required eff
    speedup=$(json_num "$1" speedup)
    required=$(json_num "$1" speedup_required)
    eff=$(json_num "$1" overlap_efficiency)
    num_ok "$speedup" '>=' "$required" || fail "overlap speedup $speedup < $required" || return 1
    num_ok "$eff" '>=' 0.0 && num_ok "$eff" '<=' 1.0 \
        || fail "overlap efficiency $eff outside [0, 1]" || return 1
    grep -q '"pass": true' "$1" || fail "$1 did not pass its own gate" || return 1
}

check_fom_ledger() {
    local app digests
    for app in GAMESS LSMS GESTS ExaSky CoMet NuCCOR Pele COAST; do
        grep -q "\"app\": \"$app\"" "$1" || fail "$1 is missing $app" || return 1
    done
    digests=$(grep -c '"snapshot_digest"' "$1")
    [ "$digests" -ge 8 ] || fail "$1 has only $digests digests" || return 1
}

check_sim_throughput() {
    local speedup wall budget bits
    speedup=$(json_num "$1" speedup_vs_gmres)
    num_ok "$speedup" '>=' 4.0 || fail "substrate speedup $speedup < 4.0" || return 1
    wall=$(json_num "$1" wall_s)
    budget=$(json_num "$1" budget_s)
    num_ok "$wall" '>' 0.0 && num_ok "$wall" '<=' "$budget" \
        || fail "executed FFT wall $wall outside budget $budget" || return 1
    grep -q '"executed": true' "$1" || fail "FFT milestone is not executed" || return 1
    bits=$(grep -c '"bit_identical": true' "$1")
    [ "$bits" -ge 2 ] || fail "substrate output is not bit-identical across threads" || return 1
    grep -q '"pass": true' "$1" || fail "$1 did not pass its own gate" || return 1
}

check_substrate() {
    local occ wtracks
    grep -q '"pass": true' "$1" || fail "$1 did not pass its own gate" || return 1
    occ=$(json_num "$1" occupancy)
    num_ok "$occ" '>=' 0.9 && num_ok "$occ" '<=' 1.1 \
        || fail "substrate occupancy $occ outside [0.9, 1.1]" || return 1
    wtracks=$(json_num "$1" worker_tracks)
    [ "$wtracks" -ge 4 ] || fail "only $wtracks worker tracks in $1" || return 1
}

check_metrics_prom() {
    grep -q '^# TYPE exa_pool_tasks_total counter' "$1" \
        || fail "$1 is missing the pool task counter family" || return 1
    grep -q '_bucket{le="+Inf"}' "$1" \
        || fail "$1 carries no histogram families" || return 1
    grep -q '^# TYPE exa_serve_latency_s histogram' "$1" \
        || fail "$1 is missing the serve latency histogram family" || return 1
    grep -q '^exa_serve_requests_total ' "$1" \
        || fail "$1 is missing the serve request counter" || return 1
    grep -q 'exa_serve_latency_s_bucket{app=' "$1" \
        || fail "$1 carries no per-app labeled latency series" || return 1
}

check_pele_folded() {
    grep -q ';task ' "$1" || fail "$1 carries no worker task frames" || return 1
}

check_telemetry_overhead() {
    local ratio
    ratio=$(json_num "$1" amortized_ratio)
    num_ok "$ratio" '>' 0.0 && num_ok "$ratio" '<' 1.05 \
        || fail "telemetry overhead ratio $ratio not under 1.05 with observer enabled" || return 1
    grep -q '"pass": true' "$1" || fail "$1 did not pass its own gate" || return 1
}

check_fault_scenarios() {
    local sweep_pts restarts
    grep -q '"pass": true' "$1" || fail "$1 did not pass its own gate" || return 1
    sweep_pts=$(grep -c '"interval_s":' "$1")
    [ "$sweep_pts" -ge 8 ] || fail "fault sweep has only $sweep_pts points" || return 1
    awk -F'[:,]' '
        /"ideal_fom":/    { gsub(/ /, "", $2); ideal = $2 }
        /"achieved_fom":/ { gsub(/ /, "", $2); if ($2 + 0 > ideal + 0) bad = 1 }
        END { exit bad }' "$1" \
        || fail "$1 has achieved FOM above ideal" || return 1
    if grep -q '"scenario": ""' "$1"; then
        fail "$1 carries an empty scenario tag" || return 1
    fi
    restarts=$(json_num "$1" restarts)
    [ "$restarts" -ge 1 ] || fail "faulted Pele campaign restarted $restarts times (need >= 1)" || return 1
}

check_autotune() {
    local fft transpose dns bits
    grep -q '"pass": true' "$1" || fail "$1 did not pass its own gate" || return 1
    grep -q '"table_identical": true' "$1" \
        || fail "TUNED.json differed across two tuner runs" || return 1
    fft=$(json_num "$1" speedup_fft)
    num_ok "$fft" '>=' 1.25 || fail "autotuned FFT speedup $fft < 1.25" || return 1
    transpose=$(json_num "$1" speedup_transpose)
    num_ok "$transpose" '>=' 1.25 || fail "autotuned transpose speedup $transpose < 1.25" || return 1
    dns=$(json_num "$1" speedup_dns)
    num_ok "$dns" '>=' 1.05 || fail "autotuned DNS window ratio $dns < 1.05" || return 1
    bits=$(grep -c '"bit_identical": true' "$1")
    [ "$bits" -ge 3 ] || fail "only $bits bit-identical paths in $1 (need 3)" || return 1
}

check_tuned_table() {
    local key
    grep -q '"knobs"' "$1" || fail "$1 carries no knob table" || return 1
    for key in fft.gather fft.line_batch fft.overlap_k; do
        grep -q "\"$key\":" "$1" || fail "$1 is missing the $key knob" || return 1
    done
    [ "$(grep -c '^    "' "$1")" -eq 3 ] || fail "$1 must carry exactly the three fft.* knobs" || return 1
}

check_bench_history() {
    local lines
    lines=$(wc -l < "$1")
    [ "$lines" -ge 1 ] || fail "$1 is empty" || return 1
    # Explicit digit repetitions: mawk has no {n} interval expressions.
    awk '
        !/^\{"ts": [0-9]+, "date": "[0-9][0-9][0-9][0-9]-[0-9][0-9]-[0-9][0-9]T[0-9][0-9]:[0-9][0-9]:[0-9][0-9]Z", "artifact": "[A-Za-z_]+", "record": \{/ { bad = 1 }
        END { exit bad }' "$1" \
        || fail "$1 has lines outside the history schema" || return 1
    grep -q '"artifact": "BENCH_autotune"' "$1" \
        || fail "$1 never recorded the autotune gate" || return 1
}

check_campaign_service() {
    local replayed ratio p99 qps
    grep -q '"pass": true' "$1" || fail "$1 did not pass its own gate" || return 1
    replayed=$(json_num "$1" queries_replayed)
    [ "$replayed" -ge 1000000 ] || fail "campaign replayed only $replayed queries (need >= 1M)" || return 1
    ratio=$(json_num "$1" hit_ratio)
    num_ok "$ratio" '>=' 0.9 || fail "campaign hit-ratio $ratio < 0.9" || return 1
    p99=$(json_num "$1" p99_s)
    num_ok "$p99" '<=' 0.05 || fail "campaign p99 $p99 s > 0.05 s" || return 1
    qps=$(json_num "$1" qps)
    num_ok "$qps" '>=' 25000 || fail "campaign throughput $qps q/s < 25k" || return 1
    grep -q '"class": "CoMet"' "$1" || fail "SLO drill rows missing from $1" || return 1
    awk '
        /"class": "CoMet"/ { comet = 1 }
        comet && /"drill":/ { in_drill = 1 }
        comet && in_drill && /"verdict": "Fail"/ { flipped = 1 }
        comet && in_drill && /}/ { comet = 0; in_drill = 0 }
        END { exit !flipped }' "$1" \
        || fail "SLO drill did not flip CoMet to Fail in $1" || return 1
}

check_artifact() {
    local file=$1 validator=$2
    [ -s "$file" ] || { echo "tier1: missing artifact $file" >&2; exit 1; }
    "$validator" "$file" || { echo "tier1: $file failed $validator" >&2; exit 1; }
}

check_artifact PROFILE_pele.json            check_present
check_artifact PROFILE_pele.trace.json      check_present
check_artifact BENCH_comm_overlap.json      check_comm_overlap
check_artifact FOM_LEDGER.json              check_fom_ledger
check_artifact BENCH_sim_throughput.json    check_sim_throughput
check_artifact PROFILE_substrate.json       check_substrate
check_artifact METRICS.prom                 check_metrics_prom
check_artifact PROFILE_pele.folded          check_pele_folded
check_artifact BENCH_telemetry_overhead.json check_telemetry_overhead
check_artifact BENCH_fault_scenarios.json   check_fault_scenarios
check_artifact BENCH_campaign_service.json  check_campaign_service
check_artifact BENCH_autotune.json          check_autotune
check_artifact TUNED.json                   check_tuned_table
check_artifact BENCH_HISTORY.jsonl          check_bench_history

echo "tier1: build + clippy + fmt + tests (EXA_THREADS=1,4) + paper experiments + telemetry export + fom ledger + overlap + substrate benches + autotune + observability export + fault scenarios + campaign service all green"
