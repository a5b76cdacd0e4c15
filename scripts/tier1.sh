#!/usr/bin/env bash
# Tier-1 verification flow; any failing step fails it.
#
#   1. release build of the workspace;
#   2. clippy -D warnings over every target (libs, bins, tests, examples);
#   3. rustfmt check of the whole workspace;
#   4. rustdoc of the workspace with warnings as errors, so a moved or
#      deleted item cannot leave a dangling doc link;
#   5. every workspace test, at EXA_THREADS=1 and at EXA_THREADS=4;
#   6. the benchmark's own tests (exabench/), so an API change the benchmark
#      imports fails here rather than in a benchmark run;
#   7. `reproduce paper` (the eleven paper artifacts) and five gates;
#   8. the four gates that pin EXA_THREADS=4;
#   9. every BENCHMARK.json workload for 1 s, untraced: the benchmark's own
#      answer check must report `"correct": true` and `"failed": 0`.
#
# Each experiment checks the artifacts it writes and makes `reproduce` exit
# non-zero on a failed check; `reproduce list` names what each one gates.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo clippy --workspace --release --all-targets -- -D warnings
cargo fmt --all -- --check
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
for threads in 1 4; do
    EXA_THREADS=$threads cargo test --workspace -q
done
cargo test --offline -q --manifest-path exabench/Cargo.toml
cargo run --release -q -p exa-bench --bin reproduce -- paper user_guide profile_export fom_ledger comm_overlap sim_throughput autotune
EXA_THREADS=4 cargo run --release -q -p exa-bench --bin reproduce -- obs_export telemetry_overhead fault_scenarios campaign_load
for workload in $(sed -n '/"workloads"/,/"end_to_end"/s/.*"name": "\([^"]*\)".*/\1/p' BENCHMARK.json); do
    last=$(cargo run --release --offline -q --manifest-path exabench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
    if [[ $last != *'"correct": true'* || $last != *'"failed": 0,'* ]]; then
        echo "tier1: exabench $workload failed its answer check: $last" >&2
        exit 1
    fi
done

echo "tier1: build + clippy + fmt + rustdoc + workspace tests (EXA_THREADS=1,4) + exabench tests + paper experiments + gates + benchmark answer checks all green"
