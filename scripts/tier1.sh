#!/usr/bin/env bash
# Tier-1 verification flow; any failing step fails it, after every step ran.
#
#   1. release build of the workspace;
#   2. clippy -D warnings over every target (libs, bins, tests, examples);
#   3. rustfmt check of the whole workspace;
#   4. rustdoc of the workspace with warnings as errors, so a moved or
#      deleted item cannot leave a dangling doc link;
#   5. the reachability check: with every library `pub` demoted, the
#      compiler shows each public item of the library crates reached from
#      an experiment, the benchmark or an example, or it is a listed
#      survivor (scripts/reach.py --check, about 50 s);
#   6. every workspace test, at EXA_THREADS=1 and at EXA_THREADS=4;
#   7. the benchmark's own tests (exabench/), so an API change the benchmark
#      imports fails here rather than in a benchmark run;
#   8. each example (examples/*.rs), one step apiece, so that its `assert!`s
#      check something: an example that panics exits non-zero;
#   9. `reproduce paper` (the thirteen paper artifacts) and five gates;
#  10. the four gates that pin EXA_THREADS=4;
#  11. every BENCHMARK.json workload for 1 s, untraced: the benchmark's own
#      answer check must report `"correct": true` and `"failed": 0`.
#
# Each experiment checks the artifacts it writes and makes `reproduce` exit
# non-zero on a failed check; `reproduce list` names what each one gates.
#
# Every step runs even when an earlier one failed, so one red gate cannot
# hide the state of the gates after it; the script then lists the failed
# steps and exits non-zero.
set -uo pipefail
cd "$(dirname "$0")/.."

failed=()

# Run one step; record it as failed if it exits non-zero.
step() {
    echo "tier1: $*" >&2
    if ! "$@"; then
        failed+=("$*")
    fi
}

# One benchmark workload for 1 s, untraced: fails unless it exits zero and
# its last line reports `"correct": true` and `"failed": 0`.
answer_check() {
    local last
    if ! last=$(cargo run --release --offline -q --manifest-path exabench/Cargo.toml -- \
        --workload "$1" --seed 1 --seconds 1 --trace 0 | tail -n 1); then
        echo "tier1: exabench $1 exited non-zero" >&2
        return 1
    fi
    if [[ $last != *'"correct": true'* || $last != *'"failed": 0,'* ]]; then
        echo "tier1: exabench $1 failed its answer check: $last" >&2
        return 1
    fi
}

step cargo build --release
step cargo clippy --workspace --release --all-targets -- -D warnings
step cargo fmt --all -- --check
step env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
step python3 scripts/reach.py --check
for threads in 1 4; do
    step env EXA_THREADS=$threads cargo test --workspace -q
done
step cargo test --offline -q --manifest-path exabench/Cargo.toml
for example in examples/*.rs; do
    step cargo run --release -q --example "$(basename "$example" .rs)"
done
step cargo run --release -q -p exa-bench --bin reproduce -- paper profile_export fom_ledger comm_overlap sim_throughput autotune
step env EXA_THREADS=4 cargo run --release -q -p exa-bench --bin reproduce -- obs_export telemetry_overhead fault_scenarios campaign_load
for workload in $(sed -n '/"workloads"/,/"end_to_end"/s/.*"name": "\([^"]*\)".*/\1/p' BENCHMARK.json); do
    step answer_check "$workload"
done

if ((${#failed[@]})); then
    echo "tier1: ${#failed[@]} step(s) failed:" >&2
    printf 'tier1:   %s\n' "${failed[@]}" >&2
    exit 1
fi
echo "tier1: build + clippy + fmt + rustdoc + reach check + workspace tests (EXA_THREADS=1,4) + exabench tests + examples + paper experiments + gates + benchmark answer checks all green"
