//! Telemetry collector overhead gate.
//!
//! The collector must be cheap enough to leave on: streams batch spans in
//! a local vector and flush under one lock at synchronization points, and
//! graph replays record a single static-named span. This gate drives the
//! E3SM-shaped workload — an 8-kernel captured graph replayed in a loop —
//! with and without an attached collector and requires the enabled/disabled
//! wall-clock ratio stays under 1.05 (5% overhead). The enabled side runs
//! the *full* leave-it-on configuration: collector attached, a
//! [`exa_hal::exec::observe_global_pool`] observer on the worker pool, and
//! a per-rep histogram record; both sides include a pool fan-out so the
//! observer callbacks are actually exercised.
//!
//! The two sides are compared by the order-fair pair timer
//! ([`crate::time_pairs`]); the pool observer is attached and detached
//! inside each pair, so the disabled side never runs observed. Results
//! land in `BENCH_telemetry_overhead.json` at the repo root.

use crate::{time_median, time_pairs, wall_s, write_root_json, Gate};
use exa_hal::{
    exec, ApiSurface, DType, Device, KernelProfile, LaunchConfig, Stream, TelemetryCollector,
};
use exa_machine::GpuModel;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

const N_KERNELS: usize = 8;
const REPLAYS_PER_REP: usize = 512;
/// Elements in the per-rep pool fan-out (4x the parallel cutoff, so the
/// rep exercises real worker-pool traffic on both sides of the gate).
const POOL_FILL_N: usize = 1 << 16;
const MAX_RATIO: f64 = 1.05;
/// Interleaved disabled/enabled pairs behind the gated ratio.
const PAIRS: usize = 15;
/// A long-running sentinel drains the collector (snapshot, critical path
/// and ledger append) once per campaign batch — here modeled as once every
/// this many reps (128k replays); the gate charges the enabled side the
/// amortized per-rep share of the measured analysis cost.
const ANALYSIS_EVERY: usize = 256;

fn stream() -> Stream {
    Stream::new(Device::new(GpuModel::mi250x_gcd(), 0), ApiSurface::Hip).unwrap()
}

fn chain_profiles() -> Vec<KernelProfile> {
    (0..N_KERNELS)
        .map(|s| {
            KernelProfile::new(format!("k{s}"), LaunchConfig::cover(1 << 20, 256))
                .flops(2.0e6, DType::F64)
                .bytes(8.0e6, 8.0e6)
        })
        .collect()
}

/// Capture the 8-kernel chain on `s` and return the graph.
fn capture_on(s: &mut Stream) -> exa_hal::KernelGraph {
    s.begin_capture();
    for k in chain_profiles() {
        s.launch_modeled(&k);
    }
    s.end_capture()
}

/// Pair-timed `(disabled_s, enabled_s, enabled/disabled ratio)` of one
/// rep: `REPLAYS_PER_REP` graph replays, a pool fan-out, and a
/// synchronize. Both sides do identical work; the enabled side
/// additionally pays for the attached collector, a pool observer on the
/// global pool, and a per-rep histogram record — the full leave-it-on
/// configuration. Only the rep itself is timed.
fn measure() -> (f64, f64, f64) {
    let (mut fill_off, mut fill_on) = (vec![0.0f64; POOL_FILL_N], vec![0.0f64; POOL_FILL_N]);

    let mut s_off = stream();
    let graph_off = capture_on(&mut s_off);
    let mut off = || {
        wall_s(|| {
            for _ in 0..REPLAYS_PER_REP {
                s_off.replay(black_box(&graph_off));
            }
            exec::par_fill(black_box(&mut fill_off), |i| i as f64);
            s_off.synchronize()
        })
    };

    let collector = TelemetryCollector::shared();
    let mut s_on = stream();
    let graph_on = capture_on(&mut s_on);
    s_on.attach_telemetry(&collector, "bench/queue");
    let mut on = || {
        let pool_obs = exec::observe_global_pool();
        let dt = wall_s(|| {
            let t0 = Instant::now();
            for _ in 0..REPLAYS_PER_REP {
                s_on.replay(black_box(&graph_on));
            }
            exec::par_fill(black_box(&mut fill_on), |i| i as f64);
            black_box(s_on.synchronize());
            collector.metrics(|m| m.hist_record("bench.rep_s", t0.elapsed().as_secs_f64()));
            // Keep the timeline bounded across reps, as a long-running
            // tool would after draining an export.
            collector.clear();
        });
        exec::unobserve_global_pool();
        black_box(pool_obs.tasks());
        dt
    };

    for _ in 0..3 {
        off();
        on();
    }
    let t = time_pairs(PAIRS, on, off);
    (t.b_s, t.a_s, t.ratio)
}

/// Median wall-clock seconds of one ledger-analysis pass over a rep's
/// worth of spans: snapshot, top-span profile, cross-rank critical path,
/// and an in-memory ledger append.
fn measure_analysis() -> f64 {
    use exa_telemetry::{span_profile, CriticalPath, FomKind, FomLedger, FomRecord};

    let collector = TelemetryCollector::shared();
    let mut s = stream();
    let graph = capture_on(&mut s);
    s.attach_telemetry(&collector, "bench/queue");
    for _ in 0..REPLAYS_PER_REP {
        s.replay(black_box(&graph));
    }
    s.synchronize();

    let mut ledger = FomLedger::new();
    let mut rep = 0u64;
    time_median(2, 9, || {
        let snapshot = collector.snapshot();
        let profile = collector.with_timeline(|tl| span_profile(tl, 16));
        let path = collector.with_timeline(CriticalPath::compute);
        rep += 1;
        ledger.append(FomRecord {
            seq: 0,
            app: "bench".into(),
            machine: "host".into(),
            nodes: 1,
            kind: FomKind::Throughput,
            value: REPLAYS_PER_REP as f64 / snapshot.wall_s.max(1e-12),
            units: "replays/s".into(),
            wall_s: snapshot.wall_s,
            run_tag: format!("rep-{rep}"),
            scenario: String::new(),
            snapshot_digest: exa_telemetry::digest64(&snapshot.to_json()),
            span_profile: profile,
        });
        black_box(path.busy_s);
    })
}

#[derive(Serialize)]
struct Record {
    n_kernels: u64,
    replays_per_rep: u64,
    disabled_us_per_rep: f64,
    enabled_us_per_rep: f64,
    analysis_us: f64,
    analysis_every: u64,
    overhead_ratio: f64,
    amortized_ratio: f64,
    max_ratio: f64,
    /// Measurement passes behind the ratio: one pair-timed pass.
    attempts: u64,
    pass: bool,
}

pub fn run() -> Gate {
    // Ledger/critical-path analysis cost is stable; measure it once and
    // charge its amortized per-rep share to the enabled side.
    let analysis = measure_analysis();
    println!(
        "analysis pass: {:.2} us ({:.2} us amortized over {} reps)",
        analysis * 1e6,
        analysis * 1e6 / ANALYSIS_EVERY as f64,
        ANALYSIS_EVERY
    );

    // Headline gate: the median pair ratio, plus the amortized ratio
    // (replay overhead + sentinel analysis share), which is the one that
    // gates.
    let (off, on, ratio) = measure();
    let amortized = ratio + analysis / ANALYSIS_EVERY as f64 / off;
    println!(
        "{PAIRS} pairs: disabled {:.2} us, enabled {:.2} us, ratio {ratio:.4} ({amortized:.4} amortized)",
        off * 1e6,
        on * 1e6,
    );

    let record = Record {
        n_kernels: N_KERNELS as u64,
        replays_per_rep: REPLAYS_PER_REP as u64,
        disabled_us_per_rep: off * 1e6,
        enabled_us_per_rep: on * 1e6,
        analysis_us: analysis * 1e6,
        analysis_every: ANALYSIS_EVERY as u64,
        overhead_ratio: ratio,
        amortized_ratio: amortized,
        max_ratio: MAX_RATIO,
        attempts: 1,
        pass: amortized > 0.0 && ratio < MAX_RATIO && amortized < MAX_RATIO,
    };
    println!(
        "\ntelemetry overhead: {:.2}% raw, {:.2}% with amortized analysis, on {} replays of an {}-kernel graph (gate < {:.0}%)",
        (ratio - 1.0) * 1e2,
        (amortized - 1.0) * 1e2,
        REPLAYS_PER_REP,
        N_KERNELS,
        (MAX_RATIO - 1.0) * 1e2
    );
    write_root_json("BENCH_telemetry_overhead", &record);
    if record.pass {
        Ok(())
    } else {
        Err(vec![format!(
            "collector overhead (incl. amortized analysis) must be measured and stay under {:.0}%: raw {ratio:.4}, amortized {amortized:.4}",
            (MAX_RATIO - 1.0) * 1e2
        )])
    }
}
