//! Unified telemetry export — the simulator's `rocprof`/Omnitrace run.
//!
//! Drives the three instrumented application paths (Pele Figure-2 campaign
//! with graphed chemistry, E3SM column physics, GESTS distributed FFT)
//! under one shared [`exa_telemetry::TelemetryCollector`], then writes:
//!
//! * `PROFILE_pele.json` — the unified [`TelemetrySnapshot`] (every span
//!   track plus the merged counters/gauges from stream, graph, pool, and
//!   comm stats), the Figure-2 samples, and the chemistry roofline;
//! * `PROFILE_pele.trace.json` — a Chrome Trace Event file: open it at
//!   `ui.perfetto.dev` (or `chrome://tracing`) to see the timeline;
//! * `target/experiments/profile_pele_hotspots.csv` — the rocprof-style
//!   hotspot table.
//!
//! The experiment is its own acceptance gate: it re-parses the trace with
//! [`exa_telemetry::validate_chrome_trace`] and the hotspot CSV with
//! [`exa_telemetry::validate_hotspot_csv`], and fails if the snapshot is
//! empty, the counters disagree with the trace, the trace violates
//! Chrome-trace invariants, or the CSV does not parse as the hotspot table.

use crate::{experiments_dir, gate, header, pretty_json, repo_root, write_file, Gate};
use exa_apps::e3sm::{step_time_profiled, E3smConfig};
use exa_apps::gests::PsdnsRun;
use exa_apps::pele::{chemistry_kernels, chemistry_step_profiled, fig2_campaign_profiled};
use exa_fft::Decomp;
use exa_hal::{ApiSurface, Device, Stream, Tracer};
use exa_machine::{GpuArch, GpuModel, MachineModel};
use exa_telemetry::{
    validate_chrome_trace, validate_hotspot_csv, RooflineReport, TelemetryCollector,
    TelemetrySnapshot,
};
use serde::Serialize;

const CHEM_CELLS: usize = 4096;
const CHEM_STEPS: usize = 16;
const E3SM_COLUMNS: usize = 64;
const GESTS_N: usize = 128;
const GESTS_RANKS: usize = 8;

#[derive(Serialize)]
struct Fig2Row {
    code_state: String,
    time_per_cell_step_s: f64,
}

#[derive(Serialize)]
struct ProfileRecord {
    fig2: Vec<Fig2Row>,
    chem_cells: u64,
    chem_steps: u64,
    chem_graphed_s: f64,
    e3sm_naive_pool_s: f64,
    e3sm_optimized_s: f64,
    gests_step_s: f64,
    roofline: RooflineReport,
    snapshot: TelemetrySnapshot,
    pass: bool,
}

/// Schema gate over the snapshot: non-empty spans, non-zero totals, and
/// counters that agree across subsystems. Returns the failures.
fn check_snapshot(snap: &TelemetrySnapshot) -> Vec<String> {
    let mut bad = Vec::new();
    let mut must = |ok: bool, what: &str| {
        if !ok {
            bad.push(what.to_string());
        }
    };
    must(snap.spans_total > 0, "snapshot has no spans");
    must(snap.wall_s > 0.0, "snapshot wall time is zero");
    must(!snap.tracks.is_empty(), "snapshot has no tracks");
    must(
        snap.counter("hal.graph_replays") >= CHEM_STEPS as u64,
        "chemistry replays missing",
    );
    must(
        snap.counter("hal.kernels") > 0,
        "no per-kernel launches recorded",
    );
    must(
        snap.counter("mpi.collectives") > 0,
        "no collectives recorded",
    );
    must(
        snap.counter("mpi.bytes") > 0,
        "no communication bytes recorded",
    );
    must(
        snap.counter("hal.pool.allocs") > 0,
        "no pool allocations recorded",
    );
    must(
        snap.gauges.contains_key("pele.fig2.speedup"),
        "fig2 speedup gauge missing",
    );
    let span_sum: u64 = snap.tracks.iter().map(|t| t.spans).sum();
    must(
        span_sum == snap.spans_total,
        "per-track span counts disagree with total",
    );
    bad
}

pub fn run() -> Gate {
    header("Unified telemetry export (Pele + E3SM + GESTS under one collector)");
    let collector = TelemetryCollector::shared();

    // Pele: the Figure-2 campaign as host phases, then the graphed
    // chemistry step on a device-queue track.
    let frontier = MachineModel::frontier();
    let fig2 = fig2_campaign_profiled(&frontier, 4096, Some(&collector));
    let chem = chemistry_step_profiled(CHEM_CELLS, CHEM_STEPS, true, Some(&collector));

    // E3SM: the pre-graph pool-allocator driver (per-kernel spans) and the
    // fully optimized graph replay.
    let naive_pool = E3smConfig {
        pool_allocator: true,
        ..E3smConfig::naive()
    };
    let e3sm_naive = step_time_profiled(
        GpuArch::Cdna2,
        E3SM_COLUMNS,
        naive_pool,
        Some((&collector, "e3sm_naive")),
    );
    let e3sm_opt = step_time_profiled(
        GpuArch::Cdna2,
        E3SM_COLUMNS,
        E3smConfig::optimized(),
        Some((&collector, "e3sm_opt")),
    );

    // GESTS: one PSDNS step over per-rank comm tracks.
    let gests = PsdnsRun::new(GESTS_N, GESTS_RANKS, Decomp::Slabs);
    let gests_t = gests.step_time_profiled(&frontier, Some(&collector));

    // Roofline: trace the chemistry pipeline kernels against the MI250X
    // ceilings (rocprof's counter-derived arithmetic-intensity view).
    let mut tracer = Tracer::new(GpuModel::mi250x_gcd());
    let mut stream =
        Stream::new(Device::new(GpuModel::mi250x_gcd(), 0), ApiSurface::Hip).expect("hip on cdna2");
    for k in chemistry_kernels(CHEM_CELLS) {
        tracer.launch_traced_modeled(&mut stream, &k);
    }
    let roofline = tracer.roofline();

    let snapshot = collector.snapshot();
    let trace = collector.chrome_trace();
    let hotspots = collector.hotspot_csv();

    println!(
        "spans: {} across {} tracks; wall {:.3} ms (sim)",
        snapshot.spans_total,
        snapshot.tracks.len(),
        snapshot.wall_s * 1e3
    );
    println!(
        "counters: {} kernels, {} graph replays, {} collectives, {} MPI bytes",
        snapshot.counter("hal.kernels"),
        snapshot.counter("hal.graph_replays"),
        snapshot.counter("mpi.collectives"),
        snapshot.counter("mpi.bytes"),
    );

    // --- Acceptance gates -------------------------------------------------
    let mut failures = check_snapshot(&snapshot);
    match validate_chrome_trace(&trace) {
        Ok(s) => println!(
            "chrome trace: {} events on {} tracks — valid",
            s.events, s.tracks
        ),
        Err(e) => failures.push(format!("chrome trace invalid: {e}")),
    }
    match validate_hotspot_csv(&hotspots) {
        Ok(rows) => println!("hotspot csv: {rows} rows — valid"),
        Err(e) => failures.push(format!("hotspot csv invalid: {e}")),
    }
    if roofline.points.is_empty() {
        failures.push("roofline has no points".into());
    }
    let pass = failures.is_empty();

    let record = ProfileRecord {
        fig2: fig2
            .iter()
            .map(|s| Fig2Row {
                code_state: s.state.label().to_string(),
                time_per_cell_step_s: s.time_per_cell_step.secs(),
            })
            .collect(),
        chem_cells: CHEM_CELLS as u64,
        chem_steps: CHEM_STEPS as u64,
        chem_graphed_s: chem.secs(),
        e3sm_naive_pool_s: e3sm_naive.secs(),
        e3sm_optimized_s: e3sm_opt.secs(),
        gests_step_s: gests_t.secs(),
        roofline,
        snapshot,
        pass,
    };

    let root = repo_root();
    write_file(&root.join("PROFILE_pele.json"), &pretty_json(&record));
    // Open at ui.perfetto.dev (or chrome://tracing).
    write_file(&root.join("PROFILE_pele.trace.json"), &trace);
    write_file(
        &experiments_dir().join("profile_pele_hotspots.csv"),
        &hotspots,
    );

    if pass {
        println!("\nprofile export: all gates pass");
    }
    gate(failures)
}
