//! Substrate observability export — wall-clock worker occupancy, scheduler
//! phases, and metric distributions from a *real* executed campaign.
//!
//! Where `profile_export` captures the **virtual-time** story (rank tracks,
//! device queues in simulated seconds), this experiment captures the
//! **wall-clock substrate** underneath it: a
//! [`PoolTelemetry`](exa_telemetry::PoolTelemetry) observer on
//! the rank scheduler's work-stealing pool records per-worker task
//! intervals (stolen ones marked) while the 256-rank Pele
//! chemistry campaign executes on 4 lanes; the scheduler lands fan-out /
//! merge / idle phase spans next to them. Both stories share one
//! [`TelemetryCollector`], so the exported trace holds simulated rank
//! tracks and real worker tracks side by side (namespaced `pele_chem/*`
//! and `pool/*`).
//!
//! On top of the campaign it times every Table-2 application's FOM
//! evaluation into a `fom.eval_s` histogram — the per-query latency
//! distribution the paper's continuous-assessment loop would watch.
//!
//! Artifacts (repo root):
//!
//! * `PROFILE_substrate.json` — occupancy summary, pool counters,
//!   histogram quantiles, and the full [`TelemetrySnapshot`];
//! * `PROFILE_pele.folded` — collapsed stacks of the unified timeline
//!   (feed to `flamegraph.pl` or paste into speedscope.app).
//!
//! The snapshot is also rendered as Prometheus text and validated in
//! memory; the repo-root `METRICS.prom` is `campaign_load`'s alone.
//!
//! The experiment is its own acceptance gate: the Chrome trace, Prometheus
//! text, and folded stacks must all re-validate, and the folded stacks
//! must carry `;task ` worker frames; worker tracks must be non-empty; and
//! per-worker busy time must sum to within 10% of the fan-out wall time ×
//! lane count (a poorly packed pool fails the run).

use crate::{gate, header, pretty_json, repo_root, write_file, Gate};
use exa_apps::pele_exec::{chemistry_campaign_observed, ChemCampaign, ChemKernel};
use exa_apps::table2_applications;
use exa_core::{measure_record, RunContext};
use exa_machine::MachineModel;
use exa_mpi::RankScheduler;
use exa_telemetry::{
    folded_stacks, prometheus_text, validate_chrome_trace, validate_folded, validate_prometheus,
    TelemetryCollector, TelemetrySnapshot,
};
use serde::Serialize;
use std::time::Instant;

/// Execution lanes for the substrate run (the occupancy gate pins 4).
const LANES: usize = 4;
/// Occupancy tolerance: busy must be within this fraction of wall × lanes.
const OCC_TOL: f64 = 0.10;
/// Work multiplier over the throughput-bench campaign: enough per-task
/// compute that the occupancy measurement is dominated by kernel time,
/// not scheduling overhead.
const CELL_SCALE: usize = 8;
const SUBSTEP_SCALE: usize = 2;

#[derive(Serialize)]
struct HistRow {
    name: String,
    count: u64,
    mean_s: f64,
    p50_s: f64,
    p95_s: f64,
    p99_s: f64,
    max_s: f64,
}

#[derive(Serialize)]
struct SubstrateRecord {
    lanes: u64,
    ranks: u64,
    cells_per_rank: u64,
    substeps: u64,
    pool_tasks: u64,
    busy_s: f64,
    fanout_wall_s: f64,
    occupancy: f64,
    phases: u64,
    worker_tracks: u64,
    fom_apps: u64,
    checksum: f64,
    newton_total: u64,
    hists: Vec<HistRow>,
    snapshot: TelemetrySnapshot,
    pass: bool,
}

fn hist_rows(snap: &TelemetrySnapshot) -> Vec<HistRow> {
    snap.hists
        .iter()
        .map(|(name, h)| HistRow {
            name: name.clone(),
            count: h.count(),
            mean_s: h.mean(),
            p50_s: h.p50(),
            p95_s: h.p95(),
            p99_s: h.p99(),
            max_s: h.max(),
        })
        .collect()
}

pub fn run() -> Gate {
    header("Substrate observability export (worker occupancy + scheduler phases + distributions)");
    let collector = TelemetryCollector::shared();

    // --- Observed campaign: 256-rank Pele chemistry on 4 lanes -----------
    let mut sched = RankScheduler::with_threads(LANES);
    let pool_tel = sched.attach_observer(&collector, "pool");
    let base = ChemCampaign::pele_step_256();
    let cfg = ChemCampaign {
        cells_per_rank: base.cells_per_rank * CELL_SCALE,
        substeps: base.substeps * SUBSTEP_SCALE,
        ..base
    };
    let wall0 = Instant::now();
    let result = chemistry_campaign_observed(&sched, ChemKernel::FusedLu, &cfg, &collector);
    let campaign_wall = wall0.elapsed().as_secs_f64();
    let tasks = pool_tel.tasks();
    let landing = sched.land_observer().expect("observer attached above");
    let occupancy = landing.occupancy();

    println!(
        "campaign: {} ranks x {} cells x {} substeps on {} lanes in {:.1} ms wall",
        cfg.ranks,
        cfg.cells_per_rank,
        cfg.substeps,
        landing.lanes,
        campaign_wall * 1e3
    );
    println!(
        "pool: {tasks} tasks; busy {:.1} ms over {:.1} ms fan-out wall -> occupancy {:.3}",
        landing.busy_ns as f64 / 1e6,
        landing.fanout_wall_ns as f64 / 1e6,
        occupancy
    );

    // --- FOM-evaluation latency distribution ------------------------------
    // Each Table-2 app runs under its own scratch collector (its spans are
    // profile_export's story); only the wall-clock evaluation time lands
    // here, as the per-query histogram.
    let frontier = MachineModel::frontier();
    let mut fom_apps = 0u64;
    for app in table2_applications() {
        let scratch = TelemetryCollector::shared();
        let ctx = RunContext::new(&scratch);
        let t0 = Instant::now();
        let record = measure_record(app.as_ref(), &frontier, &ctx, "obs_export");
        let dt = t0.elapsed().as_secs_f64();
        collector.metrics(|m| m.hist_record("fom.eval_s", dt));
        println!(
            "  fom {:<8} {:>12.4e} {:<22} eval {:>8.3} ms",
            record.app,
            record.value,
            record.units,
            dt * 1e3
        );
        fom_apps += 1;
    }

    // --- Export surfaces ---------------------------------------------------
    let snapshot = collector.snapshot();
    let trace = collector.chrome_trace();
    let prom = prometheus_text(&snapshot);
    let folded = collector.with_timeline(folded_stacks);

    // --- Acceptance gates --------------------------------------------------
    let mut failures: Vec<String> = Vec::new();
    let mut must = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };

    let worker_tracks = snapshot
        .tracks
        .iter()
        .filter(|t| t.kind == "worker" && t.name.starts_with("pool/") && t.spans > 0)
        .count() as u64;
    must(
        worker_tracks >= LANES as u64,
        format!("expected >= {LANES} non-empty pool worker tracks, got {worker_tracks}"),
    );
    must(
        snapshot
            .tracks
            .iter()
            .any(|t| t.name == "pool/scheduler" && t.spans > 0),
        "scheduler phase track is empty".into(),
    );
    must(tasks > 0, "pool observer saw no tasks".into());
    must(
        landing.phases == cfg.substeps as u64,
        format!(
            "expected {} scheduler phases, landed {}",
            cfg.substeps, landing.phases
        ),
    );
    must(
        (occupancy - 1.0).abs() <= OCC_TOL,
        format!(
            "occupancy {occupancy:.3} outside 1.0 +/- {OCC_TOL} (busy vs fan-out wall x lanes)"
        ),
    );
    for (hist, min_count) in [
        ("pool.task_run_s", tasks),
        ("sched.rank_compute_s", (cfg.ranks * cfg.substeps) as u64),
        ("fom.eval_s", fom_apps),
    ] {
        match snapshot.hist(hist) {
            None => must(false, format!("histogram {hist} missing from snapshot")),
            Some(h) => must(
                h.count() >= min_count,
                format!(
                    "histogram {hist}: count {} < expected {min_count}",
                    h.count()
                ),
            ),
        }
    }
    match validate_chrome_trace(&trace) {
        Ok(s) => println!(
            "chrome trace: {} events on {} tracks — valid",
            s.events, s.tracks
        ),
        Err(e) => must(false, format!("chrome trace invalid: {e}")),
    }
    match validate_prometheus(&prom) {
        Ok(s) => println!(
            "prometheus: {} families, {} samples — valid",
            s.families, s.samples
        ),
        Err(e) => must(false, format!("prometheus text invalid: {e}")),
    }
    match validate_folded(&folded) {
        Ok(n) => println!("folded stacks: {n} lines — valid"),
        Err(e) => must(false, format!("folded stacks invalid: {e}")),
    }
    must(
        folded.contains(";task "),
        "folded stacks carry no `;task ` worker frames".into(),
    );
    must(
        result.newton_total > 0,
        "campaign did no Newton iterations".into(),
    );
    let pass = failures.is_empty();

    let record = SubstrateRecord {
        lanes: landing.lanes as u64,
        ranks: cfg.ranks as u64,
        cells_per_rank: cfg.cells_per_rank as u64,
        substeps: cfg.substeps as u64,
        pool_tasks: tasks,
        busy_s: landing.busy_ns as f64 / 1e9,
        fanout_wall_s: landing.fanout_wall_ns as f64 / 1e9,
        occupancy,
        phases: landing.phases,
        worker_tracks,
        fom_apps,
        checksum: result.checksum,
        newton_total: result.newton_total,
        hists: hist_rows(&snapshot),
        snapshot,
        pass,
    };

    let root = repo_root();
    write_file(&root.join("PROFILE_substrate.json"), &pretty_json(&record));
    // Feed to flamegraph.pl or paste into speedscope.app.
    write_file(&root.join("PROFILE_pele.folded"), &folded);

    if pass {
        println!("\nsubstrate export: all gates pass (occupancy {occupancy:.3} on {LANES} lanes)");
    }
    gate(failures)
}
