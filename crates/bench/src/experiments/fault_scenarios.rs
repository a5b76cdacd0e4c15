//! Fault & contention scenario campaign — the resilience gate of the
//! scenario engine.
//!
//! Four drills, one artifact (`BENCH_fault_scenarios.json`):
//!
//! 1. **MTBF checkpoint-interval sweep** (analytic, per Table-2 app):
//!    sweep checkpoint intervals against an Orion-class defensive-I/O
//!    model and an exponential failure process, report achieved vs. ideal
//!    FOM, and gate the sweep's optimum against the Young/Daly
//!    approximation (within 25%).
//! 2. **Executed faulted Pele campaign** (256 ranks): the real chemistry
//!    campaign under an MTBF schedule sized to inject failures — must
//!    restart from checkpoint, never lose more than one interval of work,
//!    keep the physics bit-identical to the clean run, stay deterministic
//!    across `EXA_THREADS`, and show `restart/` time on the critical path.
//! 3. **Sentinel scenario-tag drill**: the same 2× GESTS regression is a
//!    `fail` when untagged and only a `warn` when the record carries a
//!    fault-scenario tag — chaos drills must not page anyone.
//! 4. **Degraded-fabric GESTS**: a contended, jittery Slingshot run of the
//!    pseudo-spectral step, blocking vs. pipelined — the overlap engine
//!    must still hide transpose time behind compute on a bad fabric.

use crate::{gate, header, write_root_json, Gate};
use exa_apps::gests::PsdnsRun;
use exa_apps::pele_exec::{chemistry_campaign, chemistry_campaign_under, ChemCampaign, ChemKernel};
use exa_apps::table2_applications;
use exa_core::{
    best_interval, daly_interval, expected_wall, measure_record, sweep_intervals, young_interval,
    CheckpointSpec, NetworkScenario, RunContext, ScenarioSpec, SweepPoint,
};
use exa_fft::Decomp;
use exa_machine::{MachineModel, SimTime};
use exa_mpi::RankScheduler;
use exa_telemetry::{
    fault_attribution, run_sentinel, CriticalPath, FomLedger, TelemetryCollector,
    Verdict,
};
use serde::Serialize;

/// Campaign length for the analytic sweep: 24 h of production compute.
const CAMPAIGN_WORK_S: f64 = 24.0 * 3600.0;
/// Log-grid resolution of the interval sweep (spacing < 9% over the
/// 2δ..4M range, so the discrete optimum sits close to the analytic one).
const SWEEP_POINTS: usize = 65;
/// How far the sweep optimum may sit from Young's τ = √(2δM).
const YOUNG_TOL: f64 = 0.25;
/// Fewest sweep points the record must carry, over all apps.
const MIN_SWEEP_POINTS: usize = 8;

#[derive(Serialize)]
struct AppSweepRow {
    app: String,
    scenario: String,
    mtbf_h: f64,
    checkpoint_write_s: f64,
    restart_cost_s: f64,
    ideal_fom: f64,
    achieved_fom: f64,
    fom_units: String,
    efficiency: f64,
    best_interval_s: f64,
    young_interval_s: f64,
    daly_interval_s: f64,
    best_over_young: f64,
    sweep: Vec<SweepPoint>,
}

#[derive(Serialize)]
struct PeleCampaignRecord {
    ranks: u64,
    substeps: u64,
    scenario: String,
    mtbf_us: f64,
    checkpoint_interval_steps: u64,
    clean_elapsed_s: f64,
    faulted_elapsed_s: f64,
    failures: u32,
    restarts: u32,
    checkpoints: u32,
    max_lost_steps: u64,
    physics_identical: bool,
    thread_deterministic: bool,
    crit_fault_s: f64,
    crit_checkpoint_s: f64,
    crit_restart_s: f64,
    crit_straggler_wait_s: f64,
}

#[derive(Serialize)]
struct SentinelDrillRecord {
    scenario: String,
    untagged_verdict: String,
    tagged_verdict: String,
    regression: f64,
}

#[derive(Serialize)]
struct DegradedGestsRecord {
    scenario: String,
    alpha_factor: f64,
    beta_factor: f64,
    jitter_amp: f64,
    blocking_step_s: f64,
    overlapped_step_s: f64,
    hidden_s: f64,
    overlap_efficiency: f64,
}

#[derive(Serialize)]
struct FaultScenariosRecord {
    campaign_work_s: f64,
    sweep_points: u64,
    young_tolerance: f64,
    apps: Vec<AppSweepRow>,
    pele_campaign: PeleCampaignRecord,
    sentinel_drill: SentinelDrillRecord,
    degraded_gests: DegradedGestsRecord,
    pass: bool,
}

fn verdict_label(v: Verdict) -> &'static str {
    match v {
        Verdict::Pass => "pass",
        Verdict::Warn => "warn",
        Verdict::Fail => "fail",
    }
}

pub fn run() -> Gate {
    header("Fault & contention scenarios (MTBF sweep + checkpoint/restart + sentinel + fabric)");
    let frontier = MachineModel::frontier();
    let mut failures_list: Vec<String> = Vec::new();
    let mut must = |ok: bool, what: String| {
        if !ok {
            failures_list.push(what);
        }
    };

    // --- 1. Analytic MTBF sweep per Table-2 app ---------------------------
    println!(
        "\n-- checkpoint-interval sweep ({} h campaign, Orion-class I/O) --",
        24
    );
    let work = SimTime::from_secs(CAMPAIGN_WORK_S);
    let mut apps = Vec::new();
    for (i, app) in table2_applications().into_iter().enumerate() {
        let scratch = TelemetryCollector::shared();
        let rec = measure_record(
            app.as_ref(),
            &frontier,
            &RunContext::new(&scratch),
            "fault_sweep",
        );
        // Defensive state grows with the app index just to vary δ; MTBF
        // spans the half-day .. two-day band the paper's machines live in.
        let ckpt = CheckpointSpec::orion(0, (1u64 << 32) + (i as u64) * (1 << 30));
        let mtbf = SimTime::from_secs(3600.0 * (12.0 + 6.0 * i as f64));
        let delta = ckpt.write_time();
        let restart = ckpt.read_time() + ckpt.restart_penalty();
        let sweep = sweep_intervals(work, delta, restart, mtbf, SWEEP_POINTS);
        let best = best_interval(&sweep);
        let young = young_interval(delta, mtbf);
        let daly = daly_interval(delta, mtbf);
        let wall = expected_wall(work, SimTime::from_secs(best), delta, restart, mtbf);
        let efficiency = (work.secs() / wall.secs()).min(1.0);
        let ratio = best / young.secs();
        println!(
            "  {:<8} MTBF {:>4.0} h  δ {:>5.2} s  τ* {:>7.1} s (Young {:>7.1}, Daly {:>7.1})  eff {:.4}",
            rec.app,
            mtbf.secs() / 3600.0,
            delta.secs(),
            best,
            young.secs(),
            daly.secs(),
            efficiency
        );
        must(!sweep.is_empty(), format!("{}: empty sweep", rec.app));
        must(
            (ratio - 1.0).abs() <= YOUNG_TOL,
            format!(
                "{}: best interval {best:.1}s vs Young {:.1}s (ratio {ratio:.3})",
                rec.app,
                young.secs()
            ),
        );
        must(
            efficiency <= 1.0 && efficiency > 0.5,
            format!("{}: efficiency {efficiency:.3} implausible", rec.app),
        );
        must(
            sweep.iter().all(|p| p.achieved_over_ideal <= 1.0 + 1e-12),
            format!("{}: sweep point with achieved > ideal", rec.app),
        );
        apps.push(AppSweepRow {
            app: rec.app.clone(),
            scenario: format!("mtbf-{:.0}h", mtbf.secs() / 3600.0),
            mtbf_h: mtbf.secs() / 3600.0,
            checkpoint_write_s: delta.secs(),
            restart_cost_s: restart.secs(),
            ideal_fom: rec.value,
            achieved_fom: rec.value * efficiency,
            fom_units: rec.units.clone(),
            efficiency,
            best_interval_s: best,
            young_interval_s: young.secs(),
            daly_interval_s: daly.secs(),
            best_over_young: ratio,
            sweep,
        });
    }

    // --- 2. Executed 256-rank faulted Pele campaign -----------------------
    println!("\n-- executed faulted Pele campaign (256 ranks) --");
    let base = ChemCampaign::pele_step_256();
    let cfg = ChemCampaign {
        substeps: base.substeps * 4,
        ..base
    };
    let sched = RankScheduler::with_threads(4);
    let clean = chemistry_campaign(&sched, ChemKernel::FusedLu, &cfg);
    // Size the MTBF to a sixth of the clean virtual wall so the schedule
    // injects failures mid-campaign, deterministically.
    let mtbf = SimTime::from_secs(clean.elapsed.secs() / 6.0);
    let interval_steps = 3usize;
    // Checkpoint I/O scaled to the campaign's µs-granular virtual clock
    // (the analytic sweep above exercises the Orion-scale constants).
    let ckpt = CheckpointSpec {
        interval_steps,
        bytes_per_rank: 1 << 20,
        io_alpha_s: 2e-6,
        io_bw: 1.0e14,
        restart_penalty_s: 25e-6,
    };
    let scen = ScenarioSpec::named("pele-mtbf-drill", 0xfa11)
        .with_mtbf(mtbf)
        .with_checkpoint(ckpt)
        .with_straggler(7, 1.5);
    let collector = TelemetryCollector::shared();
    let faulted = chemistry_campaign_under(&sched, ChemKernel::FusedLu, &cfg, &scen, &collector);
    let redo = chemistry_campaign_under(
        &RankScheduler::sequential(),
        ChemKernel::FusedLu,
        &cfg,
        &scen,
        &TelemetryCollector::shared(),
    );
    let cp = collector.with_timeline(CriticalPath::compute);
    let fa = fault_attribution(&cp.by_span);
    let physics_identical = faulted.checksum.to_bits() == clean.checksum.to_bits()
        && faulted.temp_sum.to_bits() == clean.temp_sum.to_bits()
        && faulted.newton_total == clean.newton_total;
    let thread_deterministic = faulted == redo;
    println!(
        "  MTBF {:.1} µs: {} failures, {} restarts, {} checkpoints, max lost {} steps",
        mtbf.secs() * 1e6,
        faulted.failures,
        faulted.restarts,
        faulted.checkpoints,
        faulted.max_lost_steps
    );
    println!(
        "  wall {:.1} µs clean -> {:.1} µs faulted; critical path: fault {:.2} µs, ckpt {:.2} µs, restart {:.2} µs, straggler-wait {:.2} µs",
        clean.elapsed.secs() * 1e6,
        faulted.elapsed.secs() * 1e6,
        fa.fault_s * 1e6,
        fa.checkpoint_s * 1e6,
        fa.restart_s * 1e6,
        fa.straggler_wait_s * 1e6
    );
    must(
        faulted.failures >= 1,
        "MTBF schedule injected no rank failure".into(),
    );
    must(
        faulted.restarts == faulted.failures,
        "every failure must restart".into(),
    );
    must(
        faulted.checkpoints >= 1,
        "campaign wrote no checkpoints".into(),
    );
    must(
        faulted.max_lost_steps <= interval_steps,
        format!(
            "lost {} steps > interval {interval_steps}",
            faulted.max_lost_steps
        ),
    );
    must(
        physics_identical,
        "faulted physics diverged from the clean run".into(),
    );
    must(
        thread_deterministic,
        "faulted campaign not thread-deterministic".into(),
    );
    must(
        faulted.elapsed > clean.elapsed,
        "faults must cost virtual wall time".into(),
    );
    must(
        fa.restart_s > 0.0,
        "critical path attributes no restart/ time".into(),
    );
    must(
        fa.fault_s > 0.0,
        "critical path attributes no fault/ time".into(),
    );
    must(
        fa.checkpoint_s > 0.0,
        "critical path attributes no checkpoint/ time".into(),
    );

    let pele_campaign = PeleCampaignRecord {
        ranks: cfg.ranks as u64,
        substeps: cfg.substeps as u64,
        scenario: scen.tag.clone(),
        mtbf_us: mtbf.secs() * 1e6,
        checkpoint_interval_steps: interval_steps as u64,
        clean_elapsed_s: clean.elapsed.secs(),
        faulted_elapsed_s: faulted.elapsed.secs(),
        failures: faulted.failures,
        restarts: faulted.restarts,
        checkpoints: faulted.checkpoints,
        max_lost_steps: faulted.max_lost_steps as u64,
        physics_identical,
        thread_deterministic,
        crit_fault_s: fa.fault_s,
        crit_checkpoint_s: fa.checkpoint_s,
        crit_restart_s: fa.restart_s,
        crit_straggler_wait_s: fa.straggler_wait_s,
    };

    // --- 3. Sentinel scenario-tag drill -----------------------------------
    println!("\n-- sentinel scenario-tag drill (2x GESTS regression) --");
    let gests = table2_applications()
        .into_iter()
        .find(|a| a.name() == "GESTS")
        .expect("GESTS is in Table 2");
    let drill_scen = ScenarioSpec::named("gests-chaos-drill", 7).with_injection("transform", 2.0);
    let untagged_scen = ScenarioSpec::clean().with_injection("transform", 2.0);

    let mut untagged = FomLedger::new();
    let mut tagged = FomLedger::new();
    let c0 = TelemetryCollector::shared();
    let clean_rec = measure_record(gests.as_ref(), &frontier, &RunContext::new(&c0), "base");
    let kind = clean_rec.kind;
    untagged.append(clean_rec.clone());
    tagged.append(clean_rec);

    let c1 = TelemetryCollector::shared();
    untagged.append(measure_record(
        gests.as_ref(),
        &frontier,
        &RunContext::for_scenario(&c1, &untagged_scen),
        "regressed",
    ));
    let c2 = TelemetryCollector::shared();
    tagged.append(measure_record(
        gests.as_ref(),
        &frontier,
        &RunContext::for_scenario(&c2, &drill_scen),
        "regressed",
    ));

    let rep_untagged = run_sentinel(&untagged, "GESTS", "Frontier", kind).expect("untagged report");
    let rep_tagged = run_sentinel(&tagged, "GESTS", "Frontier", kind).expect("tagged report");
    println!("  untagged: {}", rep_untagged.summary());
    println!("  tagged:   {}", rep_tagged.summary());
    must(
        rep_untagged.verdict == Verdict::Fail,
        format!(
            "untagged 2x regression should fail, got {:?}",
            rep_untagged.verdict
        ),
    );
    must(
        rep_tagged.verdict == Verdict::Warn,
        format!(
            "tagged 2x regression should warn, got {:?}",
            rep_tagged.verdict
        ),
    );
    must(
        rep_tagged.scenario == drill_scen.tag,
        format!("report lost the scenario tag: {:?}", rep_tagged.scenario),
    );
    let sentinel_drill = SentinelDrillRecord {
        scenario: drill_scen.tag.clone(),
        untagged_verdict: verdict_label(rep_untagged.verdict).to_string(),
        tagged_verdict: verdict_label(rep_tagged.verdict).to_string(),
        regression: rep_tagged.regression,
    };

    // --- 4. Degraded-fabric GESTS: overlap must still hide transposes -----
    println!("\n-- degraded-fabric GESTS (contended + jittery Slingshot) --");
    let net = NetworkScenario::contended(2.0, 3.0, 0.15, 42);
    let fabric = ScenarioSpec::named("slingshot-contended", 42).with_network(net);
    let rep = PsdnsRun::new(128, 8, Decomp::Slabs);
    let cb = TelemetryCollector::shared();
    let t_block = rep.step_time_observed(&frontier, Some(&cb), &fabric);
    let co = TelemetryCollector::shared();
    let t_over = rep
        .with_overlap(4)
        .step_time_observed(&frontier, Some(&co), &fabric);
    let snap = co.snapshot();
    let hidden_s = snap.times_s.get("mpi.hidden").copied().unwrap_or(0.0);
    let overlap_eff = snap
        .gauges
        .get("mpi.overlap_efficiency")
        .copied()
        .unwrap_or(0.0);
    println!(
        "  blocking {:.3} ms vs overlapped {:.3} ms; hidden {:.3} ms, efficiency {:.3}",
        t_block.secs() * 1e3,
        t_over.secs() * 1e3,
        hidden_s * 1e3,
        overlap_eff
    );
    must(
        t_over <= t_block,
        "overlap slower than blocking on a degraded fabric".into(),
    );
    must(
        hidden_s > 0.0,
        "overlap engine hid no communication time".into(),
    );
    must(
        overlap_eff > 0.0,
        "mpi.overlap_efficiency gauge missing or zero".into(),
    );
    let degraded_gests = DegradedGestsRecord {
        scenario: fabric.tag.clone(),
        alpha_factor: net.alpha_factor,
        beta_factor: net.beta_factor,
        jitter_amp: net.jitter_amp,
        blocking_step_s: t_block.secs(),
        overlapped_step_s: t_over.secs(),
        hidden_s,
        overlap_efficiency: overlap_eff,
    };

    // --- Artifact + verdict ------------------------------------------------
    let total_points: usize = apps.iter().map(|row| row.sweep.len()).sum();
    must(
        total_points >= MIN_SWEEP_POINTS,
        format!("fault sweep has only {total_points} points (need >= {MIN_SWEEP_POINTS})"),
    );
    let scenarios = apps.iter().map(|row| &row.scenario).chain([
        &pele_campaign.scenario,
        &sentinel_drill.scenario,
        &degraded_gests.scenario,
    ]);
    for scenario in scenarios {
        must(!scenario.is_empty(), "a record row carries an empty scenario tag".into());
    }
    let pass = failures_list.is_empty();
    let record = FaultScenariosRecord {
        campaign_work_s: CAMPAIGN_WORK_S,
        sweep_points: SWEEP_POINTS as u64,
        young_tolerance: YOUNG_TOL,
        apps,
        pele_campaign,
        sentinel_drill,
        degraded_gests,
        pass,
    };
    write_root_json("BENCH_fault_scenarios", &record);

    if pass {
        println!("\nfault scenarios: all gates pass");
    }
    gate(failures_list)
}
