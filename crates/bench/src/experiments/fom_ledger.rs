//! Figure-2-as-a-service: the longitudinal FOM ledger and regression
//! sentinel (§6's "continuous assessment of applications against their
//! stated speed-up targets", run as a gate).
//!
//! The experiment:
//!
//! 1. runs every Table-2 application's profiled challenge problem on the
//!    Frontier model under a fresh [`TelemetryCollector`], producing one
//!    [`FomRecord`](exa_telemetry::FomRecord) per app (value, units, wall, run tag, snapshot digest,
//!    top-span profile);
//! 2. appends the records to the repo-root `FOM_LEDGER.json` (append-only
//!    with identity dedup), compacts each series to the last 32 entries,
//!    and saves;
//! 3. runs the regression sentinel over every series — a `fail` verdict
//!    (newest ≥ 1.5× worse than the rolling-median baseline) fails the
//!    gate with the culprit span named;
//! 4. proves the sentinel actually detects regressions: on a *scratch*
//!    copy of the ledger it injects a synthetic 2× slowdown into GESTS's
//!    FFT transforms and asserts the sentinel returns `fail` with a
//!    `transform` culprit. The scratch ledger is discarded — the drill
//!    never pollutes the real history.

use crate::{gate, header, repo_root, Gate};
use exa_apps::table2_applications;
use exa_core::{measure_record, RunContext, ScenarioSpec};
use exa_machine::MachineModel;
use exa_telemetry::{
    run_sentinel, run_sentinel_all, FomLedger, TelemetryCollector, Verdict,
    LEDGER_FILE,
};
use std::process::Command;

/// The paper's Table-2 applications: the saved ledger must carry all eight.
const TABLE2_APPS: [&str; 8] = [
    "GAMESS", "LSMS", "GESTS", "ExaSky", "CoMet", "NuCCOR", "Pele", "COAST",
];

/// The run tag for this campaign: `EXA_RUN_TAG` if set, else
/// `git describe --always --dirty`, else "untagged".
fn run_tag() -> String {
    if let Ok(tag) = std::env::var("EXA_RUN_TAG") {
        if !tag.is_empty() {
            return tag;
        }
    }
    Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(repo_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "untagged".to_string())
}

/// Re-read the saved ledger and check its schema: parses, carries every
/// Table-2 app, and every record has a 16-hex-digit snapshot digest and a
/// non-empty span profile. Returns the failures.
fn check_saved_ledger(path: &std::path::Path) -> Vec<String> {
    let mut bad = Vec::new();
    let ledger = match FomLedger::load(path) {
        Ok(l) => l,
        Err(e) => return vec![format!("saved ledger does not re-parse: {e}")],
    };
    let apps = ledger.apps();
    for want in TABLE2_APPS {
        if !apps.iter().any(|app| app == want) {
            bad.push(format!("ledger is missing app {want}"));
        }
    }
    for r in &ledger.records {
        if r.snapshot_digest.len() != 16
            || !r.snapshot_digest.chars().all(|c| c.is_ascii_hexdigit())
        {
            bad.push(format!(
                "{}: snapshot digest {:?} is not 16 hex chars",
                r.app, r.snapshot_digest
            ));
        }
        if r.span_profile.is_empty() {
            bad.push(format!("{}: empty span profile", r.app));
        }
        if !(r.value.is_finite() && r.value > 0.0) {
            bad.push(format!("{}: non-finite or non-positive FOM value", r.app));
        }
    }
    bad
}

pub fn run() -> Gate {
    header("Longitudinal FOM ledger + regression sentinel (Figure 2 as a service)");
    let frontier = MachineModel::frontier();
    let tag = run_tag();
    let path = repo_root().join(LEDGER_FILE);

    let mut ledger = match FomLedger::load(&path) {
        Ok(l) => l,
        Err(e) => return Err(vec![format!("existing {LEDGER_FILE} is corrupt: {e}")]),
    };
    println!("ledger: {} prior records, run tag {tag}", ledger.len());

    // --- Campaign: one profiled run per Table-2 app ----------------------
    let mut app_names = Vec::new();
    for app in table2_applications() {
        let collector = TelemetryCollector::shared();
        let ctx = RunContext::new(&collector);
        let record = measure_record(app.as_ref(), &frontier, &ctx, &tag);
        println!(
            "  {:<8} {:>12.4e} {:<22} wall {:>9.3e} s  digest {}",
            record.app, record.value, record.units, record.wall_s, record.snapshot_digest
        );
        app_names.push(record.app.clone());
        ledger.append(record);
    }
    ledger.compact(32);
    if let Err(e) = ledger.save(&path) {
        return Err(vec![format!("cannot save {LEDGER_FILE}: {e}")]);
    }
    println!("[wrote {}]  ({} records)", path.display(), ledger.len());

    let mut failures = Vec::new();

    // --- Sentinel gate over the real history -----------------------------
    println!(
        "\nsentinel ({} series):",
        run_sentinel_all(&ledger).len()
    );
    for report in run_sentinel_all(&ledger) {
        println!("  {}", report.summary());
        if report.verdict == Verdict::Fail {
            failures.push(format!("sentinel fail: {}", report.summary()));
        }
    }

    // --- Injection drill: prove the sentinel catches a 2x slowdown -------
    // Scratch copy only — the drill record never reaches FOM_LEDGER.json.
    let mut drill = ledger.clone();
    let gests = table2_applications()
        .into_iter()
        .find(|a| a.name() == "GESTS")
        .expect("GESTS is in Table 2");
    let collector = TelemetryCollector::shared();
    let injected = ScenarioSpec::clean().with_injection("transform", 2.0);
    let ctx = RunContext::for_scenario(&collector, &injected);
    let hurt = measure_record(gests.as_ref(), &frontier, &ctx, &format!("{tag}-injected"));
    let kind = hurt.kind;
    drill.append(hurt);
    match run_sentinel(&drill, "GESTS", &frontier.name, kind) {
        None => failures.push("drill: sentinel produced no report for injected GESTS run".into()),
        Some(report) => {
            println!(
                "\ninjection drill (GESTS transforms 2x): {}",
                report.summary()
            );
            if report.verdict != Verdict::Fail {
                failures.push(format!(
                    "drill: 2x transform injection must trip the sentinel, got {} ({:.3}x)",
                    report.verdict.label(),
                    report.regression
                ));
            }
            match &report.culprit_span {
                Some(c) if c.contains("transform") => {}
                other => failures.push(format!(
                    "drill: culprit span must name the transforms, got {other:?}"
                )),
            }
        }
    }

    // --- Schema self-check on the saved file -----------------------------
    failures.extend(check_saved_ledger(&path));

    if failures.is_empty() {
        println!(
            "\nfom ledger: all gates pass ({} apps, {} records)",
            app_names.len(),
            ledger.len()
        );
    }
    gate(failures)
}
