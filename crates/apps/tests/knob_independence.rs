//! Crate outputs depend on no knob file and no knob env var: the GESTS
//! Frontier FOM and an executed DNS step come out the same in a child
//! process that points `EXA_TUNED` at a table of off-production values and
//! sets `EXA_TUNE_FFT_OVERLAP_K` as in this process, which has neither.
//!
//! The child re-runs this binary's ignored `print_outputs` test. A child
//! process (rather than a later call in this one) guarantees that the
//! table is the first thing a knob lookup would load.

use exa_apps::gests::Gests;
use exa_apps::gests_exec::{executed_dns_step, DnsStep};
use exa_core::Application;
use exa_machine::MachineModel;
use exa_mpi::RankScheduler;
use std::process::Command;

const MARKER: &str = "outputs: ";

/// Every output under test, rendered with `{:?}` (shortest round-trip
/// floats, so equal strings mean equal bits).
fn outputs() -> String {
    let fom = Gests.run(&MachineModel::frontier());
    let cfg = DnsStep {
        n: 16,
        ranks: 64,
        ..DnsStep::step_1024()
    };
    let (step, record) = executed_dns_step(&RankScheduler::new(), &cfg);
    format!("{fom:?} {step:?} {record:?}")
}

#[test]
#[ignore = "run by outputs_ignore_knob_table_and_env in a child process"]
fn print_outputs() {
    println!("{MARKER}{}", outputs());
}

#[test]
fn outputs_ignore_knob_table_and_env() {
    let table = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("off_production.json");
    std::fs::write(
        &table,
        "{\n  \"version\": 1,\n  \"seed\": 1,\n  \"machine\": \"frontier\",\n  \"knobs\": {\n    \
         \"fft.gather\": 0,\n    \"fft.line_batch\": 1,\n    \"fft.overlap_k\": 2\n  }\n}\n",
    )
    .expect("can write the table");
    let child = Command::new(std::env::current_exe().expect("test binary path"))
        .args(["print_outputs", "--exact", "--ignored", "--nocapture"])
        .env("EXA_TUNED", &table)
        .env("EXA_TUNE_FFT_OVERLAP_K", "2")
        .output()
        .expect("child test process runs");
    assert!(child.status.success(), "child failed: {child:?}");
    let stdout = String::from_utf8(child.stdout).expect("utf-8 output");
    let with_knobs = stdout
        .lines()
        .find_map(|l| l.strip_prefix(MARKER))
        .expect("child printed its outputs");

    std::env::remove_var("EXA_TUNED");
    std::env::remove_var("EXA_TUNE_FFT_OVERLAP_K");
    assert_eq!(with_knobs, outputs());
}
