//! `reproduce` — the one entry point for every experiment.
//!
//! ```text
//! reproduce list              name every experiment
//! reproduce <name>...         run the named experiments, in order
//! reproduce paper             the thirteen paper-artifact experiments
//! reproduce gates             the gated experiments tier 1 runs
//! ```
//!
//! Exits 0 when every experiment passed its gates, 1 when any failed, and
//! 2 on a usage error.

use exa_bench::experiments::{resolve, ALL};
use std::process::ExitCode;

/// One line per experiment: name, group, description.
fn listing() -> String {
    ALL.iter()
        .map(|e| format!("{:<20} {:<6} {}\n", e.name, e.group, e.about))
        .collect()
}

const USAGE: &str = "usage: reproduce list | reproduce <name|paper|gates>...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["list"] {
        print!("{}", listing());
        return ExitCode::SUCCESS;
    }
    let plan = match resolve(&args) {
        Ok(plan) if !plan.is_empty() => plan,
        Ok(_) => {
            eprint!("{USAGE}\n\n{}", listing());
            return ExitCode::from(2);
        }
        Err(e) => {
            eprint!("reproduce: {e}\n{USAGE}\n\n{}", listing());
            return ExitCode::from(2);
        }
    };
    // Resolve the output root first, so a run outside a checkout stops
    // before its first experiment rather than when that one writes.
    let _ = exa_bench::repo_root();
    let mut failed = Vec::new();
    for e in plan {
        if let Err(failures) = (e.run)() {
            for f in &failures {
                eprintln!("FAIL [{}]: {f}", e.name);
            }
            failed.push(e.name);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("reproduce: {} failed: {}", failed.len(), failed.join(", "));
        ExitCode::FAILURE
    }
}
