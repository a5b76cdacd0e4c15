//! Figure 1 — SHOC HIP vs CUDA relative performance on Summit.
//!
//! Regenerates the paper's Figure 1: every SHOC program run on a Summit
//! V100 under the CUDA surface and the hipified HIP surface; bars are
//! normalized HIP performance with and without data-transfer costs.
//! Gate: hipify converts every program's CUDA source with no manual fix
//! (§2.1), and every program verifies against its host oracle with its
//! with-transfer ratio in the figure's 0.90..=1.05 band.

use crate::{gate, header, write_json, Gate};
use exa_shoc::figure1::{run_figure1, summary};
use exa_shoc::{all_benchmarks, Scale};

pub fn run() -> Gate {
    header("Figure 1: SHOC benchmarks, HIP relative to CUDA on Summit (V100)");

    // First, the §2.1 hipify conversion study over the suite's sources.
    let mut failures = Vec::new();
    let mut api_lines = 0;
    let mut converted = 0;
    for b in all_benchmarks() {
        let r = exa_hal::hipify_source(b.cuda_source());
        api_lines += r.api_lines;
        converted += r.converted_lines;
        if r.manual_fix_lines() > 0 {
            failures.push(format!(
                "{}: hipify left {} line(s) for a manual fix",
                b.name(),
                r.manual_fix_lines()
            ));
        }
    }
    println!(
        "hipify conversion: {converted}/{api_lines} API lines automatic \
         ({:.1}% — \"the hipify tool converted the bulk of the code automatically\")",
        100.0 * converted as f64 / api_lines as f64
    );

    let rows = run_figure1(Scale::Full).expect("figure 1 runs");
    println!(
        "\n{:<18} {:>14} {:>14}  verified",
        "benchmark", "with transfer", "kernel only"
    );
    for r in &rows {
        println!(
            "{:<18} {:>14.4} {:>14.4}  {}",
            r.name,
            r.ratio_with_transfer,
            r.ratio_kernel_only,
            if r.verified { "ok" } else { "FAILED" }
        );
    }
    let (with_t, without_t) = summary(&rows);
    println!("\ngeometric mean (with transfers)    : {with_t:.4}  [paper: 0.998]");
    println!("geometric mean (without transfers) : {without_t:.4}  [paper: 0.999]");
    for r in &rows {
        if !r.verified {
            failures.push(format!("{}: output failed its host-oracle check", r.name));
        }
        if !(0.90..=1.05).contains(&r.ratio_with_transfer) {
            failures.push(format!(
                "{}: HIP/CUDA ratio {:.4} outside 0.90..=1.05",
                r.name, r.ratio_with_transfer
            ));
        }
    }
    println!(
        "Figure 1 band check (0.90..=1.05)  : {}",
        if rows
            .iter()
            .all(|r| (0.90..=1.05).contains(&r.ratio_with_transfer))
        {
            "all benchmarks in band"
        } else {
            "OUT OF BAND"
        }
    );

    write_json("fig1_shoc", &rows);
    gate(failures)
}
