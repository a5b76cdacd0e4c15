//! §3.4 — ExaSky/HACC gravity-kernel study and FOM.
//!
//! Reproduces: the six-kernel Summit→early-AMD comparison where exactly one
//! (warp-32-tuned) kernel regresses, the Frontier retune, the 4.2x FOM, and
//! the ~230x FOM vs the original Theta baseline.

use crate::{Gate, header, vs_paper, write_json};
use exa_apps::exasky::ExaSky;
use exa_core::Application;
use exa_machine::MachineModel;
use serde::Serialize;

#[derive(Serialize)]
struct KernelRow {
    kernel: String,
    speedup_vs_summit_on_spock: f64,
    speedup_vs_summit_on_frontier: f64,
}

pub fn run() -> Gate {
    header("ExaSky/HACC (§3.4): gravity kernels and weak-scaling FOM");
    let app = ExaSky::default();
    let summit = MachineModel::summit();
    let spock = MachineModel::spock();
    let frontier = MachineModel::frontier();

    let on_spock = app.kernel_speedups(&summit, &spock);
    let on_frontier = app.kernel_speedups(&summit, &frontier);
    println!(
        "{:<16} {:>16} {:>16}",
        "kernel", "Spock (MI100)", "Frontier (GCD)"
    );
    let mut rows = Vec::new();
    for ((name, s_spock), (_, s_frontier)) in on_spock.iter().zip(&on_frontier) {
        let mark = if *s_spock < 1.0 {
            "  <- regression (wavefront 32 tuning)"
        } else {
            ""
        };
        println!("{name:<16} {s_spock:>15.2}x {s_frontier:>15.2}x{mark}");
        rows.push(KernelRow {
            kernel: name.clone(),
            speedup_vs_summit_on_spock: *s_spock,
            speedup_vs_summit_on_frontier: *s_frontier,
        });
    }
    let regressions = on_spock.iter().filter(|(_, s)| *s < 1.0).count();
    println!(
        "\nkernels regressing on early AMD hardware: {regressions}/6  \
         [paper: \"Only one gravity kernel of the six of interest showed worse performance\"]"
    );

    let speedup = app.measure_speedup();
    println!("\nfull FOM Summit -> Frontier: {}", vs_paper(speedup, 4.2));
    let frontier_fom = app.machine_fom(&frontier);
    println!("Frontier machine FOM: {frontier_fom:.3e} particle-steps/s");
    println!("(paper: measured 4.2x vs the 4x target; FOM ~230x vs the original Theta baseline)");

    write_json("exasky_kernels", &rows);
    Ok(())
}
