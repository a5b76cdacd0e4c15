//! §3.3 — GESTS figure of merit: slabs vs pencils, Summit reference vs the
//! Frontier 32,768³ target run.

use crate::{Gate, header, write_json};
use exa_apps::gests::{Gests, PsdnsRun};
use exa_fft::Decomp;
use exa_machine::MachineModel;
use serde::Serialize;

#[derive(Serialize)]
struct GestsRow {
    machine: String,
    n: usize,
    ranks: usize,
    decomp: String,
    step_seconds: f64,
    fom_points_per_s: f64,
}

pub fn run() -> Gate {
    header("GESTS (§3.3): PSDNS FOM = N^3 / t_wall");
    let summit = MachineModel::summit();
    let frontier = MachineModel::frontier();

    let mut rows = Vec::new();
    let mut record = |m: &MachineModel, run: &PsdnsRun| {
        let t = run.step_time(m);
        let fom = run.fom(m);
        println!(
            "{:<9} N={:<6} p={:<6} {:<8} step {:>10.3} s   FOM {:.3e} pts/s",
            m.name,
            run.n,
            run.ranks,
            format!("{:?}", run.decomp),
            t.secs(),
            fom
        );
        rows.push(GestsRow {
            machine: m.name.clone(),
            n: run.n,
            ranks: run.ranks,
            decomp: format!("{:?}", run.decomp),
            step_seconds: t.secs(),
            fom_points_per_s: fom,
        });
        fom
    };

    let reference = record(&summit, &Gests::summit_reference());
    let target = record(&frontier, &Gests::frontier_target());
    println!(
        "\nFOM improvement over the Summit INCITE-2019 reference: {:.2}x  \
         [paper: \"in excess of 5x\"; CAAR target 4x]",
        target / reference
    );

    // Slabs vs pencils ablation at fixed rank count on Frontier.
    println!("\nslabs-vs-pencils ablation (N = 8192, Frontier):");
    for (ranks, decomp) in [
        (4096, Decomp::Slabs),
        (4096, Decomp::Pencils),
        (65536, Decomp::Pencils),
    ] {
        let run = PsdnsRun::new(8192, ranks, decomp);
        record(&frontier, &run);
    }
    println!(
        "(slabs win at equal ranks — one fewer transpose — but cap at N ranks; \
         pencils scale to N^2)"
    );

    write_json("gests_fom", &rows);
    Ok(())
}
