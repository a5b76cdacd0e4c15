//! Table 2 — Observed application speed-ups from OLCF-5 (Summit) to
//! OLCF-6 (Frontier).
//!
//! Runs every Table 2 application's challenge problem on the Summit and
//! Frontier machine models and reports the measured speed-up next to the
//! paper's value. A closing row prices GAMESS's GDDI fragment driver at
//! 2,048 Frontier nodes (§3.1: "nearly ideal linear scaling up to 2K
//! nodes"); the gate fails unless its parallel efficiency is at least 95%.

use crate::{gate, header, vs_paper, write_json, Gate};
use exa_apps::gamess::gddi_scaling_efficiency;
use exa_apps::table2_applications;
use exa_machine::MachineModel;
use serde::Serialize;

/// Node count of the GDDI row.
const GDDI_NODES: u32 = 2048;
/// The efficiency that counts as "nearly ideal".
const GDDI_FLOOR: f64 = 0.95;

#[derive(Serialize)]
struct Table2Row {
    application: String,
    section: String,
    fom: String,
    summit_fom: f64,
    frontier_fom: f64,
    measured_speedup: f64,
    paper_speedup: f64,
    rel_error: f64,
}

/// The §3.1 row: GDDI weak-scaling efficiency on Frontier.
#[derive(Serialize)]
struct GddiRow {
    nodes: u32,
    efficiency: f64,
}

#[derive(Serialize)]
struct Table2 {
    rows: Vec<Table2Row>,
    gddi: GddiRow,
}

pub fn run() -> Gate {
    header("Table 2: Summit -> Frontier speed-ups");
    let summit = MachineModel::summit();
    let frontier = MachineModel::frontier();
    let mut rows = Vec::new();

    println!("{:<10} {:<40} {:>10}", "app", "figure of merit", "speed-up");
    for app in table2_applications() {
        let fom = app.fom();
        let s = app.run(&summit);
        let f = app.run(&frontier);
        let measured = fom.speedup(s.value, f.value);
        let paper = app.paper_speedup().expect("table2 app");
        println!(
            "{:<10} {:<40} {}",
            app.name(),
            format!("{} ({})", fom.name, fom.units),
            vs_paper(measured, paper)
        );
        rows.push(Table2Row {
            application: app.name().to_string(),
            section: app.paper_section().to_string(),
            fom: fom.name.to_string(),
            summit_fom: s.value,
            frontier_fom: f.value,
            measured_speedup: measured,
            paper_speedup: paper,
            rel_error: (measured - paper).abs() / paper,
        });
    }

    let worst = rows.iter().map(|r| r.rel_error).fold(0.0, f64::max);
    let mean = rows.iter().map(|r| r.rel_error).sum::<f64>() / rows.len() as f64;
    println!(
        "\nmean |error| vs paper: {:.1}%   worst: {:.1}%",
        mean * 100.0,
        worst * 100.0
    );
    println!(
        "paper's summary band (§6): \"performance improvements between 5x and 7x ... being \
         typical\" — measured range {:.1}x ..= {:.1}x",
        rows.iter()
            .map(|r| r.measured_speedup)
            .fold(f64::INFINITY, f64::min),
        rows.iter().map(|r| r.measured_speedup).fold(0.0, f64::max),
    );
    let gddi = GddiRow {
        nodes: GDDI_NODES,
        efficiency: gddi_scaling_efficiency(&frontier, GDDI_NODES),
    };
    println!(
        "GAMESS GDDI fragment driver on {GDDI_NODES} Frontier nodes: {:.2}% parallel \
         efficiency  [paper: nearly ideal linear scaling up to 2K nodes]",
        gddi.efficiency * 100.0
    );
    let mut failures = Vec::new();
    if gddi.efficiency < GDDI_FLOOR {
        failures.push(format!(
            "GDDI efficiency at {GDDI_NODES} nodes {} is below {GDDI_FLOOR}",
            gddi.efficiency
        ));
    }
    write_json("table2_speedups", &Table2 { rows, gddi });
    gate(failures)
}
