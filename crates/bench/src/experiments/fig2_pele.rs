//! Figure 2 — PeleC time per cell per timestep, Sep 2018 → Mar 2023.
//!
//! Regenerates the single-node series across NERSC Cori, ANL Theta, NREL
//! Eagle, OLCF Summit, and OLCF Frontier, plus the 4,096-node series on
//! Summit and Frontier, across the project's code states. Two closing rows
//! carry §3.8's lessons. The weak-scaling row prices 1 → 4,096 Frontier
//! nodes with and without the asynchronous ghost exchange; the gate fails
//! unless the asynchronous state is above 80% ("over 80%") and above the
//! synchronous one. The UVM row times the chemistry state's per-step data
//! movement through UVM page migration against explicit copies ("removing
//! the use of UVM was ultimately necessary"); the gate fails unless the
//! explicit copies win.

use crate::{gate, header, write_json, Gate};
use exa_apps::pele::{
    chemistry_data_time, time_per_cell_step, time_per_cell_step_at_scale,
    weak_scaling_efficiency, CodeState,
};
use exa_machine::MachineModel;
use serde::Serialize;

/// Node count of the weak-scaling row.
const WEAK_NODES: u32 = 4096;
/// Chemistry cells and steps of the UVM row.
const UVM_CELLS: usize = 64 * 64;
const UVM_STEPS: usize = 4;

#[derive(Serialize)]
struct Fig2Point {
    code_state: String,
    machine: String,
    nodes: u32,
    time_per_cell_step_s: f64,
}

/// The §3.8 weak-scaling row: Frontier efficiency from 1 to `nodes` nodes
/// with the asynchronous ghost exchange (2023) and without it (2022).
#[derive(Serialize)]
struct WeakScalingRow {
    nodes: u32,
    async_2023: f64,
    fused_2022: f64,
}

/// The §3.8 UVM row: one MI250X GCD's chemistry data time both ways.
#[derive(Serialize)]
struct UvmRow {
    cells: u64,
    steps: u64,
    explicit_copies_s: f64,
    uvm_s: f64,
}

/// One element of the artifact: a Figure 2 point or a closing row.
enum Fig2Record {
    Point(Fig2Point),
    WeakScaling(WeakScalingRow),
    Uvm(UvmRow),
}

impl Serialize for Fig2Record {
    fn write_json(&self, out: &mut String) {
        match self {
            Fig2Record::Point(p) => p.write_json(out),
            Fig2Record::WeakScaling(w) => w.write_json(out),
            Fig2Record::Uvm(u) => u.write_json(out),
        }
    }
}

/// The (code state, machine) pairs along the Figure 2 x-axis.
fn timeline() -> Vec<(CodeState, MachineModel)> {
    vec![
        (CodeState::Baseline2018, MachineModel::cori()),
        (CodeState::Baseline2018, MachineModel::theta()),
        (CodeState::Baseline2018, MachineModel::eagle()),
        (CodeState::GpuPort2020, MachineModel::summit()),
        (CodeState::Cvode2021, MachineModel::summit()),
        (CodeState::Fused2022, MachineModel::summit()),
        (CodeState::Fused2022, MachineModel::frontier()),
        (CodeState::Async2023, MachineModel::frontier()),
    ]
}

pub fn run() -> Gate {
    header("Figure 2: PeleC time per cell per timestep (single node + 4096 nodes)");
    let mut points = Vec::new();

    println!(
        "{:<16} {:<10} {:>16} {:>16}",
        "code state", "machine", "1 node [s]", "4096 nodes [s]"
    );
    for (state, machine) in timeline() {
        let t1 = time_per_cell_step(&machine, state);
        let t4096 = time_per_cell_step_at_scale(&machine, state, 4096);
        println!(
            "{:<16} {:<10} {:>16.3e} {:>16.3e}",
            format!("{state:?}"),
            machine.name,
            t1.secs(),
            t4096.secs()
        );
        points.push(Fig2Record::Point(Fig2Point {
            code_state: format!("{state:?}"),
            machine: machine.name.clone(),
            nodes: 1,
            time_per_cell_step_s: t1.secs(),
        }));
        points.push(Fig2Record::Point(Fig2Point {
            code_state: format!("{state:?}"),
            machine: machine.name.clone(),
            nodes: 4096,
            time_per_cell_step_s: t4096.secs(),
        }));
    }

    let frontier = MachineModel::frontier();
    let start = time_per_cell_step(&MachineModel::cori(), CodeState::Baseline2018);
    let end = time_per_cell_step(&frontier, CodeState::Async2023);
    println!(
        "\ncumulative project speed-up (Cori 2018 -> Frontier 2023): {:.1}x  [paper: ~75x]",
        start / end
    );
    let weak = WeakScalingRow {
        nodes: WEAK_NODES,
        async_2023: weak_scaling_efficiency(&frontier, CodeState::Async2023, WEAK_NODES),
        fused_2022: weak_scaling_efficiency(&frontier, CodeState::Fused2022, WEAK_NODES),
    };
    println!(
        "weak scaling to {WEAK_NODES} Frontier nodes: {:.1}% with the async ghost exchange \
         (2023), {:.1}% synchronous (2022)  [paper: over 80%]",
        weak.async_2023 * 100.0,
        weak.fused_2022 * 100.0
    );

    let explicit = chemistry_data_time(UVM_CELLS, UVM_STEPS, false);
    let uvm = chemistry_data_time(UVM_CELLS, UVM_STEPS, true);
    println!(
        "chemistry data movement ({UVM_CELLS} cells x {UVM_STEPS} steps, one MI250X GCD): \
         explicit copies {:.3e} s vs UVM {:.3e} s = {:.1}x  [paper: removing UVM was necessary]",
        explicit.secs(),
        uvm.secs(),
        uvm / explicit
    );
    let mut failures = Vec::new();
    if !(weak.async_2023 > 0.80 && weak.async_2023 > weak.fused_2022) {
        failures.push(format!(
            "weak scaling to {WEAK_NODES} nodes must be over 80% with the async ghost \
             exchange and above the synchronous state: {} vs {}",
            weak.async_2023, weak.fused_2022
        ));
    }
    if explicit >= uvm {
        failures.push(format!(
            "explicit copies ({explicit}) must beat UVM page migration ({uvm})"
        ));
    }
    points.push(Fig2Record::WeakScaling(weak));
    points.push(Fig2Record::Uvm(UvmRow {
        cells: UVM_CELLS as u64,
        steps: UVM_STEPS as u64,
        explicit_copies_s: explicit.secs(),
        uvm_s: uvm.secs(),
    }));
    write_json("fig2_pele", &points);
    gate(failures)
}
