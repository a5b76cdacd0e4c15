//! Print the hardware catalog — every machine model in the simulator with
//! its public-spec parameters (the §4 early-access timeline included). The
//! gate fails unless Frontier's FP64 machine peak is at least 1 EF and
//! Summit's is below it: the OLCF-5 -> OLCF-6 step the campaign targeted.

use crate::{gate, header, write_json, Gate};
use exa_machine::MachineModel;

/// One exaflop per second.
const EXAFLOP: f64 = 1e18;

pub fn run() -> Gate {
    header("Machine catalog (public-spec parameters)");
    let mut machines = vec![
        MachineModel::cori(),
        MachineModel::theta(),
        MachineModel::eagle(),
        MachineModel::summit(),
    ];
    machines.extend(MachineModel::early_access_timeline());
    machines.push(MachineModel::frontier());
    println!(
        "{:<10} {:>5} {:>7} {:<28} {:>5} {:>10} {:>10} {:<26}",
        "machine", "year", "nodes", "gpu", "gpus", "FP64/GPU", "peak", "fabric"
    );
    for m in &machines {
        let (gpu_name, gpus, tf) = if m.node.has_gpus() {
            let g = m.node.gpu();
            (g.name.clone(), m.node.gpus_per_node, g.peak_f64 / 1e12)
        } else {
            ("-".into(), 0, 0.0)
        };
        println!(
            "{:<10} {:>5} {:>7} {:<28} {:>5} {:>8.1}TF {:>8.1}PF {:<26}",
            m.name,
            m.year,
            m.nodes,
            gpu_name,
            gpus,
            tf,
            m.machine_peak_f64() / 1e15,
            m.interconnect.name
        );
    }
    let frontier = MachineModel::frontier().machine_peak_f64();
    let summit = MachineModel::summit().machine_peak_f64();
    println!(
        "\nFrontier FP64 peak {:.2} EF (exascale); Summit {:.0} PF — the OLCF-5 -> OLCF-6 step.",
        frontier / EXAFLOP,
        summit / 1e15
    );
    write_json("machine_catalog", &machines);
    let mut failures = Vec::new();
    if !(frontier >= EXAFLOP && summit < EXAFLOP) {
        failures.push(format!(
            "Frontier's FP64 peak ({frontier:e}) must reach 1 EF and Summit's ({summit:e}) \
             must not"
        ));
    }
    gate(failures)
}
