//! §3.6 — CoMet precision sweep and weak scaling to 9,074 nodes.

use crate::{Gate, header, write_json};
use exa_apps::comet::CoMet;
use exa_core::Application;
use exa_hal::DType;
use exa_machine::MachineModel;
use serde::Serialize;

#[derive(Serialize)]
struct ScalingRow {
    nodes: u32,
    exaflops: f64,
    weak_scaling_efficiency: f64,
}

pub fn run() -> Gate {
    header("CoMet (§3.6): mixed-precision CCC GEMM at scale");
    let frontier = MachineModel::frontier();

    println!("precision sweep (per-card comparison rate, Frontier):");
    for dtype in [DType::F64, DType::F32, DType::F16, DType::I8] {
        let app = CoMet {
            dtype,
            ..CoMet::default()
        };
        let rate = app.comparisons_per_second_per_card(&frontier);
        println!(
            "  {:>5}: {rate:.3e} vector-pair comparisons/s",
            format!("{dtype:?}")
        );
    }
    println!("(reduced precision \"mak[es] it possible to solve much larger problems\")");

    let app = CoMet::default();
    println!("\nweak scaling, FP16/FP32 mixed:");
    let mut rows = Vec::new();
    let base = app.machine_exaflops(&frontier, 1);
    for nodes in [64u32, 512, 2048, 4096, 9_074] {
        let ef = app.machine_exaflops(&frontier, nodes);
        let eff = ef / (base * nodes as f64);
        println!(
            "  {nodes:>6} nodes: {ef:>7.2} EF   (weak-scaling eff {:.1}%)",
            eff * 100.0
        );
        rows.push(ScalingRow {
            nodes,
            exaflops: ef,
            weak_scaling_efficiency: eff,
        });
    }
    let full = app.machine_exaflops(&frontier, 9_074);
    println!(
        "\nfull-scale rate: {full:.2} EF on 9,074 nodes  \
         [paper: \"over 6.71 exaflops ... near-perfect weak scaling\"]"
    );
    let speedup = app.measure_speedup();
    println!("Table 2 speed-up (per card): {speedup:.2}x  [paper: 5.2x]");

    write_json("comet_scaling", &rows);
    Ok(())
}
