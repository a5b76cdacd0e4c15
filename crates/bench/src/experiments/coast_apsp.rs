//! §3.9 — COAST: min-plus kernel autotuning and the Gordon-Bell runs.

use crate::{Gate, header, vs_paper, write_json};
use exa_apps::calibration::coast as cal;
use exa_apps::coast::{autotune, floyd_warshall_blocked, floyd_warshall_ref, Coast, INF};
use exa_machine::{GpuModel, MachineModel};
use serde::Serialize;

#[derive(Serialize)]
struct CoastRecord {
    v100_kernel_tflops: f64,
    mi250x_kernel_tflops: f64,
    summit_machine_pflops: f64,
    frontier_machine_pflops: f64,
    speedup: f64,
}

pub fn run() -> Gate {
    header("COAST (§3.9): autotuned min-plus Floyd-Warshall");

    // Correctness spot-run of the actual blocked solver.
    let n = 64;
    let mut dist: Vec<f32> = (0..n * n)
        .map(|idx| {
            let (i, j) = (idx / n, idx % n);
            if i == j {
                0.0
            } else if (i + 1) % n == j || (i * 7 + 3) % n == j {
                1.0 + ((i * j) % 10) as f32 / 10.0
            } else {
                INF
            }
        })
        .collect();
    let mut reference = dist.clone();
    floyd_warshall_ref(&mut reference, n);
    floyd_warshall_blocked(&mut dist, n, 16);
    let max_err = dist
        .iter()
        .zip(&reference)
        .filter(|(a, b)| a.is_finite() || b.is_finite())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f32::max);
    println!("blocked FW vs reference on a {n}-vertex graph: max |Δ| = {max_err:.2e}");

    // Autotuning study.
    let (tiling_v100, tf_v100) = autotune(&GpuModel::v100(), cal::SUMMIT_EFF);
    let (tiling_gcd, tf_gcd) = autotune(&GpuModel::mi250x_gcd(), cal::FRONTIER_EFF);
    println!("\nautotuner results:");
    println!("  V100   : best tiling {tiling_v100:?}, {tf_v100:.1} TF  [paper: 5.6 TF]");
    println!(
        "  MI250X : best tiling {tiling_gcd:?}, {:.1} TF/card  [paper: 30.6 TF]",
        tf_gcd * 2.0
    );

    // Gordon-Bell scale.
    let summit_pf = Coast::machine_pflops(&MachineModel::summit());
    let frontier_pf = Coast::machine_pflops(&MachineModel::frontier());
    println!("\nfull-machine APSP sustained rate:");
    println!("  Summit   (GB 2020): {}", vs_paper(summit_pf, 136.0));
    println!("  Frontier (GB 2022): {frontier_pf:.0} PF  [paper: 1004 PF = 1.004 EF]");
    println!(
        "  speed-up          : {}",
        vs_paper(frontier_pf / summit_pf, 7.4)
    );

    write_json(
        "coast_apsp",
        &CoastRecord {
            v100_kernel_tflops: tf_v100,
            mi250x_kernel_tflops: tf_gcd * 2.0,
            summit_machine_pflops: summit_pf,
            frontier_machine_pflops: frontier_pf,
            speedup: frontier_pf / summit_pf,
        },
    );
    Ok(())
}
