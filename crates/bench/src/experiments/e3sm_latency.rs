//! §3.5 — E3SM-MMF latency-management ablation grid.
//!
//! Sweeps the four mitigation strategies (fusion, fission-on-spill, async
//! launch, pool allocator) individually and combined, at two strong-scaling
//! operating points.

use crate::{Gate, header, write_json};
use exa_apps::calibration::e3sm as cal;
use exa_apps::e3sm::{step_time, E3smConfig};
use exa_machine::GpuArch;
use serde::Serialize;

#[derive(Serialize)]
struct AblationRow {
    config: String,
    columns: usize,
    step_us: f64,
    speedup_vs_naive: f64,
}

pub fn run() -> Gate {
    header("E3SM-MMF (§3.5): kernel fusion/fission, async launch, pool allocator");
    let arch = GpuArch::Cdna2;
    let configs: Vec<(&str, E3smConfig)> = vec![
        ("naive", E3smConfig::naive()),
        (
            "+fusion",
            E3smConfig {
                fuse_kernels: true,
                ..E3smConfig::naive()
            },
        ),
        (
            "+fission",
            E3smConfig {
                fission_spilling: true,
                ..E3smConfig::naive()
            },
        ),
        (
            "+async",
            E3smConfig {
                async_launch: true,
                ..E3smConfig::naive()
            },
        ),
        (
            "+pool",
            E3smConfig {
                pool_allocator: true,
                ..E3smConfig::naive()
            },
        ),
        ("all (shipped)", E3smConfig::optimized()),
    ];

    let mut rows = Vec::new();
    for columns in [64usize, cal::COLUMNS_PER_GPU, 8192] {
        println!("\ncolumns per GPU = {columns} (strong scaling: fewer = more latency-bound)");
        let base = step_time(arch, columns, E3smConfig::naive());
        for (name, cfg) in &configs {
            let t = step_time(arch, columns, *cfg);
            println!(
                "  {:<14} {:>12.1} µs   {:>6.2}x",
                name,
                t.micros(),
                base / t
            );
            rows.push(AblationRow {
                config: name.to_string(),
                columns,
                step_us: t.micros(),
                speedup_vs_naive: base / t,
            });
        }
    }
    println!(
        "\n(the latency strategies matter most at low per-GPU workloads — exactly why a \
         1000-2000x-realtime strong-scaled MMF needed them)"
    );
    write_json("e3sm_latency", &rows);
    Ok(())
}
