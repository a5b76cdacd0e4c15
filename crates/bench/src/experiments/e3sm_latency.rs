//! §3.5 — E3SM-MMF latency-management ablation grid.
//!
//! Sweeps the four mitigation strategies (fusion, fission-on-spill, async
//! launch, pool allocator) individually and combined, at three
//! strong-scaling operating points. A closing row prices §3.5's throughput
//! target, "1,000–2,000x realtime", at the strong-scaled operating point:
//! the gate fails unless the optimised pipeline reaches 1000x realtime and
//! beats the naive one.

use crate::{gate, header, write_json, Gate};
use exa_apps::calibration::e3sm as cal;
use exa_apps::e3sm::{realtime_ratio, step_time, E3smConfig};
use exa_machine::GpuArch;
use serde::Serialize;

/// Model seconds one physics step advances in the realtime row.
const STEP_SECONDS: f64 = 180.0;
/// The low end of the paper's realtime target.
const REALTIME_TARGET: f64 = 1000.0;

#[derive(Serialize)]
struct AblationRow {
    config: String,
    columns: usize,
    step_us: f64,
    speedup_vs_naive: f64,
}

/// The realtime row: model time per wall time at `columns` per GPU.
#[derive(Serialize)]
struct RealtimeRow {
    columns: usize,
    step_seconds: f64,
    optimized: f64,
    naive: f64,
}

#[derive(Serialize)]
struct E3smLatency {
    ablation: Vec<AblationRow>,
    realtime: RealtimeRow,
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
    let columns = cal::COLUMNS_PER_GPU;
    let realtime = RealtimeRow {
        columns,
        step_seconds: STEP_SECONDS,
        optimized: realtime_ratio(arch, E3smConfig::optimized(), columns, STEP_SECONDS),
        naive: realtime_ratio(arch, E3smConfig::naive(), columns, STEP_SECONDS),
    };
    println!(
        "realtime at {columns} columns/GPU, {STEP_SECONDS} s per step: optimized {:.0}x, \
         naive {:.0}x  [paper: 1,000-2,000x realtime target]",
        realtime.optimized, realtime.naive
    );
    let mut failures = Vec::new();
    if !(realtime.optimized >= REALTIME_TARGET && realtime.naive < realtime.optimized) {
        failures.push(format!(
            "the optimized pipeline must reach {REALTIME_TARGET}x realtime and beat the \
             naive one: {} vs {}",
            realtime.optimized, realtime.naive
        ));
    }
    write_json(
        "e3sm_latency",
        &E3smLatency {
            ablation: rows,
            realtime,
        },
    );
    gate(failures)
}
