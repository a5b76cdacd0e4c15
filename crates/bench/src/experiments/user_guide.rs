//! §5 — generate the early-access quick-start guide from the structured
//! lessons registry (the paper's "distilled into new sections in the user
//! guide" pipeline), plus one measured row for §2.2's first OpenMP rule:
//! map persistent arrays once in a structured target-data region instead
//! of mapping data around every loop.
//!
//! The gate pins the row: the persistent region must beat per-loop mapping,
//! and both times must keep their golden bits.

use crate::{gate, write_json, Gate};
use exa_core::{lessons, render_user_guide};
use exa_hal::offload::{MapDir, TargetData};
use exa_hal::{ApiSurface, Device, Stream};
use exa_machine::{DType, GpuModel, KernelProfile, LaunchConfig, SimTime};
use serde::Serialize;

/// Loop iterations, and bytes of each of the two arrays the loop touches.
const LOOPS: usize = 20;
const BYTES: u64 = 1 << 30;

/// Golden bits of the two times on one MI250X GCD.
const PER_LOOP_BITS: u64 = 0x4003681b65eb7108;
const PERSISTENT_BITS: u64 = 0x3fb9582887390c76;

#[derive(Serialize)]
struct DataRegionRow {
    loops: u64,
    bytes_per_array: u64,
    per_loop_mapping_s: f64,
    persistent_region_s: f64,
}

/// `LOOPS` device kernels over a working array `u` and a scratch array,
/// timed with a target-data region around every loop (both arrays mapped
/// `tofrom`) and inside one persistent region (`u` mapped `tofrom`, the
/// scratch array `alloc`, device-only). Returns (per-loop, persistent).
fn data_region_times() -> (SimTime, SimTime) {
    let kernel = KernelProfile::new("loop", LaunchConfig::new(1 << 12, 256))
        .flops(2e8, DType::F64)
        .bytes(1.6e9, 0.8e9);
    let stream = || {
        Stream::new(Device::new(GpuModel::mi250x_gcd(), 0), ApiSurface::Hip).expect("hip on cdna2")
    };

    let mut per_loop = stream();
    let mut t_per_loop = SimTime::ZERO;
    for _ in 0..LOOPS {
        let mut region = TargetData::begin();
        region.map(&mut per_loop, "u", BYTES, MapDir::ToFrom);
        region.map(&mut per_loop, "scratch", BYTES, MapDir::ToFrom);
        per_loop.launch_modeled(&kernel);
        t_per_loop = region.end(&mut per_loop);
    }

    let mut persistent = stream();
    let mut region = TargetData::begin();
    region.map(&mut persistent, "u", BYTES, MapDir::ToFrom);
    region.map(&mut persistent, "scratch", BYTES, MapDir::Alloc);
    for _ in 0..LOOPS {
        persistent.launch_modeled(&kernel);
    }
    (t_per_loop, region.end(&mut persistent))
}

pub fn run() -> Gate {
    print!("{}", render_user_guide());
    write_json("user_guide_lessons", &lessons());

    let (per_loop, persistent) = data_region_times();
    println!(
        "\n## Measured: §2.2 data regions ({LOOPS} loops, two {} MiB arrays, one MI250X GCD)\n\
         - per-loop mapping:  {:.4e} s\n\
         - persistent region: {:.4e} s ({:.1}x faster)",
        BYTES >> 20,
        per_loop.secs(),
        persistent.secs(),
        per_loop / persistent
    );
    write_json(
        "user_guide_data_regions",
        &DataRegionRow {
            loops: LOOPS as u64,
            bytes_per_array: BYTES,
            per_loop_mapping_s: per_loop.secs(),
            persistent_region_s: persistent.secs(),
        },
    );

    let mut failures = Vec::new();
    if persistent >= per_loop {
        failures.push(format!(
            "persistent region ({persistent}) must beat per-loop mapping ({per_loop})"
        ));
    }
    for (what, t, bits) in [
        ("per-loop mapping", per_loop, PER_LOOP_BITS),
        ("persistent region", persistent, PERSISTENT_BITS),
    ] {
        if t.secs().to_bits() != bits {
            failures.push(format!(
                "{what} time {:e} s moved from its golden {:e} s",
                t.secs(),
                f64::from_bits(bits)
            ));
        }
    }
    gate(failures)
}
