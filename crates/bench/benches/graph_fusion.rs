//! Kernel-graph fusion headline benchmark (ISSUE PR 1 acceptance gate).
//!
//! Builds an 8-kernel elementwise chain over 2^22 f64s, then compares
//! eager launch-by-launch execution against fused graph replay on two
//! axes:
//!
//! * **wall clock** — the fused closure sweeps memory once per replay
//!   (all stages applied per L1-resident chunk) while eager execution
//!   sweeps the full 32 MiB buffer once per stage; and
//! * **simulated cost** — replay charges a single graph submission where
//!   eager charges one launch latency per kernel.
//!
//! Results land in `BENCH_graph_fusion.json` at the repo root.

use criterion::{criterion_group, criterion_main, Criterion};
use exa_bench::{time_median, write_root_json};
use exa_hal::{
    ApiSurface, DType, Device, FusionPolicy, GraphCapture, KernelProfile, LaunchConfig, Stream,
};
use exa_machine::GpuModel;
use serde::Serialize;
use std::hint::black_box;

const N: usize = 1 << 22;
const N_KERNELS: usize = 8;

fn stream() -> Stream {
    Stream::new(Device::new(GpuModel::mi250x_gcd(), 0), ApiSurface::Hip).unwrap()
}

/// Capture a chain of contractive affine kernels (`x = x*a + b` with
/// `|a| < 1`) so the buffer stays finite no matter how many times the
/// chain is re-run in place during timing loops.
fn capture_chain() -> GraphCapture {
    let mut cap = GraphCapture::new();
    for s in 0..N_KERNELS {
        let a = 0.995 - 0.001 * s as f64;
        let b = 0.01 + 0.002 * s as f64;
        let profile = KernelProfile::new(format!("elem{s}"), LaunchConfig::cover(N as u64, 256))
            .flops(N as f64 * 2.0, DType::F64)
            .bytes(N as f64 * 8.0, N as f64 * 8.0);
        cap.elementwise(profile, move |_, chunk| {
            for x in chunk {
                *x = *x * a + b;
            }
        });
    }
    cap
}

#[derive(Serialize)]
struct Record {
    n_elements: usize,
    n_kernels: usize,
    fused_nodes_after_pass: usize,
    kernels_after_fusion: usize,
    wall_eager_ms: f64,
    wall_fused_replay_ms: f64,
    wall_speedup: f64,
    wall_speedup_required: f64,
    sim_eager_us: f64,
    sim_replay_us: f64,
    launch_charges_eager_per_step: u64,
    launch_charges_replay_per_step: u64,
    pass: bool,
}

fn bench_graph_fusion(c: &mut Criterion) {
    let unfused = capture_chain().end();
    let mut fused = capture_chain().end();
    let merged = fused.fuse_elementwise(&FusionPolicy::default());
    assert!(merged > 0, "the chain must actually fuse");

    let mut data: Vec<f64> = (0..N).map(|i| (i as f64 * 1e-6).sin()).collect();

    // Criterion display benches.
    let mut g = c.benchmark_group("graph/fusion_2^22");
    {
        let mut s = stream();
        let d = &mut data;
        g.bench_function("unfused_eager_8_launches", |b| {
            b.iter(|| {
                s.launch_eager(black_box(&unfused), d);
            })
        });
    }
    {
        let mut s = stream();
        let mut d: Vec<f64> = (0..N).map(|i| (i as f64 * 1e-6).sin()).collect();
        g.bench_function("fused_replay_1_launch", |b| {
            b.iter(|| {
                s.replay_on(black_box(&fused), &mut d);
            })
        });
    }
    g.finish();

    // Headline measurement for the JSON record: median wall clock of one
    // full chain application per path.
    let mut s_eager = stream();
    let wall_eager = time_median(2, 9, || {
        s_eager.launch_eager(&unfused, &mut data);
    });
    let mut s_fused = stream();
    let wall_fused = time_median(2, 9, || {
        s_fused.replay_on(&fused, &mut data);
    });
    let speedup = wall_eager / wall_fused;

    // Simulated launch accounting: one fresh stream per path, one step each.
    let mut sim_e = stream();
    let mut buf: Vec<f64> = vec![0.5; 4096];
    let sim_eager = sim_e.launch_eager(&unfused, &mut buf);
    let mut sim_r = stream();
    let sim_replay = sim_r.replay_on(&fused, &mut buf);
    let eager_charges = sim_e.stats().kernels;
    let replay_charges = sim_r.stats().graph_replays;
    assert_eq!(eager_charges, N_KERNELS as u64);
    assert_eq!(replay_charges, 1);
    assert_eq!(sim_r.stats().graph_kernels as usize, fused.stats().kernels);

    let record = Record {
        n_elements: N,
        n_kernels: N_KERNELS,
        fused_nodes_after_pass: fused.stats().fused_nodes,
        kernels_after_fusion: fused.stats().kernels,
        wall_eager_ms: wall_eager * 1e3,
        wall_fused_replay_ms: wall_fused * 1e3,
        wall_speedup: speedup,
        wall_speedup_required: 1.5,
        sim_eager_us: sim_eager.secs() * 1e6,
        sim_replay_us: sim_replay.secs() * 1e6,
        launch_charges_eager_per_step: eager_charges,
        launch_charges_replay_per_step: replay_charges,
        pass: speedup >= 1.5,
    };
    println!(
        "\ngraph fusion: eager {:.3} ms, fused replay {:.3} ms, speedup {:.2}x \
         (launch charges {} -> {})",
        record.wall_eager_ms,
        record.wall_fused_replay_ms,
        record.wall_speedup,
        eager_charges,
        replay_charges
    );
    write_root_json("BENCH_graph_fusion", &record);
    assert!(
        record.pass,
        "fused replay must be >=1.5x faster than eager: {speedup:.2}x"
    );
}

criterion_group!(benches, bench_graph_fusion);
criterion_main!(benches);
