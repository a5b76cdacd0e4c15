//! Kernel-graph fusion headline gate.
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
//! The wall-clock ratio comes from the order-fair pair timer
//! ([`crate::time_pairs`]); each path runs on its own copy of the buffer.
//! Results land in `BENCH_graph_fusion.json` at the repo root.

use crate::{gate, time_pairs, wall_s, write_root_json, Gate};
use exa_hal::{
    ApiSurface, DType, Device, FusionPolicy, GraphCapture, KernelProfile, LaunchConfig, Stream,
};
use exa_machine::GpuModel;
use serde::Serialize;

const N: usize = 1 << 22;
const N_KERNELS: usize = 8;
/// Interleaved eager/fused pairs behind the wall-clock ratio.
const PAIRS: usize = 9;
const SPEEDUP_REQUIRED: f64 = 1.5;

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

pub fn run() -> Gate {
    let unfused = capture_chain().end();
    let mut fused = capture_chain().end();
    let merged = fused.fuse_elementwise(&FusionPolicy::default());
    let mut failures = Vec::new();
    if merged == 0 {
        failures.push("the chain must actually fuse".to_string());
    }

    // Headline measurement for the JSON record: one full chain
    // application per path, after two warmup applications each.
    let field = || -> Vec<f64> { (0..N).map(|i| (i as f64 * 1e-6).sin()).collect() };
    let (mut eager_data, mut fused_data) = (field(), field());
    let (mut s_eager, mut s_fused) = (stream(), stream());
    let mut eager = || wall_s(|| s_eager.launch_eager(&unfused, &mut eager_data));
    let mut replay = || wall_s(|| s_fused.replay_on(&fused, &mut fused_data));
    for _ in 0..2 {
        eager();
        replay();
    }
    let timing = time_pairs(PAIRS, eager, replay);

    // Simulated launch accounting: one fresh stream per path, one step each.
    let mut sim_e = stream();
    let mut buf: Vec<f64> = vec![0.5; 4096];
    let sim_eager = sim_e.launch_eager(&unfused, &mut buf);
    let mut sim_r = stream();
    let sim_replay = sim_r.replay_on(&fused, &mut buf);
    let eager_charges = sim_e.stats().kernels;
    let replay_charges = sim_r.stats().graph_replays;
    if eager_charges != N_KERNELS as u64 || replay_charges != 1 {
        failures.push(format!(
            "launch charges {eager_charges} eager / {replay_charges} replay, \
             expected {N_KERNELS} / 1"
        ));
    }
    if sim_r.stats().graph_kernels as usize != fused.stats().kernels {
        failures.push("replay did not charge every fused kernel".into());
    }

    let record = Record {
        n_elements: N,
        n_kernels: N_KERNELS,
        fused_nodes_after_pass: fused.stats().fused_nodes,
        kernels_after_fusion: fused.stats().kernels,
        wall_eager_ms: timing.a_s * 1e3,
        wall_fused_replay_ms: timing.b_s * 1e3,
        wall_speedup: timing.ratio,
        wall_speedup_required: SPEEDUP_REQUIRED,
        sim_eager_us: sim_eager.secs() * 1e6,
        sim_replay_us: sim_replay.secs() * 1e6,
        launch_charges_eager_per_step: eager_charges,
        launch_charges_replay_per_step: replay_charges,
        pass: failures.is_empty() && timing.ratio >= SPEEDUP_REQUIRED,
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
    if timing.ratio < SPEEDUP_REQUIRED {
        failures.push(format!(
            "fused replay must be >={SPEEDUP_REQUIRED}x faster than eager: {:.2}x",
            timing.ratio
        ));
    }
    gate(failures)
}
