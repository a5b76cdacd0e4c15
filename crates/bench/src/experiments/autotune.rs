//! Production-vs-reference FFT plan gate.
//!
//! `ExecutedFft3d::tuned` (the production plan: run-hoisted repartition
//! gather with scratch reuse, one batched line-FFT call per rank slice)
//! must beat `ExecutedFft3d::new` (the reference plan: per-element gather
//! into fresh buffers) on measured wall clock, gated on medians of
//! interleaved reference/production ratio pairs:
//!
//! * **≥ 1.25×** on the 1024-rank 128³ distributed FFT round trip, and on
//!   the repartition (spectral transpose) cycle on the same footprint —
//!   the all-to-all phase the paper identifies as the exascale FFT
//!   bottleneck, where the win is structural (~2×);
//! * **≥ 1.05×** on the full GESTS DNS step window (forward → spectral
//!   advance → inverse) at the 4096-rank strong-scaling limit: its ~1.3×
//!   improvement sits too close to the hard threshold under shared-host
//!   noise, so it gates only against a no-dilution floor;
//! * **bit identity** — the production plan is bitwise-equal to the
//!   reference on every physics output, virtual clock and communication
//!   tally.
//!
//! It also records the line-FFT kernel's throughput on the 128³ grid's
//! `n²` lines (forward then inverse) by two routes: per-line `fft`/`ifft`
//! calls, which run the one-lane kernel, and one `fft_batch`/`ifft_batch`
//! call, which runs four lines per vector — with the instruction set the
//! host selected. Where that is AVX2, the batch must clear
//! `LINE_BATCH_FLOOR` over per-line calls; both routes must agree bitwise.
//!
//! The name and the `BENCH_autotune.json` record date from when a knob
//! search picked the production plan; they stay so that
//! `BENCH_HISTORY.jsonl` keeps one series. In the record, `frozen_*` is the
//! reference plan and `tuned_*` the production plan.

use crate::{time_pairs, write_root_json, Gate};
use exa_apps::gests_exec::{dns_step_window, DnsStep};
use exa_fft::fft1d::{fft, fft_batch, fft_flops, ifft, ifft_batch, LineIsa};
use exa_fft::{DistGrid, ExecutedFft3d, C64};
use exa_machine::{GpuModel, MachineModel, SimTime};
use exa_mpi::{Comm, Network, RankScheduler};
use serde::Serialize;
use std::time::Instant;

/// Interleaved reference/production ratio pairs per gated path.
const REPS: usize = 9;
/// Required median speedup on each hard-gated path.
const SPEEDUP_REQUIRED: f64 = 1.25;
/// The recorded DNS window must at least clear this floor — the
/// production plan may not dilute the application path even when the
/// gather win is partially masked by the spectral advance.
const DNS_FLOOR: f64 = 1.05;
/// Footprint of the gated FFT paths: a 128³ grid (32 MiB of complex
/// field — memory-bound, where the repartition gather dominates the
/// round trip). The round trip runs over 1024 ranks; the DNS window
/// over 4096 — the strong-scaling limit of four pencil lines per rank,
/// where the per-element gather is at its worst.
const GATE_N: usize = 128;
const GATE_RANKS: usize = 1024;
const DNS_RANKS: usize = 4096;
/// Required median speedup of the four-line batch over per-line calls when
/// the host runs the AVX2 instantiation. Measured on a 2-vCPU AVX2 host:
/// 1.9–2.2× in four runs over the 128³ grid's lines (per-line 2.3–2.5,
/// batch 4.3–5.6 GFLOP/s); the floor leaves room for shared-host noise and
/// still fails if the batch falls back to one lane (about 1.0×).
const LINE_BATCH_FLOOR: f64 = 1.25;

/// Deterministic dense field for the executed FFT gates
/// (splitmix-hashed per index — the values are irrelevant to timing, the
/// bit-identity checks only need them reproducible).
fn test_field(n: usize) -> Vec<C64> {
    let mut field = Vec::with_capacity(n * n * n);
    for i in 0..n * n * n {
        let mut z = (i as u64).wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        let u = ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64;
        field.push(C64::new(2.0 * u - 1.0, 0.0));
    }
    field
}

fn frontier_comm(ranks: usize) -> Comm {
    Comm::new(ranks, Network::from_machine(&MachineModel::frontier()))
}

fn frontier_gpu() -> GpuModel {
    MachineModel::frontier().node.gpu().clone()
}

fn bits(data: &[C64]) -> Vec<(u64, u64)> {
    data.iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

#[derive(Serialize)]
struct PathGate {
    path: String,
    n: usize,
    ranks: usize,
    reps: usize,
    frozen_median_s: f64,
    tuned_median_s: f64,
    /// Median of per-pair reference/production wall ratios (noise-robust on a
    /// shared machine: each pair sees the same drift).
    speedup: f64,
    required: f64,
    bit_identical: bool,
}

#[derive(Serialize)]
struct LineKernel {
    /// Instantiation of the four-line kernel the host selected.
    isa: &'static str,
    n: usize,
    lines: usize,
    reps: usize,
    per_line_gflops: f64,
    batch_gflops: f64,
    /// Median of per-pair per-line/batch wall ratios.
    speedup: f64,
    /// [`LINE_BATCH_FLOOR`] on AVX2; ungated elsewhere.
    required: Option<f64>,
    bit_identical: bool,
}

#[derive(Serialize)]
struct Record {
    speedup_fft: f64,
    speedup_transpose: f64,
    speedup_dns: f64,
    speedup_required: f64,
    fft_round_trip: PathGate,
    transpose_cycle: PathGate,
    dns_window: PathGate,
    line_kernel: LineKernel,
    pass: bool,
}

/// One executed-path outcome: field bits, virtual times, and the
/// communication tally.
type FftOutcome = (Vec<(u64, u64)>, SimTime, SimTime, exa_mpi::CommStats);

fn fft_round_trip(sched: &RankScheduler, plan: &ExecutedFft3d, field: &[C64]) -> (FftOutcome, f64) {
    let mut grid = DistGrid::from_global(GATE_N, GATE_RANKS, field);
    let mut comm = frontier_comm(GATE_RANKS);
    let gpu = frontier_gpu();
    let t0 = Instant::now();
    let fwd = plan.forward(sched, &mut comm, &gpu, &mut grid);
    let inv = plan.inverse(sched, &mut comm, &gpu, &mut grid);
    let wall = t0.elapsed().as_secs_f64();
    ((bits(&grid.gather_global()), fwd, inv, comm.stats()), wall)
}

fn transpose_cycle(
    sched: &RankScheduler,
    plan: &ExecutedFft3d,
    field: &[C64],
) -> (FftOutcome, f64) {
    let mut grid = DistGrid::from_global(GATE_N, GATE_RANKS, field);
    let mut comm = frontier_comm(GATE_RANKS);
    let t0 = Instant::now();
    let dt = plan.transpose_cycle(sched, &mut comm, &mut grid);
    let wall = t0.elapsed().as_secs_f64();
    (
        (bits(&grid.gather_global()), dt, SimTime::ZERO, comm.stats()),
        wall,
    )
}

fn dns_window(sched: &RankScheduler, plan: &ExecutedFft3d, field: &[C64]) -> (FftOutcome, f64) {
    let cfg = DnsStep {
        n: GATE_N,
        ranks: DNS_RANKS,
        ..DnsStep::step_1024()
    };
    let mut grid = DistGrid::from_global(cfg.n, cfg.ranks, field);
    let mut comm = frontier_comm(cfg.ranks);
    let gpu = frontier_gpu();
    let t0 = Instant::now();
    let dt = dns_step_window(sched, &mut comm, &gpu, plan, &cfg, &mut grid);
    let wall = t0.elapsed().as_secs_f64();
    (
        (bits(&grid.gather_global()), dt, SimTime::ZERO, comm.stats()),
        wall,
    )
}

/// Gate one executed path: [`time_pairs`] over reference/production, plus
/// full-outcome bit identity.
fn gate_path(
    label: &str,
    ranks: usize,
    required: f64,
    sched: &RankScheduler,
    reference: &ExecutedFft3d,
    production: &ExecutedFft3d,
    run: impl Fn(&RankScheduler, &ExecutedFft3d, &[C64]) -> (FftOutcome, f64),
) -> PathGate {
    let field = test_field(GATE_N);
    // Warm both paths, and take the bit-identity evidence from the warmup.
    let (out_reference, _) = run(sched, reference, &field);
    let (out_production, _) = run(sched, production, &field);
    let bit_identical = out_reference == out_production;

    let timing = time_pairs(
        REPS,
        || run(sched, reference, &field).1,
        || run(sched, production, &field).1,
    );
    let gate = PathGate {
        path: label.to_string(),
        n: GATE_N,
        ranks,
        reps: REPS,
        frozen_median_s: timing.a_s,
        tuned_median_s: timing.b_s,
        speedup: timing.ratio,
        required,
        bit_identical,
    };
    println!(
        "autotune gate [{label}]: reference {:.1} ms, production {:.1} ms -> {:.2}x (need {:.2}x), \
         bit-identical {}",
        gate.frozen_median_s * 1e3,
        gate.tuned_median_s * 1e3,
        gate.speedup,
        required,
        gate.bit_identical,
    );
    gate
}

/// Forward then inverse over every line of `data`, per line or in one
/// batch call; returns the wall time.
fn line_round_trip(data: &mut [C64], batched: bool) -> f64 {
    let t0 = Instant::now();
    if batched {
        fft_batch(data, GATE_N);
        ifft_batch(data, GATE_N);
    } else {
        data.chunks_exact_mut(GATE_N).for_each(fft);
        data.chunks_exact_mut(GATE_N).for_each(ifft);
    }
    t0.elapsed().as_secs_f64()
}

/// Time the line kernel per line and batched on the gate grid's lines.
fn line_kernel() -> LineKernel {
    let field = test_field(GATE_N);
    let lines = field.len() / GATE_N;
    let (mut per_line, mut batched) = (field.clone(), field);
    // Warm both routes; one round trip each from the same field is the
    // bit-identity evidence.
    line_round_trip(&mut per_line, false);
    line_round_trip(&mut batched, true);
    let bit_identical = bits(&per_line) == bits(&batched);
    let timing = time_pairs(
        REPS,
        || line_round_trip(&mut per_line, false),
        || line_round_trip(&mut batched, true),
    );
    let flops = 2.0 * lines as f64 * fft_flops(GATE_N);
    let isa = LineIsa::host();
    let gate = LineKernel {
        isa: isa.name(),
        n: GATE_N,
        lines,
        reps: REPS,
        per_line_gflops: flops / timing.a_s / 1e9,
        batch_gflops: flops / timing.b_s / 1e9,
        speedup: timing.ratio,
        required: (isa == LineIsa::Avx2).then_some(LINE_BATCH_FLOOR),
        bit_identical,
    };
    println!(
        "autotune line kernel [{}]: per-line {:.2} GFLOP/s, batch {:.2} GFLOP/s -> {:.2}x{}, \
         bit-identical {}",
        gate.isa,
        gate.per_line_gflops,
        gate.batch_gflops,
        gate.speedup,
        gate.required
            .map_or(" (ungated)".to_string(), |r| format!(" (need {r:.2}x)")),
        gate.bit_identical,
    );
    gate
}

pub fn run() -> Gate {
    // A 1-wide pool keeps the wall-clock comparison clean when the host
    // has fewer cores than workers — the gather and batching wins are
    // per-rank host-work reductions, so they show up identically at any
    // pool width.
    let sched = RankScheduler::with_threads(1);
    let reference = ExecutedFft3d::new(GATE_N);
    let production = ExecutedFft3d::tuned(GATE_N);
    let fft_gate = gate_path(
        "fft_round_trip",
        GATE_RANKS,
        SPEEDUP_REQUIRED,
        &sched,
        &reference,
        &production,
        fft_round_trip,
    );
    let transpose_gate = gate_path(
        "transpose_cycle",
        GATE_RANKS,
        SPEEDUP_REQUIRED,
        &sched,
        &reference,
        &production,
        transpose_cycle,
    );
    let dns_gate = gate_path(
        "dns_window",
        DNS_RANKS,
        DNS_FLOOR,
        &sched,
        &reference,
        &production,
        dns_window,
    );

    let line_gate = line_kernel();

    let pass = [&fft_gate, &transpose_gate, &dns_gate]
        .iter()
        .all(|g| g.speedup >= g.required && g.bit_identical)
        && line_gate.bit_identical
        && line_gate.required.is_none_or(|r| line_gate.speedup >= r);
    let record = Record {
        speedup_fft: fft_gate.speedup,
        speedup_transpose: transpose_gate.speedup,
        speedup_dns: dns_gate.speedup,
        speedup_required: SPEEDUP_REQUIRED,
        fft_round_trip: fft_gate,
        transpose_cycle: transpose_gate,
        dns_window: dns_gate,
        line_kernel: line_gate,
        pass,
    };
    write_root_json("BENCH_autotune", &record);

    let mut failures = Vec::new();
    for g in [&record.fft_round_trip, &record.transpose_cycle, &record.dns_window] {
        if !g.bit_identical {
            failures.push(format!("production {} must match the reference bitwise", g.path));
        }
        if g.speedup < g.required {
            failures.push(format!(
                "production {} must clear {:.2}x: {:.2}x",
                g.path, g.required, g.speedup
            ));
        }
    }
    let k = &record.line_kernel;
    if !k.bit_identical {
        failures.push("batched line FFTs must match per-line calls bitwise".to_string());
    }
    if let Some(r) = k.required.filter(|&r| k.speedup < r) {
        failures.push(format!(
            "the {} line batch must clear {r:.2}x over per-line calls: {:.2}x",
            k.isa, k.speedup
        ));
    }
    crate::gate(failures)
}
