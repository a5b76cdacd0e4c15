//! Parallel simulation substrate headline benchmark (ISSUE PR 6
//! acceptance gate).
//!
//! Two claims, both about *host* wall-clock of the simulator itself:
//!
//! * **Pele chemistry throughput** — a 256-rank executed Pele chemistry
//!   step on the new substrate (work-stealing rank scheduler + the fused
//!   allocation-free BDF1 kernel) versus the pre-substrate schedule (the
//!   sequential rank loop driving the matrix-free GMRES route PeleC's
//!   production integrator uses, §3.8). Gate: ≥ 4× on medians of 5 reps.
//!   The batched-LU baseline ratio (PeleLM(eX)'s direct route) is
//!   recorded alongside for transparency.
//! * **Executed 1024-rank distributed FFT** — the costed-only GESTS
//!   milestone now actually runs: a 64³ pseudo-spectral step over 1024
//!   simulated ranks (forward transform, spectral advance, inverse) with
//!   the data genuinely distributed, finishing inside a recorded
//!   wall-clock budget.
//!
//! Both paths must be bit-identical to the 1-thread schedule — the pool
//! buys wall-clock only, never different answers. Results land in
//! `BENCH_sim_throughput.json` at the repo root; the tier-1 harness
//! schema-checks that file.

use criterion::{criterion_group, criterion_main, Criterion};
use exa_apps::gests_exec::{executed_dns_step, DnsStep};
use exa_apps::pele_exec::{chemistry_campaign, ChemCampaign, ChemKernel};
use exa_bench::{median, write_root_json};
use exa_mpi::RankScheduler;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;
const SPEEDUP_REQUIRED: f64 = 4.0;
const FFT_BUDGET_S: f64 = 60.0;

#[derive(Serialize)]
struct DistFftMilestone {
    n: usize,
    ranks: usize,
    executed: bool,
    wall_s: f64,
    budget_s: f64,
    virtual_s: f64,
    points_per_virtual_s: f64,
    bit_identical: bool,
}

#[derive(Serialize)]
struct Record {
    config: String,
    threads: usize,
    reps: usize,
    gmres_median_s: f64,
    batched_lu_median_s: f64,
    fused_median_s: f64,
    speedup_vs_gmres: f64,
    speedup_vs_batched_lu: f64,
    speedup_required: f64,
    bit_identical: bool,
    dist_fft: DistFftMilestone,
    pass: bool,
}

fn time_campaign(sched: &RankScheduler, kernel: ChemKernel, cfg: &ChemCampaign) -> f64 {
    let t0 = Instant::now();
    black_box(chemistry_campaign(sched, kernel, cfg));
    t0.elapsed().as_secs_f64()
}

fn bench_sim_throughput(c: &mut Criterion) {
    let cfg = ChemCampaign::pele_step_256();
    let baseline = RankScheduler::sequential();
    let substrate = RankScheduler::new();

    // Warm both paths (pool spin-up, allocator, branch predictors).
    time_campaign(&substrate, ChemKernel::FusedLu, &cfg);
    time_campaign(&baseline, ChemKernel::MatrixFreeGmres, &cfg);

    // Interleaved reps so drift hits every kernel equally; gate on medians.
    let (mut tg, mut tl, mut tf) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        tg.push(time_campaign(&baseline, ChemKernel::MatrixFreeGmres, &cfg));
        tl.push(time_campaign(&baseline, ChemKernel::BatchedLu, &cfg));
        tf.push(time_campaign(&substrate, ChemKernel::FusedLu, &cfg));
    }
    let (gmres_s, lu_s, fused_s) = (median(&mut tg), median(&mut tl), median(&mut tf));
    let speedup_vs_gmres = gmres_s / fused_s;
    let speedup_vs_batched_lu = lu_s / fused_s;

    // Determinism: the substrate's multi-threaded campaign must equal the
    // sequential schedule in every artifact (checksums, virtual times,
    // snapshot and trace digests).
    let seq = chemistry_campaign(&RankScheduler::with_threads(1), ChemKernel::FusedLu, &cfg);
    let par = chemistry_campaign(&RankScheduler::with_threads(4), ChemKernel::FusedLu, &cfg);
    let bit_identical = seq == par;

    // Criterion display benches for the two chemistry routes.
    let mut g = c.benchmark_group("sim_throughput/pele_step_256r");
    g.sample_size(3);
    g.bench_function("baseline_gmres_sequential", |b| {
        b.iter(|| time_campaign(&baseline, ChemKernel::MatrixFreeGmres, &cfg))
    });
    g.bench_function("substrate_fused_pooled", |b| {
        b.iter(|| time_campaign(&substrate, ChemKernel::FusedLu, &cfg))
    });
    g.finish();

    // The executed 1024-rank distributed FFT milestone, against its
    // wall-clock budget, plus its own 1-vs-4-thread bit identity.
    let milestone = DnsStep::step_1024();
    let t0 = Instant::now();
    let (res4, _) = executed_dns_step(&RankScheduler::with_threads(4), &milestone);
    let fft_wall = t0.elapsed().as_secs_f64();
    let (res1, _) = executed_dns_step(&RankScheduler::with_threads(1), &milestone);
    let fft_identical = res1 == res4;
    let dist_fft = DistFftMilestone {
        n: milestone.n,
        ranks: milestone.ranks,
        executed: true,
        wall_s: fft_wall,
        budget_s: FFT_BUDGET_S,
        virtual_s: res4.elapsed.secs(),
        points_per_virtual_s: (milestone.n * milestone.n * milestone.n) as f64
            / res4.elapsed.secs(),
        bit_identical: fft_identical,
    };

    let pass = speedup_vs_gmres >= SPEEDUP_REQUIRED
        && bit_identical
        && fft_identical
        && fft_wall <= FFT_BUDGET_S;
    let record = Record {
        config: format!(
            "ranks={} cells/rank={} substeps={} dt={}",
            cfg.ranks, cfg.cells_per_rank, cfg.substeps, cfg.dt
        ),
        threads: substrate.threads(),
        reps: REPS,
        gmres_median_s: gmres_s,
        batched_lu_median_s: lu_s,
        fused_median_s: fused_s,
        speedup_vs_gmres,
        speedup_vs_batched_lu,
        speedup_required: SPEEDUP_REQUIRED,
        bit_identical,
        dist_fft,
        pass,
    };
    println!(
        "\nsim throughput: gmres {:.1} ms, batched-lu {:.1} ms, fused {:.1} ms -> {:.2}x \
         (vs lu {:.2}x); 1024-rank executed FFT {:.2} s wall (budget {:.0} s), bit-identical {}",
        gmres_s * 1e3,
        lu_s * 1e3,
        fused_s * 1e3,
        speedup_vs_gmres,
        speedup_vs_batched_lu,
        record.dist_fft.wall_s,
        FFT_BUDGET_S,
        bit_identical && fft_identical,
    );
    write_root_json("BENCH_sim_throughput", &record);
    assert!(
        bit_identical,
        "pooled Pele campaign must be bit-identical to sequential"
    );
    assert!(
        fft_identical,
        "executed FFT milestone must be bit-identical across thread counts"
    );
    assert!(
        record.pass,
        "substrate must clear {SPEEDUP_REQUIRED}x on the 256-rank Pele step: {speedup_vs_gmres:.2}x"
    );
}

criterion_group!(benches, bench_sim_throughput);
criterion_main!(benches);
