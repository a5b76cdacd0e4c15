//! Parallel simulation substrate headline gate.
//!
//! Two claims, both about *host* wall-clock of the simulator itself:
//!
//! * **Pele chemistry throughput** — a 256-rank executed Pele chemistry
//!   step on the new substrate (work-stealing rank scheduler + the fused
//!   allocation-free BDF1 kernel) versus the pre-substrate schedule (the
//!   sequential rank loop driving the matrix-free GMRES route PeleC's
//!   production integrator uses, §3.8). Gate: ≥ 4× on the median pair
//!   ratio of [`crate::time_pairs`] over 3 pairs. The batched-LU
//!   baseline ratio (PeleLM(eX)'s direct route) is recorded alongside from
//!   its own `time_pairs` call.
//! * **Executed 1024-rank distributed FFT** — the costed-only GESTS
//!   milestone now actually runs: a 64³ pseudo-spectral step over 1024
//!   simulated ranks (forward transform, spectral advance, inverse) with
//!   the data genuinely distributed, finishing inside a recorded
//!   wall-clock budget. Its virtual time must equal, bit for bit, the
//!   costed `DistFft3d` price of the same line plan.
//!
//! Both paths must be bit-identical to the 1-thread schedule — the pool
//! buys wall-clock only, never different answers. Results land in
//! `BENCH_sim_throughput.json` at the repo root.

use crate::{time_pairs, wall_s, write_root_json, Gate};
use exa_apps::gests_exec::{costed_dns_step, executed_dns_step, DnsStep};
use exa_apps::pele_exec::{chemistry_campaign, ChemCampaign, ChemKernel};
use exa_mpi::RankScheduler;
use serde::Serialize;
use std::time::Instant;

/// Pairs per `time_pairs` call. Each pair runs both sides twice, so the two
/// calls take about 3 × 2 × (0.63 + 0.24 + 2 × 0.06) s ≈ 6 s on a 2-vCPU
/// host (GMRES 0.63 s, batched LU 0.24 s, fused 0.06 s per campaign).
const PAIRS: usize = 3;
const SPEEDUP_REQUIRED: f64 = 4.0;
/// Wall budget of the executed 1024-rank FFT milestone (one cold
/// `executed_dns_step` at 4 threads). Five runs on a 2-vCPU AVX2 host
/// took 0.106–0.115 s; the budget is about 9× the slowest of them.
const FFT_BUDGET_S: f64 = 1.0;

#[derive(Serialize)]
struct DistFftMilestone {
    n: usize,
    ranks: usize,
    executed: bool,
    wall_s: f64,
    budget_s: f64,
    virtual_s: f64,
    costed_virtual_s: f64,
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
    wall_s(|| chemistry_campaign(sched, kernel, cfg))
}

pub fn run() -> Gate {
    let cfg = ChemCampaign::pele_step_256();
    let baseline = RankScheduler::sequential();
    let substrate = RankScheduler::new();

    // Warm both paths (pool spin-up, allocator, branch predictors).
    time_campaign(&substrate, ChemKernel::FusedLu, &cfg);
    time_campaign(&baseline, ChemKernel::MatrixFreeGmres, &cfg);

    // Each baseline against the fused substrate path in order-fair pairs.
    let fused = || time_campaign(&substrate, ChemKernel::FusedLu, &cfg);
    let gmres = time_pairs(
        PAIRS,
        || time_campaign(&baseline, ChemKernel::MatrixFreeGmres, &cfg),
        fused,
    );
    let lu = time_pairs(
        PAIRS,
        || time_campaign(&baseline, ChemKernel::BatchedLu, &cfg),
        fused,
    );
    let (gmres_s, lu_s, fused_s) = (gmres.a_s, lu.a_s, gmres.b_s);
    let speedup_vs_gmres = gmres.ratio;
    let speedup_vs_batched_lu = lu.ratio;

    // Determinism: the substrate's multi-threaded campaign must equal the
    // sequential schedule in every artifact (checksums, virtual times,
    // snapshot and trace digests).
    let seq = chemistry_campaign(&RankScheduler::with_threads(1), ChemKernel::FusedLu, &cfg);
    let par = chemistry_campaign(&RankScheduler::with_threads(4), ChemKernel::FusedLu, &cfg);
    let bit_identical = seq == par;

    // The executed 1024-rank distributed FFT milestone, against its
    // wall-clock budget, plus its own 1-vs-4-thread bit identity.
    let milestone = DnsStep::step_1024();
    let t0 = Instant::now();
    let (res4, _) = executed_dns_step(&RankScheduler::with_threads(4), &milestone);
    let fft_wall = t0.elapsed().as_secs_f64();
    let (res1, _) = executed_dns_step(&RankScheduler::with_threads(1), &milestone);
    let fft_identical = res1 == res4;
    let costed = costed_dns_step(&milestone);
    let fft_priced = costed.secs().to_bits() == res4.elapsed.secs().to_bits();
    let dist_fft = DistFftMilestone {
        n: milestone.n,
        ranks: milestone.ranks,
        executed: true,
        wall_s: fft_wall,
        budget_s: FFT_BUDGET_S,
        virtual_s: res4.elapsed.secs(),
        costed_virtual_s: costed.secs(),
        points_per_virtual_s: (milestone.n * milestone.n * milestone.n) as f64
            / res4.elapsed.secs(),
        bit_identical: fft_identical,
    };

    let fft_in_budget = fft_wall > 0.0 && fft_wall <= FFT_BUDGET_S;
    let mut failures = Vec::new();
    if !bit_identical {
        failures.push("pooled Pele campaign must be bit-identical to sequential".into());
    }
    if !fft_identical {
        failures.push("executed FFT milestone must be bit-identical across thread counts".into());
    }
    if !fft_priced {
        failures.push("executed FFT milestone must take its costed plan's virtual time".into());
    }
    if speedup_vs_gmres < SPEEDUP_REQUIRED {
        failures.push(format!(
            "substrate must clear {SPEEDUP_REQUIRED}x on the 256-rank Pele step: {speedup_vs_gmres:.2}x"
        ));
    }
    if !fft_in_budget {
        failures.push(format!(
            "executed FFT milestone took {fft_wall:.3} s, outside its (0, {FFT_BUDGET_S}] s budget"
        ));
    }
    let record = Record {
        config: format!(
            "ranks={} cells/rank={} substeps={} dt={}",
            cfg.ranks, cfg.cells_per_rank, cfg.substeps, cfg.dt
        ),
        threads: substrate.threads(),
        reps: PAIRS,
        gmres_median_s: gmres_s,
        batched_lu_median_s: lu_s,
        fused_median_s: fused_s,
        speedup_vs_gmres,
        speedup_vs_batched_lu,
        speedup_required: SPEEDUP_REQUIRED,
        bit_identical,
        dist_fft,
        pass: failures.is_empty(),
    };
    println!(
        "\nsim throughput: gmres {:.1} ms, batched-lu {:.1} ms, fused {:.1} ms -> {:.2}x \
         (vs lu {:.2}x); 1024-rank executed FFT {:.3} s wall (budget {:.1} s), bit-identical {}",
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
    crate::gate(failures)
}
