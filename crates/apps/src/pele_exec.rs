//! Executed Pele chemistry on the parallel substrate.
//!
//! [`crate::pele`] prices chemistry at paper scale; this module *runs* it:
//! a rank-distributed stiff-ignition campaign where every rank integrates
//! its own block of cells with real BDF1/Newton math on the
//! [`RankScheduler`], so wall-clock throughput of the substrate is
//! measurable and thread-count determinism is testable end to end.
//!
//! Two kernels integrate the same ODE:
//!
//! * [`ChemKernel::BatchedLu`] / [`ChemKernel::MatrixFreeGmres`] — the
//!   existing heap-allocating solvers from [`crate::pele::bdf1_step`],
//!   the pre-substrate baseline.
//! * [`ChemKernel::FusedLu`] — [`bdf1_step_fused`]: the same Newton
//!   iteration with the 4×4 system factored on the stack, the
//!   rates/Jacobian evaluation fused into one pass (two `exp` calls per
//!   iteration instead of six), and **zero heap allocation** on the hot
//!   path. It reproduces `bdf1_step(..., BatchedLu)` bit for bit — same
//!   pivoting, same operation order — so the speedup is free.
//!
//! One campaign loop, [`chemistry_campaign_under`], runs every campaign
//! under a [`ScenarioSpec`]: MTBF-driven rank failures with
//! checkpoint/restart, straggler ranks, a degraded fabric and span-stretch
//! injections. [`chemistry_campaign`] is that loop under
//! [`ScenarioSpec::clean`]. The campaign stays *deterministic*: the
//! failure schedule is drawn from the scenario seed (no wall clock, no OS
//! entropy), stragglers only skew virtual clocks (rank state is
//! bit-identical to the clean run), and restart replays re-execute the
//! same substeps on the same states — so the physics (`checksum`,
//! `temp_sum`, `newton_total`) of a faulted run equals the clean run,
//! while the virtual wall time carries the full price of lost work,
//! checkpoint I/O, and restart penalties.
//!
//! Every second lost to the scenario lands in a span the critical-path
//! analyzer's `fault_attribution` can bill:
//!
//! | span prefix        | what it covers                                  |
//! |--------------------|-------------------------------------------------|
//! | `checkpoint/`      | defensive snapshot I/O (α–β file-system model)  |
//! | `fault/`           | failure detection + job-relaunch penalty        |
//! | `restart/`         | snapshot reload I/O and replayed compute        |
//! | `straggler-wait/`  | healthy ranks idling at collectives (per rank)  |

use crate::pele::{bdf1_step, ChemLinearSolver, Mechanism, NSPEC};
use exa_core::scenario::{splitmix64, unit};
use exa_core::ScenarioSpec;
use exa_machine::{MachineModel, SimTime};
use exa_mpi::{Network, RankCtx, RankScheduler};
use exa_telemetry::{digest64, SpanCat, TelemetryCollector, TrackKind};
use std::sync::Arc;

/// Nominal device time charged per cell·Newton-iteration (one fused
/// rates+Jacobian+solve inner body on an MI250X GCD).
const NEWTON_ITER_COST: f64 = 20e-9;

/// One backward-Euler step with the fused, allocation-free Newton kernel.
/// Numerically identical (bitwise) to
/// `bdf1_step(mech, u0, dt, ChemLinearSolver::BatchedLu)`.
pub fn bdf1_step_fused(mech: &Mechanism, u0: &[f64; NSPEC], dt: f64) -> ([f64; NSPEC], usize) {
    let eval = eval_fused(mech, u0);
    let (u, iters, _) = bdf1_fused_inner(mech, u0, eval, dt, 0);
    (u, iters)
}

/// The fused Arrhenius evaluation of one state: the two rate constants
/// (the only transcendental work per evaluation) plus the right-hand
/// side. Mirrors `Mechanism::rhs` operation-for-operation so values are
/// bit-identical; the Jacobian is later rebuilt from `k1`/`k2` *without*
/// re-running `exp`, because `rhs` computes `a·exp(-ea/t)·y.max(0)` as
/// `(a·exp)·y` — the same `k` product `Mechanism::jacobian` forms.
#[derive(Debug, Clone, Copy)]
struct FusedEval {
    k1: f64,
    k2: f64,
    f: [f64; NSPEC],
}

#[inline]
fn eval_fused(mech: &Mechanism, u: &[f64; NSPEC]) -> FusedEval {
    let t = u[3].max(0.05);
    let k1 = mech.a[0] * (-mech.ea[0] / t).exp();
    let k2 = mech.a[1] * (-mech.ea[1] / t).exp();
    let r1 = k1 * u[0].max(0.0);
    let r2 = k2 * u[1].max(0.0);
    FusedEval {
        k1,
        k2,
        f: [-r1, r1 - r2, r2, mech.q[0] * r1 + mech.q[1] * r2],
    }
}

/// Jacobian from a cached evaluation: zero `exp` calls. Entry-for-entry
/// the same arithmetic as `Mechanism::jacobian`.
#[inline]
fn jac_from_eval(mech: &Mechanism, u: &[f64; NSPEC], e: &FusedEval) -> [[f64; NSPEC]; NSPEC] {
    let t = u[3].max(0.05);
    let ya = u[0].max(0.0);
    let yb = u[1].max(0.0);
    let dk1_dt = e.k1 * mech.ea[0] / (t * t);
    let dk2_dt = e.k2 * mech.ea[1] / (t * t);
    let mut j = [[0.0; NSPEC]; NSPEC];
    j[0][0] = -e.k1;
    j[0][3] = -dk1_dt * ya;
    j[1][0] = e.k1;
    j[1][1] = -e.k2;
    j[1][3] = dk1_dt * ya - dk2_dt * yb;
    j[2][1] = e.k2;
    j[2][3] = dk2_dt * yb;
    j[3][0] = mech.q[0] * e.k1;
    j[3][1] = mech.q[1] * e.k2;
    j[3][3] = mech.q[0] * dk1_dt * ya + mech.q[1] * dk2_dt * yb;
    j
}

#[inline]
fn residual_from_rhs(
    u0: &[f64; NSPEC],
    u: &[f64; NSPEC],
    f: &[f64; NSPEC],
    dt: f64,
) -> ([f64; NSPEC], f64) {
    let mut r = [0.0; NSPEC];
    let mut rnorm = 0.0;
    for i in 0..NSPEC {
        r[i] = u[i] - u0[i] - dt * f[i];
        rnorm += r[i] * r[i];
    }
    (r, rnorm.sqrt())
}

/// In-place 4×4 partial-pivot LU solve on the stack: the exact algorithm
/// of `exa_linalg::getrf` + `solve_vec`, minus every allocation.
#[inline]
fn lu_solve4(m: &mut [[f64; NSPEC]; NSPEC], b: &mut [f64; NSPEC]) {
    let mut pivots = [0usize; NSPEC];
    for k in 0..NSPEC {
        let mut p = k;
        let mut pmax = m[k][k].abs();
        for (i, row) in m.iter().enumerate().take(NSPEC).skip(k + 1) {
            let v = row[k].abs();
            if v > pmax {
                pmax = v;
                p = i;
            }
        }
        debug_assert!(pmax > 0.0, "Newton matrix singular");
        pivots[k] = p;
        if p != k {
            m.swap(k, p);
        }
        let inv_pivot = 1.0 / m[k][k];
        let (pivot_rows, elim_rows) = m.split_at_mut(k + 1);
        let pivot_row = &pivot_rows[k];
        for row in elim_rows.iter_mut() {
            let lik = row[k] * inv_pivot;
            row[k] = lik;
            for (x, &pv) in row[k + 1..].iter_mut().zip(&pivot_row[k + 1..]) {
                *x -= lik * pv;
            }
        }
    }
    for (k, &p) in pivots.iter().enumerate() {
        if p != k {
            b.swap(k, p);
        }
    }
    for k in 0..NSPEC {
        let bk = b[k];
        for i in k + 1..NSPEC {
            b[i] -= m[i][k] * bk;
        }
    }
    for k in (0..NSPEC).rev() {
        let x = b[k] / m[k][k];
        b[k] = x;
        for i in 0..k {
            b[i] -= m[i][k] * x;
        }
    }
}

/// The recursive core. `eval` must be `eval_fused(mech, u0)` — threading
/// it through the bisection recursion means every state is evaluated
/// exactly once, ever: the accepted line-search trial's evaluation is
/// reused by the next Newton iteration, by the convergence check, and by
/// the child calls of a step-size bisection. The baseline recomputes the
/// rhs twice and the Jacobian exponentials once per iteration, plus six
/// heap allocations; the arithmetic here is the same, just never repeated.
fn bdf1_fused_inner(
    mech: &Mechanism,
    u0: &[f64; NSPEC],
    eval0: FusedEval,
    dt: f64,
    depth: usize,
) -> ([f64; NSPEC], usize, FusedEval) {
    let mut u = *u0;
    let mut eval = eval0;
    for newton in 1..=50 {
        let (r, rnorm) = residual_from_rhs(u0, &u, &eval.f, dt);
        if rnorm < 1e-13 {
            return (u, newton, eval);
        }
        if newton == 50 {
            if depth >= 24 {
                return (u, newton, eval);
            }
            let (half, _, heval) = bdf1_fused_inner(mech, u0, eval0, dt / 2.0, depth + 1);
            return bdf1_fused_inner(mech, &half, heval, dt / 2.0, depth + 1);
        }
        // Newton matrix M = I - dt J, built in registers. Matches the
        // baseline's `identity - dt*j` entry by entry.
        let j = jac_from_eval(mech, &u, &eval);
        let mut m = [[0.0; NSPEC]; NSPEC];
        for (row, mrow) in m.iter_mut().enumerate() {
            for (col, v) in mrow.iter_mut().enumerate() {
                *v = f64::from(u8::from(row == col)) - dt * j[row][col];
            }
        }
        let mut delta = r;
        lu_solve4(&mut m, &mut delta);
        let mut lambda = 1.0;
        let mut accepted = false;
        for _ in 0..24 {
            let mut trial = u;
            for i in 0..NSPEC {
                trial[i] -= lambda * delta[i];
            }
            let te = eval_fused(mech, &trial);
            let (_, trial_norm) = residual_from_rhs(u0, &trial, &te.f, dt);
            if trial_norm < rnorm {
                u = trial;
                eval = te;
                accepted = true;
                break;
            }
            lambda *= 0.5;
        }
        if !accepted {
            if depth >= 24 {
                return (u, newton, eval);
            }
            let (half, _, heval) = bdf1_fused_inner(mech, u0, eval0, dt / 2.0, depth + 1);
            return bdf1_fused_inner(mech, &half, heval, dt / 2.0, depth + 1);
        }
    }
    (u, 50, eval)
}

/// Which integrator a campaign runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChemKernel {
    /// Heap-allocating dense LU (`bdf1_step`, the PeleLM(eX) route).
    BatchedLu,
    /// Heap-allocating matrix-free GMRES (`bdf1_step`, the PeleC route).
    MatrixFreeGmres,
    /// Fused allocation-free stack LU ([`bdf1_step_fused`]).
    FusedLu,
}

impl ChemKernel {
    /// Stable label for bench artifacts.
    pub fn label(self) -> &'static str {
        match self {
            ChemKernel::BatchedLu => "batched_lu",
            ChemKernel::MatrixFreeGmres => "matrix_free_gmres",
            ChemKernel::FusedLu => "fused_lu",
        }
    }

    fn step(self, mech: &Mechanism, u: &[f64; NSPEC], dt: f64) -> ([f64; NSPEC], usize) {
        match self {
            ChemKernel::BatchedLu => bdf1_step(mech, u, dt, ChemLinearSolver::BatchedLu),
            ChemKernel::MatrixFreeGmres => {
                bdf1_step(mech, u, dt, ChemLinearSolver::MatrixFreeGmres)
            }
            ChemKernel::FusedLu => bdf1_step_fused(mech, u, dt),
        }
    }
}

/// A rank-distributed executed chemistry campaign.
#[derive(Debug, Clone, Copy)]
pub struct ChemCampaign {
    /// Simulated MPI ranks.
    pub ranks: usize,
    /// Cells integrated by each rank.
    pub cells_per_rank: usize,
    /// BDF1 substeps per campaign.
    pub substeps: usize,
    /// Substep size.
    pub dt: f64,
}

impl ChemCampaign {
    /// The 256-rank Pele step the throughput bench gates on. The large
    /// substep makes the implicit systems stiff — the regime the paper's
    /// chemistry integrators actually live in (and where the iterative
    /// baseline pays for every extra rhs evaluation).
    pub fn pele_step_256() -> Self {
        ChemCampaign {
            ranks: 256,
            cells_per_rank: 24,
            substeps: 3,
            dt: 1.5,
        }
    }
}

/// Deterministic outcome of one campaign — every field must be
/// bit-identical for any `EXA_THREADS` and for repeated runs of the same
/// scenario seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ChemCampaignResult {
    /// Global species-mass checksum (data-carrying allreduce, rank order).
    pub checksum: f64,
    /// Global final-temperature sum.
    pub temp_sum: f64,
    /// Total committed Newton iterations across all ranks and substeps
    /// (replays do not double-count: restore rewinds the counters, replay
    /// re-earns them).
    pub newton_total: u64,
    /// Virtual wall time of the campaign (max rank clock), including
    /// checkpoints, faults and replays.
    pub elapsed: SimTime,
    /// FNV digest of the telemetry snapshot JSON.
    pub snapshot_digest: String,
    /// FNV digest of the Chrome trace.
    pub trace_digest: String,
    /// Rank failures injected by the MTBF schedule.
    pub failures: u32,
    /// Restarts performed (one per failure).
    pub restarts: u32,
    /// Defensive checkpoints written.
    pub checkpoints: u32,
    /// Largest number of substeps any single failure rolled back — the
    /// lost-work bound property: never more than one checkpoint interval.
    pub max_lost_steps: usize,
}

/// Deterministic initial cell state: mostly-cold fuel with a hot-spot
/// fraction that triggers the stiff ignition transient.
fn init_cell(rank: usize, cell: usize) -> [f64; NSPEC] {
    let h = splitmix64((rank as u64) << 32 | cell as u64);
    let hot = h.is_multiple_of(8);
    let t = if hot {
        1.1 + 0.3 * unit(splitmix64(h))
    } else {
        0.18 + 0.1 * unit(splitmix64(h))
    };
    [0.9 + 0.1 * unit(h), 0.02, 0.0, t]
}

/// Run one campaign on `sched` with kernel `kernel`. Builds its own
/// communicator (Frontier Slingshot 11) and telemetry collector, so two
/// invocations are completely independent — the determinism tests compare
/// whole [`ChemCampaignResult`]s across thread counts.
pub fn chemistry_campaign(
    sched: &RankScheduler,
    kernel: ChemKernel,
    cfg: &ChemCampaign,
) -> ChemCampaignResult {
    chemistry_campaign_observed(sched, kernel, cfg, &TelemetryCollector::shared())
}

/// [`chemistry_campaign`] with an externally owned collector — the
/// profiling entry point (`obs_export`) passes the collector it also lands
/// scheduler/pool wall-clock observations into, so virtual rank tracks and
/// real worker tracks end up in one trace. The campaign itself records
/// exactly what [`chemistry_campaign`] records.
pub fn chemistry_campaign_observed(
    sched: &RankScheduler,
    kernel: ChemKernel,
    cfg: &ChemCampaign,
    collector: &Arc<TelemetryCollector>,
) -> ChemCampaignResult {
    chemistry_campaign_under(sched, kernel, cfg, &ScenarioSpec::clean(), collector)
}

#[derive(Clone)]
struct RankState {
    cells: Vec<[f64; NSPEC]>,
    newton: u64,
}

/// Generous virtual horizon for drawing the failure schedule: far beyond
/// any campaign, so the schedule is bounded by `ScenarioSpec::max_failures`
/// and the campaign's own end, never by this constant.
const FAILURE_HORIZON_S: f64 = 1.0e9;

/// Run one chemistry campaign under `scenario` on `sched`, recording into
/// `collector`. The communicator is Frontier Slingshot 11 as the scenario
/// degrades it ([`ScenarioSpec::comm`]); its ranks record on
/// `pele_chem/rank<r>` tracks. Only a scenario with an MTBF or a
/// checkpoint policy keeps a recovery snapshot of the rank states and a
/// `pele_chem/host` track for its `fault/`, `restart/reload` and
/// `checkpoint/` spans, so a clean run allocates and records nothing for
/// recovery.
pub fn chemistry_campaign_under(
    sched: &RankScheduler,
    kernel: ChemKernel,
    cfg: &ChemCampaign,
    scenario: &ScenarioSpec,
    collector: &Arc<TelemetryCollector>,
) -> ChemCampaignResult {
    let mut comm = scenario.comm(cfg.ranks, Network::from_machine(&MachineModel::frontier()));
    comm.attach_telemetry(collector, "pele_chem");
    let recovers = scenario.mtbf_s.is_some() || scenario.checkpoint.is_some();
    let host = recovers.then(|| collector.track("pele_chem/host", TrackKind::Host));
    let skew = scenario.skew_table(cfg.ranks);
    // Injections matching `chem_substep` stretch every substep's compute,
    // replays included.
    let stretch = scenario.stretch("chem_substep");
    let mech = Mechanism::ignition();

    let mut states: Vec<RankState> = (0..cfg.ranks)
        .map(|r| RankState {
            cells: (0..cfg.cells_per_rank).map(|c| init_cell(r, c)).collect(),
            newton: 0,
        })
        .collect();

    // The recovery line: state as of the last checkpoint (initially the
    // initial condition — a failure before the first checkpoint replays
    // from step 0).
    let mut snapshot: Vec<RankState> = if recovers { states.clone() } else { Vec::new() };
    let mut last_ckpt_step = 0usize;

    let failure_events =
        scenario.failure_schedule(cfg.ranks, SimTime::from_secs(FAILURE_HORIZON_S));
    let mut next_failure = 0usize;

    let mut failures = 0u32;
    let mut checkpoints = 0u32;
    let mut max_lost_steps = 0usize;

    let mut step = 0usize;
    // `replay_until`: substeps below this index are re-execution of work a
    // failure rolled back; their compute lands in `restart/replay` spans.
    let mut replay_until = 0usize;
    while step < cfg.substeps {
        let (span_name, span_cat) = if step < replay_until {
            ("restart/replay", SpanCat::Fault)
        } else {
            ("chem_substep", SpanCat::Kernel)
        };
        sched.compute_phase_skewed(
            &mut comm,
            &mut states,
            skew.as_deref(),
            |ctx: &mut RankCtx, st: &mut RankState| {
                let mut newton_here = 0u64;
                for u in st.cells.iter_mut() {
                    let (next, iters) = kernel.step(&mech, u, cfg.dt);
                    *u = next;
                    newton_here += iters as u64;
                }
                st.newton += newton_here;
                ctx.span(
                    span_name,
                    span_cat,
                    SimTime::from_secs(newton_here as f64 * NEWTON_ITER_COST * stretch),
                );
            },
        );
        // Ghost-cell/reduction sync between substeps (cost-only).
        comm.allreduce((NSPEC * 8) as u64);
        step += 1;

        // MTBF failure check: has virtual time crossed the next scheduled
        // failure? Detection happens at the substep boundary (the sync
        // point where a real job notices a dead rank).
        if next_failure < failure_events.len() && comm.elapsed() >= failure_events[next_failure].at
        {
            let ev = &failure_events[next_failure];
            next_failure += 1;
            failures += 1;
            max_lost_steps = max_lost_steps.max(step - last_ckpt_step);

            // Failure detection + relaunch penalty, then reload the
            // snapshot through the same α–β I/O model that wrote it.
            if let (Some(ck), Some(host)) = (&scenario.checkpoint, host) {
                let t0 = comm.elapsed();
                comm.advance_all(ck.restart_penalty());
                collector.complete(
                    host,
                    format!("fault/rank{}", ev.rank),
                    SpanCat::Fault,
                    t0,
                    comm.elapsed(),
                );
                let t1 = comm.elapsed();
                comm.advance_all(ck.read_time());
                collector.complete(host, "restart/reload", SpanCat::Fault, t1, comm.elapsed());
            }

            // Roll state back to the recovery line; the main loop replays
            // the lost substeps (virtual time never rewinds).
            for (st, snap) in states.iter_mut().zip(snapshot.iter()) {
                st.cells.copy_from_slice(&snap.cells);
                st.newton = snap.newton;
            }
            replay_until = step.max(replay_until);
            step = last_ckpt_step;
            continue;
        }

        // Defensive checkpoint every `interval_steps` committed substeps.
        if let (Some(ck), Some(host)) = (&scenario.checkpoint, host) {
            if step.is_multiple_of(ck.interval_steps) && step < cfg.substeps {
                snapshot.clone_from(&states);
                last_ckpt_step = step;
                checkpoints += 1;
                let t0 = comm.elapsed();
                comm.advance_all(ck.write_time());
                collector.complete(host, "checkpoint/write", SpanCat::Fault, t0, comm.elapsed());
            }
        }
    }

    // Data-carrying global reduction: [species mass, temperature sum],
    // summed in rank order — deterministic.
    let mut per_rank: Vec<Vec<f64>> = states
        .iter()
        .map(|st| {
            let mass: f64 = st.cells.iter().map(|u| u[0] + u[1] + u[2]).sum();
            let temp: f64 = st.cells.iter().map(|u| u[3]).sum();
            vec![mass, temp]
        })
        .collect();
    comm.allreduce_sum_f64(&mut per_rank);
    comm.absorb_telemetry();

    ChemCampaignResult {
        checksum: per_rank[0][0],
        temp_sum: per_rank[0][1],
        newton_total: states.iter().map(|s| s.newton).sum(),
        elapsed: comm.elapsed(),
        snapshot_digest: digest64(&collector.snapshot().to_json()),
        trace_digest: digest64(&collector.chrome_trace()),
        failures,
        restarts: failures,
        checkpoints,
        max_lost_steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_core::{CheckpointSpec, NetworkScenario};

    #[test]
    fn fused_step_is_bit_identical_to_batched_lu() {
        let mech = Mechanism::ignition();
        for seed in 0..60u64 {
            let u0 = init_cell(7, seed as usize);
            for dt in [0.05, 0.4, 1.5] {
                let (a, ia) = bdf1_step(&mech, &u0, dt, ChemLinearSolver::BatchedLu);
                let (b, ib) = bdf1_step_fused(&mech, &u0, dt);
                assert_eq!(ia, ib, "iteration counts diverge at seed {seed} dt {dt}");
                for i in 0..NSPEC {
                    assert_eq!(
                        a[i].to_bits(),
                        b[i].to_bits(),
                        "component {i} differs at seed {seed} dt {dt}: {} vs {}",
                        a[i],
                        b[i]
                    );
                }
            }
        }
    }

    #[test]
    fn fused_step_conserves_mass_and_heats_up() {
        let mech = Mechanism::ignition();
        let u0 = [1.0, 0.0, 0.0, 1.2];
        let (u, _) = bdf1_step_fused(&mech, &u0, 2.0);
        let mass0 = u0[0] + u0[1] + u0[2];
        let mass = u[0] + u[1] + u[2];
        assert!((mass - mass0).abs() < 1e-9, "mass drift {mass} vs {mass0}");
        assert!(u[3] >= u0[3], "ignition must not cool");
    }

    #[test]
    fn campaign_is_deterministic_across_thread_counts() {
        let cfg = ChemCampaign {
            ranks: 24,
            cells_per_rank: 4,
            substeps: 2,
            dt: 0.4,
        };
        let seq = chemistry_campaign(&RankScheduler::sequential(), ChemKernel::FusedLu, &cfg);
        for threads in [2, 4] {
            let par = chemistry_campaign(
                &RankScheduler::with_threads(threads),
                ChemKernel::FusedLu,
                &cfg,
            );
            assert_eq!(seq, par, "campaign diverges at {threads} threads");
        }
        assert!(seq.newton_total > 0);
        assert!(seq.elapsed > SimTime::ZERO);
    }

    #[test]
    fn fused_and_baseline_campaigns_agree_on_physics() {
        let cfg = ChemCampaign {
            ranks: 8,
            cells_per_rank: 4,
            substeps: 1,
            dt: 0.4,
        };
        let sched = RankScheduler::sequential();
        let lu = chemistry_campaign(&sched, ChemKernel::BatchedLu, &cfg);
        let fused = chemistry_campaign(&sched, ChemKernel::FusedLu, &cfg);
        // Bitwise-identical math ⇒ identical checksums and Newton work.
        assert_eq!(lu.checksum.to_bits(), fused.checksum.to_bits());
        assert_eq!(lu.newton_total, fused.newton_total);
        let gmres = chemistry_campaign(&sched, ChemKernel::MatrixFreeGmres, &cfg);
        assert!(
            (gmres.checksum - fused.checksum).abs() < 1e-6 * fused.checksum.abs().max(1.0),
            "gmres {} vs fused {}",
            gmres.checksum,
            fused.checksum
        );
    }

    fn small_cfg() -> ChemCampaign {
        ChemCampaign {
            ranks: 16,
            cells_per_rank: 4,
            substeps: 8,
            dt: 0.4,
        }
    }

    fn under(sched: &RankScheduler, cfg: &ChemCampaign, scen: &ScenarioSpec) -> ChemCampaignResult {
        chemistry_campaign_under(
            sched,
            ChemKernel::FusedLu,
            cfg,
            scen,
            &TelemetryCollector::shared(),
        )
    }

    /// The clean 256-rank campaign, every field as a build before the
    /// clean and faulted loops were merged produced it: the merge moved no
    /// bit, no span and no track.
    #[test]
    fn clean_campaign_keeps_its_golden_bits() {
        let r = chemistry_campaign(
            &RankScheduler::sequential(),
            ChemKernel::FusedLu,
            &ChemCampaign::pele_step_256(),
        );
        assert_eq!(r.checksum.to_bits(), 0x40b7491ea148e762);
        assert_eq!(r.temp_sum.to_bits(), 0x40b0f19525d66012);
        assert_eq!(r.elapsed.secs().to_bits(), 0x3f1d3a7e7a302722);
        assert_eq!(r.newton_total, 29944);
        assert_eq!(r.snapshot_digest, "078ec8cb37393fca");
        assert_eq!(r.trace_digest, "59ba8029729b51d2");
        assert_eq!(
            (r.failures, r.restarts, r.checkpoints, r.max_lost_steps),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn mtbf_failures_restart_and_preserve_physics() {
        let sched = RankScheduler::sequential();
        let cfg = small_cfg();
        let clean = chemistry_campaign(&sched, ChemKernel::FusedLu, &cfg);
        // Size MTBF to a fraction of the clean wall so failures land.
        let mtbf = SimTime::from_secs(clean.elapsed.secs() / 3.0);
        let scen = ScenarioSpec::named("mtbf-drill", 0xfa11)
            .with_mtbf(mtbf)
            .with_checkpoint(CheckpointSpec::orion(2, 1 << 16));
        let faulted = under(&sched, &cfg, &scen);
        assert!(faulted.failures >= 1, "MTBF {mtbf:?} injected no failures");
        assert_eq!(faulted.restarts, faulted.failures);
        assert!(faulted.checkpoints >= 1);
        assert!(
            faulted.max_lost_steps <= 2,
            "lost {} > interval 2",
            faulted.max_lost_steps
        );
        assert!(
            faulted.elapsed > clean.elapsed,
            "faults must cost wall time"
        );
        // Physics is unchanged by checkpoint/restart.
        assert_eq!(faulted.checksum.to_bits(), clean.checksum.to_bits());
        assert_eq!(faulted.newton_total, clean.newton_total);
    }

    /// An MTBF on the clean spec draws failures too: the failure cap is
    /// not left at the clean spec's zero.
    #[test]
    fn mtbf_on_the_clean_spec_injects_failures() {
        let sched = RankScheduler::sequential();
        let cfg = small_cfg();
        let clean = chemistry_campaign(&sched, ChemKernel::FusedLu, &cfg);
        let mtbf = SimTime::from_secs(clean.elapsed.secs() / 3.0);
        let scen = ScenarioSpec::clean()
            .with_mtbf(mtbf)
            .with_checkpoint(CheckpointSpec::orion(2, 1 << 16));
        let faulted = under(&sched, &cfg, &scen);
        assert!(faulted.failures >= 1, "MTBF {mtbf:?} injected no failures");
        assert_eq!(faulted.restarts, faulted.failures);
        assert_eq!(faulted.checksum.to_bits(), clean.checksum.to_bits());
    }

    #[test]
    fn faulted_campaign_is_deterministic_across_thread_counts() {
        let cfg = small_cfg();
        let scen = ScenarioSpec::named("det-drill", 7)
            .with_mtbf(SimTime::from_micros(40.0))
            .with_checkpoint(CheckpointSpec::orion(3, 1 << 14))
            .with_straggler(3, 1.7)
            .with_network(NetworkScenario::contended(1.5, 2.0, 0.2, 99));
        let seq = under(&RankScheduler::sequential(), &cfg, &scen);
        for threads in [2, 4] {
            let par = under(&RankScheduler::with_threads(threads), &cfg, &scen);
            assert_eq!(seq, par, "faulted campaign diverges at {threads} threads");
        }
    }

    #[test]
    fn stragglers_and_injections_stretch_wall_time_but_not_physics() {
        let sched = RankScheduler::sequential();
        let cfg = small_cfg();
        let clean = chemistry_campaign(&sched, ChemKernel::FusedLu, &cfg);
        for scen in [
            ScenarioSpec::named("slow-rank", 1).with_straggler(2, 2.5),
            ScenarioSpec::named("slow-chem", 1).with_injection("chem", 2.0),
        ] {
            let slowed = under(&sched, &cfg, &scen);
            assert!(slowed.elapsed > clean.elapsed, "{}", scen.tag);
            assert_eq!(slowed.checksum.to_bits(), clean.checksum.to_bits());
            assert_eq!(slowed.newton_total, clean.newton_total);
        }
    }
}
