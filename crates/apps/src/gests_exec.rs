//! GESTS (§3.3), executed: a data-carrying PSDNS step on the rank
//! scheduler.
//!
//! [`crate::gests`] prices the paper-scale PSDNS timestep with the costed
//! [`exa_fft::DistFft3d`]. This module *executes* a (smaller) step end to
//! end: the scalar field really is distributed over the communicator's
//! ranks, the forward transform, the spectral viscous advance and the
//! inverse transform all run through [`exa_fft::ExecutedFft3d`] on the
//! work-stealing [`RankScheduler`], and the run emits the same telemetry
//! artifacts as the costed path — a span timeline, a snapshot, and a FOM
//! ledger record with the CAAR FOM `N³ / t_wall`.
//!
//! Everything the run reports — field digest, energies, virtual wall
//! time, snapshot and trace digests, the ledger record — is bit-identical
//! at any thread count: per-rank math is interleaving-free and the
//! scheduler merges clocks and spans deterministically.
//! Its virtual time equals [`costed_dns_step`], the costed price of the
//! same plan, bit for bit.

use exa_fft::{Decomp, DistFft3d, DistGrid, ExecutedFft3d, TransposePlan, C64};
use exa_machine::{GpuModel, MachineModel, SimTime};
use exa_mpi::{Comm, Network, RankScheduler};
use exa_telemetry::{digest64, FomKind, FomRecord, SpanCat, TelemetryCollector};

/// One executed DNS step configuration.
#[derive(Debug, Clone)]
pub struct DnsStep {
    /// Grid size N (N³ points). A power of two keeps every line off the
    /// Bluestein path.
    pub n: usize,
    /// Simulated MPI ranks (`≤ N²`, the Pencils bound).
    pub ranks: usize,
    /// Timestep.
    pub dt: f64,
    /// Kinematic viscosity of the spectral advance.
    pub viscosity: f64,
}

impl DnsStep {
    /// The executed milestone run: 1024 ranks on a 64³ grid — the rank
    /// count real Pencils decompositions reach at this grid size
    /// (`1024 ≤ 64² = 4096`).
    pub fn step_1024() -> Self {
        DnsStep {
            n: 64,
            ranks: 1024,
            dt: 5e-4,
            viscosity: 0.025,
        }
    }
}

/// Everything an executed DNS step reports. `PartialEq` so determinism
/// tests can assert whole-run equality across thread counts.
#[derive(Debug, Clone, PartialEq)]
pub struct DnsStepResult {
    /// `Σ|u|²` before the step (rank-ordered reduction).
    pub energy_before: f64,
    /// `Σ|u|²` after the step — strictly smaller (viscous decay).
    pub energy_after: f64,
    /// FNV-1a digest of the final field's exact bit pattern.
    pub field_digest: String,
    /// Virtual wall time of the step.
    pub elapsed: SimTime,
    /// Digest of the run's telemetry snapshot JSON.
    pub snapshot_digest: String,
    /// Digest of the run's Chrome trace.
    pub trace_digest: String,
}

/// FNV-1a over the exact bit patterns of a complex field.
fn field_digest(data: &[C64]) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bits: u64| {
        for b in bits.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for z in data {
        eat(z.re.to_bits());
        eat(z.im.to_bits());
    }
    format!("{h:016x}")
}

/// Deterministic initial condition: a band of low-wavenumber modes with
/// splitmix-derived phases, built in physical space.
fn initial_field(n: usize) -> Vec<C64> {
    use std::f64::consts::PI;
    let mut s: u64 = 0x9e3779b97f4a7c15;
    let mut unit = || {
        s = s.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    let modes: Vec<(f64, f64, f64, f64)> = (0..6)
        .map(|_| {
            (
                unit() * 3.0 + 1.0,
                unit() * 3.0 + 1.0,
                unit() * 3.0 + 1.0,
                unit() * 2.0 * PI,
            )
        })
        .collect();
    let mut field = vec![C64::ZERO; n * n * n];
    for i0 in 0..n {
        for i1 in 0..n {
            for i2 in 0..n {
                let mut v = 0.0;
                for &(k0, k1, k2, ph) in &modes {
                    let arg = 2.0 * PI * (k0 * i0 as f64 + k1 * i1 as f64 + k2 * i2 as f64)
                        / n as f64
                        + ph;
                    v += arg.sin();
                }
                field[(i0 * n + i1) * n + i2] = C64::new(v, 0.0);
            }
        }
    }
    field
}

/// Signed wavenumber of grid index `i` on an `n`-periodic axis.
fn wavenumber(i: usize, n: usize) -> f64 {
    if i <= n / 2 {
        i as f64
    } else {
        i as f64 - n as f64
    }
}

/// Field energy `Σ|u|²`, reduced in rank order through the communicator
/// (so the fold order — and the bits — never depend on scheduling).
fn energy(comm: &mut Comm, grid: &DistGrid) -> f64 {
    let mut partials: Vec<Vec<f64>> = (0..grid.ranks()).map(|_| vec![0.0]).collect();
    let global = grid.gather_global();
    let per = global.len() / grid.ranks() + 1;
    for (r, chunk) in global.chunks(per).enumerate() {
        partials[r][0] = chunk.iter().map(|z| z.norm_sqr()).sum();
    }
    comm.allreduce_sum_f64(&mut partials);
    partials[0][0]
}

/// Per-rank virtual time of the spectral advance: ~10 flops per point.
fn advance_time(cfg: &DnsStep, gpu: &GpuModel) -> SimTime {
    let n = cfg.n;
    SimTime::from_secs(10.0 * (n * n * n) as f64 / (cfg.ranks as f64 * gpu.peak_f64 * 0.2))
}

/// The virtual time [`executed_dns_step`] reports, priced instead of
/// executed: the costed transform charges the same line plan.
pub fn costed_dns_step(cfg: &DnsStep) -> SimTime {
    let machine = MachineModel::frontier();
    let gpu = machine.node.gpu();
    let mut comm = Comm::new(cfg.ranks, Network::from_machine(&machine));
    // `energy` reduces one f64 per rank before the window opens.
    comm.allreduce(8);
    let cost = DistFft3d::new(cfg.n, Decomp::Pencils);
    let plan = TransposePlan::lines(cfg.n, cfg.ranks);
    let t0 = comm.elapsed();
    cost.charge_plan(&mut comm, gpu, &plan);
    comm.advance_all(advance_time(cfg, gpu));
    cost.charge_plan(&mut comm, gpu, &plan.reversed());
    comm.elapsed() - t0
}

/// Run one executed PSDNS step; returns the result and its FOM record.
///
/// Schedule: forward transform → spectral advance (`û *= e^{-ν k² dt}`,
/// executed per rank in the spectral layout) → inverse transform.
pub fn executed_dns_step(sched: &RankScheduler, cfg: &DnsStep) -> (DnsStepResult, FomRecord) {
    let machine = MachineModel::frontier();
    let gpu = machine.node.gpu().clone();
    let collector = TelemetryCollector::shared();
    let mut comm = Comm::new(cfg.ranks, Network::from_machine(&machine));
    comm.attach_telemetry(&collector, "gests_dns");

    // The production plan; bit-identical to the reference plan for every
    // physics output, span, and virtual clock.
    let plan = ExecutedFft3d::tuned(cfg.n);
    let mut grid = DistGrid::from_global(cfg.n, cfg.ranks, &initial_field(cfg.n));
    let energy_before = energy(&mut comm, &grid);
    let elapsed = dns_step_window(sched, &mut comm, &gpu, &plan, cfg, &mut grid);
    let energy_after = energy(&mut comm, &grid);
    let digest = field_digest(&grid.gather_global());
    comm.absorb_telemetry();

    let snapshot_digest = digest64(&collector.snapshot().to_json());
    let trace_digest = digest64(&collector.chrome_trace());
    let wall_s = elapsed.secs();
    let record = FomRecord {
        seq: 0,
        app: "GESTS".into(),
        machine: machine.name.clone(),
        nodes: machine.nodes,
        kind: FomKind::Throughput,
        value: (cfg.n * cfg.n * cfg.n) as f64 / wall_s,
        units: "points/s".into(),
        wall_s,
        run_tag: format!("executed-{}r-{}c", cfg.ranks, cfg.n),
        scenario: String::new(),
        snapshot_digest: snapshot_digest.clone(),
        span_profile: Default::default(),
    };
    (
        DnsStepResult {
            energy_before,
            energy_after,
            field_digest: digest,
            elapsed,
            snapshot_digest,
            trace_digest,
        },
        record,
    )
}

/// The step's transform window — forward transform, spectral viscous
/// advance, inverse transform — on an explicit FFT plan. Public so the
/// `autotune` experiment can time exactly this window under the reference
/// and the production plan; [`executed_dns_step`] wraps it with setup,
/// energy accounting and telemetry. Returns the window's virtual elapsed time.
pub fn dns_step_window(
    sched: &RankScheduler,
    comm: &mut Comm,
    gpu: &GpuModel,
    plan: &ExecutedFft3d,
    cfg: &DnsStep,
    grid: &mut DistGrid,
) -> SimTime {
    let t0 = comm.elapsed();
    plan.forward(sched, comm, gpu, grid);

    // Spectral advance in the post-forward layout: lines run along axis 0,
    // line index is i1·n + i2 — so one pass over each rank's lines sees
    // every (k0, k1, k2) it owns. Integrating-factor advance is exact for
    // the viscous term.
    let n = cfg.n;
    let decay_time = advance_time(cfg, gpu);
    let split = grid.line_split();
    let (dt, nu) = (cfg.dt, cfg.viscosity);
    // `k0² + k1² + k2²` is an exact integer no larger than `3·⌊n/2⌋²`, so
    // each decay factor is read from a table indexed by it — the same
    // `exp` of the same argument, evaluated once per distinct value.
    let ksq: Vec<usize> = (0..n)
        .map(|i| {
            let k = wavenumber(i, n);
            (k * k) as usize
        })
        .collect();
    let decay: Vec<f64> = (0..=3 * (n / 2) * (n / 2))
        .map(|k2sum| (-nu * k2sum as f64 * dt).exp())
        .collect();
    sched.compute_phase(comm, grid.parts_mut(), |ctx, part| {
        let start = split.start(ctx.rank());
        for (li, line) in part.chunks_mut(n).enumerate() {
            let gl = start + li;
            let k12 = ksq[gl / n] + ksq[gl % n];
            for (z, &k0sq) in line.iter_mut().zip(&ksq) {
                *z = z.scale(decay[k0sq + k12]);
            }
        }
        ctx.span("spectral_advance", SpanCat::Kernel, decay_time);
    });

    plan.inverse(sched, comm, gpu, grid);
    comm.elapsed() - t0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DnsStep {
        DnsStep {
            n: 8,
            ranks: 12,
            dt: 1e-3,
            viscosity: 0.05,
        }
    }

    #[test]
    fn executed_step_decays_energy_and_reports() {
        let sched = RankScheduler::new();
        let (res, rec) = executed_dns_step(&sched, &small());
        assert!(res.energy_before > 0.0);
        assert!(
            res.energy_after < res.energy_before,
            "viscosity must dissipate energy"
        );
        assert!(
            res.energy_after > 0.5 * res.energy_before,
            "one small step, small decay"
        );
        assert!(res.elapsed > SimTime::ZERO);
        assert_eq!(rec.app, "GESTS");
        assert!(rec.value > 0.0);
        assert_eq!(rec.snapshot_digest, res.snapshot_digest);
    }

    #[test]
    fn executed_step_is_thread_count_invariant() {
        let run = |threads| executed_dns_step(&RankScheduler::with_threads(threads), &small());
        let (r1, f1) = run(1);
        for threads in [2, 4] {
            let (rn, fn_) = run(threads);
            assert_eq!(r1, rn, "result differs at {threads} threads");
            assert_eq!(f1.value.to_bits(), fn_.value.to_bits());
            assert_eq!(f1.wall_s.to_bits(), fn_.wall_s.to_bits());
            assert_eq!(f1.identity(), fn_.identity());
        }
    }

    /// The window with the advance the decay table replaced: one `exp`
    /// per spectral point.
    fn per_point_exp_window(
        sched: &RankScheduler,
        comm: &mut Comm,
        gpu: &GpuModel,
        plan: &ExecutedFft3d,
        cfg: &DnsStep,
        grid: &mut DistGrid,
    ) {
        plan.forward(sched, comm, gpu, grid);
        let n = cfg.n;
        let split = grid.line_split();
        let (dt, nu) = (cfg.dt, cfg.viscosity);
        sched.compute_phase(comm, grid.parts_mut(), |ctx, part| {
            let start = split.start(ctx.rank());
            for (li, line) in part.chunks_mut(n).enumerate() {
                let gl = start + li;
                let (k1, k2) = (wavenumber(gl / n, n), wavenumber(gl % n, n));
                for (i0, z) in line.iter_mut().enumerate() {
                    let k0 = wavenumber(i0, n);
                    let k2sum = k0 * k0 + k1 * k1 + k2 * k2;
                    *z = z.scale((-nu * k2sum * dt).exp());
                }
            }
        });
        plan.inverse(sched, comm, gpu, grid);
    }

    #[test]
    fn decay_table_is_bitwise_the_per_point_exp() {
        // n = 9 runs its lines through Bluestein and has an odd ⌊n/2⌋
        // bound on the table.
        let sched = RankScheduler::new();
        let machine = MachineModel::frontier();
        let gpu = machine.node.gpu().clone();
        for n in [8, 9, 16] {
            let cfg = DnsStep {
                n,
                ranks: 12,
                dt: 1e-2,
                viscosity: 0.5,
            };
            let plan = ExecutedFft3d::new(n);
            let run = |window: &dyn Fn(&mut Comm, &mut DistGrid)| {
                let mut comm = Comm::new(cfg.ranks, Network::from_machine(&machine));
                let mut grid = DistGrid::from_global(n, cfg.ranks, &initial_field(n));
                window(&mut comm, &mut grid);
                field_digest(&grid.gather_global())
            };
            let table = run(&|comm, grid| {
                dns_step_window(&sched, comm, &gpu, &plan, &cfg, grid);
            });
            let per_point = run(&|comm, grid| {
                per_point_exp_window(&sched, comm, &gpu, &plan, &cfg, grid);
            });
            assert_eq!(table, per_point, "decay table differs at n = {n}");
        }
    }

    #[test]
    fn executed_step_takes_the_costed_price_of_its_plan() {
        let sched = RankScheduler::new();
        for ranks in [1, 12, 61, 64] {
            let cfg = DnsStep { ranks, ..small() };
            let (res, _) = executed_dns_step(&sched, &cfg);
            assert_eq!(
                res.elapsed.secs().to_bits(),
                costed_dns_step(&cfg).secs().to_bits(),
                "{ranks} ranks"
            );
        }
    }

    /// The executed step's virtual time, final energy and Chrome trace,
    /// pinned at the exabench grid (128³ on 4 096 ranks) and the
    /// 1 024-rank milestone, at every thread count.
    #[test]
    fn executed_step_keeps_its_golden_bits() {
        for (n, ranks, elapsed, energy, trace) in [
            (
                64,
                1024,
                0x3f3600461f6b2a10,
                0x412b97f6b15c1fe1,
                "58b073dcf3c147db",
            ),
            (
                128,
                4096,
                0x3f43fac22545995c,
                0x415b92e231e49d04,
                "9501dbf31043d255",
            ),
        ] {
            let cfg = DnsStep {
                n,
                ranks,
                ..DnsStep::step_1024()
            };
            for threads in [1, 2, 4] {
                let (res, _) = executed_dns_step(&RankScheduler::with_threads(threads), &cfg);
                let got = (
                    res.elapsed.secs().to_bits(),
                    res.energy_after.to_bits(),
                    res.trace_digest.as_str(),
                );
                assert_eq!(
                    got,
                    (elapsed, energy, trace),
                    "{n}³ on {ranks} ranks at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn a_window_is_seven_compute_phases() {
        let cfg = small();
        let machine = MachineModel::frontier();
        let gpu = machine.node.gpu().clone();
        let mut comm = Comm::new(cfg.ranks, Network::from_machine(&machine));
        let mut grid = DistGrid::from_global(cfg.n, cfg.ranks, &initial_field(cfg.n));
        let mut sched = RankScheduler::with_threads(2);
        sched.attach_observer(&TelemetryCollector::shared(), "pool");
        let plan = ExecutedFft3d::tuned(cfg.n);
        dns_step_window(&sched, &mut comm, &gpu, &plan, &cfg, &mut grid);
        let landing = sched.land_observer().expect("observer attached");
        // Three per transform (a pass, then two repartitions each fused
        // into the pass after it) and the spectral advance.
        assert_eq!(landing.phases, 7);
    }

    #[test]
    fn milestone_configuration_is_executable_at_scale() {
        // The 1024-rank milestone really runs (the bench times it against
        // its wall budget; here we assert shape and determinism hooks).
        let cfg = DnsStep::step_1024();
        assert!(cfg.ranks <= cfg.n * cfg.n, "Pencils bound p <= N^2");
        assert!(cfg.n.is_power_of_two());
    }
}
