//! Pele (§3.8) — adaptive mesh refinement reactive flow.
//!
//! The Combustion-Pele project builds two solvers on AMReX block-structured
//! AMR: PeleC (fully compressible) and PeleLM(eX) (low Mach). Their shared
//! performance story, reproduced here end to end:
//!
//! * **Chemistry dominates.** "all the cells in the box are assembled into
//!   a large chemical system and solved at once with CVODE. In PeleC, a
//!   matrix-free GMRES approach is used within the CVODE non-linear solve
//!   ... In PeleLM(eX), batched linear algebra from the MAGMA library is
//!   employed". Both linear-solver routes are implemented, for real, on a
//!   miniature stiff ignition mechanism, and verified against each other.
//! * **AMR with ghost exchange.** The "asynchronous ghost cell exchange"
//!   of March 2021 is a measurable knob of the Figure 2 cost model.
//! * **Kernel fusion** for small boxes, and the UVM-removal knob.
//! * **Figure 2**: the time-per-cell-per-timestep history across Cori,
//!   Theta, Eagle, Summit, and Frontier, at one node and 4,096 nodes, with
//!   a cumulative ~75× improvement.

use crate::calibration::pele as cal;
use exa_core::{Application, FigureOfMerit, FomMeasurement, Motif};
use exa_linalg::lu::getrf;
use exa_linalg::Matrix;
use exa_machine::{CpuWork, GpuArch, MachineModel, SimTime};
use exa_telemetry::{SpanCat, TelemetryCollector, TrackKind};
use serde::Serialize;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Chemistry: a 3-species stiff ignition mechanism, A -> B -> C.
// ---------------------------------------------------------------------------

/// Number of unknowns per cell: three mass fractions plus temperature.
pub const NSPEC: usize = 4;

/// Arrhenius mechanism parameters.
#[derive(Debug, Clone, Copy)]
pub struct Mechanism {
    /// Pre-exponential factors of the two reactions.
    pub a: [f64; 2],
    /// Activation temperatures.
    pub ea: [f64; 2],
    /// Heat release of each reaction (temperature units).
    pub q: [f64; 2],
}

impl Mechanism {
    /// A stiff two-step ignition mechanism.
    pub fn ignition() -> Self {
        Mechanism {
            a: [4.0e8, 9.0e6],
            ea: [15.0, 9.0],
            q: [1.8, 0.9],
        }
    }

    fn rates(&self, u: &[f64; NSPEC]) -> [f64; 2] {
        let t = u[3].max(0.05);
        [
            self.a[0] * (-self.ea[0] / t).exp() * u[0].max(0.0),
            self.a[1] * (-self.ea[1] / t).exp() * u[1].max(0.0),
        ]
    }

    /// Right-hand side `du/dt` of the cell ODE.
    pub fn rhs(&self, u: &[f64; NSPEC]) -> [f64; NSPEC] {
        let [r1, r2] = self.rates(u);
        [-r1, r1 - r2, r2, self.q[0] * r1 + self.q[1] * r2]
    }

    /// Analytic Jacobian `∂f/∂u`.
    pub fn jacobian(&self, u: &[f64; NSPEC]) -> Matrix<f64> {
        let t = u[3].max(0.05);
        let k1 = self.a[0] * (-self.ea[0] / t).exp();
        let k2 = self.a[1] * (-self.ea[1] / t).exp();
        let ya = u[0].max(0.0);
        let yb = u[1].max(0.0);
        let dk1_dt = k1 * self.ea[0] / (t * t);
        let dk2_dt = k2 * self.ea[1] / (t * t);
        let mut j = Matrix::zeros(NSPEC, NSPEC);
        // Row 0: d(-k1 ya).
        j[(0, 0)] = -k1;
        j[(0, 3)] = -dk1_dt * ya;
        // Row 1: d(k1 ya - k2 yb).
        j[(1, 0)] = k1;
        j[(1, 1)] = -k2;
        j[(1, 3)] = dk1_dt * ya - dk2_dt * yb;
        // Row 2: d(k2 yb).
        j[(2, 1)] = k2;
        j[(2, 3)] = dk2_dt * yb;
        // Row 3: d(q1 k1 ya + q2 k2 yb).
        j[(3, 0)] = self.q[0] * k1;
        j[(3, 1)] = self.q[1] * k2;
        j[(3, 3)] = self.q[0] * dk1_dt * ya + self.q[1] * dk2_dt * yb;
        j
    }
}

/// Linear solver inside the Newton iteration — the PeleC vs PeleLM(eX)
/// split of §3.8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChemLinearSolver {
    /// Batched dense LU (the MAGMA route, PeleLM(eX)).
    BatchedLu,
    /// Matrix-free GMRES (the memory-lean PeleC route).
    MatrixFreeGmres,
}

/// One backward-Euler (BDF1) step of the cell ODE with a globalized
/// (backtracking) Newton iteration. Ignition transients can defeat a naive
/// Newton loop, so the step falls back to two half-steps when the iteration
/// stalls — the same step-size control CVODE applies.
/// Returns the new state and the Newton iteration count of the last level.
pub fn bdf1_step(
    mech: &Mechanism,
    u0: &[f64; NSPEC],
    dt: f64,
    solver: ChemLinearSolver,
) -> ([f64; NSPEC], usize) {
    bdf1_step_inner(mech, u0, dt, solver, 0)
}

fn residual(mech: &Mechanism, u0: &[f64; NSPEC], u: &[f64; NSPEC], dt: f64) -> ([f64; NSPEC], f64) {
    let f = mech.rhs(u);
    let mut r = [0.0; NSPEC];
    let mut rnorm = 0.0;
    for i in 0..NSPEC {
        r[i] = u[i] - u0[i] - dt * f[i];
        rnorm += r[i] * r[i];
    }
    (r, rnorm.sqrt())
}

fn bdf1_step_inner(
    mech: &Mechanism,
    u0: &[f64; NSPEC],
    dt: f64,
    solver: ChemLinearSolver,
    depth: usize,
) -> ([f64; NSPEC], usize) {
    let mut u = *u0;
    for newton in 1..=50 {
        let f = mech.rhs(&u);
        let (r, rnorm) = residual(mech, u0, &u, dt);
        if rnorm < 1e-13 {
            return (u, newton);
        }
        // Stalled: bisect the step (CVODE-style step-size control).
        if newton == 50 {
            if depth >= 24 {
                return (u, newton);
            }
            let (half, _) = bdf1_step_inner(mech, u0, dt / 2.0, solver, depth + 1);
            return bdf1_step_inner(mech, &half, dt / 2.0, solver, depth + 1);
        }
        // Newton matrix M = I - dt J.
        let delta: [f64; NSPEC] = match solver {
            ChemLinearSolver::BatchedLu => {
                let j = mech.jacobian(&u);
                let mut m = Matrix::<f64>::identity(NSPEC);
                for col in 0..NSPEC {
                    for row in 0..NSPEC {
                        m[(row, col)] -= dt * j[(row, col)];
                    }
                }
                let f = getrf(&m).expect("Newton matrix nonsingular");
                let sol = f.solve_vec(&r);
                [sol[0], sol[1], sol[2], sol[3]]
            }
            ChemLinearSolver::MatrixFreeGmres => {
                // J·v by finite differences of the residual map.
                let apply = |v: &[f64]| -> Vec<f64> {
                    let eps = 1e-7;
                    let mut up = u;
                    for i in 0..NSPEC {
                        up[i] += eps * v[i];
                    }
                    let fp = mech.rhs(&up);
                    (0..NSPEC)
                        .map(|i| v[i] - dt * (fp[i] - f[i]) / eps)
                        .collect()
                };
                let sol = gmres(&apply, &r, 30, 1e-12);
                [sol[0], sol[1], sol[2], sol[3]]
            }
        };
        // Backtracking line search: accept the largest step that reduces
        // the residual norm.
        let mut lambda = 1.0;
        let mut accepted = false;
        for _ in 0..24 {
            let mut trial = u;
            for i in 0..NSPEC {
                trial[i] -= lambda * delta[i];
            }
            let (_, trial_norm) = residual(mech, u0, &trial, dt);
            if trial_norm < rnorm {
                u = trial;
                accepted = true;
                break;
            }
            lambda *= 0.5;
        }
        if !accepted {
            // No descent direction: bisect the step.
            if depth >= 24 {
                return (u, newton);
            }
            let (half, _) = bdf1_step_inner(mech, u0, dt / 2.0, solver, depth + 1);
            return bdf1_step_inner(mech, &half, dt / 2.0, solver, depth + 1);
        }
    }
    (u, 50)
}

/// Restarted-free GMRES (full Arnoldi up to `m` iterations) for a
/// matrix-free operator. Returns the approximate solution of `A x = b`.
pub fn gmres(apply: &dyn Fn(&[f64]) -> Vec<f64>, b: &[f64], m: usize, tol: f64) -> Vec<f64> {
    let n = b.len();
    let bnorm = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if bnorm < tol {
        return vec![0.0; n];
    }
    // Arnoldi basis.
    let mut v: Vec<Vec<f64>> = vec![b.iter().map(|x| x / bnorm).collect()];
    let mut h: Vec<Vec<f64>> = Vec::new(); // h[j][i] = H(i, j), column j
                                           // Givens rotations applied to H and the rhs of the least-squares.
    let mut cs: Vec<f64> = Vec::new();
    let mut sn: Vec<f64> = Vec::new();
    let mut g = vec![bnorm];

    for j in 0..m.min(n * 4) {
        let mut w = apply(&v[j]);
        let mut hj = vec![0.0; j + 2];
        for (i, vi) in v.iter().enumerate() {
            let dot: f64 = w.iter().zip(vi).map(|(a, b)| a * b).sum();
            hj[i] = dot;
            for (wk, vk) in w.iter_mut().zip(vi) {
                *wk -= dot * vk;
            }
        }
        let wnorm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
        hj[j + 1] = wnorm;
        // Apply existing rotations to the new column.
        for i in 0..j {
            let t = cs[i] * hj[i] + sn[i] * hj[i + 1];
            hj[i + 1] = -sn[i] * hj[i] + cs[i] * hj[i + 1];
            hj[i] = t;
        }
        // New rotation to annihilate hj[j+1].
        let denom = (hj[j] * hj[j] + hj[j + 1] * hj[j + 1]).sqrt();
        let (c, s) = if denom == 0.0 {
            (1.0, 0.0)
        } else {
            (hj[j] / denom, hj[j + 1] / denom)
        };
        cs.push(c);
        sn.push(s);
        hj[j] = c * hj[j] + s * hj[j + 1];
        hj[j + 1] = 0.0;
        g.push(-s * g[j]);
        g[j] *= c;
        h.push(hj);

        let res = g[j + 1].abs();
        if res < tol || wnorm < 1e-14 {
            break;
        }
        v.push(w.iter().map(|x| x / wnorm).collect());
    }

    // Back-substitute the triangular H y = g.
    let k = h.len();
    let mut y = vec![0.0; k];
    for i in (0..k).rev() {
        let mut acc = g[i];
        for jj in i + 1..k {
            acc -= h[jj][i] * y[jj];
        }
        y[i] = acc / h[i][i];
    }
    // x = V y.
    let mut x = vec![0.0; n];
    for (jj, yj) in y.iter().enumerate() {
        for (xi, vi) in x.iter_mut().zip(&v[jj]) {
            *xi += yj * vi;
        }
    }
    x
}

// ---------------------------------------------------------------------------
// Figure 2 cost model.
// ---------------------------------------------------------------------------

/// PeleC code states along the project timeline (Figure 2's x-axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CodeState {
    /// Sep 2018: hybrid C++/Fortran many-core baseline.
    Baseline2018,
    /// 2020: first full GPU port (AMReX abstraction, UVM-assisted).
    GpuPort2020,
    /// 2021: CVODE batched chemistry (MAGMA / matrix-free GMRES).
    Cvode2021,
    /// 2022: fused kernels, UVM removed, chemistry kernels refactored.
    Fused2022,
    /// 2023: asynchronous ghost exchange + Frontier tuning.
    Async2023,
}

impl CodeState {
    /// Static label for telemetry spans and report keys.
    pub fn label(self) -> &'static str {
        match self {
            CodeState::Baseline2018 => "baseline_2018",
            CodeState::GpuPort2020 => "gpu_port_2020",
            CodeState::Cvode2021 => "cvode_2021",
            CodeState::Fused2022 => "fused_2022",
            CodeState::Async2023 => "async_2023",
        }
    }

    /// Timeline order of all states.
    pub fn timeline() -> &'static [CodeState] {
        &[
            CodeState::Baseline2018,
            CodeState::GpuPort2020,
            CodeState::Cvode2021,
            CodeState::Fused2022,
            CodeState::Async2023,
        ]
    }

    /// Cumulative software gain over the 2018 baseline for GPU machines
    /// (CPU machines only benefit from the single-language rewrite).
    fn software_gain(self) -> f64 {
        let g = cal::STATE_GAINS;
        match self {
            CodeState::Baseline2018 => 1.0,
            CodeState::GpuPort2020 => g[0],
            CodeState::Cvode2021 => g[0] * g[1],
            CodeState::Fused2022 => g[0] * g[1] * g[2],
            CodeState::Async2023 => g[0] * g[1] * g[2] * g[3],
        }
    }

    /// Does the state include the async ghost exchange (which only shows up
    /// at scale)?
    fn has_async_ghost(self) -> bool {
        matches!(self, CodeState::Async2023)
    }
}

/// FLOPs per cell per timestep of the PMF challenge problem (chemistry
/// dominated — the unrolled drm19 mechanism).
pub const FLOPS_PER_CELL_STEP: f64 = 2.0e5;

/// Bytes per cell per timestep.
pub const BYTES_PER_CELL_STEP: f64 = 3.0e3;

/// Time per cell per timestep on one node of `machine` at `state`.
pub fn time_per_cell_step(machine: &MachineModel, state: CodeState) -> SimTime {
    let node = &machine.node;
    if node.has_gpus() && state != CodeState::Baseline2018 {
        let gpu = node.gpu();
        // Port-state efficiency of the chemistry kernels on each arch; the
        // later code states multiply it through `software_gain` (normalised
        // to the port state, since the port *is* STATE_GAINS[0]).
        let eff = match gpu.arch {
            GpuArch::Volta => cal::SUMMIT_EFF,
            GpuArch::Vega20 => cal::FRONTIER_EFF * 0.6,
            GpuArch::Cdna1 => cal::FRONTIER_EFF * 0.8,
            GpuArch::Cdna2 => cal::FRONTIER_EFF,
        };
        let sw = state.software_gain() / cal::STATE_GAINS[0];
        let rate = gpu.peak_f64 * eff * node.gpus_per_node as f64 * sw;
        let t_flops = FLOPS_PER_CELL_STEP / rate;
        let t_bytes = BYTES_PER_CELL_STEP / (gpu.mem_bw * 0.6 * node.gpus_per_node as f64);
        SimTime::from_secs(t_flops.max(t_bytes))
    } else {
        // CPU path: the 2018 baseline everywhere, plus the "2x faster on
        // CPUs" single-language rewrite for later states (§3.8).
        let rewrite = if state == CodeState::Baseline2018 {
            1.0
        } else {
            2.0
        };
        let w = CpuWork::new("pelec cell", FLOPS_PER_CELL_STEP, BYTES_PER_CELL_STEP)
            .compute_eff((cal::CPU_BASELINE_EFF * rewrite).min(1.0))
            .mem_eff(0.5);
        node.cpu.work_time(&w)
    }
}

/// Time per cell per timestep at `nodes` nodes: adds the amortized ghost
/// exchange, asynchronous (overlapped) or not.
pub fn time_per_cell_step_at_scale(
    machine: &MachineModel,
    state: CodeState,
    nodes: u32,
) -> SimTime {
    let single = time_per_cell_step(machine, state);
    if nodes <= 1 {
        return single;
    }
    // Ghost exchange per step, amortized per cell: a fixed fraction of the
    // step that synchronous exchange exposes and async hides.
    let exposed = if state.has_async_ghost() { 0.08 } else { 0.45 };
    let comm_growth = (nodes as f64).log2() / 12.0; // mild contention growth
    single * (1.0 + exposed * (1.0 + comm_growth))
}

/// Weak-scaling efficiency from 1 to `nodes` nodes at a code state.
pub fn weak_scaling_efficiency(machine: &MachineModel, state: CodeState, nodes: u32) -> f64 {
    time_per_cell_step(machine, state) / time_per_cell_step_at_scale(machine, state, nodes)
}

// ---------------------------------------------------------------------------

/// The Pele application.
#[derive(Debug, Clone, Default)]
pub struct Pele;

impl Application for Pele {
    fn name(&self) -> &'static str {
        "Pele"
    }

    fn paper_section(&self) -> &'static str {
        "3.8"
    }

    fn motifs(&self) -> Vec<Motif> {
        vec![
            Motif::PerformancePortability,
            Motif::KernelFusionFission,
            Motif::AlgorithmicOptimizations,
        ]
    }

    fn fom(&self) -> FigureOfMerit {
        FigureOfMerit::time("time per cell per timestep", "s/cell/step")
    }

    /// PeleC ran its 2018 baseline on CPU-only nodes.
    fn needs_gpus(&self) -> bool {
        false
    }

    fn run(&self, machine: &MachineModel) -> FomMeasurement {
        let state = if machine.node.has_gpus() {
            CodeState::Async2023
        } else {
            CodeState::Baseline2018
        };
        let t = time_per_cell_step(machine, state);
        FomMeasurement::new(
            machine.name.clone(),
            format!("{state:?}, 1 node"),
            t.secs(),
            t,
        )
    }

    fn paper_speedup(&self) -> Option<f64> {
        Some(4.2)
    }

    /// §3.8's step decomposition: reacting-flow chemistry dominates, then
    /// hydro advection, AMR regridding, and ghost-cell exchange.
    fn profile_phases(&self) -> Vec<exa_core::Phase> {
        use exa_core::Phase;
        vec![
            Phase::kernel("chemistry_integrate", 0.50),
            Phase::kernel("hydro_advection", 0.25),
            Phase::new("amr_regrid", 0.12),
            Phase::collective("halo_exchange", 0.13),
        ]
    }

    /// Pele has genuinely instrumented paths, so the profiled run drives
    /// them for real spans (device-queue chemistry, the Figure-2 host
    /// walk) and then replays the phase decomposition for the injectable
    /// FOM measurement.
    fn run_profiled(
        &self,
        machine: &MachineModel,
        ctx: &exa_core::RunContext<'_>,
    ) -> FomMeasurement {
        chemistry_step_profiled(4096, 4, true, Some(ctx.telemetry));
        fig2_campaign_profiled(machine, 1, Some(ctx.telemetry));
        let clean = self.run(machine);
        let observed =
            exa_core::record_phases(ctx, "pele/host", clean.wall, &self.profile_phases());
        let ratio = if clean.wall.is_zero() {
            1.0
        } else {
            observed / clean.wall
        };
        exa_core::perturb_measurement(clean, self.fom().higher_is_better, ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmres_solves_a_dense_system() {
        let n = 12;
        let mut a = Matrix::<f64>::seeded_random(n, n, 4);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 5.0).collect();
        let apply = |v: &[f64]| {
            let v = Matrix::from_fn(n, 1, |i, _| v[i]);
            a.matmul_ref(&v).as_slice().to_vec()
        };
        let b = apply(&x_true);
        let x = gmres(&apply, &b, 50, 1e-12);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-8, "{xi} vs {ti}");
        }
    }

    #[test]
    fn both_chemistry_solvers_agree() {
        // §3.8: GMRES (PeleC) and batched LU (PeleLM) are routes to the
        // same Newton update.
        let mech = Mechanism::ignition();
        let u0 = [0.9, 0.1, 0.0, 0.9];
        let dt = 1e-4;
        let (lu, _) = bdf1_step(&mech, &u0, dt, ChemLinearSolver::BatchedLu);
        let (gm, _) = bdf1_step(&mech, &u0, dt, ChemLinearSolver::MatrixFreeGmres);
        for i in 0..NSPEC {
            assert!(
                (lu[i] - gm[i]).abs() < 1e-8,
                "component {i}: {} vs {}",
                lu[i],
                gm[i]
            );
        }
    }

    #[test]
    fn chemistry_conserves_mass_and_releases_heat() {
        let mech = Mechanism::ignition();
        let mut u = [1.0, 0.0, 0.0, 1.0];
        for _ in 0..200 {
            u = bdf1_step(&mech, &u, 5e-5, ChemLinearSolver::BatchedLu).0;
        }
        let mass = u[0] + u[1] + u[2];
        assert!((mass - 1.0).abs() < 1e-8, "mass drifted: {mass}");
        assert!(u[2] > 0.5, "fuel should burn: yC = {}", u[2]);
        assert!(u[3] > 1.5, "temperature should rise: {}", u[3]);
    }

    #[test]
    fn implicit_step_is_stable_where_explicit_would_blow_up() {
        let mech = Mechanism::ignition();
        let hot = [1.0, 0.0, 0.0, 2.0];
        // Explicit Euler with this dt at this temperature diverges.
        let dt = 5e-3;
        let f = mech.rhs(&hot);
        let explicit_ya = hot[0] + dt * f[0];
        assert!(explicit_ya < 0.0, "dt chosen to break explicit Euler");
        // BDF1 stays in [0, 1].
        let (u, _) = bdf1_step(&mech, &hot, dt, ChemLinearSolver::BatchedLu);
        assert!(u[0] >= -1e-9 && u[0] <= 1.0 + 1e-9, "yA = {}", u[0]);
        assert!(u.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn figure2_timeline_improves_monotonically_on_summit() {
        let summit = MachineModel::summit();
        let mut last = f64::INFINITY;
        for &state in CodeState::timeline() {
            let t = time_per_cell_step(&summit, state).secs();
            assert!(t <= last, "{state:?} regressed: {t} vs {last}");
            last = t;
        }
    }

    #[test]
    fn figure2_cumulative_gain_is_about_75x() {
        // §3.8: "a 75x speedup of the code was achieved over the length of
        // the project due to both software and hardware improvements" —
        // from the Cori 2018 baseline to the Frontier 2023 state.
        let start = time_per_cell_step(&MachineModel::cori(), CodeState::Baseline2018);
        let end = time_per_cell_step(&MachineModel::frontier(), CodeState::Async2023);
        let gain = start / end;
        assert!(
            gain > 50.0 && gain < 110.0,
            "project gain {gain} (target ~75x)"
        );
    }

    #[test]
    fn async_ghost_exchange_restores_weak_scaling() {
        let frontier = MachineModel::frontier();
        let sync_eff = weak_scaling_efficiency(&frontier, CodeState::Fused2022, 4096);
        let async_eff = weak_scaling_efficiency(&frontier, CodeState::Async2023, 4096);
        assert!(
            async_eff > 0.80,
            "§3.8: ≥80% weak scaling to 4096 nodes: {async_eff}"
        );
        assert!(sync_eff < async_eff);
    }

    #[test]
    fn table2_speedup_near_4_2x() {
        let app = Pele;
        let s = app.measure_speedup();
        let paper = app.paper_speedup().unwrap();
        assert!(
            (s - paper).abs() / paper < 0.2,
            "Pele speedup {s} vs paper {paper}"
        );
    }
}

// ---------------------------------------------------------------------------
// UVM ablation (§3.8).
// ---------------------------------------------------------------------------

/// Time the per-step chemistry data movement for `cells` cells, either
/// through UVM page migration (the seamless incremental-port path) or
/// through explicit copies (the tuned path). §3.8: "removing the use of
/// UVM was ultimately necessary for obtaining better performance on the
/// Frontier AMD platform" — this function is that claim, measurable.
pub fn chemistry_data_time(cells: usize, steps: usize, uvm: bool) -> SimTime {
    use exa_hal::{ApiSurface, Device, DeviceBuffer, ManagedBuffer, Stream};
    let device = Device::new(exa_machine::GpuModel::mi250x_gcd(), 0);
    let mut stream = Stream::new(device.clone(), ApiSurface::Hip).expect("hip on cdna2");
    let n = cells * NSPEC;
    if uvm {
        let mut state = ManagedBuffer::<f64>::new(&device, n).expect("fits");
        for _ in 0..steps {
            // Host-side advection touches the state, then the device
            // chemistry touches it, then the host reads it back: the
            // page-fault ping-pong of the incremental port.
            state.access_host(&mut stream, 0, n);
            state.access_device(&mut stream, 0, n);
            state.access_host(&mut stream, 0, n);
        }
    } else {
        let mut dev = DeviceBuffer::<f64>::zeroed(&device, n).expect("fits");
        let host = vec![0.0f64; n];
        let mut back = vec![0.0f64; n];
        for _ in 0..steps {
            stream.upload(&host, &mut dev).expect("sizes match");
            stream.download(&dev, &mut back).expect("sizes match");
        }
    }
    stream.synchronize()
}

/// The modeled kernels of one chemistry substep. A CVODE-style integrator
/// is a parade of small per-cell kernels — rate evaluation, Jacobian
/// assembly, LU factor/solve, state update, error norm, temperature fix-up,
/// copy-back — each touching a slice of the state and each shorter than a
/// kernel-launch latency. This is precisely the launch-bound regime the
/// §3.8 fusion work (and hipGraph replay) targets.
pub fn chemistry_kernels(cells: usize) -> Vec<exa_hal::KernelProfile> {
    use exa_hal::{DType, KernelProfile, LaunchConfig};
    let c = cells as f64;
    let launch = LaunchConfig::cover(cells as u64, 256);
    [
        "rates", "jac", "lu", "solve", "update", "errnorm", "tempfix", "copyback",
    ]
    .iter()
    .map(|name| {
        KernelProfile::new(format!("chem_{name}"), launch)
            .flops(c * 50.0, DType::F64)
            .bytes(c * 8.0, c * 8.0)
            .regs(96)
            .mem_eff(0.6)
    })
    .collect()
}

/// Time `steps` chemistry substeps on the tuned explicit-copy path, either
/// launch-by-launch (`graphed = false`: upload, kernel, blocking download
/// per step — every step pays a kernel-launch submission and a host sync)
/// or as a captured kernel graph replayed once per step (`graphed = true`:
/// the fixed upload→RHS→download sequence is recorded through
/// [`exa_hal::Stream::begin_capture`] and each step is one graph
/// submission, so the per-step launch charge collapses and the host stops
/// gating the device). When a collector is supplied the stream records
/// every launch, DMA, and graph replay as spans on a `pele/chem`
/// device-queue track, and pours its [`exa_hal::stream::StreamStats`] into
/// the collector's metrics before returning.
pub fn chemistry_step_profiled(
    cells: usize,
    steps: usize,
    graphed: bool,
    telemetry: Option<&Arc<TelemetryCollector>>,
) -> SimTime {
    use exa_hal::{ApiSurface, Device, Stream};
    let device = Device::new(exa_machine::GpuModel::mi250x_gcd(), 0);
    let mut stream = Stream::new(device, ApiSurface::Hip).expect("hip on cdna2");
    if let Some(c) = telemetry {
        stream.attach_telemetry(c, "pele/chem");
    }
    let bytes = (cells * NSPEC * std::mem::size_of::<f64>()) as u64;
    let kernels = chemistry_kernels(cells);
    if graphed {
        stream.begin_capture();
        stream.upload_modeled(bytes);
        for k in &kernels {
            stream.launch_modeled(k);
        }
        stream.download_modeled(bytes);
        let graph = stream.end_capture();
        for _ in 0..steps {
            stream.replay(&graph);
        }
    } else {
        for _ in 0..steps {
            stream.upload_modeled(bytes);
            for k in &kernels {
                stream.launch_modeled(k);
            }
            stream.download_modeled(bytes);
        }
    }
    let t = stream.synchronize();
    if telemetry.is_some() {
        stream.absorb_telemetry();
    }
    t
}

/// One Figure-2 point: a code state and its time per cell per timestep.
#[derive(Debug, Clone, Copy)]
pub struct Fig2Sample {
    /// The code state the sample was taken at.
    pub state: CodeState,
    /// Time per cell per timestep at the requested node count.
    pub time_per_cell_step: SimTime,
}

/// Walk the Figure-2 code-state timeline on `machine` at `nodes` nodes.
/// With a collector attached, each code state becomes one host-track phase
/// span whose length is a representative step of 2²⁰ cells at that state —
/// so the exported timeline *is* Figure 2, readable in Perfetto — and the
/// cumulative speed-up lands in the `pele.fig2.speedup` gauge.
pub fn fig2_campaign_profiled(
    machine: &MachineModel,
    nodes: u32,
    telemetry: Option<&Arc<TelemetryCollector>>,
) -> Vec<Fig2Sample> {
    const CELLS: f64 = (1u64 << 20) as f64;
    let track = telemetry.map(|c| c.track("pele/fig2", TrackKind::Host));
    let mut cursor = SimTime::ZERO;
    let mut samples = Vec::new();
    for &state in CodeState::timeline() {
        let t = time_per_cell_step_at_scale(machine, state, nodes);
        if let (Some(c), Some(tk)) = (telemetry, track) {
            let step = t * CELLS;
            c.complete(tk, state.label(), SpanCat::Phase, cursor, cursor + step);
            cursor += step;
        }
        samples.push(Fig2Sample {
            state,
            time_per_cell_step: t,
        });
    }
    if let Some(c) = telemetry {
        let first = samples
            .first()
            .expect("timeline non-empty")
            .time_per_cell_step;
        let last = samples
            .last()
            .expect("timeline non-empty")
            .time_per_cell_step;
        c.metrics(|m| {
            m.gauge_set("pele.fig2.speedup", first / last);
            m.gauge_set("pele.fig2.code_states", samples.len() as f64);
        });
    }
    samples
}

#[cfg(test)]
mod uvm_tests {
    use super::*;

    #[test]
    fn graphed_chemistry_beats_per_call_launching() {
        let cells = 4096;
        let eager = chemistry_step_profiled(cells, 16, false, None);
        let graphed = chemistry_step_profiled(cells, 16, true, None);
        assert!(
            graphed < eager,
            "replaying the captured step must beat per-call launches: {graphed} !< {eager}"
        );
    }

    #[test]
    fn profiled_chemistry_emits_spans_matching_stream_stats() {
        let collector = TelemetryCollector::shared();
        let t = chemistry_step_profiled(4096, 4, true, Some(&collector));
        assert!(t > SimTime::ZERO);
        let snap = collector.snapshot();
        // Captured kernels are recorded, not executed; the 4 replays are 4
        // graph spans, and capture's upload/download stay off the timeline.
        assert_eq!(snap.counter("hal.graph_replays"), 4);
        assert_eq!(snap.counter("hal.graph_kernels"), 4 * 8);
        assert!(snap.spans_total >= 4);
        exa_telemetry::validate_chrome_trace(&collector.chrome_trace()).expect("valid trace");
    }

    #[test]
    fn fig2_campaign_phases_cover_the_timeline() {
        let collector = TelemetryCollector::shared();
        let samples = fig2_campaign_profiled(&MachineModel::frontier(), 1, Some(&collector));
        assert_eq!(samples.len(), CodeState::timeline().len());
        let snap = collector.snapshot();
        assert_eq!(snap.spans_total, samples.len() as u64);
        let speedup = snap.gauges.get("pele.fig2.speedup").copied().unwrap_or(0.0);
        assert!(
            speedup > 1.0,
            "code states must improve over the port: {speedup}"
        );
        exa_telemetry::validate_chrome_trace(&collector.chrome_trace()).expect("valid trace");
    }

    #[test]
    fn removing_uvm_is_a_win() {
        let cells = 64 * 64;
        let t_uvm = chemistry_data_time(cells, 4, true);
        let t_explicit = chemistry_data_time(cells, 4, false);
        assert!(
            t_explicit < t_uvm,
            "explicit copies must beat page faulting: {t_explicit} !< {t_uvm}"
        );
    }

    #[test]
    fn uvm_overhead_grows_with_steps() {
        let cells = 64 * 64;
        let t2 = chemistry_data_time(cells, 2, true);
        let t8 = chemistry_data_time(cells, 8, true);
        // Ping-pong never amortises: cost stays ~linear in steps.
        let r = t8 / t2;
        assert!(r > 3.0, "UVM thrash should scale with steps: {r}");
    }
}
