//! NuCCOR (§3.7) — nuclear coupled cluster behind plugin abstractions.
//!
//! NuCCOR's readiness story is architectural: "Portability is always
//! handled first by abstraction. We added support for new hardware,
//! libraries, and tools in plugins that implement a preexisting interface
//! without affecting the domain science code. ... adding a new hardware
//! architecture or support for a new library is just a matter of creating
//! the appropriate plugin and adding it to the appropriate factory classes."
//!
//! Here the domain science code is a real (miniature) CCD solver — the
//! ladder-diagram amplitude iteration of coupled-cluster theory, whose hot
//! operation is a tensor contraction reshaped into GEMM — written purely
//! against the [`ContractionBackend`] interface. Three plugins implement
//! it: a reference CPU backend, a CUDA-surface device backend, and a
//! HIP-surface device backend (the hipify+rocBLAS port of §3.7). All three
//! produce bit-identical physics; only their cost differs.

use crate::calibration::nuccor as cal;
use exa_core::{Application, FigureOfMerit, FomMeasurement, Motif};
use exa_hal::{ApiSurface, Device, HalError, SimTime, Stream};
use exa_linalg::device::DeviceBlas;
use exa_linalg::gemm::{gemm_flops, matmul};
use exa_linalg::Matrix;
use exa_machine::{GpuArch, GpuModel, MachineModel};

/// The abstraction NuCCOR's science code is written against.
pub trait ContractionBackend {
    /// Plugin name (for the factory and reports).
    fn name(&self) -> &'static str;
    /// Dense contraction (reshaped tensor contraction).
    fn contract(&mut self, a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64>;
    /// Device time consumed so far.
    fn elapsed(&self) -> SimTime;
}

/// Reference CPU plugin: the always-working gfortran-style minimal build
/// ("NuCCOR maintained a minimal build where all GPU calls were made with
/// wrappers to C function calls").
#[derive(Default)]
pub struct ReferenceBackend {
    elapsed: SimTime,
}

impl ContractionBackend for ReferenceBackend {
    fn name(&self) -> &'static str {
        "reference-cpu"
    }

    fn contract(&mut self, a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
        // Charge a CPU roofline: one Power9-class socket pair.
        let cpu = exa_machine::CpuModel::power9_2s();
        let flops = gemm_flops::<f64>(a.rows(), b.cols(), a.cols());
        let work = exa_machine::CpuWork::new("ccd contraction", flops, 0.0);
        self.elapsed += cpu.work_time(&work);
        matmul(a, b)
    }

    fn elapsed(&self) -> SimTime {
        self.elapsed
    }
}

/// Device plugin over either API surface.
pub struct DeviceBackend {
    label: &'static str,
    stream: Stream,
    lib: DeviceBlas,
}

impl DeviceBackend {
    /// Build the CUDA plugin on a V100.
    pub fn cuda() -> Result<Self, HalError> {
        let stream = Stream::new(Device::new(GpuModel::v100(), 0), ApiSurface::Cuda)?;
        Ok(DeviceBackend {
            label: "cuda-v100",
            stream,
            lib: DeviceBlas,
        })
    }

    /// Build the HIP plugin on an MI250X GCD (the hipify + rocBLAS adapter
    /// port of §3.7).
    pub fn hip() -> Result<Self, HalError> {
        let stream = Stream::new(Device::new(GpuModel::mi250x_gcd(), 0), ApiSurface::Hip)?;
        Ok(DeviceBackend {
            label: "hip-mi250x",
            stream,
            lib: DeviceBlas,
        })
    }
}

impl ContractionBackend for DeviceBackend {
    fn name(&self) -> &'static str {
        self.label
    }

    fn contract(&mut self, a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
        self.lib.dgemm(&mut self.stream, a, b)
    }

    fn elapsed(&self) -> SimTime {
        self.stream.device_time()
    }
}

/// The factory: plugins register by name ("creating the appropriate plugin
/// and adding it to the appropriate factory classes").
pub fn backend_factory(name: &str) -> Option<Box<dyn ContractionBackend>> {
    match name {
        "reference" => Some(Box::new(ReferenceBackend::default())),
        "cuda" => DeviceBackend::cuda()
            .ok()
            .map(|b| Box::new(b) as Box<dyn ContractionBackend>),
        "hip" => DeviceBackend::hip()
            .ok()
            .map(|b| Box::new(b) as Box<dyn ContractionBackend>),
        _ => None,
    }
}

/// A miniature CCD (coupled cluster doubles) ladder iteration.
///
/// Amplitudes `T[ab, ij]` solve `T = (V_phhp + V_pppp · T) / D` by fixed
/// point, and the correlation energy is `E = Σ V_hhpp ∘ T`. Everything is
/// dense and reshaped so the hot operation is a single GEMM per iteration —
/// NuCCOR's computational motif.
pub struct CcdSolver {
    /// Particle (virtual) levels.
    pub np: usize,
    /// Hole (occupied) levels.
    pub nh: usize,
    v_phhp: Matrix<f64>,
    v_pppp: Matrix<f64>,
    denom: Matrix<f64>,
}

impl CcdSolver {
    /// A pairing-style toy interaction, deterministic in `seed`.
    pub fn new(np: usize, nh: usize, g: f64, seed: u64) -> Self {
        let pp = np * np;
        let hh = nh * nh;
        let r1 = Matrix::<f64>::seeded_random(pp, hh, seed);
        let v_phhp = Matrix::from_fn(pp, hh, |i, j| g * 0.3 * (r1[(i, j)] + 0.4));
        let r2 = Matrix::<f64>::seeded_random(pp, pp, seed + 1);
        // Symmetrised weak ladder interaction keeps the iteration contractive.
        // Scale by 1/pp so the ladder iteration stays contractive at any
        // basis size (spectral radius of the random block stays < 1).
        let v_pppp = Matrix::from_fn(pp, pp, |i, j| {
            g * 0.3 / pp as f64 * (r2[(i, j)] + r2[(j, i)])
        });
        let denom = Matrix::from_fn(pp, hh, |i, j| {
            let (a, b) = (i / np, i % np);
            let (ii, jj) = (j / nh, j % nh);
            // ε_a + ε_b − ε_i − ε_j with a gap.
            2.0 + 0.1 * (a + b) as f64 + 0.05 * (ii + jj) as f64
        });
        CcdSolver {
            np,
            nh,
            v_phhp,
            v_pppp,
            denom,
        }
    }

    /// Iterate to tolerance; returns (correlation energy, iterations).
    pub fn solve(
        &self,
        backend: &mut dyn ContractionBackend,
        tol: f64,
        max_iter: usize,
    ) -> (f64, usize) {
        let pp = self.np * self.np;
        let hh = self.nh * self.nh;
        let mut t = Matrix::<f64>::zeros(pp, hh);
        let mut last_e = 0.0;
        for it in 1..=max_iter {
            // Ladder term via the plugin contraction.
            let ladder = backend.contract(&self.v_pppp, &t);
            let mut t_new = Matrix::<f64>::zeros(pp, hh);
            for j in 0..hh {
                for i in 0..pp {
                    t_new[(i, j)] = (self.v_phhp[(i, j)] + ladder[(i, j)]) / self.denom[(i, j)];
                }
            }
            // Energy: elementwise contraction of V with T.
            let e: f64 = (0..hh)
                .flat_map(|j| (0..pp).map(move |i| (i, j)))
                .map(|(i, j)| -self.v_phhp[(i, j)] * t_new[(i, j)])
                .sum();
            t = t_new;
            if (e - last_e).abs() < tol {
                return (e, it);
            }
            last_e = e;
        }
        (last_e, max_iter)
    }
}

/// The NuCCOR application.
#[derive(Debug, Clone, Default)]
pub struct Nuccor;

impl Nuccor {
    fn eff(arch: GpuArch) -> f64 {
        match arch {
            GpuArch::Volta => cal::SUMMIT_EFF,
            GpuArch::Vega20 => cal::FRONTIER_EFF * 0.55,
            GpuArch::Cdna1 => cal::FRONTIER_EFF * 0.8,
            GpuArch::Cdna2 => cal::FRONTIER_EFF,
        }
    }
}

impl Application for Nuccor {
    fn name(&self) -> &'static str {
        "NuCCOR"
    }

    fn paper_section(&self) -> &'static str {
        "3.7"
    }

    fn motifs(&self) -> Vec<Motif> {
        vec![Motif::CudaHipPorting, Motif::PerformancePortability]
    }

    fn challenge_problem(&self) -> String {
        "Coupled-cluster ground state of a medium-mass nucleus: T2 ladder contractions \
         per GPU through the plugin backend"
            .into()
    }

    fn fom(&self) -> FigureOfMerit {
        FigureOfMerit::throughput("contraction rate", "T2-updates/s/GPU")
    }

    fn run(&self, machine: &MachineModel) -> FomMeasurement {
        let gpu = machine.node.gpu();
        // Production T2 blocks reshape to GEMMs of order a few thousand.
        let n = 4096u64;
        let flops = 2.0 * (n as f64).powi(3);
        let rate = gpu.peak_f64_matrix * Self::eff(gpu.arch) / flops;
        FomMeasurement::new(
            machine.name.clone(),
            format!("order-{n} reshaped contractions"),
            rate,
            SimTime::from_secs(1.0 / rate),
        )
    }

    fn paper_speedup(&self) -> Option<f64> {
        Some(6.1)
    }

    fn profile_phases(&self) -> Vec<exa_core::Phase> {
        use exa_core::Phase;
        // §3.7 CCD iteration: the ladder-diagram tensor contraction
        // (reshaped into GEMM) dominates; then the tensor permutes around
        // it, the amplitude/denominator update, and the residual reduce.
        vec![
            Phase::kernel("t2_ladder_gemm", 0.58),
            Phase::kernel("tensor_permute", 0.16),
            Phase::new("amplitude_update", 0.12),
            Phase::collective("residual_allreduce", 0.14),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ccd_converges_to_negative_correlation_energy() {
        let solver = CcdSolver::new(4, 4, 1.0, 11);
        let mut backend = ReferenceBackend::default();
        let (e, iters) = solver.solve(&mut backend, 1e-10, 200);
        assert!(e < 0.0, "correlation energy must be negative: {e}");
        assert!(iters < 200, "must converge, took {iters}");
    }

    #[test]
    fn all_plugins_give_identical_physics() {
        let solver = CcdSolver::new(3, 3, 0.8, 5);
        let mut results = Vec::new();
        for name in ["reference", "cuda", "hip"] {
            let mut b = backend_factory(name).expect("plugin registered");
            let (e, _) = solver.solve(b.as_mut(), 1e-12, 300);
            results.push((name, e));
        }
        let e0 = results[0].1;
        for (name, e) in &results {
            assert!((e - e0).abs() < 1e-12, "{name} disagrees: {e} vs {e0}");
        }
    }

    #[test]
    fn factory_rejects_unknown_plugins() {
        assert!(backend_factory("sycl").is_none());
    }

    #[test]
    fn hip_plugin_outruns_cuda_plugin_which_outruns_cpu() {
        let solver = CcdSolver::new(20, 16, 0.9, 9);
        let time_for = |name: &str| {
            let mut b = backend_factory(name).expect("plugin registered");
            solver.solve(b.as_mut(), 1e-10, 100);
            b.elapsed()
        };
        let t_ref = time_for("reference");
        let t_cuda = time_for("cuda");
        let t_hip = time_for("hip");
        assert!(t_cuda < t_ref, "V100 beats the host: {t_cuda} vs {t_ref}");
        assert!(t_hip < t_cuda, "MI250X GCD beats V100: {t_hip} vs {t_cuda}");
    }

    #[test]
    fn stronger_coupling_binds_more() {
        let weak = CcdSolver::new(4, 4, 0.5, 3);
        let strong = CcdSolver::new(4, 4, 1.5, 3);
        let mut b = ReferenceBackend::default();
        let (e_weak, _) = weak.solve(&mut b, 1e-10, 300);
        let (e_strong, _) = strong.solve(&mut b, 1e-10, 300);
        assert!(e_strong < e_weak, "{e_strong} !< {e_weak}");
    }

    #[test]
    fn table2_speedup_near_6_1x() {
        let app = Nuccor;
        let s = app.measure_speedup();
        let paper = app.paper_speedup().unwrap();
        assert!(
            (s - paper).abs() / paper < 0.15,
            "NuCCOR speedup {s} vs paper {paper}"
        );
    }
}

// ---------------------------------------------------------------------------
// Richer CCD: the hole-hole ladder joins the particle-particle one (the
// second big contraction family in production NuCCOR).
// ---------------------------------------------------------------------------

/// A CCD solver with both ladder channels:
/// `T ← (V_phhp + V_pppp·T + T·V_hhhh) / D`.
pub struct CcdSolverFull {
    inner: CcdSolver,
    v_hhhh: Matrix<f64>,
}

impl CcdSolverFull {
    /// Build from the same synthetic interaction plus a hole-hole block.
    pub fn new(np: usize, nh: usize, g: f64, seed: u64) -> Self {
        let inner = CcdSolver::new(np, nh, g, seed);
        let hh = nh * nh;
        let r = Matrix::<f64>::seeded_random(hh, hh, seed + 2);
        let v_hhhh = Matrix::from_fn(hh, hh, |i, j| g * 0.3 / hh as f64 * (r[(i, j)] + r[(j, i)]));
        CcdSolverFull { inner, v_hhhh }
    }

    /// Iterate to tolerance with both channels; returns (energy, iters).
    pub fn solve(
        &self,
        backend: &mut dyn ContractionBackend,
        tol: f64,
        max_iter: usize,
    ) -> (f64, usize) {
        let pp = self.inner.np * self.inner.np;
        let hh = self.inner.nh * self.inner.nh;
        let mut t = Matrix::<f64>::zeros(pp, hh);
        let mut last_e = 0.0;
        for it in 1..=max_iter {
            let pp_ladder = backend.contract(&self.inner.v_pppp, &t);
            let hh_ladder = backend.contract(&t, &self.v_hhhh);
            let mut t_new = Matrix::<f64>::zeros(pp, hh);
            for j in 0..hh {
                for i in 0..pp {
                    t_new[(i, j)] =
                        (self.inner.v_phhp[(i, j)] + pp_ladder[(i, j)] + hh_ladder[(i, j)])
                            / self.inner.denom[(i, j)];
                }
            }
            let e: f64 = (0..hh)
                .flat_map(|j| (0..pp).map(move |i| (i, j)))
                .map(|(i, j)| -self.inner.v_phhp[(i, j)] * t_new[(i, j)])
                .sum();
            t = t_new;
            if (e - last_e).abs() < tol {
                return (e, it);
            }
            last_e = e;
        }
        (last_e, max_iter)
    }
}

#[cfg(test)]
mod full_ccd_tests {
    use super::*;

    #[test]
    fn full_ccd_converges_and_binds_more_than_pp_only() {
        let mut backend = ReferenceBackend::default();
        let pp_only = CcdSolver::new(4, 4, 1.0, 31);
        let (e_pp, _) = pp_only.solve(&mut backend, 1e-11, 300);
        let full = CcdSolverFull::new(4, 4, 1.0, 31);
        let (e_full, iters) = full.solve(&mut backend, 1e-11, 300);
        assert!(iters < 300, "must converge");
        assert!(e_full < 0.0);
        // The extra channel changes (here: deepens or shifts) the energy.
        assert!((e_full - e_pp).abs() > 1e-9, "hh ladder must contribute");
    }

    #[test]
    fn plugins_agree_on_the_full_solver_too() {
        let full = CcdSolverFull::new(3, 3, 0.8, 13);
        let mut energies = Vec::new();
        for name in ["reference", "cuda", "hip"] {
            let mut b = backend_factory(name).expect("plugin registered");
            energies.push(full.solve(b.as_mut(), 1e-12, 300).0);
        }
        for e in &energies[1..] {
            assert!((e - energies[0]).abs() < 1e-12);
        }
    }
}

/// Runtime plugin selection for a machine — NuCCOR's factory in action:
/// AMD machines load the HIP plugin, NVIDIA machines the CUDA plugin, and
/// anything else falls back to the always-working reference build
/// ("CUDA Fortran, hipfort, OpenMP, or any other tool becomes an optional
/// dependency for experimentation instead of a requirement", §3.7).
pub fn backend_for_machine(machine: &MachineModel) -> Box<dyn ContractionBackend> {
    let choice = if machine.node.has_gpus() {
        match machine.node.gpu().arch {
            GpuArch::Volta => "cuda",
            _ => "hip",
        }
    } else {
        "reference"
    };
    backend_factory(choice)
        .or_else(|| backend_factory("reference"))
        .expect("the reference plugin always constructs")
}

#[cfg(test)]
mod factory_tests {
    use super::*;

    #[test]
    fn machines_select_their_native_plugin() {
        assert_eq!(
            backend_for_machine(&MachineModel::frontier()).name(),
            "hip-mi250x"
        );
        assert_eq!(
            backend_for_machine(&MachineModel::summit()).name(),
            "cuda-v100"
        );
        assert_eq!(
            backend_for_machine(&MachineModel::crusher()).name(),
            "hip-mi250x"
        );
        assert_eq!(
            backend_for_machine(&MachineModel::cori()).name(),
            "reference-cpu"
        );
    }

    #[test]
    fn science_is_identical_across_selected_plugins() {
        let solver = CcdSolver::new(4, 4, 0.9, 21);
        let mut reference = backend_for_machine(&MachineModel::cori());
        let (e_ref, _) = solver.solve(reference.as_mut(), 1e-12, 300);
        for machine in [MachineModel::summit(), MachineModel::frontier()] {
            let mut b = backend_for_machine(&machine);
            let (e, _) = solver.solve(b.as_mut(), 1e-12, 300);
            assert!(
                (e - e_ref).abs() < 1e-12,
                "{}: {e} vs {e_ref}",
                machine.name
            );
        }
    }
}
