//! NuCCOR (§3.7) — nuclear coupled cluster behind plugin abstractions.
//!
//! NuCCOR's readiness story is architectural: "Portability is always
//! handled first by abstraction. We added support for new hardware,
//! libraries, and tools in plugins that implement a preexisting interface
//! without affecting the domain science code." Its hot operation is the
//! CCD ladder-diagram tensor contraction reshaped into GEMM; the model
//! prices that GEMM at each architecture's achieved matrix-FP64 rate, the
//! HIP plugin (hipify + rocBLAS, §3.7) on the AMD machines.

use crate::calibration::nuccor as cal;
use exa_core::{Application, FigureOfMerit, FomMeasurement, Motif};
use exa_hal::SimTime;
use exa_machine::{GpuArch, MachineModel};

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
