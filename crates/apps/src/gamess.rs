//! GAMESS (§3.1) — fragmented quantum chemistry: RI-MP2 over FMO fragments.
//!
//! The real GAMESS runs the Fragment Molecular Orbital method: a molecular
//! system is cut into fragments, each fragment's correlation energy is
//! computed independently (embarrassingly parallel, linear scaling), and the
//! per-fragment hot path is RI-MP2 — dense GEMM chains over the
//! resolution-of-identity three-index tensor plus a symmetric
//! diagonalisation of the fragment Fock matrix.
//!
//! This module prices that motif: a fragment's RI-MP2 FLOPs (the `(ia|jb)`
//! assembly GEMM plus the O(n³) eigensolve) at each architecture's
//! achieved matrix-FP64 rate, and the GDDI fragment driver's weak scaling
//! on the simulated communicator.
//!
//! The Table 2 claim reproduced: "A speedup of 5x was observed in the
//! fragment-level HIP RI-MP2 code."

use crate::calibration::gamess as cal;
use exa_core::{Application, FigureOfMerit, FomMeasurement, Motif};
use exa_hal::SimTime;
use exa_linalg::gemm::gemm_flops;
use exa_machine::{GpuArch, MachineModel};

/// One FMO fragment: a handful of water molecules.
#[derive(Debug, Clone, Copy)]
pub struct Fragment {
    /// Occupied orbitals.
    pub nocc: usize,
    /// Virtual orbitals.
    pub nvirt: usize,
    /// Auxiliary (RI) basis functions.
    pub naux: usize,
}

impl Fragment {
    /// A fragment of `molecules` water monomers in a cc-pVDZ-like basis
    /// (5 occupied / 19 virtual / 84 auxiliary functions per water).
    pub fn waters(molecules: usize) -> Self {
        Fragment {
            nocc: 5 * molecules,
            nvirt: 19 * molecules,
            naux: 84 * molecules,
        }
    }

    /// FLOPs of one fragment's RI-MP2 energy: the `(ia|jb)` assembly GEMM
    /// dominates (naux × (nocc·nvirt)² muladds), plus the O(n³) eigensolve.
    pub fn rimp2_flops(&self) -> f64 {
        let ov = (self.nocc * self.nvirt) as f64;
        let n = (self.nocc + self.nvirt) as f64;
        gemm_flops::<f64>(ov as usize, ov as usize, self.naux) + 10.0 / 3.0 * n * n * n
    }
}

/// The GAMESS application for the readiness harness.
#[derive(Debug, Clone)]
pub struct Gamess {
    /// Molecules per fragment in the challenge problem.
    pub molecules_per_fragment: usize,
}

impl Default for Gamess {
    fn default() -> Self {
        // The §3.1 challenge systems fragment into few-molecule units.
        Gamess {
            molecules_per_fragment: 4,
        }
    }
}

impl Gamess {
    /// Achieved fraction of device matrix-FP64 peak on each architecture.
    fn eff(arch: GpuArch) -> f64 {
        match arch {
            GpuArch::Volta => cal::SUMMIT_EFF,
            GpuArch::Vega20 => cal::FRONTIER_EFF * 0.55, // first unoptimized port
            GpuArch::Cdna1 => cal::FRONTIER_EFF * 0.78,  // hackathon-era tuning
            GpuArch::Cdna2 => cal::FRONTIER_EFF,
        }
    }

    /// Fragment throughput of one GPU (fragments/second), cost-model path.
    pub fn fragments_per_second_per_gpu(&self, machine: &MachineModel) -> f64 {
        let gpu = machine.node.gpu();
        let frag = Fragment::waters(self.molecules_per_fragment);
        let rate = gpu.peak_f64_matrix * Self::eff(gpu.arch);
        rate / frag.rimp2_flops()
    }
}

impl Application for Gamess {
    fn name(&self) -> &'static str {
        "GAMESS"
    }

    fn paper_section(&self) -> &'static str {
        "3.1"
    }

    fn motifs(&self) -> Vec<Motif> {
        vec![Motif::CudaHipPorting, Motif::LibraryTuning]
    }

    fn fom(&self) -> FigureOfMerit {
        FigureOfMerit::throughput("fragment RI-MP2 rate", "fragments/s/GPU")
    }

    fn run(&self, machine: &MachineModel) -> FomMeasurement {
        let rate = self.fragments_per_second_per_gpu(machine);
        FomMeasurement::new(
            machine.name.clone(),
            format!("{} waters/fragment, 1 GPU", self.molecules_per_fragment),
            rate,
            SimTime::from_secs(1.0 / rate),
        )
    }

    fn paper_speedup(&self) -> Option<f64> {
        Some(5.0)
    }

    fn profile_phases(&self) -> Vec<exa_core::Phase> {
        use exa_core::Phase;
        // §3.1 fragment hot path: RI tensor transform GEMMs dominate, then
        // the symmetric eigensolve, the MP2 pair-energy sum, and the
        // fragment result gather.
        vec![
            Phase::kernel("ri_transform_gemm", 0.46),
            Phase::kernel("fock_eigensolve", 0.24),
            Phase::kernel("mp2_pair_energy", 0.18),
            Phase::collective("fragment_gather", 0.12),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigger_fragments_cost_more_flops() {
        let f1 = Fragment::waters(1).rimp2_flops();
        let f4 = Fragment::waters(4).rimp2_flops();
        // naux and (nocc·nvirt)² both grow: strongly superlinear.
        assert!(f4 > 40.0 * f1);
    }

    #[test]
    fn table2_speedup_near_5x() {
        let app = Gamess::default();
        let s = app.measure_speedup();
        let paper = app.paper_speedup().unwrap();
        assert!(
            (s - paper).abs() / paper < 0.15,
            "GAMESS speedup {s} vs paper {paper}"
        );
    }

    #[test]
    fn early_access_generations_improve_monotonically() {
        let app = Gamess::default();
        let mut last = 0.0;
        for m in [
            MachineModel::poplar(),
            MachineModel::spock(),
            MachineModel::crusher(),
            MachineModel::frontier(),
        ] {
            let v = app.run(&m).value;
            assert!(v >= last, "{} regressed: {v} < {last}", m.name);
            last = v;
        }
    }
}

// ---------------------------------------------------------------------------
// GDDI scaling (§3.1).
// ---------------------------------------------------------------------------

/// Weak-scaling model of the fragment driver over GDDI/MPI: fragments are
/// embarrassingly parallel; the only global phases are the fragment-energy
/// reduction and a bookkeeping broadcast per SCF macro-iteration.
/// Returns the parallel efficiency at `nodes` Frontier nodes.
///
/// §3.1: "The code has shown excellent performance and nearly ideal linear
/// scaling up to 2K nodes of the system."
pub fn gddi_scaling_efficiency(machine: &exa_machine::MachineModel, nodes: u32) -> f64 {
    use exa_mpi::{Comm, Network};
    let nodes = nodes.min(machine.nodes);
    let ranks = (nodes as usize * machine.node.gpus_per_node as usize).max(1);
    // Production FMO fragments (the 75k-atom ionic-liquid system of §3.1)
    // are tens of atoms; each is seconds of device work.
    let frag = Fragment::waters(8);
    let gpu = machine.node.gpu();
    // Each rank computes a fixed batch of fragments (weak scaling).
    let frags_per_rank = 16.0;
    let compute = SimTime::from_secs(
        frags_per_rank * frag.rimp2_flops() / (gpu.peak_f64_matrix * cal::FRONTIER_EFF),
    );
    let mut comm = Comm::new(ranks, Network::from_machine(machine));
    comm.advance_all(compute);
    comm.allreduce(8 * 1024); // fragment energies + dipoles
    comm.bcast(64 * 1024); // updated monomer fields
    let total = comm.elapsed();
    compute / total
}

#[cfg(test)]
mod gddi_tests {
    use super::*;
    use exa_machine::MachineModel;

    #[test]
    fn nearly_ideal_scaling_to_2k_nodes() {
        let frontier = MachineModel::frontier();
        let eff = gddi_scaling_efficiency(&frontier, 2_048);
        assert!(
            eff > 0.95,
            "GDDI fragment driver must scale nearly ideally: {eff}"
        );
    }

    #[test]
    fn efficiency_decreases_monotonically_with_scale() {
        let frontier = MachineModel::frontier();
        let e128 = gddi_scaling_efficiency(&frontier, 128);
        let e1024 = gddi_scaling_efficiency(&frontier, 1_024);
        let e2048 = gddi_scaling_efficiency(&frontier, 2_048);
        assert!(e128 >= e1024 && e1024 >= e2048, "{e128} {e1024} {e2048}");
        assert!(e128 > 0.99);
    }
}
