//! Shared pieces of the analytic cost model.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// A saturating latency-hiding efficiency curve.
///
/// GPUs hide pipeline and memory latency by oversubscribing each compute unit
/// with wavefronts; once occupancy passes a "knee", more resident waves no
/// longer help. We model efficiency as a simple piecewise-linear saturation:
/// `eff(x) = min(1, x / knee)`. Compute-bound kernels saturate early
/// (knee ≈ 0.25); memory-bound kernels need more concurrency to fill the
/// memory pipeline (knee ≈ 0.5). These knees match the folk numbers from
/// vendor occupancy guides.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EffCurve {
    /// Occupancy at which the resource saturates, in (0, 1].
    pub knee: f64,
}

impl EffCurve {
    /// Curve for compute-pipe latency hiding.
    pub const COMPUTE: EffCurve = EffCurve { knee: 0.25 };
    /// Curve for memory-system latency hiding.
    pub const MEMORY: EffCurve = EffCurve { knee: 0.50 };

    /// Efficiency at a given occupancy (both in [0, 1]).
    #[inline]
    pub fn at(&self, occupancy: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&occupancy));
        (occupancy / self.knee).clamp(1e-6, 1.0)
    }
}

/// Work performed on a CPU (host-side phases, and the CPU-only machines of
/// Figure 2). Timed with a roofline over the whole socket.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CpuWork {
    /// Descriptive label.
    pub name: String,
    /// Double-precision-equivalent floating point operations.
    pub flops: f64,
    /// Bytes moved to/from DRAM.
    pub bytes: f64,
    /// Fraction of per-core peak the scalar/vector code achieves.
    pub compute_eff: f64,
    /// Fraction of STREAM bandwidth the access pattern achieves.
    pub mem_eff: f64,
}

impl CpuWork {
    /// New CPU work item with typical efficiencies (60 % of peak FLOPs —
    /// real codes rarely vectorise perfectly — and 75 % of STREAM).
    pub fn new(name: impl Into<String>, flops: f64, bytes: f64) -> Self {
        CpuWork {
            name: name.into(),
            flops,
            bytes,
            compute_eff: 0.60,
            mem_eff: 0.75,
        }
    }

    /// Override achieved compute efficiency.
    pub fn compute_eff(mut self, eff: f64) -> Self {
        assert!(eff > 0.0 && eff <= 1.0);
        self.compute_eff = eff;
        self
    }

    /// Override achieved memory efficiency.
    pub fn mem_eff(mut self, eff: f64) -> Self {
        assert!(eff > 0.0 && eff <= 1.0);
        self.mem_eff = eff;
        self
    }
}

/// Fraction of a full kernel-launch latency charged per node when a kernel
/// graph is replayed (hipGraph / CUDA Graphs semantics): the host submits the
/// whole graph with **one** launch, and each node costs only the device-side
/// queue dispatch — roughly 5 % of a cold launch on both vendors' runtimes.
pub const GRAPH_NODE_DISPATCH_FRAC: f64 = 0.05;

/// Device-side dispatch cost of one node inside a replayed kernel graph.
#[inline]
pub fn graph_node_dispatch(launch_latency: SimTime) -> SimTime {
    launch_latency * GRAPH_NODE_DISPATCH_FRAC
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eff_curve_saturates_at_knee() {
        let c = EffCurve::COMPUTE;
        assert!((c.at(0.25) - 1.0).abs() < 1e-12);
        assert!((c.at(1.0) - 1.0).abs() < 1e-12);
        assert!((c.at(0.125) - 0.5).abs() < 1e-12);
        let m = EffCurve::MEMORY;
        assert!((m.at(0.25) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eff_curve_never_zero() {
        assert!(EffCurve::COMPUTE.at(0.0) > 0.0);
    }

    #[test]
    fn graph_dispatch_is_a_small_fraction_of_a_launch() {
        let latency = SimTime::from_micros(4.0);
        let d = graph_node_dispatch(latency);
        assert!(d < latency * 0.1);
        assert!(d > SimTime::ZERO);
    }

    #[test]
    fn cpu_work_builder() {
        let w = CpuWork::new("halo pack", 1e9, 2e9)
            .compute_eff(0.5)
            .mem_eff(0.9);
        assert_eq!(w.compute_eff, 0.5);
        assert_eq!(w.mem_eff, 0.9);
    }
}
