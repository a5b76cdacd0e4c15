//! CPU (host processor) models.
//!
//! Covers the host CPUs of every machine in the paper: the three generations
//! of AMD EPYC in the early-access systems and Frontier (§4), the IBM Power9
//! of Summit, and the CPU-only machines of Figure 2 — NERSC Cori and ANL
//! Theta (Intel Xeon Phi / Knights Landing) and NREL Eagle (Intel Skylake).

use crate::cost::CpuWork;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Analytic model of the full CPU complex of one node (all sockets).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CpuModel {
    /// Marketing name.
    pub name: String,
    /// Total cores across sockets.
    pub cores: u32,
    /// Aggregate FP64 peak, FLOP/s.
    pub peak_f64: f64,
    /// Aggregate DRAM (or MCDRAM) bandwidth, bytes/s.
    pub mem_bw: f64,
    /// DRAM capacity, bytes.
    pub mem_capacity: u64,
}

impl CpuModel {
    /// Intel Xeon Phi 7250 "Knights Landing", 68 cores (NERSC Cori).
    pub fn knl_7250() -> Self {
        CpuModel {
            name: "Intel Xeon Phi 7250 (KNL, 68c)".into(),
            cores: 68,
            peak_f64: 3.05e12,
            mem_bw: 460.0e9, // MCDRAM
            mem_capacity: 96 << 30,
        }
    }

    /// Intel Xeon Phi 7230 "Knights Landing", 64 cores (ANL Theta).
    pub fn knl_7230() -> Self {
        CpuModel {
            name: "Intel Xeon Phi 7230 (KNL, 64c)".into(),
            cores: 64,
            peak_f64: 2.66e12,
            mem_bw: 450.0e9,
            mem_capacity: 192 << 30,
        }
    }

    /// Dual Intel Xeon Gold 6154 "Skylake", 36 cores total (NREL Eagle).
    pub fn skylake_2x6154() -> Self {
        CpuModel {
            name: "2x Intel Xeon Gold 6154 (Skylake, 36c)".into(),
            cores: 36,
            peak_f64: 3.46e12,
            mem_bw: 256.0e9,
            mem_capacity: 96 << 30,
        }
    }

    /// Dual IBM Power9, 42 usable cores (OLCF Summit).
    pub fn power9_2s() -> Self {
        CpuModel {
            name: "2x IBM Power9 (42c)".into(),
            cores: 42,
            peak_f64: 1.0e12,
            mem_bw: 340.0e9,
            mem_capacity: 512 << 30,
        }
    }

    /// AMD EPYC 7601 "Naples", 32 cores (Poplar/Tulip).
    pub fn epyc_naples() -> Self {
        CpuModel {
            name: "AMD EPYC 7601 (Naples, 32c)".into(),
            cores: 32,
            peak_f64: 0.70e12,
            mem_bw: 170.0e9,
            mem_capacity: 256 << 30,
        }
    }

    /// AMD EPYC 7662 "Rome", 64 cores (Spock/Birch).
    pub fn epyc_rome() -> Self {
        CpuModel {
            name: "AMD EPYC 7662 (Rome, 64c)".into(),
            cores: 64,
            peak_f64: 2.05e12,
            mem_bw: 205.0e9,
            mem_capacity: 256 << 30,
        }
    }

    /// AMD optimized 3rd-gen EPYC "Trento", 64 cores (Crusher/Frontier).
    pub fn epyc_trento() -> Self {
        CpuModel {
            name: "AMD EPYC 7A53 (Trento, 64c)".into(),
            cores: 64,
            peak_f64: 2.05e12,
            mem_bw: 205.0e9,
            mem_capacity: 512 << 30,
        }
    }

    /// Simulated time of a [`CpuWork`] item on this CPU: a roofline over
    /// the whole socket.
    pub fn work_time(&self, w: &CpuWork) -> SimTime {
        let peak = self.peak_f64 * w.compute_eff;
        let bw = self.mem_bw * w.mem_eff;
        SimTime::from_secs((w.flops / peak).max(w.bytes / bw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_sanity() {
        // KNL nodes out-flop the Power9 host but not by 4x.
        let knl = CpuModel::knl_7250();
        let p9 = CpuModel::power9_2s();
        let r = knl.peak_f64 / p9.peak_f64;
        assert!(r > 2.0 && r < 4.0);
        // EPYC generations grow.
        assert!(CpuModel::epyc_rome().peak_f64 > CpuModel::epyc_naples().peak_f64);
    }

    #[test]
    fn fully_parallel_roofline() {
        let cpu = CpuModel::knl_7250();
        let w = CpuWork::new("stencil", 1e12, 1e10)
            .compute_eff(1.0)
            .mem_eff(1.0);
        let t = cpu.work_time(&w);
        // Compute bound: 1e12 / 3.05e12.
        assert!((t.secs() - 1e12 / 3.05e12).abs() < 1e-4);
    }

    #[test]
    fn memory_bound_work_ignores_flops_peak() {
        let cpu = CpuModel::skylake_2x6154();
        let w = CpuWork::new("copy", 0.0, 1e11).mem_eff(1.0);
        let t = cpu.work_time(&w);
        assert!((t.secs() - 1e11 / 256.0e9).abs() < 1e-6);
    }
}
