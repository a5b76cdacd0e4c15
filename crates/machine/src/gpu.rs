//! GPU device models.
//!
//! One model per device generation the paper's porting campaign touched:
//! NVIDIA V100 (Summit), AMD MI60 (Poplar/Tulip), AMD MI100 (Spock/Birch),
//! and AMD MI250X (Crusher/Frontier). MI250X is modelled **per GCD** (Graphics
//! Compute Die): each MI250X card exposes two GCDs to software as two devices,
//! which is how Frontier applications schedule work, and how the paper counts
//! "32,768 GPUs" on 8,192 nodes.
//!
//! All headline rates come from the public spec sheets; see DESIGN.md §7.

use crate::cost::EffCurve;
use crate::kernel::{DType, KernelProfile};
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// GPU micro-architecture families referenced by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GpuArch {
    /// NVIDIA Volta (V100).
    Volta,
    /// AMD Vega 20 / GCN5 (MI60).
    Vega20,
    /// AMD CDNA 1 (MI100).
    Cdna1,
    /// AMD CDNA 2 (MI250X).
    Cdna2,
}

impl GpuArch {
    /// Hardware wavefront (warp) width in lanes.
    pub fn wavefront(self) -> u32 {
        match self {
            GpuArch::Volta => 32,
            GpuArch::Vega20 | GpuArch::Cdna1 | GpuArch::Cdna2 => 64,
        }
    }
}

/// Analytic model of one GPU device (or one GCD for MI250X).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GpuModel {
    /// Marketing name.
    pub name: String,
    /// Micro-architecture.
    pub arch: GpuArch,
    /// Compute units (SMs on NVIDIA).
    pub cus: u32,
    /// Vector FP64 peak, FLOP/s.
    pub peak_f64: f64,
    /// Matrix-unit FP64 peak (MFMA); equals vector peak where absent.
    pub peak_f64_matrix: f64,
    /// Vector FP32 peak, FLOP/s.
    pub peak_f32: f64,
    /// Matrix-unit FP32 peak.
    pub peak_f32_matrix: f64,
    /// Vector FP16 peak.
    pub peak_f16: f64,
    /// Matrix/tensor FP16 peak.
    pub peak_f16_matrix: f64,
    /// Int8 peak (OPS), matrix units where present.
    pub peak_i8: f64,
    /// HBM bandwidth, bytes/s.
    pub mem_bw: f64,
    /// HBM capacity, bytes.
    pub mem_capacity: u64,
    /// 32-bit architectural registers per CU.
    pub regs_per_cu: u32,
    /// Maximum resident threads per CU.
    pub max_threads_per_cu: u32,
    /// LDS / shared memory per CU, bytes.
    pub lds_per_cu: u32,
    /// Host-visible kernel launch latency.
    pub launch_latency: SimTime,
    /// Latency of a device `malloc`/`free` pair through the runtime (the
    /// cost the YAKL-style pool allocator of §3.5 exists to avoid).
    pub alloc_latency: SimTime,
}

impl GpuModel {
    /// NVIDIA V100 SXM2 16 GB, the Summit GPU.
    pub fn v100() -> Self {
        GpuModel {
            name: "NVIDIA V100 (SXM2)".into(),
            arch: GpuArch::Volta,
            cus: 80,
            peak_f64: 7.8e12,
            peak_f64_matrix: 7.8e12,
            peak_f32: 15.7e12,
            peak_f32_matrix: 15.7e12,
            peak_f16: 31.4e12,
            peak_f16_matrix: 125.0e12,
            peak_i8: 62.8e12,
            mem_bw: 900.0e9,
            mem_capacity: 16 << 30,
            regs_per_cu: 65_536,
            max_threads_per_cu: 2_048,
            lds_per_cu: 96 * 1024,
            launch_latency: SimTime::from_micros(4.0),
            alloc_latency: SimTime::from_micros(10.0),
        }
    }

    /// AMD Instinct MI60, the first-generation early-access GPU (Poplar/Tulip).
    pub fn mi60() -> Self {
        GpuModel {
            name: "AMD Instinct MI60".into(),
            arch: GpuArch::Vega20,
            cus: 64,
            peak_f64: 7.4e12,
            peak_f64_matrix: 7.4e12,
            peak_f32: 14.7e12,
            peak_f32_matrix: 14.7e12,
            peak_f16: 29.5e12,
            peak_f16_matrix: 29.5e12,
            peak_i8: 58.9e12,
            mem_bw: 1024.0e9,
            mem_capacity: 32 << 30,
            regs_per_cu: 65_536,
            max_threads_per_cu: 2_560,
            lds_per_cu: 64 * 1024,
            launch_latency: SimTime::from_micros(9.0),
            alloc_latency: SimTime::from_micros(14.0),
        }
    }

    /// AMD Instinct MI100, the second-generation early-access GPU (Spock/Birch).
    pub fn mi100() -> Self {
        GpuModel {
            name: "AMD Instinct MI100".into(),
            arch: GpuArch::Cdna1,
            cus: 120,
            peak_f64: 11.5e12,
            peak_f64_matrix: 11.5e12,
            peak_f32: 23.1e12,
            peak_f32_matrix: 46.1e12,
            peak_f16: 46.1e12,
            peak_f16_matrix: 184.6e12,
            peak_i8: 184.6e12,
            mem_bw: 1228.8e9,
            mem_capacity: 32 << 30,
            regs_per_cu: 65_536,
            max_threads_per_cu: 2_560,
            lds_per_cu: 64 * 1024,
            launch_latency: SimTime::from_micros(7.0),
            alloc_latency: SimTime::from_micros(12.0),
        }
    }

    /// One GCD (half) of an AMD Instinct MI250X, the Frontier/Crusher GPU as
    /// seen by software.
    pub fn mi250x_gcd() -> Self {
        GpuModel {
            name: "AMD Instinct MI250X (1 GCD)".into(),
            arch: GpuArch::Cdna2,
            cus: 110,
            peak_f64: 23.95e12,
            peak_f64_matrix: 47.9e12,
            peak_f32: 23.95e12,
            peak_f32_matrix: 47.9e12,
            peak_f16: 47.9e12,
            peak_f16_matrix: 191.5e12,
            peak_i8: 191.5e12,
            mem_bw: 1638.4e9,
            mem_capacity: 64 << 30,
            regs_per_cu: 131_072,
            max_threads_per_cu: 2_048,
            lds_per_cu: 64 * 1024,
            launch_latency: SimTime::from_micros(6.0),
            alloc_latency: SimTime::from_micros(12.0),
        }
    }

    /// Hardware wavefront width.
    #[inline]
    pub fn wavefront(&self) -> u32 {
        self.arch.wavefront()
    }

    /// Peak rate for a data type, vector or matrix pipes.
    pub fn peak_flops(&self, dtype: DType, matrix: bool) -> f64 {
        match (dtype.compute_class(), matrix) {
            (DType::F64, false) => self.peak_f64,
            (DType::F64, true) => self.peak_f64_matrix,
            (DType::F32, false) => self.peak_f32,
            (DType::F32, true) => self.peak_f32_matrix,
            (DType::F16 | DType::BF16, false) => self.peak_f16,
            (DType::F16 | DType::BF16, true) => self.peak_f16_matrix,
            (DType::I8, _) => self.peak_i8,
            // compute_class never returns complex types.
            (DType::C64 | DType::C32, _) => unreachable!(),
        }
    }

    /// Occupancy (resident-thread fraction) achieved by a kernel, limited by
    /// registers, LDS, and the hardware thread cap. Returns (occupancy,
    /// spilled): `spilled` is true when a single wavefront cannot fit in the
    /// register file at all and the compiler would spill to scratch.
    pub fn occupancy(&self, k: &KernelProfile) -> (f64, bool) {
        let tpb = k.launch.threads_per_block.max(1);
        // Register limit on resident threads.
        let by_regs = self.regs_per_cu / k.regs_per_thread.max(1);
        // LDS limit: blocks per CU, converted to threads (no LDS use means
        // no LDS limit).
        let by_lds = self
            .lds_per_cu
            .checked_div(k.lds_per_block)
            .map_or(self.max_threads_per_cu, |blocks| blocks * tpb);
        let resident = by_regs.min(by_lds).min(self.max_threads_per_cu);
        let wavefront = self.wavefront();
        // Spill when not even one wavefront's registers fit.
        let spilled = by_regs < wavefront;
        let resident = resident.max(wavefront); // hardware always runs ≥ 1 wave
        (
            (resident as f64 / self.max_threads_per_cu as f64).min(1.0),
            spilled,
        )
    }

    /// Simulated execution time of one kernel launch, excluding launch
    /// latency (see [`GpuModel::launch_latency`]; the stream layer adds it so
    /// that asynchronous launch pipelining — the E3SM §3.5 strategy — can
    /// overlap it).
    pub fn kernel_time(&self, k: &KernelProfile) -> SimTime {
        let (occ, spilled) = self.occupancy(k);
        let eff_c = EffCurve::COMPUTE.at(occ);
        let eff_m = EffCurve::MEMORY.at(occ);

        // Divergence: idle lanes do no useful work — and their memory
        // transaction slots are wasted too (a divergent wavefront still
        // fetches whole cache lines for its active lanes).
        let mut lanes = k.active_lane_frac;
        // Wavefront-width mismatch: tiling tuned for a narrower wavefront
        // leaves the extra lanes of a wider machine idle (ExaSky §3.4).
        if let Some(tuned) = k.tuned_wavefront {
            let hw = self.wavefront();
            if tuned < hw {
                lanes *= tuned as f64 / hw as f64;
            }
        }

        let peak = self.peak_flops(k.dtype, k.uses_matrix_units);
        let t_compute = k.flops / (peak * k.compute_eff * eff_c * lanes);

        // Register spills add scratch traffic. Compilers keep the *hot*
        // spill set small, so cap the per-thread spilled registers; each
        // spilled register costs a store+load round trip per thread.
        let spill_bytes = if spilled {
            let over = k
                .regs_per_thread
                .saturating_sub(self.regs_per_cu / self.wavefront())
                .min(48) as f64;
            over * 8.0 * 2.0 * k.launch.total_threads() as f64
        } else {
            0.0
        };
        // Divergence wastes memory throughput more gently than compute
        // (coalescing still salvages some of each line): split the penalty.
        let mem_lanes = lanes.sqrt();
        let t_mem = (k.total_bytes() / mem_lanes + spill_bytes) / (self.mem_bw * k.mem_eff * eff_m);

        // Wave quantisation / device fill: the device executes whole rounds
        // of resident wavefronts, so partial rounds (tail effect) and
        // underfilled launches stretch the roofline time.
        let waves_per_block = (k.launch.threads_per_block as u64).div_ceil(self.wavefront() as u64);
        let total_waves = (k.launch.grid_blocks * waves_per_block).max(1);
        let resident_waves_per_cu =
            ((occ * self.max_threads_per_cu as f64) / self.wavefront() as f64).max(1.0);
        let slots = (self.cus as f64 * resident_waves_per_cu).max(1.0);
        let rounds = (total_waves as f64 / slots).ceil().max(1.0);
        let quant = rounds * slots / total_waves as f64;

        SimTime::from_secs(t_compute.max(t_mem) * quant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::LaunchConfig;

    fn big_launch() -> LaunchConfig {
        LaunchConfig::new(1 << 16, 256)
    }

    #[test]
    fn catalog_matches_spec_sheets() {
        let v100 = GpuModel::v100();
        assert_eq!(v100.wavefront(), 32);
        assert!((v100.peak_f64 - 7.8e12).abs() < 1e9);

        let gcd = GpuModel::mi250x_gcd();
        assert_eq!(gcd.wavefront(), 64);
        // Frontier headline: one GCD holds ~3x the FP64 vector peak of a V100.
        assert!(gcd.peak_f64 / v100.peak_f64 > 3.0);
        // And ~1.8x the HBM bandwidth.
        assert!(gcd.mem_bw / v100.mem_bw > 1.7);
    }

    #[test]
    fn generations_improve_monotonically() {
        let peaks: Vec<f64> = [GpuModel::mi60(), GpuModel::mi100(), GpuModel::mi250x_gcd()]
            .iter()
            .map(|g| g.peak_f64)
            .collect();
        assert!(peaks.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn compute_bound_kernel_time_scales_with_peak() {
        let k = KernelProfile::new("gemm", big_launch())
            .flops(1e13, DType::F64)
            .bytes(1e9, 1e9);
        let t_v100 = GpuModel::v100().kernel_time(&k);
        let t_gcd = GpuModel::mi250x_gcd().kernel_time(&k);
        let ratio = t_v100 / t_gcd;
        // FP64 vector peak ratio is ~3.07; allow model slack.
        assert!(ratio > 2.5 && ratio < 3.7, "ratio {ratio}");
    }

    #[test]
    fn memory_bound_kernel_time_scales_with_bandwidth() {
        let k = KernelProfile::new("triad", big_launch())
            .flops(1e9, DType::F64)
            .bytes(1e12, 0.5e12);
        let t_v100 = GpuModel::v100().kernel_time(&k);
        let t_gcd = GpuModel::mi250x_gcd().kernel_time(&k);
        let ratio = t_v100 / t_gcd;
        // Bandwidth ratio 1638/900 ≈ 1.82.
        assert!(ratio > 1.6 && ratio < 2.1, "ratio {ratio}");
    }

    #[test]
    fn divergence_slows_compute_kernels_proportionally() {
        let base = KernelProfile::new("torsion", big_launch()).flops(1e12, DType::F64);
        let diverged = base.clone().divergence(0.1);
        let g = GpuModel::mi250x_gcd();
        let ratio = g.kernel_time(&diverged) / g.kernel_time(&base);
        assert!((ratio - 10.0).abs() < 0.5, "ratio {ratio}");
    }

    #[test]
    fn warp32_tuning_penalises_wavefront64_hardware_only() {
        let k = KernelProfile::new("gravity", big_launch())
            .flops(1e12, DType::F32)
            .tuned_for_wavefront(32);
        let v100 = GpuModel::v100();
        let gcd = GpuModel::mi250x_gcd();
        let untuned = KernelProfile::new("gravity", big_launch()).flops(1e12, DType::F32);
        // No penalty on matching hardware.
        assert_eq!(v100.kernel_time(&k), v100.kernel_time(&untuned));
        // 2x penalty on 64-wide hardware.
        let ratio = gcd.kernel_time(&k) / gcd.kernel_time(&untuned);
        assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn register_pressure_reduces_occupancy() {
        let light = KernelProfile::new("light", big_launch())
            .flops(1e12, DType::F64)
            .regs(32);
        let heavy = light.clone().regs(256);
        let g = GpuModel::v100();
        let (occ_l, sp_l) = g.occupancy(&light);
        let (occ_h, sp_h) = g.occupancy(&heavy);
        assert!(occ_l > occ_h);
        assert!(!sp_l && !sp_h);
        // Pele's 18k-register chemistry kernels (§3.8) definitely spill.
        let monster = light.clone().regs(18_000);
        let (_, spilled) = g.occupancy(&monster);
        assert!(spilled);
    }

    #[test]
    fn spilled_kernel_is_slower() {
        let base = KernelProfile::new("jac", big_launch())
            .flops(1e11, DType::F64)
            .regs(128);
        let spilling = base.clone().regs(8192);
        let g = GpuModel::mi250x_gcd();
        assert!(g.kernel_time(&spilling) > g.kernel_time(&base));
    }

    #[test]
    fn underfilled_launch_is_inefficient() {
        let work = 1e10;
        let tiny = KernelProfile::new("k", LaunchConfig::new(4, 64)).flops(work, DType::F64);
        let full = KernelProfile::new("k", big_launch()).flops(work, DType::F64);
        let g = GpuModel::v100();
        assert!(g.kernel_time(&tiny) > g.kernel_time(&full) * 4.0);
    }

    #[test]
    fn matrix_units_speed_up_gemm_dtypes() {
        let g = GpuModel::mi250x_gcd();
        let vector = KernelProfile::new("gemm", big_launch()).flops(1e13, DType::F16);
        let matrix = vector.clone().matrix_units(true);
        let ratio = g.kernel_time(&vector) / g.kernel_time(&matrix);
        assert!(ratio > 3.5, "MFMA should be ~4x vector f16, got {ratio}");
    }
}
