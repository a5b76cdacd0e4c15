//! Kernel descriptors and launch configurations.
//!
//! A [`KernelProfile`] is the simulator's analogue of a compiled GPU kernel:
//! it declares the kernel's resource footprint (FLOPs by data type, bytes
//! moved, registers per thread, LDS/shared memory per block) and its
//! behavioural character (control-flow divergence, wavefront-width tuning).
//! The cost model in [`crate::gpu::GpuModel::kernel_time`] turns a profile
//! plus a launch configuration into simulated execution time.
//!
//! The fields map one-to-one onto the effects the paper discusses:
//! `regs_per_thread` drives the occupancy/fission trade-off of E3SM (§3.5)
//! and the register-spill story of LAMMPS (§3.10.3); `active_lane_frac`
//! models the ReaxFF torsion divergence of Algorithm 1 (§3.10.2);
//! `tuned_wavefront` models the ExaSky gravity kernel that was tuned for
//! 32-wide warps and regressed on 64-wide wavefronts (§3.4).

use serde::{Deserialize, Serialize};

/// Extra registers a fused kernel needs on top of the max of its parts:
/// live ranges of the stitched stages overlap at the seam.
pub const FUSION_REG_OVERHEAD: u32 = 8;

/// Numeric data types that the machine models publish peak rates for.
///
/// CoMet (§3.6) is the paper's showcase for reduced precision: it computes on
/// FP32, FP16, and Int8 to "solve much larger problems than would be
/// otherwise possible". Complex types map onto the corresponding real peak.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DType {
    /// IEEE double precision.
    F64,
    /// IEEE single precision.
    F32,
    /// IEEE half precision.
    F16,
    /// bfloat16.
    BF16,
    /// 8-bit integer (TOPS on tensor/matrix units).
    I8,
    /// Double-precision complex (numerics run on the F64 pipes).
    C64,
    /// Single-precision complex (numerics run on the F32 pipes).
    C32,
}

impl DType {
    /// The real scalar type whose peak rate governs this type's arithmetic.
    pub fn compute_class(self) -> DType {
        match self {
            DType::C64 => DType::F64,
            DType::C32 => DType::F32,
            other => other,
        }
    }
}

/// Grid/block launch geometry (flattened to 1-D; the cost model only cares
/// about totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaunchConfig {
    /// Number of thread blocks (work groups).
    pub grid_blocks: u64,
    /// Threads per block (work-group size).
    pub threads_per_block: u32,
}

impl LaunchConfig {
    /// Convenience constructor.
    pub fn new(grid_blocks: u64, threads_per_block: u32) -> Self {
        assert!(threads_per_block > 0, "block size must be positive");
        assert!(grid_blocks > 0, "grid must contain at least one block");
        LaunchConfig {
            grid_blocks,
            threads_per_block,
        }
    }

    /// A launch sized so `total_threads` are covered by blocks of `tpb`.
    pub fn cover(total_threads: u64, tpb: u32) -> Self {
        let blocks = total_threads.div_ceil(tpb as u64).max(1);
        LaunchConfig::new(blocks, tpb)
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> u64 {
        self.grid_blocks * self.threads_per_block as u64
    }
}

impl Default for LaunchConfig {
    fn default() -> Self {
        LaunchConfig {
            grid_blocks: 1024,
            threads_per_block: 256,
        }
    }
}

/// Resource and behaviour profile of a GPU kernel.
///
/// Construct with [`KernelProfile::new`] and refine with the builder methods.
/// Defaults describe a well-behaved streaming kernel: 32 registers/thread,
/// no LDS, no divergence, 85 % of compute peak and 80 % of STREAM-style
/// bandwidth achievable.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelProfile {
    /// Human-readable kernel name (shows up in traces and reports).
    pub name: String,
    /// Launch geometry.
    pub launch: LaunchConfig,
    /// Floating-point (or integer) operations performed by the whole launch.
    pub flops: f64,
    /// Data type governing the peak rate.
    pub dtype: DType,
    /// Whether the kernel runs on matrix/tensor units (MFMA / tensor cores).
    pub uses_matrix_units: bool,
    /// Bytes read from device memory (post-cache, i.e. compulsory traffic).
    pub bytes_read: f64,
    /// Bytes written to device memory.
    pub bytes_written: f64,
    /// Architectural registers consumed per thread. Values above the file
    /// capacity trigger spill traffic (see [`crate::gpu::GpuModel`]).
    pub regs_per_thread: u32,
    /// LDS / shared memory per block in bytes.
    pub lds_per_block: u32,
    /// Mean fraction of lanes active inside a wavefront (divergence), in
    /// (0, 1]. ReaxFF torsion kernels pre-optimization sit near 0.1.
    pub active_lane_frac: f64,
    /// If the kernel's tiling was hand-tuned for a specific wavefront width,
    /// running on hardware with a *wider* wavefront idles the excess lanes.
    pub tuned_wavefront: Option<u32>,
    /// Fraction of the device's compute peak this kernel's inner loop can
    /// reach at full occupancy.
    pub compute_eff: f64,
    /// Fraction of the device's memory bandwidth reachable by this kernel's
    /// access pattern.
    pub mem_eff: f64,
}

impl KernelProfile {
    /// A new profile with library defaults; customise with builder methods.
    pub fn new(name: impl Into<String>, launch: LaunchConfig) -> Self {
        KernelProfile {
            name: name.into(),
            launch,
            flops: 0.0,
            dtype: DType::F64,
            uses_matrix_units: false,
            bytes_read: 0.0,
            bytes_written: 0.0,
            regs_per_thread: 32,
            lds_per_block: 0,
            active_lane_frac: 1.0,
            tuned_wavefront: None,
            compute_eff: 0.85,
            mem_eff: 0.80,
        }
    }

    /// Set total floating-point work and its data type.
    pub fn flops(mut self, flops: f64, dtype: DType) -> Self {
        debug_assert!(flops >= 0.0 && flops.is_finite());
        self.flops = flops;
        self.dtype = dtype;
        self
    }

    /// Mark the kernel as using matrix/tensor units (GEMM cores).
    pub fn matrix_units(mut self, yes: bool) -> Self {
        self.uses_matrix_units = yes;
        self
    }

    /// Set device-memory traffic.
    pub fn bytes(mut self, read: f64, written: f64) -> Self {
        debug_assert!(read >= 0.0 && written >= 0.0);
        self.bytes_read = read;
        self.bytes_written = written;
        self
    }

    /// Set register pressure per thread.
    pub fn regs(mut self, regs_per_thread: u32) -> Self {
        self.regs_per_thread = regs_per_thread.max(1);
        self
    }

    /// Set LDS/shared-memory usage per block.
    pub fn lds(mut self, bytes_per_block: u32) -> Self {
        self.lds_per_block = bytes_per_block;
        self
    }

    /// Set control-flow divergence as the mean active-lane fraction.
    pub fn divergence(mut self, active_lane_frac: f64) -> Self {
        assert!(
            active_lane_frac > 0.0 && active_lane_frac <= 1.0,
            "active lane fraction must be in (0, 1]"
        );
        self.active_lane_frac = active_lane_frac;
        self
    }

    /// Declare that the kernel's tiling assumes a particular wavefront width.
    pub fn tuned_for_wavefront(mut self, width: u32) -> Self {
        self.tuned_wavefront = Some(width);
        self
    }

    /// Override the achievable fraction of compute peak.
    pub fn compute_eff(mut self, eff: f64) -> Self {
        assert!(eff > 0.0 && eff <= 1.0);
        self.compute_eff = eff;
        self
    }

    /// Override the achievable fraction of memory bandwidth.
    pub fn mem_eff(mut self, eff: f64) -> Self {
        assert!(eff > 0.0 && eff <= 1.0);
        self.mem_eff = eff;
        self
    }

    /// Merge this kernel with the one launched immediately after it into a
    /// single fused kernel (E3SM §3.5 kernel fusion, the graph engine's
    /// fusion pass).
    ///
    /// The fused kernel performs both kernels' arithmetic but makes **one**
    /// memory sweep: intermediate values stay in registers/cache instead of
    /// round-tripping through HBM, so traffic is the *max* of the parts, not
    /// the sum. The price is register pressure — live ranges of neighbouring
    /// stages overlap, costing [`FUSION_REG_OVERHEAD`] extra registers — and
    /// the worst divergence/efficiency of either part.
    pub fn fuse(&self, other: &KernelProfile) -> KernelProfile {
        KernelProfile {
            name: format!("{}+{}", self.name, other.name),
            launch: LaunchConfig::new(
                self.launch.grid_blocks.max(other.launch.grid_blocks),
                self.launch
                    .threads_per_block
                    .max(other.launch.threads_per_block),
            ),
            flops: self.flops + other.flops,
            dtype: self.dtype,
            uses_matrix_units: self.uses_matrix_units || other.uses_matrix_units,
            bytes_read: self.bytes_read.max(other.bytes_read),
            bytes_written: self.bytes_written.max(other.bytes_written),
            regs_per_thread: self.regs_per_thread.max(other.regs_per_thread) + FUSION_REG_OVERHEAD,
            lds_per_block: self.lds_per_block.max(other.lds_per_block),
            active_lane_frac: self.active_lane_frac.min(other.active_lane_frac),
            tuned_wavefront: self.tuned_wavefront.or(other.tuned_wavefront),
            compute_eff: self.compute_eff.min(other.compute_eff),
            mem_eff: self.mem_eff.min(other.mem_eff),
        }
    }

    /// Split the kernel into `parts` sub-kernels of `regs_per_part` registers
    /// each (E3SM §3.5 kernel fission: "when register spillage was observed,
    /// kernels could be fissioned ... larger kernel launch overheads, but
    /// significantly lower kernel runtimes").
    ///
    /// This is *loop* fission: each part sweeps the **same iteration space**
    /// (full grid) but computes a fraction of the body, so work and traffic
    /// divide while the launch geometry stays put. Register pressure drops
    /// to the caller-chosen per-part footprint (the point of the exercise —
    /// each part holds fewer live values).
    pub fn fission(&self, parts: u32, regs_per_part: u32) -> Vec<KernelProfile> {
        assert!(parts >= 1, "fission needs at least one part");
        (0..parts)
            .map(|p| {
                let mut k = self.clone();
                k.name = format!("{}[{}/{}]", self.name, p, parts);
                k.flops = self.flops / parts as f64;
                k.bytes_read = self.bytes_read / parts as f64;
                k.bytes_written = self.bytes_written / parts as f64;
                k.regs_per_thread = regs_per_part.max(1);
                k
            })
            .collect()
    }

    /// Total device-memory traffic.
    pub fn total_bytes(&self) -> f64 {
        self.bytes_read + self.bytes_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complex_maps_to_real_compute_class() {
        assert_eq!(DType::C64.compute_class(), DType::F64);
        assert_eq!(DType::C32.compute_class(), DType::F32);
        assert_eq!(DType::F16.compute_class(), DType::F16);
    }

    #[test]
    fn launch_cover_rounds_up() {
        let lc = LaunchConfig::cover(1000, 256);
        assert_eq!(lc.grid_blocks, 4);
        assert_eq!(lc.total_threads(), 1024);
        let exact = LaunchConfig::cover(512, 256);
        assert_eq!(exact.grid_blocks, 2);
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_rejected() {
        LaunchConfig::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "active lane fraction")]
    fn divergence_must_be_positive() {
        let _ = KernelProfile::new("bad", LaunchConfig::default()).divergence(0.0);
    }

    #[test]
    fn fuse_sums_flops_but_sweeps_memory_once() {
        let a = KernelProfile::new("a", LaunchConfig::new(64, 128))
            .flops(1e6, DType::F64)
            .bytes(8e6, 4e6)
            .regs(40)
            .divergence(0.9);
        let b = KernelProfile::new("b", LaunchConfig::new(32, 256))
            .flops(2e6, DType::F64)
            .bytes(6e6, 8e6)
            .regs(56)
            .mem_eff(0.5);
        let f = a.fuse(&b);
        assert_eq!(f.name, "a+b");
        assert_eq!(f.flops, 3e6);
        // One sweep: traffic is the max of the parts, not the sum.
        assert_eq!(f.bytes_read, 8e6);
        assert_eq!(f.bytes_written, 8e6);
        assert_eq!(f.regs_per_thread, 56 + FUSION_REG_OVERHEAD);
        assert_eq!(f.launch.grid_blocks, 64);
        assert_eq!(f.launch.threads_per_block, 256);
        assert_eq!(f.active_lane_frac, 0.9);
        assert_eq!(f.mem_eff, 0.5);
    }

    #[test]
    fn fission_conserves_work_and_drops_registers() {
        let k = KernelProfile::new("monster", LaunchConfig::new(1024, 256))
            .flops(8e9, DType::F64)
            .bytes(4e9, 2e9)
            .regs(8192);
        let parts = k.fission(4, 200);
        assert_eq!(parts.len(), 4);
        let total_flops: f64 = parts.iter().map(|p| p.flops).sum();
        assert!((total_flops - 8e9).abs() < 1.0);
        for p in &parts {
            assert_eq!(p.regs_per_thread, 200);
            // Loop fission: the iteration space is untouched.
            assert_eq!(p.launch.grid_blocks, 1024);
        }
        assert_eq!(parts[0].name, "monster[0/4]");
    }
}
