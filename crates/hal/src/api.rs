//! API surfaces: the CUDA and HIP runtimes and what each can drive.
//!
//! §2.1 of the paper makes two points this module encodes:
//!
//! 1. HIP is a *thin* portability layer — when SHOC was hipified and rerun on
//!    Summit, "average normalized HIP performance was 99.8 % of CUDA
//!    performance". We model that as a handful of nanoseconds of dispatch
//!    overhead per API call on the HIP surface (header-indirection cost),
//!    zero on CUDA.
//! 2. Not every CUDA feature is (or will be) provided by HIP, and
//!    "careful and repeated messaging to developers is needed" about which.
//!    [`crate::hipify`] flags the CUDA-only constructs it cannot convert, and
//!    the runtime returns [`crate::error::HalError::UnsupportedArch`] when a
//!    surface cannot drive the device at all.

use exa_machine::{GpuArch, SimTime};
use serde::{Deserialize, Serialize};

/// The two device API surfaces of the porting campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ApiSurface {
    /// NVIDIA's CUDA runtime API.
    Cuda,
    /// AMD's HIP runtime API (targets AMD natively; a header-only veneer
    /// over CUDA on NVIDIA hardware).
    Hip,
}

impl ApiSurface {
    /// Per-call dispatch overhead of the surface. HIP-on-NVIDIA compiles to
    /// CUDA executables (header-only), and HIP-on-AMD is the native runtime,
    /// so the overhead is tiny — but nonzero, which is what Figure 1's
    /// 99.8 %–99.9 % ratios measure.
    pub fn call_overhead(self) -> SimTime {
        match self {
            ApiSurface::Cuda => SimTime::ZERO,
            ApiSurface::Hip => SimTime::from_nanos(25.0),
        }
    }

    /// Whether this surface can drive the given GPU architecture at all.
    /// CUDA only targets NVIDIA; HIP targets both vendors.
    pub fn supports_arch(self, arch: GpuArch) -> bool {
        match self {
            ApiSurface::Cuda => matches!(arch, GpuArch::Volta),
            ApiSurface::Hip => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hip_overhead_is_tiny_but_nonzero() {
        assert!(ApiSurface::Cuda.call_overhead().is_zero());
        let hip = ApiSurface::Hip.call_overhead();
        assert!(!hip.is_zero());
        assert!(hip.secs() < 100e-9);
    }

    #[test]
    fn cuda_only_drives_nvidia() {
        assert!(ApiSurface::Cuda.supports_arch(GpuArch::Volta));
        assert!(!ApiSurface::Cuda.supports_arch(GpuArch::Cdna2));
        assert!(ApiSurface::Hip.supports_arch(GpuArch::Volta));
        assert!(ApiSurface::Hip.supports_arch(GpuArch::Cdna2));
    }
}
