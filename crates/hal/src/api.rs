//! API surfaces and the CUDA↔HIP feature-parity table.
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
//!    The [`Feature`] parity table makes that queryable, and the runtime
//!    returns [`crate::error::HalError::UnsupportedFeature`] when code assumes
//!    otherwise.

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

/// Runtime/compiler features with asymmetric support between the surfaces.
///
/// The list follows the pain points the paper names or that the COE had to
/// message about: newest-CUDA-version features, textures, graphs, and managed
/// memory (the Pele §3.8 UVM story).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Feature {
    /// Basic kernel launches, streams, events, memcpy.
    CoreRuntime,
    /// Asynchronous memory copies on streams.
    AsyncCopy,
    /// Peer-to-peer device transfers.
    PeerAccess,
    /// Unified/managed memory (`cudaMallocManaged`/`hipMallocManaged`).
    /// Supported on both, but removing it was ultimately necessary for
    /// performance on Frontier (Pele, §3.8; see [`crate::uvm`]).
    ManagedMemory,
    /// CUDA Graph capture/instantiate API.
    GraphApi,
    /// Device-side kernel launches (dynamic parallelism).
    DynamicParallelism,
    /// Legacy texture *references* (deprecated CUDA API).
    LegacyTextureRefs,
    /// Cooperative groups with multi-device sync.
    MultiDeviceCooperativeGroups,
    /// Warp-level primitives with explicit masks (`__shfl_sync`).
    WarpSyncPrimitives,
    /// Hardware FP64 atomics on global memory.
    Fp64Atomics,
}

impl Feature {
    /// Is the feature available on a surface (as of the campaign's ROCm
    /// generation)?
    pub fn supported_on(self, api: ApiSurface) -> bool {
        use Feature::*;
        match api {
            // The table is written from the porting direction that mattered:
            // every listed feature exists in CUDA.
            ApiSurface::Cuda => true,
            ApiSurface::Hip => !matches!(
                self,
                GraphApi | DynamicParallelism | LegacyTextureRefs | MultiDeviceCooperativeGroups
            ),
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

    #[test]
    fn core_features_exist_everywhere() {
        for api in [ApiSurface::Cuda, ApiSurface::Hip] {
            assert!(Feature::CoreRuntime.supported_on(api));
            assert!(Feature::AsyncCopy.supported_on(api));
        }
    }

    #[test]
    fn hip_lacks_some_cuda_features() {
        // §2.1: expectations must be set that not every CUDA feature exists.
        assert!(Feature::GraphApi.supported_on(ApiSurface::Cuda));
        assert!(!Feature::GraphApi.supported_on(ApiSurface::Hip));
    }

    #[test]
    fn managed_memory_exists_on_both_surfaces() {
        assert!(Feature::ManagedMemory.supported_on(ApiSurface::Hip));
        assert!(Feature::ManagedMemory.supported_on(ApiSurface::Cuda));
    }
}
