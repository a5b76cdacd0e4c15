//! OpenMP target-offload analogue.
//!
//! §2.2 distils the COE's OpenMP guidance into a handful of rules; the
//! first is the one that costs the most when ignored: use a **large,
//! structured `TARGET DATA` region** around key performance regions, with
//! persistent device arrays mapped once, instead of mapping data around
//! every loop.
//!
//! [`TargetData`] is that region over a [`Stream`]: `map(tofrom:)` pays a
//! host→device transfer at entry and a device→host transfer at the region's
//! end, and `map(alloc:)` (`OMP_TARGET_ALLOC`) keeps a device-only array
//! that pays allocation latency and no copies. The transfers are charged at
//! the stream's link cost, so the guidance is *measurable*: `reproduce
//! user_guide` times the persistent region against per-loop mapping.

use crate::stream::Stream;
use exa_machine::SimTime;
use std::collections::BTreeMap;

/// OpenMP map directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapDir {
    /// `map(tofrom:)` — host→device at entry, device→host at region end.
    ToFrom,
    /// `map(alloc:)` / `omp_target_alloc` — device-resident only, no copies.
    Alloc,
}

/// A structured target-data region tracking which arrays are
/// device-resident.
#[derive(Debug, Default)]
pub struct TargetData {
    /// Mapped arrays by name: bytes and direction. Name order fixes the
    /// order of the copies back at [`TargetData::end`].
    entries: BTreeMap<String, (u64, MapDir)>,
}

impl TargetData {
    /// Open an (initially empty) region.
    pub fn begin() -> Self {
        TargetData::default()
    }

    /// Map an array into the region. `ToFrom` pays a host→device transfer
    /// now; `Alloc` is the `OMP_TARGET_ALLOC` persistent-array path and pays
    /// only allocation latency.
    pub fn map(&mut self, stream: &mut Stream, name: &str, bytes: u64, dir: MapDir) -> SimTime {
        let t = match dir {
            MapDir::ToFrom => stream.upload_modeled(bytes),
            MapDir::Alloc => {
                stream.charge_host(stream.device().model.alloc_latency);
                stream.device_time()
            }
        };
        self.entries.insert(name.to_string(), (bytes, dir));
        t
    }

    /// Close the structured region: all `tofrom` arrays copy back.
    pub fn end(self, stream: &mut Stream) -> SimTime {
        for (bytes, dir) in self.entries.into_values() {
            if dir == MapDir::ToFrom {
                stream.download_modeled(bytes);
            }
        }
        stream.synchronize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ApiSurface;
    use crate::device::Device;
    use exa_machine::{DType, GpuModel, KernelProfile, LaunchConfig};
    use std::sync::Arc;

    fn hip_stream() -> Stream {
        let d = Device::new(GpuModel::mi250x_gcd(), 0);
        Stream::new(Arc::clone(&d), ApiSurface::Hip).unwrap()
    }

    fn loop_kernel() -> KernelProfile {
        KernelProfile::new("saxpy", LaunchConfig::new(1 << 12, 256))
            .flops(2e8, DType::F64)
            .bytes(1.6e9, 0.8e9)
    }

    #[test]
    fn persistent_region_beats_per_loop_mapping() {
        let bytes = 1 << 30; // 1 GiB working set
        let iters = 20;

        // Anti-pattern: map to/from around every loop.
        let mut naive = hip_stream();
        for _ in 0..iters {
            let mut region = TargetData::begin();
            region.map(&mut naive, "u", bytes, MapDir::ToFrom);
            naive.launch_modeled(&loop_kernel());
            region.end(&mut naive);
        }
        let t_naive = naive.synchronize();

        // §2.2 pattern: one structured region, persistent array.
        let mut good = hip_stream();
        let mut region = TargetData::begin();
        region.map(&mut good, "u", bytes, MapDir::ToFrom);
        for _ in 0..iters {
            good.launch_modeled(&loop_kernel());
        }
        region.end(&mut good);
        let t_good = good.synchronize();

        // 1 GiB over 36 GB/s IF is ~28 ms each way: 20x vs 1x round trips.
        assert!(
            t_naive / t_good > 5.0,
            "naive {t_naive} vs structured {t_good}"
        );
    }

    #[test]
    fn alloc_maps_are_copy_free() {
        let mut s = hip_stream();
        let mut region = TargetData::begin();
        region.map(&mut s, "scratch", 1 << 30, MapDir::Alloc);
        // No transfer time: only alloc latency on the host clock.
        assert!(s.device_time().is_zero());
        assert!(s.synchronize().micros() < 50.0);
        region.end(&mut s);
        assert!(s.device_time().secs() < 1e-3);
    }
}
