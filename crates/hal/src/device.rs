//! Simulated GPU devices.

use crate::error::{HalError, Result};
use exa_machine::{GpuModel, LinkModel, NodeModel};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A simulated GPU device: a hardware model plus live memory accounting.
///
/// Devices are shared (`Arc<Device>`) between the streams and buffers that
/// use them; memory accounting is atomic so buffers may be dropped from any
/// thread.
#[derive(Debug)]
pub struct Device {
    /// Device ordinal within its node.
    pub id: u32,
    /// Hardware model.
    pub model: GpuModel,
    /// Host↔device link.
    pub host_link: LinkModel,
    mem_used: AtomicU64,
}

impl Device {
    /// Create a device from a bare GPU model with architecture-appropriate
    /// default links.
    pub fn new(model: GpuModel, id: u32) -> Arc<Device> {
        use exa_machine::GpuArch::*;
        let host_link = match model.arch {
            Volta => LinkModel::nvlink2(),
            Vega20 => LinkModel::pcie3(),
            Cdna1 => LinkModel::pcie4(),
            Cdna2 => LinkModel::infinity_fabric_host(),
        };
        Arc::new(Device {
            id,
            model,
            host_link,
            mem_used: AtomicU64::new(0),
        })
    }

    /// Create device `id` of a node model (links come from the node).
    ///
    /// # Panics
    /// Panics if the node has no GPUs or `id` is out of range.
    pub fn from_node(node: &NodeModel, id: u32) -> Arc<Device> {
        assert!(node.has_gpus(), "node {} has no GPUs", node.name);
        assert!(id < node.gpus_per_node, "device id {id} out of range");
        Arc::new(Device {
            id,
            model: node.gpu().clone(),
            host_link: node.host_link,
            mem_used: AtomicU64::new(0),
        })
    }

    /// Reserve `bytes` of device memory, failing when HBM is exhausted.
    pub(crate) fn reserve(&self, bytes: u64) -> Result<()> {
        // Optimistic add; back out on overflow. CAS loop keeps accounting
        // exact under concurrent allocation.
        let mut cur = self.mem_used.load(Ordering::Relaxed);
        loop {
            let new = cur + bytes;
            if new > self.model.mem_capacity {
                return Err(HalError::OutOfMemory {
                    requested: bytes,
                    available: self.model.mem_capacity.saturating_sub(cur),
                });
            }
            match self.mem_used.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Release a prior reservation.
    pub(crate) fn release(&self, bytes: u64) {
        let prev = self.mem_used.fetch_sub(bytes, Ordering::Relaxed);
        debug_assert!(prev >= bytes, "device memory accounting underflow");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_machine::GpuModel;

    fn mem_used(d: &Device) -> u64 {
        d.mem_used.load(Ordering::Relaxed)
    }

    #[test]
    fn accounting_tracks_reservations() {
        let d = Device::new(GpuModel::v100(), 0);
        assert_eq!(mem_used(&d), 0);
        d.reserve(1 << 30).unwrap();
        assert_eq!(mem_used(&d), 1 << 30);
        d.release(1 << 30);
        assert_eq!(mem_used(&d), 0);
    }

    #[test]
    fn oom_when_capacity_exceeded() {
        let d = Device::new(GpuModel::v100(), 0); // 16 GiB
        d.reserve(15 << 30).unwrap();
        let err = d.reserve(2 << 30).unwrap_err();
        match err {
            HalError::OutOfMemory {
                requested,
                available,
            } => {
                assert_eq!(requested, 2 << 30);
                assert_eq!(available, 1 << 30);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn from_node_uses_node_links() {
        let node = NodeModel::frontier();
        let d = Device::from_node(&node, 3);
        assert_eq!(d.id, 3);
        assert_eq!(d.host_link.bandwidth, node.host_link.bandwidth);
        assert_eq!(d.model.name, node.gpu().name);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_node_range_checked() {
        let _ = Device::from_node(&NodeModel::summit(), 6);
    }

    #[test]
    fn concurrent_reservations_never_oversubscribe() {
        let d = Device::new(GpuModel::v100(), 0);
        let cap = d.model.mem_capacity;
        std::thread::scope(|s| {
            for _ in 0..8 {
                let d = &d;
                s.spawn(move || {
                    for _ in 0..1000 {
                        if d.reserve(1 << 20).is_ok() {
                            d.release(1 << 20);
                        }
                    }
                });
            }
        });
        assert_eq!(mem_used(&d), 0);
        assert!(mem_used(&d) <= cap);
    }
}

#[cfg(test)]
mod node_pool_tests {
    use super::*;
    use crate::api::ApiSurface;
    use crate::stream::Stream;
    use exa_machine::{DType, KernelProfile, LaunchConfig};

    #[test]
    fn work_split_across_gcds_scales_node_throughput() {
        // The same total work on 1 GCD vs split across 8: the node finishes
        // ~8x sooner (kernels are independent, one stream per device).
        let node = NodeModel::frontier();
        let total_flops = 8.0 * 1.0e12;

        let single = {
            let d = Device::from_node(&node, 0);
            let mut s = Stream::new(d, ApiSurface::Hip).unwrap();
            let k = KernelProfile::new("all", LaunchConfig::new(1 << 16, 256))
                .flops(total_flops, DType::F64);
            s.launch_modeled(&k);
            s.synchronize()
        };

        let split = {
            let mut done = exa_machine::SimTime::ZERO;
            for d in (0..node.gpus_per_node).map(|id| Device::from_node(&node, id)) {
                let mut s = Stream::new(d, ApiSurface::Hip).unwrap();
                let k = KernelProfile::new("shard", LaunchConfig::new(1 << 16, 256))
                    .flops(total_flops / 8.0, DType::F64);
                s.launch_modeled(&k);
                done = done.max(s.synchronize());
            }
            done
        };

        let speedup = single / split;
        assert!(
            speedup > 7.0 && speedup < 8.5,
            "node-level split speedup {speedup}"
        );
    }
}
