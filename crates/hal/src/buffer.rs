//! Typed device buffers.
//!
//! A [`DeviceBuffer`] owns host memory that *stands in* for HBM: kernels
//! mutate it directly (real math), while the device's memory accounting and
//! all transfer costs are tracked as if it lived on the GPU.

use crate::device::Device;
use crate::error::Result;
use std::sync::Arc;

/// A typed allocation on a simulated device.
#[derive(Debug)]
pub struct DeviceBuffer<T> {
    data: Vec<T>,
    device: Arc<Device>,
    bytes: u64,
}

impl<T: Copy + Default> DeviceBuffer<T> {
    /// Allocate `len` zero-initialised elements on `device`.
    ///
    /// This is the *untimed* allocation primitive; go through
    /// [`crate::stream::Stream::alloc`] (or the pool allocator) to charge
    /// allocation latency as real programs would.
    pub fn zeroed(device: &Arc<Device>, len: usize) -> Result<Self> {
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        device.reserve(bytes)?;
        Ok(DeviceBuffer {
            data: vec![T::default(); len],
            device: Arc::clone(device),
            bytes,
        })
    }
}

impl<T> DeviceBuffer<T> {
    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Allocation size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The owning device.
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// Immutable view of the (simulated) device memory.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the (simulated) device memory — what a kernel body
    /// writes through.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        self.device.release(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::HalError;
    use exa_machine::GpuModel;

    #[test]
    fn alloc_and_drop_balance_accounting() {
        let d = Device::new(GpuModel::v100(), 0);
        {
            let b = DeviceBuffer::<f64>::zeroed(&d, 1024).unwrap();
            assert_eq!(b.len(), 1024);
            assert_eq!(b.bytes(), 8192);
            assert_eq!(d.mem_used(), 8192);
        }
        assert_eq!(d.mem_used(), 0);
    }

    #[test]
    fn kernel_style_mutation() {
        let d = Device::new(GpuModel::mi250x_gcd(), 0);
        let mut b = DeviceBuffer::<u64>::zeroed(&d, 100).unwrap();
        for (i, x) in b.as_mut_slice().iter_mut().enumerate() {
            *x = i as u64 * 2;
        }
        assert_eq!(b.as_slice()[50], 100);
    }

    #[test]
    fn oversized_alloc_fails_cleanly() {
        let d = Device::new(GpuModel::v100(), 0); // 16 GiB
        let err = DeviceBuffer::<f64>::zeroed(&d, 3 << 30).unwrap_err(); // 24 GiB
        assert!(matches!(err, HalError::OutOfMemory { .. }));
        assert_eq!(d.mem_used(), 0);
    }
}
