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

    /// The bytes a failed allocation reports free.
    fn available(err: HalError) -> u64 {
        match err {
            HalError::OutOfMemory { available, .. } => available,
            other => panic!("expected OutOfMemory, got {other:?}"),
        }
    }

    #[test]
    fn alloc_and_drop_balance_accounting() {
        let mut model = GpuModel::v100();
        model.mem_capacity = 1 << 20;
        let d = Device::new(model, 0);
        {
            let b = DeviceBuffer::<f64>::zeroed(&d, 1024).unwrap();
            assert_eq!(b.len(), 1024);
            assert_eq!(b.bytes(), 8192);
            let err = DeviceBuffer::<u8>::zeroed(&d, 1 << 20).unwrap_err();
            assert_eq!(available(err), (1 << 20) - 8192);
        }
        // Dropping the buffer released its bytes: the whole HBM fits again.
        DeviceBuffer::<u8>::zeroed(&d, 1 << 20).unwrap();
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
        assert_eq!(available(err), 16 << 30);
        // The failed reservation left nothing behind.
        let err = DeviceBuffer::<f64>::zeroed(&d, 3 << 30).unwrap_err();
        assert_eq!(available(err), 16 << 30);
    }
}
