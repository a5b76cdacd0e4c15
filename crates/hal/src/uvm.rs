//! Unified virtual memory (managed memory) simulation.
//!
//! §3.8: "the initial use of unified virtual memory (UVM) allowed each
//! project to adapt their existing code seamlessly. This made it possible
//! to convert the code section by section until full execution on device
//! was achieved. However, removing the use of UVM was ultimately necessary
//! for obtaining better performance on the Frontier AMD platform."
//!
//! A [`ManagedBuffer`] holds real data whose *pages* migrate on demand
//! between host and device: touching a non-resident page charges a
//! page-fault latency plus the page transfer. The ergonomics are exactly
//! what made UVM attractive (no explicit copies anywhere), and the fault
//! accounting is exactly why it had to go.

use crate::device::Device;
use crate::error::Result;
use crate::stream::Stream;
use exa_machine::SimTime;
use std::sync::Arc;

/// Where a page currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Residency {
    Host,
    Device,
}

/// Page granularity of the managed allocator (64 KiB, HMM-style).
pub const PAGE_BYTES: usize = 64 * 1024;

/// Driver cost of servicing one page fault (interrupt + TLB shootdown),
/// on top of the DMA itself.
pub fn fault_latency() -> SimTime {
    SimTime::from_micros(18.0)
}

/// A managed (page-migrating) allocation of `T`s.
#[derive(Debug)]
pub struct ManagedBuffer<T> {
    data: Vec<T>,
    device: Arc<Device>,
    pages: Vec<Residency>,
    bytes: u64,
}

impl<T: Copy + Default> ManagedBuffer<T> {
    /// `hipMallocManaged`: allocate `len` elements, initially host-resident.
    pub fn new(device: &Arc<Device>, len: usize) -> Result<Self> {
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        device.reserve(bytes)?;
        let n_pages = (bytes as usize).div_ceil(PAGE_BYTES).max(1);
        Ok(ManagedBuffer {
            data: vec![T::default(); len],
            device: Arc::clone(device),
            pages: vec![Residency::Host; n_pages],
            bytes,
        })
    }
}

impl<T> ManagedBuffer<T> {
    fn page_range(&self, start_elem: usize, len_elems: usize) -> (usize, usize) {
        let esz = std::mem::size_of::<T>().max(1);
        let first = start_elem * esz / PAGE_BYTES;
        let last_byte = ((start_elem + len_elems).max(1) * esz - 1).min(self.bytes as usize - 1);
        (first, last_byte / PAGE_BYTES)
    }

    fn migrate(&mut self, stream: &mut Stream, first: usize, last: usize, to: Residency) {
        let mut pending = 0u64;
        let mut faults = 0u64;
        for p in first..=last.min(self.pages.len() - 1) {
            if self.pages[p] != to {
                self.pages[p] = to;
                pending += PAGE_BYTES as u64;
                faults += 1;
            }
        }
        if faults == 0 {
            return;
        }
        // Each fault pays the driver latency on the host; the pages then
        // DMA over the host link.
        stream.charge_host(fault_latency() * faults as f64);
        match to {
            Residency::Device => {
                stream.upload_modeled(pending);
            }
            Residency::Host => {
                stream.download_modeled(pending);
            }
        }
    }

    /// Touch a range from *device* code: migrates non-resident pages, then
    /// returns the slice for the kernel body to use.
    pub fn access_device(&mut self, stream: &mut Stream, start: usize, len: usize) -> &mut [T] {
        assert!(start + len <= self.data.len(), "range out of bounds");
        if len > 0 {
            let (first, last) = self.page_range(start, len);
            self.migrate(stream, first, last, Residency::Device);
        }
        &mut self.data[start..start + len]
    }

    /// Touch a range from *host* code: migrates device-resident pages back.
    pub fn access_host(&mut self, stream: &mut Stream, start: usize, len: usize) -> &mut [T] {
        assert!(start + len <= self.data.len(), "range out of bounds");
        if len > 0 {
            let (first, last) = self.page_range(start, len);
            self.migrate(stream, first, last, Residency::Host);
        }
        &mut self.data[start..start + len]
    }
}

impl<T> Drop for ManagedBuffer<T> {
    fn drop(&mut self) {
        self.device.release(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ApiSurface;
    use crate::error::HalError;
    use exa_machine::GpuModel;

    fn setup(len: usize) -> (ManagedBuffer<f64>, Stream) {
        let device = Device::new(GpuModel::mi250x_gcd(), 0);
        let stream = Stream::new(Arc::clone(&device), ApiSurface::Hip).unwrap();
        (ManagedBuffer::<f64>::new(&device, len).unwrap(), stream)
    }

    /// Pages migrated host→device and device→host so far: each fault
    /// moves one whole page over the host link.
    fn pages_moved(stream: &Stream) -> (u64, u64) {
        let s = stream.stats();
        let page = PAGE_BYTES as u64;
        (s.bytes_h2d / page, s.bytes_d2h / page)
    }

    #[test]
    fn first_touch_faults_then_stays_resident() {
        let n = 100_000; // ~800 KB -> 13 pages
        let (mut buf, mut stream) = setup(n);
        buf.access_device(&mut stream, 0, n);
        let (to_device, _) = pages_moved(&stream);
        assert!(to_device >= 12, "{to_device}");
        // Second device touch: already resident, no new faults.
        buf.access_device(&mut stream, 0, n);
        assert_eq!(pages_moved(&stream).0, to_device);
    }

    #[test]
    fn host_device_ping_pong_thrashes() {
        let n = 100_000;
        let (mut buf, mut stream) = setup(n);
        for _ in 0..4 {
            buf.access_device(&mut stream, 0, n);
            buf.access_host(&mut stream, 0, n);
        }
        let (to_device, to_host) = pages_moved(&stream);
        assert_eq!(to_device, to_host);
        assert!(to_device >= 4 * 13, "{to_device}");
    }

    #[test]
    fn partial_touch_migrates_only_touched_pages() {
        let n = 1_000_000; // ~122 pages
        let (mut buf, mut stream) = setup(n);
        buf.access_device(&mut stream, 0, PAGE_BYTES / 8); // one page of f64s
        assert!(pages_moved(&stream).0 <= 2, "{:?}", pages_moved(&stream));
    }

    #[test]
    fn data_survives_migration() {
        let n = 50_000;
        let (mut buf, mut stream) = setup(n);
        for (i, x) in buf.access_host(&mut stream, 0, n).iter_mut().enumerate() {
            *x = i as f64;
        }
        let on_device = buf.access_device(&mut stream, 0, n);
        assert_eq!(on_device[12345], 12345.0);
        let back = buf.access_host(&mut stream, 0, n);
        assert_eq!(back[49_999], 49_999.0);
    }

    #[test]
    fn accounting_released_on_drop() {
        let mut model = GpuModel::mi250x_gcd();
        model.mem_capacity = 16_000;
        let device = Device::new(model, 0);
        {
            let _buf = ManagedBuffer::<f64>::new(&device, 1000).unwrap();
            let err = ManagedBuffer::<f64>::new(&device, 2000).unwrap_err();
            assert!(matches!(
                err,
                HalError::OutOfMemory {
                    available: 8000,
                    ..
                }
            ));
        }
        // Dropping the buffer released its 8000 bytes: 2000 elements fit.
        ManagedBuffer::<f64>::new(&device, 2000).unwrap();
    }
}
