//! Device memory pool allocator (the YAKL strategy of §3.5).
//!
//! E3SM-MMF is "highly sensitive to latency, and particularly allocations,
//! deallocations, and kernel launches"; YAKL's answer is "a transparent pool
//! allocator for all device-resident allocations so that frequent allocation
//! and deallocation patterns are non-blocking and very cheap". This module
//! implements a real first-fit free-list arena with block splitting and
//! coalescing — a pool `alloc`/`free` costs ~0.2 µs of virtual time against
//! the 10–14 µs of a runtime `Malloc`/`Free` pair.

use crate::device::Device;
use crate::error::{HalError, Result};
use crate::stream::Stream;
use exa_machine::SimTime;
use exa_telemetry::{MetricSource, MetricsRegistry};
use serde::Serialize;
use std::sync::Arc;

/// Alignment of every pool block, matching HBM transaction granularity.
pub const POOL_ALIGN: u64 = 256;

/// A block handed out by the pool. Offsets are within the pool's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolBlock {
    /// Byte offset within the arena.
    pub offset: u64,
    /// Usable size in bytes (aligned).
    pub size: u64,
}

/// Allocation statistics, for the ablation bench.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct PoolStats {
    /// Total `alloc` calls served.
    pub allocs: u64,
    /// Total `free` calls served.
    pub frees: u64,
    /// Peak bytes simultaneously live.
    pub high_water: u64,
    /// Bytes currently live.
    pub live: u64,
}

impl MetricSource for PoolStats {
    fn export_metrics(&self, m: &mut MetricsRegistry) {
        m.counter_add("hal.pool.allocs", self.allocs);
        m.counter_add("hal.pool.frees", self.frees);
        m.gauge_max("hal.pool.high_water_bytes", self.high_water as f64);
        m.gauge_set("hal.pool.live_bytes", self.live as f64);
    }
}

/// A first-fit free-list arena over one device's memory.
#[derive(Debug)]
pub struct PoolAllocator {
    device: Arc<Device>,
    capacity: u64,
    /// Sorted, disjoint free extents (offset, size).
    free: Vec<(u64, u64)>,
    /// Live blocks, kept for validation of frees.
    live_blocks: Vec<PoolBlock>,
    stats: PoolStats,
    /// Cost charged per pool alloc/free (sub-microsecond; the whole point).
    op_latency: SimTime,
}

impl PoolAllocator {
    /// Reserve an arena of `capacity` bytes on `device`. The reservation
    /// itself goes through the expensive runtime allocator once, at startup.
    pub fn new(device: Arc<Device>, capacity: u64, stream: &mut Stream) -> Result<Self> {
        let capacity = align_up(capacity);
        device.reserve(capacity)?;
        stream.charge_host(device.model.alloc_latency);
        Ok(PoolAllocator {
            device,
            capacity,
            free: vec![(0, capacity)],
            live_blocks: Vec::new(),
            stats: PoolStats::default(),
            op_latency: SimTime::from_nanos(200.0),
        })
    }

    /// Current statistics.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Largest single free extent.
    pub fn largest_free(&self) -> u64 {
        self.free.iter().map(|&(_, s)| s).max().unwrap_or(0)
    }

    /// Allocate `bytes` (rounded up to [`POOL_ALIGN`]) with first-fit.
    pub fn alloc(&mut self, stream: &mut Stream, bytes: u64) -> Result<PoolBlock> {
        stream.charge_host(self.op_latency);
        let need = align_up(bytes.max(1));
        let idx = self.free.iter().position(|&(_, size)| size >= need).ok_or(
            HalError::PoolExhausted {
                requested: need,
                largest_free: self.largest_free(),
            },
        )?;
        let (off, size) = self.free[idx];
        if size == need {
            self.free.remove(idx);
        } else {
            self.free[idx] = (off + need, size - need);
        }
        let block = PoolBlock {
            offset: off,
            size: need,
        };
        self.live_blocks.push(block);
        self.stats.allocs += 1;
        self.stats.live += need;
        self.stats.high_water = self.stats.high_water.max(self.stats.live);
        Ok(block)
    }

    /// Return a block to the pool, coalescing with neighbours.
    pub fn free(&mut self, stream: &mut Stream, block: PoolBlock) -> Result<()> {
        stream.charge_host(self.op_latency);
        let pos = self
            .live_blocks
            .iter()
            .position(|b| *b == block)
            .ok_or(HalError::InvalidFree)?;
        self.live_blocks.swap_remove(pos);
        self.stats.frees += 1;
        self.stats.live -= block.size;

        // Insert into the sorted free list and coalesce neighbours.
        let ins = self.free.partition_point(|&(off, _)| off < block.offset);
        self.free.insert(ins, (block.offset, block.size));
        // Coalesce with next.
        if ins + 1 < self.free.len() {
            let (off, size) = self.free[ins];
            let (noff, nsize) = self.free[ins + 1];
            if off + size == noff {
                self.free[ins] = (off, size + nsize);
                self.free.remove(ins + 1);
            }
        }
        // Coalesce with previous.
        if ins > 0 {
            let (poff, psize) = self.free[ins - 1];
            let (off, size) = self.free[ins];
            if poff + psize == off {
                self.free[ins - 1] = (poff, psize + size);
                self.free.remove(ins);
            }
        }
        Ok(())
    }

    /// Internal consistency check: free extents sorted, disjoint, in-bounds,
    /// and accounting balances. Used by tests and debug assertions.
    pub fn check_invariants(&self) -> bool {
        let mut prev_end = 0u64;
        let mut free_total = 0u64;
        for &(off, size) in &self.free {
            if size == 0 || off < prev_end || off + size > self.capacity {
                return false;
            }
            prev_end = off + size;
            free_total += size;
        }
        let live_total: u64 = self.live_blocks.iter().map(|b| b.size).sum();
        free_total + live_total == self.capacity && live_total == self.stats.live
    }
}

impl Drop for PoolAllocator {
    fn drop(&mut self) {
        self.device.release(self.capacity);
    }
}

#[inline]
fn align_up(bytes: u64) -> u64 {
    bytes.div_ceil(POOL_ALIGN) * POOL_ALIGN
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ApiSurface;
    use exa_machine::GpuModel;

    /// The test arena's size, already a multiple of [`POOL_ALIGN`].
    const ARENA: u64 = 1 << 20;

    fn setup() -> (PoolAllocator, Stream) {
        let d = Device::new(GpuModel::mi250x_gcd(), 0);
        let mut s = Stream::new(Arc::clone(&d), ApiSurface::Hip).unwrap();
        let p = PoolAllocator::new(d, ARENA, &mut s).unwrap();
        (p, s)
    }

    #[test]
    fn alloc_free_round_trip_restores_arena() {
        let (mut p, mut s) = setup();
        let a = p.alloc(&mut s, 1000).unwrap();
        let b = p.alloc(&mut s, 5000).unwrap();
        assert!(p.check_invariants());
        p.free(&mut s, a).unwrap();
        p.free(&mut s, b).unwrap();
        assert!(p.check_invariants());
        assert_eq!(p.largest_free(), ARENA);
    }

    #[test]
    fn blocks_are_aligned_and_disjoint() {
        let (mut p, mut s) = setup();
        let blocks: Vec<_> = (0..10)
            .map(|i| p.alloc(&mut s, 100 + i * 37).unwrap())
            .collect();
        for b in &blocks {
            assert_eq!(b.offset % POOL_ALIGN, 0);
            assert_eq!(b.size % POOL_ALIGN, 0);
        }
        for (i, x) in blocks.iter().enumerate() {
            for y in &blocks[i + 1..] {
                assert!(x.offset + x.size <= y.offset || y.offset + y.size <= x.offset);
            }
        }
        assert!(p.check_invariants());
    }

    #[test]
    fn out_of_order_frees_coalesce() {
        let (mut p, mut s) = setup();
        let a = p.alloc(&mut s, 4096).unwrap();
        let b = p.alloc(&mut s, 4096).unwrap();
        let c = p.alloc(&mut s, 4096).unwrap();
        p.free(&mut s, a).unwrap();
        p.free(&mut s, c).unwrap();
        p.free(&mut s, b).unwrap(); // middle last: must merge all three + tail
        assert_eq!(p.largest_free(), ARENA);
        assert!(p.check_invariants());
    }

    #[test]
    fn double_free_rejected() {
        let (mut p, mut s) = setup();
        let a = p.alloc(&mut s, 128).unwrap();
        p.free(&mut s, a).unwrap();
        assert_eq!(p.free(&mut s, a), Err(HalError::InvalidFree));
    }

    #[test]
    fn exhaustion_reports_largest_block() {
        let (mut p, mut s) = setup();
        let _a = p.alloc(&mut s, 1 << 19).unwrap();
        let err = p.alloc(&mut s, 1 << 20).unwrap_err();
        assert!(matches!(err, HalError::PoolExhausted { .. }));
    }

    #[test]
    fn pool_is_much_cheaper_than_runtime_alloc() {
        let d = Device::new(GpuModel::mi250x_gcd(), 0);
        // Runtime path: 1000 alloc of f64x128 through the stream.
        let mut s1 = Stream::new(Arc::clone(&d), ApiSurface::Hip).unwrap();
        let mut keep = Vec::new();
        for _ in 0..1000 {
            keep.push(s1.alloc::<f64>(128).unwrap());
        }
        let t_runtime = s1.synchronize();
        drop(keep);

        // Pool path on a fresh device to keep accounting independent.
        let d2 = Device::new(GpuModel::mi250x_gcd(), 0);
        let mut s2 = Stream::new(Arc::clone(&d2), ApiSurface::Hip).unwrap();
        let mut p = PoolAllocator::new(d2, 1 << 24, &mut s2).unwrap();
        for _ in 0..1000 {
            let b = p.alloc(&mut s2, 1024).unwrap();
            p.free(&mut s2, b).unwrap();
        }
        let t_pool = s2.synchronize();
        // §3.5: pool allocations are "very cheap" — order-of-magnitude wins.
        assert!(
            t_runtime / t_pool > 10.0,
            "runtime {t_runtime} vs pool {t_pool}"
        );
    }

    #[test]
    fn high_water_mark_tracks_peak() {
        let (mut p, mut s) = setup();
        let a = p.alloc(&mut s, 10_000).unwrap();
        let b = p.alloc(&mut s, 20_000).unwrap();
        p.free(&mut s, a).unwrap();
        let _c = p.alloc(&mut s, 1_000).unwrap();
        let hw = p.stats().high_water;
        assert_eq!(hw, align_up(10_000) + align_up(20_000));
        p.free(&mut s, b).unwrap();
        assert_eq!(p.stats().high_water, hw); // never decreases
    }
}
