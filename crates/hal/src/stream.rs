//! Streams, events, and the virtual-time execution engine.
//!
//! A [`Stream`] is an in-order device queue with **two** clocks:
//!
//! * the *host* clock — time the submitting CPU thread has spent in API
//!   calls (launch latency, call overheads, blocking waits);
//! * the *device* clock — time the GPU's queue has consumed executing
//!   kernels and DMA transfers.
//!
//! An asynchronous launch costs the host only the submission latency, and
//! the kernel starts at `max(host-after-submit, device-ready)` — which is
//! exactly the mechanism behind E3SM's §3.5 strategy of "launching all
//! kernels asynchronously in the same stream so that larger kernel runtimes
//! overlap launch overheads for later kernel launches". A synchronous launch
//! (or an explicit [`Stream::synchronize`]) joins the host clock to the
//! device clock.
//!
//! Streams can also **capture** their modeled operations into a
//! [`KernelGraph`] ([`Stream::begin_capture`] / [`Stream::end_capture`]) and
//! later [`Stream::replay`] the graph for the cost of a single submission —
//! the hipGraph / CUDA Graphs path; see [`crate::graph`].

use crate::api::ApiSurface;
use crate::buffer::DeviceBuffer;
use crate::device::Device;
use crate::error::{HalError, Result};
use crate::graph::{GraphCapture, GraphOp, KernelGraph};
use exa_machine::{graph_node_dispatch, Clock, KernelProfile, SimTime};
use exa_telemetry::{
    MetricSource, MetricsRegistry, Span, SpanCat, TelemetryCollector, TrackId, TrackKind,
};
use serde::Serialize;
use std::borrow::Cow;
use std::sync::Arc;

/// A recorded point on a stream's device timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Event(pub SimTime);

impl Event {
    /// Device-time span between two events (CUDA's `eventElapsedTime`).
    pub fn elapsed_since(&self, earlier: &Event) -> SimTime {
        self.0 - earlier.0
    }
}

/// Cumulative statistics for a stream, used by benchmark reports.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct StreamStats {
    /// Kernels launched.
    pub kernels: u64,
    /// Host→device bytes copied.
    pub bytes_h2d: u64,
    /// Device→host bytes copied.
    pub bytes_d2h: u64,
    /// Kernel-graph replays submitted ([`Stream::replay`]).
    pub graph_replays: u64,
    /// Kernel nodes executed inside graph replays (not counted in
    /// [`StreamStats::kernels`] — a replay charges one submission, however
    /// many nodes it runs).
    pub graph_kernels: u64,
    /// Total device busy time (kernels + DMA).
    pub device_busy: SimTime,
}

impl MetricSource for StreamStats {
    fn export_metrics(&self, m: &mut MetricsRegistry) {
        m.counter_add("hal.kernels", self.kernels);
        m.counter_add("hal.bytes_h2d", self.bytes_h2d);
        m.counter_add("hal.bytes_d2h", self.bytes_d2h);
        m.counter_add("hal.graph_replays", self.graph_replays);
        m.counter_add("hal.graph_kernels", self.graph_kernels);
        m.time_add("hal.device_busy", self.device_busy);
    }
}

/// A stream's attachment to a shared [`TelemetryCollector`]: a dedicated
/// device-queue track plus a local batch of spans, flushed under one lock.
#[derive(Debug)]
struct StreamTelemetry {
    collector: Arc<TelemetryCollector>,
    track: TrackId,
    pending: Vec<Span>,
}

/// An in-order execution stream on a simulated device.
#[derive(Debug)]
pub struct Stream {
    device: Arc<Device>,
    api: ApiSurface,
    host: Clock,
    gpu: Clock,
    sync_launch: bool,
    stats: StreamStats,
    capture: Option<GraphCapture>,
    telemetry: Option<StreamTelemetry>,
}

impl Stream {
    /// Create a stream on `device` using API surface `api`.
    ///
    /// Returns [`HalError::UnsupportedArch`] when the surface cannot drive
    /// the device's architecture (CUDA on AMD hardware) — the error an
    /// unported application hits on day one of an early-access system.
    pub fn new(device: Arc<Device>, api: ApiSurface) -> Result<Self> {
        if !api.supports_arch(device.model.arch) {
            return Err(HalError::UnsupportedArch {
                api,
                arch: device.model.arch,
            });
        }
        Ok(Stream {
            device,
            api,
            host: Clock::new(),
            gpu: Clock::new(),
            sync_launch: false,
            stats: StreamStats::default(),
            capture: None,
            telemetry: None,
        })
    }

    /// Device this stream executes on.
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// Force every launch to block the host until the kernel completes
    /// (useful to quantify what async launching buys — see the E3SM bench).
    pub fn set_sync_launch(&mut self, sync: bool) {
        self.sync_launch = sync;
    }

    /// Device-side clock (queue completion time).
    pub fn device_time(&self) -> SimTime {
        self.gpu.now()
    }

    /// Stream statistics so far.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Block the host until all queued device work completes; returns the
    /// joined time. Also flushes any batched telemetry spans — a sync point
    /// is where a profiler's buffers drain.
    pub fn synchronize(&mut self) -> SimTime {
        self.host.advance(self.api.call_overhead());
        let t = self.host.now().max(self.gpu.now());
        self.host.sync_to(t);
        self.gpu.sync_to(t);
        self.flush_telemetry();
        t
    }

    // -----------------------------------------------------------------------
    // Telemetry.
    // -----------------------------------------------------------------------

    /// Attach a shared telemetry collector. Device-side work (kernels, DMA,
    /// graph replays) is recorded as spans on a dedicated device-queue track
    /// named `track_name`. Spans are batched locally and flushed on
    /// [`Stream::synchronize`] and drop, so the hot path adds one `Vec`
    /// push per operation.
    pub fn attach_telemetry(&mut self, collector: &Arc<TelemetryCollector>, track_name: &str) {
        let track = collector.track(track_name, TrackKind::DeviceQueue);
        self.telemetry = Some(StreamTelemetry {
            collector: Arc::clone(collector),
            track,
            pending: Vec::new(),
        });
    }

    /// Push batched spans to the attached collector (no-op otherwise).
    pub fn flush_telemetry(&mut self) {
        if let Some(t) = self.telemetry.as_mut() {
            if !t.pending.is_empty() {
                t.collector.complete_batch(t.track, t.pending.drain(..));
            }
        }
    }

    /// Flush pending spans and pour this stream's [`StreamStats`] into the
    /// attached collector's metrics. Counters add, so call it once per
    /// stream at the end of an instrumented run.
    pub fn absorb_telemetry(&mut self) {
        self.flush_telemetry();
        if let Some(t) = self.telemetry.as_ref() {
            t.collector.absorb(&self.stats);
        }
    }

    /// Record a device-side span of `work` length ending at `done`.
    #[inline]
    fn note(&mut self, name: Cow<'static, str>, cat: SpanCat, work: SimTime, done: SimTime) {
        if let Some(t) = self.telemetry.as_mut() {
            t.pending.push(Span {
                name,
                cat,
                start: done - work,
                end: done,
                depth: 0,
            });
        }
    }

    /// Record an event at the stream's current device time.
    pub fn record_event(&mut self) -> Event {
        self.host.advance(self.api.call_overhead());
        Event(self.gpu.now())
    }

    /// Charge an arbitrary host-side cost (driver work, allocation, etc.).
    pub fn charge_host(&mut self, dt: SimTime) {
        self.host.advance(dt);
    }

    fn enqueue_device_work(&mut self, submit_cost: SimTime, work: SimTime) -> SimTime {
        // Host spends the submission cost, then the device starts the work
        // as soon as both the submission has landed and the queue is free.
        self.host.advance(self.api.call_overhead() + submit_cost);
        let start = self.host.now().max(self.gpu.now());
        self.gpu.sync_to(start);
        self.gpu.advance(work);
        self.stats.device_busy += work;
        if self.sync_launch {
            let t = self.gpu.now();
            self.host.sync_to(t);
        }
        self.gpu.now()
    }

    /// Launch a kernel: execute `body` eagerly (the real math) and charge the
    /// modelled duration. Returns the device-time at which the kernel
    /// completes. During capture the body still runs once (the data reaches
    /// its post-step state) while the launch is recorded instead of charged.
    pub fn launch<F: FnOnce()>(&mut self, profile: &KernelProfile, body: F) -> SimTime {
        body();
        self.launch_modeled(profile)
    }

    /// Charge a kernel launch without executing a body — used when running
    /// at paper scale (e.g. a 32,768³ GESTS grid) where only the cost model
    /// is evaluated. During capture, records the launch into the graph
    /// instead (as non-fusable: the engine cannot prove it pure).
    pub fn launch_modeled(&mut self, profile: &KernelProfile) -> SimTime {
        if let Some(cap) = self.capture.as_mut() {
            self.host.advance(self.api.call_overhead());
            cap.kernel(profile.clone());
            return self.gpu.now();
        }
        let work = self.device.model.kernel_time(profile);
        self.stats.kernels += 1;
        let done = self.enqueue_device_work(self.device.model.launch_latency, work);
        if self.telemetry.is_some() {
            self.note(
                Cow::Owned(profile.name.clone()),
                SpanCat::Kernel,
                work,
                done,
            );
        }
        done
    }

    /// Allocate a zeroed device buffer, charging the runtime's allocation
    /// latency (what the §3.5 pool allocator avoids). During capture the
    /// allocation is recorded into the graph's memory plan instead.
    pub fn alloc<T: Copy + Default>(&mut self, len: usize) -> Result<DeviceBuffer<T>> {
        if let Some(cap) = self.capture.as_mut() {
            self.host.advance(self.api.call_overhead());
            cap.alloc();
            return DeviceBuffer::zeroed(&self.device, len);
        }
        self.host
            .advance(self.api.call_overhead() + self.device.model.alloc_latency);
        DeviceBuffer::zeroed(&self.device, len)
    }

    /// Copy host → device (stream-ordered DMA).
    pub fn upload<T: Copy>(&mut self, src: &[T], dst: &mut DeviceBuffer<T>) -> Result<SimTime> {
        if src.len() != dst.len() {
            return Err(HalError::SizeMismatch {
                dst: dst.len(),
                src: src.len(),
            });
        }
        dst.as_mut_slice().copy_from_slice(src);
        let bytes = dst.bytes();
        if let Some(cap) = self.capture.as_mut() {
            self.host.advance(self.api.call_overhead());
            cap.upload(bytes);
            return Ok(self.gpu.now());
        }
        self.stats.bytes_h2d += bytes;
        let t = self.device.host_link.transfer_time(bytes);
        let done = self.enqueue_device_work(SimTime::ZERO, t);
        self.note(Cow::Borrowed("h2d"), SpanCat::Dma, t, done);
        Ok(done)
    }

    /// Copy device → host (stream-ordered DMA). Blocks the host, as the
    /// synchronous `Memcpy` of both runtimes does.
    pub fn download<T: Copy>(&mut self, src: &DeviceBuffer<T>, dst: &mut [T]) -> Result<SimTime> {
        if src.len() != dst.len() {
            return Err(HalError::SizeMismatch {
                dst: dst.len(),
                src: src.len(),
            });
        }
        dst.copy_from_slice(src.as_slice());
        let bytes = src.bytes();
        if let Some(cap) = self.capture.as_mut() {
            self.host.advance(self.api.call_overhead());
            cap.download(bytes);
            return Ok(self.gpu.now());
        }
        self.stats.bytes_d2h += bytes;
        let t = self.device.host_link.transfer_time(bytes);
        let done = self.enqueue_device_work(SimTime::ZERO, t);
        self.host.sync_to(done);
        self.note(Cow::Borrowed("d2h"), SpanCat::Dma, t, done);
        Ok(done)
    }

    /// Charge a transfer of raw `bytes` host→device without data movement
    /// (modeled mode, for paper-scale estimates). Recorded, not charged,
    /// during capture.
    pub fn upload_modeled(&mut self, bytes: u64) -> SimTime {
        if let Some(cap) = self.capture.as_mut() {
            self.host.advance(self.api.call_overhead());
            cap.upload(bytes);
            return self.gpu.now();
        }
        self.stats.bytes_h2d += bytes;
        let t = self.device.host_link.transfer_time(bytes);
        let done = self.enqueue_device_work(SimTime::ZERO, t);
        self.note(Cow::Borrowed("h2d"), SpanCat::Dma, t, done);
        done
    }

    /// Charge a transfer of raw `bytes` device→host without data movement.
    /// Recorded, not charged, during capture (a graphed download does not
    /// block the host — the ordering lives in the graph).
    pub fn download_modeled(&mut self, bytes: u64) -> SimTime {
        if let Some(cap) = self.capture.as_mut() {
            self.host.advance(self.api.call_overhead());
            cap.download(bytes);
            return self.gpu.now();
        }
        self.stats.bytes_d2h += bytes;
        let t = self.device.host_link.transfer_time(bytes);
        let done = self.enqueue_device_work(SimTime::ZERO, t);
        self.host.sync_to(done);
        self.note(Cow::Borrowed("d2h"), SpanCat::Dma, t, done);
        done
    }

    // -----------------------------------------------------------------------
    // Kernel graphs (hipGraph / CUDA Graphs).
    // -----------------------------------------------------------------------

    /// Start recording this stream's modeled operations into a graph.
    /// Subsequent `launch_modeled` / `upload_modeled` / `download_modeled` /
    /// `alloc` calls are captured instead of charged, until
    /// [`Stream::end_capture`].
    pub fn begin_capture(&mut self) {
        assert!(self.capture.is_none(), "graph capture already in progress");
        self.host.advance(self.api.call_overhead());
        self.capture = Some(GraphCapture::new());
    }

    /// Finish recording and return the captured graph.
    pub fn end_capture(&mut self) -> KernelGraph {
        self.host.advance(self.api.call_overhead());
        self.capture
            .take()
            .expect("end_capture without begin_capture")
            .end()
    }

    /// Replay a captured graph: the host pays **one** submission (API call +
    /// one launch latency) for the whole graph, and the device runs every
    /// node back to back, each costing only its work plus a small queue
    /// dispatch. Compare with N × `launch_modeled`, which pays the full
    /// launch latency per kernel.
    pub fn replay(&mut self, graph: &KernelGraph) -> SimTime {
        assert!(self.capture.is_none(), "cannot replay while capturing");
        let latency = self.device.model.launch_latency;
        let mut work = SimTime::ZERO;
        let mut kernels = 0u64;
        for op in graph.ops() {
            work += graph_node_dispatch(latency);
            match op {
                GraphOp::Kernel(n) => {
                    work += self.device.model.kernel_time(&n.profile);
                    kernels += 1;
                }
                GraphOp::Upload { bytes } => {
                    work += self.device.host_link.transfer_time(*bytes);
                    self.stats.bytes_h2d += *bytes;
                }
                GraphOp::Download { bytes } => {
                    work += self.device.host_link.transfer_time(*bytes);
                    self.stats.bytes_d2h += *bytes;
                }
                // The graph's memory plan is pre-instantiated (pooled):
                // only the node dispatch above is charged.
                GraphOp::Alloc => {}
            }
        }
        self.stats.graph_replays += 1;
        self.stats.graph_kernels += kernels;
        let done = self.enqueue_device_work(latency, work);
        // One span per replay (static name, no allocation), keeping the
        // enabled-collector overhead on replay loops inside the <5% gate.
        self.note(
            Cow::Borrowed("graph_replay"),
            SpanCat::GraphReplay,
            work,
            done,
        );
        done
    }

    /// Replay a graph *and* run its elementwise kernels' real host compute
    /// over `data`, fused: each node makes a single cache-resident pass,
    /// however many captured kernels it merges.
    pub fn replay_on(&mut self, graph: &KernelGraph, data: &mut [f64]) -> SimTime {
        graph.execute_fused(data);
        self.replay(graph)
    }

    /// The pre-graph comparator: launch every node of `graph` individually
    /// (full launch latency each; one full memory sweep over `data` per
    /// elementwise stage). Bit-identical results to [`Stream::replay_on`],
    /// at eager-launch cost.
    pub fn launch_eager(&mut self, graph: &KernelGraph, data: &mut [f64]) -> SimTime {
        assert!(self.capture.is_none(), "cannot launch while capturing");
        let mut t = self.gpu.now();
        for op in graph.ops() {
            match op {
                GraphOp::Kernel(n) => {
                    n.execute_eager(data);
                    t = self.launch_modeled(&n.profile);
                }
                GraphOp::Upload { bytes } => t = self.upload_modeled(*bytes),
                GraphOp::Download { bytes } => t = self.download_modeled(*bytes),
                GraphOp::Alloc => {
                    self.host
                        .advance(self.api.call_overhead() + self.device.model.alloc_latency);
                }
            }
        }
        t
    }
}

impl Drop for Stream {
    fn drop(&mut self) {
        self.flush_telemetry();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_machine::{DType, GpuModel, LaunchConfig};

    fn stream(api: ApiSurface) -> Stream {
        let d = Device::new(GpuModel::v100(), 0);
        Stream::new(d, api).unwrap()
    }

    fn flops_kernel(flops: f64) -> KernelProfile {
        KernelProfile::new("k", LaunchConfig::new(1 << 14, 256)).flops(flops, DType::F64)
    }

    #[test]
    fn cuda_on_amd_is_rejected() {
        let d = Device::new(GpuModel::mi250x_gcd(), 0);
        assert!(Stream::new(Arc::clone(&d), ApiSurface::Cuda).is_err());
        assert!(Stream::new(d, ApiSurface::Hip).is_ok());
    }

    #[test]
    fn kernel_body_really_executes() {
        let mut s = stream(ApiSurface::Cuda);
        let mut hit = false;
        s.launch(&flops_kernel(1e9), || hit = true);
        assert!(hit);
        assert_eq!(s.stats().kernels, 1);
    }

    #[test]
    fn async_launches_overlap_submission_with_execution() {
        // Ten large kernels: async total ≈ submit + 10 * kernel;
        // sync total ≈ 10 * (submit + kernel). With launch latency 4 µs and
        // kernel ~ 150 µs the difference is ~9 * 4 µs.
        let k = flops_kernel(1e9);
        let mut a = stream(ApiSurface::Cuda);
        for _ in 0..10 {
            a.launch_modeled(&k);
        }
        let t_async = a.synchronize();

        let mut b = stream(ApiSurface::Cuda);
        b.set_sync_launch(true);
        for _ in 0..10 {
            b.launch_modeled(&k);
        }
        let t_sync = b.synchronize();

        assert!(t_sync > t_async);
        let saved = t_sync - t_async;
        // Should have hidden ~9 launch latencies.
        assert!(saved.micros() > 9.0 * 4.0 * 0.8, "saved {saved}");
    }

    #[test]
    fn hip_costs_marginally_more_than_cuda_per_call() {
        let k = flops_kernel(1e8);
        let mut c = stream(ApiSurface::Cuda);
        let mut h = stream(ApiSurface::Hip);
        for _ in 0..100 {
            c.launch_modeled(&k);
            h.launch_modeled(&k);
        }
        let tc = c.synchronize();
        let th = h.synchronize();
        assert!(th >= tc);
        // Figure 1 territory: well under 1% apart.
        assert!(th / tc < 1.01, "HIP/CUDA = {}", th / tc);
    }

    #[test]
    fn upload_download_round_trip() {
        let mut s = stream(ApiSurface::Cuda);
        let src: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let mut buf = s.alloc::<f64>(1000).unwrap();
        s.upload(&src, &mut buf).unwrap();
        let mut back = vec![0.0; 1000];
        s.download(&buf, &mut back).unwrap();
        assert_eq!(src, back);
        let st = s.stats();
        assert_eq!(st.bytes_h2d, 8000);
        assert_eq!(st.bytes_d2h, 8000);
    }

    #[test]
    fn size_mismatch_rejected() {
        let mut s = stream(ApiSurface::Cuda);
        let mut buf = s.alloc::<f64>(10).unwrap();
        assert!(matches!(
            s.upload(&[0.0; 5], &mut buf),
            Err(HalError::SizeMismatch { dst: 10, src: 5 })
        ));
    }

    #[test]
    fn events_measure_device_time() {
        let mut s = stream(ApiSurface::Cuda);
        let e0 = s.record_event();
        s.launch_modeled(&flops_kernel(7.8e9)); // ~1 ms on V100 at 85% eff
        let e1 = s.record_event();
        let dt = e1.elapsed_since(&e0);
        assert!(dt.secs() > 0.5e-3 && dt.secs() < 3e-3, "dt {dt}");
    }

    #[test]
    fn download_blocks_host() {
        let mut s = stream(ApiSurface::Cuda);
        let buf = DeviceBuffer::<f64>::zeroed(s.device(), 1 << 20).unwrap();
        let mut out = vec![1.0; 1 << 20];
        let done = s.download(&buf, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0.0));
        // The host waited for the copy: a sync adds only the API call.
        let call = ApiSurface::Cuda.call_overhead();
        assert_eq!(s.synchronize(), done + call);
    }

    #[test]
    fn capture_records_instead_of_charging() {
        let mut s = stream(ApiSurface::Cuda);
        let k = flops_kernel(1e9);
        s.begin_capture();
        s.launch_modeled(&k);
        s.upload_modeled(1 << 20);
        s.download_modeled(1 << 20);
        let _buf = s.alloc::<f64>(256).unwrap();
        let g = s.end_capture();
        // Nothing was charged to the device, and no stats accumulated.
        assert!(s.device_time().is_zero());
        assert_eq!(s.stats().kernels, 0);
        assert_eq!(s.stats().bytes_h2d, 0);
        let gs = g.stats();
        assert_eq!(gs.kernels, 1);
        assert_eq!(gs.transfers, 2);
        assert_eq!(gs.allocs, 1);
    }

    #[test]
    #[should_panic(expected = "end_capture without begin_capture")]
    fn end_capture_requires_begin() {
        let mut s = stream(ApiSurface::Cuda);
        let _ = s.end_capture();
    }

    #[test]
    fn replay_charges_one_launch_for_many_kernels() {
        let k = flops_kernel(1e6); // small kernels: latency-dominated
        let mut graphed = stream(ApiSurface::Cuda);
        graphed.begin_capture();
        for _ in 0..16 {
            graphed.launch_modeled(&k);
        }
        let g = graphed.end_capture();
        graphed.replay(&g);
        let t_graph = graphed.synchronize();
        assert_eq!(graphed.stats().graph_replays, 1);
        assert_eq!(graphed.stats().graph_kernels, 16);
        assert_eq!(graphed.stats().kernels, 0);

        let mut eager = stream(ApiSurface::Cuda);
        for _ in 0..16 {
            eager.launch_modeled(&k);
        }
        let t_eager = eager.synchronize();
        assert!(t_graph < t_eager, "graph {t_graph} !< eager {t_eager}");
    }

    #[test]
    fn replayed_downloads_count_bytes_every_replay() {
        let mut s = stream(ApiSurface::Cuda);
        s.begin_capture();
        s.upload_modeled(1000);
        s.download_modeled(500);
        let g = s.end_capture();
        for _ in 0..3 {
            s.replay(&g);
        }
        assert_eq!(s.stats().bytes_h2d, 3000);
        assert_eq!(s.stats().bytes_d2h, 1500);
    }

    #[test]
    fn telemetry_spans_match_device_work_and_stats() {
        let mut s = stream(ApiSurface::Cuda);
        let collector = TelemetryCollector::shared();
        s.attach_telemetry(&collector, "gpu0/stream0");
        let k = flops_kernel(1e9);
        s.launch_modeled(&k);
        s.upload_modeled(1 << 20);
        s.download_modeled(1 << 20);
        s.begin_capture();
        s.launch_modeled(&k);
        s.launch_modeled(&k);
        let g = s.end_capture();
        s.replay(&g);
        s.synchronize(); // flushes
        s.absorb_telemetry();

        let snap = collector.snapshot();
        // 1 kernel + 2 DMA + 1 replay (captured launches are not spans).
        assert_eq!(snap.spans_total, 4);
        assert_eq!(snap.counter("hal.kernels"), s.stats().kernels);
        assert_eq!(snap.counter("hal.bytes_h2d"), s.stats().bytes_h2d);
        assert_eq!(snap.counter("hal.graph_replays"), 1);
        collector.with_timeline(|tl| {
            let track = &tl.tracks()[0];
            assert_eq!(track.kind, TrackKind::DeviceQueue);
            // Device-busy equals the summed span durations, and spans are
            // monotonic and non-overlapping on the queue.
            let busy: SimTime = track.spans().iter().map(|sp| sp.duration()).sum();
            assert!((busy.secs() - s.stats().device_busy.secs()).abs() < 1e-12);
            for w in track.spans().windows(2) {
                assert!(w[1].start >= w[0].end, "queue spans overlap");
            }
        });
        let trace = collector.chrome_trace();
        assert!(exa_telemetry::validate_chrome_trace(&trace).is_ok());
    }

    #[test]
    fn unattached_stream_records_nothing() {
        let collector = TelemetryCollector::shared();
        let mut s = stream(ApiSurface::Cuda);
        s.launch_modeled(&flops_kernel(1e9));
        s.attach_telemetry(&collector, "gpu0");
        s.launch_modeled(&flops_kernel(1e9));
        s.synchronize();
        assert_eq!(collector.snapshot().spans_total, 1);
    }

    #[test]
    fn modeled_transfers_charge_link_time() {
        let mut s = stream(ApiSurface::Cuda);
        // 1 GiB over NVLink2 (50 GB/s) ≈ 21.5 ms.
        s.upload_modeled(1 << 30);
        let t = s.synchronize();
        assert!(t.secs() > 18e-3 && t.secs() < 25e-3, "t {t}");
    }
}
