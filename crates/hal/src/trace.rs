//! Kernel tracing and profiling — the simulator's `rocprof`.
//!
//! §3.2: "By employing kernel profiling we were able to identify
//! bottlenecks in the first implementation of these kernels"; §3.10.2:
//! "Initial profiling on AMD Instinct GPUs found a few key bottlenecks".
//! The COE workflow starts from a profile, so the simulator provides one:
//! a [`Tracer`] records every kernel launch with its modelled duration and
//! roofline classification, and renders hotspot tables and a roofline
//! report.

use crate::graph::KernelGraph;
use crate::stream::Stream;
use exa_machine::{EffCurve, GpuModel, KernelProfile, SimTime};
use serde::Serialize;
use std::collections::HashMap;
use std::fmt;

/// What limits a kernel on a given device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Bound {
    /// Arithmetic-pipe limited.
    Compute,
    /// HBM-bandwidth limited.
    Memory,
    /// Launch-latency limited (runtime shorter than the launch cost).
    Latency,
}

/// One recorded launch.
#[derive(Debug, Clone, Serialize)]
pub struct TraceEvent {
    /// Kernel name.
    pub name: String,
    /// Device time at which the kernel started.
    pub start: SimTime,
    /// Modelled duration.
    pub duration: SimTime,
    /// FLOPs in the launch.
    pub flops: f64,
    /// Bytes moved.
    pub bytes: f64,
    /// Achieved occupancy.
    pub occupancy: f64,
    /// Whether the register allocator would spill.
    pub spilled: bool,
    /// Roofline classification.
    pub bound: Bound,
}

/// Aggregated per-kernel statistics.
#[derive(Debug, Clone, Serialize)]
pub struct KernelStats {
    /// Kernel name.
    pub name: String,
    /// Number of launches.
    pub calls: u64,
    /// Total device time.
    pub total_time: SimTime,
    /// Share of the traced device time, in [0, 1].
    pub time_share: f64,
    /// Mean achieved GFLOP/s.
    pub gflops: f64,
    /// Total bytes moved across all launches.
    pub bytes: f64,
    /// Mean occupancy.
    pub occupancy: f64,
    /// Dominant bound.
    pub bound: Bound,
    /// Any launch spilled registers.
    pub spills: bool,
}

/// A kernel-launch recorder bound to one device model.
#[derive(Debug)]
pub struct Tracer {
    gpu: GpuModel,
    events: Vec<TraceEvent>,
}

impl Tracer {
    /// New tracer for a device model.
    pub fn new(gpu: GpuModel) -> Self {
        Tracer {
            gpu,
            events: Vec::new(),
        }
    }

    /// Classify a profile on this tracer's device.
    pub fn classify(&self, k: &KernelProfile) -> Bound {
        let (occ, _) = self.gpu.occupancy(k);
        let peak = self.gpu.peak_flops(k.dtype, k.uses_matrix_units);
        let t_c = k.flops / (peak * k.compute_eff * EffCurve::COMPUTE.at(occ));
        let t_m = k.total_bytes() / (self.gpu.mem_bw * k.mem_eff * EffCurve::MEMORY.at(occ));
        let body = t_c.max(t_m);
        if body < self.gpu.launch_latency.secs() {
            Bound::Latency
        } else if t_c >= t_m {
            Bound::Compute
        } else {
            Bound::Memory
        }
    }

    /// Launch a kernel through a stream while recording it.
    pub fn launch_traced<F: FnOnce()>(
        &mut self,
        stream: &mut Stream,
        profile: &KernelProfile,
        body: F,
    ) -> SimTime {
        let start = stream.device_time();
        let end = stream.launch(profile, body);
        self.record(profile, start, end - start);
        end
    }

    /// Cost-only traced launch.
    pub fn launch_traced_modeled(
        &mut self,
        stream: &mut Stream,
        profile: &KernelProfile,
    ) -> SimTime {
        let start = stream.device_time();
        let end = stream.launch_modeled(profile);
        self.record(profile, start, end - start);
        end
    }

    /// Replay a kernel graph through a stream while recording one event per
    /// kernel node — so fused and fissioned kernels show up in the hotspot
    /// table under their graph names ("a+b", "monster[0/4]"). Node start
    /// times attribute the replay's device span to nodes in launch order
    /// (queue-dispatch charges are folded into the span, as `rocprof` would
    /// show them).
    pub fn replay_traced(&mut self, stream: &mut Stream, graph: &KernelGraph) -> SimTime {
        let mut start = stream.device_time();
        let end = stream.replay(graph);
        for node in graph.kernels() {
            let dur = self.gpu.kernel_time(&node.profile);
            self.record(&node.profile, start, dur);
            start += dur;
        }
        end
    }

    fn record(&mut self, profile: &KernelProfile, start: SimTime, duration: SimTime) {
        let (occupancy, spilled) = self.gpu.occupancy(profile);
        self.events.push(TraceEvent {
            name: profile.name.clone(),
            start,
            duration,
            flops: profile.flops,
            bytes: profile.total_bytes(),
            occupancy,
            spilled,
            bound: self.classify(profile),
        });
    }

    /// All recorded events in launch order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Aggregate statistics, hottest kernel first, equal times in name
    /// order. A kernel's reported
    /// `bound` is the **time-weighted dominant** classification across its
    /// launches — a kernel that is Latency-bound once but Memory-bound for
    /// the bulk of its device time reports `Memory`.
    pub fn hotspots(&self) -> Vec<KernelStats> {
        #[derive(Default)]
        struct Agg {
            calls: u64,
            time: SimTime,
            flops: f64,
            bytes: f64,
            occ_sum: f64,
            spills: bool,
            // Device time spent under each classification, indexed by
            // `bound_index` (Compute, Memory, Latency).
            bound_time: [SimTime; 3],
        }
        const BOUNDS: [Bound; 3] = [Bound::Compute, Bound::Memory, Bound::Latency];
        fn bound_index(b: Bound) -> usize {
            match b {
                Bound::Compute => 0,
                Bound::Memory => 1,
                Bound::Latency => 2,
            }
        }
        let mut agg: HashMap<&str, Agg> = HashMap::new();
        let total: SimTime = self.events.iter().map(|e| e.duration).sum();
        for e in &self.events {
            let entry = agg.entry(&e.name).or_default();
            entry.calls += 1;
            entry.time += e.duration;
            entry.flops += e.flops;
            entry.bytes += e.bytes;
            entry.occ_sum += e.occupancy;
            entry.spills |= e.spilled;
            entry.bound_time[bound_index(e.bound)] += e.duration;
        }
        let mut out: Vec<KernelStats> = agg
            .into_iter()
            .map(|(name, a)| {
                let dominant = (0..3)
                    .max_by(|&i, &j| a.bound_time[i].cmp(&a.bound_time[j]))
                    .expect("three candidate bounds");
                KernelStats {
                    name: name.to_string(),
                    calls: a.calls,
                    total_time: a.time,
                    time_share: if total.is_zero() { 0.0 } else { a.time / total },
                    gflops: if a.time.is_zero() {
                        0.0
                    } else {
                        a.flops / a.time.secs() / 1e9
                    },
                    bytes: a.bytes,
                    occupancy: a.occ_sum / a.calls as f64,
                    bound: BOUNDS[dominant],
                    spills: a.spills,
                }
            })
            .collect();
        out.sort_by(|a, b| {
            b.total_time
                .cmp(&a.total_time)
                .then_with(|| a.name.cmp(&b.name))
        });
        out
    }

    /// Roofline report built from the recorded events — the device's f64
    /// ceilings plus one point per kernel, hottest first. Serializable via
    /// [`exa_telemetry::RooflineReport::to_json`].
    pub fn roofline(&self) -> exa_telemetry::RooflineReport {
        use exa_machine::DType;
        let peak_gflops = self.gpu.peak_flops(DType::F64, false) / 1e9;
        let mem_bw_gbs = self.gpu.mem_bw / 1e9;
        let points = self
            .hotspots()
            .into_iter()
            .map(|k| exa_telemetry::RooflinePoint {
                intensity: k.gflops * 1e9 * k.total_time.secs() / k.bytes.max(1.0),
                name: k.name,
                calls: k.calls,
                time_s: k.total_time.secs(),
                gflops: k.gflops,
                bound: format!("{:?}", k.bound),
            })
            .collect();
        exa_telemetry::RooflineReport {
            device: self.gpu.name.clone(),
            peak_gflops,
            mem_bw_gbs,
            ridge_intensity: peak_gflops / mem_bw_gbs,
            points,
        }
    }

    /// Render the hotspot table the way a profiler summary prints.
    pub fn report(&self) -> String {
        let mut s = String::new();
        use fmt::Write;
        writeln!(
            s,
            "{:<24} {:>6} {:>12} {:>7} {:>10} {:>6} {:>8} {:>6}",
            "kernel", "calls", "time", "share", "GFLOP/s", "occ", "bound", "spill"
        )
        .expect("write to String");
        for k in self.hotspots() {
            writeln!(
                s,
                "{:<24} {:>6} {:>12} {:>6.1}% {:>10.1} {:>6.2} {:>8} {:>6}",
                k.name,
                k.calls,
                format!("{}", k.total_time),
                k.time_share * 100.0,
                k.gflops,
                k.occupancy,
                format!("{:?}", k.bound),
                if k.spills { "YES" } else { "-" }
            )
            .expect("write to String");
        }
        s
    }

    /// Clear recorded events.
    pub fn reset(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ApiSurface;
    use crate::device::Device;
    use exa_machine::{DType, LaunchConfig};

    fn setup() -> (Tracer, Stream) {
        let gpu = GpuModel::mi250x_gcd();
        let device = Device::new(gpu.clone(), 0);
        (
            Tracer::new(gpu),
            Stream::new(device, ApiSurface::Hip).unwrap(),
        )
    }

    fn big() -> LaunchConfig {
        LaunchConfig::new(1 << 16, 256)
    }

    #[test]
    fn classification_matches_roofline_intuition() {
        let (t, _) = setup();
        let compute = KernelProfile::new("gemm", big())
            .flops(1e13, DType::F64)
            .bytes(1e9, 1e9);
        let memory = KernelProfile::new("triad", big())
            .flops(1e9, DType::F64)
            .bytes(1e12, 1e11);
        let tiny = KernelProfile::new("empty", LaunchConfig::new(1, 64)).flops(64.0, DType::F32);
        assert_eq!(t.classify(&compute), Bound::Compute);
        assert_eq!(t.classify(&memory), Bound::Memory);
        assert_eq!(t.classify(&tiny), Bound::Latency);
    }

    #[test]
    fn hotspots_rank_by_time_and_shares_sum_to_one() {
        let (mut tracer, mut stream) = setup();
        let hot = KernelProfile::new("hot", big()).flops(1e12, DType::F64);
        let cold = KernelProfile::new("cold", big()).flops(1e9, DType::F64);
        for _ in 0..3 {
            tracer.launch_traced_modeled(&mut stream, &hot);
        }
        tracer.launch_traced_modeled(&mut stream, &cold);
        let stats = tracer.hotspots();
        assert_eq!(stats[0].name, "hot");
        assert_eq!(stats[0].calls, 3);
        let share_sum: f64 = stats.iter().map(|k| k.time_share).sum();
        assert!((share_sum - 1.0).abs() < 1e-12);
        assert!(stats[0].time_share > 0.99);
    }

    #[test]
    fn equal_time_hotspots_come_out_in_name_order() {
        let (mut tracer, _) = setup();
        // Equal durations, recorded out of name order.
        for (i, name) in ["zeta", "alpha", "mu", "beta", "omega"]
            .into_iter()
            .enumerate()
        {
            let k = KernelProfile::new(name, big()).flops(1e9, DType::F64);
            tracer.record(&k, SimTime::from_secs(i as f64), SimTime::from_secs(1.0));
        }
        let stats = tracer.hotspots();
        let names: Vec<&str> = stats.iter().map(|k| k.name.as_str()).collect();
        assert_eq!(names, ["alpha", "beta", "mu", "omega", "zeta"]);
    }

    #[test]
    fn dominant_bound_is_time_weighted_not_first_seen() {
        let (mut tracer, mut stream) = setup();
        // Same kernel name, two regimes: one launch in the latency-bound
        // regime (tiny work), then the bulk of the time memory-bound.
        let tiny = KernelProfile::new("chem_rhs", LaunchConfig::new(1, 64)).flops(64.0, DType::F64);
        let fat = KernelProfile::new("chem_rhs", big())
            .flops(1e9, DType::F64)
            .bytes(1e12, 1e11);
        assert_eq!(tracer.classify(&tiny), Bound::Latency);
        assert_eq!(tracer.classify(&fat), Bound::Memory);
        tracer.launch_traced_modeled(&mut stream, &tiny); // first seen: Latency
        for _ in 0..3 {
            tracer.launch_traced_modeled(&mut stream, &fat);
        }
        let stats = tracer.hotspots();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].calls, 4);
        assert_eq!(
            stats[0].bound,
            Bound::Memory,
            "bound must follow the time, not launch order"
        );
        assert!(
            stats[0].bytes > 3e12,
            "aggregated bytes surface for the roofline"
        );
    }

    #[test]
    fn roofline_report_has_ceilings_and_points() {
        let (mut tracer, mut stream) = setup();
        let k = KernelProfile::new("triad", big())
            .flops(1e9, DType::F64)
            .bytes(1e10, 1e9);
        tracer.launch_traced_modeled(&mut stream, &k);
        let r = tracer.roofline();
        assert!(r.peak_gflops > 0.0 && r.mem_bw_gbs > 0.0);
        assert_eq!(r.points.len(), 1);
        let p = &r.points[0];
        assert_eq!(p.name, "triad");
        // intensity = flops / bytes
        assert!(
            (p.intensity - 1e9 / 1.1e10).abs() / (1e9 / 1.1e10) < 0.05,
            "{}",
            p.intensity
        );
        assert!(exa_telemetry::parse_json(&r.to_json()).is_ok());
    }

    #[test]
    fn traced_launch_still_runs_the_body() {
        let (mut tracer, mut stream) = setup();
        let k = KernelProfile::new("body", big()).flops(1e9, DType::F64);
        let mut hit = false;
        tracer.launch_traced(&mut stream, &k, || hit = true);
        assert!(hit);
        assert_eq!(tracer.events().len(), 1);
        assert!(tracer.events()[0].duration.secs() > 0.0);
    }

    #[test]
    fn spills_are_flagged_in_the_report() {
        let (mut tracer, mut stream) = setup();
        let monster = KernelProfile::new("jacobian", big())
            .flops(1e11, DType::F64)
            .regs(18_000);
        tracer.launch_traced_modeled(&mut stream, &monster);
        let report = tracer.report();
        assert!(report.contains("jacobian"));
        assert!(
            report.contains("YES"),
            "spill column must flag the 18k-register kernel:\n{report}"
        );
    }

    #[test]
    fn replay_traced_names_fused_nodes() {
        use crate::graph::{FusionPolicy, GraphCapture};
        let (mut tracer, mut stream) = setup();
        let mut cap = GraphCapture::new();
        cap.kernel_fusable(
            KernelProfile::new("a", big())
                .flops(1e9, DType::F64)
                .bytes(1e9, 1e9),
        );
        cap.kernel_fusable(
            KernelProfile::new("b", big())
                .flops(1e9, DType::F64)
                .bytes(1e9, 1e9),
        );
        let mut g = cap.end();
        g.fuse_elementwise(&FusionPolicy::default());
        tracer.replay_traced(&mut stream, &g);
        let stats = tracer.hotspots();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].name, "a+b");
        assert_eq!(stream.stats().graph_replays, 1);
    }

    #[test]
    fn reset_clears_events() {
        let (mut tracer, mut stream) = setup();
        tracer.launch_traced_modeled(
            &mut stream,
            &KernelProfile::new("k", big()).flops(1e9, DType::F32),
        );
        tracer.reset();
        assert!(tracer.events().is_empty());
        assert!(tracer.hotspots().is_empty());
    }
}
