//! E3SM-MMF (§3.5) — latency-sensitive column physics.
//!
//! The Multiscale Modeling Framework runs a cloud-resolving model inside
//! every climate column. Strong scaling to 1,000–2,000× realtime leaves
//! each GPU with little work, so "E3SM-MMF is highly sensitive to latency,
//! and particularly allocations, deallocations, and kernel launches." The
//! paper lists four mitigation strategies, all implemented here as real,
//! composable configuration knobs over the `exa-hal` runtime:
//!
//! 1. **Kernel fusion** — merge small kernels (fewer launches);
//! 2. **Kernel fission** — split register-spilling kernels ("when register
//!    spillage was observed, kernels could be fissioned ... larger kernel
//!    launch overheads, but significantly lower kernel runtimes");
//! 3. **Asynchronous same-stream launching** — overlap launch latency with
//!    execution;
//! 4. **Pool allocator** — YAKL's "transparent pool allocator ... so that
//!    frequent allocation and deallocation patterns are non-blocking and
//!    very cheap".
//!
//! The fusion and fission transforms run as `exa-hal` kernel-graph passes
//! ([`exa_hal::KernelGraph::fuse_elementwise`] /
//! [`exa_hal::KernelGraph::fission_spills`]) over the captured per-step
//! pipeline; a fifth knob, [`E3smConfig::graph_replay`], additionally
//! replays the whole step as one graph launch (hipGraph), collapsing the
//! per-kernel launch and allocation charges into a single submission.

use crate::calibration::e3sm as cal;
use exa_core::{Application, FigureOfMerit, FomMeasurement, Motif};
use exa_hal::{
    ApiSurface, DType, Device, FusionPolicy, GraphCapture, KernelGraph, KernelProfile,
    LaunchConfig, PoolAllocator, SimTime, Stream,
};
use exa_machine::{GpuArch, MachineModel};
use exa_telemetry::{SpanCat, TelemetryCollector, TrackKind};
use std::sync::Arc;

/// Configuration knobs of the §3.5 optimization campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct E3smConfig {
    /// Merge small physics kernels into larger ones.
    pub fuse_kernels: bool,
    /// Split kernels whose register footprint spills.
    pub fission_spilling: bool,
    /// Launch asynchronously in one stream (vs blocking launches).
    pub async_launch: bool,
    /// Use the pool allocator for per-step scratch.
    pub pool_allocator: bool,
    /// Replay the captured step as a single kernel graph (hipGraph): one
    /// launch charge for the whole pipeline, allocations folded into the
    /// graph's pre-instantiated memory plan.
    pub graph_replay: bool,
}

impl E3smConfig {
    /// The unoptimized starting point.
    pub fn naive() -> Self {
        E3smConfig {
            fuse_kernels: false,
            fission_spilling: false,
            async_launch: false,
            pool_allocator: false,
            graph_replay: false,
        }
    }

    /// Everything on — the shipped configuration.
    pub fn optimized() -> Self {
        E3smConfig {
            fuse_kernels: true,
            fission_spilling: true,
            async_launch: true,
            pool_allocator: true,
            graph_replay: true,
        }
    }
}

/// Per-column-step physics pipeline description.
#[derive(Debug, Clone)]
struct KernelSpec {
    flops: f64,
    bytes: f64,
    regs: u32,
}

fn physics_pipeline() -> Vec<KernelSpec> {
    // 24 small kernels; two are register monsters (microphysics, radiation).
    (0..cal::KERNELS_PER_STEP)
        .map(|k| {
            let heavy = k == 7 || k == 15;
            KernelSpec {
                flops: if heavy { 6.0e6 } else { 4.0e5 },
                bytes: if heavy { 2.0e6 } else { 3.0e5 },
                regs: if heavy { 8192 } else { 48 },
            }
        })
        .collect()
}

/// Per-step scratch allocation size (the pattern YAKL's pool exists for).
const SCRATCH_BYTES: u64 = 1 << 16;

/// Capture the per-step physics pipeline into a kernel graph and run the
/// configured optimization passes over it. The launch sequence of an MMF
/// step is fixed, so the graph is the natural IR for the §3.5 transforms:
/// fission splits the two register monsters into four spill-free parts
/// each, fusion merges runs of up to four small kernels into single
/// launches with a single memory sweep.
#[doc(hidden)]
pub fn capture_step_graph(device: &Device, columns: usize, cfg: E3smConfig) -> KernelGraph {
    let mut cap = GraphCapture::new();
    let pipeline = physics_pipeline();
    // Scratch is instantiated up-front in the graph's memory plan, one
    // block per kernel, so allocation nodes never interleave with (and
    // never break adjacency between) fusable kernels.
    for _ in &pipeline {
        cap.alloc();
    }
    for (i, k) in pipeline.iter().enumerate() {
        cap.kernel_fusable(
            KernelProfile::new(
                format!("physics{i}"),
                LaunchConfig::cover(columns as u64 * 64, 128),
            )
            .flops(k.flops * columns as f64, DType::F64)
            .bytes(
                k.bytes * columns as f64 * 0.7,
                k.bytes * columns as f64 * 0.3,
            )
            .regs(k.regs)
            .compute_eff(0.55)
            .mem_eff(0.6),
        );
    }
    let mut graph = cap.end();
    if cfg.fission_spilling {
        graph.fission_spills(&device.model, 4, 200);
    }
    if cfg.fuse_kernels {
        // Only kernels small per column (< 1e6 flops/column) are fusion
        // candidates; runs collapse four-at-a-time.
        graph.fuse_elementwise(&FusionPolicy::new(4, 1.0e6 * columns as f64));
    }
    graph
}

/// Simulate one column-physics timestep under a configuration; returns the
/// host-observed wall time for `columns` columns on one device.
pub fn step_time(device_arch: GpuArch, columns: usize, cfg: E3smConfig) -> SimTime {
    step_time_profiled(device_arch, columns, cfg, None)
}

/// [`step_time`] under observation: the stream's launches, allocation
/// charges, and graph replay land on a `<label>/queue` device track, the
/// whole step is wrapped in an `e3sm_step` phase span on `<label>/host`,
/// and the stream, graph, and pool statistics are poured into the
/// collector's metrics. The label namespaces the run's tracks — each
/// profiled step restarts virtual time at zero, so two runs sharing a
/// collector must use distinct labels to keep per-track timestamps
/// monotonic.
pub fn step_time_profiled(
    device_arch: GpuArch,
    columns: usize,
    cfg: E3smConfig,
    telemetry: Option<(&Arc<TelemetryCollector>, &str)>,
) -> SimTime {
    let gpu = match device_arch {
        GpuArch::Volta => exa_machine::GpuModel::v100(),
        GpuArch::Vega20 => exa_machine::GpuModel::mi60(),
        GpuArch::Cdna1 => exa_machine::GpuModel::mi100(),
        GpuArch::Cdna2 => exa_machine::GpuModel::mi250x_gcd(),
    };
    let api = if device_arch == GpuArch::Volta {
        ApiSurface::Cuda
    } else {
        ApiSurface::Hip
    };
    let device = Device::new(gpu, 0);
    let mut stream = Stream::new(device.clone(), api).expect("api supports arch");
    stream.set_sync_launch(!cfg.async_launch);
    if let Some((c, label)) = telemetry {
        stream.attach_telemetry(c, &format!("{label}/queue"));
    }

    let graph = capture_step_graph(&device, columns, cfg);

    if cfg.graph_replay {
        // The whole step is one graph launch; the scratch allocations live
        // in the graph's pre-instantiated memory plan.
        stream.replay(&graph);
        let t = stream.synchronize();
        finish_step_telemetry(telemetry, &mut stream, &graph, None, t);
        return t;
    }

    let mut pool = if cfg.pool_allocator {
        Some(PoolAllocator::new(device, 1 << 28, &mut stream).expect("arena fits"))
    } else {
        None
    };

    // Per-kernel launch loop: allocate scratch, launch, free — the
    // pre-graph driver, kept to quantify what replay buys.
    let profiles: Vec<KernelProfile> = graph.kernels().map(|n| n.profile.clone()).collect();
    for profile in &profiles {
        let block = match pool.as_mut() {
            Some(p) => Some(
                p.alloc(&mut stream, SCRATCH_BYTES)
                    .expect("pool sized for step"),
            ),
            None => {
                // Runtime allocation latency.
                stream.charge_host(stream.device().model.alloc_latency);
                None
            }
        };
        stream.launch_modeled(profile);
        if let (Some(p), Some(b)) = (pool.as_mut(), block) {
            p.free(&mut stream, b).expect("block is live");
        } else {
            stream.charge_host(stream.device().model.alloc_latency);
        }
    }
    let t = stream.synchronize();
    finish_step_telemetry(telemetry, &mut stream, &graph, pool.as_ref(), t);
    t
}

/// Close out an instrumented step: wrap the whole step in a host phase
/// span and pour stream, graph, and (if used) pool stats into the metrics.
fn finish_step_telemetry(
    telemetry: Option<(&Arc<TelemetryCollector>, &str)>,
    stream: &mut Stream,
    graph: &KernelGraph,
    pool: Option<&PoolAllocator>,
    wall: SimTime,
) {
    let Some((c, label)) = telemetry else { return };
    let host = c.track(&format!("{label}/host"), TrackKind::Host);
    c.complete(host, "e3sm_step", SpanCat::Phase, SimTime::ZERO, wall);
    stream.absorb_telemetry();
    c.absorb(&graph.stats());
    if let Some(p) = pool {
        c.absorb(&p.stats());
    }
}

/// The E3SM-MMF application.
#[derive(Debug, Clone, Default)]
pub struct E3sm;

impl E3sm {
    /// Simulated-time throughput (column-steps per second) for one GPU.
    pub fn throughput(arch: GpuArch, cfg: E3smConfig) -> f64 {
        let t = step_time(arch, cal::COLUMNS_PER_GPU, cfg);
        cal::COLUMNS_PER_GPU as f64 / t.secs()
    }
}

impl Application for E3sm {
    fn name(&self) -> &'static str {
        "E3SM"
    }

    fn paper_section(&self) -> &'static str {
        "3.5"
    }

    fn motifs(&self) -> Vec<Motif> {
        vec![
            Motif::PerformancePortability,
            Motif::KernelFusionFission,
            Motif::AlgorithmicOptimizations,
        ]
    }

    fn fom(&self) -> FigureOfMerit {
        FigureOfMerit::throughput("column throughput", "column-steps/s/GPU")
    }

    fn run(&self, machine: &MachineModel) -> FomMeasurement {
        let arch = machine.node.gpu().arch;
        let fom = Self::throughput(arch, E3smConfig::optimized());
        FomMeasurement::new(
            machine.name.clone(),
            format!("{} columns, optimized pipeline", cal::COLUMNS_PER_GPU),
            fom,
            SimTime::from_secs(cal::COLUMNS_PER_GPU as f64 / fom),
        )
    }

    fn paper_speedup(&self) -> Option<f64> {
        None // E3SM is not in Table 2; its §3.5 story is latency management.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiled_step_accounts_kernels_pool_and_phase() {
        let collector = TelemetryCollector::shared();
        let cfg = E3smConfig {
            pool_allocator: true,
            ..E3smConfig::naive()
        };
        let t = step_time_profiled(GpuArch::Cdna2, 64, cfg, Some((&collector, "e3sm")));
        let snap = collector.snapshot();
        // Per-kernel loop: one launch span per pipeline kernel, one pool
        // alloc/free pair each, and one host phase covering the step.
        let k = cal::KERNELS_PER_STEP as u64;
        assert_eq!(snap.counter("hal.kernels"), k);
        assert_eq!(snap.counter("hal.pool.allocs"), k);
        assert_eq!(snap.counter("hal.pool.frees"), k);
        let phase = snap
            .tracks
            .iter()
            .find(|tr| tr.name == "e3sm/host")
            .expect("host track");
        assert_eq!(phase.spans, 1);
        assert!((phase.end_s - t.secs()).abs() < 1e-12);
        exa_telemetry::validate_chrome_trace(&collector.chrome_trace()).expect("valid trace");
    }

    #[test]
    fn profiled_replay_is_one_graph_span() {
        let collector = TelemetryCollector::shared();
        let t = step_time_profiled(
            GpuArch::Cdna2,
            64,
            E3smConfig::optimized(),
            Some((&collector, "e3sm")),
        );
        assert!(t > SimTime::ZERO);
        let snap = collector.snapshot();
        assert_eq!(snap.counter("hal.graph_replays"), 1);
        assert_eq!(
            snap.counter("hal.kernels"),
            0,
            "replay charges no per-kernel launches"
        );
        assert!(snap.counter("hal.graph.fused_nodes") > 0);
    }

    #[test]
    fn every_knob_helps_on_frontier_hardware() {
        let arch = GpuArch::Cdna2;
        let base = step_time(arch, cal::COLUMNS_PER_GPU, E3smConfig::naive());
        for (name, cfg) in [
            (
                "fusion",
                E3smConfig {
                    fuse_kernels: true,
                    ..E3smConfig::naive()
                },
            ),
            (
                "fission",
                E3smConfig {
                    fission_spilling: true,
                    ..E3smConfig::naive()
                },
            ),
            (
                "async",
                E3smConfig {
                    async_launch: true,
                    ..E3smConfig::naive()
                },
            ),
            (
                "pool",
                E3smConfig {
                    pool_allocator: true,
                    ..E3smConfig::naive()
                },
            ),
        ] {
            let t = step_time(arch, cal::COLUMNS_PER_GPU, cfg);
            assert!(t < base, "{name} should help: {t} !< {base}");
        }
    }

    #[test]
    fn combined_optimizations_give_a_large_win() {
        let arch = GpuArch::Cdna2;
        let naive = step_time(arch, cal::COLUMNS_PER_GPU, E3smConfig::naive());
        let opt = step_time(arch, cal::COLUMNS_PER_GPU, E3smConfig::optimized());
        let speedup = naive / opt;
        assert!(speedup > 1.5, "latency work should compound: {speedup}");
    }

    #[test]
    fn graph_replay_collapses_launch_charges() {
        // hipGraph semantics: the whole step becomes one launch submission,
        // so replay subsumes the async-launch and pool-allocator knobs — a
        // blocking driver with neither knob still beats its per-kernel self
        // once the step is replayed as a graph (N launch charges and 2N
        // allocation charges collapse into one submit + cheap dispatches).
        let arch = GpuArch::Cdna2;
        let base = E3smConfig {
            fuse_kernels: true,
            fission_spilling: true,
            async_launch: false,
            pool_allocator: false,
            graph_replay: false,
        };
        let graphed = E3smConfig {
            graph_replay: true,
            ..base
        };
        let t_hand = step_time(arch, 64, base);
        let t_graph = step_time(arch, 64, graphed);
        assert!(
            t_graph < t_hand,
            "one graph launch should beat per-kernel launches: {t_graph} vs {t_hand}"
        );
        // And it is no worse than the fully hand-optimized driver beyond a
        // dispatch-noise margin.
        let hand_opt = step_time(
            arch,
            64,
            E3smConfig {
                graph_replay: false,
                ..E3smConfig::optimized()
            },
        );
        let t_opt = step_time(arch, 64, E3smConfig::optimized());
        assert!(
            t_opt < hand_opt * 1.01,
            "replay must not regress the optimized driver"
        );
    }

    #[test]
    fn fission_trades_launches_for_runtime() {
        // §3.5: fission means more launches but lower kernel runtimes; on a
        // spilling kernel the trade is worth it.
        let arch = GpuArch::Cdna2;
        let spilling = E3smConfig::naive();
        let fissioned = E3smConfig {
            fission_spilling: true,
            ..spilling
        };
        let t_spill = step_time(arch, cal::COLUMNS_PER_GPU, spilling);
        let t_fission = step_time(arch, cal::COLUMNS_PER_GPU, fissioned);
        assert!(t_fission < t_spill);
    }

    #[test]
    fn latency_matters_more_at_low_column_counts() {
        // Strong scaling shrinks per-GPU work and amplifies the benefit.
        let arch = GpuArch::Cdna2;
        // Isolate the latency knobs (async launch + pool allocator); the
        // fusion/fission knobs change kernel shapes, not latency exposure.
        let latency_only = E3smConfig {
            async_launch: true,
            pool_allocator: true,
            ..E3smConfig::naive()
        };
        let gain_small =
            step_time(arch, 64, E3smConfig::naive()) / step_time(arch, 64, latency_only);
        let gain_large =
            step_time(arch, 8192, E3smConfig::naive()) / step_time(arch, 8192, latency_only);
        assert!(
            gain_small > gain_large,
            "latency optimizations matter most when strong-scaled: {gain_small} vs {gain_large}"
        );
    }

    #[test]
    fn throughput_is_positive_on_all_gpu_archs() {
        for arch in [
            GpuArch::Volta,
            GpuArch::Vega20,
            GpuArch::Cdna1,
            GpuArch::Cdna2,
        ] {
            assert!(E3sm::throughput(arch, E3smConfig::optimized()) > 0.0);
        }
    }
}

// ---------------------------------------------------------------------------
// The throughput target: 1,000–2,000x realtime (§3.5).
// ---------------------------------------------------------------------------

/// Simulated-time-per-wall-time ratio for an MMF configuration: each column
/// step advances `step_seconds` of model time; the GPU sustains
/// `throughput` column-steps/s over `columns` columns.
pub fn realtime_ratio(arch: GpuArch, cfg: E3smConfig, columns: usize, step_seconds: f64) -> f64 {
    let t_wall = step_time(arch, columns, cfg);
    step_seconds / t_wall.secs()
}

#[cfg(test)]
mod throughput_tests {
    use super::*;

    /// §3.5: "a throughput target of 1,000-2,000x realtime". With the full
    /// latency optimizations and a production model step (~180 s of model
    /// time per physics step), the strong-scaled configuration clears 1000x
    /// and beats the naive configuration.
    #[test]
    fn optimized_pipeline_reaches_the_realtime_target() {
        let step_seconds = 180.0;
        let optimized = realtime_ratio(
            GpuArch::Cdna2,
            E3smConfig::optimized(),
            cal::COLUMNS_PER_GPU,
            step_seconds,
        );
        let naive = realtime_ratio(
            GpuArch::Cdna2,
            E3smConfig::naive(),
            cal::COLUMNS_PER_GPU,
            step_seconds,
        );
        assert!(
            optimized >= 1000.0,
            "the latency work exists to hit 1000-2000x realtime: {optimized:.0}x"
        );
        assert!(naive < optimized);
    }

    #[test]
    fn strong_scaling_hits_the_latency_wall() {
        // §3.5: strong scaling "decreases the per-node workload available to
        // GPU accelerators", making the model "highly sensitive to latency".
        // Below ~512 columns/GPU the step time is pure launch overhead: the
        // realtime multiple *saturates* instead of growing — the wall the
        // four mitigation strategies push back.
        let r2048 = realtime_ratio(GpuArch::Cdna2, E3smConfig::optimized(), 2048, 180.0);
        let r512 = realtime_ratio(GpuArch::Cdna2, E3smConfig::optimized(), 512, 180.0);
        let r32 = realtime_ratio(GpuArch::Cdna2, E3smConfig::optimized(), 32, 180.0);
        assert!(
            r512 > r2048,
            "halving work below 2048 columns still helps: {r512} vs {r2048}"
        );
        assert!(
            (r32 / r512 - 1.0).abs() < 0.05,
            "below the wall, 16x less work buys nothing: {r32} vs {r512}"
        );
        // The naive pipeline is deep inside the wall much earlier.
        let naive512 = realtime_ratio(GpuArch::Cdna2, E3smConfig::naive(), 512, 180.0);
        assert!(r512 / naive512 > 2.0, "the optimizations move the wall");
    }
}
