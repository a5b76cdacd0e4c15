//! Property-based tests on the unified telemetry layer (ISSUE PR 2
//! satellite): for arbitrary operation sequences on an instrumented
//! `Stream` or `Comm`,
//!
//! * the Chrome-trace export is valid JSON obeying the Trace Event
//!   invariants (monotonic per-track timestamps, `X` durations ≥ 0,
//!   children contained in their parents);
//! * the snapshot's unified counters equal the underlying per-subsystem
//!   statistics, exactly;
//! * nested spans opened through the RAII guard API close in order, with
//!   every child inside its parent.

use exaready::hal::{
    ApiSurface, DType, Device, KernelProfile, LaunchConfig, Stream, TelemetryCollector,
};
use exaready::machine::{GpuModel, MachineModel, SimTime};
use exaready::mpi::{Comm, Network};
use exaready::telemetry::validate::{parse_json, JsonValue};
use exaready::telemetry::{
    validate_chrome_trace, RooflinePoint, RooflineReport, SpanCat, TrackKind,
};
use proptest::prelude::*;

fn stream() -> Stream {
    Stream::new(Device::new(GpuModel::mi250x_gcd(), 0), ApiSurface::Hip).unwrap()
}

/// Drive one encoded op against the stream. Op 3 replays an 8-kernel graph
/// captured on first use.
fn run_stream_op(
    s: &mut Stream,
    graph: &mut Option<exaready::hal::KernelGraph>,
    op: u8,
    bytes: u64,
) {
    match op {
        0 => {
            let k = KernelProfile::new("k", LaunchConfig::cover(1 << 16, 256))
                .flops(bytes as f64, DType::F64)
                .bytes(bytes as f64, bytes as f64);
            s.launch_modeled(&k);
        }
        1 => {
            s.upload_modeled(bytes);
        }
        2 => {
            s.download_modeled(bytes);
        }
        _ => {
            let g = graph.get_or_insert_with(|| {
                let mut cap = stream();
                cap.begin_capture();
                for i in 0..8 {
                    cap.launch_modeled(
                        &KernelProfile::new(format!("g{i}"), LaunchConfig::cover(1 << 14, 256))
                            .flops(1.0e6, DType::F64)
                            .bytes(1.0e5, 1.0e5),
                    );
                }
                cap.end_capture()
            });
            s.replay(g);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any op sequence on an instrumented stream yields a snapshot whose
    /// counters equal the stream's own statistics, and a valid trace whose
    /// per-track span count matches the snapshot.
    #[test]
    fn stream_snapshot_matches_stats(
        ops in prop::collection::vec((0u8..4, 1u64..1_000_000), 1..40)
    ) {
        let collector = TelemetryCollector::shared();
        let mut s = stream();
        s.attach_telemetry(&collector, "gpu0/queue");
        let mut graph = None;
        for &(op, bytes) in &ops {
            run_stream_op(&mut s, &mut graph, op, bytes);
        }
        s.synchronize();
        s.absorb_telemetry();

        let stats = s.stats();
        let snap = collector.snapshot();
        prop_assert_eq!(snap.counter("hal.kernels"), stats.kernels);
        prop_assert_eq!(snap.counter("hal.bytes_h2d"), stats.bytes_h2d);
        prop_assert_eq!(snap.counter("hal.bytes_d2h"), stats.bytes_d2h);
        prop_assert_eq!(snap.counter("hal.graph_replays"), stats.graph_replays);
        prop_assert_eq!(snap.counter("hal.graph_kernels"), stats.graph_kernels);
        // Every op leaves exactly one span on the queue track.
        prop_assert_eq!(snap.spans_total, ops.len() as u64);
        let busy: f64 = snap.tracks.iter().map(|t| t.busy_s).sum();
        let err = (busy - stats.device_busy.secs()).abs();
        prop_assert!(err < 1e-9 * ops.len() as f64, "busy {busy} vs {}", stats.device_busy);

        let summary = validate_chrome_trace(&collector.chrome_trace());
        prop_assert!(summary.is_ok(), "invalid trace: {:?}", summary.err());
        // `events` counts duration (X) events only — metadata excluded.
        prop_assert_eq!(summary.unwrap().events as u64, snap.spans_total);
    }

    /// Any mix of blocking and split-phase collectives on an instrumented
    /// communicator yields matching counters, one span per rank, and a
    /// valid trace.
    #[test]
    fn comm_snapshot_matches_stats(
        ranks in 2usize..9,
        ops in prop::collection::vec((0u8..5, 1u64..1_000_000), 1..30)
    ) {
        let collector = TelemetryCollector::shared();
        let net = Network::from_machine(&MachineModel::frontier());
        let mut comm = Comm::new(ranks, net);
        comm.attach_telemetry(&collector, "mpi");
        let mut expect_spans = 0u64;
        for &(op, bytes) in &ops {
            match op {
                0 => { comm.allreduce(bytes); expect_spans += ranks as u64; }
                1 => { comm.bcast(bytes); expect_spans += ranks as u64; }
                2 => {
                    let len = 1 + (bytes % 64) as usize;
                    comm.allreduce_sum_f64(&mut vec![vec![1.0; len]; ranks]);
                    expect_spans += ranks as u64;
                }
                3 => {
                    comm.alltoallv(ranks, ranks - 1, bytes * (ranks as u64 - 1));
                    expect_spans += ranks as u64;
                }
                _ => {
                    let req = comm.ialltoallv(ranks, ranks - 1, bytes * (ranks as u64 - 1));
                    req.wait(&mut comm);
                    expect_spans += ranks as u64;
                }
            }
        }
        comm.absorb_telemetry();

        let stats = comm.stats();
        let snap = collector.snapshot();
        prop_assert_eq!(snap.counter("mpi.bytes"), stats.bytes);
        prop_assert_eq!(snap.counter("mpi.collectives"), stats.collectives);
        prop_assert_eq!(snap.spans_total, expect_spans);
        prop_assert_eq!(snap.tracks.len(), ranks);

        let summary = validate_chrome_trace(&collector.chrome_trace());
        prop_assert!(summary.is_ok(), "invalid trace: {:?}", summary.err());
    }

    /// Arbitrary push/pop nesting through `begin`/`end` produces a
    /// structurally sound timeline: depths follow the open-stack, children
    /// are contained in parents (checked independently by the Chrome-trace
    /// validator via `args.depth`), and per-track time is monotonic.
    #[test]
    fn guarded_nesting_is_contained(
        script in prop::collection::vec((0u8..2, 1u32..1000), 2..30)
    ) {
        let collector = TelemetryCollector::shared();
        let track = collector.track("host", TrackKind::Host);
        let mut cursor = SimTime::ZERO;
        let mut open = Vec::new();
        for &(action, dt) in &script {
            cursor += SimTime::from_micros(dt as f64);
            if action == 0 || open.is_empty() {
                open.push(collector.begin(track, "phase", SpanCat::Phase, cursor));
            } else {
                collector.end(open.pop().unwrap(), cursor);
            }
        }
        // Close the rest innermost-first.
        while let Some(id) = open.pop() {
            cursor += SimTime::from_micros(1.0);
            collector.end(id, cursor);
        }

        let snap = collector.snapshot();
        let opens = script.iter().filter(|&&(a, _)| a == 0).count() as u64;
        prop_assert!(snap.spans_total >= opens, "every begin records a span");
        let summary = validate_chrome_trace(&collector.chrome_trace());
        prop_assert!(summary.is_ok(), "invalid trace: {:?}", summary.err());
    }

    /// The Chrome-trace export is a pure function of the recorded spans:
    /// recording the same spans in any order — including fully reversed
    /// cross-track interleavings — renders a byte-identical artifact.
    #[test]
    fn chrome_trace_is_order_independent(
        spans in prop::collection::vec(
            (0usize..3, 0usize..4, 0u32..100_000, 1u32..5_000), 1..40)
    ) {
        const NAMES: [&str; 4] = ["fft", "gemm", "halo", "advance"];
        let build = |reversed: bool| {
            let collector = TelemetryCollector::shared();
            let tracks = [
                collector.track("gpu0", TrackKind::DeviceQueue),
                collector.track("gpu1", TrackKind::DeviceQueue),
                collector.track("rank0", TrackKind::CommRank),
            ];
            let mut ops = spans.clone();
            if reversed {
                ops.reverse();
            }
            for (t, n, start, dur) in ops {
                let s0 = SimTime::from_micros(start as f64);
                collector.complete(tracks[t], NAMES[n], SpanCat::Kernel, s0,
                    s0 + SimTime::from_micros(dur as f64));
            }
            collector.chrome_trace()
        };
        let fwd = build(false);
        let rev = build(true);
        prop_assert_eq!(&fwd, &rev, "trace must not depend on recording order");
        prop_assert!(validate_chrome_trace(&fwd).is_ok());
    }

    /// Roofline-report JSON round-trips through the vendored parser with
    /// exact field equality (the writer emits shortest-round-trip floats).
    #[test]
    fn roofline_json_round_trips(
        points in prop::collection::vec(
            (0usize..4, 1u64..1000, 1e-6f64..1.0, 1.0f64..5e4, 0.01f64..1e3), 0..10)
    ) {
        const NAMES: [&str; 4] = ["dot", "spmv", "stencil", "chem"];
        let report = RooflineReport {
            device: "MI250X GCD".to_string(),
            peak_gflops: 23950.0,
            mem_bw_gbs: 1638.4,
            ridge_intensity: 23950.0 / 1638.4,
            points: points.iter().map(|&(n, calls, time_s, gflops, intensity)| RooflinePoint {
                name: NAMES[n].to_string(),
                calls,
                time_s,
                gflops,
                intensity,
                bound: if intensity > 14.6 { "Compute" } else { "Memory" }.to_string(),
            }).collect(),
        };
        let doc = parse_json(&serde_json::to_string_pretty(&report).unwrap());
        prop_assert!(doc.is_ok(), "roofline JSON unparsable: {:?}", doc.err());
        let doc = doc.unwrap();
        prop_assert_eq!(doc.get("device").and_then(JsonValue::as_str), Some("MI250X GCD"));
        prop_assert_eq!(doc.get("peak_gflops").and_then(JsonValue::as_f64), Some(23950.0));
        let pts = doc.get("points").and_then(JsonValue::as_array).unwrap();
        prop_assert_eq!(pts.len(), report.points.len());
        for (p, orig) in pts.iter().zip(&report.points) {
            prop_assert_eq!(p.get("name").and_then(JsonValue::as_str), Some(orig.name.as_str()));
            prop_assert_eq!(p.get("calls").and_then(JsonValue::as_u64), Some(orig.calls));
            prop_assert_eq!(p.get("time_s").and_then(JsonValue::as_f64), Some(orig.time_s));
            prop_assert_eq!(p.get("gflops").and_then(JsonValue::as_f64), Some(orig.gflops));
            prop_assert_eq!(
                p.get("intensity").and_then(JsonValue::as_f64), Some(orig.intensity));
            prop_assert_eq!(p.get("bound").and_then(JsonValue::as_str), Some(orig.bound.as_str()));
        }
    }

    /// The hotspot CSV round-trips semantically: re-parsing the rows
    /// recovers per-kernel call counts and total time, and the shares sum
    /// to ~100% whenever any non-phase time was recorded.
    #[test]
    fn hotspot_csv_round_trips(
        spans in prop::collection::vec((0usize..3, 1u32..10_000), 1..30)
    ) {
        const NAMES: [&str; 3] = ["fft", "gemm", "halo"];
        let collector = TelemetryCollector::shared();
        let track = collector.track("gpu0", TrackKind::DeviceQueue);
        let mut cursor = SimTime::ZERO;
        let mut want: std::collections::BTreeMap<&str, (u64, f64)> = Default::default();
        for &(n, dur) in &spans {
            let d = SimTime::from_micros(dur as f64);
            collector.complete(track, NAMES[n], SpanCat::Kernel, cursor, cursor + d);
            let e = want.entry(NAMES[n]).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += d.secs() * 1e6;
            cursor += d;
        }

        let csv = collector.hotspot_csv();
        let mut lines = csv.lines();
        prop_assert_eq!(lines.next(), Some("name,category,calls,total_us,share_pct"));
        let mut share_sum = 0.0;
        let mut seen = 0usize;
        for line in lines {
            let cols: Vec<&str> = line.split(',').collect();
            prop_assert_eq!(cols.len(), 5, "malformed row {line:?}");
            let (calls, total_us) = want[cols[0]];
            prop_assert_eq!(cols[1], "kernel");
            prop_assert_eq!(cols[2].parse::<u64>().unwrap(), calls);
            let got_us = cols[3].parse::<f64>().unwrap();
            prop_assert!((got_us - total_us).abs() < 1e-2, "{}: {got_us} vs {total_us}", cols[0]);
            share_sum += cols[4].parse::<f64>().unwrap();
            seen += 1;
        }
        prop_assert_eq!(seen, want.len(), "one row per distinct kernel");
        prop_assert!((share_sum - 100.0).abs() < 0.1, "shares sum to {share_sum}");
    }
}
