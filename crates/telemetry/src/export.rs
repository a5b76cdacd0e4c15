//! Exporters: Chrome Trace Event JSON (Perfetto / `chrome://tracing`), a
//! rocprof-style hotspot CSV, Prometheus text format, collapsed flamegraph
//! stacks, and roofline-report JSON.

use crate::metrics::TelemetrySnapshot;
use crate::span::{SpanCat, Timeline};
use exa_machine::SimTime;
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write;

/// Render a timeline as a Chrome Trace Event JSON array: one `pid`, one
/// `tid` per track (named via `M` thread-name metadata events), and one
/// complete (`"ph":"X"`) event per span with `ts`/`dur` in microseconds of
/// virtual time.
///
/// The output is **deterministic**: thread-name metadata comes first (in
/// track-registration order, which fixes the `tid` assignment), then every
/// duration event globally stable-sorted by `(ts, depth, name, tid)`.
/// Sorting primarily by `ts` makes run-to-run diffs of the artifact
/// reproducible regardless of track interleaving during recording; the
/// `depth` tiebreak keeps a parent ahead of a child that starts at the
/// same instant, so the validator's containment check still sees parents
/// before children.
pub fn chrome_trace(timeline: &Timeline) -> String {
    let mut out = String::from("[");
    let mut first = true;
    let sep = |out: &mut String, first: &mut bool| {
        if *first {
            *first = false;
        } else {
            out.push(',');
        }
        out.push_str("\n  ");
    };
    for (i, track) in timeline.tracks().iter().enumerate() {
        let tid = i + 1;
        sep(&mut out, &mut first);
        write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":"
        )
        .expect("write to String");
        let label = format!("{} [{}]", track.name, track.kind.label());
        serde::write_escaped(&mut out, &label);
        out.push_str("}}");
    }
    // (ts_us, depth, name, tid, dur_us, cat) — the stable global order.
    let mut events: Vec<(f64, usize, &str, usize, f64, &'static str)> = Vec::new();
    for (i, track) in timeline.tracks().iter().enumerate() {
        for span in track.spans() {
            events.push((
                span.start.secs() * 1e6,
                span.depth,
                &span.name,
                i + 1,
                (span.end - span.start).secs() * 1e6,
                span.cat.label(),
            ));
        }
    }
    events.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(b.2))
            .then(a.3.cmp(&b.3))
    });
    for (ts, depth, name, tid, dur, cat) in events {
        sep(&mut out, &mut first);
        out.push_str("{\"name\":");
        serde::write_escaped(&mut out, name);
        write!(
            out,
            ",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":1,\
             \"tid\":{tid},\"args\":{{\"depth\":{depth}}}}}"
        )
        .expect("write to String");
    }
    out.push_str("\n]\n");
    out
}

/// Aggregate kernel-ish spans (kernels, graph replays, DMA, collectives) by
/// name into a rocprof-style CSV: name, category, calls, total µs, share of
/// the aggregated time. Hottest first.
pub fn hotspot_csv(timeline: &Timeline) -> String {
    let mut agg: HashMap<(&str, SpanCat), (u64, SimTime)> = HashMap::new();
    for track in timeline.tracks() {
        for span in track.spans() {
            if span.cat == SpanCat::Phase {
                continue; // host phases are structure, not hotspots
            }
            let e = agg
                .entry((&span.name, span.cat))
                .or_insert((0, SimTime::ZERO));
            e.0 += 1;
            e.1 += span.duration();
        }
    }
    let total: SimTime = agg.values().map(|(_, t)| *t).sum();
    let mut rows: Vec<(&str, SpanCat, u64, SimTime)> = agg
        .into_iter()
        .map(|((n, c), (calls, t))| (n, c, calls, t))
        .collect();
    rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
    let mut out = String::from("name,category,calls,total_us,share_pct\n");
    for (name, cat, calls, t) in rows {
        let share = if total.is_zero() {
            0.0
        } else {
            t / total * 100.0
        };
        csv_field(&mut out, name);
        writeln!(
            out,
            ",{},{},{:.3},{:.2}",
            cat.label(),
            calls,
            t.secs() * 1e6,
            share
        )
        .expect("write to String");
    }
    out
}

/// Append one CSV field, RFC-4180-quoted only when the content demands it
/// (commas, quotes, or line breaks) so plain names render unchanged.
fn csv_field(out: &mut String, field: &str) {
    if field.contains([',', '"', '\n', '\r']) {
        out.push('"');
        for ch in field.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Sanitize a dotted metric name into a Prometheus-legal one, prefixed
/// with the `exa_` namespace: `[a-zA-Z0-9_:]` pass through, everything
/// else (dots, dashes, slashes, spaces) becomes `_`.
pub fn prometheus_name(name: &str) -> String {
    let mut s = String::with_capacity(name.len() + 4);
    s.push_str("exa_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' || ch == ':' {
            s.push(ch);
        } else {
            s.push('_');
        }
    }
    s
}

/// Build a labeled registry key: `base{k="v",...}`. The label block uses
/// Prometheus's own syntax, so [`prometheus_text`] can splice it straight
/// into sample lines; values escape `\`, `"`, and newlines. Labels with
/// empty values are dropped — a clean run's `scenario=""` never clutters
/// the series — and an all-empty label list yields the bare base name.
pub fn labeled_key(base: &str, labels: &[(&str, &str)]) -> String {
    let mut s = String::with_capacity(base.len() + 16);
    push_labeled_key(&mut s, base, labels);
    s
}

/// Append [`labeled_key`]`(base, labels)` to `out`, allocating nothing
/// when `out` has room: the form a caller that re-renders keys into
/// buffers it keeps uses.
pub fn push_labeled_key(out: &mut String, base: &str, labels: &[(&str, &str)]) {
    out.push_str(base);
    let mut sep = '{';
    for (k, v) in labels.iter().filter(|(_, v)| !v.is_empty()) {
        out.push(sep);
        sep = ',';
        out.push_str(k);
        out.push_str("=\"");
        for ch in v.chars() {
            match ch {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    if sep == ',' {
        out.push('}');
    }
}

/// Split a registry key into `(base, label_block)`: the block includes its
/// braces (`{app="Pele"}`) and is `None` for unlabeled keys.
fn split_key(key: &str) -> (&str, Option<&str>) {
    match key.find('{') {
        Some(i) if key.ends_with('}') => (&key[..i], Some(&key[i..])),
        _ => (key, None),
    }
}

/// Group registry keys into Prometheus families: `family_name(base)` maps
/// every key to its family, the returned map holds, per family, the label
/// block + payload of every variant in registry (BTreeMap) order. This is
/// what keeps the output at **one `# TYPE` line per family** even when a
/// base name carries several label sets.
fn group_families<'a, V: Copy>(
    entries: impl Iterator<Item = (&'a String, V)>,
    family_name: impl Fn(&str) -> String,
) -> BTreeMap<String, Vec<(Option<&'a str>, V)>> {
    let mut fams: BTreeMap<String, Vec<(Option<&'a str>, V)>> = BTreeMap::new();
    for (key, v) in entries {
        let (base, block) = split_key(key);
        fams.entry(family_name(base)).or_default().push((block, v));
    }
    fams
}

/// Append a label block (or nothing) after a metric name.
fn push_labels(out: &mut String, block: Option<&str>) {
    if let Some(b) = block {
        out.push_str(b);
    }
}

/// Fuse a histogram variant's label block with its `le` bucket label:
/// `{app="Pele"}` + `0.5` → `{app="Pele",le="0.5"}`.
fn bucket_labels(block: Option<&str>, le: &str) -> String {
    match block {
        Some(b) => format!("{},le=\"{le}\"}}", &b[..b.len() - 1]),
        None => format!("{{le=\"{le}\"}}"),
    }
}

fn prom_f64(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v == f64::INFINITY {
        out.push_str("+Inf");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Inf");
    } else {
        write!(out, "{v}").expect("write to String");
    }
}

/// Render a [`TelemetrySnapshot`] in the Prometheus text exposition
/// format: every counter as `<name>_total`, every gauge as-is, every
/// accumulated virtual time as `<name>_seconds_total`, and every histogram
/// as the conventional cumulative `_bucket{le=...}` / `_sum` / `_count`
/// family.
///
/// Registry keys built with [`labeled_key`] (`base{k="v",...}`) render as
/// labeled series under the base name's family: all label sets of one base
/// share a **single** `# TYPE` line, and labeled histogram variants fuse
/// their labels with the `le` bucket label. Deterministic: families emit
/// in name order, variants in registry (`BTreeMap` key) order.
pub fn prometheus_text(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    let family = |out: &mut String, name: &str, kind: &str| {
        writeln!(out, "# TYPE {name} {kind}").expect("write to String");
    };
    family(&mut out, "exa_spans_total", "counter");
    writeln!(out, "exa_spans_total {}", snapshot.spans_total).expect("write to String");
    family(&mut out, "exa_wall_seconds", "gauge");
    out.push_str("exa_wall_seconds ");
    prom_f64(&mut out, snapshot.wall_s);
    out.push('\n');
    for (name, variants) in group_families(snapshot.counters.iter().map(|(k, &v)| (k, v)), |b| {
        format!("{}_total", prometheus_name(b))
    }) {
        family(&mut out, &name, "counter");
        for (block, v) in variants {
            out.push_str(&name);
            push_labels(&mut out, block);
            writeln!(out, " {v}").expect("write to String");
        }
    }
    for (name, variants) in group_families(
        snapshot.gauges.iter().map(|(k, &v)| (k, v)),
        prometheus_name,
    ) {
        family(&mut out, &name, "gauge");
        for (block, v) in variants {
            out.push_str(&name);
            push_labels(&mut out, block);
            out.push(' ');
            prom_f64(&mut out, v);
            out.push('\n');
        }
    }
    for (name, variants) in group_families(snapshot.times_s.iter().map(|(k, &v)| (k, v)), |b| {
        format!("{}_seconds_total", prometheus_name(b))
    }) {
        family(&mut out, &name, "counter");
        for (block, v) in variants {
            out.push_str(&name);
            push_labels(&mut out, block);
            out.push(' ');
            prom_f64(&mut out, v);
            out.push('\n');
        }
    }
    for (name, variants) in group_families(snapshot.hists.iter(), prometheus_name) {
        family(&mut out, &name, "histogram");
        for (block, h) in variants {
            let mut cum = 0u64;
            for (edge, n) in h.buckets() {
                cum += n;
                let mut le = String::new();
                prom_f64(&mut le, edge);
                writeln!(out, "{name}_bucket{} {cum}", bucket_labels(block, &le))
                    .expect("write to String");
            }
            writeln!(
                out,
                "{name}_bucket{} {}",
                bucket_labels(block, "+Inf"),
                h.count()
            )
            .expect("write to String");
            out.push_str(&name);
            out.push_str("_sum");
            push_labels(&mut out, block);
            out.push(' ');
            prom_f64(&mut out, h.sum());
            out.push('\n');
            writeln!(out, "{name}_count{} {}", block.unwrap_or(""), h.count())
                .expect("write to String");
        }
    }
    out
}

/// Render a timeline as collapsed flamegraph stacks (`folded` format, the
/// input of `flamegraph.pl` and speedscope): one line per unique stack,
/// `track;outer;inner <self_weight_ns>`, with weights in integer
/// nanoseconds of *self* time (span duration minus its children). Frames
/// sanitize `;` and line breaks; zero-self-time lines are dropped; output
/// is sorted by stack string so equal timelines fold byte-identically.
pub fn folded_stacks(timeline: &Timeline) -> String {
    fn frame(name: &str) -> String {
        name.chars()
            .map(|c| {
                if c == ';' || c == '\n' || c == '\r' {
                    ':'
                } else {
                    c
                }
            })
            .collect()
    }
    struct Open {
        path: String,
        dur_ns: u64,
        child_ns: u64,
    }
    let mut weights: BTreeMap<String, u64> = BTreeMap::new();
    let flush = |o: Open, weights: &mut BTreeMap<String, u64>| {
        let self_ns = o.dur_ns.saturating_sub(o.child_ns);
        if self_ns > 0 {
            *weights.entry(o.path).or_insert(0) += self_ns;
        }
    };
    for track in timeline.tracks() {
        let root = frame(&track.name);
        let mut spans: Vec<_> = track.spans().iter().collect();
        // Parents sort ahead of the children they contain: earlier start
        // first, and at an equal start the smaller depth.
        spans.sort_by(|a, b| {
            a.start
                .cmp(&b.start)
                .then(a.depth.cmp(&b.depth))
                .then(a.name.cmp(&b.name))
        });
        let mut stack: Vec<Open> = Vec::new();
        for span in spans {
            while stack.len() > span.depth {
                let top = stack.pop().expect("stack non-empty");
                flush(top, &mut weights);
            }
            let dur_ns = (span.duration().secs() * 1e9).round() as u64;
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += dur_ns;
            }
            let parent_path = stack
                .last()
                .map(|o| o.path.as_str())
                .unwrap_or(root.as_str())
                .to_string();
            let path = format!("{parent_path};{}", frame(&span.name));
            stack.push(Open {
                path,
                dur_ns,
                child_ns: 0,
            });
        }
        while let Some(top) = stack.pop() {
            flush(top, &mut weights);
        }
    }
    let mut out = String::new();
    for (path, ns) in weights {
        writeln!(out, "{path} {ns}").expect("write to String");
    }
    out
}

/// One kernel on the roofline plane.
#[derive(Debug, Clone, Serialize)]
pub struct RooflinePoint {
    /// Kernel name.
    pub name: String,
    /// Launches aggregated into the point.
    pub calls: u64,
    /// Total device time, seconds.
    pub time_s: f64,
    /// Achieved GFLOP/s.
    pub gflops: f64,
    /// Arithmetic intensity, FLOPs per byte.
    pub intensity: f64,
    /// Dominant bound label (`Compute` / `Memory` / `Latency`).
    pub bound: String,
}

/// A roofline report: the device ceilings plus per-kernel points. Built by
/// `exa-hal`'s `Tracer::roofline` from its recorded launch events.
#[derive(Debug, Clone, Serialize)]
pub struct RooflineReport {
    /// Device name.
    pub device: String,
    /// F64 peak, GFLOP/s.
    pub peak_gflops: f64,
    /// HBM bandwidth, GB/s.
    pub mem_bw_gbs: f64,
    /// Intensity at which the two ceilings meet, FLOP/byte.
    pub ridge_intensity: f64,
    /// Per-kernel points, hottest first.
    pub points: Vec<RooflinePoint>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::TrackKind;
    use crate::validate::{parse_json, validate_chrome_trace};

    fn s(x: f64) -> SimTime {
        SimTime::from_secs(x)
    }

    #[test]
    fn chrome_trace_is_valid_and_named() {
        let mut tl = Timeline::default();
        let g = tl.track("gpu \"0\"", TrackKind::DeviceQueue);
        tl.complete(g, "chem_rates", SpanCat::Kernel, s(0.0), s(1e-6));
        tl.complete(g, "h2d", SpanCat::Dma, s(1e-6), s(3e-6));
        let json = chrome_trace(&tl);
        let summary = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(summary.events, 2);
        assert_eq!(summary.tracks, 1);
    }

    #[test]
    fn chrome_trace_escapes_track_and_span_names() {
        let mut tl = Timeline::default();
        let g = tl.track("q\"\\", TrackKind::DeviceQueue);
        tl.complete(g, "a\nb\tc\u{1}d\re", SpanCat::Kernel, s(0.0), s(1e-6));
        let json = chrome_trace(&tl);
        assert!(
            json.contains(r#""args":{"name":"q\"\\ [device_queue]"}}"#),
            "{json}"
        );
        assert!(
            json.contains(r#"{"name":"a\nb\tc\u0001d\re","cat":"#),
            "{json}"
        );
        validate_chrome_trace(&json).expect("valid trace");
    }

    #[test]
    fn chrome_trace_is_deterministic_across_recording_interleave() {
        // Same spans, recorded in different track interleavings: the
        // rendered artifact must be byte-identical, and globally ts-sorted.
        let build = |swap: bool| {
            let mut tl = Timeline::default();
            let a = tl.track("gpu0", TrackKind::DeviceQueue);
            let b = tl.track("gpu1", TrackKind::DeviceQueue);
            let mut ops: Vec<(crate::span::TrackId, &str, f64, f64)> = vec![
                (a, "k1", 0.0, 1e-6),
                (b, "k2", 0.5e-6, 2e-6),
                (a, "k3", 2e-6, 3e-6),
                (b, "k4", 2e-6, 4e-6),
            ];
            if swap {
                ops.reverse();
            }
            for (t, n, s0, s1) in ops {
                tl.complete(t, n.to_string(), SpanCat::Kernel, s(s0), s(s1));
            }
            chrome_trace(&tl)
        };
        let fwd = build(false);
        let rev = build(true);
        assert_eq!(fwd, rev, "event order must not depend on recording order");
        // Duration events are globally ts-sorted.
        let doc = parse_json(&fwd).unwrap();
        let ts: Vec<f64> = doc
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(crate::validate::JsonValue::as_str) == Some("X"))
            .map(|e| e.get("ts").unwrap().as_f64().unwrap())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "ts not sorted: {ts:?}");
        validate_chrome_trace(&fwd).expect("still a valid trace");
    }

    #[test]
    fn hotspot_csv_ranks_by_time() {
        let mut tl = Timeline::default();
        let g = tl.track("gpu0", TrackKind::DeviceQueue);
        for i in 0..3 {
            tl.complete(g, "hot", SpanCat::Kernel, s(i as f64), s(i as f64 + 0.9));
        }
        tl.complete(g, "cold", SpanCat::Kernel, s(3.0), s(3.01));
        tl.complete(g, "setup", SpanCat::Phase, s(0.0), s(10.0)); // excluded
        let csv = hotspot_csv(&tl);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "name,category,calls,total_us,share_pct"
        );
        assert!(lines.next().unwrap().starts_with("hot,kernel,3,"));
        assert!(lines.next().unwrap().starts_with("cold,kernel,1,"));
        assert!(!csv.contains("setup"));
    }

    #[test]
    fn hotspot_csv_quotes_hostile_names_and_validates() {
        let mut tl = Timeline::default();
        let g = tl.track("gpu0", TrackKind::DeviceQueue);
        tl.complete(g, "axpy, fused \"hot\"", SpanCat::Kernel, s(0.0), s(1.0));
        tl.complete(g, "plain", SpanCat::Kernel, s(1.0), s(1.5));
        let csv = hotspot_csv(&tl);
        assert!(csv.contains("\"axpy, fused \"\"hot\"\"\",kernel,1,"));
        assert!(
            csv.contains("\nplain,kernel,1,"),
            "plain names stay unquoted"
        );
        let rows = crate::validate::validate_hotspot_csv(&csv).expect("rfc-4180 clean");
        assert_eq!(rows, 2);
    }

    #[test]
    fn prometheus_text_renders_and_validates() {
        use crate::metrics::MetricsRegistry;
        let mut tl = Timeline::default();
        let h = tl.track("host", TrackKind::Host);
        tl.complete(h, "step", SpanCat::Phase, s(0.0), s(2.0));
        let mut m = MetricsRegistry::default();
        m.counter_add("pool.tasks", 7);
        m.gauge_set("mpi.overlap_efficiency", 0.8);
        m.time_add("mpi.wait", SimTime::from_secs(0.25));
        for v in [0.001, 0.002, 0.004, 0.004] {
            m.hist_record("pool.task_run_s", v);
        }
        let snap = TelemetrySnapshot::build(&tl, &m);
        let text = prometheus_text(&snap);
        let summary = crate::validate::validate_prometheus(&text).expect("valid exposition");
        assert!(summary.families >= 5);
        let doc = crate::validate::parse_prometheus(&text).unwrap();
        assert_eq!(doc.value_labeled("exa_pool_tasks_total", &[]), Some(7.0));
        assert_eq!(
            doc.value_labeled("exa_mpi_overlap_efficiency", &[]),
            Some(0.8)
        );
        assert_eq!(
            doc.value_labeled("exa_mpi_wait_seconds_total", &[]),
            Some(0.25)
        );
        assert_eq!(
            doc.value_labeled("exa_pool_task_run_s_count", &[]),
            Some(4.0)
        );
        let inf = doc
            .samples
            .iter()
            .find(|sm| {
                sm.name == "exa_pool_task_run_s_bucket"
                    && sm.labels.iter().any(|(_, v)| v == "+Inf")
            })
            .expect("+Inf bucket");
        assert_eq!(inf.value, 4.0);
    }

    #[test]
    fn labeled_key_builds_and_drops_empty_values() {
        assert_eq!(
            labeled_key("fom.eval_s", &[("app", "Pele")]),
            "fom.eval_s{app=\"Pele\"}"
        );
        assert_eq!(
            labeled_key("fom.eval_s", &[("app", "Pele"), ("scenario", "mtbf-7")]),
            "fom.eval_s{app=\"Pele\",scenario=\"mtbf-7\"}"
        );
        assert_eq!(
            labeled_key("fom.eval_s", &[("app", "Pele"), ("scenario", "")]),
            "fom.eval_s{app=\"Pele\"}",
            "empty label values are dropped"
        );
        assert_eq!(labeled_key("fom.eval_s", &[("scenario", "")]), "fom.eval_s");
        assert_eq!(
            labeled_key("x", &[("k", "a\"b\\c")]),
            "x{k=\"a\\\"b\\\\c\"}",
            "quotes and backslashes escape"
        );
    }

    #[test]
    fn prometheus_text_renders_labeled_series_with_one_type_line() {
        use crate::metrics::MetricsRegistry;
        let tl = Timeline::default();
        let mut m = MetricsRegistry::default();
        m.counter_add("fom.evals", 3);
        m.counter_add(
            &labeled_key("fom.evals", &[("app", "GESTS"), ("scenario", "mtbf-7")]),
            2,
        );
        m.counter_add(&labeled_key("fom.evals", &[("app", "Pele")]), 1);
        for v in [0.001, 0.002, 0.004] {
            m.hist_record(&labeled_key("serve.latency_s", &[("app", "CoMet")]), v);
            m.hist_record("serve.latency_s", v);
        }
        m.gauge_set(
            &labeled_key("serve.shard_occupancy", &[("shard", "0")]),
            17.0,
        );
        let snap = TelemetrySnapshot::build(&tl, &m);
        let text = prometheus_text(&snap);
        // One TYPE line per family, shared by every label set.
        assert_eq!(
            text.matches("# TYPE exa_fom_evals_total counter").count(),
            1
        );
        assert_eq!(
            text.matches("# TYPE exa_serve_latency_s histogram").count(),
            1
        );
        assert!(text.contains("exa_fom_evals_total 3\n"));
        assert!(text.contains("exa_fom_evals_total{app=\"GESTS\",scenario=\"mtbf-7\"} 2\n"));
        assert!(text.contains("exa_fom_evals_total{app=\"Pele\"} 1\n"));
        assert!(text.contains("exa_serve_latency_s_bucket{app=\"CoMet\",le=\"+Inf\"} 3\n"));
        assert!(text.contains("exa_serve_latency_s_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("exa_serve_latency_s_count{app=\"CoMet\"} 3\n"));
        assert!(text.contains("exa_serve_shard_occupancy{shard=\"0\"} 17\n"));
        let summary = crate::validate::validate_prometheus(&text).expect("labeled text validates");
        assert!(summary.samples > 8);
        // Round-trip: the parser sees the labels the exporter wrote.
        let doc = crate::validate::parse_prometheus(&text).unwrap();
        let labeled = doc
            .samples
            .iter()
            .find(|s| s.name == "exa_fom_evals_total" && !s.labels.is_empty())
            .expect("labeled counter sample");
        assert_eq!(labeled.labels[0], ("app".to_string(), "GESTS".to_string()));
        assert_eq!(
            labeled.labels[1],
            ("scenario".to_string(), "mtbf-7".to_string())
        );
    }

    #[test]
    fn folded_stacks_charge_self_time_and_validate() {
        let mut tl = Timeline::default();
        let h = tl.track("rank0", TrackKind::CommRank);
        // parent [0, 10µs] with child [2µs, 5µs]: parent self = 7µs.
        let p = tl.begin(h, "step", SpanCat::Phase, s(0.0));
        let c = tl.begin(h, "fft;inner", SpanCat::Kernel, s(2e-6));
        tl.end(c, s(5e-6));
        tl.end(p, s(10e-6));
        let folded = folded_stacks(&tl);
        let lines = crate::validate::validate_folded(&folded).expect("valid folded");
        assert_eq!(lines, 2);
        assert!(folded.contains("rank0;step 7000\n"), "{folded}");
        assert!(
            folded.contains("rank0;step;fft:inner 3000\n"),
            "semicolon sanitized: {folded}"
        );
        // Total weight equals total busy time (nothing lost or doubled).
        let total: u64 = folded
            .lines()
            .filter_map(|l| l.rsplit_once(' ').map(|(_, w)| w.parse::<u64>().unwrap()))
            .sum();
        assert_eq!(total, 10_000);
    }

    #[test]
    fn folded_stacks_are_deterministic_and_fold_repeats() {
        let build = |rev: bool| {
            let mut tl = Timeline::default();
            let a = tl.track("w0", TrackKind::Worker);
            let mut ops = vec![(0.0, 1e-6), (2e-6, 3e-6), (4e-6, 9e-6)];
            if rev {
                ops.reverse();
            }
            for (s0, s1) in ops {
                tl.complete(a, "task", SpanCat::Task, s(s0), s(s1));
            }
            folded_stacks(&tl)
        };
        let fwd = build(false);
        assert_eq!(fwd, build(true));
        assert_eq!(fwd, "w0;task 7000\n", "repeated stacks fold into one line");
    }

    #[test]
    fn roofline_report_serializes() {
        let r = RooflineReport {
            device: "mi250x-gcd".into(),
            peak_gflops: 23900.0,
            mem_bw_gbs: 1600.0,
            ridge_intensity: 23900.0 / 1600.0,
            points: vec![RooflinePoint {
                name: "chem_jac".into(),
                calls: 8,
                time_s: 1e-3,
                gflops: 120.0,
                intensity: 3.1,
                bound: "Memory".into(),
            }],
        };
        let v = parse_json(&serde_json::to_string_pretty(&r).unwrap()).expect("valid json");
        assert_eq!(v.get("points").unwrap().as_array().unwrap().len(), 1);
    }
}
