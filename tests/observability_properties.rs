//! Property-based tests on the substrate-observability layer (ISSUE PR 7
//! satellite): histogram quantile exactness and merge algebra, the
//! Prometheus text round-trip, folded-stack weight conservation, and
//! RFC-4180 hotspot-CSV escaping — all against the crate's own
//! dependency-free parsers.

use exaready::machine::SimTime;
use exaready::telemetry::export::prometheus_name;
use exaready::telemetry::validate::{parse_csv, parse_prometheus};
use exaready::telemetry::{
    folded_stacks, prometheus_text, validate_folded, validate_hotspot_csv, validate_prometheus,
    Histogram, SpanCat, TelemetryCollector, TrackKind,
};
use proptest::prelude::*;

/// The oracle a histogram quantile must match *exactly*: sort the
/// bucketized values (each value replaced by its bucket's upper edge) and
/// index at rank ⌈q·count⌉.
fn oracle_quantile(values: &[f64], q: f64) -> f64 {
    let mut edges: Vec<f64> = values
        .iter()
        .map(|&v| Histogram::bucket_edge(Histogram::bucket_key(v)))
        .collect();
    edges.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((q.clamp(0.0, 1.0) * edges.len() as f64).ceil() as usize).clamp(1, edges.len());
    edges[rank - 1]
}

fn record_all(values: &[f64]) -> Histogram {
    let mut h = Histogram::default();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `quantile(q)` is bit-exact against the sorted-reference oracle over
    /// bucketized values, monotone in `q`, bounded by the underflow edge
    /// and the top bucket edge, and within a factor of 1 + 1/16 of the
    /// true raw-value quantile from above.
    #[test]
    fn histogram_quantiles_match_sorted_oracle(
        raw_values in prop::collection::vec((0u8..8, 1e-9f64..1e9), 1..200),
        qs in prop::collection::vec(0.0f64..1.0, 1..8)
    ) {
        // Tag 6 → exact zero, tag 7 → negative: both underflow-bucket
        // cases; everything else a positive normal value.
        let values: Vec<f64> = raw_values.iter()
            .map(|&(tag, v)| match tag { 6 => 0.0, 7 => -v, _ => v })
            .collect();
        let h = record_all(&values);
        prop_assert_eq!(h.count(), values.len() as u64);
        let mut sorted_q = qs.clone();
        sorted_q.push(0.0);
        sorted_q.push(1.0);
        sorted_q.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = f64::NEG_INFINITY;
        for &q in &sorted_q {
            let got = h.quantile(q);
            let want = oracle_quantile(&values, q);
            prop_assert_eq!(
                got.to_bits(), want.to_bits(),
                "quantile({}) = {} but oracle says {}", q, got, want);
            prop_assert!(got >= prev, "quantile must be monotone in q");
            prev = got;
        }
        // The bucket edge over-estimates the raw value by at most 2/16
        // of the octave: raw q-th value <= quantile(q) <= raw * (1+1/8).
        let mut raw: Vec<f64> = values.iter().map(|&v| v.max(0.0)).collect();
        raw.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &q in &sorted_q {
            let rank = ((q * raw.len() as f64).ceil() as usize).clamp(1, raw.len());
            let r = raw[rank - 1];
            prop_assert!(h.quantile(q) <= r * (1.0 + 2.0 / 16.0) + 1e-300,
                "quantile({}) = {} too far above raw {}", q, h.quantile(q), r);
        }
    }

    /// Merging is exactly associative and commutative: any merge tree over
    /// any permutation of the parts serializes byte-identically to
    /// recording the union stream into a single histogram.
    #[test]
    fn histogram_merge_is_order_and_shape_independent(
        a in prop::collection::vec(1e-9f64..1e9, 0..60),
        b in prop::collection::vec(1e-9f64..1e9, 0..60),
        c in prop::collection::vec(1e-9f64..1e9, 0..60)
    ) {
        let (ha, hb, hc) = (record_all(&a), record_all(&b), record_all(&c));

        let mut left = ha.clone();        // (a ⊕ b) ⊕ c
        left.merge(&hb);
        left.merge(&hc);
        let mut right = hb.clone();       // a ⊕ (b ⊕ c), built right-first
        right.merge(&hc);
        let mut right_tree = ha.clone();
        right_tree.merge(&right);
        let mut rev = hc.clone();         // c ⊕ b ⊕ a
        rev.merge(&hb);
        rev.merge(&ha);
        let union: Vec<f64> = a.iter().chain(&b).chain(&c).copied().collect();
        let single = record_all(&union);

        let want = serde_json::to_string(&single).unwrap();
        prop_assert_eq!(&serde_json::to_string(&left).unwrap(), &want);
        prop_assert_eq!(&serde_json::to_string(&right_tree).unwrap(), &want);
        prop_assert_eq!(&serde_json::to_string(&rev).unwrap(), &want);
    }

    /// Rendering a snapshot to Prometheus text and re-parsing it with the
    /// crate's own parser recovers every counter, gauge, time, and
    /// histogram aggregate; the validator accepts the rendering.
    #[test]
    fn prometheus_text_round_trips(
        counters in prop::collection::vec(0u64..u64::MAX / 2, 1..6),
        gauges in prop::collection::vec(-1e12f64..1e12, 1..6),
        times in prop::collection::vec(0.0f64..1e6, 1..4),
        hist_values in prop::collection::vec(1e-9f64..1e6, 1..80)
    ) {
        let collector = TelemetryCollector::new();
        collector.metrics(|m| {
            for (i, &v) in counters.iter().enumerate() {
                m.counter_add(&format!("prop.c{i}"), v);
            }
            for (i, &v) in gauges.iter().enumerate() {
                m.gauge_set(&format!("prop.g{i}"), v);
            }
            for (i, &v) in times.iter().enumerate() {
                m.time_add(&format!("prop.t{i}"), SimTime::from_secs(v));
            }
            for &v in &hist_values {
                m.hist_record("prop.h", v);
            }
        });
        let snap = collector.snapshot();
        let text = prometheus_text(&snap);
        prop_assert!(validate_prometheus(&text).is_ok(),
            "validator rejects own rendering: {:?}", validate_prometheus(&text).err());
        let doc = parse_prometheus(&text).unwrap();

        for (i, &v) in counters.iter().enumerate() {
            let name = format!("{}_total", prometheus_name(&format!("prop.c{i}")));
            prop_assert_eq!(doc.value_labeled(&name, &[]), Some(v as f64));
        }
        for (i, &v) in gauges.iter().enumerate() {
            let name = prometheus_name(&format!("prop.g{i}"));
            prop_assert_eq!(doc.value_labeled(&name, &[]), Some(v));
        }
        for (i, &v) in times.iter().enumerate() {
            let name = format!("{}_seconds_total", prometheus_name(&format!("prop.t{i}")));
            let got = doc.value_labeled(&name, &[]).unwrap();
            prop_assert!((got - SimTime::from_secs(v).secs()).abs() <= 1e-12 * v.abs(),
                "{name}: {got} vs {v}");
        }
        let h = snap.hist("prop.h").unwrap();
        let base = prometheus_name("prop.h");
        prop_assert_eq!(doc.value_labeled(&format!("{base}_count"), &[]), Some(h.count() as f64));
        let inf = doc.samples.iter()
            .find(|s| s.name == format!("{base}_bucket")
                && s.labels.iter().any(|(k, v)| k == "le" && v == "+Inf"))
            .map(|s| s.value);
        prop_assert_eq!(inf, Some(h.count() as f64));
        let sum = doc.value_labeled(&format!("{base}_sum"), &[]).unwrap();
        prop_assert!((sum - h.sum()).abs() <= 1e-9 * h.sum().abs().max(1.0));
    }

    /// Folded stacks conserve time: the total emitted self-weight equals
    /// the sum of top-level span durations (children only redistribute
    /// weight inside their parents), and the artifact validates.
    #[test]
    fn folded_stacks_conserve_top_level_time(
        frames in prop::collection::vec((1u32..1_000, 0u32..2, 1u32..500), 1..30)
    ) {
        let collector = TelemetryCollector::shared();
        let track = collector.track("host", TrackKind::Host);
        let mut cursor = SimTime::ZERO;
        let mut total_us = 0u64;
        for &(outer_us, children, child_us) in &frames {
            // Child durations always fit inside the parent.
            let outer_us = outer_us + children * child_us + 1;
            let start = cursor;
            let outer = collector.begin(track, "outer", SpanCat::Phase, start);
            let mut t = start;
            for _ in 0..children {
                t += SimTime::from_micros(1.0);
                let inner = collector.begin(track, "inner", SpanCat::Kernel, t);
                t += SimTime::from_micros(child_us as f64);
                collector.end(inner, t);
            }
            cursor = start + SimTime::from_micros(outer_us as f64);
            collector.end(outer, cursor);
            cursor += SimTime::from_micros(1.0);
            total_us += outer_us as u64;
        }

        let folded = collector.with_timeline(folded_stacks);
        let lines = validate_folded(&folded);
        prop_assert!(lines.is_ok(), "invalid folded output: {:?}", lines.err());
        let total_ns: u64 = folded.lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        // SimTime is nanosecond-quantized, so microsecond inputs are exact.
        prop_assert_eq!(total_ns, total_us * 1_000,
            "folded weight must equal the top-level busy time");
        for l in folded.lines() {
            prop_assert!(l.starts_with("host;"), "stack root must be the track: {l:?}");
        }
    }

    /// Hotspot-CSV escaping: kernel names containing commas, quotes, and
    /// spaces survive the render → RFC-4180 parse round trip, and the
    /// validator accepts the artifact.
    #[test]
    fn hotspot_csv_escapes_hostile_names(
        raw_names in prop::collection::vec(
            prop::collection::vec(0usize..10, 1..24), 1..12),
        durs in prop::collection::vec(1u32..10_000, 12..13)
    ) {
        // Alphabet loaded with CSV-hostile characters.
        const CHARS: [char; 10] = ['a', 'z', ' ', ',', '"', '(', ')', '<', '>', '='];
        let collector = TelemetryCollector::new();
        let track = collector.track("gpu0", TrackKind::DeviceQueue);
        let mut cursor = SimTime::ZERO;
        // Deduplicate by tagging an index — aggregation would otherwise
        // merge rows and complicate the oracle.
        let names: Vec<String> = raw_names.iter().enumerate()
            .map(|(i, cs)| {
                let body: String = cs.iter().map(|&c| CHARS[c]).collect();
                format!("{i}:{body}")
            })
            .collect();
        for (i, name) in names.iter().enumerate() {
            let d = SimTime::from_micros(durs[i % durs.len()] as f64);
            collector.complete(track, name.clone(), SpanCat::Kernel, cursor, cursor + d);
            cursor += d;
        }

        let csv = collector.hotspot_csv();
        prop_assert!(validate_hotspot_csv(&csv).is_ok(),
            "validator rejects own rendering: {:?}", validate_hotspot_csv(&csv).err());
        let rows = parse_csv(&csv).unwrap();
        prop_assert_eq!(rows.len(), names.len() + 1, "header plus one row per kernel");
        let mut got: Vec<&str> = rows[1..].iter().map(|r| r[0].as_str()).collect();
        got.sort_unstable();
        let mut want: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        want.sort_unstable();
        prop_assert_eq!(got, want, "names must survive the quoting round trip");
    }
}
