//! Typed counters/gauges and the unified [`TelemetrySnapshot`].
//!
//! Subsystem statistics (`StreamStats`, `GraphStats`, `PoolStats`,
//! `CommStats`) stay where they are; they flow into one
//! registry through the [`MetricSource`] trait, which each stats type
//! implements in its own crate. A snapshot is the serializable union of
//! the registry and the timeline's per-track summaries.

use crate::span::Timeline;
use exa_machine::SimTime;
use serde::Serialize;
use std::collections::BTreeMap;

/// A typed monotonic counter. Serializes as a bare number, so registry and
/// snapshot JSON are unchanged by the move from raw `u64` storage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Counter(u64);

impl Counter {
    /// Increment by `v`.
    pub fn add(&mut self, v: u64) {
        self.0 += v;
    }

    /// Current value.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl From<u64> for Counter {
    fn from(v: u64) -> Self {
        Counter(v)
    }
}

impl Serialize for Counter {
    fn write_json(&self, out: &mut String) {
        self.0.write_json(out);
    }
}

/// Number of linear sub-buckets per power-of-two octave. 16 sub-buckets
/// bound the relative quantile error at 1/16 = 6.25%.
const HIST_SUBBUCKETS: u64 = 16;

/// Bucket key for values at or below zero (and subnormals): everything
/// the log scheme cannot place lands in one underflow bucket whose upper
/// edge is 0.0.
const HIST_UNDERFLOW: i64 = i64::MIN;

/// A log-bucketed distribution: HDR-style buckets (16 linear sub-buckets
/// per power-of-two octave, keyed straight off the f64 bit pattern), an
/// exact min/max, and a sum quantized to integer nanoseconds.
///
/// Everything inside is integer arithmetic over sparse buckets, so
/// [`Histogram::merge`] is **exactly** associative and commutative — the
/// serialized form of a merged histogram is byte-identical to recording
/// the union stream into one histogram, which is what lets per-lane
/// histograms fold into one (`MetricsRegistry::hist_merge`) without
/// breaking the concurrent-emission byte-identity property.
///
/// Quantiles are *exact over bucketized values*: `quantile(q)` returns the
/// upper edge of the bucket holding the rank-⌈q·count⌉ value, i.e.
/// exactly what a sorted-reference oracle over `bucket_edge(v)` values
/// yields, and within a factor of `1 + 1/16` of the raw value.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    count: u64,
    /// Sum of recorded values, quantized to integer nanoseconds at record
    /// time (values are seconds). Integer adds keep merge exact.
    sum_ns: u128,
    min: f64,
    max: f64,
    /// Sparse bucket table: `(key, occupancy)`, sorted by key. Keys order
    /// identically to the values they cover. An octave spans 16 buckets,
    /// so latencies from 1 µs to 1 s fill at most 320: a lookup is a
    /// binary search over contiguous memory, and a new bucket, rare once
    /// a series has warmed up, shifts a few kilobytes at most.
    buckets: Vec<(i64, u64)>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum_ns: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: Vec::new(),
        }
    }
}

impl Histogram {
    /// The bucket key for `v`: octave (unbiased exponent) × 16 + the top
    /// four mantissa bits. Key order equals value order for positive
    /// normal values; zero, negatives, and subnormals share the underflow
    /// bucket.
    pub fn bucket_key(v: f64) -> i64 {
        if v.is_nan() || v < f64::MIN_POSITIVE {
            return HIST_UNDERFLOW;
        }
        let bits = v.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
        let sub = ((bits >> 48) & 0xf) as i64;
        exp * HIST_SUBBUCKETS as i64 + sub
    }

    /// The inclusive upper edge of bucket `key`: `(1 + (sub+1)/16)·2^e`,
    /// or 0.0 for the underflow bucket.
    pub fn bucket_edge(key: i64) -> f64 {
        if key == HIST_UNDERFLOW {
            return 0.0;
        }
        let sb = HIST_SUBBUCKETS as i64;
        let exp = key.div_euclid(sb);
        let sub = key.rem_euclid(sb);
        (1.0 + (sub + 1) as f64 / HIST_SUBBUCKETS as f64) * f64::powi(2.0, exp as i32)
    }

    /// Record one value (seconds for time-like series; any non-negative
    /// finite unit works). Non-finite values are ignored.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.count += 1;
        self.sum_ns += (v.max(0.0) * 1e9).round() as u128;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.add(Self::bucket_key(v), 1);
    }

    /// Add `n` to bucket `key`'s occupancy.
    fn add(&mut self, key: i64, n: u64) {
        match self.buckets.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.buckets[i].1 += n,
            Err(i) => self.buckets.insert(i, (key, n)),
        }
    }

    /// Empty the histogram, keeping its bucket table's memory: the form
    /// a tally reused batch after batch resets with.
    pub fn clear(&mut self) {
        let mut buckets = std::mem::take(&mut self.buckets);
        buckets.clear();
        *self = Histogram {
            buckets,
            ..Histogram::default()
        };
    }

    /// Recorded sample count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum (reconstructed from the nanosecond accumulator).
    pub fn sum(&self) -> f64 {
        self.sum_ns as f64 / 1e9
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum() / self.count as f64
        }
    }

    /// Exact maximum (`NEG_INFINITY` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The quantile at `q ∈ [0, 1]`: the upper edge of the bucket holding
    /// the value of rank ⌈q·count⌉ (rank 1 for q = 0). Returns 0.0 when
    /// empty. Monotone in `q` by construction (bucket keys order like the
    /// values they hold).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(key, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Self::bucket_edge(key);
            }
        }
        Self::bucket_edge(self.buckets.last().expect("non-empty histogram").0)
    }

    /// Shorthand for the median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// Shorthand for the 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// Shorthand for the 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Fold `other` into `self`. Integer adds + exact min/max make this
    /// exactly associative and commutative.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        for &(k, n) in &other.buckets {
            self.add(k, n);
        }
    }

    /// Iterate `(upper_edge, count)` pairs in ascending edge order — the
    /// shape Prometheus `le`-bucket emission wants.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.buckets.iter().map(|&(k, n)| (Self::bucket_edge(k), n))
    }
}

impl Serialize for Histogram {
    fn write_json(&self, out: &mut String) {
        // Hand-rolled: the serde shim has no `(i64, u64)` support.
        // Buckets serialize as [[key, count], ...] in key order; `sum_ns`
        // is emitted as exact decimal digits (JSON numbers are unbounded).
        out.push_str("{\"count\":");
        self.count.write_json(out);
        out.push_str(",\"sum_ns\":");
        out.push_str(&self.sum_ns.to_string());
        out.push_str(",\"min\":");
        self.min.write_json(out);
        out.push_str(",\"max\":");
        self.max.write_json(out);
        out.push_str(",\"p50\":");
        self.p50().write_json(out);
        out.push_str(",\"p99\":");
        self.p99().write_json(out);
        out.push_str(",\"buckets\":[");
        for (i, (k, n)) in self.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            out.push_str(&k.to_string());
            out.push(',');
            n.write_json(out);
            out.push(']');
        }
        out.push_str("]}");
    }
}

/// Namespaced counters (monotonic u64), gauges (last/explicit f64), and
/// virtual-time accumulators.
///
/// Absorbing a stats struct **adds** its values, so absorbing several
/// streams or communicators sums naturally — absorb each stats snapshot
/// exactly once.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, f64>,
    times: BTreeMap<String, SimTime>,
    hists: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Add to a named counter (creating it at zero).
    pub fn counter_add(&mut self, name: &str, v: u64) {
        slot(&mut self.counters, name, Counter::default).add(v);
    }

    /// Set a gauge to an explicit value.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        *slot(&mut self.gauges, name, || v) = v;
    }

    /// Raise a gauge to at least `v` (high-water marks).
    pub fn gauge_max(&mut self, name: &str, v: f64) {
        let e = slot(&mut self.gauges, name, || v);
        if v > *e {
            *e = v;
        }
    }

    /// Accumulate virtual time under a name.
    pub fn time_add(&mut self, name: &str, t: SimTime) {
        *slot(&mut self.times, name, || SimTime::ZERO) += t;
    }

    /// Record one sample into a named histogram (creating it empty).
    pub fn hist_record(&mut self, name: &str, v: f64) {
        slot(&mut self.hists, name, Histogram::default).record(v);
    }

    /// The named histogram (created empty), for a caller recording many
    /// samples into one series with one lookup.
    pub fn hist_mut(&mut self, name: &str) -> &mut Histogram {
        slot(&mut self.hists, name, Histogram::default)
    }

    /// Fold a whole histogram into a named slot — the bulk path observers
    /// use when landing locally-accumulated distributions.
    pub fn hist_merge(&mut self, name: &str, h: &Histogram) {
        slot(&mut self.hists, name, Histogram::default).merge(h);
    }

    /// Read a histogram by name.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Drop every metric.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.times.clear();
        self.hists.clear();
    }
}

/// The series `name` of `map`, created by `init` on first use: the name is
/// copied only then, so touching an existing series allocates nothing.
fn slot<'a, T>(
    map: &'a mut BTreeMap<String, T>,
    name: &str,
    init: impl FnOnce() -> T,
) -> &'a mut T {
    if !map.contains_key(name) {
        map.insert(name.to_string(), init());
    }
    map.get_mut(name).expect("inserted above")
}

/// Anything that can pour its statistics into a [`MetricsRegistry`].
/// Implemented by `exa-hal` for `StreamStats`/`GraphStats`/`PoolStats`
/// and by `exa-mpi` for `CommStats`.
pub trait MetricSource {
    /// Add this source's metrics (namespaced, e.g. `hal.kernels`) to `m`.
    fn export_metrics(&self, m: &mut MetricsRegistry);
}

/// Per-track digest inside a snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct TrackSummary {
    /// Track display name.
    pub name: String,
    /// Track kind label (`host` / `device_queue` / `comm_rank`).
    pub kind: String,
    /// Spans recorded on the track.
    pub spans: u64,
    /// Sum of top-level span durations, seconds.
    pub busy_s: f64,
    /// Latest end time on the track, seconds.
    pub end_s: f64,
}

/// The one serializable view of everything the collector knows: span
/// counts and busy time per track plus the unified metric namespace.
#[derive(Debug, Clone, Serialize)]
pub struct TelemetrySnapshot {
    /// Total spans across all tracks.
    pub spans_total: u64,
    /// Wall time covered by the profile, seconds.
    pub wall_s: f64,
    /// Per-track summaries.
    pub tracks: Vec<TrackSummary>,
    /// Monotonic counters (`hal.kernels`, `mpi.collectives`, ...).
    pub counters: BTreeMap<String, u64>,
    /// Gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Accumulated virtual times, seconds.
    pub times_s: BTreeMap<String, f64>,
    /// Distribution metrics (task runtimes, rank compute times, FOM
    /// evaluation times, ...).
    pub hists: BTreeMap<String, Histogram>,
}

impl TelemetrySnapshot {
    /// Build from a timeline + registry pair.
    pub fn build(timeline: &Timeline, metrics: &MetricsRegistry) -> Self {
        let tracks: Vec<TrackSummary> = timeline
            .tracks()
            .iter()
            .map(|t| TrackSummary {
                name: t.name.clone(),
                kind: t.kind.label().to_string(),
                spans: t.spans().len() as u64,
                busy_s: t.busy().secs(),
                end_s: t.end().secs(),
            })
            .collect();
        TelemetrySnapshot {
            spans_total: timeline.total_spans() as u64,
            wall_s: timeline.wall_end().secs(),
            tracks,
            counters: metrics
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: metrics.gauges.clone(),
            times_s: metrics
                .times
                .iter()
                .map(|(k, t)| (k.clone(), t.secs()))
                .collect(),
            hists: metrics.hists.clone(),
        }
    }

    /// Read a counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Read a histogram by name.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanCat, TrackKind};

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = MetricsRegistry::default();
        m.counter_add("hal.kernels", 3);
        m.counter_add("hal.kernels", 4);
        assert_eq!(m.counters["hal.kernels"].get(), 7);
        assert!(!m.counters.contains_key("never.touched"));
    }

    #[test]
    fn gauge_max_keeps_the_high_water() {
        let mut m = MetricsRegistry::default();
        m.gauge_max("pool.high_water", 10.0);
        m.gauge_max("pool.high_water", 4.0);
        assert_eq!(m.gauges.get("pool.high_water"), Some(&10.0));
    }

    #[test]
    fn histogram_quantiles_match_sorted_oracle() {
        let vals = [
            0.003, 0.0007, 0.014, 0.5, 0.25, 0.0007, 2.0, 0.031, 0.009, 0.125,
        ];
        let mut h = Histogram::default();
        for v in vals {
            h.record(v);
        }
        // Oracle: sort the bucketized values, pick rank ceil(q*n).
        let mut oracle: Vec<f64> = vals
            .iter()
            .map(|&v| Histogram::bucket_edge(Histogram::bucket_key(v)))
            .collect();
        oracle.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
            assert_eq!(
                h.quantile(q).to_bits(),
                oracle[rank - 1].to_bits(),
                "q = {q}"
            );
        }
        assert_eq!(h.max(), 2.0, "max is exact");
        assert_eq!(h.min, 0.0007, "min is exact");
        assert_eq!(h.count(), 10);
    }

    #[test]
    fn histogram_edge_bounds_value_within_one_sixteenth() {
        for v in [1e-9, 3.7e-6, 0.000_25, 0.0421, 1.0, 17.3, 9_000.5] {
            let edge = Histogram::bucket_edge(Histogram::bucket_key(v));
            assert!(edge >= v, "edge {edge} below value {v}");
            assert!(
                edge <= v * (1.0 + 1.0 / 16.0) * (1.0 + 1e-12),
                "edge {edge} too far above {v}"
            );
        }
    }

    #[test]
    fn histogram_underflow_bucket_catches_zero_and_negative() {
        let mut h = Histogram::default();
        h.record(0.0);
        h.record(-3.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.min, -3.0);
    }

    #[test]
    fn histogram_merge_is_exactly_associative_and_commutative() {
        let streams: [&[f64]; 3] = [&[0.1, 0.004, 2.5], &[0.03, 0.03, 7.0, 1e-5], &[0.9]];
        let hs: Vec<Histogram> = streams
            .iter()
            .map(|s| {
                let mut h = Histogram::default();
                for &v in *s {
                    h.record(v);
                }
                h
            })
            .collect();
        let mut single = Histogram::default();
        for s in streams {
            for &v in s {
                single.record(v);
            }
        }
        let ser = |h: &Histogram| {
            let mut s = String::new();
            h.write_json(&mut s);
            s
        };
        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c) == single stream, byte-for-byte.
        let mut left = hs[0].clone();
        left.merge(&hs[1]);
        left.merge(&hs[2]);
        let mut right = hs[2].clone();
        right.merge(&hs[1]);
        right.merge(&hs[0]);
        assert_eq!(ser(&left), ser(&single));
        assert_eq!(ser(&right), ser(&single));
    }

    #[test]
    fn registry_histograms_flow_into_snapshot() {
        let mut m = MetricsRegistry::default();
        m.hist_record("task.run_s", 0.002);
        m.hist_record("task.run_s", 0.004);
        let tl = Timeline::default();
        let a = TelemetrySnapshot::build(&tl, &m);
        assert_eq!(a.hist("task.run_s").unwrap().count(), 2);
        assert!(a.to_json().contains("\"task.run_s\""));
        assert!(a.to_json().contains("\"buckets\""));
    }

    #[test]
    fn snapshot_reflects_tracks_and_metrics() {
        let mut tl = Timeline::default();
        let h = tl.track("host", TrackKind::Host);
        tl.complete(
            h,
            "a",
            SpanCat::Phase,
            SimTime::ZERO,
            SimTime::from_secs(2.0),
        );
        let mut m = MetricsRegistry::default();
        m.counter_add("x", 1);
        m.time_add("busy", SimTime::from_secs(2.0));
        let snap = TelemetrySnapshot::build(&tl, &m);
        assert_eq!(snap.spans_total, 1);
        assert_eq!(snap.tracks[0].busy_s, 2.0);
        assert_eq!(snap.counter("x"), 1);
        assert_eq!(snap.times_s["busy"], 2.0);
        assert!(snap.to_json().contains("\"spans_total\""));
    }
}
