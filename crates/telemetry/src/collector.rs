//! The shared collector: a thread-safe handle that `Stream`, `Comm`, and
//! application drivers all write into. Cheap when attached (streams batch
//! their spans locally and flush under one lock), free when absent.

use crate::export;
use crate::metrics::{MetricSource, MetricsRegistry, TelemetrySnapshot};
use crate::span::{Span, SpanCat, SpanId, Timeline, TrackId, TrackKind};
use exa_machine::SimTime;
use std::borrow::Cow;
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct Inner {
    timeline: Timeline,
    metrics: MetricsRegistry,
}

/// One profiling session. Share it as `Arc<TelemetryCollector>` and attach
/// it to streams (`exa-hal`'s `Stream::attach_telemetry`) and
/// communicators (`Comm::attach_telemetry`); drivers add host-phase spans
/// with [`TelemetryCollector::begin`]/[`TelemetryCollector::end`].
#[derive(Debug, Default)]
pub struct TelemetryCollector {
    inner: Mutex<Inner>,
}

impl TelemetryCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty collector, pre-wrapped for sharing.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Register (or look up) a track.
    pub fn track(&self, name: &str, kind: TrackKind) -> TrackId {
        self.lock().timeline.track(name, kind)
    }

    /// Record a complete span.
    pub fn complete(
        &self,
        track: TrackId,
        name: impl Into<Cow<'static, str>>,
        cat: SpanCat,
        start: SimTime,
        end: SimTime,
    ) {
        self.lock().timeline.complete(track, name, cat, start, end);
    }

    /// Record one complete span on several tracks at once (a collective
    /// seen by every participating rank) under a single lock.
    pub fn complete_on_tracks(
        &self,
        tracks: &[TrackId],
        name: &'static str,
        cat: SpanCat,
        start: SimTime,
        end: SimTime,
    ) {
        let mut g = self.lock();
        for &t in tracks {
            g.timeline.complete(t, name, cat, start, end);
        }
    }

    /// Append a batch of pre-built spans to one track under a single lock —
    /// the `Stream` flush path.
    pub fn complete_batch(&self, track: TrackId, spans: impl IntoIterator<Item = Span>) {
        self.lock().timeline.complete_batch(track, spans);
    }

    /// Open a nested span; close with [`TelemetryCollector::end`].
    pub fn begin(
        &self,
        track: TrackId,
        name: impl Into<Cow<'static, str>>,
        cat: SpanCat,
        at: SimTime,
    ) -> SpanId {
        self.lock().timeline.begin(track, name, cat, at)
    }

    /// Close an open span (children still open are closed with it).
    pub fn end(&self, id: SpanId, at: SimTime) {
        self.lock().timeline.end(id, at);
    }

    /// Pour a stats source into the metrics registry (add semantics —
    /// absorb each stats snapshot exactly once).
    pub fn absorb(&self, source: &dyn MetricSource) {
        source.export_metrics(&mut self.lock().metrics);
    }

    /// Run `f` against the metrics registry.
    pub fn metrics<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> R {
        f(&mut self.lock().metrics)
    }

    /// Run `f` against the timeline and the metrics registry under one
    /// lock: the path of a caller landing many spans and samples at once.
    pub fn with_parts<R>(&self, f: impl FnOnce(&mut Timeline, &mut MetricsRegistry) -> R) -> R {
        let mut g = self.lock();
        let Inner { timeline, metrics } = &mut *g;
        f(timeline, metrics)
    }

    /// Run `f` against the timeline (read access for exporters/tests).
    pub fn with_timeline<R>(&self, f: impl FnOnce(&Timeline) -> R) -> R {
        f(&self.lock().timeline)
    }

    /// The unified serializable snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let g = self.lock();
        TelemetrySnapshot::build(&g.timeline, &g.metrics)
    }

    /// Chrome Trace Event JSON of the whole timeline (open in Perfetto /
    /// `chrome://tracing`).
    pub fn chrome_trace(&self) -> String {
        self.with_timeline(export::chrome_trace)
    }

    /// rocprof-style hotspot CSV aggregated from kernel/graph spans.
    pub fn hotspot_csv(&self) -> String {
        self.with_timeline(export::hotspot_csv)
    }

    /// Drop all spans and metrics (tracks stay registered).
    pub fn clear(&self) {
        let mut g = self.lock();
        g.timeline.clear();
        g.metrics.clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("telemetry lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: f64) -> SimTime {
        SimTime::from_secs(x)
    }

    #[test]
    fn absorb_uses_add_semantics() {
        struct Fake(u64);
        impl MetricSource for Fake {
            fn export_metrics(&self, m: &mut MetricsRegistry) {
                m.counter_add("fake.n", self.0);
            }
        }
        let c = TelemetryCollector::new();
        c.absorb(&Fake(2));
        c.absorb(&Fake(5));
        assert_eq!(c.snapshot().counter("fake.n"), 7);
    }

    #[test]
    fn clear_resets_spans_but_keeps_tracks() {
        let c = TelemetryCollector::shared();
        let h = c.track("host", TrackKind::Host);
        c.complete(h, "a", SpanCat::Phase, s(0.0), s(1.0));
        c.clear();
        assert_eq!(c.snapshot().spans_total, 0);
        assert_eq!(c.track("host", TrackKind::Host), h);
    }
}
