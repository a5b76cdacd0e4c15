//! The span/timeline recorder: named, nested intervals of virtual time
//! organised into per-resource tracks (host threads, device queues,
//! per-rank communicators) — the data model behind every exporter.

use exa_machine::SimTime;
use std::borrow::Cow;
use std::collections::HashMap;

/// What resource a track represents. Drives the Perfetto track naming and
/// lets exporters group device queues away from host phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackKind {
    /// A host thread / driver phase timeline.
    Host,
    /// One in-order device queue (a `Stream`).
    DeviceQueue,
    /// One MPI rank's communication timeline.
    CommRank,
    /// One real execution lane of the thread-pool substrate (a workpool
    /// worker or the helping caller) — wall-clock, not virtual time.
    Worker,
}

impl TrackKind {
    /// Stable lowercase label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            TrackKind::Host => "host",
            TrackKind::DeviceQueue => "device_queue",
            TrackKind::CommRank => "comm_rank",
            TrackKind::Worker => "worker",
        }
    }
}

/// Coarse span category — the Chrome-trace `cat` field, and what the
/// hotspot aggregator groups by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanCat {
    /// A kernel execution on a device queue.
    Kernel,
    /// A DMA transfer (H2D / D2H / D2D).
    Dma,
    /// A whole kernel-graph replay (one submission, many nodes).
    GraphReplay,
    /// A collective operation across ranks.
    Collective,
    /// A point-to-point message.
    Message,
    /// A host-side phase (capture, transform, app step, ...).
    Phase,
    /// One pool task executed on a worker lane (wall-clock substrate
    /// tracks).
    Task,
    /// Fault-scenario time: rank failures, checkpoint I/O, restart replay,
    /// and straggler waits (`fault/`, `checkpoint/`, `restart/`,
    /// `straggler-wait/` span families).
    Fault,
}

impl SpanCat {
    /// Stable lowercase label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            SpanCat::Kernel => "kernel",
            SpanCat::Dma => "dma",
            SpanCat::GraphReplay => "graph",
            SpanCat::Collective => "collective",
            SpanCat::Message => "message",
            SpanCat::Phase => "phase",
            SpanCat::Task => "task",
            SpanCat::Fault => "fault",
        }
    }
}

/// One named interval on a track. `depth` is the nesting level at record
/// time (0 = top level); children always lie within their parent interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name. `Cow` so hot paths (graph replays, DMA) record static
    /// names without allocating.
    pub name: Cow<'static, str>,
    /// Category (Chrome-trace `cat`).
    pub cat: SpanCat,
    /// Start time.
    pub start: SimTime,
    /// End time (>= start).
    pub end: SimTime,
    /// Nesting depth at record time.
    pub depth: usize,
}

impl Span {
    /// Interval length.
    pub fn duration(&self) -> SimTime {
        self.end - self.start
    }
}

/// Handle to a track inside one [`Timeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackId(pub(crate) usize);

/// Handle to an open span (returned by [`Timeline::begin`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId {
    pub(crate) track: usize,
    pub(crate) index: usize,
}

/// One resource's ordered list of spans.
#[derive(Debug)]
pub struct Track {
    /// Display name (Chrome-trace thread name).
    pub name: String,
    /// Resource kind.
    pub kind: TrackKind,
    pub(crate) spans: Vec<Span>,
    /// Stack of indices of currently-open spans.
    open: Vec<usize>,
}

impl Track {
    fn new(name: String, kind: TrackKind) -> Self {
        Track {
            name,
            kind,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of top-level (depth-0) span durations — the track's busy time.
    pub fn busy(&self) -> SimTime {
        self.spans
            .iter()
            .filter(|s| s.depth == 0)
            .map(|s| s.duration())
            .sum()
    }

    /// Latest end time on the track.
    pub fn end(&self) -> SimTime {
        self.spans
            .iter()
            .map(|s| s.end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

/// A set of tracks. All mutation goes through this type so the recorder can
/// maintain the nesting invariants (children within parents, spans in start
/// order per track).
#[derive(Debug, Default)]
pub struct Timeline {
    tracks: Vec<Track>,
    /// Each track's index in `tracks`, by name: a communicator registers
    /// one track per rank, so a scan per registration would make
    /// attaching one quadratic in its rank count.
    by_name: HashMap<String, usize>,
}

impl Timeline {
    /// Find-or-create a track by name. Re-registering an existing name
    /// returns the original id (streams and communicators can re-attach);
    /// it must name the kind the track was registered with.
    pub fn track(&mut self, name: &str, kind: TrackKind) -> TrackId {
        if let Some(&i) = self.by_name.get(name) {
            debug_assert_eq!(
                self.tracks[i].kind, kind,
                "track '{name}' re-registered as another kind"
            );
            return TrackId(i);
        }
        let i = self.tracks.len();
        self.tracks.push(Track::new(name.to_string(), kind));
        self.by_name.insert(name.to_string(), i);
        TrackId(i)
    }

    /// All tracks in registration order.
    pub fn tracks(&self) -> &[Track] {
        &self.tracks
    }

    /// Total recorded spans across tracks.
    pub fn total_spans(&self) -> usize {
        self.tracks.iter().map(|t| t.spans.len()).sum()
    }

    /// Open a nested span at `at`; close it with [`Timeline::end`].
    pub fn begin(
        &mut self,
        track: TrackId,
        name: impl Into<Cow<'static, str>>,
        cat: SpanCat,
        at: SimTime,
    ) -> SpanId {
        let t = &mut self.tracks[track.0];
        let depth = t.open.len();
        let index = t.spans.len();
        t.spans.push(Span {
            name: name.into(),
            cat,
            start: at,
            end: at,
            depth,
        });
        t.open.push(index);
        SpanId {
            track: track.0,
            index,
        }
    }

    /// Close an open span at `at`. Any spans opened after it (deeper
    /// nesting) are closed at the same instant, and the span's end is
    /// extended to cover all of its children — so child intervals always
    /// lie within the parent interval.
    pub fn end(&mut self, id: SpanId, at: SimTime) {
        let t = &mut self.tracks[id.track];
        let pos = match t.open.iter().rposition(|&i| i == id.index) {
            Some(p) => p,
            None => return, // already closed (e.g. via a parent's end)
        };
        let mut cover = at;
        // Close deeper opens first, propagating child end times upward.
        // While a span is open, its `end` field tracks the latest end among
        // its already-closed children.
        while t.open.len() > pos {
            let i = t.open.pop().expect("stack non-empty");
            let s = &mut t.spans[i];
            s.end = cover.max(s.end).max(s.start);
            cover = s.end;
        }
        // The closed span may outlast the enclosing still-open span's
        // children seen so far — remember it on the parent.
        if let Some(&p) = t.open.last() {
            if t.spans[p].end < cover {
                t.spans[p].end = cover;
            }
        }
    }

    /// Record a complete span (already-known interval) at the current
    /// nesting depth.
    pub fn complete(
        &mut self,
        track: TrackId,
        name: impl Into<Cow<'static, str>>,
        cat: SpanCat,
        start: SimTime,
        end: SimTime,
    ) {
        let t = &mut self.tracks[track.0];
        let depth = t.open.len();
        let end = end.max(start);
        t.spans.push(Span {
            name: name.into(),
            cat,
            start,
            end,
            depth,
        });
        if let Some(&p) = t.open.last() {
            if t.spans[p].end < end {
                t.spans[p].end = end;
            }
        }
    }

    /// Append a batch of pre-built complete spans to one track (the
    /// low-overhead path used by `Stream` flushes: one lock, no per-span
    /// bookkeeping).
    pub fn complete_batch(&mut self, track: TrackId, spans: impl IntoIterator<Item = Span>) {
        self.tracks[track.0].spans.extend(spans);
    }

    /// Latest end time across every track — the profile's wall time.
    pub fn wall_end(&self) -> SimTime {
        self.tracks
            .iter()
            .map(|t| t.end())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Drop every recorded span (tracks stay registered).
    pub fn clear(&mut self) {
        for t in &mut self.tracks {
            t.spans.clear();
            t.open.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: f64) -> SimTime {
        SimTime::from_secs(x)
    }

    #[test]
    fn track_registration_dedupes_by_name() {
        let mut tl = Timeline::default();
        let a = tl.track("gpu0", TrackKind::DeviceQueue);
        let b = tl.track("gpu0", TrackKind::DeviceQueue);
        assert_eq!(a, b);
        assert_eq!(tl.tracks().len(), 1);
    }

    /// Ids and order are those of first registration, however many
    /// tracks there are and however often each is looked up again.
    #[test]
    fn track_ids_follow_first_registration() {
        let mut tl = Timeline::default();
        let names: Vec<String> = (0..100).map(|r| format!("world/rank{r}")).collect();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(tl.track(name, TrackKind::CommRank), TrackId(i));
        }
        for (i, name) in names.iter().enumerate().rev() {
            assert_eq!(tl.track(name, TrackKind::CommRank), TrackId(i));
        }
        let host = tl.track("host", TrackKind::Host);
        assert_eq!(host, TrackId(names.len()));
        let listed: Vec<&str> = tl.tracks().iter().map(|t| t.name.as_str()).collect();
        assert_eq!(
            listed[..names.len()],
            names.iter().map(String::as_str).collect::<Vec<_>>()[..]
        );
        assert_eq!(listed[names.len()], "host");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "re-registered as another kind")]
    fn re_registering_a_name_as_another_kind_is_a_bug() {
        let mut tl = Timeline::default();
        tl.track("gpu0", TrackKind::DeviceQueue);
        tl.track("gpu0", TrackKind::Host);
    }

    #[test]
    fn nesting_assigns_depths_and_contains_children() {
        let mut tl = Timeline::default();
        let h = tl.track("host", TrackKind::Host);
        let outer = tl.begin(h, "step", SpanCat::Phase, s(0.0));
        let inner = tl.begin(h, "fft", SpanCat::Phase, s(1.0));
        tl.end(inner, s(2.0));
        tl.end(outer, s(1.5)); // earlier than the child's end
        let spans = tl.tracks()[0].spans();
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].depth, 1);
        // Parent extended to cover the child.
        assert!(spans[0].end >= spans[1].end);
    }

    #[test]
    fn ending_a_parent_closes_orphaned_children() {
        let mut tl = Timeline::default();
        let h = tl.track("host", TrackKind::Host);
        let outer = tl.begin(h, "step", SpanCat::Phase, s(0.0));
        let _leaked = tl.begin(h, "inner", SpanCat::Phase, s(1.0));
        tl.end(outer, s(3.0));
        let spans = tl.tracks()[0].spans();
        assert_eq!(spans[1].end, s(3.0));
        assert_eq!(spans[0].end, s(3.0));
        assert_eq!(tl.total_spans(), 2);
    }

    #[test]
    fn busy_counts_only_top_level() {
        let mut tl = Timeline::default();
        let h = tl.track("host", TrackKind::Host);
        let a = tl.begin(h, "a", SpanCat::Phase, s(0.0));
        let b = tl.begin(h, "b", SpanCat::Phase, s(0.25));
        tl.end(b, s(0.75));
        tl.end(a, s(1.0));
        assert_eq!(tl.tracks()[0].busy(), s(1.0));
    }
}
