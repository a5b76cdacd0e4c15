//! Cross-rank critical-path analysis over recorded span timelines.
//!
//! The paper's porting loop is "profile, find the bottleneck, fix, re-run"
//! (§3.2, §3.10.2). A flat hotspot list answers *what is expensive*; the
//! critical path answers *what the wall clock was actually waiting on*
//! across host, device-queue, and per-rank tracks. This module computes:
//!
//! * the **critical path** — a backward-greedy walk from the profile's
//!   wall end, always attributing time to the most specific (deepest)
//!   span covering the cursor, with explicit idle gaps;
//! * **per-rank attribution** — busy vs idle share per track, the raw
//!   material of an imbalance diagnosis;
//! * **span-profile diffs** — "top regressing span" between two runs,
//!   the explanation payload the regression sentinel attaches to its
//!   verdicts.

use crate::span::Timeline;
use serde::Serialize;
use std::collections::BTreeMap;

/// One hop of the critical path: a contiguous interval attributed to one
/// span on one track (clamped where the walk entered it mid-span).
#[derive(Debug, Clone, Serialize)]
pub struct PathSegment {
    /// Track the attributed span lives on.
    pub track: String,
    /// Track kind label.
    pub kind: String,
    /// Span name (`"idle"` segments use the reserved name `"(idle)"`).
    pub name: String,
    /// Span category label.
    pub cat: String,
    /// Segment start, seconds.
    pub start_s: f64,
    /// Segment end, seconds.
    pub end_s: f64,
}

/// The computed critical path of one profile.
#[derive(Debug, Clone, Serialize)]
pub struct CriticalPath {
    /// Profile wall time, seconds.
    pub wall_s: f64,
    /// Seconds of the path covered by spans.
    pub busy_s: f64,
    /// Seconds of the path covered by nothing (gaps between spans).
    pub idle_s: f64,
    /// Path segments in chronological order.
    pub segments: Vec<PathSegment>,
    /// Path seconds attributed per span name (idle excluded).
    pub by_span: BTreeMap<String, f64>,
}

impl CriticalPath {
    /// Walk the timeline backward from its wall end. At every cursor
    /// position the walk picks, among spans starting before the cursor,
    /// the one reaching furthest (ties broken toward deeper — more
    /// specific — spans), attributes the covered interval to it, jumps to
    /// its start, and records any uncovered gap as idle. O(n log n) in
    /// the span count: one sort plus a monotone-pointer scan (a span
    /// skipped because it starts at/after the cursor can never become a
    /// candidate again, since the cursor only moves backward).
    pub fn compute(timeline: &Timeline) -> CriticalPath {
        // (end, depth, start, track index, span index) — pick order.
        let mut order: Vec<(f64, usize, f64, usize, usize)> = Vec::new();
        for (ti, track) in timeline.tracks().iter().enumerate() {
            for (si, span) in track.spans().iter().enumerate() {
                let (s, e) = (span.start.secs(), span.end.secs());
                if e > s {
                    order.push((e, span.depth, s, ti, si));
                }
            }
        }
        // Max end first; at equal end prefer the deepest (most specific)
        // span, then the latest start (shortest covering interval).
        order.sort_by(|a, b| {
            b.0.total_cmp(&a.0)
                .then(b.1.cmp(&a.1))
                .then(b.2.total_cmp(&a.2))
                .then(a.3.cmp(&b.3))
        });

        let wall = timeline.wall_end().secs();
        let mut cursor = wall;
        let mut i = 0usize;
        let mut segments: Vec<PathSegment> = Vec::new();
        let mut busy = 0.0f64;
        let mut idle = 0.0f64;
        let mut by_span: BTreeMap<String, f64> = BTreeMap::new();
        while cursor > 0.0 {
            // Advance past spans that can no longer cover any cursor.
            while i < order.len() && order[i].2 >= cursor {
                i += 1;
            }
            let Some(&(end, _, start, ti, si)) = order.get(i) else {
                // Nothing recorded before the cursor: leading idle.
                idle += cursor;
                segments.push(PathSegment {
                    track: String::new(),
                    kind: String::new(),
                    name: "(idle)".into(),
                    cat: String::new(),
                    start_s: 0.0,
                    end_s: cursor,
                });
                break;
            };
            i += 1;
            let seg_end = end.min(cursor);
            if seg_end < cursor {
                // Gap between this span's end and the cursor.
                idle += cursor - seg_end;
                segments.push(PathSegment {
                    track: String::new(),
                    kind: String::new(),
                    name: "(idle)".into(),
                    cat: String::new(),
                    start_s: seg_end,
                    end_s: cursor,
                });
            }
            let track = &timeline.tracks()[ti];
            let span = &track.spans()[si];
            busy += seg_end - start;
            *by_span.entry(span.name.to_string()).or_insert(0.0) += seg_end - start;
            segments.push(PathSegment {
                track: track.name.clone(),
                kind: track.kind.label().to_string(),
                name: span.name.to_string(),
                cat: span.cat.label().to_string(),
                start_s: start,
                end_s: seg_end,
            });
            cursor = start;
        }
        segments.reverse();
        CriticalPath {
            wall_s: wall,
            busy_s: busy,
            idle_s: idle,
            segments,
            by_span,
        }
    }
}

/// Where a fault scenario's lost time went, summed from critical-path
/// `by_span` attribution over the scenario engine's span families.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct FaultAttribution {
    /// Seconds in `fault/` spans (failure detection + relaunch penalty).
    pub fault_s: f64,
    /// Seconds in `checkpoint/` spans (periodic snapshot I/O).
    pub checkpoint_s: f64,
    /// Seconds in `restart/` spans (snapshot reload + lost-work replay).
    pub restart_s: f64,
    /// Seconds in `straggler-wait/` spans (skew-induced collective waits).
    pub straggler_wait_s: f64,
}

/// Attribute critical-path span seconds to the scenario span families by
/// their name prefixes (`fault/`, `checkpoint/`, `restart/`,
/// `straggler-wait/`). Spans outside those families are ignored.
pub fn fault_attribution(by_span: &BTreeMap<String, f64>) -> FaultAttribution {
    let mut att = FaultAttribution::default();
    for (name, &secs) in by_span {
        if name.starts_with("fault/") {
            att.fault_s += secs;
        } else if name.starts_with("checkpoint/") {
            att.checkpoint_s += secs;
        } else if name.starts_with("restart/") {
            att.restart_s += secs;
        } else if name.starts_with("straggler-wait/") {
            att.straggler_wait_s += secs;
        }
    }
    att
}

/// Busy/idle attribution for one track — imbalance shows up as unequal
/// idle shares across `comm_rank` tracks.
#[derive(Debug, Clone, Serialize)]
pub struct RankAttribution {
    /// Track name.
    pub track: String,
    /// Track kind label.
    pub kind: String,
    /// Sum of top-level span durations, seconds.
    pub busy_s: f64,
    /// Wall time the track spent uncovered, seconds.
    pub idle_s: f64,
    /// Busy fraction of the profile wall time (0..=1).
    pub busy_share: f64,
}

/// Per-track busy/idle attribution against the profile's wall time.
pub fn rank_attribution(timeline: &Timeline) -> Vec<RankAttribution> {
    let wall = timeline.wall_end().secs();
    timeline
        .tracks()
        .iter()
        .map(|t| {
            let busy = t.busy().secs();
            RankAttribution {
                track: t.name.clone(),
                kind: t.kind.label().to_string(),
                busy_s: busy,
                idle_s: (wall - busy).max(0.0),
                busy_share: if wall > 0.0 { busy / wall } else { 0.0 },
            }
        })
        .collect()
}

/// Aggregate a timeline into `name -> total seconds` over its `top`
/// hottest span names — the compact per-run fingerprint stored in every
/// ledger record. Top-level spans only, so nested phases are not counted
/// twice into their parents.
pub fn span_profile(timeline: &Timeline, top: usize) -> BTreeMap<String, f64> {
    let mut agg: BTreeMap<String, f64> = BTreeMap::new();
    for track in timeline.tracks() {
        for span in track.spans() {
            if span.depth == 0 {
                *agg.entry(span.name.to_string()).or_insert(0.0) += span.duration().secs();
            }
        }
    }
    let mut rows: Vec<(String, f64)> = agg.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    rows.truncate(top);
    rows.into_iter().collect()
}

/// One span's movement between two runs.
#[derive(Debug, Clone, Serialize)]
pub struct SpanDelta {
    /// Span name.
    pub name: String,
    /// Seconds in the baseline run.
    pub base_s: f64,
    /// Seconds in the new run.
    pub new_s: f64,
    /// Absolute growth, seconds (negative = got faster).
    pub delta_s: f64,
    /// Growth ratio `new/base` (epsilon-guarded so a zero baseline never
    /// produces a non-finite number).
    pub ratio: f64,
}

/// Diff two span profiles, worst regression first. Spans present in only
/// one run still appear (with the missing side at zero).
pub fn diff_profiles(base: &BTreeMap<String, f64>, new: &BTreeMap<String, f64>) -> Vec<SpanDelta> {
    const EPS: f64 = 1e-12;
    let mut names: Vec<&String> = base.keys().chain(new.keys()).collect();
    names.sort();
    names.dedup();
    let mut deltas: Vec<SpanDelta> = names
        .into_iter()
        .map(|n| {
            let b = base.get(n).copied().unwrap_or(0.0);
            let w = new.get(n).copied().unwrap_or(0.0);
            SpanDelta {
                name: n.clone(),
                base_s: b,
                new_s: w,
                delta_s: w - b,
                ratio: (w + EPS) / (b + EPS),
            }
        })
        .collect();
    deltas.sort_by(|a, b| b.delta_s.total_cmp(&a.delta_s).then(a.name.cmp(&b.name)));
    deltas
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanCat, TrackKind};
    use exa_machine::SimTime;

    fn s(x: f64) -> SimTime {
        SimTime::from_secs(x)
    }

    /// Two ranks: rank0 computes [0,4], rank1 computes [0,1] then waits;
    /// a collective on both ranks [4,5]. The wall is decided by rank0's
    /// compute then the collective — rank1's wait must not appear.
    #[test]
    fn path_follows_the_slow_rank_through_the_collective() {
        let mut tl = Timeline::default();
        let r0 = tl.track("rank0", TrackKind::CommRank);
        let r1 = tl.track("rank1", TrackKind::CommRank);
        tl.complete(r0, "compute", SpanCat::Phase, s(0.0), s(4.0));
        tl.complete(r1, "compute", SpanCat::Phase, s(0.0), s(1.0));
        tl.complete(r0, "allreduce", SpanCat::Collective, s(4.0), s(5.0));
        tl.complete(r1, "allreduce", SpanCat::Collective, s(4.0), s(5.0));
        let cp = CriticalPath::compute(&tl);
        assert_eq!(cp.wall_s, 5.0);
        assert!(cp.idle_s.abs() < 1e-12, "no gaps: {:?}", cp.segments);
        let names: Vec<&str> = cp.segments.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(names, vec!["compute", "allreduce"]);
        assert_eq!(
            cp.segments[0].track, "rank0",
            "path goes through the slow rank"
        );
        assert_eq!(cp.by_span["compute"], 4.0);
    }

    #[test]
    fn path_records_idle_gaps() {
        let mut tl = Timeline::default();
        let h = tl.track("host", TrackKind::Host);
        tl.complete(h, "a", SpanCat::Phase, s(1.0), s(2.0));
        tl.complete(h, "b", SpanCat::Phase, s(3.0), s(4.0));
        let cp = CriticalPath::compute(&tl);
        assert_eq!(cp.busy_s, 2.0);
        assert_eq!(cp.idle_s, 2.0); // [0,1] leading + [2,3] gap
        assert_eq!(cp.segments.iter().filter(|g| g.name == "(idle)").count(), 2);
        let total: f64 = cp.segments.iter().map(|g| g.end_s - g.start_s).sum();
        assert!((total - cp.wall_s).abs() < 1e-12, "segments tile the wall");
    }

    #[test]
    fn path_prefers_the_deepest_span_at_equal_cover() {
        let mut tl = Timeline::default();
        let h = tl.track("host", TrackKind::Host);
        let outer = tl.begin(h, "step", SpanCat::Phase, s(0.0));
        let inner = tl.begin(h, "fft", SpanCat::Phase, s(1.0));
        tl.end(inner, s(3.0));
        tl.end(outer, s(3.0));
        let cp = CriticalPath::compute(&tl);
        let names: Vec<&str> = cp.segments.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["step", "fft"],
            "child attributed where it covers"
        );
        assert_eq!(cp.by_span["fft"], 2.0);
        assert_eq!(cp.by_span["step"], 1.0);
    }

    #[test]
    fn attribution_exposes_the_idle_rank() {
        let mut tl = Timeline::default();
        let r0 = tl.track("rank0", TrackKind::CommRank);
        let r1 = tl.track("rank1", TrackKind::CommRank);
        tl.complete(r0, "work", SpanCat::Phase, s(0.0), s(4.0));
        tl.complete(r1, "work", SpanCat::Phase, s(0.0), s(1.0));
        let att = rank_attribution(&tl);
        assert_eq!(att[0].idle_s, 0.0);
        assert_eq!(att[1].idle_s, 3.0);
        assert!((att[1].busy_share - 0.25).abs() < 1e-12);
    }

    #[test]
    fn span_profile_counts_top_level_once_and_truncates() {
        let mut tl = Timeline::default();
        let h = tl.track("host", TrackKind::Host);
        let outer = tl.begin(h, "step", SpanCat::Phase, s(0.0));
        let inner = tl.begin(h, "fft", SpanCat::Phase, s(0.0));
        tl.end(inner, s(2.0));
        tl.end(outer, s(3.0));
        tl.complete(h, "io", SpanCat::Phase, s(3.0), s(3.5));
        let p = span_profile(&tl, 10);
        assert_eq!(p.get("step"), Some(&3.0));
        assert_eq!(p.get("io"), Some(&0.5));
        assert!(
            !p.contains_key("fft"),
            "nested spans are not double-counted"
        );
        let top1 = span_profile(&tl, 1);
        assert_eq!(top1.len(), 1);
        assert!(top1.contains_key("step"));
    }

    #[test]
    fn fault_attribution_sums_by_prefix() {
        let by_span = BTreeMap::from([
            ("fault/rank7".to_string(), 5.0),
            ("checkpoint/write".to_string(), 1.5),
            ("restart/reload".to_string(), 0.5),
            ("restart/replay".to_string(), 2.0),
            ("straggler-wait/allreduce".to_string(), 0.25),
            ("chem_substep".to_string(), 40.0),
        ]);
        let att = fault_attribution(&by_span);
        assert_eq!(att.fault_s, 5.0);
        assert_eq!(att.checkpoint_s, 1.5);
        assert_eq!(att.restart_s, 2.5);
        assert_eq!(att.straggler_wait_s, 0.25);
        let total = att.fault_s + att.checkpoint_s + att.restart_s + att.straggler_wait_s;
        assert!((total - 9.25).abs() < 1e-12, "compute spans excluded");
    }

    #[test]
    fn diff_ranks_the_worst_regression_first() {
        let base = BTreeMap::from([("a".to_string(), 1.0), ("b".to_string(), 2.0)]);
        let new = BTreeMap::from([("a".to_string(), 3.0), ("b".to_string(), 1.5)]);
        let d = diff_profiles(&base, &new);
        assert_eq!(d[0].name, "a");
        assert_eq!(d[0].delta_s, 2.0);
        assert!((d[0].ratio - 3.0).abs() < 1e-6);
        assert_eq!(d[1].delta_s, -0.5);
    }

    #[test]
    fn diff_handles_one_sided_spans_without_infinities() {
        let base = BTreeMap::from([("gone".to_string(), 1.0)]);
        let new = BTreeMap::from([("new".to_string(), 2.0)]);
        let d = diff_profiles(&base, &new);
        assert!(d.iter().all(|x| x.ratio.is_finite()));
        assert_eq!(d[0].name, "new");
        assert_eq!(d[1].name, "gone");
    }
}
