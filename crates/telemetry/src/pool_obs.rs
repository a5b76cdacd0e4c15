//! The bridge between the dependency-free `workpool::PoolObserver` and the
//! telemetry collector: a [`PoolTelemetry`] attaches to a pool, accumulates
//! each lane's task intervals locally (one cache-padded slot per lane, no
//! collector traffic while observing), and *lands* the result — worker
//! occupancy tracks, `pool.*` counters and gauges, and the task-runtime
//! histogram — into a [`TelemetryCollector`] on demand.
//!
//! Landing is explicit for a reason: the collector's default snapshots
//! stay **byte-identical across thread counts** (the substrate determinism
//! contract), because wall-clock observations only enter the snapshot when
//! a profiling entry point (`obs_export`, a scheduler's `land_observer`)
//! asks for them. Worker tracks are namespaced (`{ns}/worker{lane}`,
//! `{ns}/caller`) so real wall-clock tracks sit beside virtual-time rank
//! tracks in one Chrome trace without colliding.

use crate::collector::TelemetryCollector;
use crate::metrics::Histogram;
use crate::span::{Span, SpanCat, TrackKind};
use exa_machine::SimTime;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};
use workpool::{PoolObserver, CALLER_LANE};

/// Task intervals a lane keeps between lands (the earliest ones), so an
/// observer that is never landed stays bounded. Task counts, busy time and
/// the task-runtime histogram stay exact past the cap.
pub const MAX_LANE_INTERVALS: usize = 1024;

/// Accumulator slots for pool workers: worker lane `w` records into slot
/// `w % WORKER_SLOTS`, and every helping caller (`CALLER_LANE`) into one
/// more slot after them. Up to this many workers, no two lanes share a
/// slot.
const WORKER_SLOTS: usize = 64;

#[derive(Debug, Default)]
struct LaneLog {
    /// Closed task intervals: `(start_ns, end_ns, stolen)`, at most
    /// [`MAX_LANE_INTERVALS`].
    intervals: Vec<(u64, u64, bool)>,
    busy_ns: u64,
    stolen: u64,
}

/// What the lanes of one slot observed. Landing merges every slot's
/// accumulator into one: counts add, histograms merge exactly, and each
/// lane's log lives in exactly one slot.
#[derive(Debug, Default)]
struct Inner {
    lanes: BTreeMap<usize, LaneLog>,
    tasks: u64,
    task_run_s: Histogram,
}

impl Inner {
    /// Fold `other`, a different slot's accumulator, into this one.
    fn absorb(&mut self, other: Inner) {
        self.lanes.extend(other.lanes);
        self.tasks += other.tasks;
        self.task_run_s.merge(&other.task_run_s);
    }
}

/// One slot's accumulator on cache lines of its own, so lanes recording
/// at the same time neither wait on one lock nor share a line.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Slot(Mutex<Inner>);

/// Accumulating [`PoolObserver`]: attach with
/// `pool.set_observer(Some(obs))`, run work, then [`PoolTelemetry::land`]
/// the accumulated activity into a collector (which drains the
/// accumulator, so alternating run/land cycles never double-count).
///
/// Each lane records its tasks into its own cache-padded slot; the getter
/// and the land merge the slots.
#[derive(Debug)]
pub struct PoolTelemetry {
    slots: Box<[Slot]>,
}

impl Default for PoolTelemetry {
    fn default() -> Self {
        PoolTelemetry {
            slots: (0..=WORKER_SLOTS).map(|_| Slot::default()).collect(),
        }
    }
}

impl PoolTelemetry {
    /// A fresh, empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulator `lane` records into.
    fn slot(&self, lane: usize) -> MutexGuard<'_, Inner> {
        let i = if lane == CALLER_LANE {
            WORKER_SLOTS
        } else {
            lane % WORKER_SLOTS
        };
        self.slots[i].0.lock().expect("pool telemetry")
    }

    /// `f` summed over every slot.
    fn sum(&self, f: impl Fn(&Inner) -> u64) -> u64 {
        self.slots
            .iter()
            .map(|s| f(&s.0.lock().expect("pool telemetry")))
            .sum()
    }

    /// Tasks observed so far.
    pub fn tasks(&self) -> u64 {
        self.sum(|g| g.tasks)
    }

    /// Drain the accumulator into `collector` under `namespace`:
    ///
    /// * one `TrackKind::Worker` track per active lane —
    ///   `{ns}/worker{lane}` for pool workers, `{ns}/caller` for the
    ///   helping caller — carrying a `SpanCat::Task` span per executed
    ///   task up to [`MAX_LANE_INTERVALS`] per lane (stolen ones named
    ///   `task:stolen`), interval-sorted so track
    ///   timestamps are monotone even when a lane's events arrived from
    ///   several threads (nested-scope callers);
    /// * the `pool.tasks` and `pool.tasks_stolen` counters and the
    ///   `pool.busy_s` and `pool.active_lanes` gauges;
    /// * the `pool.task_run_s` histogram, merged into the registry (exact,
    ///   associative).
    ///
    /// Returns total busy nanoseconds landed.
    pub fn land(&self, collector: &TelemetryCollector, namespace: &str) -> u64 {
        let mut inner = Inner::default();
        for s in self.slots.iter() {
            inner.absorb(std::mem::take(&mut *s.0.lock().expect("pool telemetry")));
        }
        let mut busy_total = 0u64;
        for (lane, log) in &inner.lanes {
            let name = if *lane == CALLER_LANE {
                format!("{namespace}/caller")
            } else {
                format!("{namespace}/worker{lane}")
            };
            let track = collector.track(&name, TrackKind::Worker);
            let mut intervals = log.intervals.clone();
            intervals.sort_unstable();
            let spans = intervals.into_iter().map(|(start, end, stolen)| Span {
                name: Cow::Borrowed(if stolen { "task:stolen" } else { "task" }),
                cat: SpanCat::Task,
                start: SimTime::from_secs(start as f64 / 1e9),
                end: SimTime::from_secs(end as f64 / 1e9),
                depth: 0,
            });
            collector.complete_batch(track, spans);
            busy_total += log.busy_ns;
        }
        collector.metrics(|m| {
            m.counter_add("pool.tasks", inner.tasks);
            m.counter_add(
                "pool.tasks_stolen",
                inner.lanes.values().map(|l| l.stolen).sum::<u64>(),
            );
            m.gauge_set("pool.busy_s", busy_total as f64 / 1e9);
            m.gauge_max("pool.active_lanes", inner.lanes.len() as f64);
            m.hist_merge("pool.task_run_s", &inner.task_run_s);
        });
        busy_total
    }
}

impl PoolObserver for PoolTelemetry {
    fn task_run(&self, lane: usize, start_ns: u64, end_ns: u64, stolen: bool) {
        let mut g = self.slot(lane);
        g.tasks += 1;
        g.task_run_s
            .record(end_ns.saturating_sub(start_ns) as f64 / 1e9);
        let log = g.lanes.entry(lane).or_default();
        if log.intervals.len() < MAX_LANE_INTERVALS {
            log.intervals.push((start_ns, end_ns, stolen));
        }
        log.busy_ns += end_ns.saturating_sub(start_ns);
        if stolen {
            log.stolen += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use workpool::ThreadPool;

    /// Busy nanoseconds summed over every lane.
    fn busy_ns(obs: &PoolTelemetry) -> u64 {
        obs.sum(|g| g.lanes.values().map(|l| l.busy_ns).sum())
    }

    fn run_observed(threads: usize) -> (Arc<PoolTelemetry>, TelemetryCollector) {
        let pool = ThreadPool::new(threads);
        let obs = Arc::new(PoolTelemetry::new());
        pool.set_observer(Some(obs.clone()));
        pool.scope(|s| {
            for _ in 0..32 {
                s.spawn(|| {
                    std::hint::black_box((0..500).sum::<u64>());
                });
            }
        });
        pool.set_observer(None);
        (obs, TelemetryCollector::new())
    }

    #[test]
    fn lands_worker_tracks_counters_and_histograms() {
        for threads in [1, 4] {
            let (obs, collector) = run_observed(threads);
            assert_eq!(obs.tasks(), 32);
            let busy = busy_ns(&obs);
            assert!(busy > 0);
            let landed = obs.land(&collector, "pool");
            assert_eq!(landed, busy);
            let snap = collector.snapshot();
            assert_eq!(snap.counter("pool.tasks"), 32);
            let h = snap
                .hist("pool.task_run_s")
                .expect("task runtime histogram");
            assert_eq!(h.count(), 32);
            assert!(h.p99() >= h.p50(), "quantiles monotone");
            let worker_tracks: Vec<_> = snap.tracks.iter().filter(|t| t.kind == "worker").collect();
            assert!(!worker_tracks.is_empty(), "threads = {threads}");
            let track_busy: f64 = worker_tracks.iter().map(|t| t.busy_s).sum();
            assert!((track_busy - busy as f64 / 1e9).abs() < 1e-9);
            if threads == 1 {
                assert_eq!(
                    snap.counter("pool.tasks_stolen"),
                    0,
                    "inline path cannot steal"
                );
                assert!(worker_tracks.iter().all(|t| t.name == "pool/caller"));
            }
            // Worker tracks render into a valid, monotone Chrome trace.
            crate::validate::validate_chrome_trace(&collector.chrome_trace())
                .expect("worker tracks are trace-valid");
        }
    }

    #[test]
    fn land_drains_the_accumulator() {
        let (obs, collector) = run_observed(2);
        obs.land(&collector, "pool");
        assert_eq!(obs.tasks(), 0, "land drains");
        let busy_again = obs.land(&collector, "pool");
        assert_eq!(busy_again, 0);
        assert_eq!(
            collector.snapshot().counter("pool.tasks"),
            32,
            "no double count"
        );
    }

    #[test]
    fn intervals_are_capped_while_counts_stay_exact() {
        let obs = PoolTelemetry::new();
        let tasks = 100_000u64;
        for i in 0..tasks {
            obs.task_run((i % 2) as usize, 10 * i, 10 * i + 3, i % 7 == 0);
        }
        assert_eq!(obs.tasks(), tasks);
        assert_eq!(busy_ns(&obs), 3 * tasks);
        let collector = TelemetryCollector::new();
        assert_eq!(obs.land(&collector, "pool"), 3 * tasks);
        let snap = collector.snapshot();
        assert_eq!(snap.counter("pool.tasks"), tasks);
        assert_eq!(
            snap.hist("pool.task_run_s").expect("histogram").count(),
            tasks
        );
        assert_eq!(snap.tracks.len(), 2);
        assert!(snap
            .tracks
            .iter()
            .all(|t| t.spans == MAX_LANE_INTERVALS as u64));
    }

    /// `(pool.tasks_stolen, landed task:stolen spans, landed task spans)`.
    fn land_stolen(obs: &PoolTelemetry) -> (u64, u64, u64) {
        let collector = TelemetryCollector::new();
        obs.land(&collector, "pool");
        let (stolen, all) = collector.with_timeline(|tl| {
            let spans = || tl.tracks().iter().flat_map(|t| t.spans());
            let stolen = spans().filter(|s| s.name == "task:stolen").count();
            (stolen as u64, spans().count() as u64)
        });
        (
            collector.snapshot().counter("pool.tasks_stolen"),
            stolen,
            all,
        )
    }

    #[test]
    fn stolen_count_matches_stolen_spans_below_the_cap() {
        // Fed directly: 1000 tasks over two lanes, every seventh stolen.
        let obs = PoolTelemetry::new();
        for i in 0..1000u64 {
            obs.task_run((i % 2) as usize, 10 * i, 10 * i + 3, i % 7 == 0);
        }
        assert_eq!(land_stolen(&obs), (143, 143, 1000));
        // Observed on a real pool, where the helping caller steals.
        let pool = ThreadPool::new(4);
        let obs = Arc::new(PoolTelemetry::new());
        pool.set_observer(Some(obs.clone()));
        for _ in 0..4 {
            pool.scope(|s| {
                for _ in 0..64 {
                    s.spawn(|| {
                        std::hint::black_box((0..2000).sum::<u64>());
                    });
                }
            });
        }
        pool.set_observer(None);
        let (counter, spans, all) = land_stolen(&obs);
        assert_eq!(all, 256);
        assert_eq!(counter, spans);
    }

    #[test]
    fn observing_without_landing_leaves_collector_untouched() {
        let (obs, collector) = run_observed(4);
        assert!(obs.tasks() > 0);
        let snap = collector.snapshot();
        assert_eq!(snap.spans_total, 0);
        assert_eq!(snap.counter("pool.tasks"), 0);
    }
}
