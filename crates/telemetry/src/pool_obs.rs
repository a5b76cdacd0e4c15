//! The bridge between the dependency-free `workpool::PoolObserver` hooks
//! and the telemetry collector: a [`PoolTelemetry`] attaches to a pool,
//! accumulates per-lane wall-clock activity locally (one cache-padded
//! slot per lane, no collector traffic while observing), and *lands* the
//! result — worker occupancy tracks, `pool.*` counters/gauges, and
//! task-runtime / steal-latency histograms — into a [`TelemetryCollector`]
//! on demand.
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
/// the histograms stay exact past the cap.
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
    steals: u64,
    stolen_jobs: u64,
    injects: u64,
    depth_sum: u64,
    depth_max: u64,
    parks: u64,
    parked_ns: u64,
    task_run_s: Histogram,
    steal_latency_s: Histogram,
}

impl Inner {
    /// Fold `other`, a different slot's accumulator, into this one.
    fn absorb(&mut self, other: Inner) {
        self.lanes.extend(other.lanes);
        self.tasks += other.tasks;
        self.steals += other.steals;
        self.stolen_jobs += other.stolen_jobs;
        self.injects += other.injects;
        self.depth_sum += other.depth_sum;
        self.depth_max = self.depth_max.max(other.depth_max);
        self.parks += other.parks;
        self.parked_ns += other.parked_ns;
        self.task_run_s.merge(&other.task_run_s);
        self.steal_latency_s.merge(&other.steal_latency_s);
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
/// Each lane records into its own cache-padded slot: `task_run`, `steal`,
/// `park` and `unpark` into the slot of the lane they fire on, `inject`
/// into the slot of the queue it fills. The getters and the land merge
/// the slots.
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

    /// Steal operations observed so far.
    pub fn steals(&self) -> u64 {
        self.sum(|g| g.steals)
    }

    /// Injects observed so far.
    pub fn injects(&self) -> u64 {
        self.sum(|g| g.injects)
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
    /// * `pool.*` counters (tasks, stolen tasks, steals, stolen jobs,
    ///   injects, parks) and gauges (busy seconds, parked seconds, queue
    ///   depth mean/max, active lanes);
    /// * `pool.task_run_s` / `pool.steal_latency_s` histograms, merged
    ///   into the registry (exact, associative).
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
            m.counter_add("pool.steals", inner.steals);
            m.counter_add("pool.stolen_jobs", inner.stolen_jobs);
            m.counter_add("pool.injects", inner.injects);
            m.counter_add("pool.parks", inner.parks);
            m.gauge_set("pool.busy_s", busy_total as f64 / 1e9);
            m.gauge_set("pool.parked_s", inner.parked_ns as f64 / 1e9);
            m.gauge_max("pool.queue_depth_max", inner.depth_max as f64);
            if inner.injects > 0 {
                m.gauge_set(
                    "pool.queue_depth_mean",
                    inner.depth_sum as f64 / inner.injects as f64,
                );
            }
            m.gauge_max("pool.active_lanes", inner.lanes.len() as f64);
            m.hist_merge("pool.task_run_s", &inner.task_run_s);
            m.hist_merge("pool.steal_latency_s", &inner.steal_latency_s);
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

    fn steal(&self, thief: usize, _victim: usize, taken: usize, latency_ns: u64) {
        let mut g = self.slot(thief);
        g.steals += 1;
        g.stolen_jobs += taken as u64;
        g.steal_latency_s.record(latency_ns as f64 / 1e9);
    }

    fn inject(&self, slot: usize, queue_depth: usize) {
        let mut g = self.slot(slot);
        g.injects += 1;
        g.depth_sum += queue_depth as u64;
        g.depth_max = g.depth_max.max(queue_depth as u64);
    }

    fn park(&self, worker: usize) {
        self.slot(worker).parks += 1;
    }

    fn unpark(&self, worker: usize, parked_ns: u64) {
        self.slot(worker).parked_ns += parked_ns;
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
            assert_eq!(snap.counter("pool.injects"), 32);
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
                assert_eq!(snap.counter("pool.steals"), 0, "inline path cannot steal");
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

    #[test]
    fn observing_without_landing_leaves_collector_untouched() {
        let (obs, collector) = run_observed(4);
        assert!(obs.tasks() > 0);
        let snap = collector.snapshot();
        assert_eq!(snap.spans_total, 0);
        assert_eq!(snap.counter("pool.tasks"), 0);
    }
}
