//! Work-stealing rank scheduler: simulate ranks concurrently, merge
//! deterministically.
//!
//! A [`Comm`] advances one virtual clock per rank, and until now every
//! rank's compute closure ran sequentially on the calling thread. The
//! [`RankScheduler`] fans a *compute phase* — one closure per rank, no
//! communication inside — out over the persistent work-stealing pool, then
//! performs a **deterministic virtual-time merge**:
//!
//! 1. per-rank results (elapsed virtual time, recorded span log) land in a
//!    rank-indexed table, so the pool's interleaving is invisible;
//! 2. clocks are charged in rank order, exactly as the sequential
//!    scheduler would;
//! 3. each rank's spans land on its own telemetry track in the order it
//!    recorded them, which is their virtual start order (a rank's clock
//!    only advances). Ranks never share a track, so the order in which
//!    ranks land is invisible, and the tracks are those a merge by
//!    `(virtual start time, rank, per-rank sequence)` would give.
//!
//! The result: traces, FOM records and [`crate::CommStats`] are
//! bit-identical to the sequential schedule regardless of thread count.
//! Communication stays on the existing single-threaded [`Comm`] API
//! between phases — the collectives are already deterministic.

use crate::comm::Comm;
use exa_machine::SimTime;
use exa_telemetry::{PoolTelemetry, SpanCat, TelemetryCollector, TrackKind};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use workpool::ThreadPool;

/// Target pool-task count per compute phase. Pure load-balance
/// granularity: the per-rank outcome table is positional, so any value
/// yields identical results.
const TASK_CHUNKS: usize = 64;

/// One span recorded by a rank inside a compute phase, in rank-local
/// virtual time.
#[derive(Debug, Clone)]
struct RankEvent {
    rank: usize,
    name: Cow<'static, str>,
    cat: SpanCat,
    start: SimTime,
    end: SimTime,
}

/// Per-rank execution context handed to the phase closure. Tracks the
/// rank's virtual clock locally (the shared [`Comm`] clocks are only
/// touched during the merge) and appends the rank's spans to the span log
/// of the pool task it runs in.
#[derive(Debug)]
pub struct RankCtx {
    rank: usize,
    start: SimTime,
    now: SimTime,
    /// The task's span log: the spans of each rank it ran so far, rank
    /// after rank, each rank's in record order.
    events: Vec<RankEvent>,
}

impl RankCtx {
    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Charge local compute time and record it as a named span on this
    /// rank's telemetry track.
    pub fn span(&mut self, name: impl Into<Cow<'static, str>>, cat: SpanCat, dt: SimTime) {
        let start = self.now;
        self.now += dt;
        self.events.push(RankEvent {
            rank: self.rank,
            name: name.into(),
            cat,
            start,
            end: self.now,
        });
    }
}

/// How a [`RankScheduler`] gets its pool: the process-global one (sized by
/// `EXA_THREADS`) or a private one with an explicit lane count.
#[derive(Debug)]
enum PoolRef {
    Global,
    Owned(ThreadPool),
}

/// One wall-clock scheduler phase interval, pending land.
#[derive(Debug, Clone, Copy)]
struct PhaseMark {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Observer state attached by [`RankScheduler::attach_observer`]: the pool
/// observer accumulating per-lane activity, plus scheduler-level phase
/// marks (fan-out / merge / idle) in pool-clock nanoseconds. Everything is
/// accumulated locally and only reaches the collector on
/// [`RankScheduler::land_observer`], keeping unobserved runs and observed
/// runs byte-identical until the land.
#[derive(Debug)]
struct SchedObserver {
    tel: Arc<PoolTelemetry>,
    collector: Arc<TelemetryCollector>,
    namespace: String,
    marks: Mutex<Vec<PhaseMark>>,
    fanout_wall_ns: AtomicU64,
    phases: AtomicU64,
    last_end_ns: AtomicU64,
}

/// What [`RankScheduler::land_observer`] landed — the inputs of the
/// substrate occupancy gate.
#[derive(Debug, Clone, Copy)]
pub struct SchedLanding {
    /// Total busy nanoseconds across every pool lane.
    pub busy_ns: u64,
    /// Wall nanoseconds spent inside fan-out windows (ranks in flight).
    pub fanout_wall_ns: u64,
    /// Execution lanes the scheduler fanned ranks across.
    pub lanes: usize,
    /// Compute phases observed.
    pub phases: u64,
}

impl SchedLanding {
    /// Fraction of the fan-out window × lanes that lanes spent busy —
    /// 1.0 is a perfectly packed pool.
    pub fn occupancy(&self) -> f64 {
        if self.fanout_wall_ns == 0 || self.lanes == 0 {
            return 0.0;
        }
        self.busy_ns as f64 / (self.fanout_wall_ns as f64 * self.lanes as f64)
    }
}

/// Executes per-rank compute closures concurrently with the deterministic
/// virtual-time merge described in the module docs.
#[derive(Debug)]
pub struct RankScheduler {
    pool: PoolRef,
    observer: Option<SchedObserver>,
}

impl Default for RankScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl RankScheduler {
    /// A scheduler on the process-wide pool (`EXA_THREADS`, 0 ⇒ auto).
    pub fn new() -> Self {
        RankScheduler {
            pool: PoolRef::Global,
            observer: None,
        }
    }

    /// A scheduler with an explicit lane count (tests and benches pin
    /// concurrency without touching the environment). `1` is the
    /// sequential schedule: every rank closure runs inline, in rank order.
    pub fn with_threads(threads: usize) -> Self {
        RankScheduler {
            pool: PoolRef::Owned(ThreadPool::new(threads)),
            observer: None,
        }
    }

    /// The sequential reference schedule (`with_threads(1)`).
    pub fn sequential() -> Self {
        Self::with_threads(1)
    }

    /// Execution lanes this scheduler fans ranks across.
    pub fn threads(&self) -> usize {
        match &self.pool {
            PoolRef::Global => ThreadPool::global().threads(),
            PoolRef::Owned(p) => p.threads(),
        }
    }

    fn pool(&self) -> &ThreadPool {
        match &self.pool {
            PoolRef::Global => ThreadPool::global(),
            PoolRef::Owned(p) => p,
        }
    }

    /// Attach a wall-clock observer: a [`PoolTelemetry`] on this
    /// scheduler's pool (the *global* pool for [`RankScheduler::new`] —
    /// fan-outs from other schedulers on the same pool are observed too)
    /// plus scheduler phase tracking (fan-out / merge / idle windows).
    /// Nothing reaches `collector` until [`RankScheduler::land_observer`];
    /// until then simulation outputs remain byte-identical to an
    /// unobserved run. Returns the pool observer for direct inspection.
    pub fn attach_observer(
        &mut self,
        collector: &Arc<TelemetryCollector>,
        namespace: &str,
    ) -> Arc<PoolTelemetry> {
        let tel = Arc::new(PoolTelemetry::new());
        self.pool().set_observer(Some(tel.clone()));
        self.observer = Some(SchedObserver {
            tel: tel.clone(),
            collector: Arc::clone(collector),
            namespace: namespace.to_string(),
            marks: Mutex::new(Vec::new()),
            fanout_wall_ns: AtomicU64::new(0),
            phases: AtomicU64::new(0),
            last_end_ns: AtomicU64::new(0),
        });
        tel
    }

    /// Detach the observer and land everything it accumulated into the
    /// collector passed to [`RankScheduler::attach_observer`]: per-lane
    /// `{ns}/worker*` occupancy tracks, `pool.*` counters and histograms,
    /// and a `{ns}/scheduler` track of fan-out / merge / idle phase spans.
    /// Returns the landing summary (`None` when no observer is attached).
    pub fn land_observer(&mut self) -> Option<SchedLanding> {
        let obs = self.observer.take()?;
        self.pool().set_observer(None);
        let busy_ns = obs.tel.land(&obs.collector, &obs.namespace);
        let track_name = format!("{}/scheduler", obs.namespace);
        let track = obs.collector.track(&track_name, TrackKind::Worker);
        let mut marks = obs.marks.into_inner().expect("scheduler marks");
        marks.sort_by_key(|m| (m.start_ns, m.end_ns));
        obs.collector.complete_batch(
            track,
            marks.into_iter().map(|m| exa_telemetry::Span {
                name: Cow::Borrowed(m.name),
                cat: SpanCat::Phase,
                start: SimTime::from_secs(m.start_ns as f64 / 1e9),
                end: SimTime::from_secs(m.end_ns as f64 / 1e9),
                depth: 0,
            }),
        );
        let phases = obs.phases.load(Ordering::Relaxed);
        obs.collector
            .metrics(|m| m.counter_add("sched.phases", phases));
        Some(SchedLanding {
            busy_ns,
            fanout_wall_ns: obs.fanout_wall_ns.load(Ordering::Relaxed),
            lanes: self.threads(),
            phases,
        })
    }

    /// Run one compute phase: `f(ctx, state)` once per rank, concurrently,
    /// with `states[r]` the rank-private state. Blocks until every rank
    /// finished, then merges clocks and span logs deterministically.
    ///
    /// `f` must not touch the communicator (phases are pure compute;
    /// collectives go between phases) and must be deterministic per rank —
    /// everything else about thread interleaving is absorbed by the merge.
    pub fn compute_phase<S, F>(&self, comm: &mut Comm, states: &mut [S], f: F)
    where
        S: Send,
        F: Fn(&mut RankCtx, &mut S) + Sync,
    {
        self.phase(comm, states, None, None, f)
    }

    /// [`RankScheduler::compute_phase`] with the ranks packed into pool
    /// tasks in `order` (a permutation of `0..p`) instead of rank order:
    /// consecutive entries share a task. Only memory locality changes —
    /// the outcome table stays rank-indexed, so states, clocks, spans and
    /// [`crate::CommStats`] are identical to the rank-order phase. A
    /// caller whose ranks read shared inputs lists the ranks that share
    /// them next to each other.
    pub fn compute_phase_ordered<S, F>(
        &self,
        comm: &mut Comm,
        states: &mut [S],
        order: &[usize],
        f: F,
    ) where
        S: Send,
        F: Fn(&mut RankCtx, &mut S) + Sync,
    {
        self.phase(comm, states, None, Some(order), f)
    }

    /// [`RankScheduler::compute_phase`] with per-rank clock skew: rank `r`'s
    /// virtual compute time (elapsed clock *and* recorded spans) is scaled
    /// by `skew[r]` during the merge — the straggler model of the fault
    /// scenario engine. The closure itself runs unchanged, so rank state
    /// stays bit-identical to the unskewed run; only virtual time stretches.
    /// `None` (or all-1.0) is exactly [`RankScheduler::compute_phase`].
    pub fn compute_phase_skewed<S, F>(
        &self,
        comm: &mut Comm,
        states: &mut [S],
        skew: Option<&[f64]>,
        f: F,
    ) where
        S: Send,
        F: Fn(&mut RankCtx, &mut S) + Sync,
    {
        self.phase(comm, states, skew, None, f)
    }

    /// The one compute-phase core: ranks packed into pool tasks in
    /// `order` (`None` is rank order), outcomes landed positionally, then
    /// the skew and the deterministic merge.
    fn phase<S, F>(
        &self,
        comm: &mut Comm,
        states: &mut [S],
        skew: Option<&[f64]>,
        order: Option<&[usize]>,
        f: F,
    ) where
        S: Send,
        F: Fn(&mut RankCtx, &mut S) + Sync,
    {
        let p = comm.size();
        assert_eq!(states.len(), p, "one state per rank");
        let starts: Vec<SimTime> = (0..p).map(|r| comm.now(r)).collect();
        // Rank-indexed table of elapsed virtual time.
        let mut elapsed = vec![SimTime::ZERO; p];
        // Each rank's state and elapsed slot, listed in task order. The
        // slots point into the positional tables, so the order decides
        // only which ranks share a pool task, never where a result lands.
        let rank_order = states
            .iter_mut()
            .zip(elapsed.iter_mut())
            .enumerate()
            .map(|(r, (state, out))| (r, state, out));
        let mut tasks: Vec<_> = match order {
            None => rank_order.collect(),
            Some(order) => {
                assert_eq!(order.len(), p, "task order must list every rank once");
                let mut slots: Vec<Option<_>> = rank_order.map(Some).collect();
                order
                    .iter()
                    .map(|&r| slots[r].take().expect("task order lists a rank twice"))
                    .collect()
            }
        };
        // Chunk ranks into at most `TASK_CHUNKS` pool tasks; the chunking
        // affects only load balance, never results (the table is
        // positional, and each span lands on its own rank's track).
        let chunk = p.div_ceil(TASK_CHUNKS).max(1);
        // One span log per task, which its ranks append to in turn.
        let mut logs: Vec<Vec<RankEvent>> = Vec::new();
        logs.resize_with(p.div_ceil(chunk), Vec::new);
        // Wall-clock phase marking (observer attached only): the window
        // from here to the end of the scope is the fan-out (ranks in
        // flight); the gap since the previous phase ended is idle.
        let fanout_start = self.observer.as_ref().map(|obs| {
            let t0 = self.pool().now_ns();
            let prev = obs.last_end_ns.load(Ordering::Relaxed);
            if prev > 0 && t0 > prev {
                obs.marks.lock().expect("scheduler marks").push(PhaseMark {
                    name: "idle",
                    start_ns: prev,
                    end_ns: t0,
                });
            }
            t0
        });
        self.pool().scope(|s| {
            for (task, log) in tasks.chunks_mut(chunk).zip(logs.iter_mut()) {
                let f = &f;
                let starts = &starts;
                s.spawn(move || {
                    let mut ctx = RankCtx {
                        rank: 0,
                        start: SimTime::ZERO,
                        now: SimTime::ZERO,
                        events: std::mem::take(log),
                    };
                    for (rank, state, out) in task.iter_mut() {
                        ctx.rank = *rank;
                        ctx.start = starts[*rank];
                        ctx.now = ctx.start;
                        f(&mut ctx, state);
                        **out = ctx.now - ctx.start;
                    }
                    *log = ctx.events;
                });
            }
        });
        let merge_start = self.observer.as_ref().map(|obs| {
            let t1 = self.pool().now_ns();
            if let Some(t0) = fanout_start {
                obs.fanout_wall_ns
                    .fetch_add(t1.saturating_sub(t0), Ordering::Relaxed);
                obs.marks.lock().expect("scheduler marks").push(PhaseMark {
                    name: "fanout",
                    start_ns: t0,
                    end_ns: t1,
                });
            }
            t1
        });
        // Straggler skew: stretch each rank's virtual outcome about its
        // phase start. Done on the rank-indexed table and the spans, before
        // any clock or telemetry merge, so skewed runs stay thread-count
        // deterministic for exactly the same reason unskewed runs do.
        if let Some(skew) = skew {
            assert_eq!(skew.len(), p, "one skew factor per rank");
            for (r, (elapsed, &s)) in elapsed.iter_mut().zip(skew).enumerate() {
                assert!(s.is_finite() && s > 0.0, "rank {r} skew {s} invalid");
                if s != 1.0 {
                    *elapsed = *elapsed * s;
                }
            }
            for e in logs.iter_mut().flatten() {
                let (s, start) = (skew[e.rank], starts[e.rank]);
                if s != 1.0 {
                    e.start = start + (e.start - start) * s;
                    e.end = start + (e.end - start) * s;
                }
            }
        }
        // Merge step 1: clocks, in rank order — identical to the
        // sequential scheduler's charging order.
        for (r, &dt) in elapsed.iter().enumerate() {
            comm.advance(r, dt);
        }
        // Merge step 2: the rank-compute-time distribution and the span
        // logs, under one collector lock. Each rank's spans sit in one log
        // in record order, which is their start order (skew stretches a
        // rank's spans about one point, keeping it), and go to the rank's
        // own track.
        if let Some(tel) = comm.telemetry.as_ref() {
            tel.collector.with_parts(|timeline, metrics| {
                // Recorded from *virtual* elapsed times — deterministic at
                // any thread count, so it can feed the registry on every
                // telemetry-attached phase without breaking cross-thread
                // byte-identity.
                let hist = metrics.hist_mut("sched.rank_compute_s");
                for dt in &elapsed {
                    hist.record(dt.secs());
                }
                for e in logs.into_iter().flatten() {
                    timeline.complete(tel.tracks[e.rank], e.name, e.cat, e.start, e.end);
                }
            });
        }
        if let Some(obs) = self.observer.as_ref() {
            let t2 = self.pool().now_ns();
            if let Some(t1) = merge_start {
                obs.marks.lock().expect("scheduler marks").push(PhaseMark {
                    name: "merge",
                    start_ns: t1,
                    end_ns: t2,
                });
            }
            obs.last_end_ns.store(t2, Ordering::Relaxed);
            obs.phases.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use exa_telemetry::TelemetryCollector;

    fn us(x: f64) -> SimTime {
        SimTime::from_secs(x * 1e-6)
    }

    /// What one run of [`run`] leaves behind: clocks, Chrome trace, state
    /// digest, communication tally and telemetry snapshot.
    type Outcome = (Vec<SimTime>, String, u64, crate::CommStats, String);

    /// An unbalanced two-phase workload with telemetry and a collective
    /// between the phases, its ranks packed into tasks in `order` (`None`
    /// is rank order).
    fn run(threads: usize, ranks: usize, order: Option<&[usize]>) -> Outcome {
        let sched = RankScheduler::with_threads(threads);
        let collector = TelemetryCollector::shared();
        let mut comm = Comm::new(
            ranks,
            Network::from_machine(&exa_machine::MachineModel::frontier()),
        );
        comm.attach_telemetry(&collector, "world");
        let mut sums = vec![0.0f64; ranks];
        let stretch = |ctx: &mut RankCtx, sum: &mut f64| {
            let r = ctx.rank();
            for i in 0..(r + 1) * 50 {
                *sum += ((r * 1000 + i) as f64).sqrt();
            }
            ctx.span("stretch", SpanCat::Kernel, us((r + 1) as f64));
            ctx.span("relax", SpanCat::Kernel, us(0.5));
        };
        match order {
            Some(order) => sched.compute_phase_ordered(&mut comm, &mut sums, order, stretch),
            None => sched.compute_phase(&mut comm, &mut sums, stretch),
        }
        comm.allreduce(8);
        sched.compute_phase(&mut comm, &mut sums, |ctx, sum| {
            *sum *= 1.5;
            ctx.span("scale", SpanCat::Kernel, us(2.0));
        });
        comm.absorb_telemetry();
        let clocks: Vec<SimTime> = (0..ranks).map(|r| comm.now(r)).collect();
        let digest = exa_telemetry::digest64(&format!("{sums:?}"));
        (
            clocks,
            collector.chrome_trace(),
            u64::from_str_radix(&digest, 16).unwrap(),
            comm.stats(),
            collector.snapshot().to_json(),
        )
    }

    #[test]
    fn parallel_schedule_is_bit_identical_to_sequential() {
        let want = run(1, 9, None);
        for threads in [2, 4] {
            let (cn, tn, dn, _, _) = run(threads, 9, None);
            assert_eq!(want.0, cn, "clocks differ at {threads} threads");
            assert_eq!(want.1, tn, "chrome trace differs at {threads} threads");
            assert_eq!(want.2, dn, "state digest differs at {threads} threads");
        }
    }

    #[test]
    fn task_order_changes_nothing_but_packing() {
        // 200 ranks pack four to a pool task, so a shuffled order
        // regroups ranks across tasks and lanes.
        let ranks = 200;
        let want = run(1, ranks, None);
        for seed in [1u64, 7, 42] {
            let mut order: Vec<usize> = (0..ranks).collect();
            let mut s = seed;
            for i in (1..ranks).rev() {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                order.swap(i, (s >> 33) as usize % (i + 1));
            }
            for threads in [1, 2, 4] {
                let got = run(threads, ranks, Some(&order));
                assert!(
                    got == want,
                    "order seed {seed} at {threads} threads changed an outcome"
                );
            }
        }
    }

    /// Ranks with zero to three spans each, several starting at the same
    /// virtual time, packed two to a task in reversed and shuffled orders:
    /// the timeline, the histogram and the clocks are those of the
    /// rank-order phase, and each rank's track keeps its spans in the
    /// order the rank recorded them.
    #[test]
    fn ordered_phase_lands_what_the_rank_order_phase_lands() {
        let ranks = 70;
        let run = |threads: usize, order: Option<&[usize]>| {
            let sched = RankScheduler::with_threads(threads);
            let collector = TelemetryCollector::shared();
            let mut comm = Comm::new(
                ranks,
                Network::from_machine(&exa_machine::MachineModel::frontier()),
            );
            comm.attach_telemetry(&collector, "w");
            let mut states = vec![(); ranks];
            let phase = |ctx: &mut RankCtx, _: &mut ()| {
                let r = ctx.rank();
                for k in 0..r % 4 {
                    let name = ["a", "b", "c"][k];
                    ctx.span(name, SpanCat::Kernel, us(((r + k) % 3) as f64));
                }
            };
            for _ in 0..2 {
                match order {
                    Some(order) => {
                        sched.compute_phase_ordered(&mut comm, &mut states, order, phase)
                    }
                    None => sched.compute_phase(&mut comm, &mut states, phase),
                }
            }
            let clocks: Vec<SimTime> = (0..ranks).map(|r| comm.now(r)).collect();
            let names: Vec<Vec<String>> = collector.with_timeline(|tl| {
                tl.tracks()
                    .iter()
                    .map(|t| t.spans().iter().map(|s| s.name.to_string()).collect())
                    .collect()
            });
            (
                clocks,
                collector.snapshot().to_json(),
                collector.chrome_trace(),
                names,
            )
        };
        let want = run(1, None);
        for (r, names) in want.3.iter().enumerate() {
            let phase: Vec<String> = ["a", "b", "c"][..r % 4]
                .iter()
                .map(|s| s.to_string())
                .collect();
            assert_eq!(names, &[phase.clone(), phase].concat(), "rank {r}'s spans");
        }
        let reversed: Vec<usize> = (0..ranks).rev().collect();
        let shuffled: Vec<usize> = (0..ranks).map(|i| (i * 17) % ranks).collect();
        for order in [&reversed, &shuffled] {
            for threads in [1, 3] {
                assert!(
                    run(threads, Some(order)) == want,
                    "order {:?}.. at {threads} threads landed something else",
                    &order[..4]
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "lists a rank twice")]
    fn task_order_must_be_a_permutation() {
        let sched = RankScheduler::sequential();
        let mut comm = Comm::new(
            3,
            Network::from_machine(&exa_machine::MachineModel::frontier()),
        );
        let mut states = vec![(); 3];
        sched.compute_phase_ordered(&mut comm, &mut states, &[0, 2, 0], |_, _| {});
    }

    #[test]
    fn phase_advances_each_rank_by_its_own_elapsed_time() {
        let sched = RankScheduler::with_threads(3);
        let mut comm = Comm::new(
            4,
            Network::from_machine(&exa_machine::MachineModel::frontier()),
        );
        let mut states = vec![(); 4];
        sched.compute_phase(&mut comm, &mut states, |ctx, _| {
            ctx.now += us((ctx.rank() + 1) as f64);
        });
        for r in 0..4 {
            assert_eq!(comm.now(r), us((r + 1) as f64));
        }
        assert_eq!(comm.elapsed(), us(4.0));
    }

    #[test]
    fn observer_lands_worker_tracks_phase_spans_and_histograms() {
        let mut sched = RankScheduler::with_threads(4);
        let collector = TelemetryCollector::shared();
        let mut comm = Comm::new(
            32,
            Network::from_machine(&exa_machine::MachineModel::frontier()),
        );
        comm.attach_telemetry(&collector, "world");
        let obs = sched.attach_observer(&collector, "pool");
        let mut states = vec![0.0f64; 32];
        for _ in 0..3 {
            sched.compute_phase(&mut comm, &mut states, |ctx, s| {
                for i in 0..4000 {
                    *s += (i as f64 + ctx.rank() as f64).sqrt();
                }
                ctx.span("work", SpanCat::Kernel, us((ctx.rank() + 1) as f64));
            });
        }
        assert!(obs.tasks() > 0, "fan-out tasks observed");
        let landing = sched.land_observer().expect("observer attached");
        assert!(landing.busy_ns > 0);
        assert!(landing.fanout_wall_ns > 0);
        assert_eq!(landing.phases, 3);
        assert_eq!(landing.lanes, 4);
        assert!(landing.occupancy() > 0.0 && landing.occupancy() <= 1.0 + 1e-9);
        let snap = collector.snapshot();
        assert!(snap
            .tracks
            .iter()
            .any(|t| t.kind == "worker" && t.name.starts_with("pool/")));
        assert!(snap.tracks.iter().any(|t| t.name == "pool/scheduler"));
        assert_eq!(snap.counter("sched.phases"), 3);
        let h = snap
            .hist("sched.rank_compute_s")
            .expect("rank compute histogram");
        assert_eq!(h.count(), 96, "32 ranks x 3 phases");
        assert!(h.p99() >= h.p50());
        // Wall-clock and virtual tracks coexist in one valid trace.
        exa_telemetry::validate_chrome_trace(&collector.chrome_trace()).expect("valid trace");
        assert!(sched.land_observer().is_none(), "second land is a no-op");
    }

    #[test]
    fn rank_compute_histogram_is_thread_count_invariant() {
        let run = |threads: usize| {
            let sched = RankScheduler::with_threads(threads);
            let collector = TelemetryCollector::shared();
            let mut comm = Comm::new(
                16,
                Network::from_machine(&exa_machine::MachineModel::frontier()),
            );
            comm.attach_telemetry(&collector, "w");
            let mut states = vec![(); 16];
            sched.compute_phase(&mut comm, &mut states, |ctx, _| {
                ctx.span("k", SpanCat::Kernel, us((ctx.rank() % 5 + 1) as f64));
            });
            collector.snapshot().to_json()
        };
        assert_eq!(
            run(1),
            run(4),
            "snapshot (incl. histogram) must be byte-identical"
        );
    }

    #[test]
    fn skewed_phase_stretches_only_the_straggler_and_stays_deterministic() {
        let run = |threads: usize| {
            let sched = RankScheduler::with_threads(threads);
            let collector = TelemetryCollector::shared();
            let mut comm = Comm::new(
                4,
                Network::from_machine(&exa_machine::MachineModel::frontier()),
            );
            comm.attach_telemetry(&collector, "w");
            let mut states = vec![(); 4];
            let skew = [1.0, 1.0, 3.0, 1.0];
            sched.compute_phase_skewed(&mut comm, &mut states, Some(&skew), |ctx, _| {
                ctx.span("k", SpanCat::Kernel, us(2.0));
            });
            let clocks: Vec<SimTime> = (0..4).map(|r| comm.now(r)).collect();
            comm.absorb_telemetry();
            (clocks, collector.snapshot().to_json())
        };
        let (clocks, snap1) = run(1);
        assert_eq!(clocks[2], us(6.0), "straggler stretched 3x");
        assert_eq!(clocks[0], us(2.0), "nominal ranks untouched");
        let (c4, snap4) = run(4);
        assert_eq!(clocks, c4, "skewed clocks must be thread-count invariant");
        assert_eq!(snap1, snap4, "skewed telemetry must be byte-identical");
    }

    #[test]
    fn merged_span_log_is_time_then_rank_ordered() {
        let sched = RankScheduler::new();
        let collector = TelemetryCollector::shared();
        let mut comm = Comm::new(
            3,
            Network::from_machine(&exa_machine::MachineModel::summit()),
        );
        comm.attach_telemetry(&collector, "w");
        let mut states = vec![(); 3];
        sched.compute_phase(&mut comm, &mut states, |ctx, _| {
            ctx.span("a", SpanCat::Kernel, us(1.0));
            ctx.span("b", SpanCat::Kernel, us(1.0));
        });
        let snap = collector.snapshot();
        assert_eq!(snap.spans_total, 6);
        exa_telemetry::validate_chrome_trace(&collector.chrome_trace()).expect("valid trace");
    }
}
