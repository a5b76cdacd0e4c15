//! The concurrent campaign query service.
//!
//! [`CampaignService`] answers batches of cost-model queries with three
//! observability guarantees:
//!
//! 1. **Deterministic answers and traces.** Evaluation is pure virtual-time
//!    simulation, cache probes and merges run serially in batch order, and
//!    every span on the `serve/` tracks carries *virtual* timestamps driven
//!    by per-lane cursors — so the Chrome trace is byte-identical at any
//!    `EXA_THREADS`. Wall-clock time flows only into metrics.
//! 2. **RED metrics.** `serve.requests` / `serve.errors` counters and the
//!    `serve.latency_s` histogram (bare aggregate plus per-app labeled
//!    series), alongside cache hit/miss/coalesced counters, shard-occupancy
//!    gauges, and `fom.eval_s{app,scenario}` evaluation histograms.
//! 3. **SLO feeds.** Per-app wall-clock latency histograms accumulate per
//!    epoch and are drained with [`CampaignService::take_epoch`] for the
//!    sentinel's rolling-baseline p99 check.
//!
//! Concurrency model: a batch is one scope on the owned work-stealing
//! pool. It is probed serially (hits and in-batch duplicates resolve
//! immediately; duplicates *coalesce* onto the first occurrence,
//! single-flight style), and each unique miss is spawned as a pool task
//! the moment it is classified, so evaluation overlaps the rest of the
//! probe. A serial merge in batch order then waits for each answer,
//! helping with the batch's queued tasks meanwhile, and lands cache
//! inserts, spans and metrics. The probe ends before the first insert,
//! so hit/miss classification never depends on thread scheduling.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use std::time::Instant;

use exa_apps::query::{evaluate_query, QueryAnswer};
use exa_machine::SimTime;
use exa_telemetry::{
    labeled_key, Histogram, MetricsRegistry, PoolTelemetry, Span, SpanCat, TelemetryCollector,
    TrackId, TrackKind,
};
use serde::Serialize;
use workpool::{Scope, ThreadPool};

use crate::cache::ShardedLru;
use crate::query::Query;

/// An SLO drill: matching queries are re-evaluated until their
/// evaluation has taken `1 + extra_evals` times the wall of its first run,
/// inflating their *wall-clock* cost by that factor while leaving the
/// virtual answer — and therefore the trace and the cache key — untouched.
/// This is how the load campaign manufactures a real latency regression
/// for the sentinel to catch.
#[derive(Debug, Clone, Serialize)]
pub struct SloDrill {
    /// Application whose evaluations are slowed (case-insensitive).
    pub app: String,
    /// Extra first-run walls each matching evaluation spends re-evaluating.
    pub extra_evals: u32,
}

/// Service configuration. `Default` gives a pool sized by `EXA_THREADS`,
/// an 8×512 cache, and full trace sampling.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads for miss evaluation; 0 picks
    /// [`workpool::default_threads`].
    pub threads: usize,
    /// Cache shard count; 0 auto-sizes from the resolved thread count
    /// via [`crate::cache::auto_shards`].
    pub shards: usize,
    /// Entries per cache shard.
    pub capacity_per_shard: usize,
    /// Trace every `trace_sample`-th query (1 = all), up to
    /// [`MAX_TRACED_QUERIES`] span trees. Sampling is by query sequence
    /// number, hence deterministic.
    pub trace_sample: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 0,
            shards: 0,
            capacity_per_shard: 512,
            trace_sample: 1,
        }
    }
}

/// How the cache disposed of one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CacheStatus {
    /// Answered from the cache.
    Hit,
    /// Evaluated cold.
    Miss,
    /// Rode along with an identical in-flight query of the same batch.
    Coalesced,
    /// The query never reached the cache (parse or evaluation failure).
    Error,
}

impl CacheStatus {
    /// Stable lowercase label used in span names and metric labels.
    pub fn label(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Coalesced => "coalesced",
            CacheStatus::Error => "error",
        }
    }
}

/// The service's reply to one query.
#[derive(Debug, Clone, Serialize)]
pub struct QueryOutcome {
    /// Cache disposition.
    pub status: CacheStatus,
    /// The answer; `None` exactly when `status == Error`.
    pub answer: Option<QueryAnswer>,
    /// Error message when `status == Error`.
    pub error: Option<String>,
}

/// Cumulative service counters.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ServeStats {
    /// Queries received (including errors).
    pub requests: u64,
    /// Queries rejected or failed.
    pub errors: u64,
    /// Cache hits.
    pub hits: u64,
    /// Cold evaluations.
    pub misses: u64,
    /// In-batch coalesced duplicates.
    pub coalesced: u64,
    /// Live cache entries.
    pub cache_len: usize,
    /// Total cache capacity.
    pub cache_capacity: usize,
}

impl ServeStats {
    /// Hits + coalesced over all cacheable lookups (hits, misses,
    /// coalesced). Coalesced queries count as hits: they did not pay for
    /// an evaluation.
    pub fn hit_ratio(&self) -> f64 {
        let lookups = self.hits + self.misses + self.coalesced;
        if lookups == 0 {
            return 0.0;
        }
        (self.hits + self.coalesced) as f64 / lookups as f64
    }
}

/// Per-query disposition computed in the serial probe phase.
enum Disposition {
    Error(String),
    Hit {
        query: Query,
        answer: Arc<QueryAnswer>,
    },
    Miss(usize),
    Coalesced(usize),
}

/// One unique cold evaluation of a batch.
struct EvalJob {
    key: String,
    query: Query,
}

/// Worker output for one [`EvalJob`].
struct EvalOut {
    answer: Option<Arc<QueryAnswer>>,
    eval_wall_s: f64,
}

/// One miss of a batch: its job, which the probe publishes before it
/// spawns the task that may evaluate it, and its output, which the task
/// that claimed it publishes (`None` when the evaluation panicked; the
/// pool scope re-raises the panic).
#[derive(Default)]
struct MissSlot {
    job: OnceLock<EvalJob>,
    out: OnceLock<Option<EvalOut>>,
}

/// A batch's RED metrics, accumulated by the merge and landed under one
/// registry lock. Labels borrow the batch's parsed queries.
#[derive(Default)]
struct RedBatch<'q> {
    /// Requests per disposition, indexed like [`STATUS_COUNTERS`].
    by_status: [u64; 4],
    latency: Histogram,
    /// `serve.requests{app, cache, scenario}`.
    requests: BTreeMap<(&'q str, &'static str, &'q str), u64>,
    /// `serve.latency_s{app}`, which is also the app's epoch latency.
    app_latency: BTreeMap<&'q str, Histogram>,
    /// `fom.eval_s{app, scenario}` of the batch's misses.
    eval: BTreeMap<(&'q str, &'q str), Histogram>,
}

/// The counter each disposition adds to, in `CacheStatus` order.
const STATUS_COUNTERS: [&str; 4] = [
    "serve.cache.hits",
    "serve.cache.misses",
    "serve.cache.coalesced",
    "serve.errors",
];

/// Virtual duration of the fixed pipeline steps (parse, probe, render)
/// and of the inter-query gap on a lane — small so the evaluate span
/// (the answer's simulated wall) dominates the picture.
const STEP_S: f64 = 1e-6;

/// Sampled span trees a service lands over its lifetime; later queries
/// are not traced, so a long-running service's trace stays bounded. A
/// 2²⁰-query campaign sampled 1 in 4 096 lands 256.
pub const MAX_TRACED_QUERIES: u64 = 1024;

/// Virtual trace lanes (`serve/lane{k}` tracks). Independent of the pool
/// size, so traces do not vary with it.
const LANES: usize = 4;

/// The memoized, concurrent campaign query engine.
pub struct CampaignService {
    config: ServeConfig,
    /// Shared with the batch's scope while the batch runs.
    pool: Arc<ThreadPool>,
    pool_obs: Arc<PoolTelemetry>,
    collector: Arc<TelemetryCollector>,
    /// Answers sit behind an `Arc`: each shard's hash table keeps up to
    /// twice its capacity in buckets, and pointer-sized values keep the
    /// empty ones small (about 25% less memory per entry).
    cache: ShardedLru<Arc<QueryAnswer>>,
    lane_tracks: Vec<TrackId>,
    /// Virtual-time cursor per lane, seconds.
    lane_cursor_s: [f64; LANES],
    /// Active latency drill, if any.
    drill: Option<SloDrill>,
    /// Global query sequence number (drives lane choice and sampling).
    seq: u64,
    /// Span trees landed so far (at most [`MAX_TRACED_QUERIES`]).
    traced: u64,
    stats: ServeStats,
    /// Per-app wall-clock latency for the current epoch.
    epoch: BTreeMap<String, Histogram>,
}

impl CampaignService {
    /// Build a service. The pool is owned (never the global one) so its
    /// observer and size belong to this service alone.
    pub fn new(config: ServeConfig) -> Self {
        let threads = if config.threads == 0 {
            workpool::default_threads()
        } else {
            config.threads
        };
        let pool = Arc::new(ThreadPool::new(threads));
        let pool_obs = Arc::new(PoolTelemetry::new());
        pool.set_observer(Some(pool_obs.clone() as Arc<dyn workpool::PoolObserver>));
        let collector = TelemetryCollector::shared();
        let lane_tracks = (0..LANES)
            .map(|k| collector.track(&format!("serve/lane{k}"), TrackKind::Worker))
            .collect();
        let shards = if config.shards == 0 {
            crate::cache::auto_shards(threads)
        } else {
            config.shards
        };
        let cache = ShardedLru::new(shards, config.capacity_per_shard);
        CampaignService {
            config,
            pool,
            pool_obs,
            collector,
            cache,
            lane_tracks,
            lane_cursor_s: [0.0; LANES],
            drill: None,
            seq: 0,
            traced: 0,
            stats: ServeStats::default(),
            epoch: BTreeMap::new(),
        }
    }

    /// The service's collector (trace + metrics surface).
    pub fn collector(&self) -> &TelemetryCollector {
        &self.collector
    }

    /// Cumulative counters.
    pub fn stats(&self) -> ServeStats {
        let mut s = self.stats.clone();
        s.cache_len = self.cache.len();
        s.cache_capacity = self.cache.capacity();
        s
    }

    /// Install or clear the latency drill for subsequent batches.
    pub fn set_drill(&mut self, drill: Option<SloDrill>) {
        self.drill = drill;
    }

    /// Drain the per-app epoch latency histograms (for SLO checks).
    pub fn take_epoch(&mut self) -> BTreeMap<String, Histogram> {
        std::mem::take(&mut self.epoch)
    }

    /// Land the evaluation pool's worker telemetry (wall-clock tracks and
    /// `pool.*` metrics) into the service collector. Call once at the end
    /// of a campaign — the landed tracks carry wall-clock time and are
    /// *not* part of the deterministic `serve/` trace surface.
    pub fn land_pool(&self) -> u64 {
        self.pool_obs.land(&self.collector, "pool")
    }

    /// The service's Chrome trace (deterministic `serve/` tracks only,
    /// until [`Self::land_pool`] is called).
    pub fn chrome_trace(&self) -> String {
        self.collector.chrome_trace()
    }

    /// Answer a batch of textual queries, in order. The batch runs as one
    /// pool scope in three overlapping steps:
    ///
    /// 1. **Probe**, serial and in batch order on the calling thread:
    ///    parse, classify against the cache, coalesce in-batch duplicates
    ///    onto their first occurrence (single-flight), and spawn one pool
    ///    task per unique miss as soon as it is classified. The probe ends
    ///    before the first cache insert, so hit, miss and coalesced
    ///    dispositions never depend on thread scheduling.
    /// 2. **Evaluate**, on the pool from the first miss on: each task
    ///    evaluates the lowest miss no task has claimed yet, so evaluation
    ///    proceeds in batch order whichever lane runs it.
    /// 3. **Merge**, serial and in batch order on the calling thread:
    ///    wait for each answer in turn, running this batch's queued tasks
    ///    meanwhile; insert misses into the cache; record stats, spans and
    ///    RED metrics. The metrics land under one registry lock per batch.
    ///
    /// A one-thread pool runs every evaluation inline, in batch order,
    /// when the merge first waits for it.
    pub fn run_batch(&mut self, queries: &[String]) -> Vec<QueryOutcome> {
        let evals = Evaluations {
            misses: (0..queries.len()).map(|_| MissSlot::default()).collect(),
            claimed: AtomicUsize::new(0),
            drill: self.drill.clone(),
            merger: std::thread::current(),
        };
        let pool = Arc::clone(&self.pool);
        pool.scope(|scope| {
            let (dispositions, probe_s) = self.probe(queries, scope, &evals);
            self.merge(&dispositions, &probe_s, scope, &evals)
        })
    }

    /// Step 1 of [`Self::run_batch`]: each query's disposition and the
    /// wall-clock seconds its probe took.
    fn probe<'env>(
        &mut self,
        queries: &[String],
        scope: &Scope<'_, 'env>,
        evals: &'env Evaluations,
    ) -> (Vec<Disposition>, Vec<f64>) {
        let mut dispositions: Vec<Disposition> = Vec::with_capacity(queries.len());
        let mut probe_s: Vec<f64> = Vec::with_capacity(queries.len());
        let mut pending: BTreeMap<String, usize> = BTreeMap::new();
        for text in queries {
            let t0 = Instant::now();
            let disposition = match Query::parse(text) {
                Err(e) => Disposition::Error(e),
                Ok(query) => {
                    let key = query.key();
                    if let Some(answer) = self.cache.get(&key) {
                        Disposition::Hit { query, answer }
                    } else if let Some(&m) = pending.get(&key) {
                        Disposition::Coalesced(m)
                    } else {
                        let m = pending.len();
                        pending.insert(key.clone(), m);
                        let _ = evals.misses[m].job.set(EvalJob { key, query });
                        scope.spawn(|| evals.run_next());
                        Disposition::Miss(m)
                    }
                }
            };
            probe_s.push(t0.elapsed().as_secs_f64());
            dispositions.push(disposition);
        }
        (dispositions, probe_s)
    }

    /// Step 3 of [`Self::run_batch`]: the batch's outcomes, in order.
    fn merge(
        &mut self,
        dispositions: &[Disposition],
        probe_s: &[f64],
        scope: &Scope<'_, '_>,
        evals: &Evaluations,
    ) -> Vec<QueryOutcome> {
        let mut lane_spans: Vec<Vec<Span>> = vec![Vec::new(); self.lane_tracks.len()];
        let mut red = RedBatch::default();
        let mut results: Vec<QueryOutcome> = Vec::with_capacity(dispositions.len());
        for (disposition, &probe_s) in dispositions.iter().zip(probe_s) {
            let seq = self.seq;
            self.seq += 1;
            self.stats.requests += 1;
            // (status, query context, answer/error, wall paid on eval)
            let (status, query, answer, error, eval_wall_s): (
                CacheStatus,
                Option<&Query>,
                Option<Arc<QueryAnswer>>,
                Option<String>,
                f64,
            ) = match disposition {
                Disposition::Error(e) => (CacheStatus::Error, None, None, Some(e.clone()), 0.0),
                Disposition::Hit { query, answer } => (
                    CacheStatus::Hit,
                    Some(query),
                    Some(Arc::clone(answer)),
                    None,
                    0.0,
                ),
                &Disposition::Miss(m) | &Disposition::Coalesced(m) => {
                    let Some(out) = evals.wait(m, scope) else {
                        // The evaluation panicked; the scope re-raises it.
                        break;
                    };
                    let job = evals.misses[m].job.get().expect("probed miss");
                    match &out.answer {
                        None => (
                            CacheStatus::Error,
                            Some(&job.query),
                            None,
                            Some(format!("evaluation failed for '{}'", job.query.app)),
                            out.eval_wall_s,
                        ),
                        Some(a) if matches!(disposition, Disposition::Miss(_)) => {
                            self.cache.insert(&job.key, Arc::clone(a));
                            (
                                CacheStatus::Miss,
                                Some(&job.query),
                                Some(Arc::clone(a)),
                                None,
                                out.eval_wall_s,
                            )
                        }
                        // The coalesced copy pays the evaluation wall too —
                        // it waited on the same in-flight work.
                        Some(a) => (
                            CacheStatus::Coalesced,
                            Some(&job.query),
                            Some(Arc::clone(a)),
                            None,
                            out.eval_wall_s,
                        ),
                    }
                }
            };
            match status {
                CacheStatus::Hit => self.stats.hits += 1,
                CacheStatus::Miss => self.stats.misses += 1,
                CacheStatus::Coalesced => self.stats.coalesced += 1,
                CacheStatus::Error => self.stats.errors += 1,
            }
            let latency_s = probe_s + eval_wall_s;
            red.record(status, query, answer.as_deref(), latency_s);

            // Virtual-time span tree, deterministically sampled.
            if seq.is_multiple_of(self.config.trace_sample.max(1))
                && self.traced < MAX_TRACED_QUERIES
            {
                self.traced += 1;
                let lane = (seq % self.lane_tracks.len() as u64) as usize;
                let mut t = self.lane_cursor_s[lane];
                let start = t;
                let status_label = status.label();
                let mut children: Vec<Span> = Vec::with_capacity(4);
                children.push(step_span("parse", t, STEP_S));
                t += STEP_S;
                if status != CacheStatus::Error {
                    children.push(step_span(format!("probe [{status_label}]"), t, STEP_S));
                    t += STEP_S;
                }
                if status == CacheStatus::Miss {
                    let a = answer.as_ref().expect("miss carries an answer");
                    children.push(Span {
                        name: format!("evaluate {}", a.app).into(),
                        cat: SpanCat::Task,
                        start: SimTime::from_secs(t),
                        end: SimTime::from_secs(t + a.wall_s),
                        depth: 1,
                    });
                    t += a.wall_s;
                }
                if status != CacheStatus::Error {
                    children.push(step_span("render", t, STEP_S));
                    t += STEP_S;
                }
                let parent_name = match query {
                    Some(q) if !q.scenario.is_empty() => {
                        format!("serve {} [{}] @{}", q.app, status_label, q.scenario)
                    }
                    Some(q) => format!("serve {} [{}]", q.app, status_label),
                    None => "serve [error]".to_string(),
                };
                lane_spans[lane].push(Span {
                    name: parent_name.into(),
                    cat: SpanCat::Phase,
                    start: SimTime::from_secs(start),
                    end: SimTime::from_secs(t),
                    depth: 0,
                });
                lane_spans[lane].extend(children);
                self.lane_cursor_s[lane] = t + STEP_S;
            }

            results.push(QueryOutcome {
                status,
                answer: answer.map(|a| QueryAnswer::clone(&a)),
                error,
            });
        }

        for (lane, spans) in lane_spans.into_iter().enumerate() {
            if !spans.is_empty() {
                self.collector.complete_batch(self.lane_tracks[lane], spans);
            }
        }
        for (&app, h) in &red.app_latency {
            match self.epoch.get_mut(app) {
                Some(epoch) => epoch.merge(h),
                None => {
                    self.epoch.insert(app.to_string(), h.clone());
                }
            }
        }

        // RED metrics, then cache/saturation gauges of the post-batch state.
        let evaluated = dispositions
            .iter()
            .filter(|d| matches!(d, Disposition::Miss(_)))
            .count();
        let hit_ratio = self.stats().hit_ratio();
        let cache_len = self.cache.len() as f64;
        let cache_capacity = self.cache.capacity() as f64;
        let occupancy = self.cache.shard_occupancy();
        self.collector.metrics(|m| {
            red.land(m);
            m.gauge_max("serve.inflight.peak", evaluated as f64);
            m.gauge_set("serve.cache.len", cache_len);
            m.gauge_set("serve.cache.capacity", cache_capacity);
            m.gauge_set("serve.cache.hit_ratio", hit_ratio);
            for (shard, occ) in occupancy.iter().enumerate() {
                m.gauge_set(
                    &labeled_key(
                        "serve.cache.shard_occupancy",
                        &[("shard", &shard.to_string())],
                    ),
                    *occ as f64,
                );
            }
        });
        results
    }
}

impl<'q> RedBatch<'q> {
    /// Count one request: bare aggregates always, labeled series when the
    /// query parsed.
    fn record(
        &mut self,
        status: CacheStatus,
        query: Option<&'q Query>,
        answer: Option<&QueryAnswer>,
        latency_s: f64,
    ) {
        self.by_status[status as usize] += 1;
        self.latency.record(latency_s);
        let Some(q) = query else { return };
        *self
            .requests
            .entry((&q.app, status.label(), &q.scenario))
            .or_default() += 1;
        self.app_latency
            .entry(&q.app)
            .or_default()
            .record(latency_s);
        if let (CacheStatus::Miss, Some(a)) = (status, answer) {
            self.eval
                .entry((&q.app, &q.scenario))
                .or_default()
                .record(a.wall_s);
        }
    }

    /// Add the batch to the registry. Counters add and histograms merge
    /// exactly, so the registry ends as if every request had been recorded
    /// on its own; a series no request touched is not created.
    fn land(&self, m: &mut MetricsRegistry) {
        let requests: u64 = self.by_status.iter().sum();
        if requests == 0 {
            return;
        }
        m.counter_add("serve.requests", requests);
        for (name, &n) in STATUS_COUNTERS.iter().zip(&self.by_status) {
            if n > 0 {
                m.counter_add(name, n);
            }
        }
        m.hist_merge("serve.latency_s", &self.latency);
        for (&(app, cache, scenario), &n) in &self.requests {
            let labels = [("app", app), ("cache", cache), ("scenario", scenario)];
            m.counter_add(&labeled_key("serve.requests", &labels), n);
        }
        for (&app, h) in &self.app_latency {
            m.hist_merge(&labeled_key("serve.latency_s", &[("app", app)]), h);
        }
        for (&(app, scenario), h) in &self.eval {
            let labels = [("app", app), ("scenario", scenario)];
            m.hist_merge(&labeled_key("fom.eval_s", &labels), h);
        }
    }
}

/// What a batch's evaluation tasks share with the merge.
struct Evaluations {
    /// One slot per query (the most misses a batch can hold).
    misses: Vec<MissSlot>,
    /// Misses claimed by a task so far.
    claimed: AtomicUsize,
    drill: Option<SloDrill>,
    /// The thread running the merge, woken when an answer lands.
    merger: Thread,
}

impl Evaluations {
    /// One pool task: evaluate the lowest unclaimed miss and publish its
    /// output.
    fn run_next(&self) {
        // Claims never outnumber spawned tasks, and the probe publishes
        // miss m before it spawns the m-th task, so the claimed job is
        // published: some claimer at or before this one in the claim order
        // was spawned after it, and the AcqRel claims carry that spawn's
        // ordering to every later claimer.
        let m = self.claimed.fetch_add(1, Ordering::AcqRel);
        let slot = &self.misses[m];
        let job = slot
            .job
            .get()
            .expect("a miss is published before its task is spawned");
        let result =
            panic::catch_unwind(AssertUnwindSafe(|| evaluate_job(job, self.drill.as_ref())));
        let (out, panicked) = match result {
            Ok(out) => (Some(out), None),
            Err(payload) => (None, Some(payload)),
        };
        let _ = slot.out.set(out);
        self.merger.unpark();
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
    }

    /// Miss `m`'s output once its task has published it, running this
    /// batch's queued tasks while it is outstanding; `None` when its
    /// evaluation panicked.
    fn wait(&self, m: usize, scope: &Scope<'_, '_>) -> Option<&EvalOut> {
        let out = &self.misses[m].out;
        loop {
            if let Some(out) = out.get() {
                return out.as_ref();
            }
            // Nothing of this batch is queued, so a lane is evaluating it;
            // every task unparks the merge when it publishes.
            if !scope.run_one() {
                std::thread::park();
            }
        }
    }
}

/// A fixed-duration depth-1 pipeline step span.
fn step_span(name: impl Into<std::borrow::Cow<'static, str>>, start_s: f64, dur_s: f64) -> Span {
    Span {
        name: name.into(),
        cat: SpanCat::Phase,
        start: SimTime::from_secs(start_s),
        end: SimTime::from_secs(start_s + dur_s),
        depth: 1,
    }
}

/// Evaluate one job, honoring the drill. Wall-clock time spans every
/// repeat; the answer comes from the first run (all runs are identical —
/// the evaluation is pure).
fn evaluate_job(job: &EvalJob, drill: Option<&SloDrill>) -> EvalOut {
    let t0 = Instant::now();
    let q = &job.query;
    let evaluate = || evaluate_query(&q.app, &q.machine, q.nodes, &q.knobs, &q.scenario);
    let answer = evaluate();
    if let Some(d) = drill.filter(|d| d.app.eq_ignore_ascii_case(&q.app)) {
        // Repeats run warm and cost a fraction of the first run, so the
        // drill repeats until a wall target, not a repeat count.
        let target = t0.elapsed().saturating_mul(d.extra_evals.saturating_add(1));
        while t0.elapsed() < target {
            let _ = evaluate();
        }
    }
    EvalOut {
        answer: answer.map(Arc::new),
        eval_wall_s: t0.elapsed().as_secs_f64(),
    }
}
