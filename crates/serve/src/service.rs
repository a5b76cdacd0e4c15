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
//! Concurrency model: a batch is probed serially (hits and in-batch
//! duplicates resolve immediately; duplicates *coalesce* onto the first
//! occurrence, single-flight style), unique misses fan out over the owned
//! work-stealing pool into a positional outcome table, and a serial merge
//! in batch order lands spans, metrics, and cache inserts. Hit/miss
//! classification therefore never depends on thread scheduling.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use exa_apps::query::{evaluate_query, QueryAnswer};
use exa_machine::SimTime;
use exa_telemetry::{
    labeled_key, Histogram, PoolTelemetry, Span, SpanCat, TelemetryCollector, TrackId, TrackKind,
};
use serde::Serialize;
use workpool::ThreadPool;

use crate::cache::ShardedLru;
use crate::query::Query;

/// An SLO drill: matching queries are re-evaluated `extra_evals` extra
/// times, inflating their *wall-clock* cost by roughly `1 + extra_evals`
/// while leaving the virtual answer — and therefore the trace and the
/// cache key — untouched. This is how the load campaign manufactures a
/// real latency regression for the sentinel to catch.
#[derive(Debug, Clone, Serialize)]
pub struct SloDrill {
    /// Application whose evaluations are slowed (case-insensitive).
    pub app: String,
    /// Extra evaluations per matching query.
    pub extra_evals: u32,
}

/// Service configuration. `Default` gives a pool sized by `EXA_THREADS`,
/// an 8×512 cache, 4 trace lanes, and full trace sampling.
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
    /// Virtual trace lanes (`serve/lane{k}` tracks). Fixed at
    /// construction and independent of `threads`, so traces do not vary
    /// with pool size.
    pub lanes: usize,
    /// Trace every `trace_sample`-th query (1 = all), up to
    /// [`MAX_TRACED_QUERIES`] span trees. Sampling is by query sequence
    /// number, hence deterministic.
    pub trace_sample: u64,
    /// Active latency drill, if any.
    pub drill: Option<SloDrill>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 0,
            shards: 0,
            capacity_per_shard: 512,
            lanes: 4,
            trace_sample: 1,
            drill: None,
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
    Hit { query: Query, answer: QueryAnswer },
    Miss(usize),
    Coalesced(usize),
}

/// One unique cold evaluation scheduled on the pool.
struct EvalJob {
    key: String,
    query: Query,
}

/// Worker output for one [`EvalJob`].
struct EvalOut {
    answer: Option<QueryAnswer>,
    eval_wall_s: f64,
}

/// Virtual duration of the fixed pipeline steps (parse, probe, render)
/// and of the inter-query gap on a lane — small so the evaluate span
/// (the answer's simulated wall) dominates the picture.
const STEP_S: f64 = 1e-6;

/// Sampled span trees a service lands over its lifetime; later queries
/// are not traced, so a long-running service's trace stays bounded. A
/// 2²⁰-query campaign sampled 1 in 4 096 lands 256.
pub const MAX_TRACED_QUERIES: u64 = 1024;

/// The memoized, concurrent campaign query engine.
pub struct CampaignService {
    config: ServeConfig,
    pool: ThreadPool,
    pool_obs: Arc<PoolTelemetry>,
    collector: Arc<TelemetryCollector>,
    /// Answers sit behind an `Arc`: each shard's hash table keeps up to
    /// twice its capacity in buckets, and pointer-sized values keep the
    /// empty ones small (about 25% less memory per entry).
    cache: ShardedLru<Arc<QueryAnswer>>,
    lane_tracks: Vec<TrackId>,
    /// Virtual-time cursor per lane, seconds.
    lane_cursor_s: Vec<f64>,
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
        let pool = ThreadPool::new(threads);
        let pool_obs = Arc::new(PoolTelemetry::new());
        pool.set_observer(Some(pool_obs.clone() as Arc<dyn workpool::PoolObserver>));
        let collector = TelemetryCollector::shared();
        let lanes = config.lanes.max(1);
        let lane_tracks = (0..lanes)
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
            lane_cursor_s: vec![0.0; lanes],
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
        self.config.drill = drill;
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

    /// Answer a batch of textual queries, in order.
    pub fn run_batch(&mut self, queries: &[String]) -> Vec<QueryOutcome> {
        // Phase 1 — serial probe in batch order: parse, classify against
        // the cache, and coalesce in-batch duplicates onto the first
        // occurrence. `probe_s[i]` is the wall-clock cost of this phase
        // for query i.
        let mut dispositions: Vec<Disposition> = Vec::with_capacity(queries.len());
        let mut probe_s: Vec<f64> = Vec::with_capacity(queries.len());
        let mut jobs: Vec<EvalJob> = Vec::new();
        let mut pending: BTreeMap<String, usize> = BTreeMap::new();
        for text in queries {
            let t0 = Instant::now();
            let disposition = match Query::parse(text) {
                Err(e) => Disposition::Error(e),
                Ok(query) => {
                    let key = query.key();
                    if let Some(answer) = self.cache.get(&key) {
                        Disposition::Hit {
                            query,
                            answer: QueryAnswer::clone(&answer),
                        }
                    } else if let Some(&job) = pending.get(&key) {
                        Disposition::Coalesced(job)
                    } else {
                        let job = jobs.len();
                        pending.insert(key.clone(), job);
                        jobs.push(EvalJob { key, query });
                        Disposition::Miss(job)
                    }
                }
            };
            probe_s.push(t0.elapsed().as_secs_f64());
            dispositions.push(disposition);
        }

        // Phase 2 — parallel cold evaluation into a positional outcome
        // table. Workers write disjoint slots; completion order is
        // irrelevant because the merge below re-serializes everything.
        let mut outs: Vec<Option<EvalOut>> = Vec::new();
        outs.resize_with(jobs.len(), || None);
        let drill = self.config.drill.clone();
        self.pool.scope(|scope| {
            for (job, slot) in jobs.iter().zip(outs.iter_mut()) {
                let drill = drill.as_ref();
                scope.spawn(move || {
                    *slot = Some(evaluate_job(job, drill));
                });
            }
        });
        self.collector
            .metrics(|m| m.gauge_max("serve.inflight.peak", jobs.len() as f64));

        // Phase 3 — serial merge in batch order: cache inserts, RED
        // metrics, epoch histograms, and virtual-time spans.
        let mut lane_spans: Vec<Vec<Span>> = vec![Vec::new(); self.lane_tracks.len()];
        let mut results: Vec<QueryOutcome> = Vec::with_capacity(queries.len());
        for (i, disposition) in dispositions.into_iter().enumerate() {
            let seq = self.seq;
            self.seq += 1;
            self.stats.requests += 1;
            // (status, query context, answer/error, wall paid on eval)
            let (status, query, answer, error, eval_wall_s): (
                CacheStatus,
                Option<Query>,
                Option<QueryAnswer>,
                Option<String>,
                f64,
            ) = match disposition {
                Disposition::Error(e) => (CacheStatus::Error, None, None, Some(e), 0.0),
                Disposition::Hit { query, answer } => {
                    (CacheStatus::Hit, Some(query), Some(answer), None, 0.0)
                }
                Disposition::Miss(j) => {
                    let job = &jobs[j];
                    let out = outs[j].as_ref().expect("pool scope completed every job");
                    match &out.answer {
                        None => (
                            CacheStatus::Error,
                            Some(job.query.clone()),
                            None,
                            Some(format!("evaluation failed for '{}'", job.query.app)),
                            out.eval_wall_s,
                        ),
                        Some(a) => {
                            self.cache.insert(&job.key, Arc::new(a.clone()));
                            (
                                CacheStatus::Miss,
                                Some(job.query.clone()),
                                Some(a.clone()),
                                None,
                                out.eval_wall_s,
                            )
                        }
                    }
                }
                Disposition::Coalesced(j) => {
                    let job = &jobs[j];
                    let out = outs[j].as_ref().expect("pool scope completed every job");
                    match &out.answer {
                        None => (
                            CacheStatus::Error,
                            Some(job.query.clone()),
                            None,
                            Some(format!("evaluation failed for '{}'", job.query.app)),
                            out.eval_wall_s,
                        ),
                        // The coalesced copy pays the evaluation wall too —
                        // it waited on the same in-flight work.
                        Some(a) => (
                            CacheStatus::Coalesced,
                            Some(job.query.clone()),
                            Some(a.clone()),
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
            let latency_s = probe_s[i] + eval_wall_s;

            // RED metrics: bare aggregates always, labeled series when
            // the query parsed.
            let status_label = status.label();
            self.collector.metrics(|m| {
                m.counter_add("serve.requests", 1);
                match status {
                    CacheStatus::Hit => m.counter_add("serve.cache.hits", 1),
                    CacheStatus::Miss => m.counter_add("serve.cache.misses", 1),
                    CacheStatus::Coalesced => m.counter_add("serve.cache.coalesced", 1),
                    CacheStatus::Error => m.counter_add("serve.errors", 1),
                }
                m.hist_record("serve.latency_s", latency_s);
                if let Some(q) = &query {
                    m.counter_add(
                        &labeled_key(
                            "serve.requests",
                            &[
                                ("app", &q.app),
                                ("cache", status_label),
                                ("scenario", &q.scenario),
                            ],
                        ),
                        1,
                    );
                    m.hist_record(
                        &labeled_key("serve.latency_s", &[("app", &q.app)]),
                        latency_s,
                    );
                }
                if status == CacheStatus::Miss {
                    if let (Some(q), Some(a)) = (&query, &answer) {
                        m.hist_record(
                            &labeled_key(
                                "fom.eval_s",
                                &[("app", &q.app), ("scenario", &q.scenario)],
                            ),
                            a.wall_s,
                        );
                    }
                }
            });
            if let Some(q) = &query {
                self.epoch
                    .entry(q.app.clone())
                    .or_default()
                    .record(latency_s);
            }

            // Virtual-time span tree, deterministically sampled.
            if seq.is_multiple_of(self.config.trace_sample.max(1))
                && self.traced < MAX_TRACED_QUERIES
            {
                self.traced += 1;
                let lane = (seq % self.lane_tracks.len() as u64) as usize;
                let mut t = self.lane_cursor_s[lane];
                let start = t;
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
                let parent_name = match (&query, status) {
                    (Some(q), _) if !q.scenario.is_empty() => {
                        format!("serve {} [{}] @{}", q.app, status_label, q.scenario)
                    }
                    (Some(q), _) => format!("serve {} [{}]", q.app, status_label),
                    (None, _) => "serve [error]".to_string(),
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
                answer,
                error,
            });
        }

        for (lane, spans) in lane_spans.into_iter().enumerate() {
            if !spans.is_empty() {
                self.collector.complete_batch(self.lane_tracks[lane], spans);
            }
        }

        // Cache/saturation gauges reflect the post-batch state.
        let hit_ratio = self.stats().hit_ratio();
        let cache_len = self.cache.len() as f64;
        let cache_capacity = self.cache.capacity() as f64;
        let occupancy = self.cache.shard_occupancy();
        self.collector.metrics(|m| {
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
    let answer = evaluate_query(&q.app, &q.machine, q.nodes, &q.knobs, &q.scenario);
    if let Some(d) = drill {
        if d.app.eq_ignore_ascii_case(&q.app) {
            for _ in 0..d.extra_evals {
                let _ = evaluate_query(&q.app, &q.machine, q.nodes, &q.knobs, &q.scenario);
            }
        }
    }
    EvalOut {
        answer,
        eval_wall_s: t0.elapsed().as_secs_f64(),
    }
}
