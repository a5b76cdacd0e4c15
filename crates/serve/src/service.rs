//! The concurrent campaign query service.
//!
//! [`CampaignService`] answers batches of cost-model queries with three
//! observability guarantees:
//!
//! 1. **Deterministic answers and traces.** Evaluation is pure virtual-time
//!    simulation, each cache shard sees its keys' probes and inserts in
//!    batch order, and every span on the `serve/` tracks carries *virtual*
//!    timestamps driven by per-lane cursors that a serial pass in batch
//!    order advances — so for a fixed cache shape (shard count and
//!    capacity) the Chrome trace is byte-identical at any `EXA_THREADS`
//!    (`tests/batch_digest.rs` pins it). The default shard count is
//!    `auto_shards(threads)`, so once a campaign evicts, the default
//!    cache's hits and misses, and with them the trace, follow the thread
//!    count. Wall-clock time flows only into metrics.
//! 2. **RED metrics.** `serve.requests` / `serve.errors` counters and the
//!    `serve.latency_s` histogram (bare aggregate plus per-app labeled
//!    series), alongside cache hit/miss/coalesced counters, shard-occupancy
//!    gauges, and `fom.eval_s{app,scenario}` evaluation histograms.
//! 3. **SLO feeds.** Per-app wall-clock latency histograms accumulate per
//!    epoch and are drained with [`CampaignService::take_epoch`] for the
//!    sentinel's rolling-baseline p99 check.
//!
//! Concurrency model: the calling thread parses each query of a batch
//! straight to its cache key, whose one hash picks the key's cache shard.
//! Each shard with queries in the batch then runs as one task on the owned
//! work-stealing pool: it probes its queries in batch order, coalesces a
//! repeat of an earlier miss onto it (single-flight: duplicates share a
//! key, hence a shard), evaluates its misses, and inserts the answers, in
//! batch order and only after its last probe. A batch that touches fewer
//! shards than the pool has lanes evaluates its misses as pool tasks of
//! their own, so the shard count never caps how many lanes evaluate.
//! Shards share nothing, so the tasks need no lock, and hit/miss
//! classification is what a serial probe of the whole batch before its
//! first insert would give, whatever the thread schedule. A final serial
//! pass lands RED metrics, stats, and spans in batch order.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use exa_apps::query::{evaluate_query, QueryAnswer};
use exa_machine::SimTime;
use exa_telemetry::{
    labeled_key, push_labeled_key, Histogram, MetricsRegistry, PoolTelemetry, Span, SpanCat,
    TelemetryCollector, TrackId, TrackKind,
};
use serde::Serialize;
use workpool::ThreadPool;

use crate::cache::{fnv1a, key_hash, Shard, ShardedLru};
use crate::query::QueryRef;

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

impl QueryOutcome {
    /// The placeholder a batch's outcome slot holds until its query is
    /// answered or rejected.
    const UNANSWERED: QueryOutcome = QueryOutcome {
        status: CacheStatus::Error,
        answer: None,
        error: None,
    };
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

/// One parsed query of a batch, on its way through its shard's task.
/// Small, as the parse sorts the batch's items by shard.
struct Item<'r> {
    shard: usize,
    /// Its query, as an index into the batch's parsed queries.
    parsed: usize,
    /// Its cache key, as a range of the batch's key text.
    key: Range<usize>,
    /// Its `(app, scenario)` label pair, as an index into the RED
    /// tally's.
    pair: usize,
    hash: u64,
    /// The cache's disposition: hit, miss or coalesced, also when the
    /// evaluation it paid for or waited on failed.
    status: CacheStatus,
    /// Its slot among the batch's outcomes, which the task fills in.
    out: &'r mut QueryOutcome,
    /// Wall-clock seconds of its parse, then of its probe too.
    wall_s: f64,
    /// Wall-clock seconds of the evaluation it paid for or waited on.
    eval_s: f64,
}

/// The RED metrics of the batch in flight: counts and histograms, landed
/// under one registry lock. The service keeps one and resets it when a
/// batch starts, so its label-pair tallies, their histograms' bucket
/// tables and their rendered label keys are reused, not rebuilt. It
/// keeps as many tallies as the batch with the most label pairs needed,
/// never one per pair the service has seen.
#[derive(Default)]
struct RedTally {
    /// Requests per disposition, indexed like [`STATUS_COUNTERS`].
    by_status: [u64; 4],
    /// Distinct misses evaluated (those whose evaluation failed too).
    evaluated: u64,
    latency: Histogram,
    /// The batch's label pairs, in order of first appearance, in
    /// `pairs[..live]`; the tallies after them wait for a later batch.
    pairs: Vec<PairTally>,
    live: usize,
    /// The first live tally of each pair hash.
    index: HashMap<u64, usize>,
}

/// The labeled series of one `(app, scenario)` label pair.
#[derive(Default)]
struct PairTally {
    /// The pair, as spelled.
    app: String,
    scenario: String,
    /// `serve.requests{app, cache, scenario}`, indexed like
    /// [`STATUS_COUNTERS`].
    requests: [u64; 4],
    /// Part of `serve.latency_s{app}`, which is also the app's epoch
    /// latency.
    latency: Histogram,
    /// `fom.eval_s{app, scenario}` of the pair's misses.
    eval: Histogram,
    /// The series' registry keys, rendered for `(app, scenario)`:
    /// `serve.requests` per disposition, then `serve.latency_s` and
    /// `fom.eval_s`.
    keys: [String; 6],
}

impl PairTally {
    fn is(&self, app: &str, scenario: &str) -> bool {
        self.app == app && same(&self.scenario, scenario)
    }

    /// Take this tally, empty, for `(app, scenario)`, rendering its keys
    /// again only when the pair differs from the one it last served.
    fn claim(&mut self, app: &str, scenario: &str) {
        self.requests = [0; 4];
        self.latency.clear();
        self.eval.clear();
        if self.is(app, scenario) && !self.keys[0].is_empty() {
            return;
        }
        self.app.clear();
        self.app.push_str(app);
        self.scenario.clear();
        self.scenario.push_str(scenario);
        self.keys.iter_mut().for_each(String::clear);
        let [requests @ .., latency, eval] = &mut self.keys;
        for (key, status) in requests.iter_mut().zip(STATUSES) {
            let labels = [
                ("app", app),
                ("cache", status.label()),
                ("scenario", scenario),
            ];
            push_labeled_key(key, "serve.requests", &labels);
        }
        push_labeled_key(latency, "serve.latency_s", &[("app", app)]);
        let labels = [("app", app), ("scenario", scenario)];
        push_labeled_key(eval, "fom.eval_s", &labels);
    }
}

/// Each disposition, in `CacheStatus` order.
const STATUSES: [CacheStatus; 4] = [
    CacheStatus::Hit,
    CacheStatus::Miss,
    CacheStatus::Coalesced,
    CacheStatus::Error,
];

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
    cache: ShardedLru<QueryAnswer>,
    /// `serve.cache.shard_occupancy{shard}`, in shard order.
    shard_gauges: Vec<String>,
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
    red: RedTally,
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
        let shard_gauges = (0..shards.max(1))
            .map(|shard| {
                let shard = shard.to_string();
                labeled_key("serve.cache.shard_occupancy", &[("shard", &shard)])
            })
            .collect();
        CampaignService {
            config,
            pool,
            pool_obs,
            collector,
            cache,
            shard_gauges,
            lane_tracks,
            lane_cursor_s: [0.0; LANES],
            drill: None,
            seq: 0,
            traced: 0,
            stats: ServeStats::default(),
            epoch: BTreeMap::new(),
            red: RedTally::default(),
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

    /// Answer a batch of textual queries, in order, in three steps:
    ///
    /// 1. **Parse**, serial on the calling thread: each query text, in one
    ///    pass, to its cache key and the key's hash, which picks its
    ///    shard. A query that does not parse is answered here.
    /// 2. **Resolve**, one pool task per shard the batch touches: probe
    ///    the shard's queries in batch order, coalescing a repeat of an
    ///    earlier miss onto it (single-flight); evaluate the misses (as
    ///    pool tasks of their own when the batch touches fewer shards than
    ///    the pool has lanes); then insert the answered misses in batch
    ///    order. Every
    ///    probe of a shard precedes its first insert, so hit, miss and
    ///    coalesced dispositions never depend on thread scheduling. Each
    ///    task writes its queries' outcomes into their batch positions.
    ///    The calling thread runs tasks too while it waits.
    /// 3. **Land**, serial on the calling thread: RED metrics, sequence
    ///    numbers and spans in batch order, stats, and the metrics under
    ///    one registry lock.
    ///
    /// A one-thread pool runs the shard tasks inline, in shard order.
    pub fn run_batch(&mut self, queries: &[String]) -> Vec<QueryOutcome> {
        let mut outcomes = vec![QueryOutcome::UNANSWERED; queries.len()];
        let mut batch = parse(&self.cache, queries, &mut outcomes, &mut self.red);
        let drill = self.drill.as_ref();
        let pool = &*self.pool;
        let shards = self.cache.shards_mut();
        // A batch that leaves a lane without a shard task splits its
        // shards' misses into tasks of their own, so that no lane idles.
        // Otherwise the shard tasks keep the lanes busy, and a task per
        // miss would cost more than it balances: each spawn wakes the
        // pool, and the extra spawns cost a cold batch about a fifth of
        // its rate on a 2-lane pool.
        let split = batch.items.chunk_by(|a, b| a.shard == b.shard).count() < pool.threads();
        pool.scope(|scope| {
            let mut runs = batch
                .items
                .chunk_by_mut(|a, b| a.shard == b.shard)
                .peekable();
            let parsed = Parsed {
                queries: &batch.parsed,
                knobs: &batch.knobs,
                keys: &batch.keys,
            };
            for (s, shard) in shards.iter_mut().enumerate() {
                if let Some(run) = runs.next_if(|run| run[0].shard == s) {
                    scope.spawn(move || resolve(pool, split, shard, run, parsed, drill));
                }
            }
        });
        for item in &batch.items {
            self.red.record(item);
        }
        let Batch { pair_of, .. } = batch;
        self.land(&outcomes, &pair_of);
        outcomes
    }

    /// Step 3 of [`Self::run_batch`].
    fn land(&mut self, outcomes: &[QueryOutcome], pair_of: &[Option<usize>]) {
        let red = &self.red;
        let n = outcomes.len() as u64;
        self.stats.requests += n;
        self.stats.hits += red.by_status[CacheStatus::Hit as usize];
        self.stats.misses += red.by_status[CacheStatus::Miss as usize];
        self.stats.coalesced += red.by_status[CacheStatus::Coalesced as usize];
        self.stats.errors += red.by_status[CacheStatus::Error as usize];
        let pairs = &red.pairs[..red.live];

        // Virtual-time span trees of the sampled queries, in batch order.
        let sample = self.config.trace_sample.max(1);
        let mut lane_spans: Vec<Vec<Span>> = vec![Vec::new(); self.lane_tracks.len()];
        let first = (sample - self.seq % sample) % sample;
        for seq in (self.seq + first..self.seq + n).step_by(sample as usize) {
            if self.traced >= MAX_TRACED_QUERIES {
                break;
            }
            self.traced += 1;
            let i = (seq - self.seq) as usize;
            let query = pair_of[i].map(|pair| (&*pairs[pair].app, &*pairs[pair].scenario));
            let lane = (seq % self.lane_tracks.len() as u64) as usize;
            let (spans, end) = span_tree(&outcomes[i], query, self.lane_cursor_s[lane]);
            lane_spans[lane].extend(spans);
            self.lane_cursor_s[lane] = end + STEP_S;
        }
        self.seq += n;
        for (lane, spans) in lane_spans.into_iter().enumerate() {
            if !spans.is_empty() {
                self.collector.complete_batch(self.lane_tracks[lane], spans);
            }
        }
        for tally in pairs {
            match self.epoch.get_mut(&tally.app) {
                Some(epoch) => epoch.merge(&tally.latency),
                None => {
                    self.epoch.insert(tally.app.clone(), tally.latency.clone());
                }
            }
        }

        // RED metrics, then cache/saturation gauges of the post-batch state.
        let hit_ratio = self.stats().hit_ratio();
        let cache_len = self.cache.len() as f64;
        let cache_capacity = self.cache.capacity() as f64;
        let occupancy = self.cache.shard_occupancy();
        let shard_gauges = &self.shard_gauges;
        self.collector.metrics(|m| {
            red.land(m);
            m.gauge_max("serve.inflight.peak", red.evaluated as f64);
            m.gauge_set("serve.cache.len", cache_len);
            m.gauge_set("serve.cache.capacity", cache_capacity);
            m.gauge_set("serve.cache.hit_ratio", hit_ratio);
            for (gauge, &occ) in shard_gauges.iter().zip(&occupancy) {
                m.gauge_set(gauge, occ as f64);
            }
        });
    }
}

/// Step 1 of [`CampaignService::run_batch`]: the batch's queries parsed
/// and grouped by their shard in `cache`. A query that does not parse is
/// answered in `outcomes`. `red` is reset for the batch, then counts the
/// queries that did not parse and gets a tally for each label pair.
fn parse<'q, 'r>(
    cache: &ShardedLru<QueryAnswer>,
    queries: &'q [String],
    outcomes: &'r mut [QueryOutcome],
    red: &mut RedTally,
) -> Batch<'q, 'r> {
    red.reset();
    let mut batch = Batch {
        parsed: Vec::with_capacity(queries.len()),
        knobs: Vec::with_capacity(queries.len()),
        keys: String::with_capacity(64 * queries.len()),
        items: Vec::with_capacity(queries.len()),
        pair_of: Vec::with_capacity(queries.len()),
    };
    let mut t0 = Instant::now();
    for (text, out) in queries.iter().zip(outcomes) {
        let query = QueryRef::parse(text, &mut batch.knobs).map(|query| {
            let start = batch.keys.len();
            query.write_key(&mut batch.keys, &batch.knobs);
            (start..batch.keys.len(), query)
        });
        let t1 = Instant::now();
        let parse_s = (t1 - t0).as_secs_f64();
        t0 = t1;
        let (key, query) = match query {
            Ok(parsed) => parsed,
            Err(e) => {
                red.record_error(parse_s);
                batch.pair_of.push(None);
                out.error = Some(e);
                continue;
            }
        };
        let pair = red.pair(query.app, query.scenario);
        let hash = key_hash(&batch.keys[key.clone()]);
        batch.pair_of.push(Some(pair));
        batch.items.push(Item {
            shard: cache.shard_of(hash),
            parsed: batch.parsed.len(),
            key,
            pair,
            hash,
            // Until its probe finds it cached or pending.
            status: CacheStatus::Miss,
            out,
            wall_s: parse_s,
            eval_s: 0.0,
        });
        batch.parsed.push(query);
    }
    // A stable sort keeps each shard's items in batch order.
    batch.items.sort_by_key(|item| item.shard);
    batch
}

/// A batch between its parse and its land.
struct Batch<'q, 'r> {
    /// The queries that parsed, in batch order.
    parsed: Vec<QueryRef<'q>>,
    /// Their knobs, back to back.
    knobs: Vec<(&'q str, f64)>,
    /// Their cache keys, back to back.
    keys: String,
    /// Those queries, grouped by shard, each shard's in batch order.
    items: Vec<Item<'r>>,
    /// Each query's label pair, as an index into the RED tally's; `None`
    /// for a query that did not parse.
    pair_of: Vec<Option<usize>>,
}

/// What a shard task reads of the batch's parse.
#[derive(Clone, Copy)]
struct Parsed<'b, 'q> {
    queries: &'b [QueryRef<'q>],
    knobs: &'b [(&'q str, f64)],
    keys: &'b str,
}

/// The span tree of one traced query, from `start_s` on its lane: the
/// spans and the virtual time it ends.
fn span_tree(
    outcome: &QueryOutcome,
    query: Option<(&str, &str)>,
    start_s: f64,
) -> (Vec<Span>, f64) {
    let status = outcome.status;
    let status_label = status.label();
    let mut t = start_s;
    let mut spans: Vec<Span> = Vec::with_capacity(5);
    spans.push(step_span("parse", t, STEP_S));
    t += STEP_S;
    if status != CacheStatus::Error {
        spans.push(step_span(format!("probe [{status_label}]"), t, STEP_S));
        t += STEP_S;
    }
    if status == CacheStatus::Miss {
        let a = outcome.answer.as_ref().expect("miss carries an answer");
        spans.push(Span {
            name: format!("evaluate {}", a.app).into(),
            cat: SpanCat::Task,
            start: SimTime::from_secs(t),
            end: SimTime::from_secs(t + a.wall_s),
            depth: 1,
        });
        t += a.wall_s;
    }
    if status != CacheStatus::Error {
        spans.push(step_span("render", t, STEP_S));
        t += STEP_S;
    }
    let parent_name = match query {
        Some((app, scenario)) if !scenario.is_empty() => {
            format!("serve {app} [{status_label}] @{scenario}")
        }
        Some((app, _)) => format!("serve {app} [{status_label}]"),
        None => "serve [error]".to_string(),
    };
    spans.insert(
        0,
        Span {
            name: parent_name.into(),
            cat: SpanCat::Phase,
            start: SimTime::from_secs(start_s),
            end: SimTime::from_secs(t),
            depth: 0,
        },
    );
    (spans, t)
}

/// Step 2 of [`CampaignService::run_batch`] for one shard: its `items`,
/// in batch order, probed, evaluated and inserted, their outcomes written.
fn resolve(
    pool: &ThreadPool,
    split: bool,
    shard: &mut Shard<QueryAnswer>,
    items: &mut [Item<'_>],
    parsed: Parsed<'_, '_>,
    drill: Option<&SloDrill>,
) {
    let keys = parsed.keys;
    // Probe in batch order. The shard's misses so far, by key, to the
    // position of their item: a tree, as clients pick the keys.
    let mut pending: BTreeMap<&str, usize> = BTreeMap::new();
    let mut t0 = Instant::now();
    for (i, item) in items.iter_mut().enumerate() {
        let key = &keys[item.key.clone()];
        if let Some(answer) = shard.get(key, item.hash) {
            item.status = CacheStatus::Hit;
            item.out.answer = Some(answer.clone());
        } else if pending.contains_key(key) {
            item.status = CacheStatus::Coalesced;
        } else {
            pending.insert(key, i);
        }
        let t1 = Instant::now();
        item.wall_s += (t1 - t0).as_secs_f64();
        t0 = t1;
    }
    // Evaluate the misses: in place, or, when `split`, as pool tasks of
    // their own.
    let misses = items
        .iter_mut()
        .filter(|item| item.status == CacheStatus::Miss);
    if split {
        pool.scope(|scope| {
            for item in misses {
                scope.spawn(move || item.evaluate(parsed, drill));
            }
        });
    } else {
        misses.for_each(|item| item.evaluate(parsed, drill));
    }
    // Answer the coalesced copies, then insert the answered misses, in
    // batch order. The coalesced copy pays the evaluation wall too — it
    // waited on the same work.
    for i in 0..items.len() {
        let key = &keys[items[i].key.clone()];
        if items[i].status == CacheStatus::Coalesced {
            let first = &items[pending[key]];
            let (answer, eval_s) = (first.out.answer.clone(), first.eval_s);
            items[i].out.answer = answer;
            items[i].eval_s = eval_s;
        }
        let item = &mut items[i];
        match &item.out.answer {
            Some(answer) => {
                item.out.status = item.status;
                if item.status == CacheStatus::Miss {
                    shard.insert(key, item.hash, answer.clone());
                }
            }
            None => {
                let app = parsed.queries[item.parsed].app;
                item.out.error = Some(format!("evaluation failed for '{app}'"));
            }
        }
    }
}

impl Item<'_> {
    /// Evaluate this item's query, a miss, into its outcome.
    fn evaluate(&mut self, parsed: Parsed<'_, '_>, drill: Option<&SloDrill>) {
        let t0 = Instant::now();
        let query = &parsed.queries[self.parsed];
        let knobs = &parsed.knobs[query.knobs.clone()];
        let (answer, t1) = evaluate(query, knobs, drill, t0);
        self.out.answer = answer;
        self.eval_s = (t1 - t0).as_secs_f64();
    }
}

impl RedTally {
    /// Empty the tally for a new batch, keeping its memory.
    fn reset(&mut self) {
        self.by_status = [0; 4];
        self.evaluated = 0;
        self.latency.clear();
        self.live = 0;
        self.index.clear();
    }

    /// The tally of the label pair `(app, scenario)`, claimed on the
    /// pair's first query of the batch.
    fn pair(&mut self, app: &str, scenario: &str) -> usize {
        let hash = pair_hash(app, scenario);
        if let Some(&first) = self.index.get(&hash) {
            if self.pairs[first].is(app, scenario) {
                return first;
            }
            // Two pairs share a hash: the later ones are found by a scan.
            let live = &self.pairs[..self.live];
            if let Some(pair) = live.iter().position(|p| p.is(app, scenario)) {
                return pair;
            }
        }
        let pair = self.live;
        if pair == self.pairs.len() {
            self.pairs.push(PairTally::default());
        }
        self.pairs[pair].claim(app, scenario);
        self.live += 1;
        self.index.entry(hash).or_insert(pair);
        pair
    }

    /// Count a query that did not parse: bare aggregates only.
    fn record_error(&mut self, latency_s: f64) {
        self.by_status[CacheStatus::Error as usize] += 1;
        self.latency.record(latency_s);
    }

    /// Count a query that parsed, now answered or failed: bare aggregates
    /// and its label pair's series.
    fn record(&mut self, item: &Item<'_>) {
        let (status, latency_s) = (item.out.status, item.wall_s + item.eval_s);
        self.by_status[status as usize] += 1;
        self.latency.record(latency_s);
        if item.status == CacheStatus::Miss {
            self.evaluated += 1;
        }
        let tally = &mut self.pairs[item.pair];
        tally.requests[status as usize] += 1;
        tally.latency.record(latency_s);
        if let (CacheStatus::Miss, Some(a)) = (status, &item.out.answer) {
            tally.eval.record(a.wall_s);
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
        for tally in &self.pairs[..self.live] {
            let [requests @ .., latency, eval] = &tally.keys;
            for (key, &n) in requests.iter().zip(&tally.requests) {
                if n > 0 {
                    m.counter_add(key, n);
                }
            }
            m.hist_merge(latency, &tally.latency);
            if !tally.eval.is_empty() {
                m.hist_merge(eval, &tally.eval);
            }
        }
    }
}

/// `a == b`, without comparing bytes when both are empty, as a clean
/// query's scenario is: an empty string's pointer dangles, and the C
/// library's `bcmp` of zero bytes at a dangling pointer took about 150 ns
/// on an AVX-512 host, against 3 ns for five bytes.
fn same(a: &str, b: &str) -> bool {
    a.len() == b.len() && (a.is_empty() || a == b)
}

/// The hash a label pair is indexed by: FNV-1a over the app, a byte no
/// UTF-8 text holds, and the scenario.
fn pair_hash(app: &str, scenario: &str) -> u64 {
    fnv1a(app.bytes().chain([0xff]).chain(scenario.bytes()))
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

/// Evaluate one query, starting at `t0`, honoring the drill: its answer
/// (`None` when the evaluation fails) and when it finished. Wall-clock
/// time spans every repeat; the answer comes from the first run (all runs
/// are identical — the evaluation is pure).
fn evaluate(
    q: &QueryRef<'_>,
    knobs: &[(&str, f64)],
    drill: Option<&SloDrill>,
    t0: Instant,
) -> (Option<QueryAnswer>, Instant) {
    let evaluate = || evaluate_query(q.app, q.machine, q.nodes, knobs, q.scenario);
    let answer = evaluate();
    if let Some(d) = drill.filter(|d| d.app.eq_ignore_ascii_case(q.app)) {
        // Repeats run warm and cost a fraction of the first run, so the
        // drill repeats until a wall target, not a repeat count.
        let target = t0.elapsed().saturating_mul(d.extra_evals.saturating_add(1));
        while t0.elapsed() < target {
            let _ = evaluate();
        }
    }
    (answer, Instant::now())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Batches of three label pairs each, every batch with tags no
    /// earlier batch used: the service keeps three tallies, not one per
    /// pair it has seen, and each batch's series land under their own
    /// labels.
    #[test]
    fn the_red_tally_keeps_what_the_largest_batch_needs() {
        let mut svc = CampaignService::new(ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        });
        for round in 0..20 {
            let batch: Vec<String> = ["a", "b", "c", "a"]
                .iter()
                .map(|tag| format!("app=CoMet machine=Frontier scenario={tag}{round}"))
                .collect();
            svc.run_batch(&batch);
            assert_eq!(svc.red.pairs.len(), 3, "round {round}");
            let requests = |tag: &str| {
                let labels = [("app", "CoMet"), ("cache", "miss"), ("scenario", tag)];
                svc.collector()
                    .snapshot()
                    .counter(&labeled_key("serve.requests", &labels))
            };
            assert_eq!(requests(&format!("a{round}")), 1, "round {round}");
            assert_eq!(requests(&format!("c{round}")), 1, "round {round}");
        }
    }
}
