//! # exa-serve — the campaign observatory's query engine
//!
//! A readiness campaign (§2 of the paper) is thousands of what-if
//! questions against the same cost models: *what does Pele's FOM look
//! like on Frontier at 512 nodes if chemistry runs 1.5× slow?* This
//! crate turns the simulator into a **service** for such campaigns: a
//! memoized, concurrent query engine whose every request is traced,
//! counted, and latency-profiled.
//!
//! * [`Query`] — the textual query language and its canonical cache key
//!   (`app × machine × scale × knobs × scenario`).
//! * [`ShardedLru`] — the deterministic sharded answer cache.
//! * [`CampaignService`] — batched execution over an owned work-stealing
//!   pool, with single-flight coalescing of in-batch duplicates, RED
//!   metrics (`serve.requests` / `serve.errors` / `serve.latency_s`),
//!   per-query span trees on virtual-time `serve/lane*` tracks (byte-
//!   identical at any `EXA_THREADS`), and per-app epoch histograms that
//!   feed the SLO sentinel (`exa_telemetry::check_slo`).
//!
//! The `campaign_load` experiment in `exa-bench` replays a zipf-distributed
//! million-query mix through this engine and gates on p99 latency,
//! throughput, and cache hit-ratio.

pub mod cache;
pub mod query;
pub mod service;

pub use cache::{auto_shards, ShardedLru};
pub use query::Query;
pub use service::{CacheStatus, CampaignService, QueryOutcome, ServeConfig, ServeStats, SloDrill};
