//! # exa-telemetry — unified observability for the exaready stack
//!
//! The simulator's analogue of the AMD tool chain the paper's readiness
//! workflow leans on — `rocprof` timelines and Omnitrace-style unified
//! views (§3.2 "by employing kernel profiling we were able to identify
//! bottlenecks"; §3.10.2 "initial profiling on AMD Instinct GPUs found a
//! few key bottlenecks"). One [`TelemetryCollector`] gathers:
//!
//! * **spans** — named, nested intervals of virtual time on per-resource
//!   tracks ([`Timeline`](span::Timeline)): host phases, device queues
//!   (one per `Stream`), per-rank communication; recorded directly or
//!   batched by instrumented subsystems;
//! * **metrics** — a namespaced [`MetricsRegistry`] of counters, gauges,
//!   and time accumulators, fed by the [`MetricSource`] impls on
//!   `StreamStats` / `GraphStats` / `PoolStats` / `CommStats`;
//! * **exports** — Chrome Trace Event JSON (open in Perfetto or
//!   `chrome://tracing`), a rocprof-style hotspot CSV, roofline-report
//!   JSON, and the single serializable [`TelemetrySnapshot`].
//!
//! The crate sits *below* `exa-hal` and `exa-mpi` in the workspace DAG:
//! those layers accept an optional shared collector and stay zero-cost
//! when none is attached.
//!
//! Because the vendored `serde_json` shim has no deserializer, the crate
//! also ships a small JSON parser ([`validate::parse_json`]) and a
//! Chrome-trace schema validator ([`validate::validate_chrome_trace`])
//! used by the property tests and the `profile_export` CI gate.

pub mod collector;
pub mod critical_path;
pub mod export;
pub mod ledger;
pub mod metrics;
pub mod pool_obs;
pub mod sentinel;
pub mod span;
pub mod validate;

pub use collector::TelemetryCollector;
pub use critical_path::{
    fault_attribution, rank_attribution, span_profile, CriticalPath, RankAttribution,
};
pub use export::{
    folded_stacks, labeled_key, prometheus_text, push_labeled_key, RooflinePoint, RooflineReport,
};
pub use ledger::{digest64, FomKind, FomLedger, FomRecord, LEDGER_FILE};
pub use metrics::{Histogram, MetricSource, MetricsRegistry, TelemetrySnapshot};
pub use pool_obs::PoolTelemetry;
pub use sentinel::{check_slo, run_sentinel, run_sentinel_all, SloReport, Verdict};
pub use span::{Span, SpanCat, TrackId, TrackKind};
pub use validate::{
    validate_chrome_trace, validate_folded, validate_hotspot_csv, validate_prometheus,
};
