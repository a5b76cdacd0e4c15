//! Campaign service load replay — the observability tentpole's acceptance
//! gate.
//!
//! Replays a zipf-distributed mix of ~1M cost-model queries over the
//! eight Table-2 applications through [`exa_serve::CampaignService`],
//! with a sprinkling of malformed requests to exercise the error path,
//! then runs an SLO drill: several clean baseline epochs followed by one
//! epoch in which CoMet evaluations are slowed ~32× wall-clock. The
//! sentinel ([`exa_telemetry::check_slo`]) must stay green through the
//! baseline and flip to **Fail** for exactly the drilled query class.
//!
//! Artifacts (repo root):
//!
//! * `BENCH_campaign_service.json` — replay counters, latency quantiles,
//!   throughput, hit-ratio, SLO verdicts, and explicit gates;
//! * `METRICS.prom` — the service's full metric surface (RED counters,
//!   `serve.latency_s` histograms bare and per-app, labeled
//!   `fom.eval_s{app,scenario}`, cache gauges, landed `pool.*` series)
//!   re-validated through `validate_prometheus`. This experiment is the
//!   file's only writer.
//!
//! Gates: ≥ 1M replayed queries, cache hit-ratio ≥ 0.9, aggregate
//! p99 ≤ 20 µs, ≥ 300k queries/s, byte-valid Prometheus text carrying the
//! pool and serve families (`PROM_LINE_PREFIXES`), a valid Chrome trace,
//! and the pass→fail SLO flip described above.

use crate::{gate, header, repo_root, wall_s, write_file, write_root_json, Gate};
use exa_serve::{CampaignService, Query, ServeConfig, SloDrill};
use exa_telemetry::{
    check_slo, prometheus_text, validate_chrome_trace, validate_prometheus, SloReport,
    Verdict,
};
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// Replayed query volume (the gate requires >= 1M).
const TOTAL_QUERIES: u64 = 1 << 20;
/// Queries per service batch.
const BATCH: usize = 8192;
/// Every n-th query is malformed, exercising the error path.
const ERROR_EVERY: u64 = 997;
/// Deterministic trace sampling: one query span tree per this many.
const TRACE_SAMPLE: u64 = 4096;
/// Zipf exponent for query popularity.
const ZIPF_S: f64 = 1.0;
/// Clean SLO baseline epochs before the drill.
const BASELINE_EPOCHS: usize = 6;
/// Cache-busting evaluations per app per epoch: enough that an epoch's
/// p99 is its third-largest sample, so one or two host stalls cannot set
/// it. A class stops early, after at least `MIN_EPOCH_REPS`, once its
/// evaluations have spent `EPOCH_BUDGET_S` (for a class whose
/// evaluations are slow, a stall is small against the evaluation).
const EPOCH_REPS: usize = 256;
const MIN_EPOCH_REPS: usize = 4;
const EPOCH_BUDGET_S: f64 = 0.02;
/// The drilled query class and its wall-clock inflation.
const DRILL_APP: &str = "CoMet";
const DRILL_EXTRA_EVALS: u32 = 31;

/// Explicit gates (also recorded in the artifact). The p99 and rate gates
/// come from five replays on a 2-vCPU Xeon host, which read 2.4–2.5 µs
/// and 818–922 k q/s: the p99 bound sits 8× above that band and the rate
/// bound 2.7× below it, outside the 2–3× slowdowns a shared host shows.
const MIN_QUERIES: u64 = 1_000_000;
const MIN_HIT_RATIO: f64 = 0.9;
const MAX_P99_S: f64 = 20e-6;
const MIN_QPS: f64 = 300_000.0;

/// `METRICS.prom` must carry a line starting with each of these: the pool
/// task counter family, the serve latency histogram family, the bare
/// serve request counter, and a per-app labeled latency series.
const PROM_LINE_PREFIXES: [&str; 4] = [
    "# TYPE exa_pool_tasks_total counter",
    "# TYPE exa_serve_latency_s histogram",
    "exa_serve_requests_total ",
    "exa_serve_latency_s_bucket{app=",
];

#[derive(Serialize)]
struct SloRow {
    class: String,
    pre: SloReport,
    drill: SloReport,
}

#[derive(Serialize)]
struct Gates {
    min_queries: u64,
    min_hit_ratio: f64,
    max_p99_s: f64,
    min_qps: f64,
}

#[derive(Serialize)]
struct CampaignRecord {
    queries_replayed: u64,
    batch_size: u64,
    universe: u64,
    threads: u64,
    trace_sample: u64,
    errors: u64,
    hits: u64,
    misses: u64,
    coalesced: u64,
    hit_ratio: f64,
    p50_s: f64,
    p99_s: f64,
    wall_s: f64,
    qps: f64,
    cache_len: u64,
    cache_capacity: u64,
    pool_tasks: u64,
    pool_busy_s: f64,
    slo: Vec<SloRow>,
    gates: Gates,
    pass: bool,
    failures: Vec<String>,
}

/// splitmix64 — the repo's stock deterministic PRNG.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The query universe: every Table-2 app crossed with two machines,
/// three scales, and four knob settings — 192 distinct cache keys.
fn build_universe() -> Vec<String> {
    let knob_options: [Option<(&str, f64)>; 4] = [
        None,
        Some(("comm", 1.25)),
        Some(("transform", 1.5)),
        Some(("kernel", 2.0)),
    ];
    let mut universe = Vec::new();
    for app in exa_apps::table2_applications() {
        for machine in ["Frontier", "Summit"] {
            for nodes in [0u32, 1024, 128] {
                for knob in knob_options {
                    let mut q = Query::new(app.name(), machine).with_nodes(nodes);
                    if let Some((needle, factor)) = knob {
                        q = q.with_knob(needle, factor);
                    }
                    universe.push(q.render());
                }
            }
        }
    }
    universe
}

/// Run one SLO epoch — up to `EPOCH_REPS` cache-busting evaluations per
/// app, interleaved across apps so drift hits every class alike — and
/// return each class's p99, seconds.
fn slo_epoch(svc: &mut CampaignService, apps: &[String], tag: &str) -> BTreeMap<String, f64> {
    let mut spent_s = vec![0.0; apps.len()];
    for rep in 0..EPOCH_REPS {
        for (app, spent_s) in apps.iter().zip(&mut spent_s) {
            if rep >= MIN_EPOCH_REPS && *spent_s >= EPOCH_BUDGET_S {
                continue;
            }
            let query = [format!(
                "app={app} machine=Frontier knob:__slo_{tag}_r{rep}=1.0"
            )];
            *spent_s += wall_s(|| svc.run_batch(&query));
        }
    }
    svc.take_epoch()
        .into_iter()
        .map(|(app, hist)| (app, hist.p99()))
        .collect()
}

/// Zipf CDF over ranks 1..=n with exponent `s`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0;
    for r in 1..=n {
        total += 1.0 / (r as f64).powf(s);
        cdf.push(total);
    }
    for c in &mut cdf {
        *c /= total;
    }
    cdf
}

pub fn run() -> Gate {
    header("campaign service load replay");

    let universe = build_universe();
    let cdf = zipf_cdf(universe.len(), ZIPF_S);
    let bad_queries = [
        "app=Unknown machine=Frontier",
        "machine=Frontier",
        "app=Pele machine=Frontier knob:x=0",
        "app=Pele machine=Mars",
    ];

    let mut svc = CampaignService::new(ServeConfig {
        trace_sample: TRACE_SAMPLE,
        ..ServeConfig::default()
    });
    println!(
        "universe {} keys, {} queries in batches of {BATCH}, error every {ERROR_EVERY}",
        universe.len(),
        TOTAL_QUERIES
    );

    // --- Replay phase ------------------------------------------------------
    let mut rng: u64 = 0x00c0_ffee;
    let mut issued: u64 = 0;
    let t0 = Instant::now();
    let mut batch: Vec<String> = Vec::with_capacity(BATCH);
    while issued < TOTAL_QUERIES {
        batch.clear();
        while batch.len() < BATCH && issued < TOTAL_QUERIES {
            issued += 1;
            if issued.is_multiple_of(ERROR_EVERY) {
                batch.push(
                    bad_queries[(issued / ERROR_EVERY) as usize % bad_queries.len()].to_string(),
                );
            } else {
                let u = splitmix64(&mut rng) as f64 / u64::MAX as f64;
                let rank = cdf.partition_point(|c| *c < u).min(universe.len() - 1);
                batch.push(universe[rank].clone());
            }
        }
        svc.run_batch(&batch);
        if issued.is_multiple_of(TOTAL_QUERIES / 8) {
            let s = svc.stats();
            println!(
                "  {:>9} queries  hit-ratio {:.4}  errors {}  cache {}/{}",
                issued,
                s.hit_ratio(),
                s.errors,
                s.cache_len,
                s.cache_capacity
            );
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let replay_stats = svc.stats();
    let qps = TOTAL_QUERIES as f64 / wall_s;
    let (p50_s, p99_s) = svc.collector().metrics(|m| {
        let h = m.hist("serve.latency_s").expect("latency histogram exists");
        (h.p50(), h.p99())
    });
    svc.take_epoch(); // replay latencies are not SLO baseline material
    println!(
        "replay: {wall_s:.2} s, {qps:.0} q/s, hit-ratio {:.4}, p50 {p50_s:.3e} s, p99 {p99_s:.3e} s",
        replay_stats.hit_ratio(),
    );

    // --- SLO drill ---------------------------------------------------------
    // Baseline epochs evaluate every app cold (dead knobs bust the cache
    // without touching the answer); the drill epoch slows only DRILL_APP.
    header("SLO sentinel drill");
    let apps: Vec<String> = exa_apps::table2_applications()
        .iter()
        .map(|a| a.name().to_string())
        .collect();
    let mut p99s: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for epoch in 0..BASELINE_EPOCHS {
        for (app, p99) in slo_epoch(&mut svc, &apps, &format!("e{epoch}")) {
            p99s.entry(app).or_default().push(p99);
        }
    }
    svc.set_drill(Some(SloDrill {
        app: DRILL_APP.into(),
        extra_evals: DRILL_EXTRA_EVALS,
    }));
    let drilled = slo_epoch(&mut svc, &apps, "drill");
    let mut slo_rows: Vec<SloRow> = Vec::new();
    for app in &apps {
        let prior = &p99s[app];
        let pre = check_slo(
            app,
            &prior[..prior.len() - 1],
            *prior.last().expect("baseline epochs ran"),
        );
        let drill = check_slo(app, prior, drilled[app]);
        println!("  pre   {}", pre.summary());
        println!("  drill {}", drill.summary());
        slo_rows.push(SloRow {
            class: app.clone(),
            pre,
            drill,
        });
    }

    // --- Export + gates ----------------------------------------------------
    let pool_busy_ns = svc.land_pool();
    let snapshot = svc.collector().snapshot();
    let pool_tasks = snapshot.counter("pool.tasks");
    let prom = prometheus_text(&snapshot);
    let trace = svc.chrome_trace();

    let mut failures: Vec<String> = Vec::new();
    let mut must = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    must(
        replay_stats.requests >= MIN_QUERIES,
        format!("replayed {} < {MIN_QUERIES} queries", replay_stats.requests),
    );
    must(
        replay_stats.hit_ratio() >= MIN_HIT_RATIO,
        format!(
            "hit-ratio {:.4} < {MIN_HIT_RATIO}",
            replay_stats.hit_ratio()
        ),
    );
    must(
        p99_s <= MAX_P99_S,
        format!("p99 {p99_s:.3e} s > {MAX_P99_S} s"),
    );
    must(
        qps >= MIN_QPS,
        format!("throughput {qps:.0} q/s < {MIN_QPS} q/s"),
    );
    must(replay_stats.errors > 0, "error path never exercised".into());
    must(
        slo_rows.iter().any(|row| row.class == DRILL_APP),
        format!("SLO drill has no {DRILL_APP} row"),
    );
    must(
        pool_tasks > 0,
        "pool observer saw no evaluation tasks".into(),
    );
    for row in &slo_rows {
        if row.class == DRILL_APP {
            must(
                row.pre.verdict != Verdict::Fail,
                format!(
                    "{}: baseline already failing: {}",
                    row.class,
                    row.pre.summary()
                ),
            );
            must(
                row.drill.verdict == Verdict::Fail,
                format!(
                    "{}: drill did not trip the SLO: {}",
                    row.class,
                    row.drill.summary()
                ),
            );
            must(
                row.drill.summary().contains(DRILL_APP),
                format!("{}: report does not name the culprit class", row.class),
            );
        } else {
            must(
                row.drill.verdict != Verdict::Fail,
                format!(
                    "{}: undrilled class failed: {}",
                    row.class,
                    row.drill.summary()
                ),
            );
        }
    }
    match validate_prometheus(&prom) {
        Ok(s) => println!(
            "prometheus: {} families, {} samples — valid",
            s.families, s.samples
        ),
        Err(e) => must(false, format!("prometheus text invalid: {e}")),
    }
    match validate_chrome_trace(&trace) {
        Ok(s) => println!(
            "chrome trace: {} events on {} tracks — valid",
            s.events, s.tracks
        ),
        Err(e) => must(false, format!("chrome trace invalid: {e}")),
    }
    for prefix in PROM_LINE_PREFIXES {
        must(
            prom.lines().any(|line| line.starts_with(prefix)),
            format!("Prometheus text has no line starting `{prefix}`"),
        );
    }
    must(
        prom.contains("_bucket{le=\"+Inf\"}"),
        "Prometheus text carries no histogram families".into(),
    );

    let pass = failures.is_empty();
    let record = CampaignRecord {
        queries_replayed: replay_stats.requests,
        batch_size: BATCH as u64,
        universe: universe.len() as u64,
        threads: workpool::default_threads() as u64,
        trace_sample: TRACE_SAMPLE,
        errors: replay_stats.errors,
        hits: replay_stats.hits,
        misses: replay_stats.misses,
        coalesced: replay_stats.coalesced,
        hit_ratio: replay_stats.hit_ratio(),
        p50_s,
        p99_s,
        wall_s,
        qps,
        cache_len: replay_stats.cache_len as u64,
        cache_capacity: replay_stats.cache_capacity as u64,
        pool_tasks,
        pool_busy_s: pool_busy_ns as f64 / 1e9,
        slo: slo_rows,
        gates: Gates {
            min_queries: MIN_QUERIES,
            min_hit_ratio: MIN_HIT_RATIO,
            max_p99_s: MAX_P99_S,
            min_qps: MIN_QPS,
        },
        pass,
        failures,
    };
    write_root_json("BENCH_campaign_service", &record);
    write_file(&repo_root().join("METRICS.prom"), &prom);

    if pass {
        println!("\nall campaign-service gates passed");
    }
    gate(record.failures)
}
