//! Property and integration tests for the longitudinal FOM ledger and the
//! regression sentinel: append and compact are idempotent
//! under arbitrary record streams, the JSON round-trips through the
//! vendored parser, a damaged ledger is a typed error, and the sentinel
//! catches an injected slowdown in a real Table-2 application with the
//! correct culprit span.

use exaready::apps::table2_applications;
use exaready::core::{measure_record, RunContext, ScenarioSpec};
use exaready::machine::MachineModel;
use exaready::telemetry::{
    run_sentinel, FomKind, FomLedger, FomRecord, TelemetryCollector, Verdict,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

const APPS: [&str; 3] = ["GAMESS", "GESTS", "Pele"];
const MACHINES: [&str; 2] = ["Summit", "Frontier"];
const KINDS: [FomKind; 3] = [
    FomKind::TimePerCellStep,
    FomKind::GflopsPerNode,
    FomKind::Throughput,
];

/// Build a record from small generator indices so identities collide often
/// enough to exercise the dedup path.
fn record(app: usize, machine: usize, kind: usize, tag: usize, value: f64) -> FomRecord {
    let mut span_profile = BTreeMap::new();
    span_profile.insert("kernel".to_string(), value);
    span_profile.insert("exchange".to_string(), value / 4.0);
    FomRecord {
        seq: 0,
        app: APPS[app % APPS.len()].to_string(),
        machine: MACHINES[machine % MACHINES.len()].to_string(),
        nodes: 9408,
        kind: KINDS[kind % KINDS.len()],
        value,
        units: "u/s".to_string(),
        wall_s: 1.0 / value,
        run_tag: format!("v{tag}"),
        scenario: String::new(),
        snapshot_digest: format!("{:016x}", tag as u64 * 2_654_435_761 + app as u64),
        span_profile,
    }
}

fn ledger_of(recs: &[(usize, usize, usize, usize, f64)]) -> FomLedger {
    let mut l = FomLedger::new();
    for &(a, m, k, t, v) in recs {
        l.append(record(a, m, k, t, v));
    }
    l
}

type RecSpec = (usize, usize, usize, usize, f64);

fn rec_strategy() -> impl Strategy<Value = RecSpec> {
    (0usize..3, 0usize..2, 0usize..3, 0usize..6, 0.5f64..100.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Re-appending every record of a ledger changes nothing: identity
    /// dedup makes append idempotent.
    #[test]
    fn append_is_idempotent(recs in prop::collection::vec(rec_strategy(), 1..30)) {
        let once = ledger_of(&recs);
        let mut twice = ledger_of(&recs);
        for &(a, m, k, t, v) in &recs {
            twice.append(record(a, m, k, t, v));
        }
        prop_assert_eq!(once.len(), twice.len());
        prop_assert_eq!(once.to_json(), twice.to_json());
    }


    /// Compacting twice with the same keep-depth equals compacting once,
    /// and never keeps more than `keep` records per (app, machine, kind).
    #[test]
    fn compact_is_idempotent_and_bounded(
        recs in prop::collection::vec(rec_strategy(), 1..40),
        keep in 1usize..5,
    ) {
        let mut once = ledger_of(&recs);
        once.compact(keep);
        let mut twice = once.clone();
        twice.compact(keep);
        prop_assert_eq!(once.to_json(), twice.to_json());

        let mut per_series: BTreeMap<_, usize> = BTreeMap::new();
        for r in &once.records {
            *per_series.entry(r.series_key()).or_insert(0) += 1;
        }
        for (series, n) in per_series {
            prop_assert!(n <= keep, "series {series:?} kept {n} > {keep}");
        }
    }

    /// The ledger JSON round-trips exactly through the vendored parser.
    #[test]
    fn ledger_json_round_trips(recs in prop::collection::vec(rec_strategy(), 1..30)) {
        let l = ledger_of(&recs);
        let back = FomLedger::parse(&l.to_json());
        prop_assert!(back.is_ok(), "re-parse failed: {:?}", back.err());
        prop_assert_eq!(l.to_json(), back.unwrap().to_json());
    }
}

/// End-to-end sentinel drill against a real application: a clean GESTS run
/// establishes the baseline, a 2x FFT-transform injection must trip a
/// `fail` verdict naming the transform span.
#[test]
fn sentinel_catches_injected_gests_regression() {
    let frontier = MachineModel::frontier();
    let gests = table2_applications()
        .into_iter()
        .find(|a| a.name() == "GESTS")
        .expect("GESTS is in Table 2");

    let mut ledger = FomLedger::new();
    let clean_c = TelemetryCollector::shared();
    let clean = measure_record(
        gests.as_ref(),
        &frontier,
        &RunContext::new(&clean_c),
        "base",
    );
    let kind = clean.kind;
    ledger.append(clean);

    let hurt_c = TelemetryCollector::shared();
    let injected = ScenarioSpec::clean().with_injection("transform", 2.0);
    let ctx = RunContext::for_scenario(&hurt_c, &injected);
    ledger.append(measure_record(gests.as_ref(), &frontier, &ctx, "regressed"));

    let report = run_sentinel(&ledger, "GESTS", "Frontier", kind)
        .expect("two-entry series produces a report");
    assert_eq!(
        report.verdict,
        Verdict::Fail,
        "2x injection must fail: {}",
        report.summary()
    );
    assert!(
        report.regression > 1.5,
        "regression {:.3} too small",
        report.regression
    );
    let culprit = report.culprit_span.as_deref().expect("culprit span named");
    assert!(
        culprit.contains("transform"),
        "culprit {culprit:?} should be the transforms"
    );
    assert!(
        !report.explanation.is_empty(),
        "explanation carries the span diff"
    );
}

/// The same drill through a clean run twice must pass — no false alarms.
#[test]
fn sentinel_passes_on_a_stable_series() {
    let frontier = MachineModel::frontier();
    let gests = table2_applications()
        .into_iter()
        .find(|a| a.name() == "GESTS")
        .expect("GESTS is in Table 2");

    let mut ledger = FomLedger::new();
    let mut kind = FomKind::Throughput;
    for tag in ["r1", "r2"] {
        let c = TelemetryCollector::shared();
        let rec = measure_record(gests.as_ref(), &frontier, &RunContext::new(&c), tag);
        kind = rec.kind;
        ledger.append(rec);
    }
    let report = run_sentinel(&ledger, "GESTS", "Frontier", kind).expect("report");
    assert_eq!(
        report.verdict,
        Verdict::Pass,
        "stable series must pass: {}",
        report.summary()
    );
}

/// A damaged ledger file is a typed error, never a panic or a silently
/// coerced record: every truncation of a real ledger, a wrong-typed or
/// missing field, a wrong version and deep nesting all make
/// `FomLedger::parse` return `Err`.
#[test]
fn damaged_ledgers_are_errors_not_panics() {
    let frontier = MachineModel::frontier();
    let mut ledger = FomLedger::new();
    for app in table2_applications().iter().take(2) {
        let c = TelemetryCollector::shared();
        ledger.append(measure_record(
            app.as_ref(),
            &frontier,
            &RunContext::new(&c),
            "real",
        ));
    }
    let good = ledger.to_json();
    assert!(FomLedger::parse(&good).is_ok());

    for end in (0..good.len()).filter(|&i| good.is_char_boundary(i)) {
        assert!(
            FomLedger::parse(&good[..end]).is_err(),
            "a {end}-byte prefix parsed"
        );
    }

    let first = &ledger.records[0];
    let nodes = format!("\"nodes\": {},", first.nodes);
    let app = format!("\"app\": \"{}\",", first.app);
    let machine = format!("\"machine\": \"{}\",", first.machine);
    let edits = [
        // Wrong-typed or out-of-range fields.
        (nodes.as_str(), "\"nodes\": -3,"),
        (&nodes, "\"nodes\": 2.5,"),
        (&nodes, "\"nodes\": 1e12,"),
        (&nodes, "\"nodes\": \"4096\","),
        (&app, "\"app\": 7,"),
        ("\"seq\": 0,", "\"seq\": -1,"),
        ("\"kind\": \"", "\"kind\": \"Unknown"),
        ("\"span_profile\": {", "\"span_profile\": {\"bad\": \"x\","),
        // A missing field.
        (&machine, ""),
        // A wrong version.
        ("\"version\": 1,", "\"version\": 2,"),
    ];
    for (from, to) in edits {
        assert!(good.contains(from), "ledger has no {from:?}");
        let bad = good.replacen(from, to, 1);
        assert!(FomLedger::parse(&bad).is_err(), "{from:?} -> {to:?} parsed");
    }

    let deep = |open: &str, close: &str| {
        format!(
            "{{\"version\": 1, \"records\": [{}{}]}}",
            open.repeat(100_000),
            close.repeat(100_000)
        )
    };
    for bad in [
        deep("[", "]"),
        deep("{\"a\": ", "}"),
        "[".repeat(1_000_000),
        "{\"version\": 1, \"records\": {}}".to_string(),
        "{\"version\": 1, \"records\": [7]}".to_string(),
    ] {
        assert!(FomLedger::parse(&bad).is_err());
    }
}
