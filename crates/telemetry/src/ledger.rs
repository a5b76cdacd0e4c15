//! The longitudinal FOM ledger — Figure 2 as a service.
//!
//! The paper's most distinctive evaluation artifact is Figure 2: a
//! multi-year, multi-machine history of PeleC time-per-cell-per-timestep
//! whose 75× cumulative improvement exists only because the COE teams
//! *continuously recorded* figures of merit and caught regressions early
//! (§6: "this quantitative approach permitted early detection of software
//! bugs and performance regressions"). This module persists that history:
//! one [`FomRecord`] per (application, machine, FOM-kind, run), appended to
//! an append-only `FOM_LEDGER.json` that the regression sentinel
//! ([`crate::sentinel`]) replays against a rolling baseline.
//!
//! Because the vendored `serde_json` shim has no deserializer, records are
//! read back through [`crate::validate::parse_json`].

use crate::validate::{parse_json, JsonValue};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::Path;

/// Conventional file name at the repository root.
pub const LEDGER_FILE: &str = "FOM_LEDGER.json";

/// Current on-disk schema version.
pub const LEDGER_VERSION: u64 = 1;

/// What kind of quantity a FOM value is. The CAAR teams used all three
/// shapes: Pele tracked time/cell/step (Figure 2), COAST sustained FLOP
/// rates, GESTS/ExaSky project-defined throughputs, and the mid-project
/// reports expressed progress as FOM-vs-baseline ratios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FomKind {
    /// Seconds per cell per timestep — lower is better (Pele, Figure 2).
    TimePerCellStep,
    /// Sustained GFLOP/s per node — higher is better (COAST-style).
    GflopsPerNode,
    /// Project-defined throughput FOM — higher is better (GESTS, ExaSky…).
    Throughput,
    /// Ratio of the current FOM to a stated baseline — higher is better.
    FomVsBaseline,
}

impl FomKind {
    /// Stable label used on disk.
    pub fn label(self) -> &'static str {
        match self {
            FomKind::TimePerCellStep => "TimePerCellStep",
            FomKind::GflopsPerNode => "GflopsPerNode",
            FomKind::Throughput => "Throughput",
            FomKind::FomVsBaseline => "FomVsBaseline",
        }
    }

    /// Inverse of [`FomKind::label`].
    pub fn from_label(s: &str) -> Option<FomKind> {
        match s {
            "TimePerCellStep" => Some(FomKind::TimePerCellStep),
            "GflopsPerNode" => Some(FomKind::GflopsPerNode),
            "Throughput" => Some(FomKind::Throughput),
            "FomVsBaseline" => Some(FomKind::FomVsBaseline),
            _ => None,
        }
    }

    /// Orientation: `true` when larger values are better.
    pub fn higher_is_better(self) -> bool {
        !matches!(self, FomKind::TimePerCellStep)
    }

    /// Classify an application FOM from its units string and orientation.
    pub fn classify(units: &str, higher_is_better: bool) -> FomKind {
        if !higher_is_better {
            FomKind::TimePerCellStep
        } else if units.to_ascii_uppercase().contains("FLOP") {
            FomKind::GflopsPerNode
        } else {
            FomKind::Throughput
        }
    }
}

/// One measured figure of merit from one run, with enough provenance to
/// compare runs months apart: the machine profile, the git-describe-style
/// run tag, a digest of the full telemetry snapshot, and a compact span
/// profile (name → total seconds) so the sentinel can explain *where* a
/// regression lives without re-running anything.
#[derive(Debug, Clone, Serialize)]
pub struct FomRecord {
    /// Monotone sequence number assigned by the ledger on append.
    pub seq: u64,
    /// Application name as it appears in the paper (Table 2).
    pub app: String,
    /// Machine profile the run used (e.g. "Frontier").
    pub machine: String,
    /// Node count of the machine profile.
    pub nodes: u32,
    /// FOM kind (drives comparison orientation).
    pub kind: FomKind,
    /// The FOM value.
    pub value: f64,
    /// Display units.
    pub units: String,
    /// Simulated wall time of the run, seconds.
    pub wall_s: f64,
    /// Git-describe-style tag of the code state that produced the run.
    pub run_tag: String,
    /// Fault-scenario tag (empty = clean run). A tagged record ran under
    /// injected faults/contention, so the sentinel treats its slowdowns as
    /// "unlucky run", not "code regression".
    pub scenario: String,
    /// FNV-1a digest of the run's full `TelemetrySnapshot` JSON.
    pub snapshot_digest: String,
    /// Span name → total seconds across the run's timeline (top entries).
    pub span_profile: BTreeMap<String, f64>,
}

impl FomRecord {
    /// Identity key used for append deduplication: two records with
    /// the same identity describe the same run of the same code state
    /// under the same scenario (a clean run and an MTBF drill of the same
    /// tag are distinct history entries).
    pub fn identity(&self) -> RecordIdentity {
        (
            self.app.clone(),
            self.machine.clone(),
            self.kind.label(),
            self.run_tag.clone(),
            self.scenario.clone(),
            self.snapshot_digest.clone(),
        )
    }

    /// Key of the longitudinal series this record belongs to.
    pub fn series_key(&self) -> (String, String, &'static str) {
        (self.app.clone(), self.machine.clone(), self.kind.label())
    }

    /// Decode one record from parsed ledger JSON.
    pub fn from_json(v: &JsonValue) -> Result<FomRecord, String> {
        let str_field = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or(format!("record missing string field '{k}'"))
        };
        let num_field = |k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(JsonValue::as_f64)
                .ok_or(format!("record missing number field '{k}'"))
        };
        let kind_label = str_field("kind")?;
        let kind =
            FomKind::from_label(&kind_label).ok_or(format!("unknown FOM kind '{kind_label}'"))?;
        let mut span_profile = BTreeMap::new();
        if let Some(JsonValue::Obj(m)) = v.get("span_profile") {
            for (name, val) in m {
                let secs = val
                    .as_f64()
                    .ok_or(format!("span_profile['{name}'] not a number"))?;
                span_profile.insert(name.clone(), secs);
            }
        }
        Ok(FomRecord {
            seq: v
                .get("seq")
                .and_then(JsonValue::as_u64)
                .ok_or("record missing 'seq'")?,
            app: str_field("app")?,
            machine: str_field("machine")?,
            nodes: v
                .get("nodes")
                .and_then(JsonValue::as_u64)
                .and_then(|n| u32::try_from(n).ok())
                .ok_or("record field 'nodes' is not a node count in 0..=u32::MAX")?,
            kind,
            value: num_field("value")?,
            units: str_field("units")?,
            wall_s: num_field("wall_s")?,
            run_tag: str_field("run_tag")?,
            // Pre-scenario ledgers have no tag: default to clean.
            scenario: v
                .get("scenario")
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_string(),
            snapshot_digest: str_field("snapshot_digest")?,
            span_profile,
        })
    }
}

/// The append-only ledger: a versioned list of [`FomRecord`]s ordered by
/// `seq`. Mutation goes through [`FomLedger::append`] (deduplicating by
/// record identity, so re-running the same code state is idempotent) and
/// [`FomLedger::compact`] (bound each series' history).
#[derive(Debug, Clone, Default, Serialize)]
pub struct FomLedger {
    /// Schema version.
    pub version: u64,
    /// Records in `seq` order.
    pub records: Vec<FomRecord>,
}

impl FomLedger {
    /// An empty ledger at the current schema version.
    pub fn new() -> Self {
        FomLedger {
            version: LEDGER_VERSION,
            records: Vec::new(),
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records exist.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Append a record, assigning the next sequence number. If a record
    /// with the same identity already exists its contents are replaced in
    /// place (keeping the original `seq`), so appending the same run twice
    /// is idempotent. Returns the record's sequence number.
    pub fn append(&mut self, mut record: FomRecord) -> u64 {
        let id = record.identity();
        if let Some(existing) = self.records.iter_mut().find(|r| r.identity() == id) {
            record.seq = existing.seq;
            *existing = record;
            return id_seq(&self.records, &id);
        }
        let seq = self
            .records
            .iter()
            .map(|r| r.seq)
            .max()
            .map_or(0, |s| s + 1);
        record.seq = seq;
        self.records.push(record);
        seq
    }

    /// Keep only the newest `keep` records (by `seq`) of every
    /// (app, machine, kind) series. Idempotent.
    pub fn compact(&mut self, keep: usize) {
        let mut per_series: BTreeMap<(String, String, &'static str), Vec<u64>> = BTreeMap::new();
        for r in &self.records {
            per_series.entry(r.series_key()).or_default().push(r.seq);
        }
        let mut keep_seqs: Vec<u64> = Vec::new();
        for seqs in per_series.values_mut() {
            seqs.sort_unstable();
            keep_seqs.extend(seqs.iter().rev().take(keep));
        }
        self.records.retain(|r| keep_seqs.contains(&r.seq));
        self.records.sort_by_key(|r| r.seq);
    }

    /// All records of one series, oldest first.
    pub fn series(&self, app: &str, machine: &str, kind: FomKind) -> Vec<&FomRecord> {
        let mut v: Vec<&FomRecord> = self
            .records
            .iter()
            .filter(|r| r.app == app && r.machine == machine && r.kind == kind)
            .collect();
        v.sort_by_key(|r| r.seq);
        v
    }

    /// Distinct application names present.
    pub fn apps(&self) -> Vec<String> {
        let mut v: Vec<String> = self.records.iter().map(|r| r.app.clone()).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Pretty JSON for the on-disk file.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("ledger serializes")
    }

    /// Parse a ledger document produced by [`FomLedger::to_json`].
    pub fn parse(s: &str) -> Result<FomLedger, String> {
        let doc = parse_json(s)?;
        let version = doc
            .get("version")
            .and_then(JsonValue::as_u64)
            .ok_or("ledger missing 'version'")?;
        if version != LEDGER_VERSION {
            return Err(format!("unsupported ledger version {version}"));
        }
        let records = doc
            .get("records")
            .and_then(JsonValue::as_array)
            .ok_or("ledger missing 'records' array")?
            .iter()
            .map(FomRecord::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let mut ledger = FomLedger { version, records };
        ledger.records.sort_by_key(|r| r.seq);
        Ok(ledger)
    }

    /// Load from `path`; a missing file is an empty ledger, a malformed
    /// file is an error (never silently dropped history).
    pub fn load(path: &Path) -> Result<FomLedger, String> {
        if !path.exists() {
            return Ok(FomLedger::new());
        }
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
        FomLedger::parse(&text)
    }

    /// Write the ledger to `path`.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.to_json()).map_err(|e| format!("write {path:?}: {e}"))
    }
}

/// The deduplication key: (app, machine, kind, run_tag, scenario, digest).
pub type RecordIdentity = (String, String, &'static str, String, String, String);

fn id_seq(records: &[FomRecord], id: &RecordIdentity) -> u64 {
    records
        .iter()
        .find(|r| &r.identity() == id)
        .map(|r| r.seq)
        .expect("identity present")
}

/// FNV-1a 64-bit digest rendered as 16 hex digits — the snapshot
/// fingerprint stored in every ledger record.
pub fn digest64(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(app: &str, tag: &str, value: f64) -> FomRecord {
        FomRecord {
            seq: 0,
            app: app.into(),
            machine: "Frontier".into(),
            nodes: 9408,
            kind: FomKind::Throughput,
            value,
            units: "widgets/s".into(),
            wall_s: 1.0 / value,
            run_tag: tag.into(),
            scenario: String::new(),
            snapshot_digest: digest64(&format!("{app}/{tag}/{value}")),
            span_profile: BTreeMap::from([("kernel".to_string(), 0.8), ("comm".to_string(), 0.2)]),
        }
    }

    #[test]
    fn append_assigns_monotone_seq_and_dedupes_identity() {
        let mut l = FomLedger::new();
        assert_eq!(l.append(rec("A", "v1", 10.0)), 0);
        assert_eq!(l.append(rec("B", "v1", 5.0)), 1);
        // Same identity: replaced in place, not duplicated.
        assert_eq!(l.append(rec("A", "v1", 10.0)), 0);
        assert_eq!(l.len(), 2);
        assert_eq!(l.append(rec("A", "v2", 12.0)), 2);
        assert_eq!(l.series("A", "Frontier", FomKind::Throughput).len(), 2);
    }

    #[test]
    fn compact_keeps_the_newest_per_series() {
        let mut l = FomLedger::new();
        for i in 0..6 {
            l.append(rec("A", &format!("v{i}"), 10.0 + i as f64));
        }
        l.append(rec("B", "v0", 1.0));
        l.compact(2);
        assert_eq!(l.series("A", "Frontier", FomKind::Throughput).len(), 2);
        assert_eq!(l.series("B", "Frontier", FomKind::Throughput).len(), 1);
        let vals: Vec<f64> = l
            .series("A", "Frontier", FomKind::Throughput)
            .iter()
            .map(|r| r.value)
            .collect();
        assert_eq!(vals, vec![14.0, 15.0], "newest records survive");
        let json = l.to_json();
        l.compact(2);
        assert_eq!(l.to_json(), json, "compact must be idempotent");
    }

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let mut l = FomLedger::new();
        l.append(rec("Pele", "v1.2-4-gabc", 3.2e-9));
        l.records[0].kind = FomKind::TimePerCellStep;
        let parsed = FomLedger::parse(&l.to_json()).expect("parses");
        assert_eq!(parsed.len(), 1);
        let (a, b) = (&l.records[0], &parsed.records[0]);
        assert_eq!(a.app, b.app);
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.value, b.value);
        assert_eq!(a.run_tag, b.run_tag);
        assert_eq!(a.snapshot_digest, b.snapshot_digest);
        assert_eq!(a.span_profile, b.span_profile);
    }

    #[test]
    fn scenario_tag_distinguishes_identity_and_roundtrips() {
        let mut l = FomLedger::new();
        let clean = rec("A", "v1", 10.0);
        let mut drill = rec("A", "v1", 7.0);
        drill.scenario = "mtbf-seed42".into();
        drill.snapshot_digest = clean.snapshot_digest.clone(); // same code state
        l.append(clean);
        l.append(drill.clone());
        assert_eq!(
            l.len(),
            2,
            "a tagged run must not dedupe against the clean run"
        );
        // Re-appending the tagged run is still idempotent.
        l.append(drill);
        assert_eq!(l.len(), 2);
        let parsed = FomLedger::parse(&l.to_json()).unwrap();
        assert_eq!(parsed.records[0].scenario, "");
        assert_eq!(parsed.records[1].scenario, "mtbf-seed42");
    }

    #[test]
    fn legacy_record_without_scenario_parses_as_clean() {
        let doc = r#"{
          "version": 1,
          "records": [{
            "seq": 0, "app": "A", "machine": "Frontier", "nodes": 9408,
            "kind": "Throughput", "value": 10.0, "units": "w/s",
            "wall_s": 0.1, "run_tag": "v1", "snapshot_digest": "0123456789abcdef",
            "span_profile": {}
          }]
        }"#;
        let l = FomLedger::parse(doc).expect("legacy ledger parses");
        assert_eq!(l.records[0].scenario, "");
    }

    #[test]
    fn kind_classification_and_labels() {
        assert_eq!(
            FomKind::classify("s/cell/step", false),
            FomKind::TimePerCellStep
        );
        assert_eq!(
            FomKind::classify("PFLOP/s (machine)", true),
            FomKind::GflopsPerNode
        );
        assert_eq!(
            FomKind::classify("grid points/s", true),
            FomKind::Throughput
        );
        for k in [
            FomKind::TimePerCellStep,
            FomKind::GflopsPerNode,
            FomKind::Throughput,
            FomKind::FomVsBaseline,
        ] {
            assert_eq!(FomKind::from_label(k.label()), Some(k));
        }
        assert!(!FomKind::TimePerCellStep.higher_is_better());
        assert!(FomKind::Throughput.higher_is_better());
    }

    #[test]
    fn digest_is_stable_and_input_sensitive() {
        assert_eq!(digest64("abc"), digest64("abc"));
        assert_ne!(digest64("abc"), digest64("abd"));
        assert_eq!(digest64("").len(), 16);
    }

    #[test]
    fn deeply_nested_ledger_is_an_error() {
        let doc = format!(r#"{{"version": 1, "records": {}"#, "[".repeat(100_000));
        assert!(FomLedger::parse(&doc).is_err());
    }

    #[test]
    fn load_missing_file_is_empty() {
        let l = FomLedger::load(Path::new("/nonexistent/FOM_LEDGER.json")).unwrap();
        assert!(l.is_empty());
        assert_eq!(l.version, LEDGER_VERSION);
    }
}
