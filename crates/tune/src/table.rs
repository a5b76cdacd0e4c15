//! The persisted knob table: deterministic `TUNED.json` serialization,
//! process-wide cached loading, and the per-knob resolution order
//! **env override → table → frozen constant**.

use std::collections::BTreeMap;
use std::sync::OnceLock;

/// File name consumers look for in the working directory (the tier-1
/// flow runs every binary from the repo root, so the repo-root table is
/// what production runs consult; unit tests run from their crate
/// directory and therefore stay on the frozen constants).
pub const TUNED_FILE: &str = "TUNED.json";

/// A persisted knob table. Keys are sorted (`BTreeMap`) and the writer
/// is hand-rolled, so serialization is a pure function of the contents:
/// the determinism proptests compare tables byte for byte.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TunedTable {
    /// Seed the tuner ran with (recorded for provenance).
    pub seed: u64,
    /// Machine the table was tuned for.
    pub machine: String,
    /// Sorted knob → winner map.
    pub knobs: BTreeMap<String, i64>,
}

impl TunedTable {
    /// Empty table (every lookup falls back to the frozen constant).
    pub fn new(seed: u64, machine: &str) -> Self {
        TunedTable {
            seed,
            machine: machine.to_string(),
            knobs: BTreeMap::new(),
        }
    }

    /// Record a winner.
    pub fn set(&mut self, key: &str, value: i64) {
        self.knobs.insert(key.to_string(), value);
    }

    /// Look a knob up.
    pub fn get(&self, key: &str) -> Option<i64> {
        self.knobs.get(key).copied()
    }

    /// Deterministic JSON: fixed field order, sorted keys, fixed
    /// indentation — byte-identical for equal contents.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"version\": 1,\n  \"seed\": {},\n", self.seed));
        out.push_str(&format!(
            "  \"machine\": \"{}\",\n  \"knobs\": {{\n",
            self.machine
        ));
        let last = self.knobs.len();
        for (i, (k, v)) in self.knobs.iter().enumerate() {
            let comma = if i + 1 == last { "" } else { "," };
            out.push_str(&format!("    \"{k}\": {v}{comma}\n"));
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parse the exact shape [`TunedTable::to_json`] writes (plus benign
    /// whitespace variations). Returns `None` on anything malformed —
    /// a corrupt table must degrade to the frozen constants, never panic.
    pub fn from_json(text: &str) -> Option<Self> {
        let mut table = TunedTable::default();
        let mut in_knobs = false;
        for raw in text.lines() {
            let line = raw.trim().trim_end_matches(',');
            if line.starts_with("\"knobs\"") {
                in_knobs = true;
                continue;
            }
            if in_knobs {
                if line.starts_with('}') {
                    in_knobs = false;
                    continue;
                }
                let (k, v) = parse_pair(line)?;
                table.knobs.insert(k.to_string(), v.parse().ok()?);
            } else if let Some((k, v)) = parse_pair(line) {
                match k {
                    "seed" => table.seed = v.parse().ok()?,
                    "machine" => table.machine = v.trim_matches('"').to_string(),
                    "version" | "knobs" => {}
                    _ => {}
                }
            }
        }
        Some(table)
    }
}

/// Split a `"key": value` line into `(key, value)`.
fn parse_pair(line: &str) -> Option<(&str, &str)> {
    let (k, v) = line.split_once(':')?;
    Some((k.trim().trim_matches('"'), v.trim()))
}

/// The process-wide table: `EXA_TUNED` (explicit path) wins, then
/// `./TUNED.json`, then the empty table. Loaded once.
pub fn tuned() -> &'static TunedTable {
    static TABLE: OnceLock<TunedTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let path = std::env::var("EXA_TUNED").unwrap_or_else(|_| TUNED_FILE.to_string());
        std::fs::read_to_string(path)
            .ok()
            .and_then(|text| TunedTable::from_json(&text))
            .unwrap_or_default()
    })
}

/// Resolve a knob: `EXA_TUNE_<KEY>` env override (dots become
/// underscores, uppercased — `fft.gather` → `EXA_TUNE_FFT_GATHER`),
/// then the loaded table, then the frozen constant.
pub fn knob_i64(key: &str, frozen: i64) -> i64 {
    let var = format!(
        "EXA_TUNE_{}",
        key.chars()
            .map(|c| if c == '.' {
                '_'
            } else {
                c.to_ascii_uppercase()
            })
            .collect::<String>()
    );
    if let Ok(v) = std::env::var(&var) {
        if let Ok(n) = v.trim().parse() {
            return n;
        }
    }
    tuned().get(key).unwrap_or(frozen)
}

/// [`knob_i64`] for the common non-negative `usize` knobs. Negative
/// table entries fall back to the frozen constant.
pub fn knob(key: &str, frozen: usize) -> usize {
    usize::try_from(knob_i64(key, frozen as i64)).unwrap_or(frozen)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_byte_identically() {
        let mut t = TunedTable::new(42, "frontier");
        t.set("fft.gather", 1);
        t.set("fft.line_batch", 8);
        t.set("fft.overlap_k", 8);
        let json = t.to_json();
        let back = TunedTable::from_json(&json).expect("parses");
        assert_eq!(back, t);
        assert_eq!(back.to_json(), json, "round trip must be byte-identical");
    }

    #[test]
    fn retired_keys_still_parse() {
        // Tables written before a knob became a constant keep its key;
        // loading them must not fail, and the live keys must resolve.
        let old = "{\n  \"version\": 1,\n  \"seed\": 1,\n  \"machine\": \"frontier\",\n  \
                   \"knobs\": {\n    \"fft.gather\": 1,\n    \"sched.task_chunks\": 64\n  }\n}\n";
        let table = TunedTable::from_json(old).expect("parses");
        assert_eq!(table.get("fft.gather"), Some(1));
        assert_eq!(table.get("sched.task_chunks"), Some(64));
    }

    #[test]
    fn empty_table_serializes_and_parses() {
        let t = TunedTable::new(7, "aurora");
        let back = TunedTable::from_json(&t.to_json()).expect("parses");
        assert_eq!(back, t);
        assert_eq!(back.get("missing"), None);
    }

    #[test]
    fn corrupt_table_degrades_to_none() {
        let corrupt = "{\n  \"knobs\": {\n    \"a\": what\n  }\n}\n";
        assert_eq!(TunedTable::from_json(corrupt), None);
    }

    #[test]
    fn keys_serialize_sorted() {
        let mut t = TunedTable::new(0, "m");
        t.set("z.last", 1);
        t.set("a.first", 2);
        let json = t.to_json();
        assert!(json.find("a.first").unwrap() < json.find("z.last").unwrap());
    }

    #[test]
    fn env_override_beats_frozen() {
        // Process-global env: use a key no other test reads.
        std::env::set_var("EXA_TUNE_TEST_ONLY_KNOB", "99");
        assert_eq!(knob("test.only_knob", 3), 99);
        std::env::remove_var("EXA_TUNE_TEST_ONLY_KNOB");
        assert_eq!(knob("test.only_knob", 3), 3);
    }
}
