//! # exa-tune — the knob-table reader the end-to-end benchmark still uses
//!
//! The three `fft.*` knobs this crate once searched are constants now:
//! every cost model picked the same winner at every input (DESIGN.md
//! §14). No workspace crate depends on it any more. What is left is
//! exactly what `exabench` imports — [`knob`], [`TUNED_FILE`] and
//! [`TunedTable::from_json`] — and the code they need, so the benchmark
//! keeps building until its next change drops these imports and the
//! crate can be deleted.
//!
//! A knob resolves **env override → table → frozen constant**:
//! `EXA_TUNE_<KEY>` (dots become underscores, uppercased —
//! `fft.line_batch` → `EXA_TUNE_FFT_LINE_BATCH`), then the table at
//! `EXA_TUNED` or `./TUNED.json`, then the caller's constant.

use std::collections::BTreeMap;
use std::sync::OnceLock;

/// File name [`knob`] looks for in the working directory.
pub const TUNED_FILE: &str = "TUNED.json";

/// A persisted knob table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TunedTable {
    /// Seed the table was written with (provenance only).
    pub seed: u64,
    /// Machine the table was written for.
    pub machine: String,
    /// Sorted knob → value map.
    pub knobs: BTreeMap<String, i64>,
}

impl TunedTable {
    /// Parse a `TUNED.json` (`version`, `seed`, `machine` and a flat
    /// `knobs` object, one pair per line). Returns `None` on anything
    /// malformed — a corrupt table must degrade to the frozen constants,
    /// never panic.
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
fn tuned() -> &'static TunedTable {
    static TABLE: OnceLock<TunedTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let path = std::env::var("EXA_TUNED").unwrap_or_else(|_| TUNED_FILE.to_string());
        std::fs::read_to_string(path)
            .ok()
            .and_then(|text| TunedTable::from_json(&text))
            .unwrap_or_default()
    })
}

/// Resolve a non-negative knob: the `EXA_TUNE_<KEY>` env override, then
/// the loaded table, then `frozen`. Values that do not parse as a `usize`
/// fall back to `frozen`.
pub fn knob(key: &str, frozen: usize) -> usize {
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
    let value = match std::env::var(&var).ok().and_then(|v| v.trim().parse().ok()) {
        Some(v) => v,
        None => tuned().knobs.get(key).copied().unwrap_or(frozen as i64),
    };
    usize::try_from(value).unwrap_or(frozen)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retired_keys_still_parse() {
        // Tables written before a knob became a constant keep its key;
        // loading them must not fail.
        let old = "{\n  \"version\": 1,\n  \"seed\": 1,\n  \"machine\": \"frontier\",\n  \
                   \"knobs\": {\n    \"fft.gather\": 1,\n    \"sched.task_chunks\": 64\n  }\n}\n";
        let table = TunedTable::from_json(old).expect("parses");
        assert_eq!(table.seed, 1);
        assert_eq!(table.machine, "frontier");
        assert_eq!(table.knobs.get("fft.gather"), Some(&1));
        assert_eq!(table.knobs.get("sched.task_chunks"), Some(&64));
    }

    #[test]
    fn corrupt_table_degrades_to_none() {
        let corrupt = "{\n  \"knobs\": {\n    \"a\": what\n  }\n}\n";
        assert_eq!(TunedTable::from_json(corrupt), None);
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
