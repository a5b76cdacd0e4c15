//! # exa-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §4 for the
//! index), plus criterion microbenchmarks in `benches/`. Every binary
//! prints the paper's rows/series next to the measured values and writes a
//! machine-readable JSON record under `target/experiments/`.

use serde::Serialize;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

/// Where experiment JSON records land.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    fs::create_dir_all(&dir).expect("can create target/experiments");
    dir
}

/// Serialize an experiment record to `target/experiments/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = experiments_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serializable record");
    fs::write(&path, json).expect("can write experiment record");
    println!("\n[wrote {}]", path.display());
}

/// Serialize a headline record to `<repo root>/<name>.json`. Used for the
/// top-level `BENCH_*.json` artifacts that acceptance gates read. The
/// artifact itself is overwritten in place; every write also appends a
/// timestamped line to [`HISTORY_FILE`], so the gate trajectory stays
/// queryable across PRs even though each `BENCH_*.json` only shows the
/// latest run.
pub fn write_root_json<T: Serialize>(name: &str, value: &T) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serializable record");
    fs::write(&path, json).expect("can write root record");
    append_history(
        name,
        &serde_json::to_string(value).expect("serializable record"),
    );
    println!("\n[wrote {}]", path.display());
}

/// The append-only gate trajectory at the repo root: one JSON object per
/// line — `{"ts": <unix secs>, "date": "YYYY-MM-DDTHH:MM:SSZ",
/// "artifact": "<name>", "record": {...}}` — appended on every
/// [`write_root_json`] call.
pub const HISTORY_FILE: &str = "BENCH_HISTORY.jsonl";

fn append_history(name: &str, compact_record: &str) {
    use std::io::Write;
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let line = format!(
        "{{\"ts\": {ts}, \"date\": \"{}\", \"artifact\": \"{name}\", \"record\": {compact_record}}}\n",
        iso8601_utc(ts)
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../{HISTORY_FILE}"));
    fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .expect("can append bench history");
}

/// Render unix seconds as `YYYY-MM-DDTHH:MM:SSZ` (proleptic Gregorian,
/// days-from-civil inverted per Hinnant's algorithm — no external time
/// crate in the offline build).
pub fn iso8601_utc(unix: u64) -> String {
    let days = (unix / 86_400) as i64;
    let secs = unix % 86_400;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        secs / 3600,
        (secs / 60) % 60,
        secs % 60
    )
}

/// Median of `xs` (the upper median for even lengths); sorts in place.
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Median wall-clock seconds of `f` over `reps` runs after `warmup` runs.
pub fn time_median<F: FnMut()>(warmup: usize, reps: usize, mut f: F) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut samples)
}

/// Print a section header.
pub fn header(title: &str) {
    let bar = "=".repeat(title.len() + 8);
    println!("\n{bar}\n=== {title} ===\n{bar}");
}

/// Format a paper-vs-measured comparison cell.
pub fn vs_paper(measured: f64, paper: f64) -> String {
    let err = (measured - paper).abs() / paper * 100.0;
    format!("{measured:>8.2} vs paper {paper:>6.2}  ({err:>5.1}% off)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_dir_exists_after_call() {
        assert!(experiments_dir().is_dir());
    }

    #[test]
    fn vs_paper_formats_error() {
        let s = vs_paper(5.0, 4.0);
        assert!(s.contains("25.0% off"), "{s}");
    }

    #[test]
    fn median_picks_the_middle_sample() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 3.0);
        assert!(time_median(1, 3, || {}) >= 0.0);
    }

    #[test]
    fn iso8601_known_instants() {
        assert_eq!(iso8601_utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(iso8601_utc(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(iso8601_utc(1_754_524_800), "2025-08-07T00:00:00Z");
        assert_eq!(iso8601_utc(1_754_524_800 + 3_661), "2025-08-07T01:01:01Z");
    }
}
