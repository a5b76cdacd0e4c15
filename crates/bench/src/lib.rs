//! # exa-bench — the experiment harness
//!
//! Every table, figure and gate of the reproduction is one experiment in
//! [`experiments`], run through the single `reproduce` binary
//! (`reproduce list` names them; DESIGN.md §4 maps them to the paper).
//! Each experiment prints the paper's rows/series next to the measured
//! values, writes a machine-readable JSON record under
//! `target/experiments/` (gates also write `BENCH_*.json` at the repo
//! root), and returns its gate verdict instead of exiting.

use serde::Serialize;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub mod experiments;

/// What an experiment returns: `Ok` when every gate it checks passed,
/// else one message per failed check.
pub type Gate = Result<(), Vec<String>>;

/// `Ok` iff `failures` is empty.
pub fn gate(failures: Vec<String>) -> Gate {
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

/// The repository root, where the `BENCH_*`/`PROFILE_*` artifacts live:
/// the nearest ancestor of the current directory whose `Cargo.toml`
/// declares `[workspace]`. It is resolved at run time, so a binary built
/// in one checkout and run in another writes into the one it runs in.
/// Panics when the current directory is outside a workspace.
pub fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().expect("the current directory is readable");
    workspace_root(&cwd).unwrap_or_else(|| {
        panic!(
            "no Cargo.toml declaring [workspace] in {} or any parent: \
             run inside the repository checkout",
            cwd.display()
        )
    })
}

/// The nearest ancestor of `dir`, `dir` included, whose `Cargo.toml`
/// declares `[workspace]`.
fn workspace_root(dir: &Path) -> Option<PathBuf> {
    dir.ancestors()
        .find(|d| {
            fs::read_to_string(d.join("Cargo.toml"))
                .is_ok_and(|toml| toml.lines().any(|l| l.trim() == "[workspace]"))
        })
        .map(Path::to_path_buf)
}

/// Where experiment JSON records land.
pub fn experiments_dir() -> PathBuf {
    let dir = repo_root().join("target/experiments");
    fs::create_dir_all(&dir).expect("can create target/experiments");
    dir
}

/// Write an artifact and report its path.
pub fn write_file(path: &Path, contents: &str) {
    fs::write(path, contents).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("\n[wrote {}]", path.display());
}

/// Pretty-printed JSON of a record.
pub fn pretty_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("serializable record")
}

/// Serialize an experiment record to `target/experiments/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    write_file(
        &experiments_dir().join(format!("{name}.json")),
        &pretty_json(value),
    );
}

/// Serialize a headline record to `<repo root>/<name>.json`. Used for the
/// top-level `BENCH_*.json` artifacts that acceptance gates read. The
/// artifact itself is overwritten in place; every write also appends a
/// timestamped line to [`HISTORY_FILE`], so the gate trajectory stays
/// queryable across PRs even though each `BENCH_*.json` only shows the
/// latest run.
pub fn write_root_json<T: Serialize>(name: &str, value: &T) {
    write_file(
        &repo_root().join(format!("{name}.json")),
        &pretty_json(value),
    );
    append_history(
        name,
        &serde_json::to_string(value).expect("serializable record"),
    );
}

/// The append-only gate trajectory at the repo root: one JSON object per
/// line — `{"ts": <unix secs>, "date": "YYYY-MM-DDTHH:MM:SSZ",
/// "artifact": "<name>", "record": {...}}` — appended on every
/// [`write_root_json`] call.
pub const HISTORY_FILE: &str = "BENCH_HISTORY.jsonl";

/// One [`HISTORY_FILE`] line (newline-terminated) for the artifact `name`
/// written at unix second `ts`.
fn history_line(ts: u64, name: &str, compact_record: &str) -> String {
    format!(
        "{{\"ts\": {ts}, \"date\": \"{}\", \"artifact\": \"{name}\", \"record\": {compact_record}}}\n",
        iso8601_utc(ts)
    )
}

fn append_history(name: &str, compact_record: &str) {
    use std::io::Write;
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let line = history_line(ts, name, compact_record);
    let path = repo_root().join(HISTORY_FILE);
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

/// Wall-clock seconds of one call of `f` (its result is kept opaque to
/// the optimizer, then dropped).
pub fn wall_s<T>(f: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_secs_f64()
}

/// Median wall-clock seconds of `f` over `reps` runs after `warmup` runs.
pub fn time_median<T>(warmup: usize, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut samples: Vec<f64> = (0..reps).map(|_| wall_s(&mut f)).collect();
    median(&mut samples)
}

/// Outcome of an order-fair A/B comparison ([`time_pairs`]).
#[derive(Clone, Copy, Debug)]
pub struct PairTiming {
    /// Median seconds of side A over the pairs.
    pub a_s: f64,
    /// Median seconds of side B over the pairs.
    pub b_s: f64,
    /// Median of the per-pair `a / b` ratios.
    pub ratio: f64,
}

/// The one A/B timer: `pairs` interleaved pairs of `a` and `b`, each
/// closure running one sample and returning its own wall seconds (so it
/// can keep setup out of the timed window). The order alternates per
/// pair (A first on even pairs, B first on odd) so slow drift — cache
/// state, background load — cancels instead of biasing one side, and each
/// side takes the min of 2 runs inside its pair: contention spikes on a
/// shared host only ever inflate a sample. The ratio is the median of
/// per-pair ratios, each comparing samples that saw the same drift.
/// Callers warm both sides first.
pub fn time_pairs(
    pairs: usize,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> PairTiming {
    fn best2(f: &mut impl FnMut() -> f64) -> f64 {
        let first = f();
        f().min(first)
    }
    let (mut ratios, mut ta, mut tb) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..pairs {
        let (x, y) = if pair % 2 == 0 {
            let x = best2(&mut a);
            (x, best2(&mut b))
        } else {
            let y = best2(&mut b);
            (best2(&mut a), y)
        };
        ratios.push(x / y);
        ta.push(x);
        tb.push(y);
    }
    PairTiming {
        a_s: median(&mut ta),
        b_s: median(&mut tb),
        ratio: median(&mut ratios),
    }
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
    fn workspace_root_is_the_nearest_workspace_ancestor() {
        let tree = std::env::temp_dir().join(format!("exa-bench-root-{}", std::process::id()));
        let write = |rel: &str, text: &str| {
            let path = tree.join(rel);
            fs::create_dir_all(path.parent().expect("has a parent")).expect("mkdir");
            fs::write(path, text).expect("write");
        };
        write("ws/Cargo.toml", "[workspace]\nmembers = [\"crates/a\"]\n");
        write("ws/crates/a/Cargo.toml", "[package]\nname = \"a\"\n");
        write("ws/crates/a/src/lib.rs", "");
        write("ws/inner/Cargo.toml", "[package]\n\n[workspace]\n");
        write("ws/inner/src/main.rs", "");
        write("loose/Cargo.toml", "[package]\n[workspace.package]\n");
        let ws = tree.join("ws");
        assert_eq!(workspace_root(&ws.join("crates/a/src")), Some(ws.clone()));
        assert_eq!(workspace_root(&ws), Some(ws.clone()));
        assert_eq!(
            workspace_root(&ws.join("inner/src")),
            Some(ws.join("inner")),
            "the nearest workspace wins"
        );
        // A package without `[workspace]` is not a root; whatever lies
        // above the temporary tree is not this test's to judge.
        let loose = workspace_root(&tree.join("loose"));
        assert!(loose.is_none_or(|r| !r.starts_with(&tree)), "{tree:?}");
        fs::remove_dir_all(&tree).expect("clean up");
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
    fn time_pairs_alternates_order_and_takes_the_median_ratio() {
        let order = std::cell::RefCell::new(String::new());
        let t = time_pairs(
            3,
            || {
                order.borrow_mut().push('a');
                4.0
            },
            || {
                order.borrow_mut().push('b');
                2.0
            },
        );
        assert_eq!(order.into_inner(), "aabbbbaaaabb");
        assert_eq!((t.a_s, t.b_s, t.ratio), (4.0, 2.0, 2.0));
    }

    #[test]
    fn history_line_matches_the_history_schema_and_round_trips() {
        let ts = 1_754_524_800 + 3_661;
        let line = history_line(ts, "BENCH_autotune", r#"{"speedup":1.5,"pass":true}"#);
        let body = line.strip_suffix('\n').expect("newline-terminated");
        assert!(!body.contains('\n'), "one line per record: {line}");
        assert!(
            body.starts_with(&format!(
                "{{\"ts\": {ts}, \"date\": \"2025-08-07T01:01:01Z\", \
                 \"artifact\": \"BENCH_autotune\", \"record\": {{"
            )),
            "{body}"
        );
        let doc = exa_telemetry::validate::parse_json(body).expect("valid JSON");
        assert_eq!(doc.get("ts").and_then(|v| v.as_u64()), Some(ts));
        assert_eq!(
            doc.get("artifact").and_then(|v| v.as_str()),
            Some("BENCH_autotune")
        );
        let rec = doc.get("record").expect("record object");
        assert_eq!(rec.get("speedup").and_then(|v| v.as_f64()), Some(1.5));
    }

    #[test]
    fn iso8601_known_instants() {
        assert_eq!(iso8601_utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(iso8601_utc(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(iso8601_utc(1_754_524_800), "2025-08-07T00:00:00Z");
        assert_eq!(iso8601_utc(1_754_524_800 + 3_661), "2025-08-07T01:01:01Z");
    }
}
