//! The regression sentinel: compare the newest ledger entry of a series
//! against a rolling baseline and explain any regression with the span
//! profile diff.
//!
//! This mechanizes the practice behind the paper's Figure 2 (§6): FOMs
//! were recorded continuously and "this quantitative approach permitted
//! early detection of software bugs and performance regressions". The
//! baseline is the *median* of the last 8 prior runs — robust to a single
//! noisy outlier either way — and the verdict bands are the conventional
//! 15% warn / 50% fail.
//!
//! Scenario awareness: records produced under a fault scenario carry a
//! non-empty `scenario` tag. Tagged records never feed the baseline (an
//! MTBF drill is not a performance baseline), and a tagged newest record
//! can at worst [`Verdict::Warn`] — an unlucky run under injected faults
//! is not a code regression.

use crate::critical_path::{diff_profiles, SpanDelta};
use crate::ledger::{FomKind, FomLedger, FomRecord};
use serde::Serialize;

/// Sentinel outcome for one series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Verdict {
    /// Within the warn band of the baseline.
    Pass,
    /// Regressed past the warn threshold but not the fail threshold.
    Warn,
    /// Regressed past the fail threshold.
    Fail,
}

impl Verdict {
    /// Stable lowercase label (`pass` / `warn` / `fail`).
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Warn => "warn",
            Verdict::Fail => "fail",
        }
    }
}

/// How many prior values feed a rolling baseline's median.
const WINDOW: usize = 8;

/// The regression factors at which a rolling-baseline verdict turns to
/// [`Verdict::Warn`] and [`Verdict::Fail`].
struct Bands {
    warn: f64,
    fail: f64,
}

/// The ledger sentinel's bands.
const SENTINEL: Bands = Bands {
    warn: 1.15,
    fail: 1.5,
};

/// The serve-tier SLO sentinel's bands. Wall-clock latency is noisier than
/// the virtual-time FOMs the ledger sentinel watches, so they are wider.
const SLO: Bands = Bands {
    warn: 2.0,
    fail: 4.0,
};

/// Absolute p99 floor, seconds: a newest epoch under it always passes,
/// since any ratio of cache-hit microseconds is measurement noise.
const SLO_FLOOR_S: f64 = 1e-6;

impl Bands {
    /// The one rolling-baseline judge: the regression factor of `newest`
    /// against the window `median`, oriented so that > 1 is always worse,
    /// and the verdict the bands give it.
    fn judge(&self, newest: f64, median: f64, higher_is_better: bool) -> (f64, Verdict) {
        const EPS: f64 = 1e-300;
        let regression = if higher_is_better {
            (median + EPS) / (newest + EPS)
        } else {
            (newest + EPS) / (median + EPS)
        };
        let verdict = if regression >= self.fail {
            Verdict::Fail
        } else if regression >= self.warn {
            Verdict::Warn
        } else {
            Verdict::Pass
        };
        (regression, verdict)
    }
}

/// The sentinel's judgement on one (app, machine, kind) series.
#[derive(Debug, Clone, Serialize)]
pub struct SentinelReport {
    /// Application under judgement.
    pub app: String,
    /// Machine profile.
    pub machine: String,
    /// FOM kind label.
    pub kind: String,
    /// Verdict.
    pub verdict: Verdict,
    /// Newest FOM value.
    pub newest_value: f64,
    /// Baseline FOM value (median of the window).
    pub baseline_value: f64,
    /// Regression factor, oriented so that > 1 is always worse (for
    /// higher-is-better FOMs this is `baseline/newest`).
    pub regression: f64,
    /// Run tag of the newest record.
    pub run_tag: String,
    /// Run tag of the baseline record.
    pub baseline_run_tag: String,
    /// Fault-scenario tag of the newest record (empty = clean run). When
    /// non-empty the verdict has been capped at [`Verdict::Warn`].
    pub scenario: String,
    /// Name of the dominant regressing span from the critical-path diff,
    /// when one grew.
    pub culprit_span: Option<String>,
    /// Top span-profile deltas, worst regression first.
    pub explanation: Vec<SpanDelta>,
}

impl SentinelReport {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        let culprit = match &self.culprit_span {
            Some(c) => format!(" (top regressing span: {c})"),
            None => String::new(),
        };
        let scenario = if self.scenario.is_empty() {
            String::new()
        } else {
            format!(" [scenario: {}]", self.scenario)
        };
        format!(
            "{}: {} {:.3}x vs baseline {} on {}{}{}",
            self.verdict.label(),
            self.app,
            self.regression,
            self.baseline_run_tag,
            self.machine,
            culprit,
            scenario
        )
    }
}

/// The upper median of a non-empty window by `value`. The sort is stable,
/// so among equal values the earlier one (a record's lower `seq`) sorts
/// first and the pick is deterministic.
fn upper_median<T: Copy>(window: &[T], value: impl Fn(T) -> f64) -> T {
    let mut sorted = window.to_vec();
    sorted.sort_by(|a, b| value(*a).total_cmp(&value(*b)));
    sorted[sorted.len() / 2]
}

/// Judge the newest record of one series against the rolling baseline.
/// Returns `None` when the series has no records. A series with a single
/// record is its own baseline and always passes.
pub fn run_sentinel(
    ledger: &FomLedger,
    app: &str,
    machine: &str,
    kind: FomKind,
) -> Option<SentinelReport> {
    let series = ledger.series(app, machine, kind);
    let (newest, priors) = series.split_last()?;
    // Scenario-tagged priors are not baselines: a run that survived an MTBF
    // drill measures the drill, not the code. Fall back to the tagged
    // priors only when the series has no clean history at all.
    let clean_priors: Vec<&FomRecord> = priors
        .iter()
        .copied()
        .filter(|r| r.scenario.is_empty())
        .collect();
    let pool: &[&FomRecord] = if clean_priors.is_empty() {
        priors
    } else {
        &clean_priors
    };
    let baseline = if pool.is_empty() {
        newest
    } else {
        upper_median(&pool[pool.len().saturating_sub(WINDOW)..], |r| r.value)
    };
    let (regression, mut verdict) =
        SENTINEL.judge(newest.value, baseline.value, kind.higher_is_better());
    // An unlucky run is not a code regression: under a fault scenario the
    // sentinel flags, it never gates.
    if !newest.scenario.is_empty() && verdict == Verdict::Fail {
        verdict = Verdict::Warn;
    }
    let mut explanation = diff_profiles(&baseline.span_profile, &newest.span_profile);
    let culprit_span = explanation
        .first()
        .filter(|d| d.delta_s > 0.0)
        .map(|d| d.name.clone());
    explanation.truncate(3);
    Some(SentinelReport {
        app: newest.app.clone(),
        machine: newest.machine.clone(),
        kind: kind.label().to_string(),
        verdict,
        newest_value: newest.value,
        baseline_value: baseline.value,
        regression,
        run_tag: newest.run_tag.clone(),
        baseline_run_tag: baseline.run_tag.clone(),
        scenario: newest.scenario.clone(),
        culprit_span,
        explanation,
    })
}

/// The SLO sentinel's judgement on one query class (one application's
/// serve-tier latency series).
#[derive(Debug, Clone, Serialize)]
pub struct SloReport {
    /// Query class under judgement (the application name the serve tier
    /// labels its latency histograms with).
    pub class: String,
    /// Verdict.
    pub verdict: Verdict,
    /// Newest epoch's p99 latency, seconds.
    pub newest_p99_s: f64,
    /// Rolling-baseline p99 (median of the prior window), seconds.
    pub baseline_p99_s: f64,
    /// Regression factor (latency is lower-is-better, so this is
    /// newest / baseline; > 1 is always worse).
    pub regression: f64,
    /// Prior epochs that fed the baseline.
    pub baseline_epochs: u64,
}

impl SloReport {
    /// One-line human summary naming the culprit query class.
    pub fn summary(&self) -> String {
        format!(
            "{}: serve p99 SLO [{}] {:.3}x vs rolling baseline ({:.3e} s -> {:.3e} s over {} epochs)",
            self.verdict.label(),
            self.class,
            self.regression,
            self.baseline_p99_s,
            self.newest_p99_s,
            self.baseline_epochs
        )
    }
}

/// Judge the newest epoch's p99 latency for one query class against the
/// median of the prior epochs' p99s (the same median-of-window shape as
/// [`run_sentinel`], oriented for lower-is-better latency). With no prior
/// history the newest epoch is its own baseline and passes; so does an
/// epoch whose p99 is under the 1 µs floor.
pub fn check_slo(class: &str, prior_p99s: &[f64], newest_p99: f64) -> SloReport {
    let window = &prior_p99s[prior_p99s.len().saturating_sub(WINDOW)..];
    let baseline = if window.is_empty() {
        newest_p99
    } else {
        upper_median(window, |v| v)
    };
    let (regression, verdict) = SLO.judge(newest_p99, baseline, false);
    let verdict = if newest_p99 < SLO_FLOOR_S {
        Verdict::Pass
    } else {
        verdict
    };
    SloReport {
        class: class.to_string(),
        verdict,
        newest_p99_s: newest_p99,
        baseline_p99_s: baseline,
        regression,
        baseline_epochs: window.len() as u64,
    }
}

/// Judge every series in the ledger; reports come back in series order.
pub fn run_sentinel_all(ledger: &FomLedger) -> Vec<SentinelReport> {
    let mut keys: Vec<(String, String, &'static str)> =
        ledger.records.iter().map(|r| r.series_key()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .filter_map(|(app, machine, kind_label)| {
            let kind = FomKind::from_label(kind_label)?;
            run_sentinel(ledger, &app, &machine, kind)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::digest64;

    fn rec(app: &str, tag: &str, kind: FomKind, value: f64, spans: &[(&str, f64)]) -> FomRecord {
        FomRecord {
            seq: 0,
            app: app.into(),
            machine: "Frontier".into(),
            nodes: 9408,
            kind,
            value,
            units: "u".into(),
            wall_s: 1.0,
            run_tag: tag.into(),
            scenario: String::new(),
            snapshot_digest: digest64(&format!("{app}/{tag}/{value}")),
            span_profile: spans.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn steady_series_passes() {
        let mut l = FomLedger::new();
        for i in 0..5 {
            l.append(rec(
                "A",
                &format!("v{i}"),
                FomKind::Throughput,
                100.0,
                &[("k", 1.0)],
            ));
        }
        let r = run_sentinel(&l, "A", "Frontier", FomKind::Throughput).unwrap();
        assert_eq!(r.verdict, Verdict::Pass);
        assert!((r.regression - 1.0).abs() < 1e-9);
        assert!(
            r.culprit_span.is_none(),
            "nothing regressed: {:?}",
            r.culprit_span
        );
    }

    #[test]
    fn single_record_is_its_own_baseline() {
        let mut l = FomLedger::new();
        l.append(rec("A", "v0", FomKind::Throughput, 100.0, &[]));
        let r = run_sentinel(&l, "A", "Frontier", FomKind::Throughput).unwrap();
        assert_eq!(r.verdict, Verdict::Pass);
        assert_eq!(r.baseline_run_tag, "v0");
    }

    #[test]
    fn empty_series_yields_none() {
        let l = FomLedger::new();
        assert!(run_sentinel(&l, "A", "Frontier", FomKind::Throughput).is_none());
    }

    #[test]
    fn throughput_drop_fails_with_the_culprit_span() {
        let mut l = FomLedger::new();
        for i in 0..4 {
            l.append(rec(
                "A",
                &format!("v{i}"),
                FomKind::Throughput,
                100.0,
                &[("kernel", 0.8), ("comm", 0.2)],
            ));
        }
        // 2x slowdown, driven by the comm span exploding.
        l.append(rec(
            "A",
            "v9",
            FomKind::Throughput,
            50.0,
            &[("kernel", 0.8), ("comm", 1.2)],
        ));
        let r = run_sentinel(&l, "A", "Frontier", FomKind::Throughput).unwrap();
        assert_eq!(r.verdict, Verdict::Fail);
        assert!((r.regression - 2.0).abs() < 1e-9);
        assert_eq!(r.culprit_span.as_deref(), Some("comm"));
        assert_eq!(r.explanation[0].name, "comm");
        assert!(r.summary().contains("fail"));
        assert!(r.summary().contains("comm"));
    }

    #[test]
    fn time_fom_orientation_is_inverted() {
        let mut l = FomLedger::new();
        for i in 0..4 {
            l.append(rec(
                "P",
                &format!("v{i}"),
                FomKind::TimePerCellStep,
                2.0e-9,
                &[],
            ));
        }
        // Time per cell per step *rose* — that's the regression.
        l.append(rec("P", "v9", FomKind::TimePerCellStep, 2.5e-9, &[]));
        let r = run_sentinel(&l, "P", "Frontier", FomKind::TimePerCellStep).unwrap();
        assert_eq!(r.verdict, Verdict::Warn);
        assert!((r.regression - 1.25).abs() < 1e-9);
    }

    #[test]
    fn median_baseline_shrugs_off_one_outlier() {
        let mut l = FomLedger::new();
        l.append(rec("A", "v0", FomKind::Throughput, 100.0, &[]));
        l.append(rec("A", "v1", FomKind::Throughput, 5.0, &[])); // bad day
        l.append(rec("A", "v2", FomKind::Throughput, 100.0, &[]));
        l.append(rec("A", "v3", FomKind::Throughput, 98.0, &[]));
        let r = run_sentinel(&l, "A", "Frontier", FomKind::Throughput).unwrap();
        assert_eq!(
            r.verdict,
            Verdict::Pass,
            "median baseline ignores the outlier"
        );
    }

    #[test]
    fn improvement_never_warns() {
        let mut l = FomLedger::new();
        l.append(rec("A", "v0", FomKind::Throughput, 100.0, &[]));
        l.append(rec("A", "v1", FomKind::Throughput, 300.0, &[]));
        let r = run_sentinel(&l, "A", "Frontier", FomKind::Throughput).unwrap();
        assert_eq!(r.verdict, Verdict::Pass);
        assert!(r.regression < 1.0);
    }

    #[test]
    fn scenario_tagged_regression_warns_instead_of_failing() {
        let mut l = FomLedger::new();
        for i in 0..4 {
            l.append(rec(
                "A",
                &format!("v{i}"),
                FomKind::Throughput,
                100.0,
                &[("k", 1.0)],
            ));
        }
        // Identical 2x slowdowns; only the tag differs.
        let mut unlucky = rec("A", "v9", FomKind::Throughput, 50.0, &[("k", 2.0)]);
        unlucky.scenario = "mtbf-seed42".into();
        let mut tagged = l.clone();
        tagged.append(unlucky);
        let rt = run_sentinel(&tagged, "A", "Frontier", FomKind::Throughput).unwrap();
        assert_eq!(rt.verdict, Verdict::Warn, "unlucky run must not gate");
        assert_eq!(rt.scenario, "mtbf-seed42");
        assert!(rt.summary().contains("[scenario: mtbf-seed42]"));

        l.append(rec("A", "v9", FomKind::Throughput, 50.0, &[("k", 2.0)]));
        let rc = run_sentinel(&l, "A", "Frontier", FomKind::Throughput).unwrap();
        assert_eq!(
            rc.verdict,
            Verdict::Fail,
            "the same slowdown untagged is a regression"
        );
        assert!(rc.scenario.is_empty());
    }

    #[test]
    fn tagged_priors_do_not_poison_the_baseline() {
        let mut l = FomLedger::new();
        l.append(rec("A", "v0", FomKind::Throughput, 100.0, &[]));
        // A string of terrible drill results...
        for i in 0..6 {
            let mut drill = rec("A", &format!("d{i}"), FomKind::Throughput, 20.0, &[]);
            drill.scenario = "mtbf".into();
            l.append(drill);
        }
        // ...then a genuinely regressed clean run. Against the clean
        // baseline (100) this is a 2x fail; against the drill-polluted
        // median (20) it would pass as an improvement.
        l.append(rec("A", "v1", FomKind::Throughput, 50.0, &[]));
        let r = run_sentinel(&l, "A", "Frontier", FomKind::Throughput).unwrap();
        assert_eq!(r.verdict, Verdict::Fail);
        assert_eq!(r.baseline_run_tag, "v0");
    }

    #[test]
    fn slo_flags_p99_regressions_and_names_the_class() {
        let priors = [1.1e-3, 0.9e-3, 1.0e-3, 1.05e-3];
        let steady = check_slo("Pele", &priors, 1.2e-3);
        assert_eq!(steady.verdict, Verdict::Pass);
        assert!(
            (steady.baseline_p99_s - 1.05e-3).abs() < 1e-12,
            "upper median of priors"
        );
        let drilled = check_slo("Pele", &priors, 9.0e-3);
        assert_eq!(drilled.verdict, Verdict::Fail);
        assert!(drilled.regression > SLO.fail);
        assert!(
            drilled.summary().contains("[Pele]"),
            "{}",
            drilled.summary()
        );
        assert!(drilled.summary().contains("fail"));
        let warned = check_slo("Pele", &priors, 2.5e-3);
        assert_eq!(warned.verdict, Verdict::Warn);
    }

    #[test]
    fn slo_floor_and_empty_history_never_flag() {
        // Sub-floor epochs are cache-hit noise: a 100x ratio still passes.
        let noisy = check_slo("CoMet", &[5e-9, 4e-9], 5e-7);
        assert_eq!(noisy.verdict, Verdict::Pass, "below floor_s never flags");
        // First epoch is its own baseline.
        let first = check_slo("CoMet", &[], 3.0);
        assert_eq!(first.verdict, Verdict::Pass);
        assert_eq!(first.baseline_epochs, 0);
        assert!((first.regression - 1.0).abs() < 1e-9);
    }

    #[test]
    fn slo_window_slides_over_old_epochs() {
        // Ancient fast epochs age out of the 8-epoch window; the recent
        // (slower) regime is the baseline, so the newest epoch passes.
        let priors = [
            1e-4, 1e-4, 1e-4, 1e-2, 1.1e-2, 0.9e-2, 1e-2, 1.1e-2, 0.9e-2, 1e-2, 1.1e-2,
        ];
        let r = check_slo("GESTS", &priors, 1.2e-2);
        assert_eq!(r.verdict, Verdict::Pass);
        assert_eq!(r.baseline_epochs, 8);
        assert!((r.baseline_p99_s - 1e-2).abs() < 1e-12);
    }

    #[test]
    fn run_sentinel_all_covers_every_series() {
        let mut l = FomLedger::new();
        l.append(rec("A", "v0", FomKind::Throughput, 100.0, &[]));
        l.append(rec("B", "v0", FomKind::TimePerCellStep, 1e-9, &[]));
        let reports = run_sentinel_all(&l);
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.verdict == Verdict::Pass));
    }
}
