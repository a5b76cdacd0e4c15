//! Porting campaigns and readiness reports.
//!
//! A [`PortingCampaign`] tracks an application across the early-access
//! hardware timeline of §4 (Poplar/Tulip → Spock/Birch → Crusher →
//! Frontier), recording an FOM measurement per stage, and renders the final
//! [`ReadinessReport`] — the COE's "final report detailing challenge problem
//! results" (§6).

use crate::app::Application;
use crate::fom::{FomMeasurement, SpeedupTarget};
use exa_machine::MachineModel;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One stage of a campaign: a machine plus the measurement taken there.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignStage {
    /// Machine the stage ran on.
    pub machine: String,
    /// Deployment year of that machine (orders the timeline).
    pub year: u32,
    /// Measurement taken at this stage.
    pub measurement: FomMeasurement,
    /// Notes (which optimizations landed here).
    pub notes: String,
}

/// A campaign: baseline, early-access stages, final target run.
pub struct PortingCampaign<'a> {
    app: &'a dyn Application,
    target: SpeedupTarget,
    stages: Vec<CampaignStage>,
}

impl<'a> PortingCampaign<'a> {
    /// Start a campaign for `app` against `target`.
    pub fn new(app: &'a dyn Application, target: SpeedupTarget) -> Self {
        PortingCampaign {
            app,
            target,
            stages: Vec::new(),
        }
    }

    /// Run the application's challenge problem on `machine` and record it.
    pub fn run_stage(&mut self, machine: &MachineModel, notes: &str) -> &CampaignStage {
        let measurement = self.app.run(machine);
        self.stages.push(CampaignStage {
            machine: machine.name.clone(),
            year: machine.year,
            measurement,
            notes: notes.to_string(),
        });
        self.stages.last().expect("just pushed")
    }

    /// Run the canonical COE timeline: Summit baseline, each early-access
    /// generation, then Frontier.
    pub fn run_standard_timeline(&mut self) {
        self.run_stage(&MachineModel::summit(), "CUDA baseline (OLCF-5)");
        self.run_stage(
            &MachineModel::poplar(),
            "first HIP port, gen-1 early access",
        );
        self.run_stage(&MachineModel::spock(), "tuning, gen-2 early access");
        self.run_stage(&MachineModel::crusher(), "Frontier-node tuning");
        self.run_stage(&MachineModel::frontier(), "full-scale challenge run");
    }

    /// Produce the final readiness report. Requires at least a baseline and
    /// one later stage.
    pub fn report(&self) -> ReadinessReport {
        assert!(
            self.stages.len() >= 2,
            "a report needs a baseline and at least one later stage"
        );
        let fom = self.app.fom();
        let baseline = &self.stages[0];
        let last = self.stages.last().expect("non-empty");
        let measured = fom.speedup(baseline.measurement.value, last.measurement.value);
        ReadinessReport {
            application: self.app.name().to_string(),
            paper_section: self.app.paper_section().to_string(),
            challenge_problem: self.app.challenge_problem(),
            motifs: self
                .app
                .motifs()
                .iter()
                .map(|m| m.label().to_string())
                .collect(),
            baseline_machine: baseline.machine.clone(),
            final_machine: last.machine.clone(),
            measured_speedup: measured,
            target_factor: self.target.factor,
            target_met: self.target.met_by(measured),
            paper_speedup: self.app.paper_speedup(),
            stages: self.stages.clone(),
        }
    }
}

/// The final report for one application.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReadinessReport {
    /// Application name.
    pub application: String,
    /// Paper section.
    pub paper_section: String,
    /// Challenge-problem description.
    pub challenge_problem: String,
    /// Motif labels exercised.
    pub motifs: Vec<String>,
    /// Baseline machine (stage 0).
    pub baseline_machine: String,
    /// Final machine (last stage).
    pub final_machine: String,
    /// Measured speed-up, baseline → final, FOM-oriented.
    pub measured_speedup: f64,
    /// Stated target factor.
    pub target_factor: f64,
    /// Whether the target was met.
    pub target_met: bool,
    /// Table 2 value, when the application appears there.
    pub paper_speedup: Option<f64>,
    /// Full stage history.
    pub stages: Vec<CampaignStage>,
}

impl fmt::Display for ReadinessReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== Readiness report: {} (§{}) ===",
            self.application, self.paper_section
        )?;
        writeln!(f, "challenge problem : {}", self.challenge_problem)?;
        writeln!(f, "motifs            : {}", self.motifs.join(", "))?;
        for s in &self.stages {
            writeln!(
                f,
                "  [{}] {:<10} FOM {:>12.4e}  ({})",
                s.year, s.machine, s.measurement.value, s.notes
            )?;
        }
        writeln!(
            f,
            "speed-up {} -> {}: {:.2}x (target {:.1}x: {})",
            self.baseline_machine,
            self.final_machine,
            self.measured_speedup,
            self.target_factor,
            if self.target_met { "MET" } else { "NOT MET" }
        )?;
        if let Some(p) = self.paper_speedup {
            writeln!(f, "paper (Table 2)   : {p}x")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fom::{FigureOfMerit, FomMeasurement};
    use crate::motif::Motif;
    use exa_machine::SimTime;

    struct GpuBound;

    impl Application for GpuBound {
        fn name(&self) -> &'static str {
            "GpuBound"
        }
        fn paper_section(&self) -> &'static str {
            "0.0"
        }
        fn motifs(&self) -> Vec<Motif> {
            vec![Motif::CudaHipPorting, Motif::LibraryTuning]
        }
        fn challenge_problem(&self) -> String {
            "node-level FP64 throughput".into()
        }
        fn fom(&self) -> FigureOfMerit {
            FigureOfMerit::throughput("node flops", "FLOP/s")
        }
        fn run(&self, machine: &exa_machine::MachineModel) -> FomMeasurement {
            FomMeasurement::new(
                machine.name.clone(),
                "1 node",
                machine.node.node_peak_f64(),
                SimTime::from_secs(1.0),
            )
        }
        fn paper_speedup(&self) -> Option<f64> {
            Some(4.0)
        }
    }

    #[test]
    fn standard_timeline_produces_five_stages() {
        let app = GpuBound;
        let mut c = PortingCampaign::new(&app, SpeedupTarget::caar());
        c.run_standard_timeline();
        assert_eq!(c.stages.len(), 5);
        // Years are non-decreasing along the timeline.
        let years: Vec<u32> = c.stages.iter().map(|s| s.year).collect();
        assert!(years.windows(2).all(|w| w[0] <= w[1]), "{years:?}");
        let report = c.report();
        assert_eq!(report.baseline_machine, "Summit");
        assert_eq!(report.final_machine, "Frontier");
        // Node flop ratio ≈ 4.1: meets the CAAR 4x target.
        assert!(report.target_met, "speedup {}", report.measured_speedup);
        let paper = report.paper_speedup.unwrap();
        let err = (report.measured_speedup - paper).abs() / paper;
        assert!(err < 0.1, "error vs paper {err}");
    }

    #[test]
    fn report_renders_all_stages() {
        let app = GpuBound;
        let mut c = PortingCampaign::new(&app, SpeedupTarget::caar());
        c.run_standard_timeline();
        let text = format!("{}", c.report());
        for m in ["Summit", "Poplar", "Spock", "Crusher", "Frontier"] {
            assert!(text.contains(m), "missing {m} in report:\n{text}");
        }
        assert!(text.contains("MET"));
    }

    #[test]
    #[should_panic(expected = "baseline")]
    fn report_requires_two_stages() {
        let app = GpuBound;
        let c = PortingCampaign::new(&app, SpeedupTarget::caar());
        let _ = c.report();
    }
}
