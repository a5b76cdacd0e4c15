//! # exa-core — the application-readiness framework
//!
//! This crate encodes the paper's *primary contribution*: not any single
//! code, but the Center of Excellence's quantitative methodology for getting
//! applications ready for an exascale machine (§6):
//!
//! > "Application teams were expected to provide a well-posed challenge
//! > problem and figure of merit (FOM) on Summit and an acceleration plan
//! > for Frontier. The teams then produced mid-project reports ... and a
//! > final report detailing challenge problem results. This quantitative
//! > approach permitted early detection of software bugs and performance
//! > regressions, and enabled continuous assessment of applications against
//! > their stated speed-up targets."
//!
//! The pieces:
//!
//! * [`motif::Motif`] — the porting-motif taxonomy of Table 1;
//! * [`fom`] — figures of merit and measurements;
//! * [`app::Application`] — the contract every mini-app implements: an
//!   FOM and a `run(machine)` entry point for its challenge problem;
//! * [`mod@lessons`] — the §5 lessons registry and the user guide it renders;
//! * [`profiled`] — the span telemetry a profiled run records;
//! * [`scenario`] — the fault/contention scenario engine: deterministic
//!   MTBF failure schedules, checkpoint/restart cost models, stragglers,
//!   network degradation, and the Young/Daly checkpoint-interval theory.

pub mod app;
pub mod fom;
pub mod lessons;
pub mod motif;
pub mod profiled;
pub mod scenario;

pub use app::Application;
pub use fom::{FigureOfMerit, FomMeasurement};
pub use lessons::{lessons, render_user_guide};
pub use motif::Motif;
pub use profiled::{measure_record, perturb_measurement, record_phases, Phase, RunContext};
pub use scenario::{
    best_interval, daly_interval, expected_wall, sweep_intervals, young_interval, CheckpointSpec,
    Injection, NetworkScenario, ScenarioSpec, SweepPoint,
};
