//! Profiled challenge runs: the bridge between the [`Application`]
//! contract and the telemetry/ledger layer.
//!
//! The paper's methodology (§6) is that every team runs its challenge
//! problem, records the FOM, and keeps the history; `exa-telemetry`'s
//! ledger holds that history. This module supplies the run side: a
//! [`RunContext`] carrying the collector and the [`ScenarioSpec`] the run
//! is perturbed by (clean, or a sentinel drill's injections), a [`Phase`]
//! weight table describing how an application's challenge wall time
//! decomposes, and [`Application::run_profiled`], which replays the
//! decomposition onto a host track and returns the (possibly perturbed)
//! measurement. Apps with real instrumentation (GESTS, Pele) override
//! `run_profiled`; the rest override [`Application::profile_phases`] with
//! their paper-derived breakdown.

use crate::app::Application;
use crate::fom::FomMeasurement;
use crate::scenario::ScenarioSpec;
use exa_machine::{MachineModel, SimTime};
use exa_telemetry::ledger::{digest64, FomKind, FomRecord};
use exa_telemetry::{span_profile, SpanCat, TelemetryCollector, TrackKind};
use std::sync::Arc;

/// How many span names a ledger record's profile keeps.
pub const SPAN_PROFILE_TOP: usize = 16;

/// The scenario of a clean run, borrowed by [`RunContext::new`].
static CLEAN: ScenarioSpec = ScenarioSpec::clean();

/// Everything a profiled run needs beyond the machine model. Carries the
/// collector as an `Arc` reference so instrumented apps can attach it to
/// communicators and streams.
pub struct RunContext<'a> {
    /// Collector the run records into.
    pub telemetry: &'a Arc<TelemetryCollector>,
    /// The scenario the run is perturbed by. Every app honours its
    /// injections ([`ScenarioSpec::stretch`]) and its tag is stamped onto
    /// the ledger record (empty = clean run), so the sentinel can separate
    /// "unlucky run" from "regression". Fault, straggler and network
    /// dynamics are applied by the instrumented apps themselves.
    pub scenario: &'a ScenarioSpec,
}

impl<'a> RunContext<'a> {
    /// A clean profiled run.
    pub fn new(telemetry: &'a Arc<TelemetryCollector>) -> Self {
        Self::for_scenario(telemetry, &CLEAN)
    }

    /// A run under `spec`.
    pub fn for_scenario(telemetry: &'a Arc<TelemetryCollector>, spec: &'a ScenarioSpec) -> Self {
        RunContext {
            telemetry,
            scenario: spec,
        }
    }
}

/// One entry of an application's challenge-wall-time decomposition.
/// Weights are relative; [`record_phases`] normalizes them.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Span name recorded on the timeline.
    pub name: &'static str,
    /// Span category.
    pub cat: SpanCat,
    /// Relative share of the challenge wall time.
    pub weight: f64,
}

impl Phase {
    /// A host-phase entry.
    pub fn new(name: &'static str, weight: f64) -> Phase {
        Phase {
            name,
            cat: SpanCat::Phase,
            weight,
        }
    }

    /// A device-kernel entry.
    pub fn kernel(name: &'static str, weight: f64) -> Phase {
        Phase {
            name,
            cat: SpanCat::Kernel,
            weight,
        }
    }

    /// A collective-communication entry.
    pub fn collective(name: &'static str, weight: f64) -> Phase {
        Phase {
            name,
            cat: SpanCat::Collective,
            weight,
        }
    }
}

/// Replay a weighted phase decomposition of `wall` onto a host track,
/// back-to-back from t = 0, honoring the context's injection. Returns the
/// observed total (equal to `wall` on a clean run, longer under
/// injection).
pub fn record_phases(
    ctx: &RunContext<'_>,
    track_name: &str,
    wall: SimTime,
    phases: &[Phase],
) -> SimTime {
    let total_weight: f64 = phases.iter().map(|p| p.weight).sum();
    if total_weight <= 0.0 {
        return wall;
    }
    let track = ctx.telemetry.track(track_name, TrackKind::Host);
    let mut cursor = SimTime::ZERO;
    for p in phases {
        let clean = SimTime::from_secs(wall.secs() * p.weight / total_weight);
        let observed = SimTime::from_secs(clean.secs() * ctx.scenario.stretch(p.name));
        let end = cursor + observed;
        ctx.telemetry.complete(track, p.name, p.cat, cursor, end);
        cursor = end;
    }
    cursor
}

/// Build the ledger record for one profiled run: FOM metadata from the
/// application, provenance from the snapshot (digest + span profile).
pub fn measure_record(
    app: &dyn Application,
    machine: &MachineModel,
    ctx: &RunContext<'_>,
    run_tag: &str,
) -> FomRecord {
    let measurement = app.run_profiled(machine, ctx);
    let fom = app.fom();
    let snapshot = ctx.telemetry.snapshot();
    let profile = ctx
        .telemetry
        .with_timeline(|tl| span_profile(tl, SPAN_PROFILE_TOP));
    FomRecord {
        seq: 0, // assigned on append
        app: app.name().to_string(),
        machine: machine.name.clone(),
        nodes: machine.nodes,
        kind: FomKind::classify(fom.units, fom.higher_is_better),
        value: measurement.value,
        units: fom.units.to_string(),
        wall_s: measurement.wall.secs(),
        run_tag: run_tag.to_string(),
        scenario: ctx.scenario.tag.clone(),
        snapshot_digest: digest64(&snapshot.to_json()),
        span_profile: profile,
    }
}

/// Scale a clean measurement by an observed/clean wall ratio, respecting
/// the FOM orientation (a slowdown lowers a throughput FOM and raises a
/// time FOM).
pub fn perturb_measurement(
    mut measurement: FomMeasurement,
    higher_is_better: bool,
    ratio: f64,
) -> FomMeasurement {
    if higher_is_better {
        measurement.value /= ratio;
    } else {
        measurement.value *= ratio;
    }
    measurement.wall = SimTime::from_secs(measurement.wall.secs() * ratio);
    measurement
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fom::FigureOfMerit;
    use crate::motif::Motif;

    struct ToyApp;

    impl Application for ToyApp {
        fn name(&self) -> &'static str {
            "Toy"
        }
        fn paper_section(&self) -> &'static str {
            "0.0"
        }
        fn motifs(&self) -> Vec<Motif> {
            vec![Motif::CudaHipPorting]
        }
        fn fom(&self) -> FigureOfMerit {
            FigureOfMerit::throughput("flops", "FLOP/s")
        }
        fn run(&self, machine: &MachineModel) -> FomMeasurement {
            FomMeasurement::new(
                machine.name.clone(),
                "1 node",
                100.0,
                SimTime::from_secs(10.0),
            )
        }
        fn paper_speedup(&self) -> Option<f64> {
            None
        }
        fn profile_phases(&self) -> Vec<Phase> {
            vec![
                Phase::kernel("fma", 0.8),
                Phase::collective("allreduce", 0.2),
            ]
        }
    }

    #[test]
    fn clean_profiled_run_matches_run_and_records_phases() {
        let c = TelemetryCollector::shared();
        let ctx = RunContext::new(&c);
        let m = ToyApp.run_profiled(&MachineModel::frontier(), &ctx);
        assert_eq!(m.value, 100.0);
        assert_eq!(m.wall, SimTime::from_secs(10.0));
        let snap = c.snapshot();
        assert_eq!(snap.spans_total, 2);
        assert_eq!(snap.wall_s, 10.0);
        c.with_timeline(|tl| {
            let spans = tl.tracks()[0].spans();
            assert_eq!(spans[0].name, "fma");
            assert_eq!(spans[0].duration(), SimTime::from_secs(8.0));
            assert_eq!(spans[1].duration(), SimTime::from_secs(2.0));
        });
    }

    #[test]
    fn injection_stretches_the_named_phase_and_degrades_the_fom() {
        let c = TelemetryCollector::shared();
        let spec = ScenarioSpec::clean().with_injection("fma", 2.0);
        let ctx = RunContext::for_scenario(&c, &spec);
        let m = ToyApp.run_profiled(&MachineModel::frontier(), &ctx);
        // 8s -> 16s, total 10 -> 18: ratio 1.8.
        assert!(
            (m.wall.secs() - 18.0).abs() < 1e-9,
            "wall {}",
            m.wall.secs()
        );
        assert!((m.value - 100.0 / 1.8).abs() < 1e-9, "value {}", m.value);
        c.with_timeline(|tl| {
            let spans = tl.tracks()[0].spans();
            assert_eq!(spans[0].duration(), SimTime::from_secs(16.0));
            assert_eq!(spans[1].duration(), SimTime::from_secs(2.0));
        });
    }

    #[test]
    fn measure_record_carries_provenance() {
        let c = TelemetryCollector::shared();
        let ctx = RunContext::new(&c);
        let r = measure_record(&ToyApp, &MachineModel::frontier(), &ctx, "v1-test");
        assert_eq!(r.app, "Toy");
        assert_eq!(r.machine, "Frontier");
        assert_eq!(r.nodes, 9408);
        assert_eq!(r.kind, FomKind::GflopsPerNode);
        assert_eq!(r.run_tag, "v1-test");
        assert_eq!(r.snapshot_digest.len(), 16);
        assert_eq!(r.span_profile.len(), 2);
        assert!((r.span_profile["fma"] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn scenario_context_stamps_the_ledger_record() {
        let c = TelemetryCollector::shared();
        let spec = ScenarioSpec::named("mtbf-drill", 7).with_injection("fma", 2.0);
        let ctx = RunContext::for_scenario(&c, &spec);
        let r = measure_record(&ToyApp, &MachineModel::frontier(), &ctx, "v1-test");
        assert_eq!(r.scenario, "mtbf-drill");
        // A clean context leaves the tag empty.
        let c2 = TelemetryCollector::shared();
        let clean = measure_record(
            &ToyApp,
            &MachineModel::frontier(),
            &RunContext::new(&c2),
            "v",
        );
        assert!(clean.scenario.is_empty());
    }

    #[test]
    fn time_fom_perturbation_raises_the_value() {
        let m = FomMeasurement::new("Frontier", "cfg", 2.0e-9, SimTime::from_secs(1.0));
        let p = perturb_measurement(m, false, 2.0);
        assert!((p.value - 4.0e-9).abs() < 1e-18);
    }
}
