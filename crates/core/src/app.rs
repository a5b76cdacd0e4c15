//! The application contract.

use crate::fom::{FigureOfMerit, FomMeasurement};
use crate::motif::Motif;
use crate::profiled::{perturb_measurement, record_phases, Phase, RunContext};
use exa_machine::MachineModel;

/// An application under readiness assessment.
///
/// Each of the ten mini-apps in `exa-apps` implements this trait: it names
/// its paper section, declares which Table 1 motifs its port exercised,
/// defines its FOM, and can run its challenge problem on any machine model.
pub trait Application {
    /// Application name as it appears in the paper.
    fn name(&self) -> &'static str;

    /// Paper section describing the application (e.g. "3.2").
    fn paper_section(&self) -> &'static str;

    /// The Table 1 motifs this application's port exercised.
    fn motifs(&self) -> Vec<Motif>;

    /// The project-specific figure of merit.
    fn fom(&self) -> FigureOfMerit;

    /// Run the challenge problem on `machine` with the application's
    /// current (fully optimized) code state and return the measurement.
    fn run(&self, machine: &MachineModel) -> FomMeasurement;

    /// The Summit→Frontier speed-up reported in Table 2, if the application
    /// appears there (LAMMPS and E3SM are discussed but not tabulated).
    fn paper_speedup(&self) -> Option<f64>;

    /// Whether the challenge problem needs GPU nodes (the default); such an
    /// app's [`Application::run`] may panic on a CPU-only machine.
    fn needs_gpus(&self) -> bool {
        true
    }

    /// Measured Summit→Frontier speed-up under this application's FOM.
    fn measure_speedup(&self) -> f64 {
        let summit = self.run(&MachineModel::summit());
        let frontier = self.run(&MachineModel::frontier());
        self.fom().speedup(summit.value, frontier.value)
    }

    /// How this application's challenge wall time decomposes into named
    /// phases — the span breakdown a profiled run records. The default is
    /// one opaque span; every Table 2 app overrides this (or all of
    /// [`Application::run_profiled`]) with its paper-derived breakdown.
    fn profile_phases(&self) -> Vec<Phase> {
        vec![Phase::new("challenge", 1.0)]
    }

    /// Run the challenge problem while recording span telemetry into the
    /// context's collector. The default replays
    /// [`Application::profile_phases`] over the analytic run's wall time
    /// (honoring the context's fault injection and scaling the FOM by the
    /// observed slowdown); apps with genuinely instrumented paths (GESTS,
    /// Pele) override the whole method.
    fn run_profiled(&self, machine: &MachineModel, ctx: &RunContext<'_>) -> FomMeasurement {
        let clean = self.run(machine);
        let track = format!("{}/host", self.name().to_ascii_lowercase());
        let observed = record_phases(ctx, &track, clean.wall, &self.profile_phases());
        let ratio = if clean.wall.is_zero() {
            1.0
        } else {
            observed / clean.wall
        };
        perturb_measurement(clean, self.fom().higher_is_better, ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_machine::SimTime;

    /// A toy app whose FOM is proportional to machine GPU FP64 peak.
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
            let per_gpu = machine.node.gpu().peak_f64;
            FomMeasurement::new(
                machine.name.clone(),
                "1 GPU",
                per_gpu,
                SimTime::from_secs(1.0),
            )
        }
        fn paper_speedup(&self) -> Option<f64> {
            None
        }
    }

    #[test]
    fn default_speedup_uses_summit_and_frontier() {
        let s = ToyApp.measure_speedup();
        // MI250X GCD / V100 FP64 = 23.95 / 7.8 ≈ 3.07.
        assert!(s > 2.9 && s < 3.2, "speedup {s}");
    }
}
