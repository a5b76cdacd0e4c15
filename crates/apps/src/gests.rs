//! GESTS (§3.3) — GPUs for Extreme-Scale Turbulence Simulations.
//!
//! A pseudo-spectral direct numerical simulation (PSDNS) timestep is built
//! almost entirely from distributed 3-D FFTs: transform the velocity field
//! to physical space, form the nonlinear term, transform back, advance in
//! spectral space with dealiasing. The crate-level pieces (`exa-fft`'s
//! slab/pencil [`DistFft3d`], `exa-mpi`'s transpose all-to-alls) do the
//! heavy lifting; this module assembles the timestep, defines the CAAR FOM
//! `N³ / t_wall`, and reproduces the ">5× on 4096 Frontier nodes using
//! 32,768 MPI ranks for the N³ = 32,768³ problem" result.

use crate::calibration::gests as cal;
use exa_core::{
    perturb_measurement, Application, FigureOfMerit, FomMeasurement, Injection, Motif,
    NetworkScenario, RunContext,
};
use exa_fft::{fft3d, ifft3d, Decomp, DistFft3d};
use exa_linalg::C64;
use exa_machine::{GpuArch, MachineModel, SimTime};
use exa_mpi::{Comm, Network};
use exa_telemetry::{SpanCat, TelemetryCollector, TrackKind};
use std::sync::Arc;

/// FFT transforms per PSDNS timestep: 3 velocity components forward + 3
/// nonlinear products backward + 3 more for dealiased advection terms.
pub const TRANSFORMS_PER_STEP: usize = 9;

/// One PSDNS configuration.
#[derive(Debug, Clone)]
pub struct PsdnsRun {
    /// Grid size N (for an N³ problem).
    pub n: usize,
    /// MPI ranks.
    pub ranks: usize,
    /// Decomposition.
    pub decomp: Decomp,
    /// Pipeline the transposes over this many chunks, hiding them behind
    /// the neighbouring FFT stages (`None` = the blocking BSP schedule).
    pub overlap_chunks: Option<usize>,
    /// Degraded-fabric scenario: contention factors applied to the α–β
    /// network view plus seeded per-operation jitter (`None` = calm
    /// fabric). The fault-scenario drills run GESTS under this to exercise
    /// the overlap engine on a congested Slingshot.
    pub net_scenario: Option<NetworkScenario>,
}

impl PsdnsRun {
    /// Validate and build.
    pub fn new(n: usize, ranks: usize, decomp: Decomp) -> Self {
        let plan = DistFft3d::new(n, decomp);
        assert!(plan.supports_ranks(ranks), "invalid decomposition");
        PsdnsRun {
            n,
            ranks,
            decomp,
            overlap_chunks: None,
            net_scenario: None,
        }
    }

    /// Enable transpose/compute overlap with `chunks` pipeline chunks.
    pub fn with_overlap(mut self, chunks: usize) -> Self {
        assert!(chunks >= 1);
        self.overlap_chunks = Some(chunks);
        self
    }

    /// Run on a degraded fabric (contention + seeded jitter).
    pub fn with_network_scenario(mut self, scenario: NetworkScenario) -> Self {
        self.net_scenario = Some(scenario);
        self
    }

    /// Charge one timestep on `machine`, returning its wall time.
    pub fn step_time(&self, machine: &MachineModel) -> SimTime {
        self.step_time_profiled(machine, None)
    }

    /// [`PsdnsRun::step_time`] under observation: the communicator records
    /// every transpose collective on per-rank comm tracks, each distributed
    /// transform becomes a `transform` phase span on a `gests/host` track
    /// (with the closing `spectral_advance` pass), and the communicator's
    /// [`exa_mpi::CommStats`] are poured into the collector's metrics.
    pub fn step_time_profiled(
        &self,
        machine: &MachineModel,
        telemetry: Option<&Arc<TelemetryCollector>>,
    ) -> SimTime {
        self.step_time_observed(machine, telemetry, &[])
    }

    /// [`PsdnsRun::step_time_profiled`] with synthetic fault injections:
    /// phases whose name contains an injection's needle run `factor`×
    /// longer (the extra time charged to every rank, so the recorded spans
    /// and the returned wall time stretch together; matching factors
    /// compose multiplicatively). Used by the regression-sentinel drill in
    /// `fom_ledger` and the scenario engine.
    pub fn step_time_observed(
        &self,
        machine: &MachineModel,
        telemetry: Option<&Arc<TelemetryCollector>>,
        injections: &[Injection],
    ) -> SimTime {
        let mut plan = DistFft3d::new(self.n, self.decomp);
        plan.overlap_chunks = self.overlap_chunks;
        plan.mem_eff = match machine.node.gpu().arch {
            GpuArch::Volta => cal::SUMMIT_MEM_EFF,
            GpuArch::Vega20 => cal::FRONTIER_MEM_EFF * 0.7,
            GpuArch::Cdna1 => cal::FRONTIER_MEM_EFF * 0.85,
            GpuArch::Cdna2 => cal::FRONTIER_MEM_EFF,
        };
        let ranks_per_node = machine.node.gpus_per_node.max(1);
        // §3.3: GPU-Direct MPI arrived with the Frontier port ("OpenMP
        // offloading was used to ... enable GPU-Direct MPI communications");
        // the 2019 CUDA reference staged transposes through host memory.
        let gpu_aware = !matches!(machine.node.gpu().arch, GpuArch::Volta);
        let mut net = Network::from_machine(machine)
            .with_ranks_per_node(ranks_per_node)
            .with_gpu_aware(gpu_aware);
        if let Some(ns) = self.net_scenario {
            net = net.with_contention(ns.alpha_factor, ns.beta_factor);
        }
        let mut comm = Comm::new(self.ranks, net);
        if let Some(ns) = self.net_scenario {
            if ns.jitter_amp > 0.0 {
                comm.set_jitter(ns.jitter_amp, ns.jitter_seed);
            }
        }
        let host = telemetry.map(|c| {
            comm.attach_telemetry(c, "gests/comm");
            c.track("gests/host", TrackKind::Host)
        });
        let gpu = machine.node.gpu();
        let stretch = |name: &str| -> f64 {
            injections
                .iter()
                .filter(|inj| name.contains(inj.needle.as_str()))
                .map(|inj| inj.factor)
                .product()
        };
        for _ in 0..TRANSFORMS_PER_STEP {
            let start = comm.elapsed();
            plan.charge_transform(&mut comm, gpu);
            let extra = stretch("transform") - 1.0;
            if extra > 0.0 {
                comm.advance_all((comm.elapsed() - start) * extra);
            }
            if let (Some(c), Some(tk)) = (telemetry, host) {
                c.complete(tk, "transform", SpanCat::Phase, start, comm.elapsed());
            }
        }
        // Spectral advance + dealiasing: one streaming pass over local data.
        let pass = SimTime::from_secs(
            (self.n as f64).powi(3) * 16.0 / (self.ranks as f64) / (gpu.mem_bw * plan.mem_eff)
                * stretch("spectral_advance"),
        );
        let advance_start = comm.elapsed();
        comm.advance_all(pass);
        if let (Some(c), Some(tk)) = (telemetry, host) {
            c.complete(
                tk,
                "spectral_advance",
                SpanCat::Phase,
                advance_start,
                comm.elapsed(),
            );
            comm.absorb_telemetry();
        }
        comm.elapsed()
    }

    /// The CAAR figure of merit, `N³ / t_wall`, in grid points per second.
    pub fn fom(&self, machine: &MachineModel) -> f64 {
        (self.n as f64).powi(3) / self.step_time(machine).secs()
    }
}

/// Data-carrying mini-PSDNS used by tests and the quickstart example:
/// advances Taylor–Green-like velocity modes with a real spectral step.
pub struct MiniPsdns {
    /// Grid edge (small power of two).
    pub n: usize,
    /// Spectral velocity field (one component, C order).
    pub u_hat: Vec<C64>,
}

impl MiniPsdns {
    /// Initialise with a deterministic smooth field.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two() && n >= 4);
        let mut u: Vec<C64> = (0..n * n * n)
            .map(|idx| {
                let i0 = idx / (n * n);
                let i1 = (idx / n) % n;
                let i2 = idx % n;
                let x = 2.0 * std::f64::consts::PI * i0 as f64 / n as f64;
                let y = 2.0 * std::f64::consts::PI * i1 as f64 / n as f64;
                let z = 2.0 * std::f64::consts::PI * i2 as f64 / n as f64;
                C64::from_re(x.sin() * y.cos() * z.cos())
            })
            .collect();
        fft3d(&mut u, n, n, n);
        MiniPsdns { n, u_hat: u }
    }

    /// Kinetic-energy proxy (Parseval sum over modes).
    pub fn energy(&self) -> f64 {
        self.u_hat.iter().map(|z| z.norm_sqr()).sum::<f64>() / (self.n as f64).powi(3)
    }

    /// One viscous spectral step: transform to physical space, square the
    /// field (nonlinear-term surrogate), transform back, apply viscous decay
    /// and 2/3-rule dealiasing.
    pub fn step(&mut self, dt: f64, nu: f64) {
        let n = self.n;
        let mut phys = self.u_hat.clone();
        ifft3d(&mut phys, n, n, n);
        for z in phys.iter_mut() {
            // Mild quadratic transfer keeps the cascade surrogate stable.
            *z += C64::from_re(0.05 * dt * z.re * z.re);
        }
        fft3d(&mut phys, n, n, n);
        let kmax = (n as f64) / 3.0;
        for (idx, z) in phys.iter_mut().enumerate() {
            let i0 = idx / (n * n);
            let i1 = (idx / n) % n;
            let i2 = idx % n;
            let wave = |i: usize| -> f64 {
                if i <= n / 2 {
                    i as f64
                } else {
                    i as f64 - n as f64
                }
            };
            let k2 = wave(i0).powi(2) + wave(i1).powi(2) + wave(i2).powi(2);
            if wave(i0).abs() > kmax || wave(i1).abs() > kmax || wave(i2).abs() > kmax {
                *z = C64::ZERO; // dealias
            } else {
                *z = z.scale((-nu * k2 * dt).exp()); // viscous decay
            }
        }
        self.u_hat = phys;
    }
}

/// The GESTS application.
#[derive(Debug, Clone, Default)]
pub struct Gests;

impl Gests {
    /// The Summit reference configuration (INCITE 2019: N = 18,432³).
    pub fn summit_reference() -> PsdnsRun {
        PsdnsRun::new(18_432, cal::SUMMIT_NODES as usize * 6, Decomp::Slabs)
    }

    /// The Frontier FOM configuration (§3.3: N = 32,768³, 4,096 nodes,
    /// 32,768 ranks — pencils, since 32,768 ranks ≤ N here slabs would also
    /// fit, but the production choice at this memory footprint is pencils).
    /// The production schedule pipelines the transposes over 8 chunks so
    /// the Slingshot all-to-alls hide behind the FFT stages; the costed
    /// transform time never rises with depth, so 8 is never beaten by 2 or
    /// 4 (`overlap_knob_never_slows_a_step`).
    pub fn frontier_target() -> PsdnsRun {
        PsdnsRun::new(32_768, cal::FRONTIER_NODES as usize * 8, Decomp::Pencils).with_overlap(8)
    }
}

impl Application for Gests {
    fn name(&self) -> &'static str {
        "GESTS"
    }

    fn paper_section(&self) -> &'static str {
        "3.3"
    }

    fn motifs(&self) -> Vec<Motif> {
        vec![Motif::LibraryTuning, Motif::PerformancePortability]
    }

    fn challenge_problem(&self) -> String {
        "PSDNS turbulence: 32,768³ grid on 4,096 Frontier nodes vs the 18,432³ \
         Summit INCITE-2019 reference"
            .into()
    }

    fn fom(&self) -> FigureOfMerit {
        FigureOfMerit::throughput("N³/t_wall", "grid points/s")
    }

    fn run(&self, machine: &MachineModel) -> FomMeasurement {
        // Each machine runs the largest configuration it held in the paper's
        // narrative: the reference problem on Summit, the target problem on
        // Frontier/Crusher-class systems, a scaled-down problem elsewhere.
        let run = match machine.node.gpu().arch {
            GpuArch::Volta => Self::summit_reference(),
            GpuArch::Cdna2 if machine.nodes >= cal::FRONTIER_NODES => Self::frontier_target(),
            _ => PsdnsRun::new(
                4_096,
                (machine.nodes as usize * machine.node.gpus_per_node as usize).min(4_096),
                Decomp::Slabs,
            ),
        };
        let fom = run.fom(machine);
        let overlap = match run.overlap_chunks {
            Some(k) => format!(" overlap={k}"),
            None => String::new(),
        };
        FomMeasurement::new(
            machine.name.clone(),
            format!("N={} p={} {:?}{overlap}", run.n, run.ranks, run.decomp),
            fom,
            run.step_time(machine),
        )
    }

    fn paper_speedup(&self) -> Option<f64> {
        Some(5.0)
    }

    /// GESTS has real instrumentation, so its profiled run replays the
    /// actual PSDNS step on a representative scaled-down configuration
    /// (the challenge problem would register 32,768 comm-rank tracks) and
    /// scales the challenge measurement by the observed stretch.
    fn run_profiled(&self, machine: &MachineModel, ctx: &RunContext<'_>) -> FomMeasurement {
        let rep = PsdnsRun::new(128, 8, Decomp::Slabs).with_overlap(4);
        let t_clean = rep.step_time(machine);
        let t_observed = rep.step_time_observed(machine, Some(ctx.telemetry), &ctx.injections);
        let ratio = if t_clean.is_zero() {
            1.0
        } else {
            t_observed / t_clean
        };
        perturb_measurement(self.run(machine), self.fom().higher_is_better, ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiled_step_records_transforms_and_comm_spans() {
        let collector = TelemetryCollector::shared();
        let run = PsdnsRun::new(64, 8, Decomp::Slabs);
        let machine = MachineModel::frontier();
        let t = run.step_time_profiled(&machine, Some(&collector));
        // Telemetry must not perturb the simulated clock.
        assert_eq!(t, run.step_time(&machine));
        let snap = collector.snapshot();
        let host = snap
            .tracks
            .iter()
            .find(|tr| tr.name == "gests/host")
            .expect("host track");
        assert_eq!(host.spans, TRANSFORMS_PER_STEP as u64 + 1);
        // Every transpose collective lands on all 8 per-rank comm tracks.
        let comm_tracks: Vec<_> = snap
            .tracks
            .iter()
            .filter(|tr| tr.name.starts_with("gests/comm/rank"))
            .collect();
        assert_eq!(comm_tracks.len(), 8);
        assert!(comm_tracks.iter().all(|tr| tr.spans > 0));
        assert!(snap.counter("mpi.collectives") > 0);
        exa_telemetry::validate_chrome_trace(&collector.chrome_trace()).expect("valid trace");
    }

    #[test]
    fn injected_transform_slowdown_stretches_spans_and_degrades_the_fom() {
        let m = MachineModel::frontier();
        let app = Gests;
        let clean_c = TelemetryCollector::shared();
        let clean = app.run_profiled(&m, &RunContext::new(&clean_c));
        let hurt_c = TelemetryCollector::shared();
        let hurt = app.run_profiled(&m, &RunContext::with_injection(&hurt_c, "transform", 2.0));
        assert!(
            hurt.value < clean.value * 0.75,
            "2x transform injection must visibly hurt the FOM: {} vs {}",
            hurt.value,
            clean.value
        );
        // The recorded transform spans stretched; spectral_advance did not.
        let sum_of = |c: &TelemetryCollector, name: &str| {
            c.with_timeline(|tl| {
                tl.tracks()
                    .iter()
                    .flat_map(|t| t.spans())
                    .filter(|s| s.name == name)
                    .map(|s| s.duration().secs())
                    .sum::<f64>()
            })
        };
        let grow = sum_of(&hurt_c, "transform") / sum_of(&clean_c, "transform");
        assert!(
            (grow - 2.0).abs() < 0.05,
            "transform spans must double: {grow}"
        );
        let adv = sum_of(&hurt_c, "spectral_advance") / sum_of(&clean_c, "spectral_advance");
        assert!(
            (adv - 1.0).abs() < 1e-9,
            "untargeted phases must not move: {adv}"
        );
    }

    #[test]
    fn mini_psdns_energy_decays_smoothly() {
        let mut sim = MiniPsdns::new(8);
        let e0 = sim.energy();
        assert!(e0 > 0.0);
        let mut last = e0;
        for _ in 0..5 {
            sim.step(0.01, 0.5);
            let e = sim.energy();
            assert!(e <= last * 1.02, "energy must not blow up: {e} vs {last}");
            assert!(e > 0.0);
            last = e;
        }
        assert!(last < e0, "viscosity must dissipate energy");
    }

    #[test]
    fn dealiasing_zeroes_high_modes() {
        let mut sim = MiniPsdns::new(8);
        sim.step(0.01, 0.1);
        let n = sim.n;
        // Mode (4,0,0) is |k|=4 > 8/3: must be zero.
        let idx = 4 * n * n;
        assert_eq!(sim.u_hat[idx].abs(), 0.0);
    }

    #[test]
    fn fom_improves_in_excess_of_4x_summit_to_frontier() {
        // CAAR target was 4x; the paper measured "in excess of 5x".
        let app = Gests;
        let s = app.measure_speedup();
        assert!(
            s > 4.0,
            "GESTS FOM improvement {s} must beat the CAAR 4x target"
        );
        assert!(
            s > 5.0 && s < 9.0,
            "and land in the 'in excess of 5x' band: {s}"
        );
    }

    #[test]
    fn overlap_knob_never_slows_a_step() {
        let m = MachineModel::frontier();
        let blocking = PsdnsRun::new(512, 16, Decomp::Slabs);
        let overlapped = blocking.clone().with_overlap(4);
        let t_b = blocking.step_time(&m);
        let t_o = overlapped.step_time(&m);
        assert!(t_o <= t_b, "overlapped {t_o} > blocking {t_b}");
        // The production Frontier target ships with the knob on, and it pays.
        let target = Gests::frontier_target();
        assert!(target.overlap_chunks.is_some());
        let mut plain = target.clone();
        plain.overlap_chunks = None;
        assert!(target.step_time(&m) <= plain.step_time(&m));

        // Depth 8 is never beaten by blocking, 2 or 4 on the configurations
        // `Gests::run` places on each GPU machine model.
        let machines = [
            MachineModel::summit(),
            MachineModel::frontier(),
            MachineModel::cori(),
            MachineModel::theta(),
            MachineModel::eagle(),
        ]
        .into_iter()
        .chain(MachineModel::early_access_timeline())
        .filter(|m| m.node.has_gpus());
        for m in machines {
            let scaled_down = PsdnsRun::new(
                4_096,
                (m.nodes as usize * m.node.gpus_per_node as usize).min(4_096),
                Decomp::Slabs,
            );
            for base in [
                Gests::summit_reference(),
                Gests::frontier_target(),
                scaled_down,
            ] {
                let at = |depth: Option<usize>| {
                    let mut run = base.clone();
                    run.overlap_chunks = depth;
                    run.step_time(&m)
                };
                let t8 = at(Some(8));
                for depth in [None, Some(2), Some(4)] {
                    assert!(
                        t8 <= at(depth),
                        "{} N={} p={}: depth 8 {t8} > {depth:?} {}",
                        m.name,
                        base.n,
                        base.ranks,
                        at(depth)
                    );
                }
            }
        }
    }

    #[test]
    fn slabs_vs_pencils_tradeoff_at_scale() {
        // At a rank count both support, slabs win; pencils unlock more ranks.
        let m = MachineModel::frontier();
        let slab = PsdnsRun::new(4096, 2048, Decomp::Slabs);
        let pencil = PsdnsRun::new(4096, 2048, Decomp::Pencils);
        assert!(slab.fom(&m) > pencil.fom(&m));
        let pencil_big = PsdnsRun::new(4096, 16_384, Decomp::Pencils);
        assert!(
            pencil_big.fom(&m) > pencil.fom(&m),
            "pencils must scale past N ranks"
        );
    }

    #[test]
    #[should_panic(expected = "invalid decomposition")]
    fn slabs_cannot_exceed_n_ranks() {
        PsdnsRun::new(1024, 2048, Decomp::Slabs);
    }
}

// ---------------------------------------------------------------------------
// Spectral diagnostics.
// ---------------------------------------------------------------------------

/// Shell-averaged energy spectrum E(k) of a spectral field: bin |û(k)|²
/// into integer wavenumber shells. This is the quantity DNS campaigns (the
/// INCITE runs behind §3.3) actually publish.
pub fn energy_spectrum(u_hat: &[C64], n: usize) -> Vec<f64> {
    assert_eq!(u_hat.len(), n * n * n);
    let kmax = (3.0f64).sqrt() * (n as f64 / 2.0);
    let mut spectrum = vec![0.0f64; kmax.ceil() as usize + 2];
    let wave = |i: usize| -> f64 {
        if i <= n / 2 {
            i as f64
        } else {
            i as f64 - n as f64
        }
    };
    let norm = 1.0 / (n as f64).powi(6);
    for i0 in 0..n {
        for i1 in 0..n {
            for i2 in 0..n {
                let k = (wave(i0).powi(2) + wave(i1).powi(2) + wave(i2).powi(2)).sqrt();
                let shell = k.round() as usize;
                spectrum[shell] += u_hat[(i0 * n + i1) * n + i2].norm_sqr() * norm;
            }
        }
    }
    spectrum
}

#[cfg(test)]
mod spectrum_tests {
    use super::*;

    #[test]
    fn single_mode_concentrates_in_one_shell() {
        let n = 16;
        let mut u = vec![C64::ZERO; n * n * n];
        // Mode k = (3, 0, 0) and its conjugate partner.
        u[3 * n * n] = C64::from_re(1.0);
        u[(n - 3) * n * n] = C64::from_re(1.0);
        let spec = energy_spectrum(&u, n);
        let total: f64 = spec.iter().sum();
        assert!(total > 0.0);
        assert!(spec[3] / total > 0.999, "all energy in shell 3: {spec:?}");
    }

    #[test]
    fn spectrum_total_matches_parseval() {
        let sim = MiniPsdns::new(8);
        let spec = energy_spectrum(&sim.u_hat, 8);
        let total: f64 = spec.iter().sum();
        // energy() uses Σ|û|²/n³; the spectrum is normalised by n⁶, so the
        // physical-space mean-square equals the spectrum sum.
        let energy = sim.energy() / (8f64).powi(3);
        assert!(
            (total - energy).abs() < 1e-12 * energy.max(1e-30),
            "{total} vs {energy}"
        );
    }

    #[test]
    fn viscosity_drains_high_shells_fastest() {
        let mut sim = MiniPsdns::new(16);
        // Excite two shells explicitly.
        let n = 16;
        sim.u_hat[2 * n * n] += C64::from_re(10.0);
        sim.u_hat[6 * n * n] += C64::from_re(10.0);
        let before = energy_spectrum(&sim.u_hat, n);
        for _ in 0..5 {
            sim.step(0.02, 0.8);
        }
        let after = energy_spectrum(&sim.u_hat, n);
        let decay_low = after[2] / before[2].max(1e-300);
        let decay_high = after[6] / before[6].max(1e-300);
        assert!(
            decay_high < decay_low,
            "k=6 must decay faster than k=2: {decay_high} vs {decay_low}"
        );
    }
}
