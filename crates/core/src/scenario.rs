//! The fault & contention scenario engine — simulate the early-access
//! experience, not just the happy path.
//!
//! The paper's four-year readiness arc (§2, §5) was dominated by unstable
//! early-access hardware, node failures at 4 096-node scale, and
//! shared-fabric contention; until this module the simulator modelled none
//! of it. A [`ScenarioSpec`] composes, from one deterministic seed:
//!
//! * **span-stretch injections** ([`Injection`]) — the original sentinel
//!   drill knob, now a list, priced by [`ScenarioSpec::stretch`];
//! * **rank failures with checkpoint/restart** — an MTBF-driven
//!   [`ScenarioSpec::failure_schedule`] of exponential inter-arrival draws,
//!   paired with a [`CheckpointSpec`] whose write/read costs come from an
//!   α–β I/O model (latency + bytes/bandwidth, exactly like the
//!   interconnect charges);
//! * **stragglers** — per-rank clock-skew multipliers applied by
//!   `exa_mpi::RankScheduler`'s deterministic merge;
//! * **network contention & jitter** ([`NetworkScenario`]) — multiplicative
//!   degradation of the fabric's α/β plus seeded per-operation jitter,
//!   applied with the straggler-span switch by [`ScenarioSpec::comm`].
//!
//! Nothing here reads a wall clock or an OS RNG: every draw is a
//! `splitmix64` hash of the scenario seed, so the same spec replays the
//! same failures on any machine at any thread count.
//!
//! The module also carries the checkpoint-interval theory the campaign
//! runner gates on: Young's approximation τ ≈ √(2δM), Daly's refinement,
//! and Daly's expected-completion-time model [`expected_wall`] used to
//! sweep intervals against failure rates.

use exa_machine::SimTime;
use exa_mpi::{Comm, Network};
use serde::Serialize;

/// One span-stretch injection: spans whose name contains `needle` run
/// `factor`× longer. The regression-sentinel drills compose these.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Injection {
    /// Substring matched against span names.
    pub needle: String,
    /// Stretch factor (1.0 is a no-op).
    pub factor: f64,
}

impl Injection {
    /// Build one injection.
    pub fn new(needle: impl Into<String>, factor: f64) -> Self {
        Injection {
            needle: needle.into(),
            factor,
        }
    }
}

/// Checkpoint/restart parameters. Write and read are charged with the same
/// α–β shape the interconnect uses: a per-operation latency plus
/// bytes / bandwidth, per rank against its share of the parallel file
/// system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CheckpointSpec {
    /// Steps between checkpoints (a checkpoint is written after every
    /// `interval_steps`-th step).
    pub interval_steps: usize,
    /// Bytes each rank writes per checkpoint.
    pub bytes_per_rank: u64,
    /// Per-operation file-system latency (the I/O α), seconds.
    pub io_alpha_s: f64,
    /// Effective per-rank file-system bandwidth (the I/O 1/β), bytes/s.
    pub io_bw: f64,
    /// Failure detection + job relaunch latency charged per restart,
    /// seconds (the `fault/` span).
    pub restart_penalty_s: f64,
}

impl CheckpointSpec {
    /// A Frontier/Orion-flavoured spec: ~10 ms open/commit latency and a
    /// 1.25 GB/s per-rank share of the Lustre bandwidth, 5 s of failure
    /// detection + relaunch.
    pub fn orion(interval_steps: usize, bytes_per_rank: u64) -> Self {
        CheckpointSpec {
            interval_steps,
            bytes_per_rank,
            io_alpha_s: 10e-3,
            io_bw: 1.25e9,
            restart_penalty_s: 5.0,
        }
    }

    /// Time to write one checkpoint (all ranks write concurrently, each
    /// charging its own α–β share).
    pub fn write_time(&self) -> SimTime {
        SimTime::from_secs(self.io_alpha_s + self.bytes_per_rank as f64 / self.io_bw)
    }

    /// Time to read one checkpoint back on restart (same α–β charge).
    pub fn read_time(&self) -> SimTime {
        self.write_time()
    }

    /// The fault-detection + relaunch latency as a [`SimTime`].
    pub fn restart_penalty(&self) -> SimTime {
        SimTime::from_secs(self.restart_penalty_s)
    }
}

/// Degraded-fabric model: contention multiplies the α–β parameters
/// (a congested fabric costs more per message *and* per byte), jitter
/// perturbs each operation by a seeded multiplicative draw in
/// `[1, 1 + jitter_amp)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct NetworkScenario {
    /// Multiplier on per-message latency (α), ≥ 1.
    pub alpha_factor: f64,
    /// Multiplier on per-byte cost (β), ≥ 1 — shared-fabric bandwidth loss.
    pub beta_factor: f64,
    /// Per-operation jitter amplitude in `[0, 1)`; 0 disables jitter.
    pub jitter_amp: f64,
    /// Seed of the jitter draw sequence.
    pub jitter_seed: u64,
}

impl NetworkScenario {
    /// A contended fabric: α and β scaled, with seeded jitter.
    pub fn contended(alpha_factor: f64, beta_factor: f64, jitter_amp: f64, seed: u64) -> Self {
        assert!(
            alpha_factor >= 1.0 && beta_factor >= 1.0,
            "contention cannot speed the fabric up"
        );
        assert!(
            (0.0..1.0).contains(&jitter_amp),
            "jitter amplitude must be in [0, 1)"
        );
        NetworkScenario {
            alpha_factor,
            beta_factor,
            jitter_amp,
            jitter_seed: seed,
        }
    }
}

/// One straggler: `rank` runs all its compute `skew`× slower.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct StragglerSpec {
    /// The slow rank.
    pub rank: usize,
    /// Clock-skew multiplier (> 1 is slower).
    pub skew: f64,
}

/// One scheduled rank failure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FailureEvent {
    /// Virtual time at which the rank dies.
    pub at: SimTime,
    /// The failed rank.
    pub rank: usize,
}

/// The failure cap of a named scenario, and of any spec that enables an
/// MTBF without setting one.
const DEFAULT_MAX_FAILURES: usize = 16;

/// A composable fault/contention/elasticity scenario. Everything is
/// derived deterministically from `seed`; the `tag` travels into
/// `FomRecord.scenario` so the regression sentinel can tell an unlucky run
/// from a code regression.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioSpec {
    /// Scenario tag stamped on ledger records (empty = clean run).
    pub tag: String,
    /// Seed of every stochastic ingredient (failures, jitter).
    pub seed: u64,
    /// Span-stretch injections.
    pub injections: Vec<Injection>,
    /// Mean time between rank failures (whole-job MTBF), if faults are on.
    pub mtbf_s: Option<f64>,
    /// Cap on injected failures (a safety valve, not a target).
    pub max_failures: usize,
    /// Checkpoint/restart policy, if any.
    pub checkpoint: Option<CheckpointSpec>,
    /// Straggler ranks.
    pub stragglers: Vec<StragglerSpec>,
    /// Fabric degradation, if any.
    pub network: Option<NetworkScenario>,
}

impl ScenarioSpec {
    /// The happy path: no injections, no faults, calm fabric, empty tag.
    pub const fn clean() -> Self {
        ScenarioSpec {
            tag: String::new(),
            seed: 0,
            injections: Vec::new(),
            mtbf_s: None,
            max_failures: 0,
            checkpoint: None,
            stragglers: Vec::new(),
            network: None,
        }
    }

    /// A named scenario seeded with `seed`.
    pub fn named(tag: impl Into<String>, seed: u64) -> Self {
        ScenarioSpec {
            tag: tag.into(),
            seed,
            max_failures: DEFAULT_MAX_FAILURES,
            ..ScenarioSpec::clean()
        }
    }

    /// Add a span-stretch injection.
    pub fn with_injection(mut self, needle: impl Into<String>, factor: f64) -> Self {
        self.injections.push(Injection::new(needle, factor));
        self
    }

    /// Enable MTBF-driven rank failures. A spec with no failure cap (one
    /// built from [`ScenarioSpec::clean`]) gets the named scenarios' cap,
    /// so the MTBF actually draws failures.
    pub fn with_mtbf(mut self, mtbf: SimTime) -> Self {
        assert!(mtbf > SimTime::ZERO, "MTBF must be positive");
        self.mtbf_s = Some(mtbf.secs());
        if self.max_failures == 0 {
            self.max_failures = DEFAULT_MAX_FAILURES;
        }
        self
    }

    /// Enable checkpoint/restart.
    pub fn with_checkpoint(mut self, spec: CheckpointSpec) -> Self {
        assert!(
            spec.interval_steps >= 1,
            "checkpoint interval must be at least one step"
        );
        self.checkpoint = Some(spec);
        self
    }

    /// Mark `rank` as a straggler running `skew`× slower.
    pub fn with_straggler(mut self, rank: usize, skew: f64) -> Self {
        assert!(skew >= 1.0, "a straggler cannot be faster than nominal");
        self.stragglers.push(StragglerSpec { rank, skew });
        self
    }

    /// Degrade the fabric.
    pub fn with_network(mut self, net: NetworkScenario) -> Self {
        self.network = Some(net);
        self
    }

    /// Stretch factor for a span name: the product of every injection
    /// whose needle the name contains (1.0 when none match).
    pub fn stretch(&self, span_name: &str) -> f64 {
        self.injections
            .iter()
            .filter(|inj| span_name.contains(inj.needle.as_str()))
            .map(|inj| inj.factor)
            .product()
    }

    /// A communicator of `ranks` ranks over `net` as this scenario degrades
    /// it: the fabric's α/β scaled by the [`NetworkScenario`] contention,
    /// its seeded jitter switched on, and `straggler-wait/` spans recorded
    /// when the scenario has stragglers. A clean spec returns exactly
    /// `Comm::new(ranks, net)`.
    pub fn comm(&self, ranks: usize, net: Network) -> Comm {
        let mut comm = match self.network {
            Some(ns) => {
                let mut comm =
                    Comm::new(ranks, net.with_contention(ns.alpha_factor, ns.beta_factor));
                comm.set_jitter(ns.jitter_amp, ns.jitter_seed);
                comm
            }
            None => Comm::new(ranks, net),
        };
        comm.record_straggler_spans(!self.stragglers.is_empty());
        comm
    }

    /// The per-rank clock-skew table for `ranks` ranks (1.0 = nominal),
    /// or `None` when no stragglers are configured.
    pub fn skew_table(&self, ranks: usize) -> Option<Vec<f64>> {
        if self.stragglers.is_empty() {
            return None;
        }
        let mut t = vec![1.0; ranks];
        for s in &self.stragglers {
            if s.rank < ranks {
                t[s.rank] = s.skew;
            }
        }
        Some(t)
    }

    /// The deterministic failure schedule out to `horizon`: exponential
    /// inter-arrival times with mean `mtbf_s`, victims drawn uniformly
    /// over `ranks`, every draw a hash of the scenario seed. An unset
    /// MTBF yields an empty schedule.
    pub fn failure_schedule(&self, ranks: usize, horizon: SimTime) -> Vec<FailureEvent> {
        let Some(mtbf) = self.mtbf_s else {
            return Vec::new();
        };
        let mut events = Vec::new();
        let mut t = 0.0f64;
        let mut i = 0u64;
        while events.len() < self.max_failures {
            let u = unit(splitmix64(
                self.seed.wrapping_add(0x9e37).wrapping_add(i * 2),
            ));
            // Exponential inter-arrival, clamped away from ln(0).
            t += -mtbf * (1.0 - u).max(1e-12).ln();
            if t >= horizon.secs() {
                break;
            }
            let rank = (splitmix64(self.seed.wrapping_add(VICTIM_SALT).wrapping_add(i * 2 + 1))
                % ranks.max(1) as u64) as usize;
            events.push(FailureEvent {
                at: SimTime::from_secs(t),
                rank,
            });
            i += 1;
        }
        events
    }
}

/// Salt separating the victim-rank draw stream from the inter-arrival stream.
const VICTIM_SALT: u64 = 0xda17;

/// SplitMix64 — the one hash every deterministic draw in the scenario
/// engine goes through.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Map a hash to the unit interval `[0, 1)`.
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

// ---------------------------------------------------------------------------
// Checkpoint-interval theory: Young, Daly, and the expected-wall model.
// ---------------------------------------------------------------------------

/// Young's optimal checkpoint interval: τ ≈ √(2 δ M) for checkpoint cost
/// δ and MTBF M.
pub fn young_interval(ckpt: SimTime, mtbf: SimTime) -> SimTime {
    SimTime::from_secs((2.0 * ckpt.secs() * mtbf.secs()).sqrt())
}

/// Daly's first-order refinement: τ ≈ √(2 δ M) − δ (clamped positive).
pub fn daly_interval(ckpt: SimTime, mtbf: SimTime) -> SimTime {
    let y = young_interval(ckpt, mtbf).secs() - ckpt.secs();
    SimTime::from_secs(y.max(ckpt.secs().max(1e-9)))
}

/// Daly's expected completion time for `work` seconds of failure-free
/// compute, checkpointing every `tau`, with checkpoint cost `ckpt`,
/// restart cost `restart`, and exponential failures of mean `mtbf`:
///
/// `E[T] = M · e^{R/M} · (e^{(τ+δ)/M} − 1) · W/τ`
pub fn expected_wall(
    work: SimTime,
    tau: SimTime,
    ckpt: SimTime,
    restart: SimTime,
    mtbf: SimTime,
) -> SimTime {
    let m = mtbf.secs();
    let t = m
        * (restart.secs() / m).exp()
        * ((tau.secs() + ckpt.secs()) / m).exp_m1()
        * (work.secs() / tau.secs());
    SimTime::from_secs(t)
}

/// One point of a checkpoint-interval sweep.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SweepPoint {
    /// Checkpoint interval, seconds.
    pub interval_s: f64,
    /// Expected wall time under failures, seconds.
    pub wall_s: f64,
    /// Achieved / ideal FOM ratio (`work / wall`, ≤ 1).
    pub achieved_over_ideal: f64,
}

/// Sweep `points` checkpoint intervals on a log grid between `2δ` and
/// `4M`, evaluating [`expected_wall`] at each. The returned curve is what
/// the MTBF campaign runner records and gates against [`young_interval`].
pub fn sweep_intervals(
    work: SimTime,
    ckpt: SimTime,
    restart: SimTime,
    mtbf: SimTime,
    points: usize,
) -> Vec<SweepPoint> {
    assert!(points >= 2);
    let lo = (2.0 * ckpt.secs()).max(1e-6);
    let hi = (4.0 * mtbf.secs()).max(lo * 4.0);
    (0..points)
        .map(|i| {
            let f = i as f64 / (points - 1) as f64;
            let tau = lo * (hi / lo).powf(f);
            let wall = expected_wall(work, SimTime::from_secs(tau), ckpt, restart, mtbf);
            SweepPoint {
                interval_s: tau,
                wall_s: wall.secs(),
                achieved_over_ideal: (work.secs() / wall.secs()).min(1.0),
            }
        })
        .collect()
}

/// The interval of the sweep's minimum expected wall time.
pub fn best_interval(sweep: &[SweepPoint]) -> f64 {
    sweep
        .iter()
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .map(|p| p.interval_s)
        .expect("non-empty sweep")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_schedule_is_deterministic_and_bounded() {
        let spec = ScenarioSpec::named("mtbf-drill", 42).with_mtbf(SimTime::from_secs(10.0));
        let a = spec.failure_schedule(256, SimTime::from_secs(100.0));
        let b = spec.failure_schedule(256, SimTime::from_secs(100.0));
        assert_eq!(a, b, "same seed must replay the same failures");
        assert!(
            !a.is_empty(),
            "100 s horizon at 10 s MTBF must fail at least once"
        );
        assert!(a.len() <= spec.max_failures);
        for w in a.windows(2) {
            assert!(w[0].at < w[1].at, "failures must be time-ordered");
        }
        assert!(a.iter().all(|e| e.rank < 256));
        // A different seed reshuffles the schedule.
        let other = ScenarioSpec::named("mtbf-drill", 43)
            .with_mtbf(SimTime::from_secs(10.0))
            .failure_schedule(256, SimTime::from_secs(100.0));
        assert_ne!(a, other);
    }

    #[test]
    fn clean_spec_has_no_failures_or_skew() {
        let spec = ScenarioSpec::clean();
        assert!(spec.injections.is_empty() && spec.network.is_none());
        assert!(spec
            .failure_schedule(64, SimTime::from_secs(1e6))
            .is_empty());
        assert!(spec.skew_table(64).is_none());
    }

    #[test]
    fn injection_list_composes_multiplicatively() {
        let spec = ScenarioSpec::clean()
            .with_injection("fma", 2.0)
            .with_injection("fm", 1.5)
            .with_injection("x", 9.0);
        assert_eq!(spec.stretch("fma"), 3.0, "both needles match fma");
        assert_eq!(spec.stretch("allreduce"), 1.0);
    }

    #[test]
    fn skew_table_marks_only_the_stragglers() {
        let spec = ScenarioSpec::named("slow", 1)
            .with_straggler(3, 2.5)
            .with_straggler(7, 1.5);
        let t = spec.skew_table(8).unwrap();
        assert_eq!(t[3], 2.5);
        assert_eq!(t[7], 1.5);
        assert!(t
            .iter()
            .enumerate()
            .all(|(r, &f)| f == 1.0 || r == 3 || r == 7));
    }

    #[test]
    fn checkpoint_costs_follow_alpha_beta() {
        let small = CheckpointSpec::orion(10, 1 << 20);
        let big = CheckpointSpec::orion(10, 1 << 30);
        assert!(big.write_time() > small.write_time());
        // α floor: even an empty checkpoint pays the latency.
        let empty = CheckpointSpec::orion(10, 0);
        assert!((empty.write_time().secs() - empty.io_alpha_s).abs() < 1e-12);
        assert_eq!(big.read_time(), big.write_time());
    }

    #[test]
    fn young_and_daly_agree_when_checkpoints_are_cheap() {
        let ckpt = SimTime::from_secs(1.0);
        let mtbf = SimTime::from_secs(10_000.0);
        let y = young_interval(ckpt, mtbf);
        let d = daly_interval(ckpt, mtbf);
        assert!((y.secs() - (2.0f64 * 10_000.0).sqrt()).abs() < 1e-9);
        assert!(
            (y.secs() - d.secs() - 1.0).abs() < 1e-9,
            "Daly = Young − δ here"
        );
    }

    #[test]
    fn sweep_minimum_lands_on_young_daly() {
        let work = SimTime::from_secs(86_400.0);
        let ckpt = SimTime::from_secs(60.0);
        let restart = SimTime::from_secs(120.0);
        let mtbf = SimTime::from_secs(7_200.0);
        let sweep = sweep_intervals(work, ckpt, restart, mtbf, 200);
        let best = best_interval(&sweep);
        let young = young_interval(ckpt, mtbf).secs();
        let ratio = best / young;
        assert!(
            (0.75..=1.25).contains(&ratio),
            "empirical optimum {best} vs Young {young} (ratio {ratio})"
        );
        // The curve is a genuine trade-off: both extremes cost more.
        let best_wall = sweep
            .iter()
            .map(|p| p.wall_s)
            .min_by(f64::total_cmp)
            .unwrap();
        assert!(sweep.first().unwrap().wall_s > best_wall * 1.05);
        assert!(sweep.last().unwrap().wall_s > best_wall * 1.05);
        // Achieved FOM can never beat the failure-free ideal.
        assert!(sweep.iter().all(|p| p.achieved_over_ideal <= 1.0 + 1e-12));
    }

    #[test]
    fn expected_wall_grows_with_failure_rate() {
        let work = SimTime::from_secs(3_600.0);
        let tau = SimTime::from_secs(300.0);
        let ckpt = SimTime::from_secs(30.0);
        let r = SimTime::from_secs(60.0);
        let calm = expected_wall(work, tau, ckpt, r, SimTime::from_secs(1e6));
        let stormy = expected_wall(work, tau, ckpt, r, SimTime::from_secs(1e3));
        assert!(stormy > calm);
        assert!(calm >= work, "checkpoint overhead alone keeps E[T] above W");
    }
}
