//! Property tests for the fault & contention scenario engine:
//! checkpoint/restart is deterministic — the same scenario seed replays a
//! bit-identical campaign (trace digest, FOM-bearing physics, restart
//! count) at any thread count — and a restart never loses more than one
//! checkpoint interval of work. Plus the golden bits of the
//! `fault_scenarios` experiment's 256-rank Pele drill.

use exaready::apps::pele_exec::{
    chemistry_campaign, chemistry_campaign_under, ChemCampaign, ChemKernel,
};
use exaready::core::{CheckpointSpec, NetworkScenario, ScenarioSpec};
use exaready::machine::SimTime;
use exaready::mpi::RankScheduler;
use exaready::telemetry::TelemetryCollector;
use proptest::prelude::*;

fn small_cfg(ranks: usize, substeps: usize) -> ChemCampaign {
    ChemCampaign {
        ranks,
        cells_per_rank: 3,
        substeps,
        dt: 0.4,
    }
}

/// A scenario with µs-scale checkpoint I/O matched to the campaign's
/// virtual clock, an MTBF sized off the clean wall so failures land, and
/// optional straggler/fabric degradation.
fn drill_scenario(seed: u64, interval: usize, mtbf_frac: f64, clean_wall: SimTime) -> ScenarioSpec {
    let ckpt = CheckpointSpec {
        interval_steps: interval,
        bytes_per_rank: 1 << 18,
        io_alpha_s: 1e-6,
        io_bw: 1.0e14,
        restart_penalty_s: 10e-6,
    };
    ScenarioSpec::named("prop-drill", seed)
        .with_mtbf(SimTime::from_secs(
            (clean_wall.secs() * mtbf_frac).max(1e-9),
        ))
        .with_checkpoint(ckpt)
}

/// The `fault_scenarios` experiment's Pele drill (12 substeps of the
/// 256-rank step, MTBF a sixth of the clean wall, a checkpoint every 3
/// substeps, rank 7 a 1.5× straggler) as a build before the clean and
/// faulted campaign loops were merged ran it: same wall-clock bits, same
/// failures, restarts, checkpoints and lost work, same physics.
#[test]
fn pele_drill_keeps_its_golden_bits() {
    let base = ChemCampaign::pele_step_256();
    let cfg = ChemCampaign {
        substeps: base.substeps * 4,
        ..base
    };
    let sched = RankScheduler::with_threads(4);
    let clean = chemistry_campaign(&sched, ChemKernel::FusedLu, &cfg);
    assert_eq!(clean.elapsed.secs().to_bits(), 0x3f37df54e4b3c945);
    let scen = ScenarioSpec::named("pele-mtbf-drill", 0xfa11)
        .with_mtbf(SimTime::from_secs(clean.elapsed.secs() / 6.0))
        .with_checkpoint(CheckpointSpec {
            interval_steps: 3,
            bytes_per_rank: 1 << 20,
            io_alpha_s: 2e-6,
            io_bw: 1.0e14,
            restart_penalty_s: 25e-6,
        })
        .with_straggler(7, 1.5);
    let r = chemistry_campaign_under(
        &sched,
        ChemKernel::FusedLu,
        &cfg,
        &scen,
        &TelemetryCollector::shared(),
    );
    assert_eq!(r.elapsed.secs().to_bits(), 0x3f551f15ed9f3b21);
    assert_eq!((r.failures, r.restarts, r.checkpoints), (16, 16, 3));
    assert_eq!(r.max_lost_steps, 2);
    assert_eq!(r.checksum.to_bits(), 0x40b7491ea148e762);
    assert_eq!(r.temp_sum.to_bits(), 0x40b0f1952687c9a2);
    assert_eq!(r.newton_total, 119413);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same seed ⇒ bit-identical campaign (physics, wall, restart count,
    /// snapshot and trace digests) at 1 and 4 threads.
    #[test]
    fn same_seed_is_bit_identical_across_thread_counts(
        seed in 0u64..1000,
        interval in 2usize..4,
        mtbf_frac in 0.1f64..0.6,
    ) {
        let cfg = small_cfg(12, 9);
        let clean = chemistry_campaign(&RankScheduler::sequential(), ChemKernel::FusedLu, &cfg);
        let scen = drill_scenario(seed, interval, mtbf_frac, clean.elapsed)
            .with_straggler(5, 1.8)
            .with_network(NetworkScenario::contended(1.4, 1.9, 0.1, seed));
        let one = chemistry_campaign_under(
            &RankScheduler::with_threads(1),
            ChemKernel::FusedLu,
            &cfg,
            &scen,
            &TelemetryCollector::shared(),
        );
        let four = chemistry_campaign_under(
            &RankScheduler::with_threads(4),
            ChemKernel::FusedLu,
            &cfg,
            &scen,
            &TelemetryCollector::shared(),
        );
        prop_assert_eq!(&one, &four, "seed {} diverges across thread counts", seed);
        // And replaying the same seed at the same thread count is identical.
        let again = chemistry_campaign_under(
            &RankScheduler::with_threads(4),
            ChemKernel::FusedLu,
            &cfg,
            &scen,
            &TelemetryCollector::shared(),
        );
        prop_assert_eq!(&four, &again, "seed {} does not replay", seed);
    }

    /// A restart never rolls back more than one checkpoint interval, and
    /// checkpoint/restart never changes the physics.
    #[test]
    fn restart_loses_at_most_one_interval_and_preserves_physics(
        seed in 0u64..1000,
        interval in 1usize..5,
        mtbf_frac in 0.05f64..0.5,
    ) {
        let cfg = small_cfg(10, 10);
        let sched = RankScheduler::sequential();
        let clean = chemistry_campaign(&sched, ChemKernel::FusedLu, &cfg);
        let scen = drill_scenario(seed, interval, mtbf_frac, clean.elapsed);
        let faulted = chemistry_campaign_under(
            &sched,
            ChemKernel::FusedLu,
            &cfg,
            &scen,
            &TelemetryCollector::shared(),
        );
        prop_assert!(
            faulted.max_lost_steps <= interval,
            "seed {}: lost {} steps > interval {}",
            seed,
            faulted.max_lost_steps,
            interval
        );
        prop_assert_eq!(faulted.restarts, faulted.failures);
        prop_assert_eq!(faulted.checksum.to_bits(), clean.checksum.to_bits());
        prop_assert_eq!(faulted.temp_sum.to_bits(), clean.temp_sum.to_bits());
        prop_assert_eq!(faulted.newton_total, clean.newton_total);
        if faulted.failures > 0 {
            prop_assert!(faulted.elapsed > clean.elapsed, "failures must cost wall time");
        }
    }
}
