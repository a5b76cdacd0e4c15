//! End-to-end determinism contract of the parallel simulation substrate:
//! running the same simulated campaign on 1 pool thread or N must produce
//! byte-identical artifacts — FOM ledger records, telemetry snapshots,
//! Chrome-trace digests, field checksums, comm statistics. The pool only
//! changes wall-clock, never results.

use exaready::apps::gests_exec::{executed_dns_step, DnsStep};
use exaready::apps::pele_exec::{chemistry_campaign, ChemCampaign, ChemKernel};
use exaready::fft::{fft3d, DistGrid, ExecutedFft3d, C64};
use exaready::machine::MachineModel;
use exaready::mpi::{Comm, Network, RankScheduler};
use exaready::telemetry::FomLedger;

fn pele_cfg() -> ChemCampaign {
    ChemCampaign {
        ranks: 64,
        cells_per_rank: 8,
        substeps: 2,
        dt: 0.6,
    }
}

#[test]
fn pele_campaign_artifacts_are_thread_count_invariant() {
    let reference = chemistry_campaign(
        &RankScheduler::sequential(),
        ChemKernel::FusedLu,
        &pele_cfg(),
    );
    for threads in [2, 4] {
        let got = chemistry_campaign(
            &RankScheduler::with_threads(threads),
            ChemKernel::FusedLu,
            &pele_cfg(),
        );
        assert_eq!(
            reference, got,
            "Pele campaign artifacts differ at {threads} threads"
        );
    }
    // The global pool (sized by EXA_THREADS, whatever it is right now)
    // must agree with the sequential reference too — this is what the
    // tier-1 harness exercises under EXA_THREADS=1 and =4.
    let global = chemistry_campaign(&RankScheduler::new(), ChemKernel::FusedLu, &pele_cfg());
    assert_eq!(
        reference, global,
        "global-pool schedule diverges from sequential"
    );
}

#[test]
fn gests_fom_ledger_is_thread_count_invariant() {
    let ledger_json = |threads: usize| {
        let cfg = DnsStep {
            n: 16,
            ranks: 48,
            dt: 1e-3,
            viscosity: 0.04,
        };
        let (result, record) = executed_dns_step(&RankScheduler::with_threads(threads), &cfg);
        let mut ledger = FomLedger::new();
        ledger.append(record);
        (result, ledger.to_json())
    };
    let (r1, l1) = ledger_json(1);
    for threads in [2, 4] {
        let (rn, ln) = ledger_json(threads);
        assert_eq!(r1, rn, "GESTS step result differs at {threads} threads");
        assert_eq!(l1, ln, "FOM ledger JSON differs at {threads} threads");
    }
}

#[test]
fn executed_fft_matches_in_memory_transform_bitwise() {
    let n = 16;
    let mut seed = 0x1234_5678_9abc_def0u64;
    let field: Vec<C64> = (0..n * n * n)
        .map(|_| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let re = ((seed >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            C64::new(re, -re * 0.3)
        })
        .collect();
    let mut reference = field.clone();
    fft3d(&mut reference, n, n, n);

    let machine = MachineModel::frontier();
    let gpu = machine.node.gpu().clone();
    let ranks = 96;
    let sched = RankScheduler::new();
    let mut comm = Comm::new(ranks, Network::from_machine(&machine));
    let mut grid = DistGrid::from_global(n, ranks, &field);
    ExecutedFft3d::new(n).forward(&sched, &mut comm, &gpu, &mut grid);

    let spectrum = grid.gather_global();
    for (i, (a, b)) in spectrum.iter().zip(&reference).enumerate() {
        assert_eq!(a.re.to_bits(), b.re.to_bits(), "re mismatch at {i}");
        assert_eq!(a.im.to_bits(), b.im.to_bits(), "im mismatch at {i}");
    }
    assert!(
        comm.stats().collectives > 0,
        "transposes must be charged to the network"
    );
}

#[test]
fn exec_helpers_ride_the_global_pool() {
    // par_* helpers and the rank scheduler share one thread budget:
    // EXA_THREADS (0 = auto) via the vendored pool.
    assert_eq!(
        RankScheduler::new().threads(),
        exaready::workpool::default_threads()
    );
    assert!(RankScheduler::new().threads() >= 1);
    // A pooled reduction over f64 stays bit-stable however often it runs.
    let data: Vec<f64> = (0..(1 << 16))
        .map(|i| (i % 911) as f64 * 1e-4 - 0.02)
        .collect();
    let first = exaready::hal::exec::par_sum_f64(&data);
    for _ in 0..4 {
        assert_eq!(
            first.to_bits(),
            exaready::hal::exec::par_sum_f64(&data).to_bits()
        );
    }
}
