//! Tuned-equivalence regression: applying the shipped autotuner winners
//! through their env overrides must change no physics bits. The tuned
//! knobs only reorder independent work — gather order, butterfly
//! batching — never a floating-point reduction, so an executed
//! distributed FFT must reproduce the frozen run bit-for-bit,
//! communication tallies included.
//!
//! Lives in its own integration binary: env overrides are process-global,
//! so the frozen and tuned halves must not race other tests.

use exa_fft::{DistGrid, ExecutedFft3d, C64};
use exa_machine::MachineModel;
use exa_mpi::{Comm, Network, RankScheduler};

/// The winners the `autotune` experiment persists (`BENCH_autotune.json`
/// `moved`).
const WINNERS: &[(&str, &str)] = &[
    ("EXA_TUNE_FFT_GATHER", "1"),
    ("EXA_TUNE_FFT_LINE_BATCH", "8"),
    ("EXA_TUNE_FFT_OVERLAP_K", "8"),
];

fn apply(on: bool) {
    for (key, value) in WINNERS {
        if on {
            std::env::set_var(key, value);
        } else {
            std::env::remove_var(key);
        }
    }
}

fn signal(n: usize) -> Vec<C64> {
    (0..n * n * n)
        .map(|i| {
            let mut z = (i as u64).wrapping_add(0x9e3779b97f4a7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            let u = ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64;
            C64::new(2.0 * u - 1.0, 0.5 - u)
        })
        .collect()
}

type Bits = Vec<(u64, u64)>;

fn fft_outcome(n: usize, ranks: usize) -> (Bits, Bits, exa_mpi::CommStats) {
    // `tuned()` resolves the knob table (env first) at construction.
    let plan = ExecutedFft3d::tuned(n);
    let sched = RankScheduler::new();
    let machine = MachineModel::frontier();
    let mut comm = Comm::new(ranks, Network::from_machine(&machine));
    let gpu = machine.node.gpu().clone();
    let mut grid = DistGrid::from_global(n, ranks, &signal(n));
    plan.forward(&sched, &mut comm, &gpu, &mut grid);
    let spectrum: Bits = grid
        .gather_global()
        .iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect();
    plan.inverse(&sched, &mut comm, &gpu, &mut grid);
    let back: Bits = grid
        .gather_global()
        .iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect();
    (spectrum, back, comm.stats())
}

#[test]
fn tuned_winners_change_no_bits() {
    apply(false);
    let frozen_fft = fft_outcome(16, 64);

    apply(true);
    assert_eq!(
        exa_tune::knob("fft.line_batch", 1),
        8,
        "override must be visible"
    );
    let tuned_fft = fft_outcome(16, 64);
    apply(false);

    assert_eq!(
        frozen_fft.0, tuned_fft.0,
        "spectrum bits moved under tuning"
    );
    assert_eq!(
        frozen_fft.1, tuned_fft.1,
        "round-trip bits moved under tuning"
    );
    assert_eq!(
        frozen_fft.2, tuned_fft.2,
        "comm accounting moved under tuning"
    );
}
