//! Property tests for the communication–computation overlap engine:
//! split-phase requests charge only the residue, the chunked pipeline never
//! loses to the blocking schedule, transposed bytes are conserved exactly,
//! the overlapped FFT is bit-identical to the blocking one, and the
//! critical-path attribution sees the idle segments actually shrink.

use exaready::apps::gests::PsdnsRun;
use exaready::fft::{Decomp, DistFft3d};
use exaready::linalg::C64;
use exaready::machine::{GpuModel, MachineModel, SimTime};
use exaready::mpi::{collectives, Comm, Network, Overlap};
use exaready::telemetry::{rank_attribution, TelemetryCollector, TrackKind};
use proptest::prelude::*;

fn frontier_comm(p: usize) -> Comm {
    Comm::new(p, Network::from_machine(&MachineModel::frontier()))
}

/// Total idle time across the collector's comm-rank tracks.
fn comm_idle(collector: &TelemetryCollector) -> f64 {
    collector.with_timeline(|tl| {
        rank_attribution(tl)
            .iter()
            .filter(|a| a.kind == TrackKind::CommRank.label())
            .map(|a| a.idle_s)
            .sum()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The pipeline is never slower than issuing the same chunks serially,
    /// never faster than its comm-only or compute-only floors, and reports
    /// an overlap efficiency inside [0, 1].
    #[test]
    fn pipeline_bounded_by_serial_and_floors(
        p in 2usize..24,
        chunks in 1usize..12,
        work_us in 1.0f64..2000.0,
        bytes in 1u64..(8u64 << 20),
    ) {
        let work = SimTime::from_micros(work_us);
        // Every rank exchanges `bytes` with each of its p − 1 peers.
        let (peers, total) = (p - 1, bytes * (p as u64 - 1));

        let mut serial = frontier_comm(p);
        for _ in 0..chunks {
            serial.advance_all(work);
            serial.alltoallv(p, peers, total);
        }
        let t_serial = serial.elapsed();

        let mut over = frontier_comm(p);
        let t_over = Overlap::pipeline(
            &mut over,
            chunks,
            |c, _| c.advance_all(work),
            |c, _| c.ialltoallv(p, peers, total),
            |_, _| {},
        );

        prop_assert!(t_over <= t_serial, "overlapped {t_over} > serial {t_serial}");
        let net = Network::from_machine(&MachineModel::frontier());
        let comm_total = collectives::alltoallv_time(&net, peers, total) * chunks as f64;
        let compute_total = work * chunks as f64;
        prop_assert!(
            t_over >= comm_total.max(compute_total),
            "no free lunch: {t_over} < max({comm_total}, {compute_total})"
        );
        let eff = over.stats().overlap_efficiency();
        prop_assert!((0.0..=1.0).contains(&eff), "efficiency {eff} outside [0,1]");
    }

    /// The overlapped transform never loses to the blocking one, for either
    /// decomposition and any chunk count — the internal clamp absorbs
    /// latency-bound configurations.
    #[test]
    fn overlapped_transform_never_slower(
        exp in 1usize..5,
        k in 1usize..24,
        decomp_sel in 0usize..2,
    ) {
        let p = 1usize << (2 * exp); // 4..256, always a square
        let n = 256usize;
        let decomp = if decomp_sel == 0 { Decomp::Slabs } else { Decomp::Pencils };
        let gpu = GpuModel::mi250x_gcd();

        let plan = DistFft3d::new(n, decomp);
        let mut cb = frontier_comm(p);
        let t_blocking = plan.charge_transform(&mut cb, &gpu);

        let mut co = frontier_comm(p);
        let t_over = plan.clone().with_overlap(k).charge_transform(&mut co, &gpu);

        prop_assert!(
            t_over <= t_blocking,
            "{decomp:?} p={p} K={k}: overlapped {t_over} > blocking {t_blocking}"
        );
        let eff = co.stats().overlap_efficiency();
        prop_assert!((0.0..=1.0).contains(&eff));
    }

    /// Transpose payloads are conserved exactly: summing every rank's pair
    /// list reproduces the full grid payload, for arbitrary rank/group
    /// splits that do not divide N³ evenly.
    #[test]
    fn transpose_bytes_conserved(
        n in 4usize..32,
        ranks in 1usize..24,
        group_sel in 1usize..24,
    ) {
        let group = group_sel.min(ranks);
        let plan = DistFft3d::new(n, Decomp::Pencils);
        let payload = plan.total_points() * 16;
        let total: u64 = (0..ranks)
            .flat_map(|r| plan.transpose_pair_bytes(ranks, group, r))
            .sum();
        prop_assert_eq!(total, payload);
    }
}

#[test]
fn overlapped_forward_is_bit_identical() {
    let n = 8;
    let gpu = GpuModel::mi250x_gcd();
    let orig: Vec<C64> = (0..n * n * n)
        .map(|i| C64::new((i % 13) as f64 - 6.0, (i % 7) as f64))
        .collect();
    for decomp in [Decomp::Slabs, Decomp::Pencils] {
        let blocking = DistFft3d::new(n, decomp);
        for k in [1, 2, 4, 8] {
            let mut xb = orig.clone();
            let mut xo = orig.clone();
            blocking.forward(&mut frontier_comm(4), &gpu, &mut xb);
            blocking
                .clone()
                .with_overlap(k)
                .forward(&mut frontier_comm(4), &gpu, &mut xo);
            for (a, b) in xb.iter().zip(&xo) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "{decomp:?} K={k}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "{decomp:?} K={k}");
            }
        }
    }
}

/// The acceptance criterion made executable: the critical-path attribution
/// of the overlapped GESTS step shows strictly less total comm-rank idle
/// than the blocking step (the spans cover the same communication, but the
/// wall they sit in shrinks).
#[test]
fn gests_overlap_strictly_shrinks_comm_idle() {
    let machine = MachineModel::frontier();
    let blocking = PsdnsRun::new(512, 16, Decomp::Slabs);
    let overlapped = blocking.clone().with_overlap(4);

    let cb = TelemetryCollector::shared();
    let tb = blocking.step_time_profiled(&machine, Some(&cb));
    let co = TelemetryCollector::shared();
    let to = overlapped.step_time_profiled(&machine, Some(&co));

    assert!(to < tb, "overlap must strictly help here: {to} vs {tb}");
    let idle_blocking = comm_idle(&cb);
    let idle_overlapped = comm_idle(&co);
    assert!(
        idle_overlapped < idle_blocking,
        "idle must shrink: {idle_overlapped} vs {idle_blocking}"
    );
}

/// Overlap efficiency is a real gauge: visible in the telemetry snapshot
/// after an overlapped run, absent from a purely blocking one.
#[test]
fn overlap_efficiency_gauge_reaches_the_snapshot() {
    let machine = MachineModel::frontier();
    let collector = TelemetryCollector::shared();
    PsdnsRun::new(512, 16, Decomp::Slabs)
        .with_overlap(4)
        .step_time_profiled(&machine, Some(&collector));
    let snap = collector.snapshot();
    let eff = snap.gauges["mpi.overlap_efficiency"];
    assert!(eff > 0.0 && eff <= 1.0, "gauge {eff}");
    assert!(snap.counter("mpi.nonblocking") > 0);

    let blocking = TelemetryCollector::shared();
    PsdnsRun::new(512, 16, Decomp::Slabs).step_time_profiled(&machine, Some(&blocking));
    assert!(
        !blocking
            .snapshot()
            .gauges
            .contains_key("mpi.overlap_efficiency"),
        "blocking runs must not report an overlap gauge"
    );
}
