//! Distributed 3-D FFT with Slab and Pencil decompositions (GESTS §3.3).
//!
//! §3.3: "Two variations of the PSDNS algorithm were developed: a *Slabs*
//! 1D- and a *Pencils* 2D-domain decomposition. The *Slabs* version is more
//! efficient because it requires one fewer MPI communication cycle during
//! both the forward and inverse FFT transforms than the *Pencils* version.
//! However, for an N³ problem, the *Slabs* version is limited to N MPI
//! ranks, while the *Pencils* version has a greater upper limit of N² MPI
//! ranks."
//!
//! The math is performed once on the global array (numerically identical to
//! a local [`crate::fft3d::fft3d`]); *time* is the price of the
//! decomposition's [`TransposePlan`]: local FFT stages on each rank's device
//! plus the transpose all-to-alls on the communicator. [`DistFft3d::plan`]
//! builds the plan in closed form — at most two runs of partner volumes
//! per transpose, so its cost does not grow with the rank count — and
//! [`DistFft3d::charge_plan`] prices any plan from its partner counts and
//! byte totals, including the line plan the executed transform runs,
//! whose virtual time it reproduces bit for bit.

use crate::fft1d::fft_flops;
use crate::fft3d::fft3d;
use crate::plan::{Split, Transpose, TransposePlan};
use exa_linalg::C64;
use exa_machine::{DType, GpuModel, KernelProfile, LaunchConfig, SimTime};
use exa_mpi::{Comm, Overlap};

/// Domain decomposition of the N³ grid over ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decomp {
    /// 1-D decomposition into x-planes: ≤ N ranks, one transpose per
    /// transform direction.
    Slabs,
    /// 2-D decomposition into pencils: ≤ N² ranks, two transposes.
    Pencils,
}

impl Decomp {
    /// Maximum usable MPI ranks for an `n³` grid.
    pub fn max_ranks(self, n: usize) -> usize {
        match self {
            Decomp::Slabs => n,
            Decomp::Pencils => n * n,
        }
    }
}

/// Fraction of compute peak FFT butterflies achieve.
const COMPUTE_EFF: f64 = 0.18;

/// A distributed 3-D FFT plan.
#[derive(Debug, Clone)]
pub struct DistFft3d {
    /// Grid size per dimension (N for an N³ problem).
    pub n: usize,
    /// Decomposition.
    pub decomp: Decomp,
    /// Fraction of GPU memory bandwidth an FFT stage achieves (strided
    /// passes keep this below STREAM).
    pub mem_eff: f64,
    /// Pipeline the transposes over this many chunks, overlapping each
    /// chunk's collective with the neighbouring FFT stages' compute
    /// (`None` = blocking transposes, the BSP schedule).
    pub overlap_chunks: Option<usize>,
}

impl DistFft3d {
    /// Plan for an `n³` grid.
    pub fn new(n: usize, decomp: Decomp) -> Self {
        assert!(n >= 2);
        DistFft3d {
            n,
            decomp,
            mem_eff: 0.70,
            overlap_chunks: None,
        }
    }

    /// Pipeline the transposes over `chunks` chunks (at most one per remote
    /// partner of each transpose).
    pub fn with_overlap(mut self, chunks: usize) -> Self {
        assert!(chunks >= 1);
        self.overlap_chunks = Some(chunks);
        self
    }

    /// Validate a rank count against the decomposition limit.
    pub fn supports_ranks(&self, ranks: usize) -> bool {
        ranks >= 1 && ranks <= self.decomp.max_ranks(self.n)
    }

    /// Total complex elements.
    pub fn total_points(&self) -> u64 {
        (self.n as u64).pow(3)
    }

    /// FLOPs of one full 3-D transform (three 1-D passes over every line).
    pub fn transform_flops(&self) -> f64 {
        // n² lines per axis, three axes.
        3.0 * (self.n * self.n) as f64 * fft_flops(self.n)
    }

    /// Kernel profile of one rank's local compute for a full transform.
    fn local_profile(&self, ranks: usize) -> KernelProfile {
        let local_points = (self.total_points() as f64 / ranks as f64).max(1.0);
        let flops = self.transform_flops() / ranks as f64;
        // Three passes read+write the local data each.
        let bytes = 3.0 * 2.0 * local_points * 16.0;
        KernelProfile::new("fft3d_local", LaunchConfig::cover(local_points as u64, 256))
            .flops(flops, DType::C64)
            .bytes(bytes, bytes / 2.0)
            .regs(64)
            .compute_eff(COMPUTE_EFF)
            .mem_eff(self.mem_eff)
    }

    /// Virtual time one rank spends on its local FFT passes of a whole
    /// transform over `ranks` ranks: the kernel plus one launch. A plan's
    /// pass `i` takes `passes[i]` of it.
    pub(crate) fn local_time(&self, gpu: &GpuModel, ranks: usize) -> SimTime {
        gpu.kernel_time(&self.local_profile(ranks)) + gpu.launch_latency
    }

    /// Per-partner payloads of one transpose as seen by `rank`: the rank's
    /// local volume (its share of `total × 16` bytes) repartitioned across
    /// its transpose group. Entry 0 is the share that stays resident (never
    /// crosses the network); entries `1..group` go to the remote partners.
    /// Summing every rank's entries reproduces the full grid payload exactly
    /// — no rounding loss (see the conservation test).
    pub fn transpose_pair_bytes(&self, ranks: usize, group: usize, rank: usize) -> Vec<u64> {
        assert!(group >= 1 && rank < ranks);
        let local_bytes = Split::new(self.total_points() as usize * 16, ranks).count(rank);
        let shares = Split::new(local_bytes, group);
        (0..group).map(|g| shares.count(g) as u64).collect()
    }

    /// The transpose group size for `ranks` ranks: everyone for slabs, a
    /// √p-sized row/column communicator for pencils.
    fn transpose_group(&self, ranks: usize) -> usize {
        match self.decomp {
            Decomp::Slabs => ranks,
            Decomp::Pencils => {
                let group = (ranks as f64).sqrt().round().max(1.0) as usize;
                group.min(ranks)
            }
        }
    }

    /// The closed-form plan of this decomposition on `ranks` ranks. Slabs:
    /// a 2-D FFT stage (2/3 of the work), one global transpose, a 1-D
    /// stage. Pencils: three 1-D stages with two transposes inside
    /// √p-sized row/column groups. Rank 0 carries the remainder shares, so
    /// its schedule paces every transpose. Its remote partners are
    /// [`DistFft3d::transpose_pair_bytes`]`(ranks, group, 0)[1..]`, built
    /// as at most two runs: partners below the split's remainder get one
    /// byte more than the rest.
    pub fn plan(&self, ranks: usize) -> TransposePlan {
        let group = self.transpose_group(ranks);
        let local = Split::new(self.total_points() as usize * 16, ranks).count(0);
        let shares = Split::new(local, group);
        let fat = shares.rem.saturating_sub(1);
        let base = shares.base as u64;
        let t = Transpose::new(group, [(fat, base + 1), (group - 1 - fat, base)]);
        let (passes, transposes) = match self.decomp {
            Decomp::Slabs => (vec![2.0 / 3.0, 1.0 / 3.0], vec![t]),
            Decomp::Pencils => (vec![1.0 / 3.0; 3], vec![t.clone(), t]),
        };
        TransposePlan { passes, transposes }
    }

    /// Charge one forward (or inverse — same cost) transform on `comm`,
    /// with local stages executing on `gpu`. Returns the elapsed span.
    pub fn charge_transform(&self, comm: &mut Comm, gpu: &GpuModel) -> SimTime {
        let ranks = comm.size();
        assert!(
            self.supports_ranks(ranks),
            "{:?} supports at most {} ranks for N={} (got {ranks})",
            self.decomp,
            self.decomp.max_ranks(self.n),
            self.n
        );
        self.charge_plan(comm, gpu, &self.plan(ranks))
    }

    /// Price one transform that runs `plan` on `comm`, with local stages
    /// executing on `gpu`. Returns the elapsed span.
    ///
    /// Overlapped, each transpose is one pipeline over contiguous ranges
    /// `[j·m/k, (j+1)·m/k)` of its `m` partners, each posted as its
    /// partner count and byte total (chunking by partner keeps the
    /// blocking schedule's rounds·α; slicing every payload would re-pay α
    /// per chunk). Its exchanges fly while the pass after it consumes the
    /// previous chunk, and the first transpose also overlaps the pass
    /// before it, which produces its payload chunk by chunk; a later
    /// transpose's payload already exists when its pipeline starts.
    pub fn charge_plan(&self, comm: &mut Comm, gpu: &GpuModel, plan: &TransposePlan) -> SimTime {
        let start = comm.elapsed();
        let local = self.local_time(gpu, comm.size());
        let Some(k) = self.overlap_chunks else {
            comm.advance_all(local * plan.passes[0]);
            for (t, &pass) in plan.transposes.iter().zip(&plan.passes[1..]) {
                let (peers, bytes) = t.totals();
                comm.alltoallv(t.group, peers, bytes);
                comm.advance_all(local * pass);
            }
            return comm.elapsed() - start;
        };
        for (i, (t, &pass)) in plan.transposes.iter().zip(&plan.passes[1..]).enumerate() {
            let m = t.peers();
            let k = k.min(m).max(1);
            let produce = if i == 0 {
                local * plan.passes[0] / k as f64
            } else {
                SimTime::ZERO
            };
            let consume = local * pass / k as f64;
            Overlap::pipeline(
                comm,
                k,
                |c, _| c.advance_all(produce),
                |c, j| {
                    let (peers, bytes) = t.span(j * m / k, (j + 1) * m / k);
                    c.ialltoallv(t.group, peers, bytes)
                },
                |c, _| c.advance_all(consume),
            );
        }
        comm.elapsed() - start
    }

    /// Data-carrying forward transform: computes the true 3-D FFT of the
    /// global array *and* charges the decomposition's cost.
    pub fn forward(&self, comm: &mut Comm, gpu: &GpuModel, data: &mut [C64]) -> SimTime {
        assert_eq!(data.len() as u64, self.total_points());
        fft3d(data, self.n, self.n, self.n);
        self.charge_transform(comm, gpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_machine::MachineModel;
    use exa_mpi::Network;

    fn comm(p: usize) -> Comm {
        Comm::new(p, Network::from_machine(&MachineModel::frontier()))
    }

    fn gpu() -> GpuModel {
        GpuModel::mi250x_gcd()
    }

    #[test]
    fn rank_limits_match_paper() {
        let n = 64;
        assert_eq!(Decomp::Slabs.max_ranks(n), 64);
        assert_eq!(Decomp::Pencils.max_ranks(n), 4096);
        let plan = DistFft3d::new(n, Decomp::Slabs);
        assert_eq!(plan.plan(64).transposes.len(), 1);
        let pencils = DistFft3d::new(n, Decomp::Pencils);
        assert_eq!(pencils.plan(4096).transposes.len(), 2);
        assert!(plan.supports_ranks(64));
        assert!(!plan.supports_ranks(65));
    }

    #[test]
    fn data_path_matches_local_fft() {
        let n = 8;
        let plan = DistFft3d::new(n, Decomp::Pencils);
        let mut c = comm(4);
        let g = gpu();
        let orig: Vec<C64> = (0..n * n * n)
            .map(|i| C64::new((i % 13) as f64 - 6.0, (i % 7) as f64))
            .collect();
        let mut x = orig.clone();
        plan.forward(&mut c, &g, &mut x);

        let mut reference = orig.clone();
        fft3d(&mut reference, n, n, n);
        let err = x
            .iter()
            .zip(&reference)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-10);
    }

    #[test]
    fn slabs_beat_pencils_at_equal_ranks() {
        // §3.3: slabs do one fewer communication cycle, so at a rank count
        // both support, slabs are faster.
        let n = 256;
        let p = 64;
        let slabs = DistFft3d::new(n, Decomp::Slabs);
        let pencils = DistFft3d::new(n, Decomp::Pencils);
        let mut c1 = comm(p);
        let mut c2 = comm(p);
        let t_slab = slabs.charge_transform(&mut c1, &gpu());
        let t_pencil = pencils.charge_transform(&mut c2, &gpu());
        assert!(t_slab < t_pencil, "slabs {t_slab} !< pencils {t_pencil}");
    }

    #[test]
    fn pencils_scale_past_the_slab_limit() {
        // Past N ranks only pencils work — and more ranks still help
        // (at production grid sizes where bandwidth, not latency, rules).
        let n = 1024;
        let pencils = DistFft3d::new(n, Decomp::Pencils);
        let mut small = comm(256);
        let mut large = comm(16384);
        let t_small = pencils.charge_transform(&mut small, &gpu());
        let t_large = pencils.charge_transform(&mut large, &gpu());
        assert!(
            t_large < t_small,
            "scaling out should still win: {t_large} vs {t_small}"
        );
        assert!(!DistFft3d::new(n, Decomp::Slabs).supports_ranks(16384));
    }

    #[test]
    #[should_panic(expected = "supports at most")]
    fn overdecomposition_panics() {
        let plan = DistFft3d::new(16, Decomp::Slabs);
        let mut c = comm(32);
        plan.charge_transform(&mut c, &gpu());
    }

    #[test]
    fn transpose_bytes_are_conserved() {
        // Sum over every rank's pair list == the full grid payload, even for
        // awkward rank/group combinations that don't divide N³ evenly.
        for (n, ranks, group) in [(8, 3, 3), (8, 5, 5), (16, 7, 3), (16, 12, 4), (8, 1, 1)] {
            let plan = DistFft3d::new(n, Decomp::Pencils);
            let payload = plan.total_points() * 16;
            let total: u64 = (0..ranks)
                .flat_map(|r| plan.transpose_pair_bytes(ranks, group, r))
                .sum();
            assert_eq!(total, payload, "n={n} ranks={ranks} group={group}");
        }
    }

    #[test]
    fn overlapped_transform_is_faster_never_slower() {
        let n = 256;
        let p = 64;
        for decomp in [Decomp::Slabs, Decomp::Pencils] {
            let blocking = DistFft3d::new(n, decomp);
            let mut cb = comm(p);
            let t_blocking = blocking.charge_transform(&mut cb, &gpu());
            for k in [1, 2, 4, 8, 32] {
                let mut co = comm(p);
                let t_over = blocking
                    .clone()
                    .with_overlap(k)
                    .charge_transform(&mut co, &gpu());
                assert!(
                    t_over <= t_blocking,
                    "{decomp:?} K={k}: overlapped {t_over} > blocking {t_blocking}"
                );
            }
        }
        // At a compute-heavy scale the chunk clamp leaves room to hide real
        // communication.
        for decomp in [Decomp::Slabs, Decomp::Pencils] {
            let mut co = comm(16);
            DistFft3d::new(512, decomp)
                .with_overlap(4)
                .charge_transform(&mut co, &gpu());
            let eff = co.stats().overlap_efficiency();
            assert!(eff > 0.0 && eff <= 1.0, "{decomp:?} eff {eff}");
        }
    }

    #[test]
    fn overlapped_forward_is_bit_identical_to_blocking() {
        let n = 8;
        let orig: Vec<C64> = (0..n * n * n)
            .map(|i| C64::new((i % 11) as f64 - 5.0, (i % 5) as f64))
            .collect();
        let blocking = DistFft3d::new(n, Decomp::Slabs);
        let overlapped = blocking.clone().with_overlap(4);
        let mut xb = orig.clone();
        let mut xo = orig.clone();
        blocking.forward(&mut comm(4), &gpu(), &mut xb);
        overlapped.forward(&mut comm(4), &gpu(), &mut xo);
        for (a, b) in xb.iter().zip(&xo) {
            assert!(a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits());
        }
    }

    #[test]
    fn transform_flops_match_closed_form() {
        let plan = DistFft3d::new(64, Decomp::Slabs);
        // 3 n² lines · 5 n log2 n = 15 n³ log2 n.
        let expect = 15.0 * 64f64.powi(3) * 6.0;
        assert!((plan.transform_flops() - expect).abs() / expect < 1e-12);
    }
}
