//! Executed (data-carrying) distributed 3-D FFT on the rank scheduler.
//!
//! [`crate::dist3d::DistFft3d`] prices the GESTS transform at paper scale
//! but performs the math once on a *global* array — ranks never hold their
//! own slice. This module is the executed counterpart: the grid really is
//! distributed (each rank owns a contiguous range of lines), every 1-D FFT
//! runs on the owning rank inside a [`RankScheduler`] compute phase, and
//! the transposes really repartition the data between line layouts. With
//! `p ≤ N²` ranks this executes the *Pencils*-style schedule of §3.3 —
//! every pass transforms complete lines that are local to one rank.
//!
//! Determinism: per-rank work is a pure function of the rank's slice, and
//! the scheduler's virtual-time merge orders clocks and spans by rank, so
//! results, traces and timings are bit-identical at any thread count. The
//! transform itself is bitwise identical to [`crate::fft3d::fft3d`] on the
//! gathered global array (same per-line [`fft`](crate::fft1d::fft) on the
//! same values, axes in the same order) — a property the tests assert with
//! `to_bits`.

use crate::fft1d::{fft_batch, fft_flops, ifft_batch};
use exa_linalg::C64;
use exa_machine::{GpuModel, SimTime};
use exa_mpi::{Comm, RankScheduler};
use exa_telemetry::SpanCat;

/// How a repartition gathers each destination rank's lines. Both
/// strategies move the *same elements to the same places* — the gather is
/// a pure permutation — so they are interchangeable bit for bit; they
/// differ only in address-computation cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GatherStrategy {
    /// The reference: recompute the full coordinate map and owner lookup
    /// per element.
    Element,
    /// Run-hoisted: for a fixed destination line, the source line index
    /// is affine in the destination offset (`sl = sl0 + off·step`,
    /// `step ∈ {1, n}`), so the gather walks whole owner runs with one
    /// owner lookup per run and strided copies inside it. Also reuses
    /// the previous repartition's buffers as scratch (every element is
    /// overwritten, so no zeroing is needed).
    Run,
}

/// Which axis the distributed lines run along. The layout names follow
/// the transform schedule: a pass along axis `a` requires layout
/// `Lines(a)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineAxis {
    /// Lines along `i2` (contiguous in the canonical array); line index
    /// `i0·n + i1`. The initial and final layout.
    Axis2,
    /// Lines along `i1`; line index `i0·n + i2`.
    Axis1,
    /// Lines along `i0`; line index `i1·n + i2`.
    Axis0,
}

impl LineAxis {
    /// `(line, offset)` of global element `(i0, i1, i2)` in this layout.
    fn index(self, n: usize, i0: usize, i1: usize, i2: usize) -> (usize, usize) {
        match self {
            LineAxis::Axis2 => (i0 * n + i1, i2),
            LineAxis::Axis1 => (i0 * n + i2, i1),
            LineAxis::Axis0 => (i1 * n + i2, i0),
        }
    }

    /// Global element `(i0, i1, i2)` at `(line, offset)` of this layout.
    fn coords(self, n: usize, line: usize, off: usize) -> (usize, usize, usize) {
        match self {
            LineAxis::Axis2 => (line / n, line % n, off),
            LineAxis::Axis1 => (line / n, off, line % n),
            LineAxis::Axis0 => (off, line / n, line % n),
        }
    }
}

/// Contiguous near-equal split of `total` lines over `ranks`: the first
/// `total % ranks` ranks get one extra line.
#[derive(Debug, Clone, Copy)]
struct LineSplit {
    base: usize,
    rem: usize,
}

impl LineSplit {
    fn new(total: usize, ranks: usize) -> Self {
        LineSplit {
            base: total / ranks,
            rem: total % ranks,
        }
    }

    fn start(&self, rank: usize) -> usize {
        rank * self.base + rank.min(self.rem)
    }

    fn count(&self, rank: usize) -> usize {
        self.base + usize::from(rank < self.rem)
    }

    fn owner(&self, line: usize) -> usize {
        let fat = self.rem * (self.base + 1);
        if line < fat {
            line / (self.base + 1)
        } else {
            self.rem + (line - fat) / self.base
        }
    }
}

/// An `n³` complex grid distributed over ranks as lines along one axis.
#[derive(Debug, Clone)]
pub struct DistGrid {
    n: usize,
    axis: LineAxis,
    /// `parts[r]` holds rank `r`'s lines back to back, `n` points each.
    parts: Vec<Vec<C64>>,
    /// Retired buffers from the previous repartition, reused as the next
    /// destination under [`GatherStrategy::Run`]. The per-rank split
    /// depends only on `(n², ranks)`, so the shapes always match, and
    /// the gather overwrites every element, so stale contents are
    /// harmless. Never read as data.
    scratch: Vec<Vec<C64>>,
}

impl DistGrid {
    /// Scatter a canonical-order (`data[(i0·n + i1)·n + i2]`) global array
    /// into the initial [`LineAxis::Axis2`] layout over `ranks` ranks.
    /// Requires `2 ≤ ranks ≤ n²` so every pass keeps whole lines local.
    pub fn from_global(n: usize, ranks: usize, data: &[C64]) -> Self {
        assert_eq!(data.len(), n * n * n, "global array must be n^3");
        assert!(ranks >= 1 && ranks <= n * n, "need 1 <= ranks <= n^2");
        let split = LineSplit::new(n * n, ranks);
        let parts = (0..ranks)
            .map(|r| {
                let (s, c) = (split.start(r), split.count(r));
                data[s * n..(s + c) * n].to_vec()
            })
            .collect();
        DistGrid {
            n,
            axis: LineAxis::Axis2,
            parts,
            scratch: Vec::new(),
        }
    }

    /// Grid size per dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Ranks holding the grid.
    pub fn ranks(&self) -> usize {
        self.parts.len()
    }

    /// Current line layout.
    pub fn axis(&self) -> LineAxis {
        self.axis
    }

    /// Mutable access to the per-rank line slices, for executed kernels
    /// (e.g. a spectral advance) that transform the distributed data in
    /// place between FFT passes.
    pub fn parts_mut(&mut self) -> &mut [Vec<C64>] {
        &mut self.parts
    }

    /// Reassemble the global array in canonical order from whatever
    /// layout the grid is currently in.
    pub fn gather_global(&self) -> Vec<C64> {
        let n = self.n;
        let split = LineSplit::new(n * n, self.parts.len());
        let mut out = vec![C64::ZERO; n * n * n];
        for (r, part) in self.parts.iter().enumerate() {
            let start = split.start(r);
            for (li, line) in part.chunks(n).enumerate() {
                for (off, &v) in line.iter().enumerate() {
                    let (i0, i1, i2) = self.axis.coords(n, start + li, off);
                    out[(i0 * n + i1) * n + i2] = v;
                }
            }
        }
        out
    }
}

/// The executed distributed 3-D FFT plan.
#[derive(Debug, Clone)]
pub struct ExecutedFft3d {
    /// Grid size per dimension.
    pub n: usize,
    /// Fraction of vector-FP64 peak the line FFTs achieve (matches the
    /// costed plan's strided-pass efficiency).
    pub compute_eff: f64,
    /// Repartition gather strategy.
    gather: GatherStrategy,
}

impl ExecutedFft3d {
    /// The reference plan for an `n³` grid: the per-element gather into
    /// fresh buffers. Tests and benchmarks compare the production plan
    /// against it.
    pub fn new(n: usize) -> Self {
        Self::with_gather(n, GatherStrategy::Element)
    }

    /// The production plan: the run-hoisted gather with scratch reuse.
    /// Bit-identical to [`ExecutedFft3d::new`] on every output, virtual
    /// clock and communication tally.
    pub fn tuned(n: usize) -> Self {
        Self::with_gather(n, GatherStrategy::Run)
    }

    fn with_gather(n: usize, gather: GatherStrategy) -> Self {
        assert!(n >= 2);
        ExecutedFft3d {
            n,
            compute_eff: 0.10,
            gather,
        }
    }

    /// Virtual time one rank spends transforming `lines` local lines.
    fn pass_time(&self, gpu: &GpuModel, lines: usize) -> SimTime {
        SimTime::from_secs(lines as f64 * fft_flops(self.n) / (gpu.peak_f64 * self.compute_eff))
    }

    /// One line-FFT pass over the layout the grid is currently in.
    fn fft_pass(
        &self,
        sched: &RankScheduler,
        comm: &mut Comm,
        gpu: &GpuModel,
        grid: &mut DistGrid,
        inverse: bool,
    ) {
        let n = self.n;
        let span = match (grid.axis, inverse) {
            (LineAxis::Axis2, false) => "fft_lines_axis2",
            (LineAxis::Axis1, false) => "fft_lines_axis1",
            (LineAxis::Axis0, false) => "fft_lines_axis0",
            (LineAxis::Axis2, true) => "ifft_lines_axis2",
            (LineAxis::Axis1, true) => "ifft_lines_axis1",
            (LineAxis::Axis0, true) => "ifft_lines_axis0",
        };
        sched.compute_phase(comm, &mut grid.parts, |ctx, part| {
            // One batched call over the rank's whole slice: bit-identical
            // to per-line transforms.
            if inverse {
                ifft_batch(part, n);
            } else {
                fft_batch(part, n);
            }
            ctx.span(span, SpanCat::Kernel, self.pass_time(gpu, part.len() / n));
        });
    }

    /// Repartition the grid into `to`-layout lines: every destination rank
    /// gathers its lines positionally from the source layout (a pure
    /// permutation — no arithmetic touches the values), and the transpose
    /// is charged as the all-to-all its actual per-peer volumes imply.
    fn repartition(
        &self,
        sched: &RankScheduler,
        comm: &mut Comm,
        grid: &mut DistGrid,
        to: LineAxis,
    ) {
        let n = self.n;
        let ranks = grid.ranks();
        let split = LineSplit::new(n * n, ranks);
        let from = grid.axis;
        let src = std::mem::take(&mut grid.parts);
        let mut dst: Vec<Vec<C64>> = match self.gather {
            // Reference: fresh zeroed buffers every repartition.
            GatherStrategy::Element => (0..ranks)
                .map(|r| vec![C64::ZERO; split.count(r) * n])
                .collect(),
            // Production: reuse the previous repartition's retired buffers —
            // shapes depend only on (n², ranks), and the gather writes
            // every element, so neither zeroing nor reallocation is
            // needed after the first use.
            GatherStrategy::Run => {
                let scr = std::mem::take(&mut grid.scratch);
                if scr.len() == ranks
                    && scr
                        .iter()
                        .enumerate()
                        .all(|(r, v)| v.len() == split.count(r) * n)
                {
                    scr
                } else {
                    (0..ranks)
                        .map(|r| vec![C64::ZERO; split.count(r) * n])
                        .collect()
                }
            }
        };
        let src_ref = &src;
        let gather = self.gather;
        sched.compute_phase(comm, &mut dst, |ctx, buf| {
            let d = ctx.rank();
            match gather {
                GatherStrategy::Element => {
                    let start = split.start(d);
                    for li in 0..split.count(d) {
                        for off in 0..n {
                            let (i0, i1, i2) = to.coords(n, start + li, off);
                            let (sl, so) = from.index(n, i0, i1, i2);
                            let s = split.owner(sl);
                            buf[li * n + off] = src_ref[s][(sl - split.start(s)) * n + so];
                        }
                    }
                }
                GatherStrategy::Run => gather_runs(n, &split, from, to, src_ref, d, buf),
            }
        });
        // Per-peer transpose volume, measured on rank 0's actual reads
        // (the split is near-uniform, so rank 0 is representative).
        let mut peer_bytes = vec![0u64; ranks - 1];
        for li in 0..split.count(0) {
            for off in 0..n {
                let (i0, i1, i2) = to.coords(n, li, off);
                let (sl, _) = from.index(n, i0, i1, i2);
                let s = split.owner(sl);
                if s != 0 {
                    peer_bytes[s - 1] += std::mem::size_of::<C64>() as u64;
                }
            }
        }
        comm.alltoallv(&peer_bytes);
        if self.gather == GatherStrategy::Run {
            grid.scratch = src;
        }
        grid.parts = dst;
        grid.axis = to;
    }

    /// Forward transform in place: three line passes (axes 2, 1, 0 — the
    /// same order as [`crate::fft3d::fft3d`]) with a repartition between
    /// passes. The grid must be in the initial layout; it finishes in
    /// [`LineAxis::Axis0`]. Returns the virtual time the transform took.
    pub fn forward(
        &self,
        sched: &RankScheduler,
        comm: &mut Comm,
        gpu: &GpuModel,
        grid: &mut DistGrid,
    ) -> SimTime {
        assert_eq!(grid.n, self.n);
        assert_eq!(
            grid.ranks(),
            comm.size(),
            "one communicator rank per grid rank"
        );
        assert_eq!(
            grid.axis,
            LineAxis::Axis2,
            "forward starts from the initial layout"
        );
        let t0 = comm.elapsed();
        self.fft_pass(sched, comm, gpu, grid, false);
        self.repartition(sched, comm, grid, LineAxis::Axis1);
        self.fft_pass(sched, comm, gpu, grid, false);
        self.repartition(sched, comm, grid, LineAxis::Axis0);
        self.fft_pass(sched, comm, gpu, grid, false);
        comm.elapsed() - t0
    }

    /// Drive the grid through one full repartition cycle — the transpose
    /// (all-to-all) phase of the transform with the butterfly passes
    /// skipped: initial → axis 1 → axis 0 → axis 1 → initial. Every hop
    /// is a pure permutation, so the grid returns to its starting layout
    /// bit-for-bit; what remains is exactly the data movement the gather
    /// strategy governs, the way the transpose benchmarks of
    /// production FFT libraries isolate their all-to-all phase. Returns
    /// the virtual time the cycle took.
    pub fn transpose_cycle(
        &self,
        sched: &RankScheduler,
        comm: &mut Comm,
        grid: &mut DistGrid,
    ) -> SimTime {
        assert_eq!(grid.n, self.n);
        assert_eq!(
            grid.ranks(),
            comm.size(),
            "one communicator rank per grid rank"
        );
        assert_eq!(
            grid.axis,
            LineAxis::Axis2,
            "the cycle starts from the initial layout"
        );
        let t0 = comm.elapsed();
        self.repartition(sched, comm, grid, LineAxis::Axis1);
        self.repartition(sched, comm, grid, LineAxis::Axis0);
        self.repartition(sched, comm, grid, LineAxis::Axis1);
        self.repartition(sched, comm, grid, LineAxis::Axis2);
        comm.elapsed() - t0
    }

    /// Inverse transform in place, unwinding the forward schedule (axis 0
    /// first, back to the initial layout). `inverse(forward(x)) = x` up to
    /// rounding. Returns the virtual time the transform took.
    pub fn inverse(
        &self,
        sched: &RankScheduler,
        comm: &mut Comm,
        gpu: &GpuModel,
        grid: &mut DistGrid,
    ) -> SimTime {
        assert_eq!(grid.n, self.n);
        assert_eq!(
            grid.ranks(),
            comm.size(),
            "one communicator rank per grid rank"
        );
        assert_eq!(
            grid.axis,
            LineAxis::Axis0,
            "inverse starts where forward finished"
        );
        let t0 = comm.elapsed();
        self.fft_pass(sched, comm, gpu, grid, true);
        self.repartition(sched, comm, grid, LineAxis::Axis1);
        self.fft_pass(sched, comm, gpu, grid, true);
        self.repartition(sched, comm, grid, LineAxis::Axis2);
        self.fft_pass(sched, comm, gpu, grid, true);
        comm.elapsed() - t0
    }
}

/// Run-hoisted gather of destination rank `d`'s lines
/// ([`GatherStrategy::Run`]). For every layout transition the schedule
/// performs, the source line index is affine in the destination offset:
/// `sl = sl0 + off·step` with `step ∈ {1, n}` and the source offset
/// constant along the line. That collapses the per-element coordinate
/// map + owner division into one probe per line (or line segment) and a
/// strided copy per owner run.
fn gather_runs(
    n: usize,
    split: &LineSplit,
    from: LineAxis,
    to: LineAxis,
    src: &[Vec<C64>],
    d: usize,
    buf: &mut [C64],
) {
    let start = split.start(d);
    let count = split.count(d);
    if count == 0 {
        return;
    }
    let probe = |line: usize, off: usize| {
        let (i0, i1, i2) = to.coords(n, line, off);
        from.index(n, i0, i1, i2)
    };
    let (sl00, _) = probe(start, 0);
    let (sl01, _) = probe(start, 1);
    let off_step = sl01 - sl00;
    if off_step == 1 {
        // Source lines advance with the destination offset, and within
        // one `line / n` block the source line is independent of the
        // destination line while the source offset advances with it
        // (both such transitions map `(l, o)` to source `(sl0 + o,
        // so0 + l - l0)`). Each owner run is therefore a dense
        // `len × seg` transpose — `src[base + j·n + lj] → buf[(li0+lj)·n
        // + o + j]` — walked in 8×8 tiles so both sides use whole cache
        // lines instead of paying one miss per element.
        let mut l0 = start;
        let l_end = start + count;
        while l0 < l_end {
            let seg_end = ((l0 / n + 1) * n).min(l_end);
            let seg = seg_end - l0;
            let (sl0, so0) = probe(l0, 0);
            let li0 = l0 - start;
            let mut sl = sl0;
            let mut o = 0;
            while o < n {
                let s = split.owner(sl);
                let s_start = split.start(s);
                let len = (s_start + split.count(s) - sl).min(n - o);
                let srow = &src[s];
                let base = (sl - s_start) * n + so0;
                const T: usize = 8;
                let mut j0 = 0;
                while j0 < len {
                    let j1 = (j0 + T).min(len);
                    let mut lj0 = 0;
                    while lj0 < seg {
                        let lj1 = (lj0 + T).min(seg);
                        for j in j0..j1 {
                            let sb = base + j * n;
                            let db = (li0 + lj0) * n + o + j;
                            for (k, lj) in (lj0..lj1).enumerate() {
                                buf[db + k * n] = srow[sb + lj];
                            }
                        }
                        lj0 = lj1;
                    }
                    j0 = j1;
                }
                o += len;
                sl += len;
            }
            l0 = seg_end;
        }
    } else if split.rem == 0
        && split.base <= n
        && n.is_multiple_of(split.base)
        && probe(start, 0).0.is_multiple_of(split.base)
    {
        // Uniform split whose per-rank line count divides `n`: every
        // owner run along the destination lines starts at a rank
        // boundary and spans the whole segment, for every offset. Walk
        // offsets in tiles of 8 so destination writes land 8-contiguous
        // per line (the strided source reads are inherent to this
        // transition — no destination-local order can make them dense).
        let base_lines = split.base;
        let mut l0 = start;
        let l_end = start + count;
        while l0 < l_end {
            let seg_end = ((l0 / n + 1) * n).min(l_end);
            let seg = seg_end - l0;
            let (sl_base, so) = probe(l0, 0);
            let li0 = l0 - start;
            const T: usize = 8;
            let mut o0 = 0;
            while o0 < n {
                let o1 = (o0 + T).min(n);
                // Per-offset source run bases for this tile of offsets.
                let mut bases = [(0usize, 0usize); T];
                for (k, off) in (o0..o1).enumerate() {
                    let sl = sl_base + off * off_step;
                    let s = sl / base_lines;
                    bases[k] = (s, (sl - split.start(s)) * n + so);
                }
                for j in 0..seg {
                    let db = (li0 + j) * n + o0;
                    for (k, &(s, b)) in bases[..o1 - o0].iter().enumerate() {
                        buf[db + k] = src[s][b + j * n];
                    }
                }
                o0 = o1;
            }
            l0 = seg_end;
        }
    } else {
        // Source lines jump by `n` per offset but advance by 1 per
        // destination line — as long as the lines share `line / n`.
        // Segment at those boundaries (unaligned splits cross them),
        // then iterate offset-outer / line-run-inner so each run needs
        // one owner lookup and reads stay inside one rank's buffer.
        let mut l0 = start;
        let l_end = start + count;
        while l0 < l_end {
            let seg_end = ((l0 / n + 1) * n).min(l_end);
            let seg = seg_end - l0;
            let (sl_base, so) = probe(l0, 0);
            let li0 = l0 - start;
            for off in 0..n {
                let mut j = 0;
                let mut sl = sl_base + off * off_step;
                while j < seg {
                    let s = split.owner(sl);
                    let s_start = split.start(s);
                    let s_end = s_start + split.count(s);
                    let len = (s_end - sl).min(seg - j);
                    let srow = &src[s];
                    let base = (sl - s_start) * n + so;
                    for q in 0..len {
                        buf[(li0 + j + q) * n + off] = srow[base + q * n];
                    }
                    j += len;
                    sl += len;
                }
            }
            l0 = seg_end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft3d::fft3d;
    use exa_machine::MachineModel;
    use exa_mpi::Network;

    fn signal(n: usize, seed: u64) -> Vec<C64> {
        let mut s = seed;
        (0..n * n * n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let re = ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                C64::new(re, re * 0.25 + 0.1)
            })
            .collect()
    }

    fn setup(ranks: usize) -> (Comm, GpuModel) {
        let machine = MachineModel::frontier();
        let gpu = machine.node.gpu().clone();
        (Comm::new(ranks, Network::from_machine(&machine)), gpu)
    }

    fn bits(v: &[C64]) -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    #[test]
    fn scatter_gather_round_trips_all_layouts() {
        let n = 8;
        let orig = signal(n, 3);
        for ranks in [1, 3, 7, 64] {
            let sched = RankScheduler::sequential();
            let (mut comm, gpu) = setup(ranks);
            let mut grid = DistGrid::from_global(n, ranks, &orig);
            assert_eq!(bits(&grid.gather_global()), bits(&orig));
            let plan = ExecutedFft3d::new(n);
            // A repartition is a pure permutation: gather must return the
            // same bits from every layout.
            plan.repartition(&sched, &mut comm, &mut grid, LineAxis::Axis1);
            assert_eq!(bits(&grid.gather_global()), bits(&orig));
            plan.repartition(&sched, &mut comm, &mut grid, LineAxis::Axis0);
            assert_eq!(bits(&grid.gather_global()), bits(&orig));
            let _ = gpu;
        }
    }

    #[test]
    fn executed_forward_is_bitwise_fft3d() {
        let n = 8;
        let orig = signal(n, 11);
        let mut reference = orig.clone();
        fft3d(&mut reference, n, n, n);
        for ranks in [1, 5, 16, 64] {
            let sched = RankScheduler::new();
            let (mut comm, gpu) = setup(ranks);
            let mut grid = DistGrid::from_global(n, ranks, &orig);
            let plan = ExecutedFft3d::new(n);
            let dt = plan.forward(&sched, &mut comm, &gpu, &mut grid);
            assert!(dt > SimTime::ZERO);
            assert_eq!(
                bits(&grid.gather_global()),
                bits(&reference),
                "{ranks} ranks"
            );
        }
    }

    #[test]
    fn forward_then_inverse_recovers_input() {
        let n = 8;
        let orig = signal(n, 29);
        let sched = RankScheduler::new();
        let (mut comm, gpu) = setup(12);
        let mut grid = DistGrid::from_global(n, 12, &orig);
        let plan = ExecutedFft3d::new(n);
        plan.forward(&sched, &mut comm, &gpu, &mut grid);
        plan.inverse(&sched, &mut comm, &gpu, &mut grid);
        assert_eq!(grid.axis(), LineAxis::Axis2);
        let back = grid.gather_global();
        let err = back
            .iter()
            .zip(&orig)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-10, "round-trip error {err}");
    }

    #[test]
    fn run_gather_matches_element_gather_all_transitions() {
        let n = 8;
        let orig = signal(n, 17);
        // Unaligned rank counts (7, 13, 61) force owner runs that cross
        // `line % n == 0` segment boundaries in the blocked branch.
        for ranks in [1, 3, 7, 13, 61, 64] {
            let sched = RankScheduler::sequential();
            let (mut comm_e, _) = setup(ranks);
            let (mut comm_r, _) = setup(ranks);
            let mut ge = DistGrid::from_global(n, ranks, &orig);
            let mut gr = DistGrid::from_global(n, ranks, &orig);
            let elem = ExecutedFft3d::new(n);
            let run = ExecutedFft3d::tuned(n);
            // Forward and inverse transitions: A2->A1->A0->A1->A2.
            for to in [
                LineAxis::Axis1,
                LineAxis::Axis0,
                LineAxis::Axis1,
                LineAxis::Axis2,
            ] {
                elem.repartition(&sched, &mut comm_e, &mut ge, to);
                run.repartition(&sched, &mut comm_r, &mut gr, to);
                assert_eq!(ge.parts, gr.parts, "{ranks} ranks -> {to:?}");
            }
            assert_eq!(
                comm_e.stats(),
                comm_r.stats(),
                "transpose accounting must not depend on gather strategy"
            );
        }
    }

    #[test]
    fn transpose_cycle_is_a_bitwise_identity() {
        let n = 8;
        let orig = signal(n, 41);
        for ranks in [1, 7, 13, 64] {
            for plan in [ExecutedFft3d::new(n), ExecutedFft3d::tuned(n)] {
                let sched = RankScheduler::sequential();
                let (mut comm, _) = setup(ranks);
                let mut grid = DistGrid::from_global(n, ranks, &orig);
                let dt = plan.transpose_cycle(&sched, &mut comm, &mut grid);
                // A single rank owns everything — no peers, no comm charge.
                assert!(if ranks > 1 {
                    dt > SimTime::ZERO
                } else {
                    dt == SimTime::ZERO
                });
                assert_eq!(grid.axis(), LineAxis::Axis2);
                assert_eq!(bits(&grid.gather_global()), bits(&orig), "{ranks} ranks");
            }
        }
    }

    #[test]
    fn tuned_plan_is_bitwise_equal_to_frozen() {
        let n = 8;
        let orig = signal(n, 23);
        for ranks in [5, 13, 64] {
            let run_plan = |plan: ExecutedFft3d| {
                let sched = RankScheduler::new();
                let (mut comm, gpu) = setup(ranks);
                let mut grid = DistGrid::from_global(n, ranks, &orig);
                let fwd = plan.forward(&sched, &mut comm, &gpu, &mut grid);
                let spectrum = grid.gather_global();
                let inv = plan.inverse(&sched, &mut comm, &gpu, &mut grid);
                (
                    bits(&spectrum),
                    bits(&grid.gather_global()),
                    fwd,
                    inv,
                    comm.stats(),
                )
            };
            let frozen = run_plan(ExecutedFft3d::new(n));
            let tuned = run_plan(ExecutedFft3d::tuned(n));
            assert_eq!(
                frozen, tuned,
                "tuned transform must match frozen bit for bit at {ranks} ranks"
            );
        }
    }

    #[test]
    fn executed_transform_is_thread_count_invariant() {
        let n = 8;
        let orig = signal(n, 41);
        let run = |threads: usize| {
            let sched = RankScheduler::with_threads(threads);
            let (mut comm, gpu) = setup(32);
            let mut grid = DistGrid::from_global(n, 32, &orig);
            let plan = ExecutedFft3d::new(n);
            let dt = plan.forward(&sched, &mut comm, &gpu, &mut grid);
            (bits(&grid.gather_global()), dt, comm.stats())
        };
        let (b1, t1, s1) = run(1);
        for threads in [2, 4] {
            let (bn, tn, sn) = run(threads);
            assert_eq!(b1, bn, "spectrum bits differ at {threads} threads");
            assert_eq!(t1, tn, "virtual time differs at {threads} threads");
            assert_eq!(s1, sn, "comm stats differ at {threads} threads");
        }
    }
}
