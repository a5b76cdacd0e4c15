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
//! Virtual time: the grid carries its [`TransposePlan::lines`] plan, built
//! once from rank 0's reads. Every rank's pass is charged the costed
//! transform's per-rank pass time (the `local_profile` kernel plus one
//! launch, split by the plan's pass shares), and every repartition as the
//! plan's transpose, through the same all-to-all call
//! [`DistFft3d::charge_plan`] makes. So `forward` takes exactly the costed
//! price of the grid's plan and `inverse` that of the reversed plan, bit for
//! bit and with equal [`exa_mpi::CommStats`], as the tests assert.
//!
//! Determinism: per-rank work is a pure function of the rank's slice, and
//! the scheduler's virtual-time merge orders clocks and spans by rank, so
//! results, traces and timings are bit-identical at any thread count. The
//! transform itself is bitwise identical to [`crate::fft3d::fft3d`] on the
//! gathered global array (same per-line [`fft`](crate::fft1d::fft) on the
//! same values, axes in the same order) — a property the tests assert with
//! `to_bits`.

use crate::dist3d::{Decomp, DistFft3d};
use crate::fft1d::{fft_batch, ifft_batch};
use crate::plan::{Split, TransposePlan};
use exa_linalg::C64;
use exa_machine::{GpuModel, SimTime};
use exa_mpi::{Comm, RankCtx, RankScheduler};
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

/// One line-FFT pass: its direction and the virtual time every rank is
/// charged for it.
#[derive(Debug, Clone, Copy)]
struct Pass {
    inverse: bool,
    dt: SimTime,
}

impl Pass {
    /// The span a pass over `axis`-layout lines records.
    fn span(self, axis: LineAxis) -> &'static str {
        match (axis, self.inverse) {
            (LineAxis::Axis2, false) => "fft_lines_axis2",
            (LineAxis::Axis1, false) => "fft_lines_axis1",
            (LineAxis::Axis0, false) => "fft_lines_axis0",
            (LineAxis::Axis2, true) => "ifft_lines_axis2",
            (LineAxis::Axis1, true) => "ifft_lines_axis1",
            (LineAxis::Axis0, true) => "ifft_lines_axis0",
        }
    }

    /// Transform one rank's slice of `axis`-layout lines and charge the
    /// pass. One batched call over the whole slice: bit-identical to
    /// per-line transforms.
    fn run(self, ctx: &mut RankCtx, part: &mut [C64], n: usize, axis: LineAxis) {
        if self.inverse {
            ifft_batch(part, n);
        } else {
            fft_batch(part, n);
        }
        ctx.span(self.span(axis), SpanCat::Kernel, self.dt);
    }
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
    pub(crate) fn index(self, n: usize, i0: usize, i1: usize, i2: usize) -> (usize, usize) {
        match self {
            LineAxis::Axis2 => (i0 * n + i1, i2),
            LineAxis::Axis1 => (i0 * n + i2, i1),
            LineAxis::Axis0 => (i1 * n + i2, i0),
        }
    }

    /// Global element `(i0, i1, i2)` at `(line, offset)` of this layout.
    pub(crate) fn coords(self, n: usize, line: usize, off: usize) -> (usize, usize, usize) {
        match self {
            LineAxis::Axis2 => (line / n, line % n, off),
            LineAxis::Axis1 => (line / n, off, line % n),
            LineAxis::Axis0 => (off, line / n, line % n),
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
    /// The transform's plan over this layout.
    plan: TransposePlan,
    /// The order destination ranks are packed into pool tasks for the
    /// `i1 ↔ i0` repartition (the plan's transpose 1): by `(first_line %
    /// n, first_line / n)`. Ranks whose first lines agree mod `n` hold the
    /// same `i2` range, so they read the same source slices; listed
    /// together, a pool task's reads stay within a few slices instead of
    /// striding over all of them.
    hop1_order: Vec<usize>,
}

impl DistGrid {
    /// Scatter a canonical-order (`data[(i0·n + i1)·n + i2]`) global array
    /// into the initial [`LineAxis::Axis2`] layout over `ranks` ranks.
    /// Requires `1 ≤ ranks ≤ n²` so every pass keeps whole lines local.
    pub fn from_global(n: usize, ranks: usize, data: &[C64]) -> Self {
        assert_eq!(data.len(), n * n * n, "global array must be n^3");
        let plan = TransposePlan::lines(n, ranks);
        let split = Split::new(n * n, ranks);
        let parts = (0..ranks)
            .map(|r| {
                let (s, c) = (split.start(r), split.count(r));
                data[s * n..(s + c) * n].to_vec()
            })
            .collect();
        let mut hop1_order: Vec<usize> = (0..ranks).collect();
        hop1_order.sort_by_key(|&r| {
            let first = split.start(r);
            (first % n, first / n)
        });
        DistGrid {
            n,
            axis: LineAxis::Axis2,
            parts,
            scratch: Vec::new(),
            plan,
            hop1_order,
        }
    }

    /// Ranks holding the grid.
    pub fn ranks(&self) -> usize {
        self.parts.len()
    }

    /// Current line layout.
    pub fn axis(&self) -> LineAxis {
        self.axis
    }

    /// How the `n²` lines are split over the ranks: rank `r`'s first line
    /// of the current layout is `line_split().start(r)`.
    pub fn line_split(&self) -> Split {
        Split::new(self.n * self.n, self.parts.len())
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
        let split = self.line_split();
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
    /// The costed transform whose pass times this plan charges.
    cost: DistFft3d,
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
        ExecutedFft3d {
            n,
            cost: DistFft3d::new(n, Decomp::Pencils),
            gather,
        }
    }

    /// Check that `grid` matches this plan and `comm`, and starts in `axis`.
    fn check(&self, comm: &Comm, grid: &DistGrid, axis: LineAxis) {
        assert_eq!(grid.n, self.n);
        assert_eq!(
            grid.ranks(),
            comm.size(),
            "one communicator rank per grid rank"
        );
        assert_eq!(grid.axis, axis, "the grid starts in the wrong layout");
    }

    /// One line-FFT pass over the layout the grid is currently in, with
    /// no repartition before it; every rank is charged `pass.dt`.
    fn fft_pass(&self, sched: &RankScheduler, comm: &mut Comm, grid: &mut DistGrid, pass: Pass) {
        let (n, axis) = (self.n, grid.axis);
        sched.compute_phase(comm, &mut grid.parts, |ctx, part| {
            pass.run(ctx, part, n, axis)
        });
    }

    /// Repartition the grid into `to`-layout lines: every destination rank
    /// gathers its lines positionally from the source layout (a pure
    /// permutation — no arithmetic touches the values), and the hop is
    /// charged as the grid plan's transpose between the two layouts. A
    /// hop and its reverse move the same volumes (swap the two axes they
    /// exchange), so the inverse and the cycle reuse the forward
    /// transposes.
    ///
    /// With a `then` pass, each rank runs that line-FFT pass on its slice
    /// in the same compute phase, right after gathering it, while the
    /// slice is still in cache. The gather itself charges no virtual
    /// time, so charging the hop's all-to-all before the phase rather
    /// than between a gather phase and a pass phase leaves every clock,
    /// span and [`exa_mpi::CommStats`] tally unchanged.
    fn repartition(
        &self,
        sched: &RankScheduler,
        comm: &mut Comm,
        grid: &mut DistGrid,
        to: LineAxis,
        then: Option<Pass>,
    ) {
        let n = self.n;
        let ranks = grid.ranks();
        let split = grid.line_split();
        let from = grid.axis;
        let hop = match (from, to) {
            (LineAxis::Axis2, LineAxis::Axis1) | (LineAxis::Axis1, LineAxis::Axis2) => 0,
            (LineAxis::Axis1, LineAxis::Axis0) | (LineAxis::Axis0, LineAxis::Axis1) => 1,
            _ => panic!("no line-plan transpose from {from:?} to {to:?}"),
        };
        let t = &grid.plan.transposes[hop];
        let (peers, bytes) = t.totals();
        comm.alltoallv(t.group, peers, bytes);
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
        let fused = |ctx: &mut RankCtx, buf: &mut Vec<C64>| {
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
            if let Some(pass) = then {
                pass.run(ctx, buf, n, to);
            }
        };
        if hop == 1 {
            sched.compute_phase_ordered(comm, &mut dst, &grid.hop1_order, fused);
        } else {
            sched.compute_phase(comm, &mut dst, fused);
        }
        if self.gather == GatherStrategy::Run {
            grid.scratch = src;
        }
        grid.parts = dst;
        grid.axis = to;
    }

    /// Forward transform in place: three line passes (axes 2, 1, 0 — the
    /// same order as [`crate::fft3d::fft3d`]) with a repartition between
    /// passes. The grid must be in the initial layout; it finishes in
    /// [`LineAxis::Axis0`]. Returns the virtual time the transform took:
    /// the costed price of the grid's [`TransposePlan::lines`] plan.
    pub fn forward(
        &self,
        sched: &RankScheduler,
        comm: &mut Comm,
        gpu: &GpuModel,
        grid: &mut DistGrid,
    ) -> SimTime {
        self.transform(sched, comm, gpu, grid, false)
    }

    /// Inverse transform in place, unwinding the forward schedule (axis 0
    /// first, back to the initial layout). `inverse(forward(x)) = x` up to
    /// rounding. Returns the virtual time the transform took: the costed
    /// price of the reversed plan.
    pub fn inverse(
        &self,
        sched: &RankScheduler,
        comm: &mut Comm,
        gpu: &GpuModel,
        grid: &mut DistGrid,
    ) -> SimTime {
        self.transform(sched, comm, gpu, grid, true)
    }

    /// The grid plan's passes, reversed for the inverse, with a
    /// repartition before each pass but the first, fused into the pass's
    /// compute phase: three phases per transform. Every rank is charged
    /// each pass's share of the costed local transform.
    fn transform(
        &self,
        sched: &RankScheduler,
        comm: &mut Comm,
        gpu: &GpuModel,
        grid: &mut DistGrid,
        inverse: bool,
    ) -> SimTime {
        let (from, path) = if inverse {
            (LineAxis::Axis0, [LineAxis::Axis1, LineAxis::Axis2])
        } else {
            (LineAxis::Axis2, [LineAxis::Axis1, LineAxis::Axis0])
        };
        self.check(comm, grid, from);
        let local = self.cost.local_time(gpu, grid.ranks());
        let mut passes = grid.plan.passes.clone();
        if inverse {
            passes.reverse();
        }
        let pass = |share: f64| Pass {
            inverse,
            dt: local * share,
        };
        let t0 = comm.elapsed();
        self.fft_pass(sched, comm, grid, pass(passes[0]));
        for (to, &share) in path.into_iter().zip(&passes[1..]) {
            self.repartition(sched, comm, grid, to, Some(pass(share)));
        }
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
        self.check(comm, grid, LineAxis::Axis2);
        let t0 = comm.elapsed();
        for to in [
            LineAxis::Axis1,
            LineAxis::Axis0,
            LineAxis::Axis1,
            LineAxis::Axis2,
        ] {
            self.repartition(sched, comm, grid, to, None);
        }
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
    split: &Split,
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
        // Uniform split whose per-rank line count `b` divides `n`: the
        // rank's lines share `line / n`, and the source line of offset
        // `o`, `sl0 + o·n`, is the first line of rank `(sl0 + o·n) / b`.
        // So offset `o` of every destination line comes from one whole
        // source slice, read at the constant source offset, and those
        // slices are `n / b` ranks apart: no owner lookup and no
        // division per offset. Offsets run in order, so each
        // destination line is written front to back.
        let b = split.base;
        let (sl0, so) = probe(start, 0);
        for (o, s) in (sl0 / b..).step_by(n / b).take(n).enumerate() {
            let row = &src[s][so..];
            for j in 0..count {
                buf[j * n + o] = row[j * n];
            }
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
            plan.repartition(&sched, &mut comm, &mut grid, LineAxis::Axis1, None);
            assert_eq!(bits(&grid.gather_global()), bits(&orig));
            plan.repartition(&sched, &mut comm, &mut grid, LineAxis::Axis0, None);
            assert_eq!(bits(&grid.gather_global()), bits(&orig));
            let _ = gpu;
        }
    }

    #[test]
    fn executed_forward_is_bitwise_fft3d() {
        for (n, ranks) in [(8, 1), (8, 5), (8, 16), (8, 64), (16, 256)] {
            let orig = signal(n, 11);
            let mut reference = orig.clone();
            fft3d(&mut reference, n, n, n);
            let sched = RankScheduler::new();
            let (mut comm, gpu) = setup(ranks);
            let mut grid = DistGrid::from_global(n, ranks, &orig);
            let plan = ExecutedFft3d::new(n);
            let dt = plan.forward(&sched, &mut comm, &gpu, &mut grid);
            assert!(dt > SimTime::ZERO);
            assert_eq!(
                bits(&grid.gather_global()),
                bits(&reference),
                "n={n}, {ranks} ranks"
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
        // `line % n == 0` segment boundaries in the blocked branch; 16, 32
        // and 64 ranks take the uniform-split branch with 4, 2 and 1
        // lines per rank.
        for ranks in [1, 3, 7, 13, 16, 32, 61, 64] {
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
                elem.repartition(&sched, &mut comm_e, &mut ge, to, None);
                run.repartition(&sched, &mut comm_r, &mut gr, to, None);
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
        // n = 16 on 64 and 256 ranks are uniform splits whose transpose-1
        // task order regroups ranks (256 ranks pack four to a pool task).
        for (n, ranks) in [(8, 5), (8, 13), (8, 64), (16, 64), (16, 256)] {
            let orig = signal(n, 23);
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
                "tuned transform must match frozen bit for bit at n={n}, {ranks} ranks"
            );
        }
    }

    #[test]
    fn executed_time_is_the_costed_price_of_the_line_plan() {
        // Every (n, ranks) the tests above use, plus the 64³/1024 milestone.
        let configs = [1, 3, 5, 7, 12, 13, 16, 32, 61, 64]
            .map(|ranks| (8, ranks))
            .into_iter()
            .chain([(16, 64), (16, 256), (64, 1024)]);
        for (n, ranks) in configs {
            let orig = signal(n, 7);
            let plan = TransposePlan::lines(n, ranks);
            let costed = |plan: &TransposePlan| {
                let (mut comm, gpu) = setup(ranks);
                let dt = DistFft3d::new(n, Decomp::Pencils).charge_plan(&mut comm, &gpu, plan);
                (dt.secs().to_bits(), comm.stats())
            };
            // The cycle hops out and back through both transposes, with no
            // pass between them.
            let cycle = TransposePlan {
                passes: vec![0.0; 5],
                transposes: [0, 1, 1, 0].map(|i| plan.transposes[i].clone()).to_vec(),
            };
            let want = [costed(&plan), costed(&plan.reversed()), costed(&cycle)];
            for exec in [ExecutedFft3d::new(n), ExecutedFft3d::tuned(n)] {
                let sched = RankScheduler::sequential();
                let mut grid = DistGrid::from_global(n, ranks, &orig);
                assert_eq!(grid.plan, plan);
                let mut got = Vec::new();
                let (mut comm, gpu) = setup(ranks);
                let dt = exec.forward(&sched, &mut comm, &gpu, &mut grid);
                got.push((dt.secs().to_bits(), comm.stats()));
                let (mut comm, gpu) = setup(ranks);
                let dt = exec.inverse(&sched, &mut comm, &gpu, &mut grid);
                got.push((dt.secs().to_bits(), comm.stats()));
                let (mut comm, _) = setup(ranks);
                let dt = exec.transpose_cycle(&sched, &mut comm, &mut grid);
                got.push((dt.secs().to_bits(), comm.stats()));
                assert_eq!(got, want, "n={n} ranks={ranks} {:?}", exec.gather);
            }
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

    #[test]
    fn each_repartition_runs_inside_the_pass_that_consumes_it() {
        let (n, ranks) = (8, 12);
        let orig = signal(n, 5);
        let plan = ExecutedFft3d::tuned(n);
        let collector = exa_telemetry::TelemetryCollector::shared();
        let mut sched = RankScheduler::with_threads(2);
        let (mut comm, gpu) = setup(ranks);
        let mut grid = DistGrid::from_global(n, ranks, &orig);
        let phases = |sched: &mut RankScheduler, run: &mut dyn FnMut(&RankScheduler)| {
            sched.attach_observer(&collector, "pool");
            run(sched);
            sched.land_observer().expect("observer attached").phases
        };
        let fwd = phases(&mut sched, &mut |s| {
            plan.forward(s, &mut comm, &gpu, &mut grid);
        });
        let inv = phases(&mut sched, &mut |s| {
            plan.inverse(s, &mut comm, &gpu, &mut grid);
        });
        let cycle = phases(&mut sched, &mut |s| {
            plan.transpose_cycle(s, &mut comm, &mut grid);
        });
        assert_eq!((fwd, inv, cycle), (3, 3, 4));
    }
}
