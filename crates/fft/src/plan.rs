//! The transpose plan both distributed 3-D FFTs price (GESTS §3.3): built
//! once per (n, ranks, layout), in closed form by [`crate::DistFft3d::plan`]
//! or by walking the executed line layout ([`TransposePlan::lines`]). Each
//! transpose keeps its pacing rank's partner volumes run-length encoded —
//! the α–β price reads only partner counts and byte totals — so a closed-
//! form plan holds at most two runs however many ranks it spans.

use crate::executed::LineAxis;

/// Contiguous near-equal split of `total` items over `parts`: the first
/// `total % parts` parts get one extra item, so the shares always sum back
/// to `total` exactly.
#[derive(Debug, Clone, Copy)]
pub struct Split {
    pub(crate) base: usize,
    pub(crate) rem: usize,
}

impl Split {
    pub(crate) fn new(total: usize, parts: usize) -> Self {
        Split {
            base: total / parts,
            rem: total % parts,
        }
    }

    /// First item of `part`.
    pub fn start(&self, part: usize) -> usize {
        part * self.base + part.min(self.rem)
    }

    pub(crate) fn count(&self, part: usize) -> usize {
        self.base + usize::from(part < self.rem)
    }

    pub(crate) fn owner(&self, item: usize) -> usize {
        let fat = self.rem * (self.base + 1);
        if item < fat {
            item / (self.base + 1)
        } else {
            self.rem + (item - fat) / self.base
        }
    }
}

/// One transpose: an all-to-all inside groups of `group` ranks in which the
/// pacing rank exchanges `bytes` with each of `count` remote partners, run
/// by run, for every `(count, bytes)` in `runs`. Partners that receive
/// nothing are dropped, so no exchange round is charged for them, and
/// neighbouring runs never share a volume, so two transposes with the same
/// partner volumes compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Transpose {
    pub(crate) group: usize,
    pub(crate) runs: Vec<(usize, u64)>,
}

impl Transpose {
    /// The transpose whose pacing rank exchanges `bytes` with each of
    /// `count` partners, run after run. Empty runs are dropped and
    /// neighbouring runs of equal volume merged.
    pub(crate) fn new(group: usize, runs: impl IntoIterator<Item = (usize, u64)>) -> Self {
        let mut merged: Vec<(usize, u64)> = Vec::new();
        for (count, bytes) in runs.into_iter().filter(|&(c, b)| c > 0 && b > 0) {
            match merged.last_mut() {
                Some((c, b)) if *b == bytes => *c += count,
                _ => merged.push((count, bytes)),
            }
        }
        Transpose {
            group,
            runs: merged,
        }
    }

    /// Remote partners of the pacing rank.
    pub(crate) fn peers(&self) -> usize {
        self.runs.iter().map(|&(count, _)| count).sum()
    }

    /// The partner count (exchange rounds) and byte total of partners
    /// `[lo, hi)`, in partner order.
    pub(crate) fn span(&self, lo: usize, hi: usize) -> (usize, u64) {
        let (mut first, mut bytes) = (0, 0u64);
        for &(count, b) in &self.runs {
            let (a, z) = (first.max(lo), (first + count).min(hi));
            if a < z {
                bytes += (z - a) as u64 * b;
            }
            first += count;
        }
        (hi - lo, bytes)
    }

    /// The partner count and byte total of the whole transpose.
    pub(crate) fn totals(&self) -> (usize, u64) {
        self.span(0, self.peers())
    }
}

/// The stages of one distributed transform: FFT pass `i` carries
/// `passes[i]` of the local transform, and `transposes[i]` runs between
/// passes `i` and `i + 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct TransposePlan {
    pub(crate) passes: Vec<f64>,
    pub(crate) transposes: Vec<Transpose>,
}

impl TransposePlan {
    /// The plan [`crate::ExecutedFft3d`] runs on a [`crate::DistGrid`] of
    /// `ranks` ranks: line passes along axes 2, 1, 0 with the repartitions
    /// between them. Each transpose's volumes are rank 0's reads per source
    /// owner, run-length encoded: rank 0 holds the remainder lines, so it
    /// paces the transpose.
    pub fn lines(n: usize, ranks: usize) -> Self {
        assert!(ranks >= 1 && ranks <= n * n, "need 1 <= ranks <= n^2");
        let split = Split::new(n * n, ranks);
        let hop = |from: LineAxis, to: LineAxis| {
            let mut bytes = vec![0u64; ranks];
            for line in 0..split.count(0) {
                for off in 0..n {
                    let (i0, i1, i2) = to.coords(n, line, off);
                    bytes[split.owner(from.index(n, i0, i1, i2).0)] += 16;
                }
            }
            Transpose::new(ranks, bytes.into_iter().skip(1).map(|b| (1, b)))
        };
        TransposePlan {
            passes: vec![1.0 / 3.0; 3],
            transposes: vec![
                hop(LineAxis::Axis2, LineAxis::Axis1),
                hop(LineAxis::Axis1, LineAxis::Axis0),
            ],
        }
    }

    /// The inverse transform's plan: the same stages in reverse order.
    pub fn reversed(&self) -> Self {
        let mut plan = self.clone();
        plan.passes.reverse();
        plan.transposes.reverse();
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Decomp, DistFft3d};

    /// The per-partner volumes a transpose's runs stand for.
    fn expand(t: &Transpose) -> Vec<u64> {
        t.runs
            .iter()
            .flat_map(|&(count, bytes)| std::iter::repeat_n(bytes, count))
            .collect()
    }

    #[test]
    fn slab_line_plans_match_the_closed_form() {
        // p | n, p ≤ n: each rank owns whole i0-planes, so the axis-2 →
        // axis-1 hop stays on-rank and the other is the slab transpose.
        for (n, p) in [(8, 1), (8, 2), (8, 4), (8, 8), (16, 4), (12, 6)] {
            let plan = TransposePlan::lines(n, p);
            assert!(plan.transposes[0].runs.is_empty(), "n={n} p={p}");
            let slab = DistFft3d::new(n, Decomp::Slabs).transpose_pair_bytes(p, p, 0);
            assert_eq!(expand(&plan.transposes[1]), slab[1..], "n={n} p={p}");
        }
    }

    #[test]
    fn one_line_per_rank_matches_the_pencil_shares() {
        // p = n²: each rank owns one line and exchanges one point with each
        // of its √p = n row (then column) partners.
        for n in [2, 4, 8] {
            let p = n * n;
            let lines = TransposePlan::lines(n, p);
            let pencils = DistFft3d::new(n, Decomp::Pencils).plan(p);
            assert_eq!(lines.transposes.len(), pencils.transposes.len());
            for (l, c) in lines.transposes.iter().zip(&pencils.transposes) {
                assert_eq!(l.runs, c.runs, "n={n}");
            }
        }
    }

    #[test]
    fn no_transpose_pays_for_a_silent_partner() {
        // 64³ over 1024 ranks: rank 0 reads from 16 then 64 owners, itself
        // included, so one transform pays 15 + 63 exchange rounds.
        let plan = TransposePlan::lines(64, 1024);
        let rounds: Vec<usize> = plan.transposes.iter().map(Transpose::peers).collect();
        assert_eq!(rounds, [15, 63]);
    }

    #[test]
    fn closed_form_runs_expand_to_the_pair_bytes_and_chunk_exactly() {
        // Slabs and pencils over every rank count up to 70, past each
        // decomposition's limit too: there rank 0's share can hold fewer
        // bytes than its group has members (`base == 0`), and the partners
        // left without a byte must be dropped.
        let mut silent = 0;
        for n in [2usize, 3, 5, 8, 16] {
            for decomp in [Decomp::Slabs, Decomp::Pencils] {
                for p in 1..=70 {
                    let cost = DistFft3d::new(n, decomp);
                    let plan = cost.plan(p);
                    let t = &plan.transposes[0];
                    assert!(t.runs.len() <= 2, "n={n} {decomp:?} p={p}: {:?}", t.runs);
                    let pairs = cost.transpose_pair_bytes(p, t.group, 0);
                    let remote: Vec<u64> = pairs[1..].iter().copied().filter(|&b| b > 0).collect();
                    silent += pairs.len() - 1 - remote.len();
                    assert_eq!(expand(t), remote, "n={n} {decomp:?} p={p}");
                    check_chunks(t, &remote);
                }
            }
        }
        assert!(silent > 0, "some rank count leaves a partner silent");
        // Runs from the raw constructor: empty ones dropped, equal
        // neighbours merged.
        let t = Transpose::new(8, [(2, 5), (3, 0), (1, 5), (0, 7), (2, 4)]);
        assert_eq!(t.runs, [(3, 5), (2, 4)]);
        check_chunks(&t, &[5, 5, 5, 4, 4]);
    }

    /// Every pipeline chunk `[j·m/k, (j+1)·m/k)` the costed transform posts
    /// carries the slice sums of the per-partner volumes, for k = 1…8.
    fn check_chunks(t: &Transpose, remote: &[u64]) {
        let m = remote.len();
        assert_eq!(t.peers(), m);
        assert_eq!(t.totals(), (m, remote.iter().sum()));
        for k in 1..=8 {
            for j in 0..k {
                let (lo, hi) = (j * m / k, (j + 1) * m / k);
                let want = (hi - lo, remote[lo..hi].iter().sum::<u64>());
                assert_eq!(t.span(lo, hi), want, "k={k} j={j} {:?}", t.runs);
            }
        }
    }
}
