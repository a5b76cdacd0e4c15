//! The transpose plan both distributed 3-D FFTs price (GESTS §3.3): built
//! once per (n, ranks, layout), in closed form by [`crate::DistFft3d::plan`]
//! or by walking the executed line layout ([`TransposePlan::lines`]).

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
/// pacing rank exchanges `peers[j]` bytes with its `j`-th remote partner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Transpose {
    pub(crate) group: usize,
    pub(crate) peers: Vec<u64>,
}

impl Transpose {
    /// Partners that receive nothing are dropped, so no exchange round is
    /// charged for them.
    pub(crate) fn new(group: usize, remote: impl IntoIterator<Item = u64>) -> Self {
        let peers = remote.into_iter().filter(|&b| b > 0).collect();
        Transpose { group, peers }
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
    /// owner: rank 0 holds the remainder lines, so it paces the transpose.
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
            Transpose::new(ranks, bytes.into_iter().skip(1))
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

    #[test]
    fn slab_line_plans_match_the_closed_form() {
        // p | n, p ≤ n: each rank owns whole i0-planes, so the axis-2 →
        // axis-1 hop stays on-rank and the other is the slab transpose.
        for (n, p) in [(8, 1), (8, 2), (8, 4), (8, 8), (16, 4), (12, 6)] {
            let plan = TransposePlan::lines(n, p);
            assert!(plan.transposes[0].peers.is_empty(), "n={n} p={p}");
            let slab = DistFft3d::new(n, Decomp::Slabs).transpose_pair_bytes(p, p, 0);
            assert_eq!(plan.transposes[1].peers, slab[1..], "n={n} p={p}");
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
                assert_eq!(l.peers, c.peers, "n={n}");
            }
        }
    }

    #[test]
    fn no_transpose_pays_for_a_silent_partner() {
        // 64³ over 1024 ranks: rank 0 reads from 16 then 64 owners, itself
        // included, so one transform pays 15 + 63 exchange rounds.
        let plan = TransposePlan::lines(64, 1024);
        let rounds: Vec<usize> = plan.transposes.iter().map(|t| t.peers.len()).collect();
        assert_eq!(rounds, [15, 63]);
    }
}
