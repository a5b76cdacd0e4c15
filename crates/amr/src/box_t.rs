//! 2-D index-space boxes (AMReX `Box` with cell-centred semantics).

use std::fmt;

/// An inclusive 2-D index box: cells `(i, j)` with
/// `lo[0] <= i <= hi[0]` and `lo[1] <= j <= hi[1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IntBox {
    /// Lower corner (inclusive).
    pub lo: [i64; 2],
    /// Upper corner (inclusive).
    pub hi: [i64; 2],
}

impl IntBox {
    /// Box from corners.
    pub fn new(lo: [i64; 2], hi: [i64; 2]) -> Self {
        assert!(
            lo[0] <= hi[0] && lo[1] <= hi[1],
            "degenerate box {lo:?}..{hi:?}"
        );
        IntBox { lo, hi }
    }

    /// The `[0, n) × [0, m)` domain box.
    pub fn domain(n: i64, m: i64) -> Self {
        IntBox::new([0, 0], [n - 1, m - 1])
    }

    /// Extent along each axis.
    pub fn size(&self) -> [i64; 2] {
        [self.hi[0] - self.lo[0] + 1, self.hi[1] - self.lo[1] + 1]
    }

    /// Cell count.
    pub fn num_cells(&self) -> i64 {
        let s = self.size();
        s[0] * s[1]
    }

    /// Does the box contain a cell?
    pub fn contains(&self, i: i64, j: i64) -> bool {
        i >= self.lo[0] && i <= self.hi[0] && j >= self.lo[1] && j <= self.hi[1]
    }

    /// Intersection, if non-empty.
    pub fn intersect(&self, other: &IntBox) -> Option<IntBox> {
        let lo = [self.lo[0].max(other.lo[0]), self.lo[1].max(other.lo[1])];
        let hi = [self.hi[0].min(other.hi[0]), self.hi[1].min(other.hi[1])];
        if lo[0] <= hi[0] && lo[1] <= hi[1] {
            Some(IntBox { lo, hi })
        } else {
            None
        }
    }

    /// Grow by `g` cells on every side (the ghost frame).
    pub fn grow(&self, g: i64) -> IntBox {
        IntBox::new(
            [self.lo[0] - g, self.lo[1] - g],
            [self.hi[0] + g, self.hi[1] + g],
        )
    }

    /// Iterate all cells, row-major.
    pub fn cells(&self) -> impl Iterator<Item = (i64, i64)> + '_ {
        let lo = self.lo;
        let hi = self.hi;
        (lo[1]..=hi[1]).flat_map(move |j| (lo[0]..=hi[0]).map(move |i| (i, j)))
    }
}

impl fmt::Display for IntBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}..{}]x[{}..{}]",
            self.lo[0], self.hi[0], self.lo[1], self.hi[1]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_and_cells() {
        let b = IntBox::new([2, 3], [5, 4]);
        assert_eq!(b.size(), [4, 2]);
        assert_eq!(b.num_cells(), 8);
        assert_eq!(b.cells().count(), 8);
        assert!(b.contains(2, 3) && b.contains(5, 4));
        assert!(!b.contains(6, 4) && !b.contains(2, 2));
    }

    #[test]
    fn intersection_is_commutative_and_tight() {
        let a = IntBox::new([0, 0], [7, 7]);
        let b = IntBox::new([4, 6], [12, 9]);
        let ab = a.intersect(&b).unwrap();
        let ba = b.intersect(&a).unwrap();
        assert_eq!(ab, ba);
        assert_eq!(ab, IntBox::new([4, 6], [7, 7]));
        let far = IntBox::new([100, 100], [101, 101]);
        assert!(a.intersect(&far).is_none());
    }

    #[test]
    fn grow_then_intersect_finds_neighbors() {
        let a = IntBox::new([0, 0], [3, 3]);
        let b = IntBox::new([4, 0], [7, 3]); // abuts a on the right
        assert!(a.intersect(&b).is_none());
        let overlap = a.grow(1).intersect(&b).unwrap();
        assert_eq!(overlap, IntBox::new([4, 0], [4, 3]));
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_box_rejected() {
        IntBox::new([2, 0], [1, 0]);
    }
}
