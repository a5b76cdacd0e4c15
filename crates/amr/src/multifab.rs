//! MultiFab: per-box data with ghost frames and ghost exchange.

use crate::box_array::BoxArray;
use crate::box_t::IntBox;
use exa_machine::SimTime;
use exa_mpi::Comm;

/// How `fill_boundary` charges communication time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GhostPolicy {
    /// Synchronous exchange: communication fully exposed.
    Synchronous,
    /// Asynchronous exchange overlapped with `interior_work` — the March
    /// 2021 AMReX optimization of §3.8 ("the largest performance increase
    /// at large scale came from the asynchronous ghost cell exchange").
    Overlapped,
}

/// One box's storage including its ghost frame.
#[derive(Debug, Clone)]
struct Fab {
    /// Valid region.
    valid: IntBox,
    /// Valid region grown by the ghost width.
    grown: IntBox,
    /// Row-major data over `grown`.
    data: Vec<f64>,
}

impl Fab {
    fn idx(&self, i: i64, j: i64) -> usize {
        debug_assert!(
            self.grown.contains(i, j),
            "({i},{j}) outside {}",
            self.grown
        );
        let s = self.grown.size();
        ((j - self.grown.lo[1]) * s[0] + (i - self.grown.lo[0])) as usize
    }
}

/// Per-box field data with ghost cells (single component).
#[derive(Debug, Clone)]
pub struct MultiFab {
    /// The decomposition.
    pub ba: BoxArray,
    /// Ghost width.
    pub ghost: i64,
    fabs: Vec<Fab>,
}

impl MultiFab {
    /// Zero-initialised MultiFab on a box array.
    pub fn new(ba: BoxArray, ghost: i64) -> Self {
        assert!(ghost >= 0);
        let fabs = ba
            .boxes
            .iter()
            .map(|&valid| {
                let grown = valid.grow(ghost);
                let n = grown.num_cells() as usize;
                Fab {
                    valid,
                    grown,
                    data: vec![0.0; n],
                }
            })
            .collect();
        MultiFab { ba, ghost, fabs }
    }

    /// Fill valid cells from a global function of (i, j).
    pub fn fill(&mut self, f: impl Fn(i64, i64) -> f64) {
        for fab in &mut self.fabs {
            for (i, j) in fab.valid.cells() {
                let idx = fab.idx(i, j);
                fab.data[idx] = f(i, j);
            }
        }
    }

    /// Read a cell from the box that *validly* owns it.
    pub fn get(&self, i: i64, j: i64) -> f64 {
        let b = self.ba.box_of(i, j).expect("cell inside the domain");
        let fab = &self.fabs[b];
        fab.data[fab.idx(i, j)]
    }

    /// Write a valid cell.
    pub fn set(&mut self, i: i64, j: i64, v: f64) {
        let b = self.ba.box_of(i, j).expect("cell inside the domain");
        let idx = self.fabs[b].idx(i, j);
        self.fabs[b].data[idx] = v;
    }

    /// Read a cell *as box `b` sees it* — ghost cells included. Valid only
    /// after [`MultiFab::fill_boundary`].
    pub fn get_local(&self, b: usize, i: i64, j: i64) -> f64 {
        let fab = &self.fabs[b];
        fab.data[fab.idx(i, j)]
    }

    fn wrap(&self, i: i64, j: i64) -> (i64, i64) {
        let d = self.ba.domain;
        let si = d.size()[0];
        let sj = d.size()[1];
        (
            (i - d.lo[0]).rem_euclid(si) + d.lo[0],
            (j - d.lo[1]).rem_euclid(sj) + d.lo[1],
        )
    }

    /// Exchange ghost cells (periodic domain): every ghost cell of every
    /// box receives the valid value of the owning box. Real copies; the
    /// communicator is charged per [`GhostPolicy`], with `interior_work`
    /// available to hide the overlapped exchange behind.
    pub fn fill_boundary(
        &mut self,
        comm: &mut Comm,
        policy: GhostPolicy,
        interior_work: SimTime,
    ) -> SimTime {
        let start = comm.elapsed();
        // Real data movement: resolve each ghost cell from its owner.
        for b in 0..self.fabs.len() {
            let valid = self.fabs[b].valid;
            let grown = self.fabs[b].grown;
            let ghost_cells: Vec<(i64, i64)> = grown
                .cells()
                .filter(|&(i, j)| !valid.contains(i, j))
                .collect();
            for (i, j) in ghost_cells {
                let (wi, wj) = self.wrap(i, j);
                let v = self.get(wi, wj);
                let idx = self.fabs[b].idx(i, j);
                self.fabs[b].data[idx] = v;
            }
        }
        // Virtual-time charge.
        let bytes = self.ba.ghost_bytes_per_rank(self.ghost, 1).max(1);
        match policy {
            GhostPolicy::Synchronous => {
                comm.advance_all(interior_work);
                comm.halo_exchange(8, bytes);
            }
            GhostPolicy::Overlapped => {
                // Prepost the exchange, do interior work, pay only the
                // residue at wait — and let the communicator attribute the
                // hidden portion to its overlap stats.
                let req = comm.ihalo(8, bytes);
                comm.advance_all(interior_work);
                req.wait(comm);
            }
        }
        comm.elapsed() - start
    }

    /// Sum over valid cells.
    pub fn sum(&self) -> f64 {
        self.fabs
            .iter()
            .map(|f| {
                f.valid
                    .cells()
                    .map(|(i, j)| f.data[f.idx(i, j)])
                    .sum::<f64>()
            })
            .sum()
    }

    /// Apply a 5-point Laplacian into a fresh MultiFab using only
    /// box-local (valid + ghost) reads — the access pattern ghost cells
    /// exist for. Call [`MultiFab::fill_boundary`] first.
    pub fn laplacian(&self) -> MultiFab {
        assert!(self.ghost >= 1, "laplacian needs a ghost frame");
        let mut out = MultiFab::new(self.ba.clone(), self.ghost);
        for b in 0..self.fabs.len() {
            let valid = self.fabs[b].valid;
            for (i, j) in valid.cells() {
                let v = -4.0 * self.get_local(b, i, j)
                    + self.get_local(b, i - 1, j)
                    + self.get_local(b, i + 1, j)
                    + self.get_local(b, i, j - 1)
                    + self.get_local(b, i, j + 1);
                let idx = out.fabs[b].idx(i, j);
                out.fabs[b].data[idx] = v;
            }
        }
        out
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

    fn mf(n: i64, max_box: i64, ghost: i64, ranks: usize) -> MultiFab {
        MultiFab::new(BoxArray::chop(IntBox::domain(n, n), max_box, ranks), ghost)
    }

    #[test]
    fn fill_and_get_round_trip() {
        let mut m = mf(16, 8, 1, 2);
        m.fill(|i, j| (i * 100 + j) as f64);
        assert_eq!(m.get(3, 5), 305.0);
        assert_eq!(m.get(12, 15), 1215.0);
        assert_eq!(
            m.sum(),
            (0..16)
                .flat_map(|i| (0..16).map(move |j| i * 100 + j))
                .sum::<i64>() as f64
        );
    }

    #[test]
    fn ghosts_match_periodic_neighbors_after_fill_boundary() {
        let mut m = mf(16, 8, 1, 4);
        m.fill(|i, j| (i * 100 + j) as f64);
        let mut c = comm(4);
        m.fill_boundary(&mut c, GhostPolicy::Synchronous, SimTime::ZERO);
        // Box 0 owns [0..7]x[0..7]; its right ghost column (i = 8) must hold
        // box 1's values, and its left ghost (i = -1) wraps to i = 15.
        assert_eq!(m.get_local(0, 8, 3), 803.0);
        assert_eq!(m.get_local(0, -1, 3), 1503.0);
        assert_eq!(m.get_local(0, 3, -1), 315.0);
        // Corner ghost wraps both ways.
        assert_eq!(m.get_local(0, -1, -1), 1515.0);
    }

    #[test]
    fn laplacian_of_linear_field_vanishes() {
        let mut m = mf(16, 8, 1, 2);
        m.fill(|i, j| 2.0 * i as f64 + 3.0 * j as f64);
        let mut c = comm(2);
        m.fill_boundary(&mut c, GhostPolicy::Synchronous, SimTime::ZERO);
        let lap = m.laplacian();
        // Interior cells (away from the periodic seam) are exactly zero.
        for i in 1..15 {
            for j in 1..15 {
                assert!(lap.get(i, j).abs() < 1e-12, "({i},{j}): {}", lap.get(i, j));
            }
        }
    }

    #[test]
    fn overlapped_exchange_hides_communication() {
        let work = SimTime::from_micros(5e3);
        let mut m1 = mf(64, 8, 2, 16);
        let mut c1 = comm(16);
        m1.fill(|i, j| (i + j) as f64);
        let t_sync = m1.fill_boundary(&mut c1, GhostPolicy::Synchronous, work);

        let mut m2 = mf(64, 8, 2, 16);
        let mut c2 = comm(16);
        m2.fill(|i, j| (i + j) as f64);
        let t_async = m2.fill_boundary(&mut c2, GhostPolicy::Overlapped, work);

        assert!(
            t_async < t_sync,
            "overlap must hide comm: {t_async} !< {t_sync}"
        );
        // With enough interior work the exchange is fully hidden.
        assert!(
            (t_async - work).micros() < 1.0,
            "fully hidden: {t_async} vs {work}"
        );
        // And both produced identical ghost data.
        assert_eq!(m1.get_local(0, -1, 0), m2.get_local(0, -1, 0));
    }

    #[test]
    fn sum_is_invariant_under_fill_boundary() {
        let mut m = mf(32, 8, 1, 4);
        m.fill(|i, j| ((i * 7 + j * 13) % 10) as f64);
        let s0 = m.sum();
        let mut c = comm(4);
        m.fill_boundary(&mut c, GhostPolicy::Synchronous, SimTime::ZERO);
        assert_eq!(m.sum(), s0, "ghost fill must not touch valid data");
    }
}
