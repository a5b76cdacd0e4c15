//! α–β cost formulas for the standard collectives.
//!
//! These follow the textbook algorithms (recursive doubling / Rabenseifner /
//! ring / pairwise exchange) used by production MPIs, expressed as pure
//! functions of (ranks, bytes, network) so they can be unit-tested against
//! their analytic forms and reused by the cost-only paper-scale paths.

use crate::network::Network;
use exa_machine::SimTime;

/// ceil(log2(p)), with log2(1) = 0.
#[inline]
pub fn ceil_log2(p: usize) -> u32 {
    debug_assert!(p >= 1);
    (usize::BITS - (p - 1).leading_zeros()).min(63)
}

/// Broadcast of `bytes` from one root: binomial tree.
pub fn bcast_time(net: &Network, p: usize, bytes: u64) -> SimTime {
    let rounds = ceil_log2(p) as f64;
    (net.alpha() + SimTime::from_secs(bytes as f64 * net.beta())) * rounds
}

/// Allreduce of `bytes` per rank: Rabenseifner
/// (reduce-scatter + allgather): `2 log2(p) α + 2 (p-1)/p n β`.
pub fn allreduce_time(net: &Network, p: usize, bytes: u64) -> SimTime {
    if p <= 1 {
        return SimTime::ZERO;
    }
    let lat = net.alpha() * (2.0 * ceil_log2(p) as f64);
    let vol = 2.0 * (p as f64 - 1.0) / p as f64 * bytes as f64 * net.beta();
    lat + SimTime::from_secs(vol)
}

/// All-to-all with variable per-pair payloads: pairwise exchange where each
/// of the pacing rank's `peers` rounds moves that round's payload between
/// the rank and one remote partner, so the cost is
/// `peers · α + bytes · β_global`, with `bytes` the rank's total over all
/// rounds — the β is derated by the fabric's bisection factor because
/// all-to-all stresses the global links. This is the transpose cost at the
/// heart of the GESTS PSDNS solver (§3.3). With ragged payloads
/// (non-square pencil grids) it charges the true volume instead of
/// rounding every round up to the maximum pair.
pub fn alltoallv_time(net: &Network, peers: usize, bytes: u64) -> SimTime {
    if peers == 0 {
        return SimTime::ZERO;
    }
    net.alpha() * peers as f64 + SimTime::from_secs(bytes as f64 * net.beta_global())
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_machine::MachineModel;

    fn net() -> Network {
        Network::from_machine(&MachineModel::frontier())
    }

    #[test]
    fn log2_helper() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let n = net();
        assert_eq!(allreduce_time(&n, 1, 1 << 20), SimTime::ZERO);
        assert_eq!(alltoallv_time(&n, 0, 0), SimTime::ZERO);
    }

    #[test]
    fn allreduce_matches_rabenseifner_form() {
        let n = net();
        let p = 1024;
        let bytes = 8 << 20;
        let t = allreduce_time(&n, p, bytes);
        let expect = n.alpha().secs() * 20.0 + 2.0 * 1023.0 / 1024.0 * bytes as f64 * n.beta();
        assert!((t.secs() - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn allreduce_latency_scales_logarithmically() {
        let n = net();
        let small = allreduce_time(&n, 64, 8);
        let big = allreduce_time(&n, 4096, 8);
        // 8-byte payload: latency dominated. log2 ratio = 12/6 = 2.
        let r = big / small;
        assert!(r > 1.9 && r < 2.1, "r {r}");
    }

    #[test]
    fn alltoallv_grows_linearly_in_peers() {
        let n = net();
        let t1 = alltoallv_time(&n, 255, 255 * 4096);
        let t2 = alltoallv_time(&n, 511, 511 * 4096);
        let r = t2 / t1;
        assert!(r > 1.9 && r < 2.1, "r {r}");
    }

    #[test]
    fn alltoallv_pays_bisection_derating() {
        let n = net();
        let (peers, bytes) = (127, 127 << 20);
        let derated = alltoallv_time(&n, peers, bytes);
        // Rebuild with full bisection for comparison.
        let mut full = net();
        full.model.bisection_factor = 1.0;
        let ideal = alltoallv_time(&full, peers, bytes);
        assert!(derated > ideal);
    }

    #[test]
    fn alltoallv_ragged_cheaper_than_max_rounding() {
        let n = net();
        // 63 pairs, one big and the rest small: the old max-rounding model
        // charged 63 × big.
        let v = alltoallv_time(&n, 63, (1 << 20) + 62 * (1 << 10));
        let rounded = alltoallv_time(&n, 63, 63 << 20);
        assert!(v < rounded);
    }
}
