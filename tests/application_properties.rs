//! Property-based tests at the application layer: the mini-apps' physics
//! invariants must hold for arbitrary inputs, not just the fixtures their
//! unit tests use.

use exaready::apps::comet::{ccc_tables_gemm, ccc_tables_naive};
use exaready::apps::lammps::AtomSystem;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Neighbor lists are symmetric: j ∈ N(i) ⇔ i ∈ N(j).
    #[test]
    fn neighbor_lists_are_symmetric(seed in 0u64..10_000, cutoff in 1.1f64..1.9) {
        let sys = AtomSystem::crystal(3, seed);
        let neigh = sys.neighbor_list(cutoff);
        for (i, nb) in neigh.iter().enumerate() {
            for &j in nb {
                prop_assert!(neigh[j].contains(&i), "asymmetric pair ({i},{j})");
            }
        }
    }

    /// The CoMet GEMM formulation equals naive counting for arbitrary
    /// binary cohorts.
    #[test]
    fn ccc_gemm_equals_counting(
        n in 2usize..7,
        len in 1usize..64,
        seed in 0u64..10_000,
    ) {
        let vectors: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                (0..len)
                    .map(|k| {
                        let mut z = seed
                            .wrapping_add((i * 1000 + k) as u64)
                            .wrapping_mul(0x9E3779B97F4A7C15);
                        z ^= z >> 31;
                        (z & 1) as u8
                    })
                    .collect()
            })
            .collect();
        prop_assert_eq!(ccc_tables_gemm(&vectors), ccc_tables_naive(&vectors));
    }
}
