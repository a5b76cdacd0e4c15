//! Cost-select oracle: over random knob specs and cost functions, the
//! tuner's table equals a brute-force argmin over `candidates ∪ {frozen}`
//! — ties go to the frozen value, then to the smaller value — and its
//! rendered `TUNED.json` bytes are identical across two runs.

use exa_tune::{KnobSpec, Probe, TunedTable, Tuner};
use proptest::prelude::*;

/// Cost looked up in a per-value table. Few distinct levels, so ties
/// (including ties with the frozen value) are common.
struct TableCost(Vec<u8>);

impl Probe for TableCost {
    fn cost(&mut self, v: i64) -> f64 {
        f64::from(self.0[v as usize])
    }
}

/// The brute-force reference for one knob.
fn argmin(frozen: i64, candidates: &[i64], cost: &[u8]) -> i64 {
    let mut values = candidates.to_vec();
    values.push(frozen);
    let best = values.iter().map(|&v| cost[v as usize]).min().unwrap();
    let ties: Vec<i64> = values
        .into_iter()
        .filter(|&v| cost[v as usize] == best)
        .collect();
    if ties.contains(&frozen) {
        frozen
    } else {
        *ties.iter().min().unwrap()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn table_is_the_brute_force_argmin(
        seed in 0u64..u64::MAX,
        knobs in prop::collection::vec(
            (
                0i64..16,
                prop::collection::vec(0i64..16, 0..6),
                prop::collection::vec(0u8..4, 16..17),
            ),
            1..6,
        ),
    ) {
        let run = || {
            let mut tuner = Tuner::new(seed, "prop");
            for (i, (frozen, candidates, cost)) in knobs.iter().enumerate() {
                let spec = KnobSpec::new(&format!("prop.k{i}"), *frozen, candidates);
                tuner.tune(&spec, &mut TableCost(cost.clone()));
            }
            tuner.finish()
        };
        let report = run();

        let mut expect = TunedTable::new(seed, "prop");
        for (i, (frozen, candidates, cost)) in knobs.iter().enumerate() {
            expect.set(&format!("prop.k{i}"), argmin(*frozen, candidates, cost));
        }
        prop_assert_eq!(&report.table, &expect);
        prop_assert_eq!(run().table.to_json(), report.table.to_json());
    }
}
