//! Property tests for the campaign service (ISSUE-9 satellite): the LRU
//! never exceeds its configured capacity under arbitrary insert
//! sequences, cached answers stay bit-identical to cold evaluation under
//! arbitrary knob/scale fuzz, and the query language round-trips.

use exa_serve::{CacheStatus, CampaignService, Query, ServeConfig, ShardedLru};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lru_never_exceeds_capacity(
        shards in 1usize..5,
        per_shard in 1usize..6,
        keys in prop::collection::vec(0u32..40, 1..120),
    ) {
        let mut cache: ShardedLru<u32> = ShardedLru::new(shards, per_shard);
        for (i, k) in keys.iter().enumerate() {
            cache.insert(&format!("key{k}"), i as u32);
            prop_assert!(cache.len() <= cache.capacity(),
                "len {} exceeded capacity {}", cache.len(), cache.capacity());
            for occ in cache.shard_occupancy() {
                prop_assert!(occ <= per_shard, "shard occupancy {occ} > {per_shard}");
            }
        }
        // Everything still resident answers with the value last written.
        let last: std::collections::HashMap<u32, u32> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (*k, i as u32))
            .collect();
        for (k, v) in last {
            if let Some(got) = cache.get(&format!("key{k}")) {
                prop_assert_eq!(got, v, "stale value for key{}", k);
            }
        }
    }

    #[test]
    fn warm_answers_are_bit_identical_to_cold_under_fuzz(
        app_idx in 0usize..4,
        nodes in 0u32..2000,
        factor in 0.5f64..4.0,
        needle_idx in 0usize..3,
        scenario_idx in 0usize..4,
    ) {
        // Cheap cost-model apps only: the property is about cache
        // transparency, not evaluator coverage (the integration test
        // walks all eight Table-2 apps).
        let app = ["CoMet", "LSMS", "GAMESS", "LAMMPS"][app_idx];
        let needle = ["comm", "transform", "__none"][needle_idx];
        let scenario = ["", "sweep", "drill", "x1"][scenario_idx];
        let mut q = Query::new(app, "Frontier")
            .with_nodes(nodes)
            .with_knob(needle, factor);
        q.scenario = scenario.to_string();
        let text = vec![q.render()];
        let mut svc = CampaignService::new(ServeConfig { threads: 1, ..ServeConfig::default() });
        let cold = svc.run_batch(&text);
        let warm = svc.run_batch(&text);
        prop_assert_eq!(cold[0].status, CacheStatus::Miss);
        prop_assert_eq!(warm[0].status, CacheStatus::Hit);
        let a = cold[0].answer.as_ref().unwrap();
        let b = warm[0].answer.as_ref().unwrap();
        prop_assert_eq!(a, b);
        prop_assert_eq!(a.fom_value.to_bits(), b.fom_value.to_bits());
        prop_assert_eq!(a.wall_s.to_bits(), b.wall_s.to_bits());
    }

    #[test]
    fn query_text_round_trips(
        app_idx in 0usize..8,
        machine_idx in 0usize..3,
        nodes in 0u32..5000,
        factors in prop::collection::vec(0.25f64..8.0, 0..3),
        scenario_idx in 0usize..4,
    ) {
        let app = exa_apps::query::APP_NAMES[app_idx];
        let machine = ["Frontier", "Summit", "Spock"][machine_idx];
        let mut q = Query::new(app, machine).with_nodes(nodes);
        for (i, f) in factors.iter().enumerate() {
            q = q.with_knob(&format!("knob{i}"), *f);
        }
        q.scenario = ["", "sweep", "ckpt_3", "mtbf"][scenario_idx].to_string();
        let parsed = Query::parse(&q.render()).expect("render always parses");
        prop_assert_eq!(&parsed, &q);
        prop_assert_eq!(parsed.key(), q.key());
    }

    /// Distinct parsed queries have distinct cache keys, over knob needles
    /// drawn with the key's `|` separator and scenario tags drawn with `|`
    /// and `=` (a needle cannot hold `=`: it ends the token's key). Half
    /// the pairs are a query and its forgery: the same query with its
    /// last knob spelled into the scenario tag in key form.
    #[test]
    fn distinct_queries_have_distinct_keys(
        a in query_text(),
        b in query_text(),
        forge in 0u8..2,
    ) {
        let b = if forge == 1 { forged(&a).unwrap_or(b) } else { b };
        if let (Ok(qa), Ok(qb)) = (Query::parse(&a), Query::parse(&b)) {
            if qa != qb {
                prop_assert!(qa.key() != qb.key(), "'{}' and '{}' share key {}", a, b, qa.key());
            }
        }
    }
}

/// Query text whose knob needles and scenario tag are drawn from
/// alphabets that include the cache key's separators.
fn query_text() -> impl Strategy<Value = String> {
    let word = prop::collection::vec(0usize..4, 1..5).prop_map(|cs| {
        cs.into_iter()
            .map(|c| ['a', 'b', '|', '='][c])
            .collect::<String>()
    });
    let knob = (
        prop::collection::vec(0usize..4, 1..4).prop_map(|cs| {
            cs.into_iter()
                .map(|c| ['a', 'b', '|', 'c'][c])
                .collect::<String>()
        }),
        1u32..4,
    );
    (prop::collection::vec(knob, 0..3), word, 0u8..2).prop_map(|(knobs, tag, tagged)| {
        let mut text = "app=LSMS machine=Summit".to_string();
        for (needle, factor) in knobs {
            text.push_str(&format!(" knob:{needle}={factor}"));
        }
        if tagged == 1 {
            text.push_str(&format!(" scenario={tag}"));
        }
        text
    })
}

/// `text` with its last knob moved into the scenario tag as the key spells
/// it (`<needle>=<factor bits>|<tag>`); `None` when `text` has no knob or
/// does not parse.
fn forged(text: &str) -> Option<String> {
    let q = Query::parse(text).ok()?;
    let (needle, factor) = q.knobs.last()?;
    let mut forged = Query::new(&q.app, &q.machine);
    for (n, f) in &q.knobs[..q.knobs.len() - 1] {
        forged = forged.with_knob(n, *f);
    }
    forged.scenario = format!("{needle}={:016x}|{}", factor.to_bits(), q.scenario);
    Some(forged.render())
}
