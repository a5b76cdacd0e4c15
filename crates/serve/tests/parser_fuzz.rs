//! The query grammar under arbitrary input: `Query::parse` returns a typed
//! error and never panics, every accepted query round-trips through
//! `render`, and `run_batch` answers or rejects every string it is sent,
//! one outcome per input, with a message on each rejection.

use exa_apps::query::{APP_NAMES, MACHINE_NAMES};
use exa_serve::{CacheStatus, CampaignService, Query, ServeConfig};
use proptest::prelude::*;

/// Pieces of the grammar, its separators and number syntax, and text the
/// grammar has no place for.
const FRAGMENTS: [&str; 30] = [
    "app=",
    "machine=",
    "nodes=",
    "scenario=",
    "knob:",
    "=",
    " ",
    "\t",
    "\n",
    "\u{2003}",
    "|",
    "\\",
    "0",
    "7",
    ".",
    "-",
    "+",
    "e",
    "inf",
    "NaN",
    "4294967296",
    "1e309",
    "GESTS",
    "pele",
    "CORI",
    "comm",
    "x",
    "é",
    "🚀",
    "\u{0}",
];

/// Arbitrary text: grammar fragments mixed with any Unicode scalar value.
fn text() -> impl Strategy<Value = String> {
    let piece = (0u8..3, 0usize..FRAGMENTS.len(), 0u32..0x11_0000).prop_map(|(kind, f, c)| {
        if kind < 2 {
            FRAGMENTS[f].to_string()
        } else {
            char::from_u32(c).unwrap_or('\u{fffd}').to_string()
        }
    });
    prop::collection::vec(piece, 0..24).prop_map(|pieces| pieces.concat())
}

/// Query-shaped text: an app and a machine token among up to four
/// optional, duplicated or malformed ones, in any order, so that about
/// half the strings parse.
fn query_like() -> impl Strategy<Value = String> {
    let extra = (0u8..10, 0usize..5, 0u32..2048, 1u32..40).prop_map(|(kind, i, n, f)| match kind {
        0..=2 => format!("nodes={n}"),
        3..=6 => format!(
            "knob:{}={}",
            ["comm", "transform", "kernel", "block", "a|b"][i],
            f as f64 / 8.0
        ),
        7 | 8 => format!("scenario={}", ["sweep", "drill", "é", "s|t", "x=y"][i]),
        _ => ["bogus=1", "naked", "nodes=-1", "knob:=2", "knob:comm=0"][i].to_string(),
    });
    (
        0usize..10,
        0usize..10,
        prop::collection::vec(extra, 0..4),
        0usize..8,
    )
        .prop_map(|(app, machine, extras, rotate)| {
            let mut tokens = vec![
                format!("app={}", APP_NAMES[app]),
                format!("machine={}", MACHINE_NAMES[machine].to_lowercase()),
            ];
            tokens.extend(extras);
            let k = rotate % tokens.len();
            tokens.rotate_left(k);
            tokens.join(" ")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parse_never_panics_and_accepted_queries_round_trip(raw in text(), shaped in query_like()) {
        for text in [raw, shaped] {
            if let Ok(q) = Query::parse(&text) {
                let again = Query::parse(&q.render());
                prop_assert_eq!(again.as_ref(), Ok(&q), "'{}' renders as '{}'", text, q.render());
                prop_assert_eq!(again.map(|a| a.key()), Ok(q.key()));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn run_batch_answers_or_rejects_every_string(
        raw in prop::collection::vec(text(), 0..4),
        shaped in prop::collection::vec(query_like(), 0..6),
        threads in 1usize..3,
    ) {
        let batch: Vec<String> = raw.into_iter().chain(shaped).collect();
        let mut svc = CampaignService::new(ServeConfig { threads, ..ServeConfig::default() });
        let outcomes = svc.run_batch(&batch);
        prop_assert_eq!(outcomes.len(), batch.len());
        for (text, o) in batch.iter().zip(&outcomes) {
            prop_assert_eq!(o.status == CacheStatus::Error, o.answer.is_none(), "{}", text);
            prop_assert_eq!(o.status == CacheStatus::Error, o.error.is_some(), "{}", text);
            if let Err(e) = Query::parse(text) {
                prop_assert_eq!(o.error.as_deref(), Some(e.as_str()), "{}", text);
            }
        }
    }
}
