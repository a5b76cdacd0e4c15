//! Bit-identity oracle for the campaign service's cost-model back end:
//! every `evaluate_query` answer over all ten applications × all ten
//! machine models × six node counts × four knob settings, folded into one
//! FNV-1a digest per application. A change that moves any FOM, simulated
//! wall, span count or node count by one bit changes its app's digest.

use exaready::apps::query::{evaluate_query, APP_NAMES, MACHINE_NAMES};

/// Node overrides: 0 keeps each machine's full scale.
const NODES: [u32; 6] = [0, 1, 16, 128, 1024, 4096];

/// Knob settings: none, then one injection each.
const KNOBS: [Option<(&str, f64)>; 4] = [
    None,
    Some(("comm", 1.25)),
    Some(("transform", 1.5)),
    Some(("kernel", 0.8)),
];

/// Digest of every answer of `app`, in machine × nodes × knob order.
fn app_digest(app: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    for machine in MACHINE_NAMES {
        for nodes in NODES {
            for knob in KNOBS {
                let knobs: Vec<(String, f64)> =
                    knob.iter().map(|&(k, f)| (k.to_string(), f)).collect();
                match evaluate_query(app, machine, nodes, &knobs, "") {
                    None => feed(&[0]),
                    Some(a) => {
                        feed(&[1]);
                        feed(&a.fom_value.to_bits().to_le_bytes());
                        feed(&a.wall_s.to_bits().to_le_bytes());
                        feed(&a.spans.to_le_bytes());
                        feed(&a.nodes.to_le_bytes());
                    }
                }
            }
        }
    }
    hash
}

/// Per-application digests, recorded before transposes were priced from
/// partner totals.
const GOLDEN: [(&str, u64); 10] = [
    ("GAMESS", 0x08648db508b56da9),
    ("LSMS", 0x44d4b1a27593d379),
    ("GESTS", 0xe90f441b7e23e63e),
    ("ExaSky", 0x30021946ba02be41),
    ("E3SM", 0xa5f2a6450f545789),
    ("CoMet", 0x990022a012030311),
    ("NuCCOR", 0x62e2ba95a4c9d2e9),
    ("Pele", 0x8547f355c91dd60d),
    ("COAST", 0x9933fc47bff914f9),
    ("LAMMPS", 0x7128e09cee18fb79),
];

#[test]
fn every_answer_keeps_its_bits() {
    let apps: Vec<&str> = GOLDEN.iter().map(|g| g.0).collect();
    assert_eq!(apps, APP_NAMES, "one golden digest per application");
    let got: Vec<(&str, u64)> = APP_NAMES.iter().map(|&a| (a, app_digest(a))).collect();
    for ((app, want), (_, have)) in GOLDEN.iter().zip(&got) {
        assert_eq!(
            have, want,
            "{app}: answer digest {have:#018x}, want {want:#018x}"
        );
    }
}
