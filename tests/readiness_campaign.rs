//! End-to-end integration: all ten applications across the early-access
//! timeline, asserting the Table 2 shape — who wins, by what factor.

use exaready::apps::{all_applications, table2_applications};
use exaready::machine::MachineModel;

/// Every Table 2 application reproduces its paper speed-up to within 15 %
/// (GESTS to within its "in excess of 5x" wording — see EXPERIMENTS.md).
#[test]
fn table2_speedups_match_paper_shape() {
    for app in table2_applications() {
        let paper = app.paper_speedup().expect("table 2 app");
        let measured = app.measure_speedup();
        if app.name() == "GESTS" {
            assert!(
                measured > 5.0 && measured < 9.0,
                "GESTS must land 'in excess of 5x': {measured}"
            );
        } else {
            let err = (measured - paper).abs() / paper;
            assert!(
                err < 0.15,
                "{}: measured {measured:.2} vs paper {paper} ({:.0}% off)",
                app.name(),
                err * 100.0
            );
        }
    }
}

/// Frontier beats Summit for every application — the paper's headline.
#[test]
fn frontier_always_wins() {
    for app in all_applications() {
        let s = app.measure_speedup();
        assert!(s > 1.0, "{} regressed on Frontier: {s}", app.name());
    }
}

/// §6: "performance improvements between 5x and 7x vs. OLCF Summit (on a
/// per device or scaled-out basis) being typical" — the median sits there.
#[test]
fn typical_speedup_is_5x_to_7x() {
    let mut speedups: Vec<f64> = table2_applications()
        .iter()
        .map(|a| a.measure_speedup())
        .collect();
    speedups.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median = speedups[speedups.len() / 2];
    assert!((4.5..=7.5).contains(&median), "median speed-up {median}");
    // And everything lands in the paper's overall envelope.
    assert!(speedups.iter().all(|&s| s > 3.5 && s < 9.0), "{speedups:?}");
}

/// The ordering of winners matches Table 2: LSMS and COAST at the top,
/// ExaSky and Pele at the bottom.
#[test]
fn speedup_ordering_matches_table2() {
    let by_name = |name: &str| -> f64 {
        table2_applications()
            .iter()
            .find(|a| a.name() == name)
            .expect("app exists")
            .measure_speedup()
    };
    let lsms = by_name("LSMS");
    let coast = by_name("COAST");
    let exasky = by_name("ExaSky");
    let pele = by_name("Pele");
    let gamess = by_name("GAMESS");
    assert!(lsms > gamess && coast > gamess, "LSMS/COAST lead the table");
    assert!(
        exasky < gamess && pele < gamess,
        "ExaSky/Pele trail the table"
    );
}

/// Runs across the early-access timeline are monotone: each hardware
/// generation gets every application closer to (or past) its target.
#[test]
fn campaigns_improve_across_early_access_generations() {
    let timeline = [
        MachineModel::summit(),
        MachineModel::poplar(),
        MachineModel::spock(),
        MachineModel::crusher(),
        MachineModel::frontier(),
    ];
    for app in all_applications() {
        let foms: Vec<f64> = timeline.iter().map(|m| app.run(m).value).collect();
        // The AMD generations broadly improve. Mild wobbles are allowed —
        // and physical: an underfilled launch can run faster on the MI60's
        // higher-clocked CUs than on the MI100's wider array, the same kind
        // of surprise early access exists to surface (§4). The final
        // Frontier run is the best AMD run for every app.
        let fom = app.fom();
        for w in 1..4 {
            let gain = fom.speedup(foms[w], foms[w + 1]);
            assert!(
                gain >= 0.85,
                "{}: {} -> {} regressed badly ({gain:.3})",
                app.name(),
                timeline[w].name,
                timeline[w + 1].name
            );
            let gain = fom.speedup(foms[w], foms[4]);
            assert!(
                gain >= 1.0,
                "{}: Frontier ({:.3e}) must beat {} ({:.3e})",
                app.name(),
                foms[4],
                timeline[w].name,
                foms[w]
            );
        }
    }
}

/// Every §3 application is represented, with correct paper sections.
#[test]
fn all_ten_applications_present() {
    let apps = all_applications();
    assert_eq!(apps.len(), 10);
    let sections: Vec<&str> = apps.iter().map(|a| a.paper_section()).collect();
    assert_eq!(
        sections,
        vec!["3.1", "3.2", "3.3", "3.4", "3.5", "3.6", "3.7", "3.8", "3.9", "3.10"]
    );
    // Eight of them are in Table 2.
    assert_eq!(table2_applications().len(), 8);
}
