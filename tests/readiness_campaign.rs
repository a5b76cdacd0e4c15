//! End-to-end integration: the full readiness campaign across all ten
//! applications, asserting the Table 2 shape — who wins, by what factor —
//! plus the structural invariants of the campaign machinery.

use exaready::apps::{all_applications, table2_applications};
use exaready::core::{PortingCampaign, SpeedupTarget};
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

/// Campaigns across the early-access timeline are monotone: each hardware
/// generation gets every application closer to (or past) its target.
#[test]
fn campaigns_improve_across_early_access_generations() {
    for app in all_applications() {
        let mut campaign = PortingCampaign::new(app.as_ref(), SpeedupTarget::caar());
        campaign.run_standard_timeline();
        let stages = campaign.report().stages;
        assert_eq!(stages.len(), 5);
        // The AMD generations broadly improve. Mild wobbles are allowed —
        // and physical: an underfilled launch can run faster on the MI60's
        // higher-clocked CUs than on the MI100's wider array, the same kind
        // of surprise early access exists to surface (§4).
        let fom = app.fom();
        for w in stages[1..].windows(2) {
            let gain = fom.speedup(w[0].measurement.value, w[1].measurement.value);
            assert!(
                gain >= 0.85,
                "{}: {} -> {} regressed badly ({gain:.3})",
                app.name(),
                w[0].machine,
                w[1].machine
            );
        }
        // The final Frontier stage is the best AMD stage for every app.
        let frontier_fom = stages.last().expect("five stages").measurement.value;
        for s in &stages[1..4] {
            let gain = fom.speedup(s.measurement.value, frontier_fom);
            assert!(
                gain >= 1.0,
                "{}: Frontier ({frontier_fom:.3e}) must beat {} ({:.3e})",
                app.name(),
                s.machine,
                s.measurement.value
            );
        }
        // Crusher (stage 3) is the Frontier node: per-device FOMs match the
        // Frontier run for per-device-basis apps.
        let report = campaign.report();
        assert_eq!(report.stages.len(), 5);
        assert_eq!(report.final_machine, "Frontier");
    }
}

/// Readiness reports serialize and render.
#[test]
fn readiness_reports_are_complete() {
    for app in all_applications() {
        let mut campaign = PortingCampaign::new(app.as_ref(), SpeedupTarget::caar());
        campaign.run_stage(&MachineModel::summit(), "baseline");
        campaign.run_stage(&MachineModel::frontier(), "final");
        let report = campaign.report();
        let text = format!("{report}");
        assert!(text.contains(app.name()));
        assert!(text.contains("Summit") && text.contains("Frontier"));
        assert!(
            !report.motifs.is_empty(),
            "{} declares no motifs",
            app.name()
        );
        let json = serde_json::to_string(&report).expect("report serializes");
        assert!(json.contains("measured_speedup"));
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
