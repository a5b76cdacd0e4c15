//! Table 1 — Application Porting Motifs.
//!
//! Regenerates the motif ⇄ application matrix from each mini-app's
//! declared metadata, and checks it against the paper's table.

use crate::{header, write_json, Gate};
use exa_apps::all_applications;
use exa_core::Motif;
use serde::Serialize;
use std::collections::BTreeMap;

#[derive(Serialize)]
struct Table1Row {
    motif: String,
    applications: Vec<String>,
}

/// The paper's Table 1, for comparison.
fn paper_table() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        (
            "CUDA/HIP Porting",
            vec!["GAMESS", "CoMet", "NuCCOR", "Coast"],
        ),
        (
            "Library Tuning",
            vec!["GAMESS", "LSMS", "GESTS", "CoMet", "LAMMPS"],
        ),
        (
            "Performance Portability",
            vec!["GESTS", "ExaSky", "E3SM", "NuCCOR", "Pele"],
        ),
        ("Kernel Fusion/Fission", vec!["E3SM", "Pele", "LAMMPS"]),
        (
            "Algorithmic Optimizations",
            vec!["LSMS", "ExaSky", "E3SM", "CoMet", "Pele", "LAMMPS"],
        ),
    ]
}

pub fn run() -> Gate {
    header("Table 1: Application Porting Motifs");
    let apps = all_applications();
    let mut rows = Vec::new();
    let mut missing = Vec::new();

    let paper: BTreeMap<&str, Vec<&str>> = paper_table().into_iter().collect();
    for &motif in Motif::all() {
        let ours: Vec<String> = apps
            .iter()
            .filter(|a| a.motifs().contains(&motif))
            .map(|a| a.name().to_string())
            .collect();
        println!("{:<26} | {}", motif.label(), ours.join(", "));
        if let Some(expected) = paper.get(motif.label()) {
            for e in expected {
                // The paper writes "Coast"; we normalise case.
                let found = ours.iter().any(|o| o.eq_ignore_ascii_case(e));
                if !found {
                    let miss = format!("paper lists {e} under {} — missing here", motif.label());
                    println!("    !! {miss}");
                    missing.push(miss);
                }
            }
        }
        rows.push(Table1Row {
            motif: motif.label().to_string(),
            applications: ours,
        });
    }
    println!(
        "\npaper-row coverage: {}",
        if missing.is_empty() {
            "every paper entry reproduced".into()
        } else {
            format!("{} entries missing", missing.len())
        }
    );
    write_json("table1_motifs", &rows);
    crate::gate(missing)
}
