//! The `reproduce` command line: usage errors, the `list` contract, and
//! every `reproduce <name>` the docs and scripts tell a reader to run.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce runs")
}

/// The experiment names `reproduce list` prints, one per line.
fn listed() -> Vec<String> {
    let out = reproduce(&["list"]);
    assert!(out.status.success());
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|l| l.split_whitespace().next().unwrap().to_string())
        .collect()
}

#[test]
fn unknown_subcommand_prints_usage_and_exits_2() {
    for args in [&["no_such_experiment"][..], &[], &["list", "fig1_shoc"]] {
        let out = reproduce(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: reproduce"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn list_names_are_unique_and_cover_every_former_target() {
    let names = listed();
    let unique: BTreeSet<&String> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "duplicate names in {names:?}");
    assert_eq!(names.len(), 23);
}

/// Every experiment name a text passes to `reproduce`: the words after
/// `` `reproduce `` (inline code) or `--bin reproduce -- ` (a cargo
/// command line), up to the first word that is not a bare identifier.
fn doc_commands(text: &str) -> Vec<String> {
    let mut names = Vec::new();
    for anchor in ["`reproduce ", "--bin reproduce -- "] {
        for (at, _) in text.match_indices(anchor) {
            for word in text[at + anchor.len()..].split(' ') {
                let name: String = word
                    .chars()
                    .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_')
                    .collect();
                if !name.is_empty() {
                    names.push(name.clone());
                }
                if name.is_empty() || name.len() < word.len() {
                    break;
                }
            }
        }
    }
    names
}

#[test]
fn every_documented_command_names_a_real_subcommand() {
    let mut known: BTreeSet<String> = listed().into_iter().collect();
    known.extend(["list", "paper", "gates"].map(String::from));
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for doc in [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "scripts/tier1.sh",
        ".claude/skills/verify/SKILL.md",
    ] {
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        let names = doc_commands(&text);
        assert!(!names.is_empty(), "{doc} names no reproduce command");
        for name in names {
            assert!(
                known.contains(&name),
                "{doc}: `reproduce {name}` is not a subcommand"
            );
        }
    }
}

#[test]
fn doc_commands_parses_both_command_forms() {
    let text = "run `reproduce fig1_shoc` or\n\
                cargo run --bin reproduce -- paper autotune \\\n  more\n\
                `reproduce <name>...` and `reproduce list`.";
    assert_eq!(
        doc_commands(text),
        ["fig1_shoc", "list", "paper", "autotune"]
    );
}
