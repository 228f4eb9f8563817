//! End-to-end fixture tests: every rule fires on a small fixture
//! workspace under `tests/fixtures/`, every suppression mechanism holds,
//! and the `simlint` binary's exit codes match its contract.
//!
//! The fixture trees are excluded from real workspace analysis (the
//! walker skips directories named `fixtures`), so the deliberate
//! violations below never fail the repository's own simlint run.

use std::path::{Path, PathBuf};
use std::process::Command;

use analyzer::baseline::Baseline;
use analyzer::rules::RuleId;
use analyzer::workspace::{analyze, Analysis};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn analyzed(name: &str) -> Analysis {
    analyze(&fixture(name)).expect("fixture analyzes")
}

fn rules_fired(a: &Analysis) -> Vec<RuleId> {
    a.findings.iter().map(|f| f.rule).collect()
}

#[test]
fn clean_fixture_produces_no_findings() {
    let a = analyzed("clean");
    assert!(a.findings.is_empty(), "unexpected: {:?}", a.findings);
    assert!(a.r001.is_empty());
    assert!(a.d004.is_empty());
}

#[test]
fn hashmap_in_sim_crate_fires_d001() {
    let a = analyzed("violations");
    let d001: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.rule == RuleId::D001)
        .collect();
    assert_eq!(d001.len(), 2, "use line + call line: {d001:?}");
    assert!(d001.iter().all(|f| f.path == "crates/netsim/src/lib.rs"));
}

#[test]
fn hashmap_outside_sim_crates_is_not_d001() {
    let a = analyzed("violations");
    assert!(
        !a.findings
            .iter()
            .any(|f| f.path.starts_with("crates/util/")),
        "crate `util` is not a sim crate; D001 must not fire there"
    );
}

#[test]
fn wall_clock_fires_d002() {
    let a = analyzed("violations");
    let d002: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.rule == RuleId::D002)
        .collect();
    assert_eq!(d002.len(), 1, "{d002:?}");
    assert!(d002[0].message.contains("Instant::now"));
}

#[test]
fn unseeded_rng_fires_d003() {
    let a = analyzed("violations");
    let d003: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.rule == RuleId::D003)
        .collect();
    assert_eq!(d003.len(), 1, "{d003:?}");
    assert!(d003[0].message.contains("thread_rng"));
}

#[test]
fn missing_forbid_attribute_and_unsafe_code_fire_s001() {
    let a = analyzed("s001");
    let s001: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.rule == RuleId::S001)
        .collect();
    // One finding for the missing `#![forbid(unsafe_code)]` attribute,
    // one for the `unsafe` block itself.
    assert_eq!(s001.len(), 2, "{s001:?}");
}

#[test]
fn allow_annotations_suppress_d001() {
    let a = analyzed("allows");
    assert!(a.findings.is_empty(), "unexpected: {:?}", a.findings);
}

#[test]
fn annotation_without_reason_fires_a001() {
    let a = analyzed("malformed");
    assert_eq!(rules_fired(&a), vec![RuleId::A001]);
    assert!(a.findings[0].message.contains("missing reason"));
}

#[test]
fn unwrap_and_expect_sites_are_counted_for_r001() {
    let a = analyzed("ratchet");
    assert_eq!(
        a.r001.get("crates/netsim/src/lib.rs").map(Vec::len),
        Some(2)
    );
    // R001 sites are ratchet-governed, not hard findings.
    assert!(a.findings.is_empty(), "unexpected: {:?}", a.findings);
}

#[test]
fn ratchet_rejects_count_increases_and_notes_improvements() {
    let a = analyzed("ratchet");

    let tight = Baseline::parse("[r001]\n\"crates/netsim/src/lib.rs\" = 1\n").unwrap();
    let (regressions, _) = a.ratchet(&tight);
    assert_eq!(regressions.len(), 1);
    assert!(regressions[0].message.contains("baseline tolerates 1"));

    let exact = Baseline::parse("[r001]\n\"crates/netsim/src/lib.rs\" = 2\n").unwrap();
    let (regressions, improvements) = a.ratchet(&exact);
    assert!(regressions.is_empty());
    assert!(improvements.is_empty());

    let loose = Baseline::parse("[r001]\n\"crates/netsim/src/lib.rs\" = 3\n").unwrap();
    let (regressions, improvements) = a.ratchet(&loose);
    assert!(regressions.is_empty());
    assert_eq!(improvements.len(), 1, "slack must prompt a ratchet-down");
}

#[test]
fn new_files_are_held_to_zero() {
    let a = analyzed("ratchet");
    let (regressions, _) = a.ratchet(&Baseline::default());
    assert_eq!(regressions.len(), 1, "no baseline entry means zero budget");
}

#[test]
fn node_keyed_maps_are_counted_for_d004() {
    let a = analyzed("d004");
    // Two live sites (the D004-waived one and the PacketId-keyed map do
    // not count); the non-sim `util` crate is out of scope entirely.
    assert_eq!(
        a.d004.get("crates/netsim/src/lib.rs").map(Vec::len),
        Some(2)
    );
    assert!(!a.d004.contains_key("crates/util/src/lib.rs"));
    // D004 sites are ratchet-governed, not hard findings.
    assert!(a.findings.is_empty(), "unexpected: {:?}", a.findings);
}

#[test]
fn d004_ratchet_enforces_baseline_counts() {
    let a = analyzed("d004");

    let tight = Baseline::parse("[d004]\n\"crates/netsim/src/lib.rs\" = 1\n").unwrap();
    let (regressions, _) = a.ratchet(&tight);
    assert_eq!(regressions.len(), 1);
    assert_eq!(regressions[0].rule, RuleId::D004);
    assert!(regressions[0].message.contains("baseline tolerates 1"));

    let exact = Baseline::parse("[d004]\n\"crates/netsim/src/lib.rs\" = 2\n").unwrap();
    let (regressions, improvements) = a.ratchet(&exact);
    assert!(regressions.is_empty());
    assert!(improvements.is_empty());

    let (regressions, _) = a.ratchet(&Baseline::default());
    assert_eq!(regressions.len(), 1, "no baseline entry means zero budget");
}

fn run_simlint(root: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_simlint"))
        .args(["--root", root.to_str().unwrap()])
        .output()
        .expect("simlint runs")
}

#[test]
fn binary_exits_zero_on_clean_tree() {
    let out = run_simlint(&fixture("clean"));
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn binary_exits_nonzero_when_hashmap_and_wall_clock_enter_netsim() {
    let out = run_simlint(&fixture("violations"));
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[D001]"), "{stdout}");
    assert!(stdout.contains("error[D002]"), "{stdout}");
}

#[test]
fn binary_enforces_committed_ratchet_baseline() {
    // The fixture's committed baseline tolerates 1 site; the tree has 2.
    let out = run_simlint(&fixture("ratchet"));
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[R001]"), "{stdout}");
}

#[test]
fn binary_enforces_committed_d004_baseline() {
    // Two node-keyed maps, the committed baseline tolerates one.
    let out = run_simlint(&fixture("d004"));
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[D004]"), "{stdout}");
    assert!(
        stdout.contains("DenseMap"),
        "help must point at the dense types: {stdout}"
    );
}
