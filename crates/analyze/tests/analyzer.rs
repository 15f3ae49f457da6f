//! Integration tests: the analyzer over committed fixture trees (seeded
//! violations under `tests/fixtures/dirty`, a suppressed-but-clean tree
//! under `tests/fixtures/clean`) plus the real workspace, and the CLI's
//! exit-code contract.

use rpq_analyze::{analyze_workspace, Rule};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

#[test]
fn dirty_fixture_trips_every_lint() {
    let report = analyze_workspace(&fixture("dirty")).expect("fixture tree analyzes");
    let count = |rule: Rule| report.findings.iter().filter(|f| f.rule == rule).count();

    // worker.rs: unwrap + v[0] + v[1]; store lib.rs: four unwraps.
    assert_eq!(count(Rule::PanicFreedom), 7, "{:#?}", report.findings);
    // recv under the ready-queue lock, plus the registry/database order
    // cycle (reported once per participating edge direction, deduped).
    assert!(count(Rule::LockDiscipline) >= 2, "{:#?}", report.findings);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == Rule::LockDiscipline && f.message.contains("cycle")),
        "no lock-order cycle reported: {:#?}",
        report.findings
    );
    // ticket(): consumed relaxed fetch_add.
    assert_eq!(count(Rule::AtomicOrdering), 1, "{:#?}", report.findings);
    // `mystery` undocumented + uncounted; `ghost` counted but unparsed; the
    // counter table's family `rpq_requests_total` and key `hidden`.
    assert_eq!(count(Rule::WireProtocol), 5, "{:#?}", report.findings);
    for counter in ["metric family `rpq_requests_total`", "stats key `hidden`"] {
        assert!(
            report.findings.iter().any(|f| f.message.contains(counter)),
            "{counter} not reported: {:#?}",
            report.findings
        );
    }
    // The reason-less allow above `oops` (and it suppresses nothing).
    assert_eq!(count(Rule::Annotation), 1, "{:#?}", report.findings);
    assert_eq!(report.suppressed, 0);
}

#[test]
fn clean_fixture_is_green_and_counts_suppressions() {
    let report = analyze_workspace(&fixture("clean")).expect("fixture tree analyzes");
    assert_eq!(report.findings, vec![], "clean fixture must have no findings");
    assert_eq!(report.suppressed, 1, "the reasoned allow must be counted");
}

#[test]
fn real_workspace_is_green() {
    // The repo root is two levels above this crate. Keeping this green is
    // the point of the lint pass: new findings must be fixed or annotated.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = analyze_workspace(&root).expect("workspace analyzes");
    assert_eq!(report.findings, vec![], "the merged tree must analyze clean");
    assert!(report.files > 30, "expected the full workspace, saw {} files", report.files);
    assert!(report.suppressed > 0, "the annotated exceptions should be counted");
}

#[test]
fn cli_exit_codes() {
    let bin = env!("CARGO_BIN_EXE_rpq-analyze");
    let run = |root: &str| {
        let out = Command::new(bin).arg(root).output().expect("analyzer runs");
        (out.status.code(), String::from_utf8_lossy(&out.stdout).into_owned())
    };

    let (code, stdout) = run(fixture("dirty").to_str().unwrap());
    assert_eq!(code, Some(1), "findings must exit 1:\n{stdout}");
    assert!(stdout.contains("[panic-freedom]"), "diagnostics on stdout:\n{stdout}");
    assert!(stdout.contains("[wire-protocol]"), "diagnostics on stdout:\n{stdout}");

    let (code, stdout) = run(fixture("clean").to_str().unwrap());
    assert_eq!(code, Some(0), "clean tree must exit 0:\n{stdout}");
    assert!(stdout.contains("(1 suppressed by `lint: allow`)"), "summary line:\n{stdout}");

    let (code, _) = run("/nonexistent/analyzer/root");
    assert_eq!(code, Some(2), "I/O problems must exit 2");

    let usage = Command::new(bin).args(["a", "b"]).output().expect("analyzer runs");
    assert_eq!(usage.status.code(), Some(2), "bad usage must exit 2");
}
