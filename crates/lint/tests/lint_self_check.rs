//! The report, pointed at the live workspace.
//!
//! The tree this crate ships in must walk whole: every crate found, and
//! the product share of its lines measured.

#![forbid(unsafe_code)]

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("workspace root")
}

#[test]
fn live_workspace_is_clean() {
    let report = odflow_lint::lint_root(&workspace_root()).expect("lint workspace");
    assert!(report.files_scanned > 50, "walk found only {} files", report.files_scanned);
    assert!(report.lines_scanned > 100 * report.files_scanned, "{} lines", report.lines_scanned);
    // Vendored shims, test files and test modules are a good share of it.
    let product = report.product_lines;
    assert!(product > 0 && product < report.lines_scanned, "{product} product lines");
    // The root package, the `crates/` members, the `vendor/` shims.
    let dirs = |d: &str| {
        let entries = std::fs::read_dir(workspace_root().join(d)).expect(d);
        entries.filter(|e| e.as_ref().is_ok_and(|e| e.path().is_dir())).count()
    };
    assert_eq!(report.workspace_crates, 1 + dirs("crates") + dirs("vendor"));
}
