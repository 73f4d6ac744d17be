//! The gate, pointed at the live workspace.
//!
//! This is the acceptance check in test form: the tree this crate ships in
//! must satisfy every invariant, and the suppressions that keep it clean
//! must all be load-bearing (an unused allow is itself a violation, so
//! `allows_used` equals the number of annotations in the tree).

#![forbid(unsafe_code)]

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("workspace root")
}

#[test]
fn live_workspace_is_clean() {
    let report = odflow_lint::lint_root(&workspace_root()).expect("lint workspace");
    assert!(report.is_clean(), "the workspace must pass its own gate:\n{}", report.render_text());
    // The four justified suppressions: the THREADS_ENV read and its test,
    // and the two operator-facing wall-clock timers.
    assert!(
        report.allows_used >= 4,
        "expected the known justified allows to be in use, got {}",
        report.allows_used
    );
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

#[test]
fn reintroduced_violation_fails_the_gate() {
    // Take a real workspace file, strip one allow annotation, and check
    // the gate re-exposes the violation it was suppressing.
    let root = workspace_root();
    let rel = "crates/par/src/lib.rs";
    let source = std::fs::read_to_string(root.join(rel)).expect("read par lib");
    let without_allow: String = source
        .lines()
        .filter(|l| !l.trim_start().starts_with("// lint:allow(env-read-containment)"))
        .collect::<Vec<_>>()
        .join("\n");
    assert_ne!(source, without_allow, "the annotation under test must exist");

    let fc = odflow_lint::walk::classify(std::path::Path::new(rel));
    let (clean_diags, used) = odflow_lint::check_source(&fc, &source);
    assert!(clean_diags.is_empty(), "{clean_diags:?}");
    assert_eq!(used, 1);

    let (diags, _) = odflow_lint::check_source(&fc, &without_allow);
    assert!(
        diags.iter().any(|d| d.rule == "env-read-containment"),
        "removing the allow must re-expose the violation: {diags:?}"
    );
}
