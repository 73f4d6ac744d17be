//! # odflow_lint — the workspace invariant gate
//!
//! This reproduction's claims rest on contracts the compiler cannot check:
//! every kernel is bit-identical for any `ODFLOW_THREADS`, all randomness
//! is seeded, `unsafe` lives only in the vendored `scoped_pool` shim, and
//! environment reads go through one sanctioned path. `odflow_lint` turns
//! those doc-comment contracts into a machine gate: it scans every
//! non-vendor `.rs` file with a hand-rolled tokenizer (zero dependencies —
//! the workspace is offline) and fails the build on any violation of the
//! named rules in [`rules::RULES`].
//!
//! ## Suppressions
//!
//! A finding is suppressed only by a justified annotation on the line
//! directly above it:
//!
//! ```text
//! // lint:allow(env-read-containment) -- the one sanctioned THREADS_ENV read
//! std::env::var(THREADS_ENV)
//! ```
//!
//! Allows are themselves audited: a directive that suppresses nothing, or
//! that misspells the grammar or a rule name, is an error. Annotations can
//! therefore never rot into blanket waivers.
//!
//! ## Use
//!
//! ```text
//! cargo run --release -p odflow_lint -- --workspace          # gate
//! cargo run --release -p odflow_lint -- --workspace --json   # + LINT_report.json
//! ```
//!
//! As a library, [`lint_root`] runs the full walk and returns a
//! [`report::Report`]; [`check_source`] lints one in-memory file (this is
//! what the fixture tests drive).
//!
//! The report also carries the workspace's size and its public surface:
//! the `pub` items nothing names and those only tests name (see
//! [`surface`] for how they are counted and what the count cannot see).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod rules;
pub mod surface;
pub mod tokenize;
pub mod walk;

use report::{Diagnostic, Report};
use rules::FileClass;
use std::path::Path;

/// Lints one file's source text, applying and auditing `lint:allow`
/// directives. Returns the diagnostics plus the number of directives that
/// suppressed something.
pub fn check_source(fc: &FileClass, source: &str) -> (Vec<Diagnostic>, usize) {
    let lexed = tokenize::lex(source);
    let findings = rules::scan_file(fc, &lexed);

    let mut used = vec![false; lexed.allows.len()];
    let mut out = Vec::new();
    for f in findings {
        let suppressed = lexed
            .allows
            .iter()
            .enumerate()
            .find(|(_, a)| a.rule == f.rule && a.line + 1 == f.line)
            .map(|(i, _)| i);
        match suppressed {
            Some(i) => used[i] = true,
            None => out.push(Diagnostic {
                rule: f.rule.to_string(),
                path: fc.rel.clone(),
                line: f.line,
                col: f.col,
                message: f.message,
            }),
        }
    }
    for (i, a) in lexed.allows.iter().enumerate() {
        if !rules::is_known_rule(&a.rule) {
            out.push(Diagnostic {
                rule: "malformed-allow".to_string(),
                path: fc.rel.clone(),
                line: a.line,
                col: 1,
                message: format!(
                    "`lint:allow({})` names an unknown rule; known rules: {}",
                    a.rule,
                    rules::RULES.iter().map(|r| r.name).collect::<Vec<_>>().join(", ")
                ),
            });
        } else if !used[i] {
            out.push(Diagnostic {
                rule: "unused-allow".to_string(),
                path: fc.rel.clone(),
                line: a.line,
                col: 1,
                message: format!(
                    "`lint:allow({})` suppresses nothing on the next line; remove it so \
                     annotations stay honest",
                    a.rule
                ),
            });
        }
    }
    for m in &lexed.malformed {
        out.push(Diagnostic {
            rule: "malformed-allow".to_string(),
            path: fc.rel.clone(),
            line: m.line,
            col: 1,
            message: m.message.clone(),
        });
    }
    out.sort_by_key(|a| (a.line, a.col));
    let used_count = used.iter().filter(|&&u| u).count();
    (out, used_count)
}

/// Walks `root` and lints every discovered `.rs` file.
///
/// # Errors
///
/// Propagates I/O failures from the walk or file reads.
pub fn lint_root(root: &Path) -> std::io::Result<Report> {
    let files = walk::rust_files(root)?;
    let mut diagnostics = Vec::new();
    let mut allows_used = 0usize;
    let mut lines_scanned = 0usize;
    let mut crates: Vec<rules::CrateClass> = Vec::new();
    let mut first_party = Vec::new();
    for rel in &files {
        let fc = walk::classify(rel);
        let source = std::fs::read_to_string(root.join(rel))?;
        lines_scanned += source.lines().count();
        if !crates.contains(&fc.class) {
            crates.push(fc.class.clone());
        }
        let (mut diags, used) = check_source(&fc, &source);
        allows_used += used;
        diagnostics.append(&mut diags);
        if !matches!(fc.class, rules::CrateClass::Vendor(_)) {
            first_party.push((fc.rel, tokenize::lex(&source).tokens));
        }
    }
    let (dead_pub_items, test_only_pub_items) = surface::pub_surface(&first_party);
    diagnostics.sort_by(|a, b| (&a.path, a.line, a.col).cmp(&(&b.path, b.line, b.col)));
    Ok(Report {
        root: root.display().to_string(),
        files_scanned: files.len(),
        lines_scanned,
        workspace_crates: crates.len(),
        diagnostics,
        allows_used,
        dead_pub_items,
        test_only_pub_items,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rules::CrateClass;

    fn fc() -> FileClass {
        FileClass {
            rel: "crates/flow/src/x.rs".into(),
            class: CrateClass::Member("flow".into()),
            is_compilation_root: false,
        }
    }

    #[test]
    fn allow_on_preceding_line_suppresses() {
        let src = "fn f() {\n\
                   // lint:allow(no-raw-threads) -- demo producer thread\n\
                   std::thread::spawn(|| {});\n\
                   }";
        let (diags, used) = check_source(&fc(), src);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(used, 1);
    }

    #[test]
    fn allow_on_wrong_line_does_not_suppress() {
        let src = "// lint:allow(no-raw-threads) -- too far away\n\
                   fn f() {\n\
                   std::thread::spawn(|| {});\n\
                   }";
        let (diags, _) = check_source(&fc(), src);
        // Both the violation and the now-unused allow are reported.
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().any(|d| d.rule == "no-raw-threads"));
        assert!(diags.iter().any(|d| d.rule == "unused-allow"));
    }

    #[test]
    fn allow_for_wrong_rule_does_not_suppress() {
        let src = "fn f() {\n\
                   // lint:allow(ordered-iteration) -- wrong rule\n\
                   std::thread::spawn(|| {});\n\
                   }";
        let (diags, _) = check_source(&fc(), src);
        assert_eq!(diags.len(), 2);
    }

    #[test]
    fn unknown_rule_in_allow_is_malformed() {
        let src = "// lint:allow(no-such-rule) -- typo\nfn f() {}";
        let (diags, _) = check_source(&fc(), src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "malformed-allow");
        assert!(diags[0].message.contains("unknown rule"));
    }

    #[test]
    fn one_allow_suppresses_all_same_rule_findings_on_next_line() {
        let src = "fn f() {\n\
                   // lint:allow(no-raw-threads) -- both spawns are the demo pair\n\
                   let (a, b) = (std::thread::spawn(f1), std::thread::spawn(f2));\n\
                   }";
        let (diags, used) = check_source(&fc(), src);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(used, 1);
    }
}
