//! # odflow_lint — the workspace's size and public surface
//!
//! The determinism and containment contracts (seeded randomness, no
//! hash-order iteration, one thread pool, no ambient clock or environment,
//! `unsafe` only in the vendored `scoped_pool`) are checked by the compiler:
//! `clippy.toml`'s `disallowed-methods` and `disallowed-types`, the
//! workspace's `unsafe_code = "deny"`, and the restriction lints each
//! crate root denies, under `cargo clippy --all-targets -- -D warnings`.
//!
//! What the compiler does not report is how big the workspace is and which
//! of its `pub` items nothing uses. `odflow_lint` walks every `.rs` file
//! with a hand-rolled tokenizer (zero dependencies — the workspace is
//! offline) and reports:
//!
//! * the workspace's size — all lines, and the first-party lines outside
//!   test code (`product_lines`);
//! * its public surface — the `pub` items nothing names, those only tests
//!   name and those only examples name (see [`surface`] for how they are
//!   counted and what the count cannot see).
//!
//! CI holds each of those counts at a ceiling.
//!
//! ## Use
//!
//! ```text
//! cargo run --release -p odflow_lint -- --workspace          # summary line
//! cargo run --release -p odflow_lint -- --workspace --json   # + LINT_report.json
//! ```
//!
//! As a library, [`lint_root`] runs the full walk and returns a
//! [`report::Report`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A library reports through return values and metrics, never the terminal.
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod report;
pub mod surface;
pub mod tokenize;
pub mod walk;

use report::Report;
use std::path::Path;
use walk::CrateClass;

/// Walks `root` and measures every discovered `.rs` file.
///
/// # Errors
///
/// Propagates I/O failures from the walk or file reads.
pub fn lint_root(root: &Path) -> std::io::Result<Report> {
    let files = walk::rust_files(root)?;
    let (mut lines_scanned, mut product_lines) = (0usize, 0usize);
    let mut crates: Vec<CrateClass> = Vec::new();
    let mut first_party = Vec::new();
    for rel in &files {
        let fc = walk::classify(rel);
        let source = std::fs::read_to_string(root.join(rel))?;
        lines_scanned += source.lines().count();
        if !crates.contains(&fc.class) {
            crates.push(fc.class.clone());
        }
        if !matches!(fc.class, CrateClass::Vendor(_)) {
            let tokens = tokenize::lex(&source);
            product_lines += surface::product_lines(&fc.rel, &source, &tokens);
            first_party.push((fc.rel, tokens));
        }
    }
    let (dead_pub_items, test_only_pub_items, example_only_pub_items) =
        surface::pub_surface(&first_party);
    Ok(Report {
        root: root.display().to_string(),
        files_scanned: files.len(),
        lines_scanned,
        product_lines,
        workspace_crates: crates.len(),
        dead_pub_items,
        test_only_pub_items,
        example_only_pub_items,
    })
}
