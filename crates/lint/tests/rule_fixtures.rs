//! Per-rule positive/negative fixture tests.
//!
//! Each fixture under `tests/fixtures/` is a small Rust source exercising
//! one rule; the walker deliberately skips that directory so the live gate
//! never sees them. Tests classify each fixture as if it lived at a chosen
//! workspace path and assert exactly which findings fire.

#![forbid(unsafe_code)]

use odflow_lint::check_source;
use odflow_lint::report::Diagnostic;
use odflow_lint::rules::{CrateClass, FileClass};
use odflow_lint::surface::pub_surface;
use odflow_lint::tokenize::lex;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

fn member(krate: &str) -> FileClass {
    FileClass {
        rel: format!("crates/{krate}/src/fixture.rs"),
        class: CrateClass::Member(krate.to_string()),
        is_compilation_root: false,
    }
}

fn vendor(krate: &str) -> FileClass {
    FileClass {
        rel: format!("vendor/{krate}/src/fixture.rs"),
        class: CrateClass::Vendor(krate.to_string()),
        is_compilation_root: false,
    }
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule.as_str()).collect()
}

fn count(diags: &[Diagnostic], rule: &str) -> usize {
    diags.iter().filter(|d| d.rule == rule).count()
}

#[test]
fn nondeterminism_fires_on_every_listed_source() {
    let (diags, _) = check_source(&member("flow"), &fixture("nondet_fire.rs"));
    assert_eq!(count(&diags, "no-ambient-nondeterminism"), 6, "{:?}", rules_of(&diags));
    assert_eq!(diags.len(), 6, "only nondeterminism findings expected");
}

#[test]
fn nondeterminism_exempt_in_bench() {
    let (diags, _) = check_source(&member("bench"), &fixture("nondet_fire.rs"));
    assert!(diags.is_empty(), "bench measures wall-clock by design: {:?}", rules_of(&diags));
}

#[test]
fn nondeterminism_allow_suppresses_and_counts() {
    let (diags, used) = check_source(&member("flow"), &fixture("nondet_allowed.rs"));
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
    assert_eq!(used, 1);
}

#[test]
fn ordered_iteration_fires_on_hash_iteration() {
    let (diags, _) = check_source(&member("flow"), &fixture("ordered_fire.rs"));
    assert_eq!(count(&diags, "ordered-iteration"), 3, "{diags:?}");
    assert_eq!(diags.len(), 3);
}

#[test]
fn ordered_iteration_silent_on_btree_and_membership() {
    let (diags, _) = check_source(&member("flow"), &fixture("ordered_clean.rs"));
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

#[test]
fn raw_threads_fire_outside_par() {
    let (diags, _) = check_source(&member("subspace"), &fixture("threads_fire.rs"));
    assert_eq!(count(&diags, "no-raw-threads"), 3, "{diags:?}");
}

#[test]
fn raw_threads_exempt_in_par() {
    let (diags, _) = check_source(&member("par"), &fixture("threads_fire.rs"));
    assert!(diags.is_empty(), "odflow_par owns thread management: {:?}", rules_of(&diags));
}

#[test]
fn unsafe_fires_outside_scoped_pool() {
    let (diags, _) = check_source(&member("linalg"), &fixture("unsafe_fire.rs"));
    assert_eq!(count(&diags, "unsafe-containment"), 1, "{diags:?}");
}

#[test]
fn unsafe_exempt_only_in_scoped_pool() {
    let (diags, _) = check_source(&vendor("scoped_pool"), &fixture("unsafe_fire.rs"));
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
    // Other vendored shims still answer for unsafe containment.
    let (diags, _) = check_source(&vendor("rand"), &fixture("unsafe_fire.rs"));
    assert_eq!(count(&diags, "unsafe-containment"), 1, "{diags:?}");
}

#[test]
fn compilation_root_must_carry_forbid() {
    let mut fc = member("stats");
    fc.is_compilation_root = true;
    let (diags, _) = check_source(&fc, &fixture("unsafe_fire.rs"));
    // Missing attribute and the unsafe block itself both fire.
    assert_eq!(count(&diags, "unsafe-containment"), 2, "{diags:?}");

    let (diags, _) = check_source(&fc, &fixture("forbid_ok.rs"));
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

#[test]
fn env_reads_fire_outside_par_and_bench() {
    let (diags, _) = check_source(&member("gen"), &fixture("env_fire.rs"));
    assert_eq!(count(&diags, "env-read-containment"), 2, "{diags:?}");
    let (diags, _) = check_source(&member("bench"), &fixture("env_fire.rs"));
    assert!(diags.is_empty(), "bench reads its harness knobs: {:?}", rules_of(&diags));
}

#[test]
fn panic_in_ingest_fires_on_every_abortable_construct() {
    let (diags, _) = check_source(&member("flow"), &fixture("panic_fire.rs"));
    // unwrap + expect + panic! + unreachable! + todo! + unimplemented!,
    // with the #[cfg(test)] module's unwrap/panic! exempt.
    assert_eq!(count(&diags, "no-panic-in-ingest"), 6, "{diags:?}");
    assert_eq!(diags.len(), 6);
}

#[test]
fn panic_in_ingest_silent_on_graceful_idiom() {
    let (diags, _) = check_source(&member("flow"), &fixture("panic_clean.rs"));
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

#[test]
fn panic_in_ingest_scoped_to_flow_sources() {
    // Other crates keep the fail-fast harness style.
    let (diags, _) = check_source(&member("gen"), &fixture("panic_fire.rs"));
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
    // Flow integration tests are test code by location.
    let it = FileClass {
        rel: "crates/flow/tests/fixture.rs".into(),
        class: CrateClass::Member("flow".into()),
        is_compilation_root: false,
    };
    let (diags, _) = check_source(&it, &fixture("panic_fire.rs"));
    assert!(diags.is_empty(), "{:?}", rules_of(&diags));
}

#[test]
fn panic_in_ingest_honors_justified_allow() {
    let src = "fn f(x: Option<u32>) -> u32 {\n\
               // lint:allow(no-panic-in-ingest) -- index proven in-bounds above\n\
               x.unwrap()\n\
               }";
    let (diags, used) = check_source(&member("flow"), src);
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(used, 1);
}

#[test]
fn unused_allow_is_itself_an_error() {
    let (diags, used) = check_source(&member("flow"), &fixture("unused_allow.rs"));
    assert_eq!(used, 0);
    assert_eq!(count(&diags, "unused-allow"), 1, "{diags:?}");
}

#[test]
fn malformed_allows_are_reported() {
    let (diags, _) = check_source(&member("flow"), &fixture("malformed_allow.rs"));
    assert_eq!(count(&diags, "malformed-allow"), 2, "{diags:?}");
    assert!(diags.iter().any(|d| d.message.contains("unknown rule")), "{diags:?}");
}

#[test]
fn surface_tells_example_only_items_from_product_and_test_ones() {
    let files: Vec<(String, Vec<_>)> = [
        ("crates/lib/src/lib.rs", fixture("surface_lib.rs")),
        ("examples/demo.rs", fixture("surface_example.rs")),
        ("crates/lib/src/bin/tool.rs", "fn main() { lib::run_by_binary(); }".to_owned()),
        ("crates/lib/tests/t.rs", "fn t() { lib::shown_and_tested(); }".to_owned()),
    ]
    .into_iter()
    .map(|(rel, source)| (rel.to_owned(), lex(&source).tokens))
    .collect();
    let (dead, test_only, example_only) = pub_surface(&files);
    assert_eq!(dead, ["crates/lib/src/lib.rs:11 Unnamed"]);
    assert_eq!(test_only, ["crates/lib/src/lib.rs:9 tested_only"]);
    assert_eq!(
        example_only,
        ["crates/lib/src/lib.rs:3 shown_in_example", "crates/lib/src/lib.rs:5 shown_and_tested"]
    );
}

#[test]
fn fixtures_are_invisible_to_the_walker() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = odflow_lint::walk::rust_files(root).expect("walk lint crate");
    assert!(
        files.iter().all(|f| f.components().all(|c| c.as_os_str() != "fixtures")),
        "fixture sources must never reach the live gate: {files:?}"
    );
    assert!(files.iter().any(|f| f.ends_with("rule_fixtures.rs")));
}
