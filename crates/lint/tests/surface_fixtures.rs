//! Surface fixture tests.
//!
//! The fixtures under `tests/fixtures/` are small Rust sources placed at
//! chosen workspace paths; the walker deliberately skips that directory so
//! the live report never counts them.

#![forbid(unsafe_code)]

use odflow_lint::surface::pub_surface;
use odflow_lint::tokenize::lex;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
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
    .map(|(rel, source)| (rel.to_owned(), lex(&source)))
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
        "fixture sources must never reach the live report: {files:?}"
    );
    assert!(files.iter().any(|f| f.ends_with("surface_fixtures.rs")));
}
