//! The surface count: `pub` items that nothing, only test code, or only
//! examples name.
//!
//! Every `pub fn`/`struct`/`enum`/`trait`/`type`/`const`/`static` of a library
//! source (`src/` and `crates/<name>/src/`, binaries excepted) is looked up
//! by name among the identifiers of every first-party file. Binaries — the
//! frozen benchmark harness included — are product consumers and examples
//! are consumers of their own kind; code under a `tests/` directory or
//! inside a `#[cfg(test)]` item is test code. An item is *dead* when no
//! identifier outside its own definition names it, *test-only* when only
//! test code does, and *example-only* when examples name it and no product
//! code does, whatever the tests do.
//!
//! Names inside `use` declarations are not counted (a `pub use` re-export
//! is not a caller), and doc comments are not tokens, so a doc example does
//! not keep an item alive. The scan resolves nothing, so its blind spots
//! are the usual ones of a name match:
//!
//! * shared names hide dead items — were `SubspaceModel::t2_threshold`
//!   never called, the calls of the free `t2_threshold` would still count;
//! * a type's own `impl` blocks and constructors name it, so an unused
//!   type shows only through its methods;
//! * a file compiled only under `#[cfg(test)]` (a `testutil` module) is
//!   masked at its `mod` line, not in itself, so its items read test-only;
//! * a name imported under `as` another name looks dead;
//! * trait methods and struct fields are not `pub` items here at all.

use crate::tokenize::{TokKind, Token};
use std::collections::BTreeMap;

/// Item keywords that introduce a counted `pub` definition.
const ITEM_KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];

/// Qualifiers that may sit between `pub` and the item keyword.
const QUALIFIERS: &[&str] = &["const", "unsafe", "async", "extern"];

/// `(dead, test_only, example_only)` over `files` (workspace-relative path
/// and tokens), each item as `path:line name`, in file order.
pub fn pub_surface(files: &[(String, Vec<Token>)]) -> (Vec<String>, Vec<String>, Vec<String>) {
    // name -> [product, example, test] references
    let mut refs: BTreeMap<&str, [usize; 3]> = BTreeMap::new();
    let mut defs = Vec::new();
    for (rel, toks) in files {
        let test_file = is_test_file(rel);
        let example = rel.starts_with("examples/") || rel.contains("/examples/");
        let api = !test_file
            && (rel.starts_with("src/") || rel.starts_with("crates/") && rel.contains("/src/"))
            && !rel.contains("/src/bin/")
            && !rel.ends_with("/src/main.rs");
        let in_test = cfg_test_mask(toks);
        let mut in_use = false;
        let mut def_name = None;
        for (i, t) in toks.iter().enumerate() {
            if in_use || t.is_ident("use") {
                in_use = !t.is_punct(';');
                continue;
            }
            if t.kind != TokKind::Ident || def_name == Some(i) {
                continue;
            }
            if api && !in_test[i] && t.is_ident("pub") {
                def_name = item_name(toks, i);
                if let Some(n) = def_name {
                    defs.push((format!("{rel}:{} {}", toks[n].line, toks[n].text), &toks[n].text));
                }
            }
            let kind = if test_file || in_test[i] { 2 } else { usize::from(example) };
            refs.entry(&t.text).or_default()[kind] += 1;
        }
    }
    let (mut dead, mut test_only, mut example_only) = (Vec::new(), Vec::new(), Vec::new());
    for (at, name) in defs {
        match refs.get(name.as_str()).copied().unwrap_or_default() {
            [0, 0, 0] => dead.push(at),
            [0, 0, _] => test_only.push(at),
            [0, _, _] => example_only.push(at),
            _ => {}
        }
    }
    (dead, test_only, example_only)
}

/// Lines of first-party file `rel` (`source`, lexed to `toks`) outside
/// test code: all but those of its `#[cfg(test)]` items, or none under a
/// `tests/` directory.
pub fn product_lines(rel: &str, source: &str, toks: &[Token]) -> usize {
    if is_test_file(rel) {
        return 0;
    }
    let lines = source.lines().count();
    let mask = cfg_test_mask(toks);
    let mut test = vec![false; lines + 1];
    for (i, t) in toks.iter().enumerate().filter(|&(i, _)| mask[i]) {
        // From the item's token before this one, so that the comments and
        // blank lines between the two count with the item.
        let from = if i > 0 && mask[i - 1] { toks[i - 1].line } else { t.line };
        for line in test.iter_mut().take(t.line as usize + 1).skip(from as usize) {
            *line = true;
        }
    }
    lines - test.iter().filter(|&&t| t).count()
}

/// Marks every token inside a `#[cfg(test)]`-gated item: from the `#` of
/// the attribute through the item's closing brace (or terminating `;` for
/// brace-less items such as `#[cfg(test)] use …;`).
fn cfg_test_mask(toks: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i + 6 < toks.len() {
        let is_attr = toks[i].is_punct('#')
            && toks[i + 1].is_punct('[')
            && toks[i + 2].is_ident("cfg")
            && toks[i + 3].is_punct('(')
            && toks[i + 4].is_ident("test")
            && toks[i + 5].is_punct(')')
            && toks[i + 6].is_punct(']');
        if !is_attr {
            i += 1;
            continue;
        }
        let mut depth = 0usize;
        let mut j = i + 7;
        let end = loop {
            match toks.get(j) {
                None => break toks.len(),
                Some(t) if t.is_punct(';') && depth == 0 => break j + 1,
                Some(t) if t.is_punct('{') => depth += 1,
                Some(t) if t.is_punct('}') && depth > 0 => {
                    depth -= 1;
                    if depth == 0 {
                        break j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        };
        for m in &mut mask[i..end] {
            *m = true;
        }
        i = end;
    }
    mask
}

/// `true` for a file under a `tests/` directory: test code throughout.
fn is_test_file(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/")
}

/// Index of the name token of the item `pub` at `at` introduces, if it is
/// a counted item (not `pub(crate)`, `pub mod`, `pub use` or a field).
fn item_name(toks: &[Token], at: usize) -> Option<usize> {
    let is_qualifier =
        |t: &Token| t.kind == TokKind::Literal || QUALIFIERS.iter().any(|q| t.is_ident(q));
    let mut k = at + 1;
    while toks.get(k).is_some_and(is_qualifier)
        && toks.get(k + 1).is_some_and(|n| is_qualifier(n) || n.is_ident("fn"))
    {
        k += 1;
    }
    let keyword = toks.get(k)?;
    let name = toks.get(k + 1)?;
    let counted = ITEM_KEYWORDS.iter().any(|kw| keyword.is_ident(kw));
    (counted && name.kind == TokKind::Ident).then_some(k + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::lex;

    fn scan(files: &[(&str, &str)]) -> (Vec<String>, Vec<String>, Vec<String>) {
        let lexed: Vec<_> = files.iter().map(|(p, s)| (p.to_string(), lex(s))).collect();
        pub_surface(&lexed)
    }

    #[test]
    fn dead_and_test_only_items_are_told_apart() {
        let lib = "pub use inner::Kept;\n\
                   pub fn called() {}\n\
                   pub const fn unused() {}\n\
                   pub struct OnlyTested;\n\
                   pub(crate) fn internal() {}\n\
                   #[cfg(test)]\nmod tests { pub fn helper() { super::OnlyTested; } }";
        let files = [
            ("crates/a/src/lib.rs", lib),
            ("examples/demo.rs", "use a::unused;\nfn main() { a::called(); }"),
            ("crates/a/tests/t.rs", "fn t() { let _ = a::OnlyTested; }"),
        ];
        let (dead, test_only, example_only) = scan(&files);
        assert_eq!(dead, vec!["crates/a/src/lib.rs:3 unused"]);
        assert_eq!(test_only, vec!["crates/a/src/lib.rs:4 OnlyTested"]);
        assert_eq!(example_only, vec!["crates/a/src/lib.rs:2 called"]);
    }

    #[test]
    fn binaries_define_nothing_but_consume() {
        let files = [
            ("crates/b/src/bin/tool/main.rs", "pub fn local() {}\nfn main() { b::api(); }"),
            ("crates/b/src/lib.rs", "pub fn api() {}\npub extern \"C\" fn ffi() {}"),
        ];
        let (dead, test_only, example_only) = scan(&files);
        assert_eq!(dead, vec!["crates/b/src/lib.rs:2 ffi"]);
        assert!(test_only.is_empty() && example_only.is_empty());
    }

    #[test]
    fn product_lines_leave_out_test_items_and_test_files() {
        let lib = "//! Docs.\n\
                   pub fn f() {}\n\
                   \n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \x20   // A comment inside the item.\n\
                   \n\
                   \x20   fn t() {}\n\
                   }\n\
                   pub fn g() {}\n";
        let lines = |rel: &str, src: &str| product_lines(rel, src, &lex(src));
        assert_eq!(lines("crates/a/src/lib.rs", lib), 4);
        assert_eq!(lines("examples/demo.rs", lib), 4);
        assert_eq!(lines("crates/a/tests/t.rs", lib), 0);
        assert_eq!(lines("crates/a/src/lib.rs", "fn main() {}"), 1);
        // A brace-less `#[cfg(test)]` item ends at its `;`.
        assert_eq!(lines("crates/a/src/lib.rs", "#[cfg(test)]\nuse a::b;\npub fn f() {}"), 1);
    }
}
