//! The named workspace invariants and their token-level checkers.
//!
//! Every rule exists because the compiler cannot see the contract it
//! enforces:
//!
//! | rule | contract |
//! |------|----------|
//! | `no-ambient-nondeterminism` | results never depend on wall-clock time or unseeded randomness |
//! | `ordered-iteration` | results never depend on `HashMap`/`HashSet` iteration order |
//! | `no-raw-threads` | all fan-out goes through `odflow_par` (pooled, deterministic) |
//! | `unsafe-containment` | `unsafe` lives only in the vendored `scoped_pool` shim |
//! | `env-read-containment` | process environment is read only via the sanctioned plumbing |
//! | `no-panic-in-ingest` | the `crates/flow`/`crates/serve` wire paths degrade, they never abort |
//!
//! Checkers are heuristic token matchers, deliberately biased toward
//! explainable findings: a false positive is answered with a justified
//! `// lint:allow(rule) -- reason` on the preceding line, which the engine
//! then *requires* to stay load-bearing (see unused-allow handling in
//! [`crate::check_source`]).

use crate::tokenize::{Lexed, TokKind, Token};
use std::collections::BTreeMap;

/// Machine name and human description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Kebab-case rule name, as used in diagnostics and `lint:allow`.
    pub name: &'static str,
    /// One-line description of the invariant.
    pub summary: &'static str,
}

/// The enforced rules, in diagnostic order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "no-ambient-nondeterminism",
        summary: "wall-clock time and unseeded RNG are banned outside crates/bench; \
                  every result must be reproducible from seeds alone",
    },
    RuleInfo {
        name: "ordered-iteration",
        summary: "iterating a HashMap/HashSet is order-nondeterministic; use a BTree \
                  collection or sort before results depend on the order",
    },
    RuleInfo {
        name: "no-raw-threads",
        summary: "std::thread::spawn/scope/Builder are banned outside odflow_par; \
                  fan out through the deterministic pooled combinators",
    },
    RuleInfo {
        name: "unsafe-containment",
        summary: "`unsafe` is confined to vendor/scoped_pool; every other crate root \
                  must carry #![forbid(unsafe_code)]",
    },
    RuleInfo {
        name: "env-read-containment",
        summary: "std::env reads/writes are banned outside crates/bench; thread-count \
                  plumbing goes through odflow_par::THREADS_ENV",
    },
    RuleInfo {
        name: "no-panic-in-ingest",
        summary: "the crates/flow measurement path and the crates/serve daemon must \
                  survive hostile wire input: `.unwrap()`/`.expect()`/`panic!` and the \
                  `panic_any`/`catch_unwind` unwind machinery are banned in their \
                  non-test sources; quarantine-and-account instead",
    },
];

/// `true` if `name` is one of the [`RULES`].
pub fn is_known_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// Which workspace population a file belongs to, for rule applicability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrateClass {
    /// A first-party workspace member under `crates/<name>`.
    Member(String),
    /// The root `odflow` package (`src/`, `tests/`, `examples/`).
    Root,
    /// A vendored shim under `vendor/<name>`.
    Vendor(String),
}

/// Per-file context handed to the checkers.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Which crate population the file belongs to.
    pub class: CrateClass,
    /// `true` if this file is a compilation root (`lib.rs`, `main.rs`,
    /// `src/bin/*.rs`, `examples/*.rs`) that must carry
    /// `#![forbid(unsafe_code)]`.
    pub is_compilation_root: bool,
}

impl FileClass {
    fn member(&self, name: &str) -> bool {
        matches!(&self.class, CrateClass::Member(m) if m == name)
    }

    fn is_vendor(&self) -> bool {
        matches!(self.class, CrateClass::Vendor(_))
    }

    fn is_scoped_pool(&self) -> bool {
        matches!(&self.class, CrateClass::Vendor(v) if v == "scoped_pool")
    }

    /// Whether `rule` is enforced in this file at all.
    pub fn rule_applies(&self, rule: &str) -> bool {
        match rule {
            // Vendored shims only answer for unsafe containment; their
            // internals are not ours to restructure.
            _ if self.is_vendor() => rule == "unsafe-containment" && !self.is_scoped_pool(),
            // The bench crate measures wall-clock by design and may read
            // the environment for its harness configuration.
            "no-ambient-nondeterminism" | "ordered-iteration" | "env-read-containment" => {
                !self.member("bench")
            }
            // odflow_par is the sanctioned home of thread management.
            "no-raw-threads" => !self.member("par"),
            // The ingest path (flow crate library sources) and the serving
            // daemon (serve crate sources, binaries included — one hostile
            // frame must never abort a collector) must degrade gracefully;
            // integration tests and benches may still assert.
            "no-panic-in-ingest" => {
                (self.member("flow") && self.rel.starts_with("crates/flow/src/"))
                    || (self.member("serve") && self.rel.starts_with("crates/serve/src/"))
            }
            "unsafe-containment" => !self.is_scoped_pool(),
            _ => false,
        }
    }
}

/// One raw rule violation, before suppression handling.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The violated rule's name.
    pub rule: &'static str,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// Explanation and suggested fix.
    pub message: String,
}

/// Runs every applicable rule over one lexed file.
pub fn scan_file(fc: &FileClass, lexed: &Lexed) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = &lexed.tokens;
    if fc.rule_applies("unsafe-containment") {
        unsafe_containment(fc, toks, &mut out);
    }
    if fc.rule_applies("no-ambient-nondeterminism") {
        ambient_nondeterminism(toks, &mut out);
    }
    if fc.rule_applies("no-raw-threads") {
        raw_threads(toks, &mut out);
    }
    if fc.rule_applies("env-read-containment") {
        env_reads(toks, &mut out);
    }
    if fc.rule_applies("ordered-iteration") {
        ordered_iteration(toks, &mut out);
    }
    if fc.rule_applies("no-panic-in-ingest") {
        panic_in_ingest(toks, &mut out);
    }
    out.sort_by_key(|f| (f.line, f.col));
    out
}

/// `pattern` elements: identifiers match exactly; `"::"` matches two
/// consecutive `:` puncts. Returns the index of each match's first token.
fn find_path_seq(toks: &[Token], pattern: &[&str]) -> Vec<usize> {
    let mut hits = Vec::new();
    'outer: for start in 0..toks.len() {
        let mut at = start;
        for part in pattern {
            if *part == "::" {
                if !(toks.get(at).is_some_and(|t| t.is_punct(':'))
                    && toks.get(at + 1).is_some_and(|t| t.is_punct(':')))
                {
                    continue 'outer;
                }
                at += 2;
            } else {
                if !toks.get(at).is_some_and(|t| t.is_ident(part)) {
                    continue 'outer;
                }
                at += 1;
            }
        }
        hits.push(start);
    }
    hits
}

fn push_seq_findings(
    toks: &[Token],
    pattern: &[&str],
    rule: &'static str,
    message: &str,
    out: &mut Vec<Finding>,
) {
    for at in find_path_seq(toks, pattern) {
        let t = &toks[at];
        out.push(Finding { rule, line: t.line, col: t.col, message: message.to_string() });
    }
}

fn ambient_nondeterminism(toks: &[Token], out: &mut Vec<Finding>) {
    const RULE: &str = "no-ambient-nondeterminism";
    for (pat, msg) in [
        (
            &["Instant", "::", "now"][..],
            "`Instant::now` makes results depend on wall-clock time; timing belongs in \
             crates/bench",
        ),
        (
            &["SystemTime", "::", "now"][..],
            "`SystemTime::now` makes results depend on wall-clock time; timing belongs in \
             crates/bench",
        ),
        (
            &["UNIX_EPOCH"][..],
            "`UNIX_EPOCH` arithmetic implies wall-clock input; pass timestamps in as data",
        ),
        (
            &["thread_rng"][..],
            "`thread_rng` is OS-seeded; use a seeded `rand_chacha` generator so runs reproduce",
        ),
        (
            &["from_entropy"][..],
            "`from_entropy` is OS-seeded; use `seed_from_u64`/`from_seed` so runs reproduce",
        ),
        (
            &["OsRng"][..],
            "`OsRng` is OS-seeded; use a seeded `rand_chacha` generator so runs reproduce",
        ),
        (
            &["rand", "::", "random"][..],
            "`rand::random` is OS-seeded; use a seeded `rand_chacha` generator so runs reproduce",
        ),
    ] {
        push_seq_findings(toks, pat, RULE, msg, out);
    }
}

fn raw_threads(toks: &[Token], out: &mut Vec<Finding>) {
    const RULE: &str = "no-raw-threads";
    for (pat, msg) in [
        (
            &["thread", "::", "spawn"][..],
            "raw `thread::spawn` bypasses the shared worker pool; use the `odflow_par` \
             combinators (or `scoped_pool` directly for producer/consumer shapes)",
        ),
        (
            &["thread", "::", "scope"][..],
            "raw `thread::scope` bypasses the shared worker pool; use the `odflow_par` \
             combinators",
        ),
        (
            &["thread", "::", "Builder"][..],
            "`thread::Builder` spawns unpooled threads; use the `odflow_par` combinators",
        ),
    ] {
        push_seq_findings(toks, pat, RULE, msg, out);
    }
}

fn env_reads(toks: &[Token], out: &mut Vec<Finding>) {
    const RULE: &str = "env-read-containment";
    for method in ["var", "var_os", "vars", "vars_os", "set_var", "remove_var"] {
        let msg = format!(
            "`env::{method}` reads or mutates ambient process state; configuration flows \
             through explicit arguments (thread counts via odflow_par::THREADS_ENV only)"
        );
        push_seq_findings(toks, &["env", "::", method], RULE, &msg, out);
    }
}

fn unsafe_containment(fc: &FileClass, toks: &[Token], out: &mut Vec<Finding>) {
    const RULE: &str = "unsafe-containment";
    for t in toks {
        if t.is_ident("unsafe") {
            out.push(Finding {
                rule: RULE,
                line: t.line,
                col: t.col,
                message: "`unsafe` is confined to vendor/scoped_pool; this workspace's \
                          kernels are safe Rust by contract"
                    .to_string(),
            });
        }
    }
    if fc.is_compilation_root && !has_forbid_unsafe(toks) {
        out.push(Finding {
            rule: RULE,
            line: 1,
            col: 1,
            message: format!("compilation root `{}` must carry `#![forbid(unsafe_code)]`", fc.rel),
        });
    }
}

/// The panic-family macros banned on the ingest path. `debug_assert*` is
/// deliberately absent: it compiles out of release builds, so it documents
/// an internal invariant without making the collector abortable.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// The no-panic-in-ingest checker: `.unwrap()` / `.expect(…)` method calls
/// and panic-family macro invocations outside `#[cfg(test)]`-gated items.
///
/// The flow crate decodes bytes that arrive off the wire, and the serve
/// daemon keeps sockets open to whoever sends them; a reachable panic in
/// either turns one malformed frame into a dead collector. Errors must
/// flow into the quarantine/`DataQuality` accounting instead.
fn panic_in_ingest(toks: &[Token], out: &mut Vec<Finding>) {
    const RULE: &str = "no-panic-in-ingest";
    let test_region = cfg_test_mask(toks);
    for (i, t) in toks.iter().enumerate() {
        if test_region[i] || t.kind != TokKind::Ident {
            continue;
        }
        if (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            out.push(Finding {
                rule: RULE,
                line: t.line,
                col: t.col,
                message: format!(
                    "`.{}()` can abort the collector on hostile wire input; return an \
                     error or quarantine-and-account via `DataQuality` instead",
                    t.text
                ),
            });
        }
        if PANIC_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            out.push(Finding {
                rule: RULE,
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}!` makes the ingest path abortable; degrade gracefully (reject \
                     the frame, mask the bin) and account for it in `DataQuality`",
                    t.text
                ),
            });
        }
        if (t.text == "panic_any" || t.text == "catch_unwind")
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            out.push(Finding {
                rule: RULE,
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}` is unwind machinery on the ingest path; only the audited \
                     chaos-injection point and the supervision boundary may throw or \
                     catch panics, and each must carry a lint:allow audit comment",
                    t.text
                ),
            });
        }
    }
}

/// Marks every token inside a `#[cfg(test)]`-gated item: from the `#` of
/// the attribute through the item's closing brace (or terminating `;` for
/// brace-less items such as `#[cfg(test)] use …;`).
pub(crate) fn cfg_test_mask(toks: &[Token]) -> Vec<bool> {
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

/// Detects the inner attribute `#![forbid(unsafe_code)]`.
fn has_forbid_unsafe(toks: &[Token]) -> bool {
    toks.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    })
}

/// Methods whose call on a hash collection observes iteration order.
const ORDER_SENSITIVE_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// The ordered-iteration checker: a brace-scope-aware tracker of which
/// bindings and fields hold `HashMap`/`HashSet` values, then a scan for
/// order-observing uses of those names.
///
/// Tracking is heuristic (no type inference): a binding counts as a hash
/// collection when its declared type's head, or its initializer's head
/// path, is literally `HashMap`/`HashSet`. Nested containers
/// (`Vec<HashSet<_>>`) and values returned from functions are not tracked —
/// the rule prefers explainable findings over exhaustive ones, and the
/// proptest equivalence suites backstop what the heuristic cannot see.
fn ordered_iteration(toks: &[Token], out: &mut Vec<Finding>) {
    const RULE: &str = "ordered-iteration";
    // Innermost-last stack of lexical scopes: name -> "is a hash collection".
    let mut scopes: Vec<BTreeMap<String, bool>> = vec![BTreeMap::new()];
    // File-wide field/param table for dotted access (`self.open`, `d.map`).
    let mut fields: BTreeMap<String, bool> = BTreeMap::new();

    let lookup = |scopes: &[BTreeMap<String, bool>],
                  fields: &BTreeMap<String, bool>,
                  name: &str,
                  dotted: bool|
     -> bool {
        if !dotted {
            for scope in scopes.iter().rev() {
                if let Some(&hash) = scope.get(name) {
                    return hash;
                }
            }
        }
        fields.get(name).copied().unwrap_or(false)
    };

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            scopes.push(BTreeMap::new());
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            if scopes.len() > 1 {
                scopes.pop();
            }
            i += 1;
            continue;
        }

        // `let [mut] name …` — record the binding with its hash status.
        if t.is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if let Some(name_tok) = toks.get(j) {
                if name_tok.kind == TokKind::Ident && !is_reserved(&name_tok.text) {
                    let name = name_tok.text.clone();
                    let hash = match toks.get(j + 1) {
                        Some(n)
                            if n.is_punct(':')
                                && !toks.get(j + 2).is_some_and(|t| t.is_punct(':')) =>
                        {
                            type_head_is_hash(toks, j + 2)
                        }
                        Some(n) if n.is_punct('=') => type_head_is_hash(toks, j + 2),
                        _ => false,
                    };
                    scopes.last_mut().expect("scope stack non-empty").insert(name, hash);
                }
            }
            i += 1;
            continue;
        }

        // `name: <Type>` in struct fields / fn params / struct literals —
        // record into the field table (and the current scope, for params).
        if t.kind == TokKind::Ident
            && !is_reserved(&t.text)
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && !toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && !(i > 0 && toks[i - 1].is_punct(':'))
        {
            let hash = type_head_is_hash(toks, i + 2);
            // Only a hash-typed declaration may *set* the flag; a later
            // same-named non-hash pattern must not erase a field's status.
            if hash {
                fields.insert(t.text.clone(), true);
                scopes.last_mut().expect("scope stack non-empty").insert(t.text.clone(), true);
            } else {
                fields.entry(t.text.clone()).or_insert(false);
            }
        }

        // `recv.method(` where recv is hash-tracked and method observes order.
        if t.kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|n| n.is_punct('.'))
            && toks.get(i + 3).is_some_and(|n| n.is_punct('('))
        {
            if let Some(m) = toks.get(i + 2) {
                if m.kind == TokKind::Ident && ORDER_SENSITIVE_METHODS.contains(&m.text.as_str()) {
                    let dotted = i > 0 && toks[i - 1].is_punct('.');
                    if lookup(&scopes, &fields, &t.text, dotted) {
                        out.push(Finding {
                            rule: RULE,
                            line: m.line,
                            col: m.col,
                            message: format!(
                                "`.{}()` on the HashMap/HashSet `{}` observes hash order; \
                                 use a BTree collection or sort before the order can reach \
                                 results",
                                m.text, t.text
                            ),
                        });
                    }
                }
            }
        }

        // `for pat in [&][mut] path {` where the path resolves to a tracked
        // hash collection.
        if t.is_ident("for") {
            if let Some(in_at) = find_for_in(toks, i) {
                if let Some((name_at, dotted)) = simple_path_before_brace(toks, in_at + 1) {
                    let name = &toks[name_at].text;
                    if lookup(&scopes, &fields, name, dotted) {
                        out.push(Finding {
                            rule: RULE,
                            line: toks[name_at].line,
                            col: toks[name_at].col,
                            message: format!(
                                "`for … in {name}` iterates a HashMap/HashSet in hash order; \
                                 use a BTree collection or sort before the order can reach \
                                 results"
                            ),
                        });
                    }
                }
            }
        }

        i += 1;
    }
}

/// Keywords that can precede `:` without being a binding name.
fn is_reserved(name: &str) -> bool {
    matches!(
        name,
        "let"
            | "mut"
            | "ref"
            | "if"
            | "else"
            | "match"
            | "for"
            | "while"
            | "loop"
            | "fn"
            | "impl"
            | "trait"
            | "struct"
            | "enum"
            | "type"
            | "where"
            | "pub"
            | "use"
            | "mod"
            | "return"
            | "break"
            | "continue"
            | "in"
            | "as"
            | "move"
            | "dyn"
            | "self"
            | "Self"
            | "super"
            | "crate"
            | "static"
            | "const"
            | "unsafe"
            | "async"
            | "await"
    )
}

/// Whether the type/initializer starting at `at` has `HashMap`/`HashSet`
/// as its head after skipping references, `mut`/`dyn`, lifetimes, and path
/// qualifiers (`std::collections::`).
fn type_head_is_hash(toks: &[Token], mut at: usize) -> bool {
    loop {
        match toks.get(at) {
            Some(t) if t.is_punct('&') => at += 1,
            Some(t) if t.kind == TokKind::Lifetime => at += 1,
            Some(t) if t.is_ident("mut") || t.is_ident("dyn") => at += 1,
            Some(t)
                if t.kind == TokKind::Ident
                    && toks.get(at + 1).is_some_and(|n| n.is_punct(':'))
                    && toks.get(at + 2).is_some_and(|n| n.is_punct(':'))
                    && !t.is_ident("HashMap")
                    && !t.is_ident("HashSet") =>
            {
                // Path qualifier such as `std::` or `collections::`.
                at += 3;
            }
            _ => break,
        }
    }
    toks.get(at).is_some_and(|t| t.is_ident("HashMap") || t.is_ident("HashSet"))
}

/// Finds the `in` keyword of the `for` loop whose `for` is at `for_at`.
fn find_for_in(toks: &[Token], for_at: usize) -> Option<usize> {
    // The pattern between `for` and `in` cannot contain `in` itself.
    // Bail out after a window to avoid scanning whole files on `for` in
    // other positions (there are none in Rust, but stay bounded anyway).
    let window = &toks[for_at + 1..(for_at + 24).min(toks.len())];
    for (off, t) in window.iter().enumerate() {
        if t.is_ident("in") {
            return Some(for_at + 1 + off);
        }
        if t.is_punct('{') {
            break;
        }
    }
    None
}

/// If the tokens from `at` up to the loop-body `{` form a simple path
/// (`name`, `&name`, `self.field`, `&mut a.b.c`), returns the index of the
/// final name and whether it was dotted. Any other expression shape —
/// calls, indexing, ranges, literals — is out of scope for this rule.
fn simple_path_before_brace(toks: &[Token], at: usize) -> Option<(usize, bool)> {
    let mut last_ident: Option<usize> = None;
    let mut dotted = false;
    let mut j = at;
    while let Some(t) = toks.get(j) {
        if t.is_punct('{') {
            return last_ident.map(|idx| (idx, dotted));
        }
        if t.kind == TokKind::Ident {
            if !is_reserved(&t.text) || t.is_ident("self") {
                dotted = last_ident.is_some() && toks[j - 1].is_punct('.');
                last_ident = Some(j);
            }
        } else if t.is_punct('&') || t.is_punct('.') {
            // Still a simple borrow / field path.
        } else {
            return None;
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::lex;

    fn member(name: &str) -> FileClass {
        FileClass {
            rel: format!("crates/{name}/src/lib.rs"),
            class: CrateClass::Member(name.to_string()),
            is_compilation_root: false,
        }
    }

    fn scan(fc: &FileClass, src: &str) -> Vec<Finding> {
        scan_file(fc, &lex(src))
    }

    #[test]
    fn instant_now_flagged_outside_bench() {
        let f = scan(&member("flow"), "fn f() { let t = std::time::Instant::now(); }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-ambient-nondeterminism");
    }

    #[test]
    fn instant_now_allowed_in_bench() {
        let f = scan(&member("bench"), "fn f() { let t = std::time::Instant::now(); }");
        assert!(f.is_empty());
    }

    #[test]
    fn thread_spawn_flagged_outside_par() {
        let f = scan(&member("subspace"), "fn f() { std::thread::spawn(|| {}); }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-raw-threads");
        let ok = scan(&member("par"), "fn f() { std::thread::spawn(|| {}); }");
        assert!(ok.is_empty());
    }

    #[test]
    fn thread_sleep_and_current_are_fine() {
        let f = scan(
            &member("subspace"),
            "fn f() { std::thread::sleep(d); let id = std::thread::current().id(); }",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn env_var_flagged_outside_bench() {
        let f = scan(&member("par"), "fn f() { std::env::var(\"X\").ok(); }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "env-read-containment");
        assert!(scan(&member("bench"), "fn f() { std::env::var(\"X\").ok(); }").is_empty());
        // env::args is CLI input, not ambient state.
        assert!(scan(&member("par"), "fn f() { std::env::args().count(); }").is_empty());
        // The env!() macro is compile-time.
        assert!(scan(&member("par"), "fn f() { let d = env!(\"CARGO_MANIFEST_DIR\"); }").is_empty());
    }

    #[test]
    fn unsafe_token_flagged() {
        let f = scan(&member("linalg"), "fn f() { unsafe { core(); } }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "unsafe-containment");
    }

    #[test]
    fn unsafe_in_comment_or_string_ignored() {
        let f =
            scan(&member("linalg"), "// unsafe lives in vendor\nfn f() { let s = \"unsafe\"; }");
        assert!(f.is_empty());
    }

    #[test]
    fn scoped_pool_vendor_exempt_other_vendor_checked() {
        let sp = FileClass {
            rel: "vendor/scoped_pool/src/lib.rs".into(),
            class: CrateClass::Vendor("scoped_pool".into()),
            is_compilation_root: true,
        };
        assert!(scan(&sp, "fn f() { unsafe { x(); } }").is_empty());
        let other = FileClass {
            rel: "vendor/bytes/src/lib.rs".into(),
            class: CrateClass::Vendor("bytes".into()),
            is_compilation_root: true,
        };
        let f = scan(&other, "#![forbid(unsafe_code)]\nfn f() { unsafe { x(); } }");
        assert_eq!(f.len(), 1);
        // And vendor shims skip the other rules entirely.
        assert!(
            scan(&other, "#![forbid(unsafe_code)]\nfn f() { std::env::var(\"X\"); }").is_empty()
        );
    }

    #[test]
    fn missing_forbid_on_root_flagged() {
        let root = FileClass {
            rel: "crates/flow/src/lib.rs".into(),
            class: CrateClass::Member("flow".into()),
            is_compilation_root: true,
        };
        let f = scan(&root, "fn f() {}");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("forbid(unsafe_code)"));
        assert!(scan(&root, "#![forbid(unsafe_code)]\nfn f() {}").is_empty());
    }

    #[test]
    fn hashmap_iteration_flagged_by_local_binding() {
        let src = "fn f() { let mut m = std::collections::HashMap::new(); m.insert(1, 2); \
                   for (k, v) in m.iter() { use_it(k, v); } }";
        let f = scan(&member("flow"), src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "ordered-iteration");
    }

    #[test]
    fn hashmap_membership_ops_unflagged() {
        let src = "fn f() { let mut m = HashMap::new(); m.insert(1, 2); \
                   let _ = m.get(&1); let _ = m.len(); let _ = m.contains_key(&1); \
                   let e = m.entry(3).or_default(); }";
        assert!(scan(&member("flow"), src).is_empty());
    }

    #[test]
    fn hashset_for_loop_flagged() {
        let src = "fn f(s: &HashSet<u32>) { for x in s { g(x); } }";
        let f = scan(&member("net"), src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "ordered-iteration");
    }

    #[test]
    fn field_access_flagged_via_field_table() {
        let src = "struct D { open: HashMap<u64, R> } impl D { fn f(&self) { \
                   for w in self.open.keys() { g(w); } } }";
        let f = scan(&member("flow"), src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("keys"));
    }

    #[test]
    fn btreemap_never_flagged() {
        let src = "fn f() { let mut m = BTreeMap::new(); for (k, v) in m.iter() { g(k, v); } \
                   let s: BTreeSet<u32> = x.collect(); for v in &s { g(v); } }";
        assert!(scan(&member("flow"), src).is_empty());
    }

    #[test]
    fn shadowing_clears_hash_status_per_scope() {
        // `seen` is a HashSet in one fn and a Vec in another: only the
        // first may be flagged.
        let src = "fn a() { let mut seen = std::collections::HashSet::new(); \
                   for x in seen.iter() { g(x); } } \
                   fn b() { let mut seen = vec![false; 4]; \
                   for x in seen.iter() { g(x); } }";
        let f = scan(&member("net"), src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "ordered-iteration");
    }

    #[test]
    fn vec_of_hashsets_is_out_of_scope() {
        let src = "struct B { distinct: Vec<HashSet<K>> } fn f(b: &B) { \
                   let n = b.distinct.len(); }";
        assert!(scan(&member("flow"), src).is_empty());
    }

    #[test]
    fn drain_and_values_flagged() {
        let src = "struct A { open: HashMap<u64, V> } impl A { fn f(&mut self) { \
                   let v: Vec<V> = self.open.drain().collect(); \
                   let w: Vec<f64> = self.open.values().collect(); } }";
        let f = scan(&member("flow"), src);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn param_annotation_tracks_hash() {
        let src = "fn dominant(map: &HashMap<K, C>, total: f64) { \
                   let best = map.iter().max(); }";
        let f = scan(&member("flow"), src);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn mutex_wrapped_set_untracked() {
        let src = "fn f() { let ids = Mutex::new(HashSet::new()); \
                   ids.lock().unwrap().insert(1); }";
        assert!(scan(&member("par"), src).is_empty());
    }

    #[test]
    fn ranges_and_calls_in_for_loops_ignored() {
        let src = "fn f() { for i in 0..10 { g(i); } for w in windows() { g(w); } \
                   for r in rows.iter() { g(r); } }";
        assert!(scan(&member("flow"), src).is_empty());
    }

    #[test]
    fn rule_table_consistent() {
        assert_eq!(RULES.len(), 6);
        assert!(is_known_rule("ordered-iteration"));
        assert!(is_known_rule("no-panic-in-ingest"));
        assert!(!is_known_rule("made-up-rule"));
    }

    fn flow_src() -> FileClass {
        FileClass {
            rel: "crates/flow/src/netflow.rs".into(),
            class: CrateClass::Member("flow".into()),
            is_compilation_root: false,
        }
    }

    #[test]
    fn unwrap_and_expect_flagged_in_flow_src() {
        let src = "fn f(x: Option<u32>) -> u32 { let a = x.unwrap(); \
                   let b = x.expect(\"present\"); a + b }";
        let f = scan(&flow_src(), src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|d| d.rule == "no-panic-in-ingest"));
    }

    #[test]
    fn panic_family_macros_flagged_in_flow_src() {
        let src = "fn f(n: u8) { match n { 0 => panic!(\"zero\"), 1 => todo!(), \
                   2 => unimplemented!(), _ => unreachable!() } }";
        let f = scan(&flow_src(), src);
        assert_eq!(f.len(), 4, "{f:?}");
    }

    #[test]
    fn unwind_machinery_flagged_in_ingest_sources() {
        let src = "fn f() { std::panic::panic_any(Payload { p: 1 }); }\n\
                   fn g() { let _ = std::panic::catch_unwind(|| 1); }";
        let f = scan(&flow_src(), src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|d| d.rule == "no-panic-in-ingest"));
        // Bare identifiers that are not call sites stay clean (e.g. a
        // `use std::panic::catch_unwind;` import line).
        let import_only = "use std::panic::catch_unwind;";
        assert!(scan(&flow_src(), import_only).is_empty());
    }

    #[test]
    fn fallible_combinators_and_debug_asserts_unflagged() {
        let src = "fn f(x: Option<u32>) -> u32 { debug_assert!(true); \
                   debug_assert_eq!(1, 1, \"invariant\"); \
                   x.unwrap_or(0) + x.unwrap_or_default() + x.unwrap_or_else(|| 1) }";
        assert!(scan(&flow_src(), src).is_empty());
    }

    #[test]
    fn cfg_test_region_exempt_from_panic_rule() {
        let src = "fn prod(x: Option<u32>) -> Option<u32> { x }\n\
                   #[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { \
                   let v = prod(Some(1)).unwrap(); assert_eq!(v, 1); \
                   if v == 2 { panic!(\"nope\"); } }\n}";
        assert!(scan(&flow_src(), src).is_empty());
        // The same calls outside the gated module do fire.
        let bare = "fn prod(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(scan(&flow_src(), bare).len(), 1);
    }

    #[test]
    fn panic_rule_scoped_to_flow_library_sources() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        // Other crates keep their unwraps (fail-fast harness style).
        assert!(scan(&member("subspace"), src).is_empty());
        // Flow integration tests under tests/ are test code.
        let it = FileClass {
            rel: "crates/flow/tests/proptest_flow.rs".into(),
            class: CrateClass::Member("flow".into()),
            is_compilation_root: false,
        };
        assert!(scan(&it, src).is_empty());
    }

    #[test]
    fn panic_rule_covers_serve_sources_and_binaries() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        for rel in ["crates/serve/src/daemon.rs", "crates/serve/src/bin/odflow_serve.rs"] {
            let fc = FileClass {
                rel: rel.into(),
                class: CrateClass::Member("serve".into()),
                is_compilation_root: rel.contains("/bin/"),
            };
            let f = scan(&fc, src);
            assert!(
                f.iter().any(|d| d.rule == "no-panic-in-ingest"),
                "{rel} must be covered: {f:?}"
            );
        }
        // Serve integration tests stay fail-fast test code.
        let it = FileClass {
            rel: "crates/serve/tests/loopback_e2e.rs".into(),
            class: CrateClass::Member("serve".into()),
            is_compilation_root: false,
        };
        assert!(scan(&it, src).is_empty());
    }

    #[test]
    fn cfg_test_use_item_masks_only_itself() {
        let src = "#[cfg(test)]\nuse helpers::make_fixture;\n\
                   fn prod(x: Option<u32>) -> u32 { x.unwrap() }";
        let f = scan(&flow_src(), src);
        assert_eq!(f.len(), 1, "the unwrap after the gated use must fire: {f:?}");
    }
}
