//! Diagnostics and the machine-readable report.
//!
//! Text diagnostics are rustc-style (`error[rule]` with a `-->
//! file:line:col` arrow) so editors and CI log scrapers pick them up
//! unmodified. The JSON form is hand-serialized (the workspace is offline;
//! no serde) and lands next to `BENCH_pipeline.json` as the CI artifact.

use crate::rules::RULES;

/// One reportable problem: a rule violation, an unused or malformed
/// `lint:allow`, or an unknown rule name in an allow.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule name (one of [`RULES`]) or the meta kinds `unused-allow` /
    /// `malformed-allow`.
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human explanation.
    pub message: String,
}

impl Diagnostic {
    /// Renders the rustc-style two-line diagnostic.
    pub fn render(&self) -> String {
        format!(
            "error[{}]: {}\n  --> {}:{}:{}",
            self.rule, self.message, self.path, self.line, self.col
        )
    }
}

/// The outcome of linting a whole tree.
#[derive(Debug)]
pub struct Report {
    /// Workspace root the walk started from.
    pub root: String,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Lines in those files, first-party and vendored, tests and comments
    /// included — the workspace's size as a number a PR can move.
    pub lines_scanned: usize,
    /// Of those, the first-party lines of product code: outside
    /// `vendor/`, `tests/` directories and `#[cfg(test)]` items (see
    /// [`crate::surface::product_lines`]) — the number the expected
    /// direction is down for.
    pub product_lines: usize,
    /// Crates the scanned files belong to: the root package, each
    /// `crates/<name>` member and each `vendor/<name>` shim.
    pub workspace_crates: usize,
    /// All diagnostics, sorted by path, line, column.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `lint:allow` directives that suppressed a finding.
    pub allows_used: usize,
    /// `pub` items nothing names, as `path:line name` (see
    /// [`crate::surface`]).
    pub dead_pub_items: Vec<String>,
    /// `pub` items only test code names, as `path:line name`.
    pub test_only_pub_items: Vec<String>,
}

impl Report {
    /// `true` when the tree satisfies every invariant.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Full text rendering: diagnostics then a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push_str("\n\n");
        }
        if self.is_clean() {
            out.push_str(&format!(
                "odflow_lint: clean — {} files, {} lines ({} product), {} crates, \
                 {} suppression(s) in use, {} dead / {} test-only pub items\n",
                self.files_scanned,
                self.lines_scanned,
                self.product_lines,
                self.workspace_crates,
                self.allows_used,
                self.dead_pub_items.len(),
                self.test_only_pub_items.len()
            ));
        } else {
            out.push_str(&format!(
                "odflow_lint: {} violation(s) across {} files\n",
                self.diagnostics.len(),
                self.files_scanned
            ));
        }
        out
    }

    /// Machine-readable report for the CI artifact.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"tool\": \"odflow_lint\",\n");
        s.push_str(&format!("  \"root\": {},\n", json_str(&self.root)));
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str(&format!("  \"lines_scanned\": {},\n", self.lines_scanned));
        s.push_str(&format!("  \"product_lines\": {},\n", self.product_lines));
        s.push_str(&format!("  \"workspace_crates\": {},\n", self.workspace_crates));
        s.push_str(&format!("  \"allows_used\": {},\n", self.allows_used));
        s.push_str(&format!("  \"clean\": {},\n", self.is_clean()));
        s.push_str("  \"rules\": [");
        for (i, r) in RULES.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&json_str(r.name));
        }
        s.push_str("],\n");
        for (key, items) in [
            ("dead_pub_items", &self.dead_pub_items),
            ("test_only_pub_items", &self.test_only_pub_items),
        ] {
            let items: Vec<String> = items.iter().map(|i| json_str(i)).collect();
            s.push_str(&format!("  \"{key}\": [{}],\n", items.join(", ")));
        }
        s.push_str("  \"violations\": [\n");
        for (i, d) in self.diagnostics.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"col\": {}, \"message\": {}}}",
                json_str(&d.rule),
                json_str(&d.path),
                d.line,
                d.col,
                json_str(&d.message)
            ));
            if i + 1 < self.diagnostics.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            root: "/w".into(),
            files_scanned: 3,
            lines_scanned: 410,
            product_lines: 300,
            workspace_crates: 2,
            diagnostics: vec![Diagnostic {
                rule: "no-raw-threads".into(),
                path: "crates/subspace/src/streaming.rs".into(),
                line: 279,
                col: 17,
                message: "raw `thread::spawn`".into(),
            }],
            allows_used: 2,
            dead_pub_items: vec!["crates/a/src/lib.rs:3 unused".into()],
            test_only_pub_items: Vec::new(),
        }
    }

    #[test]
    fn render_is_rustc_style() {
        let r = sample();
        let text = r.render_text();
        assert!(text.contains("error[no-raw-threads]"));
        assert!(text.contains("--> crates/subspace/src/streaming.rs:279:17"));
        assert!(text.contains("1 violation(s)"));
    }

    #[test]
    fn clean_report_summarizes() {
        let mut r = sample();
        r.diagnostics.clear();
        assert!(r.is_clean());
        assert!(r.render_text().contains(
            "clean — 3 files, 410 lines (300 product), 2 crates, 2 suppression(s) in use, \
             1 dead / 0 test-only pub items"
        ));
    }

    #[test]
    fn json_escapes_and_structures() {
        let mut r = sample();
        r.diagnostics[0].message = "quote \" backslash \\ newline \n".into();
        let j = r.to_json();
        assert!(j.contains("\\\""));
        assert!(j.contains("\\\\"));
        assert!(j.contains("\\n"));
        assert!(j.contains("\"clean\": false"));
        assert!(j.contains("\"files_scanned\": 3"));
        assert!(j.contains("\"lines_scanned\": 410"));
        assert!(j.contains("\"product_lines\": 300"));
        assert!(j.contains("\"workspace_crates\": 2"));
        assert!(j.contains("\"dead_pub_items\": [\"crates/a/src/lib.rs:3 unused\"],"));
        assert!(j.contains("\"test_only_pub_items\": [],"));
        assert!(j.contains("\"rules\": [\"no-ambient-nondeterminism\""));
    }
}
