//! The size and surface report, as a summary line and as JSON.
//!
//! The JSON form is hand-serialized (the workspace is offline; no serde)
//! and lands next to `BENCH_pipeline.json` as the CI artifact whose counts
//! CI holds at their ceilings.

/// The size and public surface of a whole tree.
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
    /// `pub` items nothing names, as `path:line name` (see
    /// [`crate::surface`]).
    pub dead_pub_items: Vec<String>,
    /// `pub` items only test code names, as `path:line name`.
    pub test_only_pub_items: Vec<String>,
    /// `pub` items no product code names but an example does, as
    /// `path:line name`.
    pub example_only_pub_items: Vec<String>,
}

impl Report {
    /// The one-line text summary.
    pub fn render_text(&self) -> String {
        format!(
            "odflow_lint: {} files, {} lines ({} product), {} crates, \
             {} dead / {} test-only / {} example-only pub items\n",
            self.files_scanned,
            self.lines_scanned,
            self.product_lines,
            self.workspace_crates,
            self.dead_pub_items.len(),
            self.test_only_pub_items.len(),
            self.example_only_pub_items.len()
        )
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
        for (key, items, sep) in [
            ("dead_pub_items", &self.dead_pub_items, ","),
            ("test_only_pub_items", &self.test_only_pub_items, ","),
            ("example_only_pub_items", &self.example_only_pub_items, ""),
        ] {
            let items: Vec<String> = items.iter().map(|i| json_str(i)).collect();
            s.push_str(&format!("  \"{key}\": [{}]{sep}\n", items.join(", ")));
        }
        s.push_str("}\n");
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
            dead_pub_items: vec!["crates/a/src/lib.rs:3 unused".into()],
            test_only_pub_items: Vec::new(),
            example_only_pub_items: vec!["crates/a/src/lib.rs:9 demo_only".into()],
        }
    }

    #[test]
    fn clean_report_summarizes() {
        assert_eq!(
            sample().render_text(),
            "odflow_lint: 3 files, 410 lines (300 product), 2 crates, \
             1 dead / 0 test-only / 1 example-only pub items\n"
        );
    }

    #[test]
    fn json_escapes_and_structures() {
        let mut r = sample();
        r.root = "quote \" backslash \\ newline \n".into();
        let j = r.to_json();
        assert!(j.contains("\"root\": \"quote \\\" backslash \\\\ newline \\n\","));
        assert!(j.contains("\"files_scanned\": 3"));
        assert!(j.contains("\"lines_scanned\": 410"));
        assert!(j.contains("\"product_lines\": 300"));
        assert!(j.contains("\"workspace_crates\": 2"));
        assert!(j.contains("\"dead_pub_items\": [\"crates/a/src/lib.rs:3 unused\"],"));
        assert!(j.contains("\"test_only_pub_items\": [],"));
        assert!(j.contains("\"example_only_pub_items\": [\"crates/a/src/lib.rs:9 demo_only\"]\n}"));
    }
}
