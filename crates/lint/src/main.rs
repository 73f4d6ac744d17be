//! The `odflow_lint` report binary.
//!
//! ```text
//! odflow_lint --workspace [--json]
//! odflow_lint --root <path> [--json]
//! ```
//!
//! Exit status: 0 reported, 2 usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

/// Name of the JSON artifact written next to `BENCH_pipeline.json`.
const JSON_REPORT: &str = "LINT_report.json";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut want_workspace = false;
    let mut want_json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => want_workspace = true,
            "--json" => want_json = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root requires a path"),
            },
            "--help" | "-h" => {
                println!(
                    "odflow_lint: workspace size and pub-surface report\n\n\
                     USAGE: odflow_lint (--workspace | --root <path>) [--json]\n\n\
                     --workspace  report on the enclosing cargo workspace (found from the cwd)\n\
                     --root PATH  report on the tree rooted at PATH\n\
                     --json       also write {JSON_REPORT} at the root"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root = match (root, want_workspace) {
        (Some(r), _) => r,
        (None, true) => match find_workspace_root() {
            Some(r) => r,
            None => {
                eprintln!("odflow_lint: no workspace Cargo.toml found above the current directory");
                return ExitCode::from(2);
            }
        },
        (None, false) => return usage("pass --workspace or --root <path>"),
    };

    let report = match odflow_lint::lint_root(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("odflow_lint: {e}");
            return ExitCode::from(2);
        }
    };

    if want_json {
        let path = root.join(JSON_REPORT);
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("odflow_lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", path.display());
    }
    print!("{}", report.render_text());
    ExitCode::SUCCESS
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("odflow_lint: {msg} (try --help)");
    ExitCode::from(2)
}

/// Walks upward from the current directory to the outermost directory whose
/// `Cargo.toml` declares a `[workspace]` section.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    let mut found: Option<PathBuf> = None;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                found = Some(dir.clone());
            }
        }
        if !dir.pop() {
            return found;
        }
    }
}
