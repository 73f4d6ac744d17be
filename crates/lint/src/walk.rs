//! Deterministic workspace file discovery and path classification.
//!
//! No globbing library: a sorted recursive descent over the workspace,
//! skipping build output (`target/`), hidden directories (`.git/`) and
//! fixture corpora (`tests/fixtures/`: sources that exist to be scanned or
//! linted on their own, such as the seeded-violation package).

use std::io;
use std::path::{Path, PathBuf};

/// Which workspace population a file belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrateClass {
    /// A first-party workspace member under `crates/<name>`.
    Member(String),
    /// The root `odflow` package (`src/`, `tests/`, `examples/`).
    Root,
    /// A vendored shim under `vendor/<name>`.
    Vendor(String),
}

/// Where one discovered file sits in the workspace.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Which crate population the file belongs to.
    pub class: CrateClass,
    /// `true` if this file is a compilation root (`lib.rs`, `main.rs`,
    /// `src/bin/*.rs`, `examples/*.rs`).
    pub is_compilation_root: bool,
}

/// All `.rs` files under `root`, workspace-relative, in sorted order.
///
/// # Errors
///
/// Propagates directory-read failures (permissions, races).
pub fn rust_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    descend(root, Path::new(""), &mut out)?;
    out.sort();
    Ok(out)
}

fn descend(abs: &Path, rel: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<(String, PathBuf, bool)> = Vec::new();
    for entry in std::fs::read_dir(abs)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let is_dir = entry.file_type()?.is_dir();
        entries.push((name, entry.path(), is_dir));
    }
    entries.sort();
    for (name, path, is_dir) in entries {
        if is_dir {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            if name == "fixtures" && rel.file_name().is_some_and(|p| p == "tests") {
                continue;
            }
            descend(&path, &rel.join(&name), out)?;
        } else if name.ends_with(".rs") {
            out.push(rel.join(&name));
        }
    }
    Ok(())
}

/// Classifies one workspace-relative path into its crate population and
/// compilation-root status.
pub fn classify(rel: &Path) -> FileClass {
    let rel_str = rel.to_string_lossy().replace('\\', "/");
    let parts: Vec<&str> = rel_str.split('/').collect();
    let (class, within): (CrateClass, &[&str]) = match parts.as_slice() {
        ["crates", name, rest @ ..] => (CrateClass::Member((*name).to_string()), rest),
        ["vendor", name, rest @ ..] => (CrateClass::Vendor((*name).to_string()), rest),
        rest => (CrateClass::Root, rest),
    };
    let is_compilation_root = matches!(within, ["src", "lib.rs"] | ["src", "main.rs"])
        || matches!(within, ["src", "bin", f] if f.ends_with(".rs"))
        || matches!(within, ["examples", f] if f.ends_with(".rs"));
    FileClass { rel: rel_str, class, is_compilation_root }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_member_lib_root() {
        let fc = classify(Path::new("crates/flow/src/lib.rs"));
        assert_eq!(fc.class, CrateClass::Member("flow".into()));
        assert!(fc.is_compilation_root);
    }

    #[test]
    fn classify_member_module_not_root() {
        let fc = classify(Path::new("crates/flow/src/digest.rs"));
        assert!(!fc.is_compilation_root);
    }

    #[test]
    fn classify_bin_and_example_roots() {
        assert!(classify(Path::new("crates/bench/src/bin/perf_report.rs")).is_compilation_root);
        assert!(classify(Path::new("examples/quickstart.rs")).is_compilation_root);
        assert!(!classify(Path::new("crates/bench/benches/pipeline.rs")).is_compilation_root);
        assert!(!classify(Path::new("tests/end_to_end.rs")).is_compilation_root);
    }

    #[test]
    fn classify_root_and_vendor() {
        assert_eq!(classify(Path::new("src/lib.rs")).class, CrateClass::Root);
        assert!(classify(Path::new("src/lib.rs")).is_compilation_root);
        assert_eq!(
            classify(Path::new("vendor/scoped_pool/src/lib.rs")).class,
            CrateClass::Vendor("scoped_pool".into())
        );
    }
}
