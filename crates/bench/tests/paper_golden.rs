//! `paper_report` against its committed golden, where a debug build can
//! afford it: the two sections that share one week-0 run. CI's release
//! step diffs the whole file.

#![forbid(unsafe_code)]

use std::process::Command;

const GOLDEN: &str = include_str!("../golden/paper_report.txt");

/// The `#### name` block of the golden, up to the next section header.
fn golden_block(name: &str) -> &'static str {
    let header = format!("#### {name}\n");
    let start = GOLDEN.find(&header).expect("section in golden");
    let body = start + header.len();
    let end = GOLDEN[body..].find("#### ").map_or(GOLDEN.len(), |next| body + next);
    &GOLDEN[start..end]
}

#[test]
fn week0_sections_match_the_golden_byte_for_byte() {
    let out = Command::new(env!("CARGO_BIN_EXE_paper_report"))
        .args(["fig1", "ablation-stats"])
        .output()
        .expect("run paper_report");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let expected = [golden_block("fig1"), golden_block("ablation-stats")].concat();
    assert_eq!(String::from_utf8(out.stdout).expect("utf-8"), expected);
}

#[test]
fn unknown_section_exits_2_with_the_section_list() {
    let out = Command::new(env!("CARGO_BIN_EXE_paper_report"))
        .arg("table4")
        .output()
        .expect("run paper_report");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    assert!(stderr.contains("unknown section: table4"), "{stderr}");
    assert!(
        stderr.contains(
            "sections: table1 table2 table3 fig1 fig2 resolution ablation-k \
             ablation-sampling ablation-stats ablation-dominance fig1-csv"
        ),
        "{stderr}"
    );
}
