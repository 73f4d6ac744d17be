//! Workspace smoke test: the facade re-export surface stays intact, a
//! tiny scenario round-trips through the full pipeline quickly, and
//! README's crate map names the workspace's crates.
//!
//! This is the cheapest possible guard against workspace-manifest rot: it
//! touches one item from every re-exported crate, runs a minimal
//! [`odflow::experiment::run_scenario`] end to end, drives a 2-node
//! topology through the routing substrate, and reads the manifests.

use odflow::experiment::{run_scenario, ExperimentConfig};
use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};

/// Every `odflow::{...}` re-export must resolve and expose its core items.
#[test]
fn reexport_surface_is_intact() {
    // linalg
    let m = odflow::linalg::Matrix::from_fn(3, 3, |i, j| if i == j { 2.0 } else { 0.0 });
    let eig = odflow::linalg::eigen_symmetric(&m).expect("eigen");
    assert!((eig.eigenvalues[0] - 2.0).abs() < 1e-12);

    // net
    let topology = odflow::net::Topology::abilene();
    assert_eq!(topology.num_pops(), 11);
    assert_eq!(topology.num_od_pairs(), 121);

    // flow
    let key = odflow::flow::FlowKey::new(
        odflow::net::IpAddr::from_octets(10, 0, 0, 1),
        odflow::net::IpAddr::from_octets(10, 16, 0, 1),
        1234,
        80,
        odflow::flow::Protocol::Tcp,
    );
    assert_eq!(key.with_anonymized_dst(), key.with_anonymized_dst());

    // gen
    let scenario = odflow::gen::Scenario::paper_week(42, 0).expect("paper week");
    assert_eq!(scenario.config.num_bins, 2016);

    // subspace
    let subspace_cfg = odflow::subspace::SubspaceConfig::default();
    assert_eq!(subspace_cfg.k, 4);
    let t2 = odflow::subspace::t2_threshold(4, 2016, 0.001).expect("t2 threshold");
    assert!(t2 > 0.0);

    // classify
    let rules = odflow::classify::RuleConfig::default();
    assert!(rules.dominance.threshold > 0.0);
}

/// A 2-node backbone built through the public net API routes end to end.
#[test]
fn two_node_topology_routes() {
    let t = odflow::net::TopologyBuilder::new()
        .pop("AAA", "Alpha")
        .pop("BBB", "Beta")
        .link(0, 1, 1.0, 10e9)
        .build()
        .expect("2-node topology");
    assert_eq!(t.num_pops(), 2);
    assert_eq!(t.num_od_pairs(), 4);

    let plan = odflow::net::AddressPlan::synthetic(&t);
    let table = plan.build_route_table(1.0).expect("route table");
    let addr = plan.customer_addr(1, 0, 7);
    assert_eq!(table.egress(addr), Some(1));
}

/// `ExperimentConfig::default()` round-trips a tiny scenario in under 1s.
#[test]
fn tiny_scenario_roundtrip_is_fast() {
    // Small but still enough bins for the k = 4 subspace fit and for the
    // Q/T² thresholds (which need n > k samples).
    let config = odflow::gen::ScenarioConfig {
        seed: 7,
        num_bins: 36,
        total_demand: 400.0,
        ..Default::default()
    };
    let scenario = odflow::gen::Scenario::new(config, vec![]).expect("scenario");

    // lint:allow(no-ambient-nondeterminism) -- wall-clock budget assertion on the tiny scenario, not part of any result
    let start = Instant::now();
    let run = run_scenario(&scenario, &ExperimentConfig::default()).expect("run");
    let elapsed = start.elapsed();

    assert_eq!(run.matrices.bytes.data.nrows(), 36);
    assert_eq!(run.matrices.bytes.data.ncols(), 121);
    assert!(run.resolution.flow_rate() > 0.5, "most flows must resolve");
    assert!(run.truth.is_empty(), "no injected anomalies were scheduled");
    assert!(elapsed < Duration::from_secs(1), "tiny scenario took {elapsed:?}, budget is 1s");
}

/// The text between the first pair of backticks in `cell`.
fn backticked(cell: &str) -> Option<&str> {
    cell.split('`').nth(1)
}

/// The package name a `Cargo.toml` declares: its first `name = "…"`.
fn package_name(manifest: &str) -> String {
    let line = manifest.lines().find(|l| l.starts_with("name = ")).expect("package name");
    line.trim_start_matches("name = ").trim_matches('"').to_owned()
}

/// README's crate table lists exactly the workspace's own crates — every
/// member outside `vendor/`, and the root — each under its package name
/// at its path: a crate added, renamed, moved or removed without its row
/// fails here.
#[test]
fn readme_crate_table_lists_the_workspace_crates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |path: &Path| std::fs::read_to_string(path).expect("readable workspace file");

    let manifest = read(&root.join("Cargo.toml"));
    let members = manifest
        .lines()
        .skip_while(|l| l.trim() != "members = [")
        .skip(1)
        .take_while(|l| l.trim() != "]")
        .filter_map(|l| l.trim().strip_prefix('"')?.strip_suffix("\","))
        .filter(|path| !path.starts_with("vendor/"));
    let workspace: BTreeSet<(String, String)> = members
        .chain(["."])
        .map(|path| (package_name(&read(&root.join(path).join("Cargo.toml"))), path.to_owned()))
        .collect();

    let readme = read(&root.join("README.md"));
    let table: BTreeSet<(String, String)> = readme
        .lines()
        .skip_while(|l| !l.starts_with("| Crate | Path | Role |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|row| {
            let cells: Vec<&str> = row.split('|').collect();
            let cell = |i: usize| backticked(cells[i]).expect("backticked cell").to_owned();
            (cell(1), cell(2))
        })
        .collect();

    assert!(workspace.len() >= 11, "workspace crates {workspace:?}");
    assert_eq!(table, workspace, "README's crate table against the workspace manifests");
}
