//! `serve_loadgen` — deterministic loopback load generator.
//!
//! Renders a `paper_window` scenario as NetFlow v5 export frames and
//! replays them against a running `odflow_serve` daemon over UDP or TCP,
//! ending (by default) with the drain control so the daemon flushes.
//!
//! ```text
//! serve_loadgen --target 127.0.0.1:2055 --transport udp --bins 288 --seed 1
//! ```
//!
//! Flags: `--target ADDR` (required), `--transport udp|tcp` (default
//! udp), `--bins N` (default 288), `--seed N` (default 1), `--tenant N`
//! (envelope byte, default 0), `--no-drain` (skip the trailing drain
//! control).

#![forbid(unsafe_code)]
// Hostile wire input is quarantined and accounted, never a reason to abort.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use odflow_gen::Scenario;
use odflow_serve::{replay_scenario, LoadGenConfig, Transport};
use std::net::SocketAddr;

fn main() {
    if let Err(e) = real_main() {
        eprintln!("serve_loadgen: {e}");
        std::process::exit(1);
    }
}

fn real_main() -> Result<(), Box<dyn std::error::Error>> {
    let mut target: Option<SocketAddr> = None;
    let mut transport = Transport::Udp;
    let mut bins: usize = 288;
    let mut seed: u64 = 1;
    let mut tenant: u8 = 0;
    let mut send_drain = true;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--target" => target = Some(value("--target")?.parse()?),
            "--transport" => {
                transport = match value("--transport")?.as_str() {
                    "udp" => Transport::Udp,
                    "tcp" => Transport::Tcp,
                    other => return Err(format!("unknown transport: {other}").into()),
                };
            }
            "--bins" => bins = value("--bins")?.parse()?,
            "--seed" => seed = value("--seed")?.parse()?,
            "--tenant" => tenant = value("--tenant")?.parse()?,
            "--no-drain" => send_drain = false,
            other => return Err(format!("unknown flag: {other}").into()),
        }
    }
    let Some(target) = target else {
        return Err("--target is required".into());
    };

    let scenario = Scenario::paper_window(seed, bins)?;
    let config = LoadGenConfig { tenant, send_drain, ..LoadGenConfig::new(transport) };
    let report = replay_scenario(&scenario, target, &config)?;
    println!(
        "sent {} frames ({} bytes) over {:?}; drain={}",
        report.frames_sent, report.bytes_sent, transport, report.drain_sent
    );
    Ok(())
}
