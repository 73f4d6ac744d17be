//! Every banned path and denied restriction lint, used once.
//!
//! ```text
//! cargo clippy --manifest-path crates/lint/tests/fixtures/violations/Cargo.toml \
//!     --target-dir target/violations -- -D warnings
//! ```
//!
//! must fail, naming each path below: clippy reads the root `clippy.toml`,
//! the nearest one above this package. An entry deleted from that file
//! shows as a missing path in CI's negative check.

#![forbid(unsafe_code)]
// The root attributes odflow_flow and odflow_serve carry.
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

/// Wall-clock time.
pub fn clocks() {
    let _ = std::time::Instant::now();
    let _ = std::time::SystemTime::now();
}

/// Threads outside the pool.
pub fn threads() {
    std::thread::spawn(|| {});
    std::thread::scope(|_| {});
    let _ = std::thread::Builder::new();
}

/// The process environment.
pub fn environment() {
    let _ = std::env::var("ODFLOW_FIXTURE");
    let _ = std::env::var_os("ODFLOW_FIXTURE");
    let _ = std::env::vars();
    let _ = std::env::vars_os();
    std::env::set_var("ODFLOW_FIXTURE", "1");
    std::env::remove_var("ODFLOW_FIXTURE");
}

/// Hash iteration order.
pub fn hash_order() {
    let _ = std::collections::HashMap::<u8, u8>::new();
    let _ = std::collections::HashSet::<u8>::new();
}

/// The unwind machinery.
pub fn unwinds() {
    let _ = std::panic::catch_unwind(|| {});
}

/// Throws a payload.
pub fn throws() -> ! {
    std::panic::panic_any(0_u8)
}

/// Aborts on input.
pub fn aborts(x: Option<u8>, y: Result<u8, ()>, n: u8) -> u8 {
    match n {
        0 => x.unwrap(),
        1 => y.expect("fixture"),
        2 => panic!("fixture"),
        3 => unreachable!("fixture"),
        4 => todo!(),
        _ => unimplemented!(),
    }
}

/// Prints from a library.
pub fn prints(n: u8) {
    println!("{n}");
    eprintln!("{n}");
    dbg!(n);
}
