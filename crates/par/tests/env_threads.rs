//! Verifies the `ODFLOW_THREADS` environment override end to end.
//!
//! The pool caches the variable once per process, so this lives in its own
//! integration-test binary where the variable can be set before the first
//! pool use without racing other tests.

use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn odflow_threads_env_pins_the_pool() {
    // Must run before any other call touches the cached default.
    #[expect(
        clippy::disallowed_methods,
        reason = "this test exists to exercise the THREADS_ENV plumbing end to end"
    )]
    std::env::set_var(odflow_par::THREADS_ENV, "1");
    assert_eq!(odflow_par::default_threads(), 1);
    assert_eq!(odflow_par::max_threads(), 1);

    // With one thread everything runs inline on the caller, in chunk order.
    let caller = std::thread::current().id();
    let order = std::sync::Mutex::new(Vec::new());
    let ran_on_caller = AtomicUsize::new(0);
    odflow_par::parallel_for(40, 7, |r| {
        if std::thread::current().id() == caller {
            ran_on_caller.fetch_add(1, Ordering::Relaxed);
        }
        order.lock().unwrap().push(r.start);
    });
    assert_eq!(ran_on_caller.load(Ordering::Relaxed), 6);
    let order = order.into_inner().unwrap();
    assert_eq!(order, vec![0, 7, 14, 21, 28, 35], "serial fallback preserves chunk order");

    // A larger explicit limit still wins over the env default within scope.
    odflow_par::with_thread_limit(4, || assert_eq!(odflow_par::max_threads(), 4));
    assert_eq!(odflow_par::max_threads(), 1);
}
