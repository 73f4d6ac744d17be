//! Contract tests for the persistent worker-pool runtime.
//!
//! The scoped-spawn pool of PR 2 was replaced by long-lived workers parked
//! on a shared injector; everything the callers rely on must survive that
//! swap unchanged: bit-identical chunk-order reductions for any thread
//! limit, `with_thread_limit` restoration on every exit path (including
//! panic), and the documented no-nesting contract — a region opened from
//! inside a pool task degrades to the inline serial fallback instead of
//! deadlocking the pool.

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

/// Runs `f` under a 1-thread, 4-thread, and oversubscribed pool and
/// asserts bit-identity of the three results.
fn assert_pool_invariant_f64(oversub: usize, f: impl Fn() -> f64) {
    let serial = odflow_par::with_thread_limit(1, &f);
    let typical = odflow_par::with_thread_limit(4, &f);
    let wide = odflow_par::with_thread_limit(oversub, &f);
    assert_eq!(serial.to_bits(), typical.to_bits(), "serial vs 4-thread pool");
    assert_eq!(serial.to_bits(), wide.to_bits(), "serial vs oversubscribed pool");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The flagship contract: a non-associative floating-point reduction
    /// is bit-identical across thread limits {1, 4, oversubscribed} for
    /// arbitrary data and chunk grains on the persistent pool.
    #[test]
    fn map_reduce_bit_identical_across_limits(
        data in proptest::collection::vec(-1e6f64..1e6, 1..400),
        grain in 1usize..64,
    ) {
        let n = data.len();
        assert_pool_invariant_f64(n + 17, || {
            odflow_par::map_reduce(
                n,
                grain,
                |r| data[r].iter().sum::<f64>(),
                |a, b| a + b,
            )
            .unwrap_or(0.0)
        });
    }

    /// Chunk decomposition depends only on `(n, grain)`: the ranges seen by
    /// `map_chunks` are identical in count, order, and bounds for any limit.
    #[test]
    fn map_chunks_decomposition_thread_invariant(n in 0usize..500, grain in 1usize..70) {
        let ranges = |threads: usize| {
            odflow_par::with_thread_limit(threads, || {
                odflow_par::map_chunks(n, grain, |r| (r.start, r.end))
            })
        };
        let serial = ranges(1);
        prop_assert_eq!(&serial, &ranges(4));
        prop_assert_eq!(&serial, &ranges(n + 9));
        // And the decomposition tiles 0..n exactly.
        let mut next = 0;
        for (lo, hi) in &serial {
            prop_assert_eq!(*lo, next);
            prop_assert!(hi > lo);
            next = *hi;
        }
        prop_assert_eq!(next, n);
    }

    /// `parallel_chunks` hands every element to exactly one task under any
    /// limit, with chunk indices matching the fixed decomposition.
    #[test]
    fn parallel_chunks_disjoint_cover(len in 1usize..600, chunk in 1usize..80) {
        for threads in [1usize, 4, 1000] {
            let mut data = vec![0u32; len];
            odflow_par::with_thread_limit(threads, || {
                odflow_par::parallel_chunks(&mut data, chunk, |idx, part| {
                    for v in part.iter_mut() {
                        *v += 1 + idx as u32;
                    }
                });
            });
            for (i, v) in data.iter().enumerate() {
                prop_assert_eq!(*v, 1 + (i / chunk) as u32, "threads={}, element {}", threads, i);
            }
        }
    }
}

#[test]
fn thread_limit_restored_when_body_panics() {
    let before = odflow_par::max_threads();
    #[expect(clippy::disallowed_methods, reason = "the test observes the re-thrown unwind")]
    let result = catch_unwind(AssertUnwindSafe(|| {
        odflow_par::with_thread_limit(3, || {
            assert_eq!(odflow_par::max_threads(), 3);
            panic!("body failure");
        });
    }));
    assert!(result.is_err());
    assert_eq!(odflow_par::max_threads(), before, "limit must be restored on panic");
}

#[test]
fn thread_limit_restored_when_region_task_panics() {
    let before = odflow_par::max_threads();
    #[expect(clippy::disallowed_methods, reason = "the test observes the re-thrown unwind")]
    let result = catch_unwind(AssertUnwindSafe(|| {
        odflow_par::with_thread_limit(4, || {
            odflow_par::parallel_for(32, 1, |r| {
                if r.start == 11 {
                    panic!("task failure");
                }
            });
        });
    }));
    assert!(result.is_err());
    assert_eq!(odflow_par::max_threads(), before, "limit must be restored after task panic");
}

/// The documented no-nesting contract as a regression test: a region
/// opened from inside a worker task completes (serially, inline on the
/// worker) rather than deadlocking on workers that are busy running the
/// outer region. A deadlock here would hang the test binary — the harness
/// timeout is the failure mode.
#[test]
fn nested_regions_from_workers_do_not_deadlock() {
    let grand_total = AtomicU64::new(0);
    odflow_par::with_thread_limit(4, || {
        odflow_par::parallel_for(24, 1, |outer| {
            for o in outer {
                // Give workers a chance to claim outer tasks so some inner
                // regions genuinely start on pool threads.
                std::thread::sleep(std::time::Duration::from_millis(1));
                let inner = odflow_par::map_reduce(
                    64,
                    5,
                    |r| r.map(|i| (i + o) as u64).sum::<u64>(),
                    |a, b| a + b,
                )
                .unwrap();
                grand_total.fetch_add(inner, Ordering::Relaxed);
            }
        });
    });
    let expect: u64 = (0..24u64).map(|o| (0..64u64).map(|i| i + o).sum::<u64>()).sum();
    assert_eq!(grand_total.load(Ordering::Relaxed), expect);
}

/// Nested regions are *allowed* to be serial; they must still be correct
/// and bit-identical to the flat evaluation for floating-point work.
#[test]
fn nested_region_results_match_serial() {
    let v: Vec<f64> = (0..512).map(|i| (i as f64).sin() * 3.7 + 0.01).collect();
    let nested = odflow_par::with_thread_limit(4, || {
        odflow_par::map_reduce(
            v.len(),
            64,
            |r| {
                // Inner region per outer chunk (inline when on a worker).
                odflow_par::map_reduce(
                    r.len(),
                    16,
                    |inner| v[r.start + inner.start..r.start + inner.end].iter().sum::<f64>(),
                    |a, b| a + b,
                )
                .unwrap_or(0.0)
            },
            |a, b| a + b,
        )
        .unwrap()
    });
    let flat_serial = odflow_par::with_thread_limit(1, || {
        odflow_par::map_reduce(
            v.len(),
            64,
            |r| {
                odflow_par::map_reduce(
                    r.len(),
                    16,
                    |inner| v[r.start + inner.start..r.start + inner.end].iter().sum::<f64>(),
                    |a, b| a + b,
                )
                .unwrap_or(0.0)
            },
            |a, b| a + b,
        )
        .unwrap()
    });
    assert_eq!(nested.to_bits(), flat_serial.to_bits());
}
