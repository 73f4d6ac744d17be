//! # odflow-par — persistent-pool fork/join parallelism for the numerics core
//!
//! A data-parallel substrate built on a **lazily-initialized persistent
//! worker pool** (the vendored [`scoped_pool`] shim). The hot paths of the
//! subspace method — `X^T X` at week scale, blocked matmul, eigenvector
//! updates, scenario materialization, sharded ingest, batch SPE/T² scoring
//! — are all embarrassingly parallel over row blocks, bins, or chunk ranges; this
//! crate gives them one shared fan-out primitive whose dispatch cost is a
//! queue push and a worker wake-up, not an OS thread spawn per region.
//!
//! ## Runtime model
//!
//! * **Workers are long-lived.** The first multi-thread region spawns pool
//!   workers (up to the hardware thread count, or the `ODFLOW_THREADS`
//!   override if larger, minus the caller); they park on a shared injector
//!   and serve every subsequent region for the life of the process. A
//!   process that only ever runs serial regions spawns no threads at all.
//! * **Regions hand out chunk indices, not threads.** A parallel region
//!   publishes an atomic chunk counter, queues one claim-loop task per
//!   participating worker, runs the same claim loop on the calling thread,
//!   and joins on a region latch. Task claim order is dynamic (load
//!   balance); every combinator writes results into per-chunk slots or
//!   folds them in chunk index order, so claim order is unobservable.
//! * **Regions do not nest.** A region opened from inside a pool task, or
//!   from a [`map_reduce`] map (whose participants wait for their
//!   predecessors' chunks), runs the serial fallback inline instead of
//!   queueing — nested fan-out from threads that peers might be waiting on
//!   is how fixed-size pools deadlock. Keep task bodies single-threaded
//!   (every kernel in this workspace does); a nested region is correct,
//!   just serial.
//! * **Shutdown.** The global pool lives until process exit; parked
//!   workers cost a few kB of stack each and no CPU. (The underlying
//!   [`scoped_pool::Pool`] supports explicit shutdown — after which tasks
//!   degrade to inline execution — but the global pool never invokes it.)
//!
//! ## Determinism contract (unchanged from the scoped-spawn pool)
//!
//! Every combinator here decomposes its input into chunks whose boundaries
//! depend **only on the input size and the chunk grain — never on the thread
//! count** — and combines per-chunk results in chunk order. Floating-point
//! reductions therefore produce **bit-identical results for every thread
//! count**, including the serial fallback: with one thread the same chunked
//! code runs inline on the caller. Tests can pin `ODFLOW_THREADS=1` (or use
//! [`with_thread_limit`]) and compare against a many-thread run exactly.
//!
//! ## Sizing a region
//!
//! The effective thread count for a region is, in priority order:
//!
//! 1. the innermost active [`with_thread_limit`] scope on this thread,
//! 2. the `ODFLOW_THREADS` environment variable (read once per process),
//! 3. [`std::thread::available_parallelism`].
//!
//! That count is an **upper bound on concurrency**, capped at the number of
//! chunks *and* at the pool capacity plus the caller: oversubscription
//! (`threads > chunks`, or a limit above what the pool can actually run
//! concurrently) queues fewer claim tasks rather than useless ones.
//! Results never depend on how many workers actually picked up work.
//!
//! ```
//! // Sum of squares over fixed-size blocks: identical for any thread count.
//! let v: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
//! let total = odflow_par::map_reduce(v.len(), 1024, |r| v[r].iter().map(|x| x * x).sum::<f64>(),
//!     |a, b| a + b).unwrap_or(0.0);
//! let serial: f64 = odflow_par::with_thread_limit(1, || {
//!     odflow_par::map_reduce(v.len(), 1024, |r| v[r].iter().map(|x| x * x).sum::<f64>(),
//!         |a, b| a + b).unwrap_or(0.0)
//! });
//! assert_eq!(total.to_bits(), serial.to_bits());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A library reports through return values and metrics, never the terminal.
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};

/// Environment variable overriding the global pool size.
pub const THREADS_ENV: &str = "ODFLOW_THREADS";

/// The kind of fan-out runtime behind the combinators, recorded in perf
/// artifacts (`BENCH_pipeline.json`) so baselines are self-describing.
pub const POOL_KIND: &str = "persistent";

thread_local! {
    /// Innermost `with_thread_limit` override for this thread, if any.
    static THREAD_LIMIT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Parses a thread-count override; `None` for absent/invalid/zero values.
fn parse_threads(value: &str) -> Option<usize> {
    match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

/// Number of hardware threads reported by the OS (at least 1).
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The process-wide default pool size: `ODFLOW_THREADS` if set to a positive
/// integer, otherwise [`hardware_threads`]. Read once and cached.
#[expect(
    clippy::disallowed_methods,
    reason = "the one sanctioned THREADS_ENV read; every other crate inherits it through this cached default"
)]
pub fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var(THREADS_ENV)
            .ok()
            .as_deref()
            .and_then(parse_threads)
            .unwrap_or_else(hardware_threads)
    })
}

/// The effective thread limit for parallel regions started by the current
/// thread: the innermost [`with_thread_limit`] scope, or [`default_threads`].
pub fn max_threads() -> usize {
    THREAD_LIMIT.with(std::cell::Cell::get).unwrap_or_else(default_threads)
}

/// The process-wide persistent worker pool, created on first multi-thread
/// region. Capacity is the hardware thread count (or the `ODFLOW_THREADS`
/// override if larger) minus one — the calling thread always participates
/// in its own region, so `capacity + 1` threads saturate the machine.
/// Workers are spawned lazily by the pool itself, one per queued task, so
/// capacity is a cap, not a reservation.
fn pool() -> &'static scoped_pool::Pool {
    static POOL: OnceLock<scoped_pool::Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let capacity = hardware_threads().max(default_threads()).saturating_sub(1).max(1);
        scoped_pool::Pool::new(capacity)
    })
}

/// Runs `f` with parallel regions started *by the calling thread* capped at
/// `limit` threads (at least 1), restoring the previous limit afterwards —
/// including on panic.
///
/// The override is thread-local, so concurrent tests (or nested scopes) with
/// different limits do not interfere. `with_thread_limit(1, ..)` is the
/// bit-identical serial fallback used by the equivalence tests and by the
/// `perf_report` serial baselines.
///
/// The limit is **not inherited by pool workers** — it does not need to be:
/// a region opened from inside a pool task runs serially inline on that
/// worker (the no-nesting contract), so a task body can never multiply
/// thread counts past the cap. Limits above the pool capacity are served by
/// however many workers exist; see the module docs on sizing.
pub fn with_thread_limit<R>(limit: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_LIMIT.with(|l| l.set(self.0));
        }
    }
    let prev = THREAD_LIMIT.with(|l| l.replace(Some(limit.max(1))));
    let _restore = Restore(prev);
    f()
}

/// Chunk boundaries for `n` items at the given grain (grain clamped to 1).
fn chunk_ranges(n: usize, grain: usize) -> (usize, usize) {
    let grain = grain.max(1);
    (n.div_ceil(grain), grain)
}

/// `true` when a region with `num_tasks` tasks started now by this thread
/// would take the serial inline fallback — the same predicate
/// [`run_region`] applies. Combinators use it to skip building their
/// per-task synchronization scaffolding (Mutex slot vectors) entirely on
/// the serial path: the work runs in identical chunk order with identical
/// arithmetic either way, so the fast path is bitwise-invisible — it only
/// removes allocation and lock overhead from serial hot loops (the dense
/// eigensolver's per-sweep regions at paper scale, nested regions on
/// workers).
fn runs_serially(num_tasks: usize) -> bool {
    num_tasks <= 1 || max_threads() <= 1 || scoped_pool::is_worker_thread()
}

/// The region core: runs task indices `0..num_tasks`, handing chunk indices
/// to pool workers through a dynamic claim counter and joining on the
/// region latch before returning.
///
/// Tasks are claimed dynamically (atomic counter) for load balance; callers
/// that need determinism must make each task's effect independent of claim
/// order, which every combinator in this crate does by writing to per-task
/// slots or folding in task index order. The serial fallback — one thread
/// allowed, or a region opened from inside a pool task — runs every task
/// inline on the caller, in index order.
fn run_region(num_tasks: usize, run_task: &(impl Fn(usize) + Sync)) {
    if num_tasks == 0 {
        return;
    }
    let threads = max_threads().min(num_tasks);
    if threads <= 1 || scoped_pool::is_worker_thread() {
        // Serial fallback inline on the caller. The worker-thread check is
        // the no-nesting contract: a nested region must not block a worker
        // on peers that may all be busy running this very region.
        for t in 0..num_tasks {
            run_task(t);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let claim = || loop {
        let t = next.fetch_add(1, Ordering::Relaxed);
        if t >= num_tasks {
            break;
        }
        run_task(t);
    };
    // One claim-loop task per extra participant, capped at the pool
    // capacity: more tasks than workers-plus-caller can never run
    // concurrently, they only queue no-op drains the region join would
    // have to wait out (an oversubscribed `with_thread_limit` would
    // otherwise queue one per permitted thread). A task queued behind
    // other regions' work finds the counter drained and exits immediately,
    // so the latch join below never waits on stale work.
    let pool = pool();
    let participants = threads.min(pool.capacity() + 1);
    pool.scoped(|scope| {
        for _ in 1..participants {
            scope.execute(claim);
        }
        claim(); // the calling thread participates
    });
}

/// Applies `f` to disjoint index ranges covering `0..n`, in parallel.
///
/// The range decomposition depends only on `(n, grain)`; `f` may run on any
/// pool thread. Use this for side-effect work that is independent per range;
/// when each range should own a disjoint `&mut` region of one slice, reach
/// for [`parallel_chunks`] instead of interior mutability.
pub fn parallel_for(n: usize, grain: usize, f: impl Fn(Range<usize>) + Sync) {
    let (tasks, grain) = chunk_ranges(n, grain);
    run_region(tasks, &|t| {
        let lo = t * grain;
        f(lo..((lo + grain).min(n)));
    });
}

/// Splits `data` into consecutive chunks of `chunk_len` elements (the last
/// may be shorter) and applies `f(chunk_index, chunk)` to each in parallel.
///
/// This is the mutation-friendly primitive: each chunk is a disjoint
/// `&mut [T]`, so row-blocked kernels (matmul output rows, column centering,
/// QR rotation replay) parallelize without interior mutability.
pub fn parallel_chunks<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    /// One claimable chunk: its index and the disjoint mutable slice.
    type ChunkSlot<'a, T> = Mutex<Option<(usize, &'a mut [T])>>;
    let chunk_len = chunk_len.max(1);
    if data.is_empty() {
        return;
    }
    if runs_serially(data.len().div_ceil(chunk_len)) {
        // Same chunk order and arithmetic as the region path, minus the
        // per-chunk Mutex slots.
        for (idx, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(idx, chunk);
        }
        return;
    }
    let slots: Vec<ChunkSlot<'_, T>> =
        data.chunks_mut(chunk_len).enumerate().map(|c| Mutex::new(Some(c))).collect();
    run_region(slots.len(), &|t| {
        let (idx, chunk) =
            slots[t].lock().expect("chunk slot poisoned").take().expect("chunk claimed twice");
        f(idx, chunk);
    });
}

/// Maps disjoint index ranges covering `0..n` to values, returning them in
/// chunk order.
///
/// The decomposition depends only on `(n, grain)`, and results are collected
/// by chunk index, so the output is identical for every thread count.
pub fn map_chunks<A: Send>(
    n: usize,
    grain: usize,
    map: impl Fn(Range<usize>) -> A + Sync,
) -> Vec<A> {
    let (tasks, grain) = chunk_ranges(n, grain);
    if runs_serially(tasks) {
        // Chunk-order collection without the Mutex slot vector.
        return (0..tasks).map(|t| map(t * grain..((t + 1) * grain).min(n))).collect();
    }
    let slots: Vec<Mutex<Option<A>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    run_region(tasks, &|t| {
        let lo = t * grain;
        let value = map(lo..((lo + grain).min(n)));
        *slots[t].lock().expect("result slot poisoned") = Some(value);
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("result slot poisoned").expect("task skipped"))
        .collect()
}

/// Maps disjoint index ranges covering `0..n` and folds the per-chunk
/// results **in chunk order** with `reduce`. Returns `None` when `n == 0`.
///
/// Because the fold order is the chunk order (not completion order),
/// floating-point reductions are deterministic for every thread count.
///
/// Partials are folded as they finish, not collected first: a chunk's
/// result waits only until its predecessors are in the running fold, so at
/// most one partial per participating thread is alive beside it.
pub fn map_reduce<A: Send>(
    n: usize,
    grain: usize,
    map: impl Fn(Range<usize>) -> A + Sync,
    reduce: impl Fn(A, A) -> A + Sync,
) -> Option<A> {
    let (tasks, grain) = chunk_ranges(n, grain);
    // `(next, acc)`: chunks `0..next` are folded into `acc`. A panicking
    // participant sets `next` past every chunk, so nobody waits for it and
    // the region joins and re-throws; a panicking `reduce` took `acc` and
    // left `next` short of the rest, so the poisoned state is still whole.
    let fold = Mutex::new((0usize, None));
    let turn = Condvar::new();
    let lock = || fold.lock().unwrap_or_else(PoisonError::into_inner);
    run_region(tasks, &|t| {
        #[expect(
            clippy::disallowed_methods,
            reason = "a panicking chunk must release the chunks waiting to fold behind it; the region re-throws the unwind once it joins"
        )]
        let folded = catch_unwind(AssertUnwindSafe(|| {
            // A region `map` opens runs inline: workers may be waiting for
            // this chunk. Chunks are claimed in index order and every claimed
            // chunk is being mapped, so the lowest unfolded chunk's owner
            // never waits.
            let value = with_thread_limit(1, || map(t * grain..((t + 1) * grain).min(n)));
            let mut f = lock();
            while f.0 < t {
                f = turn.wait(f).unwrap_or_else(PoisonError::into_inner);
            }
            if f.0 == t {
                f.1 = Some(match f.1.take() {
                    Some(acc) => reduce(acc, value),
                    None => value,
                });
                f.0 += 1;
                turn.notify_all();
            }
        }));
        if let Err(panic) = folded {
            lock().0 = usize::MAX;
            turn.notify_all();
            resume_unwind(panic);
        }
    });
    fold.into_inner().expect("a panicking fold re-throws before this").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 16 "), Some(16));
        assert_eq!(parse_threads("1"), Some(1));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("-2"), None);
        assert_eq!(parse_threads("abc"), None);
        assert_eq!(parse_threads(""), None);
    }

    #[test]
    fn parallel_for_covers_every_index_once() {
        for &threads in &[1usize, 2, 7, 64] {
            with_thread_limit(threads, || {
                let hits: Vec<AtomicUsize> = (0..103).map(|_| AtomicUsize::new(0)).collect();
                parallel_for(hits.len(), 10, |r| {
                    for i in r {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            });
        }
    }

    #[test]
    fn parallel_chunks_partitions_disjointly() {
        let mut data = vec![0u32; 1000];
        with_thread_limit(8, || {
            parallel_chunks(&mut data, 64, |idx, chunk| {
                for v in chunk.iter_mut() {
                    *v += 1 + idx as u32;
                }
            });
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, 1 + (i / 64) as u32, "element {i}");
        }
    }

    #[test]
    fn map_chunks_preserves_chunk_order() {
        for &threads in &[1usize, 3, 32] {
            let out = with_thread_limit(threads, || map_chunks(25, 4, |r| (r.start, r.end)));
            assert_eq!(out.len(), 7);
            assert_eq!(out[0], (0, 4));
            assert_eq!(out[6], (24, 25));
            for (i, (lo, hi)) in out.iter().enumerate() {
                assert_eq!(*lo, i * 4);
                assert!(*hi <= 25);
            }
        }
    }

    #[test]
    fn map_reduce_is_bit_identical_across_thread_counts() {
        // Non-associative float reduction: only a fixed fold order keeps
        // this stable across pool sizes.
        let v: Vec<f64> = (0..9973).map(|i| ((i * 37) % 1009) as f64 * 1e-3 + 1e-9).collect();
        let run = |threads| {
            with_thread_limit(threads, || {
                map_reduce(v.len(), 128, |r| v[r].iter().sum::<f64>(), |a, b| a + b).unwrap()
            })
        };
        let serial = run(1);
        for &threads in &[2usize, 5, 16, 10_000] {
            assert_eq!(run(threads).to_bits(), serial.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn map_reduce_folds_as_chunks_finish() {
        // A partial that counts how many of its kind are alive.
        struct Partial<'a> {
            sum: f64,
            alive: &'a AtomicUsize,
        }
        impl<'a> Partial<'a> {
            fn new(sum: f64, alive: &'a AtomicUsize, peak: &AtomicUsize) -> Self {
                peak.fetch_max(alive.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                Partial { sum, alive }
            }
        }
        impl Drop for Partial<'_> {
            fn drop(&mut self) {
                self.alive.fetch_sub(1, Ordering::SeqCst);
            }
        }
        // Magnitudes from 1 to 1e16 with both signs: f64 addition of these
        // rounds differently in every association.
        let value = |t: usize| {
            let sign = if t.is_multiple_of(2) { 1.0 } else { -1.0 };
            sign * (1.0 + ((t * 7919) % 13) as f64) * 10f64.powi(4 * (t % 5) as i32)
        };
        let (n, grain) = (61usize, 1usize);
        let serial = (0..n).map(value).reduce(|a, b| a + b).unwrap();
        let reversed = (0..n).rev().map(value).reduce(|a, b| a + b).unwrap();
        assert_ne!(serial.to_bits(), reversed.to_bits(), "the data must be order-sensitive");

        for limit in [1usize, 2, 4] {
            let (alive, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let total = with_thread_limit(limit, || {
                map_reduce(
                    n,
                    grain,
                    |r| {
                        // Uneven chunk times, so chunks finish out of order.
                        if r.start % 3 == 0 {
                            std::thread::sleep(std::time::Duration::from_micros(300));
                        }
                        Partial::new(value(r.start), &alive, &peak)
                    },
                    |mut acc, block| {
                        acc.sum += block.sum;
                        acc
                    },
                )
                .unwrap()
            });
            assert_eq!(total.sum.to_bits(), serial.to_bits(), "limit {limit}");
            drop(total);
            assert_eq!(alive.load(Ordering::SeqCst), 0, "limit {limit}");
            let participants = if limit == 1 { 1 } else { limit.min(pool().capacity() + 1) };
            let peak = peak.load(Ordering::SeqCst);
            assert!(peak <= participants + 1, "limit {limit}: {peak} partials alive at once");
        }
    }

    #[test]
    fn map_reduce_empty_is_none() {
        assert!(map_reduce(0, 8, |_| 1u32, |a, b| a + b).is_none());
    }

    #[test]
    fn oversubscription_threads_exceed_items() {
        // More threads than chunks: the region queues at most one task per
        // chunk, however large the limit.
        with_thread_limit(64, || {
            let sum = map_reduce(3, 1, std::iter::Iterator::sum::<usize>, |a, b| a + b).unwrap();
            assert_eq!(sum, 3);
        });
    }

    #[test]
    fn with_thread_limit_restores_previous() {
        let outer = max_threads();
        with_thread_limit(3, || {
            assert_eq!(max_threads(), 3);
            with_thread_limit(1, || assert_eq!(max_threads(), 1));
            assert_eq!(max_threads(), 3);
        });
        assert_eq!(max_threads(), outer);
    }

    #[test]
    fn with_thread_limit_clamps_zero_to_one() {
        with_thread_limit(0, || assert_eq!(max_threads(), 1));
    }

    #[test]
    #[expect(clippy::disallowed_types, reason = "`ThreadId` is not `Ord`; the set is only counted")]
    fn pool_actually_uses_multiple_threads_when_allowed() {
        use std::collections::HashSet;
        let ids = Mutex::new(HashSet::new());
        with_thread_limit(4, || {
            parallel_for(64, 1, |_| {
                // Slow each task slightly so several participants claim.
                std::thread::sleep(std::time::Duration::from_millis(1));
                ids.lock().unwrap().insert(std::thread::current().id());
            });
        });
        // The limit permits 4 participants and there are 64 slow tasks, so
        // at least one persistent worker must claim work alongside the
        // calling thread even on a single-core host (workers are OS
        // threads, and the pool capacity is at least 1).
        assert!(
            ids.lock().unwrap().len() > 1,
            "run_region never left the calling thread despite a limit of 4"
        );
    }

    #[test]
    fn panics_propagate_from_workers() {
        #[expect(clippy::disallowed_methods, reason = "the test observes the re-thrown unwind")]
        let result = std::panic::catch_unwind(|| {
            with_thread_limit(4, || {
                parallel_for(16, 1, |r| {
                    if r.start == 7 {
                        panic!("task failure");
                    }
                });
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn map_reduce_panics_propagate_past_waiting_successors() {
        // Chunk 0 panics after its successors finished and wait to be
        // folded behind it: they must give up, and the region re-throw.
        for limit in [2usize, 4] {
            #[expect(clippy::disallowed_methods, reason = "the test observes the re-thrown unwind")]
            let result = std::panic::catch_unwind(|| {
                with_thread_limit(limit, || {
                    map_reduce(
                        16,
                        1,
                        |r| {
                            if r.start == 0 {
                                std::thread::sleep(std::time::Duration::from_millis(5));
                                panic!("chunk failure");
                            }
                            r.start
                        },
                        |a, b| a + b,
                    )
                })
            });
            assert!(result.is_err(), "limit {limit}");
        }
    }

    #[test]
    fn nested_region_inside_a_task_completes_serially() {
        // The no-nesting contract: a region opened from inside a pool task
        // runs inline on that worker. This must complete (no deadlock) and
        // produce the same sums as a flat serial evaluation.
        let totals: Vec<AtomicU64> = (0..16).map(|_| AtomicU64::new(0)).collect();
        with_thread_limit(4, || {
            parallel_for(totals.len(), 1, |outer| {
                for o in outer {
                    // Inner region from (possibly) a worker thread.
                    let inner = map_reduce(
                        100,
                        9,
                        |r| r.map(|i| (i * (o + 1)) as u64).sum::<u64>(),
                        |a, b| a + b,
                    )
                    .unwrap();
                    totals[o].store(inner, Ordering::Relaxed);
                }
            });
        });
        for (o, t) in totals.iter().enumerate() {
            let expect = (0..100u64).map(|i| i * (o as u64 + 1)).sum::<u64>();
            assert_eq!(t.load(Ordering::Relaxed), expect, "outer task {o}");
        }
    }

    #[test]
    fn hardware_and_default_threads_positive() {
        assert!(hardware_threads() >= 1);
        assert!(default_threads() >= 1);
        assert!(max_threads() >= 1);
    }

    #[test]
    fn map_reduce_sums_match_closed_form() {
        let n = 12_345usize;
        let total = map_reduce(n, 97, |r| r.map(|i| i as u64).sum::<u64>(), |a, b| a + b).unwrap();
        assert_eq!(total, (n as u64 - 1) * n as u64 / 2);
    }

    #[test]
    fn chunk_grain_zero_is_clamped() {
        let out = map_chunks(5, 0, |r| r.len());
        assert_eq!(out, vec![1, 1, 1, 1, 1]);
    }

    #[test]
    fn serial_fast_paths_are_bitwise_identical_to_region_paths() {
        // The slot-free serial fast paths in `parallel_chunks`/`map_chunks`
        // must be invisible: same chunk order, same arithmetic, bitwise
        // equal outputs against a genuinely parallel run.
        let src: Vec<f64> = (0..997).map(|i| ((i * 53) % 211) as f64 * 1e-3 + 1e-9).collect();

        let run_map = |threads| {
            with_thread_limit(threads, || {
                map_chunks(src.len(), 37, |r| src[r].iter().map(|x| x * x + 0.1).sum::<f64>())
            })
        };
        let serial = run_map(1);
        let parallel = run_map(8);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        let run_chunks = |threads| {
            let mut data = src.clone();
            with_thread_limit(threads, || {
                parallel_chunks(&mut data, 41, |idx, chunk| {
                    for v in chunk.iter_mut() {
                        *v = v.mul_add(1.5, idx as f64 * 1e-6);
                    }
                });
            });
            data
        };
        let serial = run_chunks(1);
        let parallel = run_chunks(8);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn counters_see_all_work_under_contention() {
        let hits = AtomicU64::new(0);
        with_thread_limit(16, || {
            parallel_for(10_000, 3, |r| {
                hits.fetch_add(r.len() as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10_000);
    }
}
