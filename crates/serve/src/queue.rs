//! Bounded MPSC queues with drop-and-account backpressure.
//!
//! Every inter-stage hand-off in the daemon goes through a
//! [`BoundedQueue`]: admission **never blocks and never grows the queue
//! past its capacity** — an overloaded tenant sheds the newest frames and
//! the caller counts the drop. Consumption (`pop_timeout`) blocks with a
//! timeout so workers stay responsive to drain/pause control without
//! spinning.
//!
//! Capacity is counted in units of work, not in queue entries: an item
//! pushed with [`BoundedQueue::try_push`] weighs one, a [`FrameBatch`]
//! pushed with [`BoundedQueue::push_frames`] weighs its frames. The
//! daemon moves frames by the batch — everything one socket read held for
//! a tenant costs one lock and one wake-up — while `queue_frames` stays a
//! bound on frames.
//!
//! Built on `std::sync` (`Mutex` + `Condvar`); lock poisoning is
//! recovered via `PoisonError::into_inner`, so no code path here can
//! panic — the queue sits on the daemon's no-panic hot path.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Result of a [`BoundedQueue::pop_timeout`].
#[derive(Debug, PartialEq, Eq)]
pub enum Pop<T> {
    /// An item was dequeued.
    Item(T),
    /// The timeout elapsed with the queue still empty (and open).
    Empty,
    /// The queue is closed and fully drained; no item will ever arrive.
    Closed,
}

#[derive(Debug)]
struct State<T> {
    /// Queued items, each with the units of capacity it holds.
    items: VecDeque<(T, usize)>,
    /// Units held by `items`; never above the queue's capacity.
    load: usize,
    /// Spent items on their way back to the producer.
    spares: Vec<T>,
    closed: bool,
}

/// A fixed-capacity FIFO shared between socket admission and one tenant
/// worker.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` units (clamped to ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                load: 0,
                spares: Vec::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The fixed capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Non-blocking enqueue of one unit. Returns the item back when the
    /// queue is full or closed — the caller drops it and increments its
    /// backpressure counter; nothing in this path waits.
    ///
    /// # Errors
    ///
    /// `Err(item)` when the queue is at capacity or closed.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut s = self.lock();
        if s.closed || s.load >= self.capacity {
            return Err(item);
        }
        s.items.push_back((item, 1));
        s.load += 1;
        drop(s);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking dequeue with a timeout. Returns [`Pop::Closed`] only
    /// once the queue is both closed and empty, so a drain never loses
    /// accepted items.
    pub fn pop_timeout(&self, timeout: Duration) -> Pop<T> {
        let mut s = self.lock();
        if s.items.is_empty() && !s.closed {
            s = self.not_empty.wait_timeout(s, timeout).unwrap_or_else(PoisonError::into_inner).0;
        }
        match s.items.pop_front() {
            Some((item, units)) => {
                s.load -= units;
                Pop::Item(item)
            }
            None if s.closed => Pop::Closed,
            None => Pop::Empty,
        }
    }

    /// Units currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().load
    }

    /// `true` when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: further pushes fail, and consumers see
    /// [`Pop::Closed`] once the backlog drains. Idempotent.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }
}

/// The frames one socket read held for one tenant: their bytes end to
/// end in one buffer, plus where each frame ends.
#[derive(Debug, Default)]
pub struct FrameBatch {
    bytes: Vec<u8>,
    ends: Vec<usize>,
    /// When admission handed the batch to the queue.
    queued: Option<Instant>,
}

impl FrameBatch {
    /// Appends one frame.
    pub fn push(&mut self, frame: &[u8]) {
        self.bytes.extend_from_slice(frame);
        self.ends.push(self.bytes.len());
    }

    /// Frames held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when no frame is held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Frame `idx` in arrival order.
    #[must_use]
    pub fn frame(&self, idx: usize) -> Option<&[u8]> {
        let end = *self.ends.get(idx)?;
        let start = idx.checked_sub(1).and_then(|prev| self.ends.get(prev)).copied().unwrap_or(0);
        self.bytes.get(start..end)
    }

    /// When the batch was queued; `None` until [`BoundedQueue::push_frames`]
    /// accepts it.
    #[must_use]
    pub fn queued_at(&self) -> Option<Instant> {
        self.queued
    }

    /// Keeps the first `frames` frames.
    fn truncate(&mut self, frames: usize) {
        self.ends.truncate(frames);
        self.bytes.truncate(self.ends.last().copied().unwrap_or(0));
    }

    /// Empties the batch; the buffers keep their allocation.
    fn clear(&mut self) {
        self.truncate(0);
        self.queued = None;
    }
}

/// What became of one offered batch: `enqueued + shed` is what was
/// offered, `depth` the frames queued once it was in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admitted {
    /// Frames accepted into the queue.
    pub enqueued: usize,
    /// Frames refused because the queue was full or closed.
    pub shed: usize,
    /// Frames queued right after the push.
    pub depth: usize,
}

/// Spent batches the queue keeps for the producer: a read in the filling,
/// one in the worker's hands and a couple queued is the steady state, so
/// a handful covers it, and a backlog's worth of buffers is freed by the
/// producer as soon as the backlog is gone rather than kept for the next.
const SPARE_BATCHES: usize = 4;

impl BoundedQueue<FrameBatch> {
    /// Offers every frame of `batch`, stamped `now`, under one lock and
    /// one wake-up; `batch` comes back empty and ready to fill again — a
    /// recycled buffer when the consumer has returned one. Never blocks:
    /// a batch that does not fit is accepted up to the remaining capacity
    /// in arrival order and the rest shed, a closed queue sheds it whole.
    pub fn push_frames(&self, batch: &mut FrameBatch, now: Instant) -> Admitted {
        let offered = batch.len();
        let mut s = self.lock();
        let room = if s.closed { 0 } else { self.capacity - s.load };
        let enqueued = offered.min(room);
        if enqueued > 0 {
            batch.truncate(enqueued);
            batch.queued = Some(now);
            let next = s.spares.pop().unwrap_or_default();
            s.items.push_back((std::mem::replace(batch, next), enqueued));
            s.load += enqueued;
        }
        let surplus = if s.spares.len() > SPARE_BATCHES {
            s.spares.split_off(SPARE_BATCHES)
        } else {
            Vec::new()
        };
        let depth = s.load;
        drop(s);
        if enqueued > 0 {
            self.not_empty.notify_one();
        } else {
            batch.clear();
        }
        // Freed here, outside the lock, on the thread that allocated them.
        drop(surplus);
        Admitted { enqueued, shed: offered - enqueued, depth }
    }

    /// Hands a consumed batch back for [`Self::push_frames`] to refill,
    /// so the steady state allocates nothing and the consumer frees
    /// nothing it did not allocate. Returns the frames still queued.
    pub fn recycle(&self, mut spent: FrameBatch) -> usize {
        spent.clear();
        let mut s = self.lock();
        s.spares.push(spent);
        s.load
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_capacity_bound() {
        let q = BoundedQueue::new(3);
        assert_eq!(q.capacity(), 3);
        for i in 0..3 {
            assert!(q.try_push(i).is_ok());
        }
        // The fourth push is shed, not buffered and not blocking.
        assert_eq!(q.try_push(99), Err(99));
        assert_eq!(q.len(), 3);
        for i in 0..3 {
            assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::Item(i));
        }
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::Empty);
    }

    #[test]
    fn close_drains_backlog_before_reporting_closed() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.try_push(3), Err(3), "closed queue rejects pushes");
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::Item(1));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::Item(2));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::Closed);
        q.close(); // idempotent
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::<i32>::Closed);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert!(q.try_push(7).is_ok());
        assert_eq!(q.try_push(8), Err(8));
    }

    fn batch_of(frames: std::ops::Range<u8>) -> FrameBatch {
        let mut batch = FrameBatch::default();
        for f in frames {
            // Frame `f` is `f % 3` bytes of `f`: empty frames included.
            batch.push(&vec![f; usize::from(f % 3)]);
        }
        batch
    }

    fn frames_of(batch: &FrameBatch) -> Vec<Vec<u8>> {
        (0..batch.len()).map(|i| batch.frame(i).unwrap().to_vec()).collect()
    }

    #[test]
    fn oversize_batch_is_cut_at_capacity_in_order() {
        let q = BoundedQueue::new(5);
        let now = crate::metrics::monotonic_now();
        let mut batch = batch_of(0..3);
        assert_eq!(q.push_frames(&mut batch, now), Admitted { enqueued: 3, shed: 0, depth: 3 });
        assert!(batch.is_empty(), "the caller gets an empty batch back to fill");
        // Seven more into a room of two: the first two go in, five are shed.
        let mut batch = batch_of(3..10);
        assert_eq!(q.push_frames(&mut batch, now), Admitted { enqueued: 2, shed: 5, depth: 5 });
        assert_eq!(q.len(), 5, "depth never above capacity");
        // Full: shed whole, and the batch still comes back empty.
        let mut batch = batch_of(10..12);
        assert_eq!(q.push_frames(&mut batch, now), Admitted { enqueued: 0, shed: 2, depth: 5 });
        assert!(batch.is_empty());
        // The generic push sees the same load.
        assert!(q.try_push(batch_of(0..1)).is_err());

        let Pop::Item(first) = q.pop_timeout(Duration::ZERO) else { panic!("a batch is queued") };
        assert_eq!(frames_of(&first), frames_of(&batch_of(0..3)));
        assert_eq!(first.queued_at(), Some(now));
        assert_eq!(q.len(), 2);
        let Pop::Item(second) = q.pop_timeout(Duration::ZERO) else { panic!("a batch is queued") };
        assert_eq!(frames_of(&second), frames_of(&batch_of(3..5)), "cut in arrival order");
        assert!(matches!(q.pop_timeout(Duration::ZERO), Pop::Empty));
        assert!(first.frame(3).is_none());
    }

    #[test]
    fn closed_queue_refuses_a_batch_whole() {
        let q = BoundedQueue::new(8);
        let now = crate::metrics::monotonic_now();
        assert_eq!(q.push_frames(&mut batch_of(0..2), now).enqueued, 2);
        q.close();
        let mut late = batch_of(2..5);
        assert_eq!(q.push_frames(&mut late, now), Admitted { enqueued: 0, shed: 3, depth: 2 });
        assert!(late.is_empty());
        assert!(matches!(q.pop_timeout(Duration::ZERO), Pop::Item(b) if b.len() == 2));
        assert!(matches!(q.pop_timeout(Duration::ZERO), Pop::Closed));
    }

    #[test]
    fn recycled_batches_come_back_empty_with_their_allocation() {
        let q = BoundedQueue::new(64);
        let now = crate::metrics::monotonic_now();
        let mut filling = FrameBatch::default();
        filling.push(&[7u8; 4096]);
        q.push_frames(&mut filling, now);
        assert_eq!(filling.bytes.capacity(), 0, "no spare yet: a fresh batch");
        let Pop::Item(spent) = q.pop_timeout(Duration::ZERO) else { panic!("a batch is queued") };
        let (buffer, room) = (spent.bytes.as_ptr(), spent.bytes.capacity());
        assert_eq!(q.recycle(spent), 0, "recycle reports the frames still queued");
        // The next push swaps the spare in: same buffer, emptied.
        filling.push(&[1, 2, 3]);
        q.push_frames(&mut filling, now);
        assert!(filling.is_empty() && filling.queued_at().is_none());
        assert_eq!((filling.bytes.as_ptr(), filling.bytes.capacity()), (buffer, room));
        // A backlog's worth of returned buffers is trimmed to a handful
        // by the pushing side.
        for _ in 0..3 * SPARE_BATCHES {
            q.recycle(batch_of(0..2));
        }
        q.push_frames(&mut batch_of(0..1), now);
        assert_eq!(q.lock().spares.len(), SPARE_BATCHES);
    }

    #[test]
    fn cross_thread_handoff() {
        use std::sync::Arc;
        let q = Arc::new(BoundedQueue::new(64));
        let total = 500u64;
        let pool = scoped_pool::Pool::new(1);
        let mut got = 0u64;
        pool.scoped(|scope| {
            let q2 = Arc::clone(&q);
            scope.execute(move || {
                for i in 0..total {
                    // Spin until accepted: the test producer must not
                    // lose items, unlike daemon admission.
                    let mut item = i;
                    while let Err(back) = q2.try_push(item) {
                        item = back;
                        std::thread::yield_now();
                    }
                }
                q2.close();
            });
            loop {
                match q.pop_timeout(Duration::from_millis(5)) {
                    Pop::Item(_) => got += 1,
                    Pop::Empty => {}
                    Pop::Closed => break,
                }
            }
        });
        pool.shutdown();
        assert_eq!(got, total);
    }
}
