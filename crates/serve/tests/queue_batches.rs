//! Property test for batched admission: whatever the interleaving of
//! batch pushes and pops, the frame-counted bound holds, every frame is
//! accounted for exactly once, and frames leave in the order they came.

use odflow_serve::metrics::monotonic_now;
use odflow_serve::{Admitted, BoundedQueue, FrameBatch, Pop};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::time::Duration;

const CAPACITY: usize = 12;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Some(n)` pushes a batch of `n` frames (0 to three times the
    /// capacity), `None` pops one batch and recycles it. After every step
    /// `frames pushed = popped + shed + resident` and the depth is within
    /// the capacity; the frames popped are exactly the frames admitted —
    /// each batch cut, if at all, at its tail — in push order.
    #[test]
    fn batch_pushes_and_pops_conserve_frames_in_order(
        ops in proptest::collection::vec(proptest::option::of(0usize..=3 * CAPACITY), 0..64),
    ) {
        let queue: BoundedQueue<FrameBatch> = BoundedQueue::new(CAPACITY);
        let mut filling = FrameBatch::default();
        let mut admitted: VecDeque<u32> = VecDeque::new();
        let (mut next, mut pushed, mut popped, mut shed) = (0u32, 0usize, 0usize, 0usize);
        for op in ops {
            match op {
                Some(n) => {
                    let first = next;
                    for _ in 0..n {
                        // Frame `id` is its number and `id % 7` bytes of padding.
                        let mut frame = next.to_be_bytes().to_vec();
                        frame.resize(4 + next as usize % 7, 0xAB);
                        filling.push(&frame);
                        next += 1;
                    }
                    let room = CAPACITY - queue.len();
                    let got = queue.push_frames(&mut filling, monotonic_now());
                    let enqueued = n.min(room);
                    prop_assert_eq!(
                        got,
                        Admitted { enqueued, shed: n - enqueued, depth: CAPACITY - room + enqueued }
                    );
                    prop_assert!(filling.is_empty());
                    admitted.extend(first..first + enqueued as u32);
                    pushed += n;
                    shed += got.shed;
                }
                None => match queue.pop_timeout(Duration::ZERO) {
                    Pop::Item(batch) => {
                        prop_assert!(!batch.is_empty(), "an empty batch is never queued");
                        for i in 0..batch.len() {
                            let id = admitted.pop_front().expect("popped a frame never admitted");
                            let frame = batch.frame(i).expect("frame inside the batch");
                            prop_assert_eq!(&frame[..4], &id.to_be_bytes()[..]);
                            prop_assert_eq!(frame.len(), 4 + id as usize % 7);
                        }
                        popped += batch.len();
                        prop_assert_eq!(queue.recycle(batch), admitted.len());
                    }
                    Pop::Empty => prop_assert!(admitted.is_empty()),
                    Pop::Closed => prop_assert!(false, "nobody closed the queue"),
                },
            }
            prop_assert!(queue.len() <= CAPACITY);
            prop_assert_eq!(queue.len(), admitted.len());
            prop_assert_eq!(pushed, popped + shed + queue.len());
        }
    }
}
