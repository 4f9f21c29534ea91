#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Shared concurrency primitives.
//!
//! The ingest front end's hashing workers (`hidestore-dedup`) and the
//! daemon's accept queue (`hidestore-server`) move work between threads
//! through the same bounded channel. `std::sync::mpsc::sync_channel` is
//! bounded but single-consumer and cannot report how often a thread sat
//! blocked on a full or empty queue. [`BoundedQueue`] is multi-consumer,
//! counts both waits, supports multiple producers with explicit completion
//! ([`BoundedQueue::producer_done`]), and can be cancelled so a stopping
//! consumer unblocks every producer instead of deadlocking a join.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

struct State<T> {
    items: VecDeque<T>,
    capacity: usize,
    producers: usize,
    cancelled: bool,
    blocked_full: u64,
    blocked_empty: u64,
}

/// Bounded multi-producer multi-consumer queue with backpressure counters.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    not_full: Condvar,
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items, fed by `producers`
    /// threads (each must call [`BoundedQueue::producer_done`] exactly once).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, producers: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                capacity,
                producers,
                cancelled: false,
                blocked_full: 0,
                blocked_empty: 0,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // The queue holds plain data; a panic elsewhere cannot leave the
        // state inconsistent, so a poisoned lock is safe to re-enter.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks until there is room, then enqueues `item`. Returns the item
    /// back if the queue was cancelled while waiting.
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` if the queue was cancelled.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut s = self.lock();
        while s.items.len() >= s.capacity && !s.cancelled {
            s.blocked_full += 1;
            s = self.not_full.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        if s.cancelled {
            return Err(item);
        }
        s.items.push_back(item);
        drop(s);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Enqueues `item` without blocking, or hands it back immediately when
    /// the queue is full or cancelled. This is the admission-gate primitive:
    /// an acceptor thread must never park on a saturated worker queue, it
    /// has to refuse the connection instead.
    ///
    /// # Errors
    ///
    /// [`TryPushError::Full`] when the queue is at capacity,
    /// [`TryPushError::Cancelled`] after [`BoundedQueue::cancel`]. Both
    /// return the item so the caller can dispose of it (e.g. close the
    /// refused connection gracefully).
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let mut s = self.lock();
        if s.cancelled {
            return Err(TryPushError::Cancelled(item));
        }
        if s.items.len() >= s.capacity {
            return Err(TryPushError::Full(item));
        }
        s.items.push_back(item);
        drop(s);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until an item is available; returns `None` once every producer
    /// has finished and the queue is drained, or immediately on cancellation.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.lock();
        loop {
            if s.cancelled {
                return None;
            }
            if let Some(item) = s.items.pop_front() {
                drop(s);
                self.not_full.notify_one();
                return Some(item);
            }
            if s.producers == 0 {
                return None;
            }
            s.blocked_empty += 1;
            s = self.not_empty.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Marks one producer as finished; when the last one finishes, blocked
    /// consumers drain the remaining items and then observe end-of-stream.
    pub fn producer_done(&self) {
        let mut s = self.lock();
        s.producers = s.producers.saturating_sub(1);
        let last = s.producers == 0;
        drop(s);
        if last {
            self.not_empty.notify_all();
        }
    }

    /// Cancels the queue: blocked pushes fail, blocked pops return `None`,
    /// and no further traffic flows. Used on a consumer stage's error path.
    pub fn cancel(&self) {
        let mut s = self.lock();
        s.cancelled = true;
        drop(s);
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// `(blocked_on_full, blocked_on_empty)` wait counts so far.
    pub fn blocked_counts(&self) -> (u64, u64) {
        let s = self.lock();
        (s.blocked_full, s.blocked_empty)
    }
}

/// Why a non-blocking [`BoundedQueue::try_push`] failed, carrying the
/// rejected item back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub enum TryPushError<T> {
    /// The queue was at capacity; the caller should shed the work.
    Full(T),
    /// The queue was cancelled; no further traffic flows.
    Cancelled(T),
}

impl<T> TryPushError<T> {
    /// Recovers the item that could not be enqueued.
    pub fn into_inner(self) -> T {
        match self {
            TryPushError::Full(item) | TryPushError::Cancelled(item) => item,
        }
    }
}

/// Calls [`BoundedQueue::producer_done`] on drop, so a producer thread that
/// panics (or returns early after cancellation) still releases its consumers
/// instead of deadlocking the pipeline's scope join.
pub struct ProducerGuard<'a, T>(
    /// The queue this producer feeds.
    pub &'a BoundedQueue<T>,
);

impl<T> Drop for ProducerGuard<'_, T> {
    fn drop(&mut self) {
        self.0.producer_done();
    }
}

/// Calls [`BoundedQueue::cancel`] on drop. A consumer stage holds one so an
/// early return — or a panic unwinding through the consumer — cancels the
/// queue and unblocks producers waiting on a full queue before the
/// surrounding `thread::scope` joins them.
pub struct CancelGuard<'a, T>(
    /// The queue to cancel when the consumer stops consuming.
    pub &'a BoundedQueue<T>,
);

impl<T> Drop for CancelGuard<'_, T> {
    fn drop(&mut self) {
        self.0.cancel();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fifo_order_single_thread() {
        let q = BoundedQueue::new(4, 1);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.producer_done();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocks_on_full_and_counts() {
        let q = BoundedQueue::new(1, 1);
        q.push(0u32).unwrap();
        std::thread::scope(|scope| {
            let q = &q;
            scope.spawn(move || {
                // Blocks until the consumer below makes room.
                q.push(1).unwrap();
                q.producer_done();
            });
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(q.pop(), Some(0));
            assert_eq!(q.pop(), Some(1));
            assert_eq!(q.pop(), None);
        });
        let (full, _) = q.blocked_counts();
        assert!(full >= 1, "producer must have waited on the full queue");
    }

    #[test]
    fn consumer_waits_for_producers() {
        let q = BoundedQueue::new(4, 2);
        std::thread::scope(|scope| {
            let q = &q;
            for v in 0..2u32 {
                scope.spawn(move || {
                    std::thread::sleep(Duration::from_millis(10));
                    q.push(v).unwrap();
                    q.producer_done();
                });
            }
            let mut got = vec![q.pop().unwrap(), q.pop().unwrap()];
            got.sort_unstable();
            assert_eq!(got, vec![0, 1]);
            assert_eq!(q.pop(), None, "both producers done");
        });
        let (_, empty) = q.blocked_counts();
        assert!(empty >= 1, "consumer must have waited on the empty queue");
    }

    #[test]
    fn cancel_unblocks_everyone() {
        let q = BoundedQueue::new(1, 1);
        q.push(7u32).unwrap();
        std::thread::scope(|scope| {
            let q = &q;
            let h = scope.spawn(move || q.push(8));
            std::thread::sleep(Duration::from_millis(20));
            q.cancel();
            assert_eq!(h.join().ok(), Some(Err(8)), "blocked push fails");
            assert_eq!(q.pop(), None, "cancelled pop yields nothing");
        });
    }

    #[test]
    fn try_push_refuses_instead_of_blocking() {
        let q = BoundedQueue::new(1, 1);
        assert_eq!(q.try_push(1u32), Ok(()));
        assert_eq!(q.try_push(2), Err(TryPushError::Full(2)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(3), Ok(()), "room again after a pop");
        q.cancel();
        assert_eq!(q.try_push(4), Err(TryPushError::Cancelled(4)));
        assert_eq!(TryPushError::Full(9u32).into_inner(), 9);
    }

    #[test]
    fn producer_guard_releases_on_drop() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2, 1);
        {
            let _guard = ProducerGuard(&q);
            q.push(1).unwrap();
        }
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None, "guard drop counted the producer done");
    }

    #[test]
    fn cancel_guard_unblocks_producer_on_drop() {
        let q: BoundedQueue<u32> = BoundedQueue::new(1, 1);
        q.push(1).unwrap();
        std::thread::scope(|scope| {
            let q = &q;
            let h = scope.spawn(move || {
                let _done = ProducerGuard(q);
                q.push(2)
            });
            {
                let _cancel = CancelGuard(q);
                std::thread::sleep(Duration::from_millis(20));
                // Consumer "errors out" here without draining the queue.
            }
            assert_eq!(h.join().ok(), Some(Err(2)), "blocked push must fail");
        });
    }
}
