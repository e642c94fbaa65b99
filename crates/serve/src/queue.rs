//! A small bounded MPMC queue: `Mutex<VecDeque>`, non-blocking at both
//! ends.
//!
//! This is the front-end's one queue, the **ingress**: producers use
//! [`Bounded::try_push`], so a full queue is an *admission decision*
//! surfaced to the client as [`Overloaded`](crate::Overloaded), never a
//! block, and the dispatcher takes requests off with
//! [`Bounded::try_pop`]. No caller ever waits on it.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A bounded FIFO queue shared between threads; see the module docs.
#[derive(Debug)]
pub struct Bounded<T> {
    items: Mutex<VecDeque<T>>,
    capacity: usize,
}

impl<T> Bounded<T> {
    /// A queue holding at most `capacity` items (clamped to at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Bounded {
            items: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity,
        }
    }

    /// The configured bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock_recover().len()
    }

    /// Whether the queue is currently empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock_recover().is_empty()
    }

    /// Non-blocking push: `Err(item)` back to the caller when the queue
    /// is at capacity. This is the admission-control edge — the caller
    /// turns the `Err` into a typed shed, it never waits.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut items = self.lock_recover();
        if items.len() >= self.capacity {
            return Err(item);
        }
        items.push_back(item);
        Ok(())
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<T> {
        self.lock_recover().pop_front()
    }

    /// Takes the queue lock, recovering from poisoning: a producer or
    /// consumer that panicked between queue calls must not take the whole
    /// ingress path down with it, and the queue's own operations never
    /// unwind while mutating, so the inherited state is always coherent.
    fn lock_recover(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.items.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_push_sheds_at_capacity() {
        let q = Bounded::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_pop(), Some(1));
        assert!(q.try_push(3).is_ok());
    }
}
