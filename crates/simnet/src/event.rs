//! Queue entries: messages, timers, and injected faults, ordered by
//! `(time, sequence)` for full determinism. A fault is the node's own
//! [`Node::Fault`](crate::Node::Fault) value; the queue only orders it.

use core::cmp::Ordering;
use core::fmt;

use fi_types::SimTime;

use crate::node::NodeId;

/// An opaque timer identifier chosen by the node that sets the timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimerToken(u64);

impl TimerToken {
    /// Creates a token.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        TimerToken(raw)
    }

    /// The raw token value.
    #[must_use]
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TimerToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer#{}", self.0)
    }
}

/// What is scheduled to happen.
#[derive(Debug, Clone)]
pub(crate) enum EventKind<M, F> {
    Deliver {
        from: NodeId,
        to: NodeId,
        payload: M,
    },
    Timer {
        node: NodeId,
        token: TimerToken,
    },
    Fault {
        node: NodeId,
        fault: F,
    },
}

/// A queue entry: an event at a time, with a monotone sequence number as a
/// deterministic tiebreaker.
pub(crate) struct Scheduled<M, F> {
    pub at: SimTime,
    pub seq: u64,
    pub kind: EventKind<M, F>,
}

impl<M, F> PartialEq for Scheduled<M, F> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<M, F> Eq for Scheduled<M, F> {}

impl<M, F> PartialOrd for Scheduled<M, F> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M, F> Ord for Scheduled<M, F> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse order so BinaryHeap pops the earliest event first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    fn sched(at_us: u64, seq: u64) -> Scheduled<u8, ()> {
        Scheduled {
            at: SimTime::from_micros(at_us),
            seq,
            kind: EventKind::Timer {
                node: NodeId::new(0),
                token: TimerToken::new(0),
            },
        }
    }

    #[test]
    fn heap_pops_in_time_then_seq_order() {
        let mut heap = BinaryHeap::new();
        heap.push(sched(20, 0));
        heap.push(sched(10, 2));
        heap.push(sched(10, 1));
        heap.push(sched(5, 9));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| heap.pop())
            .map(|s| (s.at.as_micros(), s.seq))
            .collect();
        assert_eq!(order, vec![(5, 9), (10, 1), (10, 2), (20, 0)]);
    }

    #[test]
    fn timer_token_round_trip() {
        let t = TimerToken::new(42);
        assert_eq!(t.value(), 42);
        assert_eq!(t.to_string(), "timer#42");
    }
}
