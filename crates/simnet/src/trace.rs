//! Simulation statistics: message counts per outcome and per node.

use crate::node::NodeId;

/// Counters accumulated while a simulation runs.
///
/// Message-complexity experiments (the Proposition-3 overhead trade-off)
/// read `sent`/`delivered` after a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceStats {
    sent: u64,
    delivered: u64,
    dropped: u64,
    blocked_by_partition: u64,
    timers_fired: u64,
    per_node_sent: Vec<u64>,
}

impl TraceStats {
    pub(crate) fn ensure_nodes(&mut self, n: usize) {
        if self.per_node_sent.len() < n {
            self.per_node_sent.resize(n, 0);
        }
    }

    pub(crate) fn record_sent(&mut self, from: NodeId) {
        self.sent += 1;
        if let Some(c) = self.per_node_sent.get_mut(from.index()) {
            *c += 1;
        }
    }

    pub(crate) fn record_delivered(&mut self) {
        self.delivered += 1;
    }

    pub(crate) fn record_dropped(&mut self) {
        self.dropped += 1;
    }

    pub(crate) fn record_blocked(&mut self) {
        self.blocked_by_partition += 1;
    }

    pub(crate) fn record_timer(&mut self) {
        self.timers_fired += 1;
    }

    /// Messages handed to the network.
    #[must_use]
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Messages delivered to a node.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Messages dropped by the loss model.
    // lint: allow(unused-pub) test seam: simnet_properties' message-conservation property reads it
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Messages blocked by an active partition.
    // lint: allow(unused-pub) test seam: simnet_properties' message-conservation and partition properties read it
    #[must_use]
    pub fn blocked_by_partition(&self) -> u64 {
        self.blocked_by_partition
    }

    /// Timers fired.
    // lint: allow(unused-pub) test seam: simnet_properties' timer property reads it
    #[must_use]
    pub fn timers_fired(&self) -> u64 {
        self.timers_fired
    }

    /// Messages sent by `node`.
    // lint: allow(unused-pub) test seam: simnet_properties checks the per-node counts sum to the total
    #[must_use]
    pub fn sent_by(&self, node: NodeId) -> u64 {
        self.per_node_sent.get(node.index()).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = TraceStats::default();
        s.ensure_nodes(2);
        s.record_sent(NodeId::new(0));
        s.record_sent(NodeId::new(0));
        s.record_delivered();
        s.record_dropped();
        s.record_blocked();
        s.record_timer();
        assert_eq!(s.sent(), 2);
        assert_eq!(s.delivered(), 1);
        assert_eq!(s.dropped(), 1);
        assert_eq!(s.blocked_by_partition(), 1);
        assert_eq!(s.timers_fired(), 1);
        assert_eq!(s.sent_by(NodeId::new(0)), 2);
        assert_eq!(s.sent_by(NodeId::new(9)), 0);
    }

    #[test]
    fn conservation_sent_equals_outcomes() {
        // The engine maintains: sent = delivered + dropped + blocked +
        // in-flight. With everything resolved, the identity is testable at
        // the stats level too.
        let mut s = TraceStats::default();
        s.ensure_nodes(1);
        for _ in 0..5 {
            s.record_sent(NodeId::new(0));
        }
        for _ in 0..3 {
            s.record_delivered();
        }
        s.record_dropped();
        s.record_blocked();
        assert_eq!(
            s.sent(),
            s.delivered() + s.dropped() + s.blocked_by_partition()
        );
    }
}
