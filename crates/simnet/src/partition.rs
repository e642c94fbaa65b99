//! Network partitions: time-bounded splits of the node set.

use fi_types::SimTime;

use crate::node::NodeId;

/// A partition of the node set into disjoint groups; messages cross group
/// boundaries only when no partition window is active.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    groups: Vec<Vec<NodeId>>,
}

impl Partition {
    /// Creates a partition from groups. Nodes absent from every group form
    /// an implicit extra group (they can talk to each other but to no named
    /// group).
    #[must_use]
    pub fn new(groups: Vec<Vec<NodeId>>) -> Self {
        Partition { groups }
    }

    /// Splits `[0, n)` into two groups at `boundary`: `[0, boundary)` and
    /// `[boundary, n)`.
    #[must_use]
    pub fn split_at(n: usize, boundary: usize) -> Self {
        let left = (0..boundary.min(n)).map(NodeId::new).collect();
        let right = (boundary.min(n)..n).map(NodeId::new).collect();
        Partition {
            groups: vec![left, right],
        }
    }

    /// Isolates a single node from everyone else.
    // lint: allow(unused-pub) test seam: the partition cases of simnet_properties and integration_resilience_scenarios cut one node off with it
    #[must_use]
    pub fn isolate(n: usize, victim: NodeId) -> Self {
        let rest = (0..n).map(NodeId::new).filter(|&id| id != victim).collect();
        Partition {
            groups: vec![vec![victim], rest],
        }
    }

    fn group_of(&self, node: NodeId) -> Option<usize> {
        self.groups.iter().position(|g| g.contains(&node))
    }

    /// Whether `a` can reach `b` under this partition.
    #[must_use]
    pub fn allows(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return true;
        }
        self.group_of(a) == self.group_of(b)
    }
}

/// A partition active during a half-open time window `[from, until)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionWindow {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// The partition in force.
    pub partition: Partition,
}

impl PartitionWindow {
    /// Whether the window covers `t`.
    #[must_use]
    pub fn active_at(&self, t: SimTime) -> bool {
        t >= self.from && t < self.until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_at_separates_sides() {
        let p = Partition::split_at(4, 2);
        assert!(p.allows(NodeId::new(0), NodeId::new(1)));
        assert!(p.allows(NodeId::new(2), NodeId::new(3)));
        assert!(!p.allows(NodeId::new(1), NodeId::new(2)));
    }

    #[test]
    fn self_delivery_always_allowed() {
        let p = Partition::split_at(4, 2);
        assert!(p.allows(NodeId::new(0), NodeId::new(0)));
        let iso = Partition::isolate(4, NodeId::new(1));
        assert!(iso.allows(NodeId::new(1), NodeId::new(1)));
    }

    #[test]
    fn isolate_cuts_victim_only() {
        let p = Partition::isolate(5, NodeId::new(2));
        assert!(!p.allows(NodeId::new(2), NodeId::new(0)));
        assert!(!p.allows(NodeId::new(3), NodeId::new(2)));
        assert!(p.allows(NodeId::new(0), NodeId::new(4)));
    }

    #[test]
    fn unlisted_nodes_form_implicit_group() {
        let p = Partition::new(vec![vec![NodeId::new(0)]]);
        // 1 and 2 are unlisted: same implicit group (None == None).
        assert!(p.allows(NodeId::new(1), NodeId::new(2)));
        assert!(!p.allows(NodeId::new(0), NodeId::new(1)));
    }

    #[test]
    fn window_half_open() {
        let w = PartitionWindow {
            from: SimTime::from_secs(1),
            until: SimTime::from_secs(2),
            partition: Partition::split_at(2, 1),
        };
        assert!(!w.active_at(SimTime::from_micros(999_999)));
        assert!(w.active_at(SimTime::from_secs(1)));
        assert!(!w.active_at(SimTime::from_secs(2)));
    }

    #[test]
    fn split_at_clamps_boundary() {
        let p = Partition::split_at(3, 10);
        assert!(p.allows(NodeId::new(0), NodeId::new(2)));
    }
}
