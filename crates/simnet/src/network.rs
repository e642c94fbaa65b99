//! Network configuration: latency, loss, partitions.

use crate::latency::LatencyModel;
use crate::partition::PartitionWindow;

/// The network the simulation runs over.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Latency model applied to every message.
    pub latency: LatencyModel,
    /// Independent per-message drop probability in `[0, 1]`.
    pub drop_probability: f64,
    /// Scheduled partition windows.
    pub partitions: Vec<PartitionWindow>,
}

impl Default for NetworkConfig {
    /// A reliable 1 ms LAN with no partitions.
    fn default() -> Self {
        NetworkConfig {
            latency: LatencyModel::default(),
            drop_probability: 0.0,
            partitions: Vec::new(),
        }
    }
}

impl NetworkConfig {
    /// A reliable network with the given latency model.
    #[must_use]
    pub fn with_latency(latency: LatencyModel) -> Self {
        NetworkConfig {
            latency,
            ..NetworkConfig::default()
        }
    }

    /// Sets the drop probability (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[must_use]
    pub fn drop_probability(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability must be in [0,1]"
        );
        self.drop_probability = p;
        self
    }

    /// Adds a partition window (builder style).
    #[must_use]
    pub fn partition(mut self, window: PartitionWindow) -> Self {
        self.partitions.push(window);
        self
    }

    /// Whether the network allows `from → to` at time `t` (all active
    /// partition windows must allow the pair).
    #[must_use]
    pub fn allows(
        &self,
        from: crate::node::NodeId,
        to: crate::node::NodeId,
        t: fi_types::SimTime,
    ) -> bool {
        self.partitions
            .iter()
            .filter(|w| w.active_at(t))
            .all(|w| w.partition.allows(from, to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;
    use crate::partition::Partition;
    use fi_types::SimTime;

    #[test]
    fn default_is_reliable_lan() {
        let c = NetworkConfig::default();
        assert_eq!(c.drop_probability, 0.0);
        assert!(c.partitions.is_empty());
        assert!(c.allows(NodeId::new(0), NodeId::new(1), SimTime::ZERO));
    }

    #[test]
    fn builder_chain() {
        let c = NetworkConfig::with_latency(LatencyModel::Constant(SimTime::from_millis(5)))
            .drop_probability(0.1)
            .partition(PartitionWindow {
                from: SimTime::from_secs(1),
                until: SimTime::from_secs(2),
                partition: Partition::split_at(4, 2),
            });
        assert_eq!(c.drop_probability, 0.1);
        assert_eq!(c.partitions.len(), 1);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn rejects_bad_drop_probability() {
        let _ = NetworkConfig::default().drop_probability(1.5);
    }

    #[test]
    fn partition_window_gates_reachability() {
        let c = NetworkConfig::default().partition(PartitionWindow {
            from: SimTime::from_secs(1),
            until: SimTime::from_secs(2),
            partition: Partition::split_at(4, 2),
        });
        assert!(c.allows(NodeId::new(0), NodeId::new(3), SimTime::ZERO));
        assert!(!c.allows(NodeId::new(0), NodeId::new(3), SimTime::from_secs(1)));
        assert!(c.allows(NodeId::new(0), NodeId::new(1), SimTime::from_secs(1)));
        assert!(c.allows(NodeId::new(0), NodeId::new(3), SimTime::from_secs(2)));
    }

    #[test]
    fn overlapping_windows_must_all_allow() {
        let c = NetworkConfig::default()
            .partition(PartitionWindow {
                from: SimTime::ZERO,
                until: SimTime::from_secs(10),
                partition: Partition::split_at(4, 1),
            })
            .partition(PartitionWindow {
                from: SimTime::ZERO,
                until: SimTime::from_secs(10),
                partition: Partition::split_at(4, 3),
            });
        // 1 -> 2 allowed by the first window (both right of boundary 1) but
        // blocked by the second (2 < 3 <= 3).
        assert!(!c.allows(NodeId::new(1), NodeId::new(3), SimTime::from_secs(5)));
        assert!(c.allows(NodeId::new(1), NodeId::new(2), SimTime::from_secs(5)));
    }
}
