//! Safety and liveness checking over post-run replica state.
//!
//! Safety here is exactly the paper's concern (§II-C): if the correlated
//! faults exceed `f`, two honest replicas may execute different operations
//! at the same sequence number — a state-machine fork. The checker compares
//! the execution histories of all replicas that remained honest.

use std::collections::HashMap;

use crate::message::Operation;
use crate::replica::Replica;

/// A detected divergence: two honest replicas executed different operations
/// at the same sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SafetyViolation {
    /// The sequence number at which histories diverge.
    pub seq: u64,
    /// First replica index.
    pub replica_a: usize,
    /// Second replica index.
    pub replica_b: usize,
}

/// The outcome of the safety audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SafetyReport {
    violations: Vec<SafetyViolation>,
}

impl SafetyReport {
    /// Audits the execution histories of the replicas flagged honest.
    ///
    /// Two honest replicas violate safety iff they executed *different*
    /// operations at the same sequence number. Prefix gaps (one replica
    /// lagging) are not violations.
    #[must_use]
    pub fn audit(replicas: &[&Replica], honest: &[bool]) -> SafetyReport {
        let mut canonical: HashMap<u64, (usize, Operation)> = HashMap::new();
        let mut violations = Vec::new();
        for (i, replica) in replicas.iter().enumerate() {
            if !honest.get(i).copied().unwrap_or(false) {
                continue;
            }
            for &(seq, op) in replica.executed() {
                match canonical.get(&seq) {
                    None => {
                        canonical.insert(seq, (replica.index(), op));
                    }
                    Some(&(first_index, first_op)) => {
                        if first_op != op {
                            violations.push(SafetyViolation {
                                seq,
                                replica_a: first_index,
                                replica_b: replica.index(),
                            });
                        }
                    }
                }
            }
        }
        violations.sort_by_key(|v| (v.seq, v.replica_a, v.replica_b));
        SafetyReport { violations }
    }

    /// `true` iff no divergence was found.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }

    /// The divergences found.
    #[must_use]
    pub fn violations(&self) -> &[SafetyViolation] {
        &self.violations
    }
}

/// The outcome of the liveness audit (client progress).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LivenessReport {
    /// Requests the clients saw completed (matching replies carrying more
    /// than `f` power).
    pub executed_requests: u64,
    /// Requests the workload intended.
    pub expected_requests: u64,
    /// Total client retransmissions (a congestion/health signal).
    pub client_retries: u64,
}

impl LivenessReport {
    /// Whether every intended request completed.
    #[must_use]
    pub fn all_executed(&self) -> bool {
        self.executed_requests == self.expected_requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weighted::WeightedQuorum;
    use fi_types::{SimTime, VotingPower};

    fn replica_with_history(index: usize, history: &[(u64, u64)]) -> Replica {
        // Build a replica and force an execution history through the
        // committed path (test-only shortcut using the public API).
        let r = Replica::new(
            index,
            WeightedQuorum::for_total(VotingPower::new(4)).unwrap(),
            vec![VotingPower::new(1); 4],
            1_000,
            SimTime::from_millis(500),
        );
        // Reach into the history via the public `executed` invariant: we
        // simulate executions by feeding the internal state through the
        // normal message flow in integration tests; here we use the fact
        // that `executed()` is only appended by execution, so we test the
        // auditor against synthetic replicas built from a helper below.
        let _ = history;
        r
    }

    // The auditor operates on `Replica::executed()`; constructing divergent
    // histories through the full protocol requires > f faults, which the
    // harness tests do end-to-end. Here we check the report mechanics on
    // degenerate inputs.

    #[test]
    fn empty_audit_holds() {
        let r0 = replica_with_history(0, &[]);
        let r1 = replica_with_history(1, &[]);
        let report = SafetyReport::audit(&[&r0, &r1], &[true, true]);
        assert!(report.holds());
        assert!(report.violations().is_empty());
    }

    #[test]
    fn dishonest_replicas_are_skipped() {
        let r0 = replica_with_history(0, &[]);
        let report = SafetyReport::audit(&[&r0], &[false]);
        assert!(report.holds());
    }

    #[test]
    fn honest_flags_shorter_than_replicas_default_to_skip() {
        let r0 = replica_with_history(0, &[]);
        let r1 = replica_with_history(1, &[]);
        let report = SafetyReport::audit(&[&r0, &r1], &[true]);
        assert!(report.holds());
    }

    #[test]
    fn all_executed_compares_executed_with_expected() {
        let full = LivenessReport {
            executed_requests: 10,
            expected_requests: 10,
            client_retries: 0,
        };
        assert!(full.all_executed());
        let partial = LivenessReport {
            executed_requests: 3,
            expected_requests: 10,
            client_retries: 7,
        };
        assert!(!partial.all_executed());
    }
}
