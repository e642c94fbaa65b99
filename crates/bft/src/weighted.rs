//! Voting-power-weighted quorums.
//!
//! The paper abstracts resilience over *voting power* `n_t` rather than
//! replica counts (§II-A): for committee-based permissionless protocols,
//! each committee member carries its stake/power, and quorums are power
//! sums, not head counts. This module provides the weighted counterpart of
//! [`crate::QuorumParams`]: tolerated compromised power
//! `f = ⌊(total − 1)/3⌋` units, quorum power `total − f`, and a vote
//! accumulator that de-duplicates voters.
//!
//! The simulated PBFT replicas in this crate use equal weights (count
//! quorums); the weighted arithmetic is used by analyses that bridge
//! committee selection (`fi-committee`) into resilience statements, and is
//! exercised end-to-end in the integration suites.

use std::collections::HashMap;

use fi_types::{ReplicaId, VotingPower};

/// Quorum arithmetic over voting power.
///
/// # Example
///
/// ```
/// use fi_bft::weighted::WeightedQuorum;
/// use fi_types::VotingPower;
///
/// let q = WeightedQuorum::for_total(VotingPower::new(100)).unwrap();
/// assert_eq!(q.f_power(), VotingPower::new(33));
/// assert_eq!(q.quorum_power(), VotingPower::new(67));
/// assert!(q.tolerates(VotingPower::new(33)));
/// assert!(!q.tolerates(VotingPower::new(34)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WeightedQuorum {
    total: VotingPower,
    f_power: VotingPower,
}

impl WeightedQuorum {
    /// Derives weighted quorum parameters for a system with `total` voting
    /// power: `f = ⌊(total − 1)/3⌋` power units tolerated. Returns `None`
    /// when `total` is too small to tolerate any compromised unit
    /// (`total < 4`).
    #[must_use]
    pub fn for_total(total: VotingPower) -> Option<Self> {
        if total.as_units() < 4 {
            return None;
        }
        Some(WeightedQuorum {
            total,
            f_power: VotingPower::new((total.as_units() - 1) / 3),
        })
    }

    /// Total voting power `n_t`.
    #[must_use]
    pub fn total(&self) -> VotingPower {
        self.total
    }

    /// Maximum compromised power the system tolerates.
    #[must_use]
    pub fn f_power(&self) -> VotingPower {
        self.f_power
    }

    /// The quorum threshold: `total − f` power units. Any two sets reaching
    /// it intersect in at least `total − 2f ≥ f + 1` units — more power
    /// than the adversary can hold, so at least one honest unit is common.
    #[must_use]
    pub fn quorum_power(&self) -> VotingPower {
        self.total - self.f_power
    }

    /// Whether `accumulated` voting power reaches the quorum.
    #[must_use]
    pub fn reaches_quorum(&self, accumulated: VotingPower) -> bool {
        accumulated >= self.quorum_power()
    }

    /// Whether the paper's safety condition holds for `compromised` power:
    /// `f ≥ Σ_i f^i_t` expressed in units.
    #[must_use]
    pub fn tolerates(&self, compromised: VotingPower) -> bool {
        compromised <= self.f_power
    }
}

/// Accumulates votes weighted by per-replica power, counting each replica
/// at most once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedVoteSet {
    quorum: WeightedQuorum,
    weights: HashMap<ReplicaId, VotingPower>,
    voted: HashMap<ReplicaId, VotingPower>,
    accumulated: VotingPower,
}

impl WeightedVoteSet {
    /// Creates a vote set over the given member weights.
    ///
    /// Returns `None` if the members' total power is below the weighted
    /// quorum minimum (see [`WeightedQuorum::for_total`]).
    #[must_use]
    pub fn new(weights: HashMap<ReplicaId, VotingPower>) -> Option<Self> {
        let total: VotingPower = weights.values().copied().sum();
        let quorum = WeightedQuorum::for_total(total)?;
        Some(WeightedVoteSet {
            quorum,
            weights,
            voted: HashMap::new(),
            accumulated: VotingPower::ZERO,
        })
    }

    /// The quorum parameters in force.
    #[must_use]
    pub fn quorum(&self) -> WeightedQuorum {
        self.quorum
    }

    /// Records a vote; returns `true` if it was fresh (first vote by this
    /// replica) and the voter is a member. Non-members and duplicates are
    /// ignored.
    pub fn vote(&mut self, replica: ReplicaId) -> bool {
        let Some(&weight) = self.weights.get(&replica) else {
            return false;
        };
        if self.voted.contains_key(&replica) {
            return false;
        }
        self.voted.insert(replica, weight);
        self.accumulated += weight;
        true
    }

    /// Power accumulated so far.
    #[must_use]
    pub fn accumulated(&self) -> VotingPower {
        self.accumulated
    }

    /// Whether the accumulated power reaches the quorum.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.quorum.reaches_quorum(self.accumulated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_match_count_case_on_equal_weights() {
        // 4 members of 1 unit each behaves like n = 4, f = 1.
        let q = WeightedQuorum::for_total(VotingPower::new(4)).unwrap();
        assert_eq!(q.f_power(), VotingPower::new(1));
        assert_eq!(q.quorum_power(), VotingPower::new(3));
    }

    #[test]
    fn too_small_totals_rejected() {
        for total in 0..4 {
            assert!(WeightedQuorum::for_total(VotingPower::new(total)).is_none());
        }
    }

    #[test]
    fn intersection_always_beats_adversary() {
        for total in 4u64..2_000 {
            let q = WeightedQuorum::for_total(VotingPower::new(total)).unwrap();
            // Any two quorums overlap in 2(total − f) − total units.
            let overlap = q.quorum_power() + q.quorum_power() - q.total();
            assert!(overlap > q.f_power(), "total = {total}");
        }
    }

    #[test]
    fn vote_set_accumulates_and_deduplicates() {
        let weights: HashMap<ReplicaId, VotingPower> = [
            (ReplicaId::new(0), VotingPower::new(50)),
            (ReplicaId::new(1), VotingPower::new(30)),
            (ReplicaId::new(2), VotingPower::new(20)),
        ]
        .into_iter()
        .collect();
        let mut votes = WeightedVoteSet::new(weights).unwrap();
        assert_eq!(votes.quorum().quorum_power(), VotingPower::new(67));
        assert!(votes.vote(ReplicaId::new(0)));
        assert!(!votes.vote(ReplicaId::new(0)), "duplicate ignored");
        assert!(!votes.vote(ReplicaId::new(9)), "non-member ignored");
        assert!(!votes.complete());
        assert!(votes.vote(ReplicaId::new(1)));
        assert!(votes.complete(), "50 + 30 >= 67");
        assert_eq!(votes.accumulated(), VotingPower::new(80));
    }

    #[test]
    fn whale_cannot_form_quorum_alone_below_threshold() {
        // A 60%-whale still needs help: quorum is 67.
        let weights: HashMap<ReplicaId, VotingPower> = [
            (ReplicaId::new(0), VotingPower::new(60)),
            (ReplicaId::new(1), VotingPower::new(25)),
            (ReplicaId::new(2), VotingPower::new(15)),
        ]
        .into_iter()
        .collect();
        let mut votes = WeightedVoteSet::new(weights).unwrap();
        votes.vote(ReplicaId::new(0));
        assert!(!votes.complete());
        votes.vote(ReplicaId::new(2));
        assert!(votes.complete());
    }

    #[test]
    fn tolerates_is_the_paper_condition() {
        let q = WeightedQuorum::for_total(VotingPower::new(1_000)).unwrap();
        assert!(q.tolerates(VotingPower::new(333)));
        assert!(!q.tolerates(VotingPower::new(334)));
        assert_eq!(q.total(), VotingPower::new(1_000));
    }

    #[test]
    fn empty_or_tiny_vote_sets_rejected() {
        assert!(WeightedVoteSet::new(HashMap::new()).is_none());
        let tiny: HashMap<ReplicaId, VotingPower> = [(ReplicaId::new(0), VotingPower::new(2))]
            .into_iter()
            .collect();
        assert!(WeightedVoteSet::new(tiny).is_none());
    }
}
