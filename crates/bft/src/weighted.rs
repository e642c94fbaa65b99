//! The workspace's one quorum rule, over voting power.
//!
//! The paper abstracts resilience over *voting power* `n_t` rather than
//! replica counts (§II-A): for committee-based permissionless protocols,
//! each committee member carries its stake/power, and quorums are power
//! sums, not head counts. [`WeightedQuorum`] tolerates compromised power
//! `f = ⌊(total − 1)/3⌋` units and sets the quorum at `total − f`; a
//! [`WeightedVoteSet`] tallies a vote's power, each voter once.
//!
//! The simulated PBFT replicas and clients count every vote through these
//! two, and the resilience analyzer reads its `f` from [`WeightedQuorum`].
//! At equal power per member the rule gives exactly the head-count
//! thresholds: quorum `n − ⌊(n − 1)/3⌋` members, and more than `f` power
//! is `⌊(n − 1)/3⌋ + 1` members.

use std::collections::BTreeSet;

use fi_types::VotingPower;

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
    // lint: allow(unused-pub) paper-facing: the `total − f` quorum threshold, whose intersection bound bft_properties and integration_weighted assert
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

/// One vote tally: the members that voted, each counted once, and the
/// sum of their power.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WeightedVoteSet {
    voters: BTreeSet<usize>,
    power: VotingPower,
}

impl WeightedVoteSet {
    /// Records member `voter`'s vote at its power `powers[voter]`; returns
    /// `true` if the vote was fresh. A repeated vote is ignored.
    ///
    /// # Panics
    ///
    /// Panics if `voter` is not an index into `powers`.
    pub fn vote(&mut self, voter: usize, powers: &[VotingPower]) -> bool {
        let fresh = self.voters.insert(voter);
        if fresh {
            self.power += powers[voter];
        }
        fresh
    }

    /// Power accumulated so far.
    #[must_use]
    pub fn power(&self) -> VotingPower {
        self.power
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn units(powers: &[u64]) -> Vec<VotingPower> {
        powers.iter().map(|&p| VotingPower::new(p)).collect()
    }

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
        let powers = units(&[50, 30, 20]);
        let q = WeightedQuorum::for_total(powers.iter().sum()).unwrap();
        assert_eq!(q.quorum_power(), VotingPower::new(67));
        let mut votes = WeightedVoteSet::default();
        assert!(votes.vote(0, &powers));
        assert!(!votes.vote(0, &powers), "duplicate ignored");
        assert!(!q.reaches_quorum(votes.power()));
        assert!(votes.vote(1, &powers));
        assert!(q.reaches_quorum(votes.power()), "50 + 30 >= 67");
        assert_eq!(votes.power(), VotingPower::new(80));
    }

    #[test]
    fn whale_cannot_form_quorum_alone_below_threshold() {
        // A 60%-whale still needs help: quorum is 67.
        let powers = units(&[60, 25, 15]);
        let q = WeightedQuorum::for_total(powers.iter().sum()).unwrap();
        let mut votes = WeightedVoteSet::default();
        votes.vote(0, &powers);
        assert!(!q.reaches_quorum(votes.power()));
        votes.vote(2, &powers);
        assert!(q.reaches_quorum(votes.power()));
    }

    #[test]
    fn tolerates_is_the_paper_condition() {
        let q = WeightedQuorum::for_total(VotingPower::new(1_000)).unwrap();
        assert!(q.tolerates(VotingPower::new(333)));
        assert!(!q.tolerates(VotingPower::new(334)));
        assert_eq!(q.total(), VotingPower::new(1_000));
    }
}
