//! The workspace's one quorum rule over voting power, and the tally that
//! counts votes against it.
//!
//! Quorums are power sums, not head counts (paper §II-A).
//! [`WeightedQuorum`] tolerates `f = ⌊(total − 1)/3⌋` units and sets the
//! quorum at `total − f`; it lives in `fi-types` so committee selection
//! checks the same `f`, and is re-exported here. A [`WeightedVoteSet`]
//! tallies a vote's power, each voter once. The simulated PBFT replicas
//! and clients count every vote through these two. At equal power per
//! member the rule gives the head-count thresholds.

use std::collections::BTreeSet;

use fi_types::VotingPower;

/// Quorum arithmetic over voting power, re-exported from `fi-types`.
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
pub use fi_types::WeightedQuorum;

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
