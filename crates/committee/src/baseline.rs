//! The baseline selection policy: top stake.

use crate::candidate::{Candidate, Committee};

/// Selects the `k` highest-stake candidates (ties broken by replica id for
/// determinism). This is what pure stake ordering — and delegation toward
/// big operators — converges to: the paper's oligopoly.
#[must_use]
pub fn top_stake(candidates: &[Candidate], k: usize) -> Committee {
    let mut sorted: Vec<Candidate> = candidates.to_vec();
    sorted.sort_by(|a, b| {
        b.power()
            .cmp(&a.power())
            .then_with(|| a.replica().cmp(&b.replica()))
    });
    sorted.truncate(k);
    Committee::new(sorted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_types::{ReplicaId, VotingPower};

    fn skewed(n: u64) -> Vec<Candidate> {
        (0..n)
            .map(|i| {
                Candidate::new(
                    ReplicaId::new(i),
                    VotingPower::new(if i == 0 { 1_000 } else { 10 }),
                    i as usize % 4,
                    true,
                )
            })
            .collect()
    }

    #[test]
    fn top_stake_takes_biggest() {
        let committee = top_stake(&skewed(10), 3);
        assert_eq!(committee.len(), 3);
        assert_eq!(committee.members()[0].replica(), ReplicaId::new(0));
        // Deterministic tie-break on the equal-stake tail.
        assert_eq!(committee.members()[1].replica(), ReplicaId::new(1));
        assert_eq!(committee.members()[2].replica(), ReplicaId::new(2));
    }

    #[test]
    fn top_stake_with_k_exceeding_pool() {
        let committee = top_stake(&skewed(3), 10);
        assert_eq!(committee.len(), 3);
    }
}
