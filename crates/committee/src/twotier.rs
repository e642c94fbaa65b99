//! Two-tier attested-weighted sortition (paper §V).
//!
//! "Having two types of replicas (potentially with different voting
//! right/weight), one supporting configuration attestation and one does
//! not, will help to improve blockchain resilience." Attested candidates'
//! stake is multiplied by the attested weight in the sortition, unattested
//! by the (lower) unattested weight — so provable diversity earns selection
//! probability.

use fi_attest::TwoTierWeights;
use fi_types::VotingPower;
use rand::rngs::StdRng;
use rand::Rng;

use crate::candidate::{Candidate, Committee};

/// Stake-weighted sortition without replacement where each candidate's
/// ticket is `stake × tier-weight`. At [`TwoTierWeights::flat`] every
/// ticket is the candidate's stake: the classic permissionless lottery.
///
/// # Panics
///
/// Panics if the tickets' total overflows `u64`.
#[must_use]
pub fn two_tier_weighted(
    candidates: &[Candidate],
    k: usize,
    weights: TwoTierWeights,
    rng: &mut StdRng,
) -> Committee {
    let mut pool: Vec<(Candidate, VotingPower)> = candidates
        .iter()
        .filter_map(|c| {
            let w = if c.attested() {
                weights.attested()
            } else {
                weights.unattested()
            };
            let ticket = c.power().scaled(w);
            (!ticket.is_zero()).then_some((*c, ticket))
        })
        .collect();

    let mut members = Vec::with_capacity(k.min(pool.len()));
    // The ticket total shrinks by exactly the removed ticket each draw, so
    // maintain it incrementally instead of re-summing the pool per round.
    let mut total: VotingPower = pool.iter().map(|&(_, t)| t).sum();
    while members.len() < k && !pool.is_empty() {
        let mut target = rng.gen_range(0..total.as_units());
        let mut chosen = pool.len() - 1;
        for (i, &(_, ticket)) in pool.iter().enumerate() {
            let units = ticket.as_units();
            if target < units {
                chosen = i;
                break;
            }
            target -= units;
        }
        let (member, ticket) = pool.swap_remove(chosen);
        total -= ticket;
        members.push(member);
    }
    Committee::new(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_types::ReplicaId;
    use rand::SeedableRng;

    fn mixed_pool() -> Vec<Candidate> {
        // Equal stakes: 10 attested (configs 0-9), 10 unattested.
        (0..20u64)
            .map(|i| Candidate::new(ReplicaId::new(i), VotingPower::new(100), i as usize, i < 10))
            .collect()
    }

    #[test]
    fn attested_weighting_raises_attested_share() {
        let candidates = mixed_pool();
        let mut attested_flat = 0usize;
        let mut attested_tiered = 0usize;
        for seed in 0..100 {
            let mut rng = StdRng::seed_from_u64(seed);
            let flat = two_tier_weighted(&candidates, 8, TwoTierWeights::flat(), &mut rng);
            attested_flat += flat.members().iter().filter(|c| c.attested()).count();
            let mut rng = StdRng::seed_from_u64(seed);
            let tiered = two_tier_weighted(&candidates, 8, TwoTierWeights::new(1.0, 0.2), &mut rng);
            attested_tiered += tiered.members().iter().filter(|c| c.attested()).count();
        }
        assert!(
            attested_tiered > attested_flat + 80,
            "tiered {attested_tiered} vs flat {attested_flat}"
        );
    }

    #[test]
    fn zero_unattested_weight_excludes_them() {
        let candidates = mixed_pool();
        let mut rng = StdRng::seed_from_u64(5);
        let committee = two_tier_weighted(&candidates, 10, TwoTierWeights::new(1.0, 0.0), &mut rng);
        assert_eq!(committee.len(), 10);
        assert!(committee.members().iter().all(Candidate::attested));
        assert_eq!(committee.attested_share(), 1.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let candidates = mixed_pool();
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        assert_eq!(
            two_tier_weighted(&candidates, 5, TwoTierWeights::default(), &mut a),
            two_tier_weighted(&candidates, 5, TwoTierWeights::default(), &mut b)
        );
    }

    #[test]
    fn no_duplicate_members() {
        let candidates = mixed_pool();
        let mut rng = StdRng::seed_from_u64(11);
        let committee = two_tier_weighted(&candidates, 15, TwoTierWeights::default(), &mut rng);
        let mut ids: Vec<_> = committee.members().iter().map(|c| c.replica()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), committee.len());
    }

    #[test]
    fn empty_pool_yields_empty_committee() {
        let mut rng = StdRng::seed_from_u64(0);
        let committee = two_tier_weighted(&[], 5, TwoTierWeights::default(), &mut rng);
        assert!(committee.is_empty());
    }

    /// Stake-skewed, all attested: candidate 0 holds 1 000, the rest 10.
    fn skewed(n: u64) -> Vec<Candidate> {
        (0..n)
            .map(|i| {
                let power = VotingPower::new(if i == 0 { 1_000 } else { 10 });
                Candidate::new(ReplicaId::new(i), power, i as usize % 4, true)
            })
            .collect()
    }

    #[test]
    fn flat_is_deterministic_per_seed() {
        let candidates = skewed(20);
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        assert_eq!(
            two_tier_weighted(&candidates, 5, TwoTierWeights::flat(), &mut a),
            two_tier_weighted(&candidates, 5, TwoTierWeights::flat(), &mut b)
        );
    }

    #[test]
    fn flat_has_no_duplicates() {
        let candidates = skewed(20);
        let mut rng = StdRng::seed_from_u64(2);
        let committee = two_tier_weighted(&candidates, 10, TwoTierWeights::flat(), &mut rng);
        let mut ids: Vec<_> = committee.members().iter().map(|c| c.replica()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 10);
    }

    #[test]
    fn flat_favors_stake() {
        // The whale (candidate 0) should be selected in nearly every draw.
        let candidates = skewed(10);
        let mut hits = 0;
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let committee = two_tier_weighted(&candidates, 3, TwoTierWeights::flat(), &mut rng);
            if committee
                .members()
                .iter()
                .any(|c| c.replica() == ReplicaId::new(0))
            {
                hits += 1;
            }
        }
        assert!(hits > 190, "whale selected only {hits}/200 times");
    }

    #[test]
    fn flat_skips_zero_power() {
        let mut candidates = skewed(5);
        candidates.push(Candidate::new(
            ReplicaId::new(99),
            VotingPower::ZERO,
            0,
            true,
        ));
        let mut rng = StdRng::seed_from_u64(3);
        let committee = two_tier_weighted(&candidates, 6, TwoTierWeights::flat(), &mut rng);
        assert!(committee
            .members()
            .iter()
            .all(|c| c.replica() != ReplicaId::new(99)));
        assert_eq!(committee.len(), 5);
    }

    #[test]
    #[should_panic(expected = "voting power addition overflowed")]
    fn ticket_total_overflow_panics() {
        // Both powers are exact in f64, so each flat ticket is its power;
        // a wrapping total of 2 048 would hand candidate 0 every draw.
        let candidates = [
            Candidate::new(ReplicaId::new(0), VotingPower::new(1 << 63), 0, true),
            Candidate::new(
                ReplicaId::new(1),
                VotingPower::new((1 << 63) + (1 << 11)),
                0,
                true,
            ),
        ];
        let mut rng = StdRng::seed_from_u64(0);
        let _ = two_tier_weighted(&candidates, 1, TwoTierWeights::flat(), &mut rng);
    }
}
