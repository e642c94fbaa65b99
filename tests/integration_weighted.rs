//! Integration: committee selection → weighted quorums → the paper's
//! voting-power safety condition, across `fi-committee`, `fi-bft`,
//! `fi-entropy`.

use fault_independence::fi_bft::weighted::{WeightedQuorum, WeightedVoteSet};
use fault_independence::fi_committee::prelude::*;
use fault_independence::fi_types::{ReplicaId, VotingPower};

fn skewed_pool() -> Vec<Candidate> {
    (0..30u64)
        .map(|i| {
            Candidate::new(
                ReplicaId::new(i),
                VotingPower::new(3_000 / (i + 1) + 5),
                (i % 5) as usize,
                true,
            )
        })
        .collect()
}

fn powers_of(committee: &Committee) -> Vec<VotingPower> {
    committee.members().iter().map(Candidate::power).collect()
}

#[test]
fn committee_power_drives_weighted_quorums() {
    let committee = top_stake(&skewed_pool(), 10);
    let quorum = WeightedQuorum::for_total(committee.total_power()).unwrap();
    // The paper's condition in power units: one compromised configuration
    // must stay within f_power.
    let worst_config_power = committee
        .power_by_config()
        .iter()
        .map(|&(_, p)| p)
        .max()
        .unwrap();
    // Top-stake concentrates: the worst configuration exceeds what the
    // weighted quorum tolerates.
    assert!(
        !quorum.tolerates(worst_config_power),
        "top-stake committee should be fragile: worst {worst_config_power} vs f {}",
        quorum.f_power()
    );

    // The greedy-diverse committee of the same size is tolerable (or at
    // least strictly better).
    let diverse = greedy_diverse(&skewed_pool(), 10);
    let dq = WeightedQuorum::for_total(diverse.total_power()).unwrap();
    let diverse_worst = diverse
        .power_by_config()
        .iter()
        .map(|&(_, p)| p)
        .max()
        .unwrap();
    let stake_ratio = worst_config_power.share_of(committee.total_power());
    let diverse_ratio = diverse_worst.share_of(diverse.total_power());
    assert!(
        diverse_ratio < stake_ratio,
        "diverse {diverse_ratio} !< stake {stake_ratio}"
    );
    let _ = dq;
}

#[test]
fn weighted_votes_from_a_compromised_configuration_cannot_commit_alone() {
    let committee = greedy_diverse(&skewed_pool(), 12);
    let powers = powers_of(&committee);
    let quorum = WeightedQuorum::for_total(committee.total_power()).unwrap();
    let mut votes = WeightedVoteSet::default();
    // Every member of the single most powerful configuration votes...
    let worst_config = committee
        .power_by_config()
        .iter()
        .max_by_key(|&&(_, p)| p)
        .unwrap()
        .0;
    for (i, member) in committee.members().iter().enumerate() {
        if member.config() == worst_config {
            assert!(votes.vote(i, &powers));
        }
    }
    // ...and cannot reach the weighted quorum by itself.
    assert!(
        !quorum.reaches_quorum(votes.power()),
        "one configuration reached quorum: {} of {}",
        votes.power(),
        quorum.quorum_power()
    );
    // Adding the rest of the committee completes it.
    for i in 0..powers.len() {
        votes.vote(i, &powers);
    }
    assert!(quorum.reaches_quorum(votes.power()));
}

#[test]
fn weighted_and_count_quorums_agree_on_equal_weights() {
    // n members of p units each: the power rule's thresholds, counted in
    // members, are the head-count ones — quorum n − ⌊(n − 1)/3⌋, and
    // ⌊(n − 1)/3⌋ + 1 members to carry more than f power. This is why
    // every table run at equal power reads the same under either rule.
    for n in 4u64..200 {
        let f = (n - 1) / 3;
        for p in [1u64, 2, 3, 7, 100, 999] {
            let q = WeightedQuorum::for_total(VotingPower::new(n * p)).unwrap();
            let members = |k: u64| VotingPower::new(k * p);
            assert!(q.reaches_quorum(members(n - f)), "n = {n}, p = {p}");
            assert!(!q.reaches_quorum(members(n - f - 1)), "n = {n}, p = {p}");
            assert!(!q.tolerates(members(f + 1)), "n = {n}, p = {p}");
            assert!(q.tolerates(members(f)), "n = {n}, p = {p}");
        }
    }
}
