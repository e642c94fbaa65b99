//! Integration: attested registry → candidates → committee policies →
//! diversity/resilience comparison, across `fi-attest`, `fi-committee`,
//! `fi-entropy`, `fi-nakamoto`.

use fault_independence::fi_attest::TwoTierWeights;
use fault_independence::fi_committee::prelude::*;
use fault_independence::fi_config::prelude::{
    catalog, Assignment, Component, ComponentSelector, ConfigurationSpace, Severity, Vulnerability,
};
use fault_independence::fi_nakamoto::attack::double_spend_success_probability;
use fault_independence::fi_types::{ReplicaId, VotingPower, VulnId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A candidate pool shaped like a real permissionless system: power-law
/// stake, clustered configurations, partial attestation.
fn realistic_pool(n: u64, seed_shift: u64) -> Vec<Candidate> {
    (0..n)
        .map(|i| {
            let power = VotingPower::new(10_000 / (i + 1) + 10);
            let config = match i {
                0..=9 => (i % 2) as usize,                // whales on 2 stacks
                _ => 2 + ((i + seed_shift) % 8) as usize, // tail spread over 8
            };
            Candidate::new(ReplicaId::new(i), power, config, i % 4 != 3)
        })
        .collect()
}

#[test]
fn diverse_policies_dominate_stake_policies_on_entropy() {
    let pool = realistic_pool(50, 0);
    let k = 12;
    let stake = top_stake(&pool, k);
    let greedy = greedy_diverse(&pool, k);
    let capped = proportional_cap(&pool, k, 0.25);

    assert!(greedy.entropy_bits() > stake.entropy_bits());
    assert!(capped.entropy_bits() > stake.entropy_bits());
    assert!(greedy.worst_config_share() < stake.worst_config_share());
}

#[test]
fn committee_worst_share_bounds_double_spend_exposure() {
    // Treat the committee's worst configuration share as the power one
    // zero-day captures; compare policies through the double-spend lens.
    let pool = realistic_pool(50, 1);
    let k = 12;
    let stake_q = top_stake(&pool, k).worst_config_share();
    let greedy_q = greedy_diverse(&pool, k).worst_config_share();
    let p_stake = double_spend_success_probability(stake_q.min(0.999), 6);
    let p_greedy = double_spend_success_probability(greedy_q.min(0.999), 6);
    assert!(
        p_greedy < p_stake,
        "greedy {greedy_q} -> {p_greedy} vs stake {stake_q} -> {p_stake}"
    );
}

#[test]
fn two_tier_lottery_raises_attested_share_without_killing_entropy() {
    // A single lottery draw can go either way, so compare the two policies
    // in expectation over a fixed batch of seeds: down-weighting unattested
    // candidates 5x must raise the mean attested share without collapsing
    // mean entropy.
    let pool = realistic_pool(60, 2);
    let k = 15;
    const SEEDS: u64 = 32;
    let (mut flat_attested, mut flat_entropy) = (0.0f64, 0.0f64);
    let (mut tiered_attested, mut tiered_entropy) = (0.0f64, 0.0f64);
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let flat = random_weighted(&pool, k, &mut rng);
        flat_attested += flat.attested_share();
        flat_entropy += flat.entropy_bits();
        let mut rng = StdRng::seed_from_u64(seed);
        let tiered = two_tier_weighted(&pool, k, TwoTierWeights::new(1.0, 0.2), &mut rng);
        tiered_attested += tiered.attested_share();
        tiered_entropy += tiered.entropy_bits();
    }
    let n = SEEDS as f64;
    assert!(
        tiered_attested / n >= flat_attested / n,
        "mean attested share: tiered {} < flat {}",
        tiered_attested / n,
        flat_attested / n
    );
    // Entropy does not collapse (within a bit of the flat policy, on
    // average).
    assert!(tiered_entropy / n > flat_entropy / n - 1.0);
}

#[test]
fn policies_are_stable_across_pool_orderings() {
    // Shuffling candidate input order must not change deterministic
    // policies' committees (selection is by value, not by index).
    let pool = realistic_pool(30, 0);
    let mut reversed = pool.clone();
    reversed.reverse();
    let a = top_stake(&pool, 10);
    let b = top_stake(&reversed, 10);
    assert_eq!(a.total_power(), b.total_power());
    let ga = greedy_diverse(&pool, 10);
    let gb = greedy_diverse(&reversed, 10);
    assert_eq!(ga.total_power(), gb.total_power());
    assert!((ga.entropy_bits() - gb.entropy_bits()).abs() < 1e-9);
}

#[test]
fn committee_is_a_valid_voting_power_snapshot() {
    // The committee's total power is the n_t of the inner consensus
    // (paper §II-A); check the bridge into quorum arithmetic.
    let pool = realistic_pool(40, 4);
    let committee = greedy_diverse(&pool, 13);
    assert_eq!(committee.len(), 13);
    let params = fault_independence::fi_bft::QuorumParams::for_n(committee.len()).unwrap();
    assert_eq!(params.n(), 13);
    assert_eq!(params.f(), 4);
    // A single configuration must not cover a quorum of seats for the
    // committee to tolerate one correlated fault; greedy achieves that
    // here.
    let seats_worst_config = committee
        .members()
        .iter()
        .filter(|m| {
            m.config()
                == committee
                    .power_by_config()
                    .iter()
                    .max_by_key(|&&(_, p)| p)
                    .unwrap()
                    .0
        })
        .count();
    assert!(seats_worst_config <= params.f(), "{seats_worst_config}");
}

// Cells no experiment table sweeps: Zipf and monoculture spreads, the
// top-stake policy under a zero-day, and a zero-day in the crypto-library
// layer. The verdict is the BFT budget: a zero-day must reach under a
// third of the committee's power.

/// Candidates on `spread`'s configurations, with stake drawn in
/// `10..1000` from a stream seeded apart from the spread's own.
fn staked(spread: &Assignment, seed: u64) -> Vec<Candidate> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    spread
        .entries()
        .iter()
        .map(|e| {
            Candidate::new(
                e.replica,
                VotingPower::new(rng.gen_range(10..1_000)),
                e.config,
                true,
            )
        })
        .collect()
}

/// Whether a zero-day in `product` reaches under a third of `members`'
/// power.
fn within_a_third(members: &[Candidate], space: &ConfigurationSpace, product: &Component) -> bool {
    let vuln = Vulnerability::new(
        VulnId::new(0),
        "zero-day",
        ComponentSelector::product(product.kind(), product.name()),
        Severity::Critical,
    );
    let total: u64 = members.iter().map(|m| m.power().as_units()).sum();
    let reached: u64 = members
        .iter()
        .filter(|m| vuln.affects(space.get(m.config()).unwrap()))
        .map(|m| m.power().as_units())
        .sum();
    3 * reached < total
}

fn os_space(oses: usize) -> ConfigurationSpace {
    ConfigurationSpace::cartesian(&[catalog::operating_systems()[..oses].to_vec()]).unwrap()
}

/// On a Zipf-skewed pool a zero-day in the most popular OS reaches more
/// than a third of the stake. Greedy selection keeps an 8-seat committee
/// under a third; picking by stake does not.
#[test]
fn greedy_keeps_a_skewed_pool_within_budget_and_top_stake_does_not() {
    let space = os_space(4);
    let mut rng = StdRng::seed_from_u64(301);
    let spread = Assignment::zipf(&space, 32, VotingPower::new(100), 1.2, &mut rng).unwrap();
    let pool = staked(&spread, 301);
    let os = &catalog::operating_systems()[0];
    assert!(!within_a_third(&pool, &space, os));
    assert!(within_a_third(
        greedy_diverse(&pool, 8).members(),
        &space,
        os
    ));
    assert!(!within_a_third(top_stake(&pool, 8).members(), &space, os));
}

/// Round-robin over eight OSes: a greedy 12-seat committee keeps any one
/// OS under a third.
#[test]
fn greedy_keeps_a_balanced_pool_within_budget() {
    let space = os_space(8);
    let spread = Assignment::round_robin(&space, 48, VotingPower::new(100)).unwrap();
    let committee = greedy_diverse(&staked(&spread, 304), 12);
    assert!(within_a_third(
        committee.members(),
        &space,
        &catalog::operating_systems()[0]
    ));
}

/// No policy diversifies a monoculture: every seat of a greedy 4-seat
/// committee runs the vulnerable OS.
#[test]
fn selection_cannot_save_a_monoculture() {
    let space = os_space(4);
    let spread = Assignment::monoculture(&space, 0, 16, VotingPower::new(100)).unwrap();
    let committee = greedy_diverse(&staked(&spread, 302), 4);
    assert_eq!(committee.entropy_bits(), 0.0);
    assert!(!within_a_third(
        committee.members(),
        &space,
        &catalog::operating_systems()[0]
    ));
}

/// A greedy 16-seat committee spans all four OS × crypto configurations,
/// yet a zero-day in one crypto library reaches two of them: distinct
/// configurations are not independent components.
#[test]
fn crypto_zero_day_defeats_a_greedy_committee() {
    let space = ConfigurationSpace::cartesian(&[
        catalog::operating_systems()[..2].to_vec(),
        catalog::crypto_libraries()[..2].to_vec(),
    ])
    .unwrap();
    let mut rng = StdRng::seed_from_u64(303);
    let spread = Assignment::zipf(&space, 64, VotingPower::new(100), 0.8, &mut rng).unwrap();
    let committee = greedy_diverse(&staked(&spread, 303), 16);
    assert_eq!(committee.power_by_config().len(), space.len());
    assert!(!within_a_third(
        committee.members(),
        &space,
        &catalog::crypto_libraries()[0]
    ));
}
