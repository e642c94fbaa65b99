//! Integration: Bitcoin pool data → compromised share → double-spend and
//! chain-race outcomes, across `fi-entropy`, `fi-nakamoto`.

use fault_independence::fi_config::prelude::{
    catalog, Assignment, ComponentSelector, ConfigurationSpace, Severity, Vulnerability,
};
use fault_independence::fi_entropy::bitcoin;
use fault_independence::fi_nakamoto::attack::{
    double_spend_success_probability, monte_carlo_double_spend,
};
use fault_independence::fi_nakamoto::pool::{
    bitcoin_pools_2023, compromised_share, dedelegate, total_power,
};
use fault_independence::fi_nakamoto::sim::{run_honest_race, MiningSimConfig};
use fault_independence::fi_nakamoto::{Miner, MinerStrategy, MiningSim, Pool};
use fault_independence::fi_types::{PoolId, SimTime, VotingPower, VulnId};

const NETWORK: VotingPower = VotingPower::new(100_000);

#[test]
fn pool_shares_match_example1_distribution() {
    let pools = bitcoin_pools_2023();
    let dist = bitcoin::example1_distribution();
    for (pool, &p) in pools.iter().zip(dist.probabilities()) {
        let share = pool.power().as_units() as f64 / 99_145.0;
        assert!((share - p).abs() < 1e-9, "{}", pool.name());
    }
}

#[test]
fn top_pool_compromise_breaks_six_confirmation_security() {
    let pools = bitcoin_pools_2023();
    // Foundry USA alone: 34.2% — double spends become practical.
    let q1 = compromised_share(&pools, &[0], NETWORK);
    let p1 = double_spend_success_probability(q1, 6);
    assert!(p1 > 0.2, "q = {q1}, P = {p1}");
    // Top two: > 50% — guaranteed.
    let q2 = compromised_share(&pools, &[0, 1], NETWORK);
    assert!(q2 > 0.5);
    assert_eq!(double_spend_success_probability(q2, 6), 1.0);
    // Smallest pool: negligible.
    let q17 = compromised_share(&pools, &[16], NETWORK);
    assert!(double_spend_success_probability(q17, 6) < 1e-10);
}

#[test]
fn dedelegation_restores_security() {
    let pools = bitcoin_pools_2023();
    let solo = dedelegate(&pools, 10, 1_000);
    // The worst single stack after de-delegation is a tenth of Foundry.
    let worst = solo
        .iter()
        .map(|p| compromised_share(&solo, &[p.config()], NETWORK))
        .fold(0.0, f64::max);
    assert!(worst < 0.05);
    // Foundry intact: P(z=6) ≈ 0.3; after splitting each pool ten ways the
    // worst single stack (~3.4%) is five orders of magnitude safer.
    assert!(double_spend_success_probability(worst, 6) < 1e-4);
    assert!(
        double_spend_success_probability(worst, 6)
            < double_spend_success_probability(0.34239, 6) / 10_000.0
    );
}

#[test]
fn monte_carlo_agrees_with_analytic_at_pool_scales() {
    let pools = bitcoin_pools_2023();
    let q = compromised_share(&pools, &[4], NETWORK); // ViaBTC, 8.8%
    let analytic = double_spend_success_probability(q, 3);
    let mc = monte_carlo_double_spend(q, 3, 40_000, 123);
    assert!(
        (analytic - mc).abs() < 0.01,
        "analytic {analytic} vs mc {mc}"
    );
}

#[test]
fn mining_race_revenue_follows_example1_shares() {
    let pools = bitcoin_pools_2023();
    let powers: Vec<VotingPower> = pools.iter().map(|p| p.power()).collect();
    let config = MiningSimConfig {
        block_interval: SimTime::from_secs(600),
        propagation_delay: SimTime::ZERO,
        blocks: 20_000,
    };
    let report = run_honest_race(&powers, config, 77);
    assert_eq!(report.main_chain_height, 20_000);
    // Foundry's share of main-chain blocks ~ its power share (34.5% of the
    // pool-only total).
    let foundry = report.blocks_by_miner[0] as f64 / 20_000.0;
    let expected = 34_239.0 / 99_145.0;
    assert!((foundry - expected).abs() < 0.02, "foundry mined {foundry}");
}

#[test]
fn compromised_majority_rewrites_history_in_the_race_sim() {
    // One exploit flips the top-2 pools to a private branch: 54.2% of power
    // mines against the rest.
    let pools = bitcoin_pools_2023();
    let mut miners: Vec<Miner> = pools
        .iter()
        .enumerate()
        .map(|(i, p)| Miner::new(i, p.power()))
        .collect();
    miners[0].set_strategy(MinerStrategy::PrivateBranch);
    miners[1].set_strategy(MinerStrategy::PrivateBranch);
    let config = MiningSimConfig {
        block_interval: SimTime::from_secs(600),
        propagation_delay: SimTime::ZERO,
        blocks: 4_000,
    };
    let report = MiningSim::new(miners, config, 5).run();
    assert!(report.attacker_ahead, "{report:?}");
}

#[test]
fn minority_compromise_fails_the_race() {
    let pools = bitcoin_pools_2023();
    let mut miners: Vec<Miner> = pools
        .iter()
        .enumerate()
        .map(|(i, p)| Miner::new(i, p.power()))
        .collect();
    // Only pool #5 (2.6%) compromised.
    miners[5].set_strategy(MinerStrategy::PrivateBranch);
    let config = MiningSimConfig {
        block_interval: SimTime::from_secs(600),
        propagation_delay: SimTime::ZERO,
        blocks: 4_000,
    };
    let report = MiningSim::new(miners, config, 6).run();
    assert!(!report.attacker_ahead, "{report:?}");
}

/// Eight pools on one OS: a zero-day in it captures all the hash power,
/// past the honest-majority budget, and the captured branch outruns an
/// honest side with nothing left to mine.
#[test]
fn monoculture_zero_day_captures_the_whole_network() {
    let space =
        ConfigurationSpace::cartesian(&[catalog::operating_systems()[..4].to_vec()]).unwrap();
    let mono = Assignment::monoculture(&space, 0, 8, VotingPower::new(100)).unwrap();
    let os = &catalog::operating_systems()[0];
    let vuln = Vulnerability::new(
        VulnId::new(0),
        "zero-day-os",
        ComponentSelector::product(os.kind(), os.name()),
        Severity::Critical,
    );
    let pools: Vec<Pool> = mono
        .entries()
        .iter()
        .map(|e| Pool::new(PoolId::new(e.replica.as_u64()), "pool", e.power, e.config))
        .collect();
    let captured: Vec<usize> = (0..space.len())
        .filter(|&c| vuln.affects(space.get(c).unwrap()))
        .collect();
    let q = compromised_share(&pools, &captured, total_power(&pools));
    assert!(q > 0.5, "q = {q} is within the honest-majority budget");

    let (taken, honest): (Vec<&Pool>, Vec<&Pool>) =
        pools.iter().partition(|p| captured.contains(&p.config()));
    let mut miners: Vec<Miner> = honest
        .iter()
        .enumerate()
        .map(|(i, p)| Miner::new(i, p.power()))
        .collect();
    let taken_units = taken.iter().map(|p| p.power().as_units()).sum();
    let mut attacker = Miner::new(miners.len(), VotingPower::new(taken_units));
    attacker.set_strategy(MinerStrategy::PrivateBranch);
    miners.push(attacker);
    let config = MiningSimConfig {
        block_interval: SimTime::from_secs(600),
        propagation_delay: SimTime::ZERO,
        blocks: 1_200,
    };
    let race = MiningSim::new(miners, config, 205).run();
    assert!(race.attacker_ahead, "{race:?}");
}
