//! Mining pools and delegation (paper §III-A).
//!
//! "Mining pool operators in Bitcoin attract and manage the mining power of
//! distributed participants, leading to an oligopoly." A pool is the unit of
//! *software* correlation: every member's hash power flows through the pool
//! operator's stack, so one vulnerability in (or one malicious decision by)
//! the operator redirects the pool's entire share.

use fi_entropy::bitcoin;
use fi_types::{PoolId, VotingPower};

/// A mining pool: aggregate power under one operator configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pool {
    id: PoolId,
    name: String,
    power: VotingPower,
    /// Index of the operator's software configuration (in whatever
    /// configuration space the experiment uses). Pools sharing a
    /// configuration index fall to the same exploit.
    config: usize,
}

impl Pool {
    /// Creates a pool.
    #[must_use]
    pub fn new(id: PoolId, name: impl Into<String>, power: VotingPower, config: usize) -> Self {
        Pool {
            id,
            name: name.into(),
            power,
            config,
        }
    }

    /// Pool id.
    #[must_use]
    pub fn id(&self) -> PoolId {
        self.id
    }

    /// Pool name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Aggregate hash power.
    #[must_use]
    pub fn power(&self) -> VotingPower {
        self.power
    }

    /// Operator configuration index.
    #[must_use]
    pub fn config(&self) -> usize {
        self.config
    }
}

/// The Example-1 top-17 Bitcoin pools (2023-02-02) in milli-percent hash
/// power units, each with a unique operator configuration (the paper's
/// *best-case* diversity assumption). Pool 0 is Foundry USA at 34.239%.
#[must_use]
pub fn bitcoin_pools_2023() -> Vec<Pool> {
    let names = [
        "foundry-usa",
        "antpool",
        "f2pool",
        "binance-pool",
        "viabtc",
        "btc-com",
        "poolin",
        "luxor",
        "mara-pool",
        "sbi-crypto",
        "braiins",
        "ultimus",
        "pega-pool",
        "kucoin",
        "emcd",
        "okminer",
        "terra-pool",
    ];
    bitcoin::top17_units()
        .iter()
        .zip(names.iter())
        .enumerate()
        .map(|(i, (&units, name))| {
            Pool::new(PoolId::new(i as u64), *name, VotingPower::new(units), i)
        })
        .collect()
}

/// Total power of a pool set.
#[must_use]
pub fn total_power(pools: &[Pool]) -> VotingPower {
    pools.iter().map(Pool::power).sum()
}

/// The share of total power controlled if every pool whose configuration
/// index is in `compromised_configs` falls to one exploit — the bridge from
/// the vulnerability model to the attack analyses.
#[must_use]
pub fn compromised_share(pools: &[Pool], compromised_configs: &[usize], total: VotingPower) -> f64 {
    let captured: VotingPower = pools
        .iter()
        .filter(|p| compromised_configs.contains(&p.config()))
        .map(Pool::power)
        .sum();
    captured.share_of(total)
}

/// De-delegation: replaces each pool by `members` equal solo miners with
/// independent configurations, preserving total power (the decentralised
/// counterfactual of experiment E7; cf. SmartPool/non-outsourceable
/// puzzles, paper refs \[29\]–\[31\]).
#[must_use]
pub fn dedelegate(pools: &[Pool], members_per_pool: usize, next_config: usize) -> Vec<Pool> {
    let mut out = Vec::new();
    let mut config = next_config;
    let mut id = 0u64;
    for pool in pools {
        for (m, chunk) in pool
            .power()
            .split_even(members_per_pool.max(1))
            .into_iter()
            .enumerate()
        {
            out.push(Pool::new(
                PoolId::new(id),
                format!("{}-member-{m}", pool.name()),
                chunk,
                config,
            ));
            id += 1;
            config += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example1_pools_match_paper() {
        let pools = bitcoin_pools_2023();
        assert_eq!(pools.len(), 17);
        assert_eq!(pools[0].name(), "foundry-usa");
        assert_eq!(pools[0].power(), VotingPower::new(34_239));
        assert_eq!(pools[16].power(), VotingPower::new(100));
        // 99.145% of the network.
        assert_eq!(total_power(&pools), VotingPower::new(99_145));
        // Unique configurations (best-case assumption).
        let mut configs: Vec<usize> = pools.iter().map(Pool::config).collect();
        configs.sort_unstable();
        configs.dedup();
        assert_eq!(configs.len(), 17);
    }

    #[test]
    fn compromised_share_of_top_pool() {
        let pools = bitcoin_pools_2023();
        let total = VotingPower::new(100_000); // whole network
        let share = compromised_share(&pools, &[0], total);
        assert!((share - 0.34239).abs() < 1e-9);
        // Top-3 compromise crosses 50% + the paper's oligopoly warning.
        let share3 = compromised_share(&pools, &[0, 1, 2], total);
        assert!((share3 - 0.67217).abs() < 1e-9);
        assert!(share3 > 0.5);
    }

    #[test]
    fn compromised_share_empty_is_zero() {
        let pools = bitcoin_pools_2023();
        assert_eq!(
            compromised_share(&pools, &[], VotingPower::new(100_000)),
            0.0
        );
    }

    #[test]
    fn dedelegate_preserves_power_and_diversifies() {
        let pools = bitcoin_pools_2023();
        let solo = dedelegate(&pools, 10, 100);
        assert_eq!(solo.len(), 170);
        assert_eq!(total_power(&solo), total_power(&pools));
        // All configurations unique.
        let mut configs: Vec<usize> = solo.iter().map(Pool::config).collect();
        configs.sort_unstable();
        configs.dedup();
        assert_eq!(configs.len(), 170);
        // One exploit now captures a tenth of the old head at most.
        let worst = compromised_share(&solo, &[100], VotingPower::new(100_000));
        assert!(worst < 0.035);
    }

    #[test]
    fn dedelegate_handles_zero_members() {
        let pools = bitcoin_pools_2023();
        let solo = dedelegate(&pools[..1], 0, 0);
        assert_eq!(solo.len(), 1);
        assert_eq!(solo[0].power(), pools[0].power());
    }
}
