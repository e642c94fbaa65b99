//! The mining race: exponential block arrivals, power-proportional winner
//! selection, propagation-delay forks, and an optional private-branch
//! attacker.

use fi_types::{SimTime, VotingPower};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::block::Block;
use crate::chain::BlockTree;
use crate::miner::{Miner, MinerStrategy};

/// Parameters of a mining simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiningSimConfig {
    /// Mean interval between blocks across the whole network (Bitcoin:
    /// 600 s).
    pub block_interval: SimTime,
    /// One-way propagation delay; a miner that finds a block within the
    /// delay of the previous (foreign) block mines on the stale parent,
    /// producing a natural fork.
    pub propagation_delay: SimTime,
    /// How many block-discovery events to simulate.
    pub blocks: u64,
}

impl Default for MiningSimConfig {
    /// Bitcoin-like: 600 s blocks, 5 s propagation, 1 000 blocks.
    fn default() -> Self {
        MiningSimConfig {
            block_interval: SimTime::from_secs(600),
            propagation_delay: SimTime::from_secs(5),
            blocks: 1_000,
        }
    }
}

/// What a run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct MiningSimReport {
    /// Height of the public main chain at the end.
    // lint: allow(unread-field) race claims: integration_nakamoto's mining_race_revenue_follows_example1_shares and nakamoto_properties' race_conservation read it
    pub main_chain_height: u64,
    /// Orphaned public blocks.
    // lint: allow(unread-field) race claim: nakamoto_properties' race_conservation counts every public block as main chain or orphan
    pub orphans: usize,
    /// Orphan fraction of all public blocks.
    // lint: allow(unread-field) race claim: nakamoto_properties' race_conservation bounds it to [0, 1]
    pub fork_rate: f64,
    /// Main-chain blocks per miner index.
    // lint: allow(unread-field) race claims: integration_nakamoto's mining_race_revenue_follows_example1_shares and nakamoto_properties' race_conservation read it
    pub blocks_by_miner: Vec<usize>,
    /// Whether the attacker's private branch ended longer than the public
    /// chain grew — a successful history rewrite.
    // lint: allow(unread-field) race claims: integration_nakamoto's compromised_majority_rewrites_history_in_the_race_sim, minority_compromise_fails_the_race and monoculture_zero_day_captures_the_whole_network read it
    pub attacker_ahead: bool,
}

/// An event-driven longest-chain mining simulation.
#[derive(Debug)]
pub struct MiningSim {
    miners: Vec<Miner>,
    config: MiningSimConfig,
    rng: StdRng,
}

impl MiningSim {
    /// Creates a simulation over `miners`.
    ///
    /// # Panics
    ///
    /// Panics if `miners` is empty.
    #[must_use]
    pub fn new(miners: Vec<Miner>, config: MiningSimConfig, seed: u64) -> Self {
        assert!(!miners.is_empty(), "at least one miner required");
        MiningSim {
            miners,
            config,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn total_effective_power(&self) -> u64 {
        self.miners
            .iter()
            .map(|m| m.effective_power().as_units())
            .sum()
    }

    fn sample_winner(&mut self) -> Option<usize> {
        let total = self.total_effective_power();
        if total == 0 {
            return None;
        }
        let mut target = self.rng.gen_range(0..total);
        for (i, m) in self.miners.iter().enumerate() {
            let units = m.effective_power().as_units();
            if target < units {
                return Some(i);
            }
            target -= units;
        }
        None
    }

    /// Runs the race to completion.
    #[must_use]
    pub fn run(mut self) -> MiningSimReport {
        let mut tree = BlockTree::new();
        let mut now = SimTime::ZERO;
        let mut salt = 0u64;
        // Private-branch bookkeeping.
        let mut private_len = 0u64;
        let attack_active = self
            .miners
            .iter()
            .any(|m| m.strategy() == MinerStrategy::PrivateBranch);

        // Last public block's (time, miner), for the stale-view rule.
        let mut last_block_time = SimTime::ZERO;
        let mut last_block_miner = usize::MAX;
        let mut last_tip_before: Option<Block> = None;

        let mean = self.config.block_interval.as_micros().max(1) as f64;
        for _ in 0..self.config.blocks {
            let Some(winner) = self.sample_winner() else {
                break;
            };
            let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
            let dt = SimTime::from_micros((-(u.ln()) * mean) as u64);
            now = now.saturating_add(dt);

            match self.miners[winner].strategy() {
                MinerStrategy::PrivateBranch => {
                    private_len += 1;
                }
                MinerStrategy::Honest => {
                    // Stale view: if the latest public block is foreign and
                    // arrived within the propagation delay, this miner has
                    // not seen it yet and mines on the previous tip.
                    let stale = last_block_miner != winner
                        && last_block_miner != usize::MAX
                        && now.saturating_sub(last_block_time) < self.config.propagation_delay;
                    let parent: Block = if stale {
                        last_tip_before.unwrap_or(*tree.tip())
                    } else {
                        *tree.tip()
                    };
                    let block = Block::mine(&parent, winner, now, salt);
                    salt += 1;
                    last_tip_before = Some(*tree.tip());
                    tree.insert(block);
                    last_block_time = now;
                    last_block_miner = winner;
                }
                MinerStrategy::Offline => unreachable!("offline miners have zero power"),
            }
        }

        let public_blocks = tree.len() - 1;
        let orphans = tree.orphans();
        let blocks_by_miner = tree.main_chain_blocks_per_miner(self.miners.len());
        MiningSimReport {
            main_chain_height: tree.height(),
            orphans,
            fork_rate: if public_blocks == 0 {
                0.0
            } else {
                orphans as f64 / public_blocks as f64
            },
            blocks_by_miner,
            attacker_ahead: attack_active && private_len > tree.height(),
        }
    }
}

/// Convenience: run a race with the given power shares (honest miners
/// only) and return the report.
///
/// # Panics
///
/// Panics if `powers` is empty.
#[must_use]
pub fn run_honest_race(
    powers: &[VotingPower],
    config: MiningSimConfig,
    seed: u64,
) -> MiningSimReport {
    let miners = powers
        .iter()
        .enumerate()
        .map(|(i, &p)| Miner::new(i, p))
        .collect();
    MiningSim::new(miners, config, seed).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn equal_miners(n: usize, power: u64) -> Vec<Miner> {
        (0..n)
            .map(|i| Miner::new(i, VotingPower::new(power)))
            .collect()
    }

    #[test]
    fn fork_free_with_zero_delay() {
        let config = MiningSimConfig {
            propagation_delay: SimTime::ZERO,
            blocks: 500,
            ..MiningSimConfig::default()
        };
        let report = MiningSim::new(equal_miners(5, 10), config, 1).run();
        assert_eq!(report.orphans, 0);
        assert_eq!(report.fork_rate, 0.0);
        assert_eq!(report.main_chain_height, 500);
    }

    #[test]
    fn forks_appear_with_large_delay() {
        let config = MiningSimConfig {
            block_interval: SimTime::from_secs(600),
            propagation_delay: SimTime::from_secs(300), // absurdly slow net
            blocks: 2_000,
        };
        let report = MiningSim::new(equal_miners(5, 10), config, 2).run();
        assert!(report.orphans > 0, "expected forks: {report:?}");
        assert!(report.fork_rate > 0.05);
        assert!(report.main_chain_height < 2_000);
    }

    #[test]
    fn fork_rate_grows_with_delay() {
        let rate = |delay_secs: u64| {
            let config = MiningSimConfig {
                block_interval: SimTime::from_secs(600),
                propagation_delay: SimTime::from_secs(delay_secs),
                blocks: 3_000,
            };
            MiningSim::new(equal_miners(8, 10), config, 3)
                .run()
                .fork_rate
        };
        assert!(rate(120) > rate(10));
    }

    #[test]
    fn revenue_tracks_power_share() {
        let mut powers: Vec<VotingPower> = vec![VotingPower::new(60)];
        powers.extend(std::iter::repeat_n(VotingPower::new(10), 4));
        let config = MiningSimConfig {
            propagation_delay: SimTime::ZERO,
            blocks: 5_000,
            ..MiningSimConfig::default()
        };
        let report = run_honest_race(&powers, config, 4);
        let share0 = report.blocks_by_miner[0] as f64 / report.main_chain_height as f64;
        assert!((share0 - 0.6).abs() < 0.05, "share was {share0}");
    }

    #[test]
    fn private_branch_race_majority_attacker_wins() {
        let mut miners = equal_miners(2, 10);
        miners[0] = Miner::new(0, VotingPower::new(60)); // 60% attacker
        miners[0].set_strategy(MinerStrategy::PrivateBranch);
        miners[1] = Miner::new(1, VotingPower::new(40));
        let config = MiningSimConfig {
            propagation_delay: SimTime::ZERO,
            blocks: 2_000,
            ..MiningSimConfig::default()
        };
        let report = MiningSim::new(miners, config, 5).run();
        assert!(report.attacker_ahead, "{report:?}");
    }

    #[test]
    fn private_branch_race_minority_attacker_loses() {
        let mut miners = equal_miners(2, 10);
        miners[0] = Miner::new(0, VotingPower::new(20));
        miners[0].set_strategy(MinerStrategy::PrivateBranch);
        miners[1] = Miner::new(1, VotingPower::new(80));
        let config = MiningSimConfig {
            propagation_delay: SimTime::ZERO,
            blocks: 2_000,
            ..MiningSimConfig::default()
        };
        let report = MiningSim::new(miners, config, 6).run();
        assert!(!report.attacker_ahead, "{report:?}");
    }

    #[test]
    fn offline_miners_mine_nothing() {
        let mut miners = equal_miners(3, 10);
        miners[2].set_strategy(MinerStrategy::Offline);
        let config = MiningSimConfig {
            propagation_delay: SimTime::ZERO,
            blocks: 300,
            ..MiningSimConfig::default()
        };
        let report = MiningSim::new(miners, config, 7).run();
        assert_eq!(report.blocks_by_miner[2], 0);
        assert_eq!(report.main_chain_height, 300);
    }

    #[test]
    fn determinism_per_seed() {
        let config = MiningSimConfig::default();
        let a = MiningSim::new(equal_miners(4, 10), config, 9).run();
        let b = MiningSim::new(equal_miners(4, 10), config, 9).run();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one miner")]
    fn empty_miner_set_rejected() {
        let _ = MiningSim::new(vec![], MiningSimConfig::default(), 0);
    }

    #[test]
    fn all_offline_terminates_early() {
        let mut miners = equal_miners(2, 10);
        miners[0].set_strategy(MinerStrategy::Offline);
        miners[1].set_strategy(MinerStrategy::Offline);
        let report = MiningSim::new(miners, MiningSimConfig::default(), 0).run();
        assert_eq!(report.main_chain_height, 0);
    }
}
