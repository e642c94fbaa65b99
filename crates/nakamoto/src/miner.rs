//! Miners: hash power plus strategy.

use fi_types::VotingPower;

/// What a miner does with the blocks it finds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MinerStrategy {
    /// Publish immediately on the longest known chain.
    #[default]
    Honest,
    /// Mine on the attacker's private branch (used by double-spend and
    /// majority-attack experiments; compromised pools are switched to this
    /// strategy).
    PrivateBranch,
    /// Powered off (crash fault / pool taken offline by an exploit).
    Offline,
}

/// A miner (or a pool acting as one aggregate miner).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Miner {
    index: usize,
    power: VotingPower,
    strategy: MinerStrategy,
}

impl Miner {
    /// Creates an honest miner.
    #[must_use]
    pub fn new(index: usize, power: VotingPower) -> Self {
        Miner {
            index,
            power,
            strategy: MinerStrategy::Honest,
        }
    }

    /// The miner's index.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// The miner's hash power.
    #[must_use]
    pub fn power(&self) -> VotingPower {
        self.power
    }

    /// The current strategy.
    #[must_use]
    pub fn strategy(&self) -> MinerStrategy {
        self.strategy
    }

    /// Switches strategy (compromise/recovery).
    // lint: allow(unused-pub) test seam: compromises a miner mid-run in sim's unit tests and integration_nakamoto
    pub fn set_strategy(&mut self, strategy: MinerStrategy) {
        self.strategy = strategy;
    }

    /// Effective mining power: zero when offline.
    #[must_use]
    pub fn effective_power(&self) -> VotingPower {
        if self.strategy == MinerStrategy::Offline {
            VotingPower::ZERO
        } else {
            self.power
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_strategy() {
        let mut m = Miner::new(3, VotingPower::new(100));
        assert_eq!(m.index(), 3);
        assert_eq!(m.power(), VotingPower::new(100));
        assert_eq!(m.strategy(), MinerStrategy::Honest);
        assert_eq!(m.effective_power(), VotingPower::new(100));
        m.set_strategy(MinerStrategy::Offline);
        assert_eq!(m.effective_power(), VotingPower::ZERO);
        m.set_strategy(MinerStrategy::PrivateBranch);
        assert_eq!(m.effective_power(), VotingPower::new(100));
    }

    #[test]
    fn default_strategy_is_honest() {
        assert_eq!(MinerStrategy::default(), MinerStrategy::Honest);
    }
}
