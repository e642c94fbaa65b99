//! The block tree and longest-chain selection.

use std::collections::HashMap;

use fi_types::Digest;

use crate::block::Block;

/// A block tree with longest-chain tip selection (ties broken by arrival
/// order, as Bitcoin nodes do).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockTree {
    blocks: HashMap<Digest, Block>,
    arrival: HashMap<Digest, u64>,
    next_arrival: u64,
    tip: Digest,
}

impl Default for BlockTree {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockTree {
    /// A tree containing only genesis.
    #[must_use]
    pub fn new() -> Self {
        let genesis = Block::genesis();
        let mut blocks = HashMap::new();
        let mut arrival = HashMap::new();
        blocks.insert(genesis.id(), genesis);
        arrival.insert(genesis.id(), 0);
        BlockTree {
            blocks,
            arrival,
            next_arrival: 1,
            tip: genesis.id(),
        }
    }

    /// Inserts a block whose parent is present; returns `true` if it became
    /// the new tip. Re-inserting an existing block is a no-op returning
    /// `false`. Blocks with unknown parents are rejected (`false`) — the
    /// simulators always deliver parents first.
    pub fn insert(&mut self, block: Block) -> bool {
        if self.blocks.contains_key(&block.id()) {
            return false;
        }
        if !self.blocks.contains_key(&block.parent()) {
            return false;
        }
        let id = block.id();
        let height = block.height();
        self.blocks.insert(id, block);
        self.arrival.insert(id, self.next_arrival);
        self.next_arrival += 1;
        if height > self.height() {
            self.tip = id;
            true
        } else {
            false
        }
    }

    /// The current tip block.
    ///
    /// # Panics
    ///
    /// Never panics: the tip always exists.
    #[must_use]
    pub fn tip(&self) -> &Block {
        &self.blocks[&self.tip]
    }

    /// The main-chain height.
    #[must_use]
    pub fn height(&self) -> u64 {
        self.tip().height()
    }

    /// Total blocks including genesis.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether only genesis is present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.len() == 1
    }

    /// Looks up a block.
    #[must_use]
    pub fn get(&self, id: &Digest) -> Option<&Block> {
        self.blocks.get(id)
    }

    /// Walks the main chain tip → genesis.
    // lint: allow(unused-pub) reference walk: nakamoto_properties checks the main chain's heights and parents are contiguous through it
    #[must_use]
    pub fn main_chain(&self) -> Vec<&Block> {
        let mut chain = Vec::with_capacity(self.height() as usize + 1);
        let mut cursor = self.tip;
        loop {
            let block = &self.blocks[&cursor];
            chain.push(block);
            if block.height() == 0 {
                break;
            }
            cursor = block.parent();
        }
        chain
    }

    /// Whether `id` lies on the main chain.
    #[must_use]
    fn on_main_chain(&self, id: &Digest) -> bool {
        let Some(target) = self.blocks.get(id) else {
            return false;
        };
        let mut cursor = self.tip;
        loop {
            if cursor == *id {
                return true;
            }
            let block = &self.blocks[&cursor];
            if block.height() <= target.height() {
                return false;
            }
            cursor = block.parent();
        }
    }

    /// Confirmations of `id`: main-chain depth below the tip (tip itself
    /// has 1 confirmation, Bitcoin-style); `None` when off-chain.
    // lint: allow(unused-pub) paper-facing: the confirmation depth `z` of Nakamoto's race, which nakamoto_properties checks against the tree
    #[must_use]
    pub fn confirmations(&self, id: &Digest) -> Option<u64> {
        if !self.on_main_chain(id) {
            return None;
        }
        let block = &self.blocks[id];
        Some(self.height() - block.height() + 1)
    }

    /// Orphaned (off-main-chain, non-genesis) block count — the fork-rate
    /// numerator. Computed with a single main-chain walk, `O(blocks)`.
    #[must_use]
    pub fn orphans(&self) -> usize {
        // Non-genesis blocks minus the non-genesis main-chain length.
        (self.blocks.len() - 1) - self.height() as usize
    }

    /// Main-chain blocks per miner index (one chain walk for all miners).
    #[must_use]
    pub fn main_chain_blocks_per_miner(&self, miners: usize) -> Vec<usize> {
        let mut counts = vec![0usize; miners];
        for block in self.main_chain() {
            if let Some(slot) = counts.get_mut(block.miner()) {
                *slot += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_types::SimTime;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn fresh_tree_is_genesis_only() {
        let tree = BlockTree::new();
        assert_eq!(tree.height(), 0);
        assert!(tree.is_empty());
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.main_chain().len(), 1);
    }

    #[test]
    fn linear_growth_updates_tip() {
        let mut tree = BlockTree::new();
        let b1 = Block::mine(tree.tip(), 0, t(600), 0);
        assert!(tree.insert(b1));
        let b2 = Block::mine(tree.tip(), 1, t(1200), 0);
        assert!(tree.insert(b2));
        assert_eq!(tree.height(), 2);
        assert_eq!(tree.tip().id(), b2.id());
        assert_eq!(tree.main_chain().len(), 3);
    }

    #[test]
    fn rejects_unknown_parent_and_duplicates() {
        let mut tree = BlockTree::new();
        let orphan_parent = Block::mine(&Block::genesis(), 0, t(1), 99);
        let dangling = Block::mine(&orphan_parent, 0, t(2), 0);
        assert!(!tree.insert(dangling));
        let b1 = Block::mine(tree.tip(), 0, t(600), 0);
        assert!(tree.insert(b1));
        assert!(!tree.insert(b1));
        assert_eq!(tree.len(), 2);
    }

    #[test]
    fn fork_resolution_first_seen_wins_ties() {
        let mut tree = BlockTree::new();
        let genesis = *tree.tip();
        let a = Block::mine(&genesis, 0, t(600), 0);
        let b = Block::mine(&genesis, 1, t(601), 0);
        assert!(tree.insert(a)); // becomes tip
        assert!(!tree.insert(b)); // same height: first seen keeps tip
        assert_eq!(tree.tip().id(), a.id());
        assert_eq!(tree.orphans(), 1);
    }

    #[test]
    fn reorg_to_longer_branch() {
        let mut tree = BlockTree::new();
        let genesis = *tree.tip();
        let a1 = Block::mine(&genesis, 0, t(600), 0);
        tree.insert(a1);
        // Competing branch b1-b2 overtakes.
        let b1 = Block::mine(&genesis, 1, t(610), 0);
        tree.insert(b1);
        let b2 = Block::mine(&b1, 1, t(1200), 0);
        assert!(tree.insert(b2));
        assert_eq!(tree.tip().id(), b2.id());
        assert!(tree.on_main_chain(&b1.id()));
        assert!(!tree.on_main_chain(&a1.id()));
        assert_eq!(tree.orphans(), 1);
    }

    #[test]
    fn confirmations_count_from_tip() {
        let mut tree = BlockTree::new();
        let b1 = Block::mine(tree.tip(), 0, t(600), 0);
        tree.insert(b1);
        let b2 = Block::mine(tree.tip(), 0, t(1200), 0);
        tree.insert(b2);
        let b3 = Block::mine(tree.tip(), 0, t(1800), 0);
        tree.insert(b3);
        assert_eq!(tree.confirmations(&b1.id()), Some(3));
        assert_eq!(tree.confirmations(&b3.id()), Some(1));
        let stranger = Block::mine(&Block::genesis(), 9, t(1), 7);
        assert_eq!(tree.confirmations(&stranger.id()), None);
    }

    #[test]
    fn revenue_accounting() {
        let mut tree = BlockTree::new();
        let b1 = Block::mine(tree.tip(), 0, t(600), 0);
        tree.insert(b1);
        let b2 = Block::mine(tree.tip(), 1, t(1200), 0);
        tree.insert(b2);
        let b3 = Block::mine(tree.tip(), 0, t(1800), 0);
        tree.insert(b3);
        let per_miner = tree.main_chain_blocks_per_miner(10);
        assert_eq!((per_miner[0], per_miner[1], per_miner[9]), (2, 1, 0));
    }
}
