//! Blocks.

use fi_types::hash::hash_fields;
use fi_types::{Digest, SimTime};

/// A mined block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    id: Digest,
    parent: Digest,
    height: u64,
    miner: usize,
}

impl Block {
    /// The genesis block (height 0, mined by nobody).
    #[must_use]
    pub fn genesis() -> Block {
        Block {
            id: hash_fields(&[b"fi-nakamoto-genesis"]),
            parent: Digest::ZERO,
            height: 0,
            miner: usize::MAX,
        }
    }

    /// Mines a block on `parent` by `miner` at `mined_at`. `salt`
    /// disambiguates blocks the same miner mines on the same parent at the
    /// same instant (possible in Monte-Carlo races).
    #[must_use]
    pub fn mine(parent: &Block, miner: usize, mined_at: SimTime, salt: u64) -> Block {
        let id = hash_fields(&[
            b"fi-nakamoto-block-v1",
            parent.id.as_bytes(),
            &(miner as u64).to_be_bytes(),
            &mined_at.as_micros().to_be_bytes(),
            &salt.to_be_bytes(),
        ]);
        Block {
            id,
            parent: parent.id,
            height: parent.height + 1,
            miner,
        }
    }

    /// The block id.
    #[must_use]
    pub fn id(&self) -> Digest {
        self.id
    }

    /// The parent id.
    #[must_use]
    pub fn parent(&self) -> Digest {
        self.parent
    }

    /// Height above genesis.
    #[must_use]
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Index of the miner (or `usize::MAX` for genesis).
    #[must_use]
    pub fn miner(&self) -> usize {
        self.miner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genesis_properties() {
        let g = Block::genesis();
        assert_eq!(g.height(), 0);
        assert_eq!(g.parent(), Digest::ZERO);
        assert_eq!(Block::genesis(), g);
    }

    #[test]
    fn mining_chains_heights() {
        let g = Block::genesis();
        let b1 = Block::mine(&g, 0, SimTime::from_secs(600), 0);
        let b2 = Block::mine(&b1, 1, SimTime::from_secs(1200), 0);
        assert_eq!(b1.height(), 1);
        assert_eq!(b2.height(), 2);
        assert_eq!(b1.parent(), g.id());
        assert_eq!(b2.parent(), b1.id());
        assert_eq!(b2.miner(), 1);
    }

    #[test]
    fn ids_distinguish_miner_time_and_salt() {
        let g = Block::genesis();
        let a = Block::mine(&g, 0, SimTime::from_secs(1), 0);
        let b = Block::mine(&g, 1, SimTime::from_secs(1), 0);
        let c = Block::mine(&g, 0, SimTime::from_secs(2), 0);
        let d = Block::mine(&g, 0, SimTime::from_secs(1), 1);
        let ids = [a.id(), b.id(), c.id(), d.id()];
        for i in 0..ids.len() {
            for j in i + 1..ids.len() {
                assert_ne!(ids[i], ids[j]);
            }
        }
    }
}
