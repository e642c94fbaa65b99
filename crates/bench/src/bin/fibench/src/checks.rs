//! Output checks. Any failure makes the run incorrect and the exit code
//! non-zero.
#![forbid(unsafe_code)]

use fi_attest::{AttestedRegistry, ChurnOp};
use fi_entropy::{shannon_entropy_bits, Distribution};
use fi_fleet::EpochSnapshot;
use fi_serve::ServeStats;
use fi_types::{sha256, Digest};

use crate::inputs::{Workload, DEFAULT_SEED};

/// Epochs of the chain, from epoch 1, that the pins cover. Every run
/// seals more than this, whatever its `--seconds`.
pub const PINNED_EPOCHS: usize = 16;

/// SHA-256 over the first [`PINNED_EPOCHS`] `(epoch, content_hash)` pairs
/// each closed-loop workload seals for [`DEFAULT_SEED`]. `durable` feeds
/// `steady`'s traffic, so it seals `steady`'s chain. `paced` cuts its
/// epochs by wall clock and has no fixed chain.
pub fn pinned_chain(workload: Workload) -> Option<&'static str> {
    match workload {
        Workload::Steady | Workload::Durable => {
            Some("993242ae557f7127c24294619fd47237db007ed20b63fefb124199502d43c12a")
        }
        Workload::Mixed => Some("c0a84a9b6975b3c14283d2bbc9a8f2833547c5804f38a6c17c92e6a2aa3f4cf5"),
        Workload::Paced => None,
    }
}

/// One digest over a chain prefix.
pub fn chain_digest(chain: &[(u64, Digest)]) -> Digest {
    let mut text = String::new();
    for (epoch, hash) in chain {
        text.push_str(&format!("{epoch}:{hash}\n"));
    }
    sha256(text.as_bytes())
}

/// For the default seed, the chain's first epochs must hash to `pin`.
pub fn check_pinned(seed: u64, chain: &[(u64, Digest)], pin: Option<&str>) -> Result<(), String> {
    let Some(pin) = pin else { return Ok(()) };
    if seed != DEFAULT_SEED {
        return Ok(());
    }
    let prefix = chain.get(..PINNED_EPOCHS).ok_or_else(|| {
        format!(
            "only {} epochs sealed, the pin covers {PINNED_EPOCHS}",
            chain.len()
        )
    })?;
    let got = chain_digest(prefix).to_string();
    if got != pin {
        return Err(format!(
            "the first {PINNED_EPOCHS} epochs hash to {got}, pinned {pin}"
        ));
    }
    Ok(())
}

/// Two drivers fed the same inputs must seal one chain.
pub fn check_same_chain(
    what: &str,
    real: &[(u64, Digest)],
    replay: &[(u64, Digest)],
) -> Result<(), String> {
    if real == replay {
        return Ok(());
    }
    let at = real
        .iter()
        .zip(replay)
        .position(|(a, b)| a != b)
        .unwrap_or(real.len().min(replay.len()));
    Err(format!(
        "{what}: chains differ at index {at} (lengths {} and {})",
        real.len(),
        replay.len()
    ))
}

/// After a drain every admitted op was coalesced away or flushed, and
/// every flushed op was applied.
pub fn check_accounting(stats: &ServeStats) -> Result<(), String> {
    if stats.admitted_ops != stats.flushed_ops + stats.coalesced_away {
        return Err(format!(
            "admitted {} != flushed {} + coalesced away {}",
            stats.admitted_ops, stats.flushed_ops, stats.coalesced_away
        ));
    }
    if stats.applied_ops != stats.flushed_ops {
        return Err(format!(
            "applied {} != flushed {}",
            stats.applied_ops, stats.flushed_ops
        ));
    }
    Ok(())
}

/// The paper's quantities of one sealed epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Paper {
    pub entropy_bits: f64,
    pub top_bucket_share: f64,
    pub devices: usize,
    pub buckets: usize,
}

/// The snapshot's incrementally maintained entropy must agree with a
/// batch Shannon recomputation from its buckets to 1e-9.
pub fn check_entropy(snapshot: &EpochSnapshot) -> Result<Paper, String> {
    let units: Vec<u64> = snapshot
        .buckets()
        .iter()
        .map(|&(_, p)| p.as_units())
        .collect();
    let served = snapshot
        .entropy_bits(false)
        .map_err(|e| format!("entropy of epoch {}: {e}", snapshot.epoch()))?;
    let batch = Distribution::from_counts(&units)
        .map(|d| shannon_entropy_bits(&d))
        .map_err(|e| format!("batch distribution of epoch {}: {e}", snapshot.epoch()))?;
    if (served - batch).abs() > 1e-9 {
        return Err(format!(
            "epoch {} serves entropy {served}, batch Shannon gives {batch}",
            snapshot.epoch()
        ));
    }
    let total: u64 = units.iter().sum();
    let top = units.iter().copied().max().unwrap_or(0);
    Ok(Paper {
        entropy_bits: served,
        top_bucket_share: top as f64 / total.max(1) as f64,
        devices: snapshot.device_count(),
        buckets: units.len(),
    })
}

/// The fleet's final snapshot must carry the content hash of one
/// un-sharded registry that applied the same ops on one thread.
pub fn check_final_state<'a>(
    snapshot: &EpochSnapshot,
    ops: impl Iterator<Item = &'a [ChurnOp]>,
) -> Result<(), String> {
    let mut registry = AttestedRegistry::new(snapshot.weights());
    for batch in ops {
        registry.apply_batch(batch);
    }
    let oracle = EpochSnapshot::from_registry(&registry, snapshot.epoch());
    if oracle.device_count() != snapshot.device_count() || oracle.buckets() != snapshot.buckets() {
        return Err(format!(
            "final epoch {}: {} devices in {} buckets, the single-threaded replay has {} in {}",
            snapshot.epoch(),
            snapshot.device_count(),
            snapshot.buckets().len(),
            oracle.device_count(),
            oracle.buckets().len()
        ));
    }
    if oracle.content_hash() != snapshot.content_hash() {
        return Err(format!(
            "final epoch {} hashes to {}, the single-threaded replay to {}",
            snapshot.epoch(),
            snapshot.content_hash(),
            oracle.content_hash()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Chain;

    fn chain(n: u64) -> Chain {
        (1..=n).map(|e| (e, sha256(e.to_be_bytes()))).collect()
    }

    #[test]
    fn a_wrong_pinned_hash_fails_the_check() {
        let chain = chain(PINNED_EPOCHS as u64 + 4);
        let right = chain_digest(&chain[..PINNED_EPOCHS]).to_string();
        assert_eq!(check_pinned(DEFAULT_SEED, &chain, Some(&right)), Ok(()));
        let wrong = sha256(b"not the chain").to_string();
        let err = check_pinned(DEFAULT_SEED, &chain, Some(&wrong)).unwrap_err();
        assert!(err.contains(&right) && err.contains(&wrong), "{err}");
        // Only the default seed is pinned, and only pinned workloads.
        assert_eq!(check_pinned(DEFAULT_SEED + 1, &chain, Some(&wrong)), Ok(()));
        assert_eq!(check_pinned(DEFAULT_SEED, &chain, None), Ok(()));
    }

    #[test]
    fn a_chain_shorter_than_the_pin_fails() {
        let short = chain(PINNED_EPOCHS as u64 - 1);
        assert!(check_pinned(DEFAULT_SEED, &short, Some("00")).is_err());
    }

    #[test]
    fn the_pin_ignores_epochs_beyond_its_prefix() {
        let long = chain(40);
        let longer = chain(50);
        let pin = chain_digest(&long[..PINNED_EPOCHS]).to_string();
        assert_eq!(check_pinned(DEFAULT_SEED, &longer, Some(&pin)), Ok(()));
    }

    #[test]
    fn differing_chains_name_the_first_difference() {
        let a = chain(5);
        let mut b = chain(5);
        b[3].1 = sha256(b"x");
        assert_eq!(check_same_chain("t", &a, &a), Ok(()));
        assert!(check_same_chain("t", &a, &b)
            .unwrap_err()
            .contains("index 3"));
        assert!(check_same_chain("t", &a, &a[..4])
            .unwrap_err()
            .contains("index 4"));
    }

    #[test]
    fn accounting_catches_lost_ops() {
        let mut stats = ServeStats {
            admitted_ops: 10,
            flushed_ops: 6,
            coalesced_away: 4,
            applied_ops: 6,
            ..ServeStats::default()
        };
        assert_eq!(check_accounting(&stats), Ok(()));
        stats.applied_ops = 5;
        assert!(check_accounting(&stats).is_err());
        stats.applied_ops = 6;
        stats.coalesced_away = 3;
        assert!(check_accounting(&stats).is_err());
    }
}
