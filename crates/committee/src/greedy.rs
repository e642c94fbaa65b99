//! Greedy entropy-maximising selection.
//!
//! The selection loop is the paper's headline operation (steering a
//! committee toward κ-optimal fault independence, Definition 1) and the
//! workspace's hottest path: a chain re-selects continuously under
//! rotation. [`greedy_diverse`] has no loop of its own: it indexes the
//! caller's candidates in a [`PrunedRoster`] and runs that index's band
//! walk, O(n log n) to build and O(k·C·log L) to select for C
//! configurations of ≤ L candidates. The per-candidate fold the band walk
//! must reproduce is kept as [`greedy_diverse_naive`], the one reference
//! every selection engine is tested against.

use std::collections::HashMap;

use fi_entropy::Distribution;
use fi_types::VotingPower;

use crate::candidate::{Candidate, Committee};
use crate::pruned::PrunedRoster;

/// Selects `k` members by repeatedly adding the candidate that maximises
/// the committee's configuration entropy (power-weighted). Ties are broken
/// toward higher stake, then lower replica id, so the result is
/// deterministic. Zero-power candidates are never selected.
///
/// This is the constructive counterpart of Definition 1: it steers the
/// committee toward κ-optimal fault independence as far as the candidate
/// pool allows. Configuration values may be sparse: they are mapped to the
/// dense slots of a [`PrunedRoster`] and back. A replica id is seated at
/// most once: of two candidates that share one, the first the fold picks
/// takes the seat and the other is skipped.
#[must_use]
pub fn greedy_diverse(candidates: &[Candidate], k: usize) -> Committee {
    let mut configs: Vec<usize> = candidates.iter().map(Candidate::config).collect();
    configs.sort_unstable();
    configs.dedup();
    let dense: Vec<Candidate> = candidates
        .iter()
        .map(|c| {
            let slot = configs
                .binary_search(&c.config())
                .expect("every config is in the slot map");
            Candidate::new(c.replica(), c.power(), slot, c.attested())
        })
        .collect();
    PrunedRoster::from_dense(configs.len(), &dense)
        .select(k)
        .members()
        .iter()
        .map(|m| Candidate::new(m.replica(), m.power(), configs[m.config()], m.attested()))
        .collect()
}

/// The per-candidate greedy fold, O(n·k·(k+m)), kept verbatim as the
/// reference: it re-aggregates a `HashMap`-backed distribution and
/// recomputes full Shannon entropy for every candidate in every round.
/// Property tests hold [`greedy_diverse`], [`PrunedRoster::select`] and
/// [`crate::warm_greedy`] to its member sequence; the
/// `committee_selection` bench times it.
#[doc(hidden)]
#[must_use]
pub fn greedy_diverse_naive(candidates: &[Candidate], k: usize) -> Committee {
    let mut remaining: Vec<Candidate> = candidates
        .iter()
        .copied()
        .filter(|c| !c.power().is_zero())
        .collect();
    let mut members: Vec<Candidate> = Vec::with_capacity(k.min(remaining.len()));

    while members.len() < k && !remaining.is_empty() {
        let mut best: Option<(usize, f64)> = None;
        for (i, cand) in remaining.iter().enumerate() {
            let mut trial = members.clone();
            trial.push(*cand);
            let entropy = naive_entropy_bits(&trial);
            let better = match best {
                None => true,
                Some((best_i, best_h)) => {
                    entropy > best_h + 1e-12
                        || ((entropy - best_h).abs() <= 1e-12
                            && preferred(cand, &remaining[best_i]))
                }
            };
            if better {
                best = Some((i, entropy));
            }
        }
        let (idx, _) = best.expect("remaining is non-empty");
        members.push(remaining.swap_remove(idx));
    }
    Committee::new(members)
}

/// The seed implementation's per-trial evaluation: aggregate a `HashMap`,
/// sort it, build a [`Distribution`], compute Shannon entropy.
fn naive_entropy_bits(members: &[Candidate]) -> f64 {
    let mut acc: HashMap<usize, VotingPower> = HashMap::new();
    for m in members {
        *acc.entry(m.config()).or_insert(VotingPower::ZERO) += m.power();
    }
    let mut rows: Vec<(usize, VotingPower)> = acc.into_iter().collect();
    rows.sort_by_key(|&(c, _)| c);
    let units: Vec<u64> = rows.iter().map(|&(_, p)| p.as_units()).collect();
    Distribution::from_counts(&units)
        .map(|d| d.shannon_entropy())
        .unwrap_or(0.0)
}

/// The deterministic tie-break shared by every greedy engine (the naive
/// reference, the pruned band walk, warm start): higher stake first, then
/// lower replica id.
pub(crate) fn preferred(a: &Candidate, b: &Candidate) -> bool {
    (a.power(), std::cmp::Reverse(a.replica())) > (b.power(), std::cmp::Reverse(b.replica()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::top_stake;
    use fi_types::{ReplicaId, VotingPower};

    fn pool() -> Vec<Candidate> {
        // 9 candidates, 3 configurations; stake concentrated on config 0.
        (0..9u64)
            .map(|i| {
                let config = if i < 5 { 0 } else { 1 + (i as usize % 2) };
                let power = if i < 5 { 100 } else { 40 };
                Candidate::new(ReplicaId::new(i), VotingPower::new(power), config, true)
            })
            .collect()
    }

    #[test]
    fn greedy_beats_top_stake_on_entropy() {
        let candidates = pool();
        let greedy = greedy_diverse(&candidates, 6);
        let stake = top_stake(&candidates, 6);
        assert!(greedy.entropy_bits() > stake.entropy_bits());
        assert!(greedy.worst_config_share() < stake.worst_config_share());
    }

    #[test]
    fn greedy_spreads_across_configs() {
        let committee = greedy_diverse(&pool(), 3);
        let configs: Vec<usize> = committee.members().iter().map(Candidate::config).collect();
        let mut unique = configs.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 3, "one member per configuration: {configs:?}");
    }

    #[test]
    fn greedy_is_deterministic() {
        let candidates = pool();
        assert_eq!(
            greedy_diverse(&candidates, 5),
            greedy_diverse(&candidates, 5)
        );
    }

    #[test]
    fn greedy_handles_small_pools() {
        let candidates = pool();
        let all = greedy_diverse(&candidates, 100);
        assert_eq!(all.len(), 9);
        let none = greedy_diverse(&candidates, 0);
        assert!(none.is_empty());
        let empty = greedy_diverse(&[], 5);
        assert!(empty.is_empty());
    }

    #[test]
    fn greedy_prefers_higher_stake_on_entropy_ties() {
        // Two candidates, same configuration: entropy is 0 either way, so
        // the higher-stake one is picked.
        let candidates = vec![
            Candidate::new(ReplicaId::new(0), VotingPower::new(10), 0, true),
            Candidate::new(ReplicaId::new(1), VotingPower::new(90), 0, true),
        ];
        let committee = greedy_diverse(&candidates, 1);
        assert_eq!(committee.members()[0].replica(), ReplicaId::new(1));
    }

    #[test]
    fn greedy_skips_zero_power() {
        let candidates = vec![
            Candidate::new(ReplicaId::new(0), VotingPower::ZERO, 0, true),
            Candidate::new(ReplicaId::new(1), VotingPower::new(5), 1, true),
        ];
        let committee = greedy_diverse(&candidates, 2);
        assert_eq!(committee.len(), 1);
        assert_eq!(committee.members()[0].replica(), ReplicaId::new(1));
    }

    #[test]
    fn a_repeated_replica_id_is_seated_once() {
        let candidates = vec![
            Candidate::new(ReplicaId::new(1), VotingPower::new(10), 0, true),
            Candidate::new(ReplicaId::new(1), VotingPower::new(10), 1, true),
            Candidate::new(ReplicaId::new(2), VotingPower::new(10), 2, true),
        ];
        let seated: Vec<u64> = greedy_diverse(&candidates, 3)
            .members()
            .iter()
            .map(|c| c.replica().as_u64())
            .collect();
        assert_eq!(seated, vec![1, 2]);
    }

    #[test]
    fn incremental_matches_naive_oracle_on_fixture_pools() {
        let candidates = pool();
        for k in 0..=10 {
            let fast = greedy_diverse(&candidates, k);
            let naive = greedy_diverse_naive(&candidates, k);
            assert_eq!(fast.members(), naive.members(), "k = {k}");
        }
    }

    #[test]
    fn incremental_matches_naive_oracle_on_sparse_configs() {
        // Sparse, high configuration indices exercise the slot map.
        let candidates: Vec<Candidate> = (0..24u64)
            .map(|i| {
                Candidate::new(
                    ReplicaId::new(i),
                    VotingPower::new(1 + (i * 37) % 500),
                    ((i * i) as usize % 7) * 1_000_003,
                    true,
                )
            })
            .collect();
        for k in [1, 5, 12, 24] {
            let fast = greedy_diverse(&candidates, k);
            let naive = greedy_diverse_naive(&candidates, k);
            assert_eq!(fast.members(), naive.members(), "k = {k}");
        }
    }
}
