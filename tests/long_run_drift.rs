//! Long-run float-drift guards for the *live* O(1) entropy paths — and
//! the pin that sealed snapshots have no drift to guard.
//!
//! A live accumulator (a bare [`EntropyAccumulator`] edited in place, the
//! rotation tracker's) carries floating-point state (`S = Σ w·log2 w`)
//! across every operation; each op adds at most an ulp of rounding, and
//! nothing ever re-normalises it. The first two tests drive
//! [`EntropyAccumulator`] and [`RotationEntropyTracker`] through more than
//! a million churn/rotation steps each and require agreement with a fresh
//! batch `shannon` recompute within `1e-9` bits at every checkpoint.
//!
//! A sealed [`EpochSnapshot`] is different: the [`AttestedRegistry`] it is
//! sealed from keeps integer buckets only and answers no entropy query, and
//! every seal, differential or full, folds its accumulator from the
//! finished bucket table, so its floats are a function of fleet content
//! alone. The third test holds a 2 000-epoch chain of differential seals
//! with no full rebuild to a from-scratch seal of a registry that lived
//! through the same 24 000 ops, bit for bit.

use fault_independence::fi_attest::{AttestedRegistry, ChurnOp, TwoTierWeights};
use fault_independence::fi_config::generator::AssignmentEntry;
use fault_independence::fi_config::prelude::*;
use fault_independence::fi_entropy::shannon::shannon_entropy_bits;
use fault_independence::fi_entropy::{Distribution, EntropyAccumulator};
use fault_independence::fi_fleet::{EpochSnapshot, ShardedFleet};
use fault_independence::fi_types::{sha256, Digest, ReplicaId, SimTime, VotingPower};
use fault_independence::{RotationEntropyTracker, RotationStep};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fresh batch recompute — the oracle both tests compare against.
fn batch_entropy(weights: &[u64]) -> f64 {
    match Distribution::from_counts(weights) {
        Ok(d) => shannon_entropy_bits(&d),
        Err(_) => 0.0,
    }
}

#[test]
fn accumulator_survives_a_million_churn_steps_within_1e_neg9() {
    const SLOTS: usize = 64;
    const STEPS: u64 = 1_200_000;
    const CHECK_EVERY: u64 = 100_000;

    let mut rng = StdRng::seed_from_u64(0xF1EE7);
    let mut acc = EntropyAccumulator::new(SLOTS);
    let mut mirror = vec![0u64; SLOTS];
    // Seed some mass so removes/moves have something to work with.
    for (slot, bucket) in mirror.iter_mut().enumerate() {
        let w = rng.gen_range(0u64..500);
        acc.add(slot, w);
        *bucket += w;
    }

    let mut worst: f64 = 0.0;
    for step in 1..=STEPS {
        match rng.gen_range(0u32..3) {
            0 => {
                let slot = rng.gen_range(0..SLOTS);
                let w = rng.gen_range(0u64..200);
                acc.add(slot, w);
                mirror[slot] += w;
            }
            1 => {
                let slot = rng.gen_range(0..SLOTS);
                let w = rng.gen_range(0u64..200).min(mirror[slot]);
                acc.remove(slot, w);
                mirror[slot] -= w;
            }
            _ => {
                let from = rng.gen_range(0..SLOTS);
                let to = rng.gen_range(0..SLOTS);
                let w = rng.gen_range(0u64..200).min(mirror[from]);
                acc.apply_move(from, to, w);
                if from != to {
                    mirror[from] -= w;
                    mirror[to] += w;
                }
            }
        }
        if step % CHECK_EVERY == 0 {
            let drift = (acc.entropy_bits() - batch_entropy(&mirror)).abs();
            worst = worst.max(drift);
            assert!(
                drift < 1e-9,
                "accumulator drifted {drift} bits from the batch recompute after {step} steps"
            );
            // Integer state never drifts at all.
            assert_eq!(acc.total_weight(), mirror.iter().sum::<u64>());
            assert_eq!(
                acc.support_size(),
                mirror.iter().filter(|&&w| w > 0).count()
            );
        }
    }
    // The churned accumulator also still matches a from-scratch rebuild.
    let fresh = EntropyAccumulator::from_weights(&mirror);
    assert!((acc.entropy_bits() - fresh.entropy_bits()).abs() < 1e-9);
    assert!(worst < 1e-9, "worst observed drift: {worst}");
}

#[test]
fn rotation_tracker_survives_a_million_steps_within_1e_neg9() {
    const REPLICAS: u64 = 60;
    const STEPS: u64 = 1_000_000;
    const CHECK_EVERY: u64 = 100_000;

    // 4 OSes × 3 crypto libraries = 12 configurations, uneven powers.
    let space = ConfigurationSpace::cartesian(&[
        catalog::operating_systems()[..4].to_vec(),
        catalog::crypto_libraries()[..3].to_vec(),
    ])
    .expect("catalog space");
    let k = space.len();
    let entries: Vec<AssignmentEntry> = (0..REPLICAS)
        .map(|i| AssignmentEntry {
            replica: ReplicaId::new(i),
            config: (i as usize) % k,
            power: VotingPower::new(1 + (i * 13) % 50),
        })
        .collect();
    let assignment = Assignment::new(space, entries.clone()).expect("valid assignment");

    let mut tracker = RotationEntropyTracker::new(&assignment);
    // Mirror: per-replica position and per-config weight.
    let mut position: Vec<usize> = entries.iter().map(|e| e.config).collect();
    let mut weights = vec![0u64; k];
    for e in &entries {
        weights[e.config] += e.power.as_units();
    }

    let mut rng = StdRng::seed_from_u64(0x207A7E);
    for step in 1..=STEPS {
        let replica = rng.gen_range(0..REPLICAS);
        // Mostly cyclic rotation (stride 1), sometimes a random migration.
        let to_config = if rng.gen_bool(0.9) {
            (position[replica as usize] + 1) % k
        } else {
            rng.gen_range(0..k)
        };
        let units = entries[replica as usize].power.as_units();
        weights[position[replica as usize]] -= units;
        weights[to_config] += units;
        position[replica as usize] = to_config;
        let tracked = tracker
            .apply(&RotationStep {
                at: SimTime::ZERO,
                replica: ReplicaId::new(replica),
                to_config,
            })
            .expect("valid step");
        if step % CHECK_EVERY == 0 {
            let drift = (tracked - batch_entropy(&weights)).abs();
            assert!(
                drift < 1e-9,
                "tracker drifted {drift} bits from the batch recompute after {step} steps"
            );
        }
    }
    assert!((tracker.entropy_bits() - batch_entropy(&weights)).abs() < 1e-9);
}

#[test]
fn a_2000_epoch_differential_chain_seals_the_bits_a_fresh_build_does() {
    const DEVICES: u64 = 300;
    const MEASUREMENTS: usize = 40;
    const EPOCHS: u64 = 2_000;
    const OPS_PER_EPOCH: usize = 12;
    const CHECK_EVERY: u64 = 50;

    let weights = TwoTierWeights::new(1.0, 0.5);
    let measurements: Vec<Digest> = (0..MEASUREMENTS)
        .map(|m| sha256(format!("drift-cfg-{m}").as_bytes()))
        .collect();
    // Cadence 0: epoch 1 is the only full build, so by epoch 2 000 the
    // sealed snapshot is 1 999 patches away from one.
    let fleet = ShardedFleet::with_reanchor_interval(4, weights, 0);
    let mut mirror = AttestedRegistry::new(weights);
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let (mut births, mut deaths, mut buckets) = (0, 0, 0);
    for epoch in 1..=EPOCHS {
        let batch: Vec<ChurnOp> = (0..OPS_PER_EPOCH)
            .map(|_| {
                let replica = ReplicaId::new(rng.gen_range(0..DEVICES));
                let power = VotingPower::new(rng.gen_range(0u64..500));
                match rng.gen_range(0u32..10) {
                    0..=5 => {
                        // The lower of two draws: the high-numbered
                        // measurements are rare, so their buckets keep
                        // being born and dying.
                        let m = rng
                            .gen_range(0..MEASUREMENTS)
                            .min(rng.gen_range(0..MEASUREMENTS));
                        ChurnOp::attest(replica, measurements[m], power)
                    }
                    6..=7 => ChurnOp::Unattested { replica, power },
                    _ => ChurnOp::Deregister { replica },
                }
            })
            .collect();
        fleet.try_ingest_batch(&batch).unwrap();
        mirror.apply_batch(&batch);
        let sealed = fleet.try_seal_epoch().unwrap();
        assert_eq!(sealed.parent_hash().is_none(), epoch == 1);
        births += sealed.buckets().len().saturating_sub(buckets);
        deaths += buckets.saturating_sub(sealed.buckets().len());
        buckets = sealed.buckets().len();

        if epoch % CHECK_EVERY == 0 {
            let fresh = EpochSnapshot::from_registry(&mirror, epoch);
            assert_eq!(sealed.content_hash(), fresh.content_hash(), "epoch {epoch}");
            for include in [false, true] {
                assert_eq!(
                    sealed.entropy_bits(include).map(f64::to_bits),
                    fresh.entropy_bits(include).map(f64::to_bits),
                    "entropy (include={include}) drifted by epoch {epoch}"
                );
            }
            assert_eq!(
                sealed.entropy_accumulator().weighted_log_sum().to_bits(),
                fresh.entropy_accumulator().weighted_log_sum().to_bits(),
                "Σ w·log2 w drifted by epoch {epoch}"
            );
        }
    }
    assert!(
        births > 10 && deaths > 10,
        "the chain must splice bucket slots in and out: {births} births, {deaths} deaths"
    );
}
