//! Selection-over-snapshot regression: committees selected from an
//! [`EpochSnapshot`] must be byte-identical to feeding the same fleet
//! through today's registry→candidates→selection path by hand.
//!
//! The candidate derivation here is deliberately *independent* of the
//! snapshot's own roster construction: it re-derives candidates straight
//! from the oracle registry following the documented rule (devices sorted
//! by replica id, raw power, configuration index = position of the
//! measurement among the sorted distinct measurements, unattested devices
//! on one pseudo-configuration after them). Any drift between the serving
//! roster and that rule shows up as a differing member sequence.

use fi_attest::{AttestedRegistry, TwoTierWeights};
use fi_committee::greedy::greedy_diverse_naive;
use fi_committee::{two_tier_weighted, Candidate};
use fi_fleet::{churn_trace, ChurnTraceConfig, ShardedFleet};
use fi_types::Digest;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn trace_config() -> ChurnTraceConfig {
    ChurnTraceConfig {
        devices: 200,
        measurements: 8,
        churn_ops: 500,
        unattested_permille: 150,
        seed: 77,
    }
}

/// Today's path: registry → hand-built candidate roster.
fn candidates_from_registry(registry: &AttestedRegistry) -> Vec<Candidate> {
    let mut measurements: Vec<Digest> = registry.bucket_rows().map(|(m, _)| m).collect();
    measurements.sort_unstable();
    let mut devices: Vec<_> = registry.devices().collect();
    devices.sort_unstable_by_key(|d| d.replica);
    devices
        .iter()
        .map(|d| match d.measurement {
            Some(m) => {
                let config = measurements
                    .binary_search(&m)
                    .expect("measurement has a bucket");
                Candidate::new(d.replica, d.power, config, true)
            }
            None => Candidate::new(d.replica, d.power, measurements.len(), false),
        })
        .collect()
}

fn churned_registry() -> AttestedRegistry {
    let mut registry = AttestedRegistry::new(TwoTierWeights::new(1.0, 0.5));
    registry.apply_batch(&churn_trace(&trace_config()));
    registry
}

#[test]
fn greedy_over_snapshot_equals_registry_path() {
    let registry = churned_registry();
    let trace = churn_trace(&trace_config());
    let reference = candidates_from_registry(&registry);
    for shards in SHARD_COUNTS {
        let fleet = ShardedFleet::new(shards, TwoTierWeights::new(1.0, 0.5));
        for batch in trace.chunks(64) {
            fleet.try_ingest_batch(batch).unwrap();
        }
        let snapshot = fleet.try_seal_epoch().unwrap();
        assert_eq!(snapshot.candidates(), &reference[..], "{shards} shards");
        for k in [1usize, 8, 33, 100, 500] {
            let via_snapshot = snapshot.select_greedy(k);
            let via_registry_path = greedy_diverse_naive(&reference, k);
            assert_eq!(
                via_snapshot.members(),
                via_registry_path.members(),
                "greedy k={k} diverged at {shards} shards"
            );
            assert_eq!(
                via_snapshot.entropy_bits().to_bits(),
                via_registry_path.entropy_bits().to_bits()
            );
        }
    }
}

#[test]
fn two_tier_sortition_over_snapshot_equals_registry_path() {
    let registry = churned_registry();
    let trace = churn_trace(&trace_config());
    let reference = candidates_from_registry(&registry);
    let tier_weights = TwoTierWeights::new(1.0, 0.3);
    for shards in SHARD_COUNTS {
        let fleet = ShardedFleet::new(shards, TwoTierWeights::new(1.0, 0.5));
        for batch in trace.chunks(64) {
            fleet.try_ingest_batch(batch).unwrap();
        }
        let snapshot = fleet.try_seal_epoch().unwrap();
        for seed in 0..5u64 {
            let mut rng_snapshot = StdRng::seed_from_u64(seed);
            let mut rng_reference = StdRng::seed_from_u64(seed);
            let via_snapshot =
                two_tier_weighted(snapshot.candidates(), 16, tier_weights, &mut rng_snapshot);
            let via_registry_path =
                two_tier_weighted(&reference, 16, tier_weights, &mut rng_reference);
            assert_eq!(
                via_snapshot.members(),
                via_registry_path.members(),
                "sortition seed {seed} diverged at {shards} shards"
            );
        }
    }
}

#[test]
fn selection_reads_are_stable_while_ingest_continues() {
    // A reader holding a sealed snapshot must see identical committees no
    // matter how much churn lands after the seal — immutability in action.
    let trace = churn_trace(&trace_config());
    let (first_half, second_half) = trace.split_at(trace.len() / 2);
    let fleet = ShardedFleet::new(4, TwoTierWeights::new(1.0, 0.5));
    fleet.try_ingest_batch(first_half).unwrap();
    let sealed = fleet.try_seal_epoch().unwrap();
    let before = sealed.select_greedy(16);
    fleet.try_ingest_batch(second_half).unwrap();
    let _ = fleet.try_seal_epoch().unwrap();
    let after = sealed.select_greedy(16);
    assert_eq!(before.members(), after.members());
    // The *current* snapshot moved on.
    assert_ne!(
        fleet.snapshot().content_hash(),
        sealed.content_hash(),
        "churn after the seal must land in the next epoch"
    );
}
