//! Seal and seal-to-committee latency by fleet size × churn rate: the one
//! sweep fibench cannot express, because each of its workloads fixes both.
//! It prints and does nothing else — that a differential seal equals a full
//! rebuild is what `crates/fleet/tests/fleet_differential.rs` asserts.
//!
//! A cell's fleet alternates between two epochs forever: the trace's churn
//! phase, then the registration-wave ops of the same devices, which undo
//! it. Every seal therefore patches in a delta of the same size however
//! long the timer runs. The shim's `iter` has no untimed set-up, so each
//! `seal/*` figure includes ingesting the epoch's ops; the `ingest` line is
//! that share alone.
//!
//! The `seal/diff_buckets/*` rows sweep the bucket count instead, at a
//! churn too small to matter: devices spread evenly over 12 to 100 000
//! measurements, and 100 re-attestations a seal, each to the next
//! measurement in the pool, undone the next seal. What is left of a
//! differential seal's cost there is what it pays per bucket.
//!
//! The `seal_select/*` rows time what a fleet pays per epoch at 1 ‰ churn
//! and 10⁵ or 10⁶ devices: ingesting the epoch's ops, one differential
//! seal and `select(64)` on the new snapshot, as one unit. A warm-start
//! selection, which replayed the last committee against the churned rows
//! only, was timed against it here and removed: in the median of two
//! batches of 5 alternating runs it saved 36–39 % of the unit at 10⁵
//! devices but 5–8 % at 10⁶, where the seal's O(fleet) index copy
//! dominates (ROADMAP.md, *Measured and not wanted*).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fi_attest::{ChurnOp, TwoTierWeights};
use fi_fleet::{churn_trace, measurement_pool, ChurnTraceConfig, ShardedFleet};
use fi_types::{ReplicaId, VotingPower};

const SHARDS: usize = 4;
const K: usize = 64;
/// Untimed seals a `seal_select` cell runs first. A fleet's first
/// differential seals after its full build run slower while the allocator
/// settles, by up to a quarter at 10⁶ devices, which would otherwise fall
/// on whichever row is timed first.
const SETTLE_SEALS: usize = 8;

/// A fleet holding the registration wave, sealed once (epoch 1 is a full
/// build at any re-anchor interval).
fn sealed_fleet(wave: &[ChurnOp], reanchor_interval: u64) -> ShardedFleet {
    let fleet =
        ShardedFleet::with_reanchor_interval(SHARDS, TwoTierWeights::default(), reanchor_interval);
    fleet.try_ingest_batch(wave).unwrap();
    fleet.try_seal_epoch().unwrap();
    fleet
}

fn bench_fleet_seal(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_seal");
    for devices in [10_000u64, 100_000] {
        for churn_permille in [1usize, 10, 100] {
            let per_epoch = devices as usize * churn_permille / 1000;
            let trace = churn_trace(&ChurnTraceConfig::new(devices, per_epoch));
            let (wave, churn) = trace.split_at(devices as usize);
            let undo: Vec<ChurnOp> = churn
                .iter()
                .map(|op| wave[op.replica().as_u64() as usize])
                .collect();
            let cell = format!("{devices}dev/{churn_permille}permille");

            let differential = sealed_fleet(wave, 0);
            differential.try_ingest_batch(churn).unwrap();
            let snapshot = differential.try_seal_epoch().unwrap();
            group.bench_function(format!("select/pruned/{cell}"), |b| {
                b.iter(|| black_box(&snapshot).select_greedy(K));
            });

            if (devices, churn_permille) == (100_000, 1) {
                // The limiting case of quantised stake: as many devices over
                // the trace's measurement pool, every one at the same power,
                // so each bucket's list is a single run of equal power.
                let pool = measurement_pool(64);
                let flat: Vec<ChurnOp> = (0..devices)
                    .map(|i| {
                        let measurement = pool[i as usize % pool.len()];
                        ChurnOp::attest(ReplicaId::new(i), measurement, VotingPower::new(100))
                    })
                    .collect();
                let snapshot = sealed_fleet(&flat, 0).snapshot();
                group.bench_function(format!("select/pruned_ties/{cell}"), |b| {
                    b.iter(|| black_box(&snapshot).select_greedy(K));
                });
            }

            let full = sealed_fleet(wave, 1);
            full.try_ingest_batch(churn).unwrap();
            full.try_seal_epoch().unwrap();
            // Both fleets now hold the churned state, so the next epoch is
            // the undo.
            let epochs = [churn, undo.as_slice()];
            for (name, fleet) in [("seal/full", &full), ("seal/diff", &differential)] {
                let mut turn = 0;
                group.bench_function(format!("{name}/{cell}"), |b| {
                    b.iter(|| {
                        turn ^= 1;
                        fleet.try_ingest_batch(epochs[turn]).unwrap();
                        fleet.try_seal_epoch().unwrap()
                    });
                });
            }
            let mut turn = 0;
            group.bench_function(format!("ingest/{cell}"), |b| {
                b.iter(|| {
                    turn ^= 1;
                    full.try_ingest_batch(epochs[turn]).unwrap();
                });
            });
        }
    }
    for (devices, buckets, label) in [
        (20_000u64, 12usize, "12"),
        (20_000, 1_000, "1k"),
        (20_000, 10_000, "10k"),
        (200_000, 12, "12"),
        (200_000, 100_000, "100k"),
    ] {
        let pool = measurement_pool(buckets);
        let attest = |i: u64, bucket: usize| {
            ChurnOp::attest(
                ReplicaId::new(i),
                pool[bucket % buckets],
                VotingPower::new(1 + i % 1000),
            )
        };
        let wave: Vec<ChurnOp> = (0..devices)
            .map(|i| attest(i, i as usize % buckets))
            .collect();
        let moved: Vec<u64> = (0..100).map(|k| k * (devices / 100)).collect();
        let there: Vec<ChurnOp> = moved
            .iter()
            .map(|&i| attest(i, i as usize % buckets + 1))
            .collect();
        let back: Vec<ChurnOp> = moved.iter().map(|&i| wave[i as usize]).collect();
        let fleet = sealed_fleet(&wave, 0);
        let epochs = [there.as_slice(), back.as_slice()];
        let mut turn = 0;
        group.bench_function(format!("seal/diff_buckets/{label}/{devices}dev"), |b| {
            b.iter(|| {
                fleet.try_ingest_batch(epochs[turn]).unwrap();
                turn ^= 1;
                fleet.try_seal_epoch().unwrap()
            });
        });
    }
    for devices in [100_000u64, 1_000_000] {
        let trace = churn_trace(&ChurnTraceConfig::new(devices, devices as usize / 1000));
        let (wave, churn) = trace.split_at(devices as usize);
        let undo: Vec<ChurnOp> = churn
            .iter()
            .map(|op| wave[op.replica().as_u64() as usize])
            .collect();
        let fleet = sealed_fleet(wave, 0);
        let epochs = [churn, undo.as_slice()];
        let mut turn = 0;
        let mut seal_select = || {
            fleet.try_ingest_batch(epochs[turn]).unwrap();
            turn ^= 1;
            fleet.try_seal_epoch().unwrap().select_greedy(K)
        };
        for _ in 0..SETTLE_SEALS {
            seal_select();
        }
        group.bench_function(format!("seal_select/{devices}dev/1permille"), |b| {
            b.iter(&mut seal_select);
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fleet_seal);
criterion_main!(benches);
