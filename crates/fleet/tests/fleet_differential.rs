//! Differential concurrency suite: random churn interleavings applied to
//! the sharded fleet vs a single-threaded [`AttestedRegistry`] oracle —
//! now covering **both sealing paths**.
//!
//! The serving layer's claim is twofold:
//!
//! 1. **Sharding and threading are pure throughput knobs.** For any trace
//!    of register / deregister / re-register / re-attest batches and any
//!    shard count, the sealed [`EpochSnapshot`] is bit-identical to
//!    sealing one un-sharded registry that applied the same trace
//!    serially.
//! 2. **Differential sealing is a pure latency knob.** An epoch sealed by
//!    patching the previous snapshot with the drained [`ChurnDelta`]s
//!    ([`EpochSnapshot::try_apply_delta`]) is bit-identical to a
//!    from-scratch rebuild at *every* intermediate epoch: buckets, rosters,
//!    opaque power, content hash, and — because the patch folds its entropy
//!    accumulator from the patched buckets exactly as the rebuild does —
//!    every float a reader or the recommender's `peek_*` can observe.
//!
//! These properties drive randomly generated traces through shard counts
//! {1, 2, 4, 8} (real locks; the fleet applies on the calling thread) and
//! through forced full-rebuild cadences {every epoch, never, every 3rd} —
//! the cadence is how the suite gets its full-rebuild reference — diffing
//! the two sealing paths per intermediate epoch. The compares are the
//! suite's own `assert`s, so a `--release` run (where `try_apply_delta`'s
//! `debug_assert`s are compiled out) holds the shipped build to the oracle
//! too; CI runs it both ways.

use fi_attest::{AttestedRegistry, CanonicalDelta, ChurnOp, TwoTierWeights};
use fi_committee::greedy::greedy_diverse_naive;
use fi_fleet::{
    churn_trace, ChurnTraceConfig, DurabilityConfig, EpochSnapshot, SelectionCache, ShardedFleet,
};
use fi_types::{sha256, ReplicaId, VotingPower};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn weights() -> TwoTierWeights {
    TwoTierWeights::new(1.0, 0.5)
}

/// Churn over a small device space (to force re-registration collisions)
/// and a small measurement pool (to force cross-shard bucket merges).
/// About one registration in four, in either tier, is at zero power: rows
/// the selection index holds and never selects, re-registered to and from
/// power, and zero-weight live buckets.
fn op_strategy() -> impl Strategy<Value = ChurnOp> {
    (0u8..10, 0u64..24, 0usize..6, 0u8..4, 1u64..500).prop_map(|(kind, device, m, zero, power)| {
        let replica = ReplicaId::new(device);
        let measurement = sha256(format!("diff-cfg-{m}").as_bytes());
        let power = if zero == 0 { 0 } else { power };
        match kind {
            0..=5 => ChurnOp::attest(replica, measurement, VotingPower::new(power)),
            6..=7 => ChurnOp::Unattested {
                replica,
                power: VotingPower::new(power),
            },
            _ => ChurnOp::Deregister { replica },
        }
    })
}

/// Asserts a sealed fleet snapshot — however it was sealed — is bit-exact
/// against the canonical seal of the oracle registry, whatever op order
/// brought the oracle there, entropy and accumulator state included: the
/// configuration entropy has one value per fleet content.
fn assert_snapshot_matches_oracle(
    snap: &EpochSnapshot,
    oracle: &AttestedRegistry,
    shards: usize,
) -> Result<(), TestCaseError> {
    let oracle_snap = EpochSnapshot::from_registry(oracle, snap.epoch());
    prop_assert_eq!(
        snap.buckets(),
        oracle_snap.buckets(),
        "bucket contents diverged at {} shards",
        shards
    );
    prop_assert_eq!(snap.unattested_power(), oracle_snap.unattested_power());
    prop_assert!(snap.devices().eq(oracle_snap.devices()));
    prop_assert_eq!(snap.candidates(), oracle_snap.candidates());
    prop_assert_eq!(
        snap.total_effective_power(),
        oracle_snap.total_effective_power()
    );
    prop_assert_eq!(
        snap.content_hash(),
        oracle_snap.content_hash(),
        "content hash diverged at {} shards",
        shards
    );
    // The state the recommender's `peek_*` queries read.
    let (acc, oracle_acc) = (
        snap.entropy_accumulator(),
        oracle_snap.entropy_accumulator(),
    );
    prop_assert_eq!(acc.slots(), oracle_acc.slots());
    prop_assert_eq!(acc.total_weight(), oracle_acc.total_weight());
    prop_assert_eq!(acc.support_size(), oracle_acc.support_size());
    prop_assert_eq!(
        acc.weighted_log_sum().to_bits(),
        oracle_acc.weighted_log_sum().to_bits(),
        "Σ w·log2 w diverged from the canonical fold at {} shards",
        shards
    );
    for include in [false, true] {
        // Canonical vs canonical: the same bits, error cases included.
        prop_assert_eq!(
            snap.entropy_bits(include).map(f64::to_bits),
            oracle_snap.entropy_bits(include).map(f64::to_bits),
            "entropy (include={}) diverged from the canonical seal at {} shards",
            include,
            shards
        );
    }
    Ok(())
}

proptest! {
    // Pinned case count: the vendored proptest runner derives every case
    // seed from the test name, so this suite is reproducible bit-for-bit.
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// End-of-trace differential: every shard count seals the bit-exact
    /// oracle state regardless of batch partitioning. (A single seal is
    /// epoch 1 — the full-rebuild cold-start path.)
    #[test]
    fn sealed_snapshots_are_bit_exact_with_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..150),
        batch in 1usize..40,
    ) {
        let mut oracle = AttestedRegistry::new(weights());
        oracle.apply_batch(&ops);
        let mut hashes = Vec::new();
        for shards in SHARD_COUNTS {
            let fleet = ShardedFleet::new(shards, weights());
            for chunk in ops.chunks(batch) {
                fleet.try_ingest_batch(chunk).unwrap();
            }
            let snap = fleet.try_seal_epoch().unwrap();
            assert_snapshot_matches_oracle(&snap, &oracle, shards)?;
            hashes.push(snap.content_hash());
        }
        prop_assert!(hashes.windows(2).all(|w| w[0] == w[1]));
    }

    /// Mid-trace differential on the pure full-rebuild path (cadence 1):
    /// seal after *every* batch, comparing bit-exactly
    /// against an oracle that replayed the same prefix — re-registrations
    /// and departures are observed while in flight, not only at
    /// quiescence.
    #[test]
    fn every_intermediate_epoch_matches_oracle_prefix(
        ops in proptest::collection::vec(op_strategy(), 1..100),
        batch in 1usize..25,
    ) {
        let fleets: Vec<ShardedFleet> = SHARD_COUNTS
            .iter()
            .map(|&s| ShardedFleet::with_reanchor_interval(s, weights(), 1))
            .collect();
        let mut oracle = AttestedRegistry::new(weights());
        for chunk in ops.chunks(batch) {
            oracle.apply_batch(chunk);
            for (fleet, &shards) in fleets.iter().zip(&SHARD_COUNTS) {
                fleet.try_ingest_batch(chunk).unwrap();
                let snap = fleet.try_seal_epoch().unwrap();
                assert_snapshot_matches_oracle(&snap, &oracle, shards)?;
            }
        }
    }

    /// The tentpole invariant: at every intermediate epoch, the
    /// differential seal (no full rebuild after epoch 1) and a mixed
    /// cadence (a forced full rebuild every 3rd epoch) are
    /// **bit-identical** — same buckets, same roster, same candidates, same
    /// content hash, same entropy and accumulator bits — to the pure
    /// full-rebuild fleet and to the oracle prefix, across every shard
    /// count.
    #[test]
    fn differential_seals_are_byte_identical_to_full_rebuilds(
        ops in proptest::collection::vec(op_strategy(), 1..100),
        batch in 1usize..25,
    ) {
        let full: Vec<ShardedFleet> = SHARD_COUNTS
            .iter()
            .map(|&s| ShardedFleet::with_reanchor_interval(s, weights(), 1))
            .collect();
        let differential: Vec<ShardedFleet> = SHARD_COUNTS
            .iter()
            .map(|&s| ShardedFleet::with_reanchor_interval(s, weights(), 0))
            .collect();
        let mixed = ShardedFleet::with_reanchor_interval(4, weights(), 3);
        let mut oracle = AttestedRegistry::new(weights());
        for chunk in ops.chunks(batch) {
            oracle.apply_batch(chunk);
            mixed.try_ingest_batch(chunk).unwrap();
            assert_snapshot_matches_oracle(&mixed.try_seal_epoch().unwrap(), &oracle, 4)?;
            for ((fleet_full, fleet_diff), &shards) in
                full.iter().zip(&differential).zip(&SHARD_COUNTS)
            {
                fleet_full.try_ingest_batch(chunk).unwrap();
                fleet_diff.try_ingest_batch(chunk).unwrap();
                let snap_full = fleet_full.try_seal_epoch().unwrap();
                let snap_diff = fleet_diff.try_seal_epoch().unwrap();
                // The differential seal is byte-identical in canonical
                // content to the rebuild (and both match the oracle).
                prop_assert_eq!(snap_diff.buckets(), snap_full.buckets());
                prop_assert!(snap_diff.devices().eq(snap_full.devices()));
                prop_assert_eq!(snap_diff.candidates(), snap_full.candidates());
                prop_assert_eq!(
                    snap_diff.unattested_power(),
                    snap_full.unattested_power()
                );
                prop_assert_eq!(
                    snap_diff.total_effective_power(),
                    snap_full.total_effective_power()
                );
                prop_assert_eq!(
                    snap_diff.content_hash(),
                    snap_full.content_hash(),
                    "differential seal diverged from full rebuild at {} shards",
                    shards
                );
                assert_snapshot_matches_oracle(&snap_full, &oracle, shards)?;
                assert_snapshot_matches_oracle(&snap_diff, &oracle, shards)?;
                // Selection over the patched roster is byte-identical.
                prop_assert_eq!(
                    snap_diff.select_greedy(5).members(),
                    snap_full.select_greedy(5).members()
                );
            }
        }
    }

    /// `try_apply_delta` at the registry level: chaining a snapshot through
    /// drained deltas epoch after epoch reproduces `from_registry`'s
    /// canonical form bit-for-bit at every step.
    #[test]
    fn chained_apply_delta_matches_from_registry(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        batch in 1usize..20,
    ) {
        let mut registry = AttestedRegistry::new(weights());
        let mut chained = EpochSnapshot::empty(weights());
        // Baseline: the delta accumulated before the first cut is relative
        // to the empty registry, which is exactly what `empty()` serves.
        let mut epoch = 0;
        for chunk in ops.chunks(batch) {
            registry.apply_batch(chunk);
            epoch += 1;
            let delta = CanonicalDelta::merge(vec![registry.take_delta()]);
            chained = chained
                .try_apply_delta(epoch, &delta)
                .expect("a registry's own delta chains");
            let rebuilt = EpochSnapshot::from_registry(&registry, epoch);
            prop_assert_eq!(chained.buckets(), rebuilt.buckets());
            prop_assert!(chained.devices().eq(rebuilt.devices()));
            prop_assert_eq!(chained.candidates(), rebuilt.candidates());
            prop_assert_eq!(chained.unattested_power(), rebuilt.unattested_power());
            prop_assert_eq!(chained.content_hash(), rebuilt.content_hash());
            for include in [false, true] {
                prop_assert_eq!(
                    chained.entropy_bits(include).map(f64::to_bits),
                    rebuilt.entropy_bits(include).map(f64::to_bits),
                    "chained vs rebuilt entropy (include={})",
                    include
                );
            }
        }
        // Draining left nothing behind.
        prop_assert!(registry.take_delta().is_empty());
    }

    /// The selection read path is part of the guarantee: committees chosen
    /// over any shard count's snapshot are byte-identical to the oracle's.
    #[test]
    fn selections_over_snapshots_are_shard_invariant(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        k in 1usize..16,
    ) {
        let mut oracle = AttestedRegistry::new(weights());
        oracle.apply_batch(&ops);
        let oracle_committee = EpochSnapshot::from_registry(&oracle, 1).select_greedy(k);
        for shards in SHARD_COUNTS {
            let fleet = ShardedFleet::new(shards, weights());
            fleet.try_ingest_batch(&ops).unwrap();
            let committee = fleet.try_seal_epoch().unwrap().select_greedy(k);
            prop_assert_eq!(committee.members(), oracle_committee.members());
        }
    }

    /// The serving tentpole, end to end: at **every** intermediate epoch
    /// and every shard count, the pruned cold selection, the
    /// `select_greedy_warm` shim (handed the previous epoch's committee),
    /// and the memoized [`SelectionCache`] all produce the member sequence
    /// of the naive `greedy_diverse_naive` oracle over the merged roster,
    /// byte for byte — through member evictions, re-anchor epochs (every
    /// 3rd here: `parent_hash` is `None`), and heavy churn batches on this
    /// small device space.
    #[test]
    fn warm_and_cached_selections_match_naive_oracle_at_every_epoch(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        batch in 1usize..25,
        k in 1usize..12,
    ) {
        let fleets: Vec<ShardedFleet> = SHARD_COUNTS
            .iter()
            .map(|&s| ShardedFleet::with_reanchor_interval(s, weights(), 3))
            .collect();
        let caches: Vec<SelectionCache> =
            SHARD_COUNTS.iter().map(|_| SelectionCache::default()).collect();
        // Per fleet: the previous epoch's committee.
        let mut previous: Vec<Option<fi_committee::Committee>> =
            SHARD_COUNTS.iter().map(|_| None).collect();
        let mut oracle = AttestedRegistry::new(weights());
        for chunk in ops.chunks(batch) {
            oracle.apply_batch(chunk);
            let oracle_snap = EpochSnapshot::from_registry(&oracle, 0);
            let expected = greedy_diverse_naive(oracle_snap.candidates(), k);
            for (i, (fleet, cache)) in fleets.iter().zip(&caches).enumerate() {
                fleet.try_ingest_batch(chunk).unwrap();
                let snap = fleet.try_seal_epoch().unwrap();
                prop_assert_eq!(
                    snap.select_greedy(k).members(),
                    expected.members(),
                    "cold pruned selection diverged from the naive oracle at epoch {}, {} shards",
                    snap.epoch(),
                    SHARD_COUNTS[i]
                );
                if let Some(prev) = &previous[i] {
                    let (warm, report) = snap.select_greedy_warm(k, prev.members());
                    prop_assert_eq!(
                        warm.members(),
                        expected.members(),
                        "warm selection diverged at epoch {}, {} shards ({:?})",
                        snap.epoch(),
                        SHARD_COUNTS[i],
                        report
                    );
                }
                let cached = cache.select_greedy(&snap, k);
                prop_assert_eq!(
                    cached.members(),
                    expected.members(),
                    "cached selection diverged at epoch {}, {} shards",
                    snap.epoch(),
                    SHARD_COUNTS[i]
                );
                // The fleet's own memo serves the same committee, and the
                // index keeps each member's tier in the list that held it:
                // a member is attested exactly when its configuration is a
                // measurement bucket, not the unattested pseudo-slot.
                let served = fleet.select_greedy_cached(k);
                prop_assert_eq!(served.members(), expected.members());
                for m in served.members() {
                    prop_assert_eq!(
                        m.attested(),
                        m.config() < snap.buckets().len(),
                        "member {:?} at epoch {}",
                        m,
                        snap.epoch()
                    );
                }
                previous[i] = Some((*cached).clone());
            }
        }
    }
}

/// An untouched device's configuration is the position of the list that
/// holds it — zero-power devices included — so when a bucket is born or
/// dies every untouched row's slot has to move with it. This chain keeps one attested device, one unattested and
/// one zero-power device untouched from epoch 1 on while buckets are born
/// in front of their slot, die in front of it, both at once, and neither,
/// so the remap is a real permutation on exactly the rows no delta names.
/// Every seal is differential and compared with the oracle.
#[test]
fn untouched_rows_follow_their_slot_through_bucket_births_and_deaths() {
    let mut cfg: Vec<fi_types::Digest> = (0..6)
        .map(|i| sha256(format!("slot-cfg-{i}").as_bytes()))
        .collect();
    cfg.sort_unstable();
    let attest = |id: u64, m: usize, power: u64| {
        ChurnOp::attest(ReplicaId::new(id), cfg[m], VotingPower::new(power))
    };
    let leave = |id: u64| ChurnOp::Deregister {
        replica: ReplicaId::new(id),
    };
    let survivor = ReplicaId::new(20);
    // (batch, the survivor's bucket slot afterwards)
    let chain: [(Vec<ChurnOp>, usize); 6] = [
        (
            vec![
                attest(10, 1, 30),
                attest(20, 3, 50),
                ChurnOp::Unattested {
                    replica: ReplicaId::new(30),
                    power: VotingPower::new(70),
                },
                attest(31, 3, 0),
            ],
            1,
        ),
        // Births in front of the survivor's slot: at the front and between.
        (vec![attest(40, 0, 10), attest(41, 2, 20)], 3),
        // A death in front of it, a birth behind it.
        (vec![leave(10), attest(42, 4, 40)], 2),
        // A death and a birth in front of it in one epoch: the slot count
        // is unchanged and the map is still not the identity.
        (vec![leave(40), attest(43, 1, 15)], 2),
        // Neither: the identity epoch, runs copied as slices.
        (vec![attest(41, 2, 25), leave(99)], 2),
        // The last bucket dies behind it; the unattested slot still moves.
        (vec![leave(42)], 2),
    ];

    let fleet = ShardedFleet::with_reanchor_interval(2, weights(), 0);
    let mut oracle = AttestedRegistry::new(weights());
    for (batch, slot) in &chain {
        fleet.try_ingest_batch(batch).unwrap();
        oracle.apply_batch(batch);
        let snap = fleet.try_seal_epoch().unwrap();
        assert_eq!(snap.parent_hash().is_none(), snap.epoch() == 1);
        assert_snapshot_matches_oracle(&snap, &oracle, 2)
            .unwrap_or_else(|e| panic!("epoch {}: {e:?}", snap.epoch()));
        let row = snap
            .candidates()
            .iter()
            .find(|c| c.replica() == survivor)
            .expect("the survivor never leaves");
        assert_eq!(row.config(), *slot, "epoch {}", snap.epoch());
        assert_eq!(snap.buckets()[row.config()].0, cfg[3]);
        assert_eq!(
            snap.select_greedy(4).members(),
            greedy_diverse_naive(snap.candidates(), 4).members()
        );
    }
}

/// Each shard issues its own bucket handles and recycles a dead bucket's,
/// and a differential seal resolves each shard's handles once, against that
/// shard's table. Here, in one epoch, `old` dies: in shard 0 (of 4) its one
/// member leaves and `new` takes its handle, in shard 1 another member moves
/// to `keep`, and devices in both shards land on `new`. So handle 0 names
/// `new` in shard 0's table and `keep` in shard 1's, and shard 1's `new`
/// sits on `old`'s recycled handle 1 — as does the one shard's `new` at
/// 1 shard. Every seal after the first is differential and is held to the
/// oracle bit for bit.
#[test]
fn recycled_handles_resolve_against_their_own_shards_table() {
    let [old, keep, new, other] =
        ["old", "keep", "new", "other"].map(|m| sha256(format!("recycle-cfg-{m}").as_bytes()));
    let attest =
        |id: u64, m, power: u64| ChurnOp::attest(ReplicaId::new(id), m, VotingPower::new(power));
    let leave = |id: u64| ChurnOp::Deregister {
        replica: ReplicaId::new(id),
    };
    let chain = [
        vec![
            attest(0, old, 10),
            attest(4, keep, 20),
            attest(1, keep, 30),
            attest(13, old, 40),
            attest(5, keep, 50),
            attest(2, other, 60),
            ChurnOp::Unattested {
                replica: ReplicaId::new(3),
                power: VotingPower::new(70),
            },
        ],
        vec![
            leave(0),
            attest(13, keep, 45),
            attest(8, new, 80),
            attest(9, new, 90),
            attest(5, keep, 55),
            attest(4, new, 25),
        ],
        // `new` dies in shard 1 and `old` comes back on its handle.
        vec![leave(9), attest(17, old, 15), attest(1, keep, 35)],
    ];
    for shards in [1, 4] {
        let fleet = ShardedFleet::with_reanchor_interval(shards, weights(), 0);
        let mut oracle = AttestedRegistry::new(weights());
        for batch in &chain {
            fleet.try_ingest_batch(batch).unwrap();
            oracle.apply_batch(batch);
            let snap = fleet.try_seal_epoch().unwrap();
            assert_eq!(snap.parent_hash().is_none(), snap.epoch() == 1);
            assert_snapshot_matches_oracle(&snap, &oracle, shards)
                .unwrap_or_else(|e| panic!("epoch {} at {shards} shards: {e:?}", snap.epoch()));
        }
    }
}

/// A snapshot keeps no replica-sorted table: `candidates()` / `devices()`
/// are derived from the selection index on first use. So the derivation
/// must not lean on anything a previous snapshot materialised — here
/// nothing asks for the roster at any of 50 differential epochs, and at the
/// end both views equal the rehashing oracle's — and first use must be
/// safe from any number of threads at once: they all get the one slice.
#[test]
fn the_roster_is_derived_on_demand_once_and_from_this_snapshot_alone() {
    let trace = churn_trace(&ChurnTraceConfig::new(300, 50 * 40));
    let fleet = ShardedFleet::with_reanchor_interval(4, weights(), 0);
    let mut oracle = AttestedRegistry::new(weights());
    let (wave, churn) = trace.split_at(300);
    fleet.try_ingest_batch(wave).unwrap();
    oracle.apply_batch(wave);
    fleet.try_seal_epoch().unwrap();
    let mut last = fleet.snapshot();
    for batch in churn.chunks(40) {
        fleet.try_ingest_batch(batch).unwrap();
        oracle.apply_batch(batch);
        last = fleet.try_seal_epoch().unwrap();
        // Cheap reads only: none of them builds the roster.
        assert!(last.parent_hash().is_some(), "epoch {}", last.epoch());
        assert_eq!(last.device_count(), oracle.len());
        assert_eq!(last.select_greedy(8).len(), 8);
    }
    assert_eq!(last.epoch(), 51);
    let expected = EpochSnapshot::from_registry(&oracle, last.epoch());
    assert_eq!(last.content_hash(), expected.content_hash());

    const READERS: usize = 8;
    let barrier = std::sync::Barrier::new(READERS);
    // (address, length) of what each first caller got.
    let slices: Vec<(usize, usize)> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    let roster = last.candidates();
                    (roster.as_ptr() as usize, roster.len())
                })
            })
            .collect();
        readers
            .into_iter()
            .map(|reader| reader.join().expect("reader thread"))
            .collect()
    });
    let served = last.candidates();
    assert!(slices
        .iter()
        .all(|&slice| slice == (served.as_ptr() as usize, served.len())));
    assert_eq!(last.candidates(), expected.candidates());
    assert!(last.devices().eq(expected.devices()));
    assert!(last
        .candidates()
        .windows(2)
        .all(|w| w[0].replica() < w[1].replica()));
}

/// A fleet re-anchor no longer hashes the roster: it sums the shards'
/// write-time row-digest aggregates, which by then have lived through
/// differential epochs of in/out moves and delta drains. The oracle
/// ([`EpochSnapshot::from_registry`]) still hashes every row from scratch,
/// so equal content hashes here mean the summed aggregates are right —
/// checked with plain `assert!`s so a `--release` run checks it too (the
/// fleet's own cross-check is a `debug_assert`).
#[test]
fn reanchors_over_shard_aggregates_hash_like_the_rehashing_oracle() {
    const REANCHOR_EVERY: u64 = 4;
    let trace = churn_trace(&ChurnTraceConfig::new(400, 2_000));
    for shards in SHARD_COUNTS {
        let fleet = ShardedFleet::with_reanchor_interval(shards, weights(), REANCHOR_EVERY);
        let mut oracle = AttestedRegistry::new(weights());
        let mut full_seals = 0;
        for batch in trace.chunks(200) {
            fleet.try_ingest_batch(batch).unwrap();
            oracle.apply_batch(batch);
            let snap = fleet.try_seal_epoch().unwrap();
            let full = snap.epoch() == 1 || snap.epoch().is_multiple_of(REANCHOR_EVERY);
            assert_eq!(
                snap.parent_hash().is_none(),
                full,
                "epoch {} took the wrong sealing path",
                snap.epoch()
            );
            full_seals += usize::from(full);
            assert_eq!(
                snap.content_hash(),
                EpochSnapshot::from_registry(&oracle, snap.epoch()).content_hash(),
                "{} seal at epoch {} diverged from the oracle at {shards} shards",
                if full { "full" } else { "differential" },
                snap.epoch()
            );
        }
        assert_eq!(full_seals, 4, "epochs 1, 4, 8 and 12 re-anchor");
    }
}

/// [`ShardedFleet::try_ingest_batch`] is `log_batch` → `split_by_shard` →
/// `apply_shard_batch` per non-empty shard, under one gate hold instead of
/// one per step. Driven step by step from one thread, the public pieces
/// must therefore leave exactly what the whole leaves: the same count after
/// every batch, the same `(epoch, content_hash)` at every seal (cadence 4,
/// so both sealing paths), and — both fleets being durable — the same
/// bytes in the same WAL segments.
#[test]
fn try_ingest_batch_equals_its_public_steps_run_one_by_one() {
    let trace = churn_trace(&ChurnTraceConfig::new(400, 2_000));
    let base = std::env::temp_dir().join(format!("fi-fleet-composition-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let wal_segments = |dir: &std::path::Path| {
        let mut segments: Vec<(std::ffi::OsString, Vec<u8>)> = std::fs::read_dir(dir)
            .expect("durability dir exists")
            .map(|entry| entry.expect("dir entry"))
            .filter(|entry| entry.file_name().to_string_lossy().starts_with("wal-"))
            .map(|entry| {
                let bytes = std::fs::read(entry.path()).expect("segment readable");
                (entry.file_name(), bytes)
            })
            .collect();
        segments.sort();
        segments
    };
    for shards in SHARD_COUNTS {
        let open = |tag: &str| {
            let dir = base.join(format!("{tag}-{shards}"));
            // Small segments, so the comparison spans rotations.
            let config = DurabilityConfig::new(&dir).with_segment_bytes(4096);
            let (fleet, _) =
                ShardedFleet::open_durable(shards, weights(), 4, config).expect("cold start");
            (fleet, dir)
        };
        let (whole, whole_dir) = open("whole");
        let (stepped, stepped_dir) = open("stepped");
        for batch in trace.chunks(200) {
            whole.try_ingest_batch(batch).expect("healthy disk");
            stepped.log_batch(batch).expect("healthy disk");
            for (shard, ops) in stepped.split_by_shard(batch).iter().enumerate() {
                if !ops.is_empty() {
                    stepped.apply_shard_batch(shard, ops);
                }
            }
            assert_eq!(stepped.device_count(), whole.device_count());
            let sealed = whole.try_seal_epoch().expect("healthy disk");
            let sealed_stepped = stepped.try_seal_epoch().expect("healthy disk");
            assert_eq!(
                (sealed_stepped.epoch(), sealed_stepped.content_hash()),
                (sealed.epoch(), sealed.content_hash()),
                "the stepped fleet sealed a different chain at {shards} shards"
            );
        }
        let segments = wal_segments(&whole_dir);
        assert!(segments.len() > 1, "the trace must rotate the log");
        assert_eq!(wal_segments(&stepped_dir), segments);
    }
    let _ = std::fs::remove_dir_all(&base);
}
