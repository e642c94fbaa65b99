//! Edge-case suite for [`AttestedRegistry`]'s incrementally maintained
//! measurement buckets: re-registration under a changed measurement,
//! deregistering the last member of a bucket, and a bucket's row leaving
//! and returning — each step cross-checked against a full recount of the
//! registry's rows.
//!
//! The registry keeps one integer bucket table it updates per op, and a
//! seal reads that table (`bucket_rows`, `unattested_power`) instead of
//! the devices; these tests are the proof that the table never diverges
//! from a from-scratch recount of `devices()`, no matter how the
//! membership churns, and that what it holds depends on the content alone.

use std::collections::BTreeMap;

use fi_attest::{
    device_row_digest, AfterRow, AttestedRegistry, BucketDelta, CanonicalDelta, ChurnDelta,
    ChurnOp, RegisteredDevice, ReplicaTier, TwoTierWeights,
};
use fi_types::hash::SetDigest;
use fi_types::{sha256, Digest, ReplicaId, VotingPower};
use proptest::prelude::*;

fn register(reg: &mut AttestedRegistry, replica: u64, measurement: &[u8], power: u64) {
    reg.apply(&ChurnOp::attest(
        ReplicaId::new(replica),
        sha256(measurement),
        VotingPower::new(power),
    ));
}

fn register_unattested(reg: &mut AttestedRegistry, replica: u64, power: u64) {
    reg.apply(&ChurnOp::Unattested {
        replica: ReplicaId::new(replica),
        power: VotingPower::new(power),
    });
}

/// Deregisters `replica`, returning whether it was registered.
fn deregister(reg: &mut AttestedRegistry, replica: u64) -> bool {
    let before = reg.len();
    reg.apply(&ChurnOp::Deregister {
        replica: ReplicaId::new(replica),
    });
    reg.len() < before
}

/// The bucket table as a seal reads it.
fn table(reg: &AttestedRegistry) -> Vec<(Digest, VotingPower)> {
    reg.bucket_rows().collect()
}

/// `replica`'s row, if it is registered.
fn row(reg: &AttestedRegistry, replica: u64) -> Option<RegisteredDevice> {
    reg.devices().find(|d| d.replica == ReplicaId::new(replica))
}

/// Effective power over both tiers, read off the bucket table.
fn total(reg: &AttestedRegistry) -> VotingPower {
    table(reg).iter().map(|&(_, p)| p).sum::<VotingPower>() + reg.unattested_power()
}

/// Full recount oracle: asserts the bucket rows, the opaque power and the
/// device count equal what a from-scratch pass over `devices()` derives,
/// ignoring all incremental state.
fn assert_matches_recount(reg: &AttestedRegistry, context: &str) {
    let weights = reg.weights();
    let mut recount: BTreeMap<Digest, VotingPower> = BTreeMap::new();
    let mut opaque = VotingPower::ZERO;
    let mut devices = 0;
    for d in reg.devices() {
        devices += 1;
        if d.tier() == ReplicaTier::Attested {
            let m = d
                .measurement
                .expect("an attested device names its measurement");
            *recount.entry(m).or_insert(VotingPower::ZERO) += d.power.scaled(weights.attested());
        } else {
            opaque += d.power.scaled(weights.unattested());
        }
    }
    assert_eq!(
        table(reg),
        recount.into_iter().collect::<Vec<_>>(),
        "{context}: bucket rows diverged from the recount"
    );
    assert_eq!(
        reg.unattested_power(),
        opaque,
        "{context}: opaque power diverged from the recount"
    );
    assert_eq!(reg.len(), devices, "{context}: device count");
}

#[test]
fn re_registration_under_changed_measurement_moves_the_bucket() {
    let mut reg = AttestedRegistry::new(TwoTierWeights::flat());
    register(&mut reg, 0, b"cfg-a", 60);
    register(&mut reg, 1, b"cfg-a", 40);
    register(&mut reg, 2, b"cfg-b", 50);
    assert_matches_recount(&reg, "initial population");
    assert_eq!(table(&reg).len(), 2);

    // Replica 1 reconfigures: cfg-a → cfg-b. Power must leave one bucket
    // and land in the other, atomically.
    register(&mut reg, 1, b"cfg-b", 40);
    assert_matches_recount(&reg, "after cross-bucket re-registration");
    assert_eq!(row(&reg, 1).unwrap().measurement, Some(sha256(b"cfg-b")));
    let rows_now = table(&reg);
    assert_eq!(rows_now.len(), 2);
    let powers: Vec<u64> = rows_now.iter().map(|(_, p)| p.as_units()).collect();
    assert!(
        powers.contains(&60) && powers.contains(&90),
        "rows: {rows_now:?}"
    );

    // Replica 0 re-attests the *same* measurement with new power: the
    // bucket updates in place, no phantom rows.
    register(&mut reg, 0, b"cfg-a", 75);
    assert_matches_recount(&reg, "after same-bucket re-registration");
    assert_eq!(total(&reg), VotingPower::new(75 + 90));
}

#[test]
fn deregistering_the_last_member_of_a_bucket_removes_its_row() {
    let mut reg = AttestedRegistry::new(TwoTierWeights::flat());
    register(&mut reg, 0, b"cfg-a", 100);
    register(&mut reg, 1, b"cfg-b", 50);
    register(&mut reg, 2, b"cfg-b", 50);
    assert_matches_recount(&reg, "initial population");

    // cfg-a has exactly one member; deregistering it must erase the row
    // entirely (not leave a zero-weight ghost in the distribution).
    assert!(deregister(&mut reg, 0));
    assert_matches_recount(&reg, "after deregistering a bucket's last member");
    assert_eq!(reg.len(), 2);
    assert_eq!(table(&reg), vec![(sha256(b"cfg-b"), VotingPower::new(100))]);

    // Deregistering the other two empties the registry; the table holds
    // the degenerate state rather than stale buckets.
    assert!(deregister(&mut reg, 1));
    assert!(deregister(&mut reg, 2));
    assert!(reg.is_empty());
    assert_matches_recount(&reg, "after emptying the registry");
    assert!(table(&reg).is_empty());
    assert_eq!(total(&reg), VotingPower::ZERO);

    // Deregistering an unknown replica is a no-op that says so.
    assert!(!deregister(&mut reg, 9));
    assert!(!deregister(&mut reg, 0), "double deregister");
}

#[test]
fn recycled_slots_serve_new_measurements_without_residue() {
    let mut reg = AttestedRegistry::new(TwoTierWeights::flat());
    register(&mut reg, 0, b"cfg-a", 30);
    register(&mut reg, 1, b"cfg-b", 70);

    // Empty cfg-a's bucket, then introduce a brand-new measurement:
    // nothing of cfg-a leaks into cfg-c.
    assert!(deregister(&mut reg, 0));
    register(&mut reg, 2, b"cfg-c", 30);
    assert_matches_recount(&reg, "after a bucket left and another arrived");
    let rows_now = table(&reg);
    assert_eq!(rows_now.len(), 2);
    assert!(
        rows_now.iter().all(|(m, _)| *m != sha256(b"cfg-a")),
        "the emptied measurement must not resurface: {rows_now:?}"
    );
    assert!(rows_now.iter().any(|(m, _)| *m == sha256(b"cfg-c")));

    // Churn one replica across many measurements;
    // the live row count must stay bounded by the live measurement set.
    for round in 0u64..20 {
        let name = format!("cfg-churn-{round}");
        register(&mut reg, 3, name.as_bytes(), 10 + round);
        assert_matches_recount(&reg, "during churn");
        assert_eq!(
            table(&reg).len(),
            3,
            "round {round}: abandoned buckets must not accumulate rows"
        );
    }
}

#[test]
fn tier_flips_move_power_between_buckets_and_opaque_pool() {
    let mut reg = AttestedRegistry::new(TwoTierWeights::new(1.0, 0.5));
    register(&mut reg, 0, b"cfg-a", 100);
    register_unattested(&mut reg, 1, 100);
    assert_matches_recount(&reg, "mixed tiers");
    assert_eq!(total(&reg), VotingPower::new(150));

    // The attested replica drops to the unattested tier: its bucket (the
    // last cfg-a member) empties and its discounted power joins the pool.
    register_unattested(&mut reg, 0, 100);
    assert_matches_recount(&reg, "after attested→unattested flip");
    assert_eq!(row(&reg, 0).unwrap().tier(), ReplicaTier::Unattested);
    assert_eq!(reg.unattested_power(), VotingPower::new(100));
    assert!(table(&reg).is_empty(), "no attested rows remain");

    // And back: re-attestation rebuilds the bucket from the opaque pool.
    register(&mut reg, 0, b"cfg-a", 100);
    assert_matches_recount(&reg, "after unattested→attested flip");
    assert_eq!(total(&reg), VotingPower::new(150));
    assert_eq!(table(&reg).len(), 1);
}

// --- ChurnDelta maintenance: the differential-sealing feed ------------

/// Drains `reg`'s pending churn into the form a sealer reads.
fn drain(reg: &mut AttestedRegistry) -> CanonicalDelta {
    CanonicalDelta::merge(vec![reg.take_delta()])
}

/// One touched device's roster rows at the two ends of the span a delta
/// covers: `None` where it was not registered.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RosterChange {
    before: Option<RegisteredDevice>,
    after: Option<RegisteredDevice>,
}

/// The touched devices in drain order, each `after` row rebuilt whole from
/// the delta's walk with the identity mapping.
fn roster_of(delta: &CanonicalDelta) -> Vec<(ReplicaId, RosterChange)> {
    delta
        .walk(|&m| m)
        .map(|row| {
            let replica = row.replica;
            let device = |measurement, power| RegisteredDevice {
                replica,
                measurement,
                power,
            };
            let after = match row.after {
                AfterRow::Gone => None,
                AfterRow::Unattested(power) => Some(device(None, power)),
                AfterRow::Attested { bucket, power, .. } => Some(device(Some(bucket), power)),
                AfterRow::Dangling(handle) => panic!("{replica} names dangling handle {handle}"),
            };
            let before = row.before.copied();
            (replica, RosterChange { before, after })
        })
        .collect()
}

/// A merged delta's buckets, unattested power, roster aggregate and roster
/// rows — the last as a copy sorted by replica: a merge keeps them in
/// drain order, which follows the sharding.
type Rows = (
    Vec<(Digest, BucketDelta)>,
    Option<VotingPower>,
    SetDigest,
    Vec<(ReplicaId, RosterChange)>,
);

fn rows(delta: &CanonicalDelta) -> Rows {
    let mut roster = roster_of(delta);
    roster.sort_by_key(|&(replica, _)| replica);
    (
        delta.buckets().to_vec(),
        delta.unattested_power(),
        delta.roster_digest(),
        roster,
    )
}

#[test]
fn take_delta_reflects_net_churn_and_drains() {
    let mut reg = AttestedRegistry::new(TwoTierWeights::new(1.0, 0.5));
    assert!(reg.take_delta().is_empty(), "fresh registry, empty delta");

    reg.apply(&ChurnOp::attest(
        ReplicaId::new(0),
        sha256(b"cfg-a"),
        VotingPower::new(40),
    ));
    reg.apply(&ChurnOp::Unattested {
        replica: ReplicaId::new(1),
        power: VotingPower::new(100),
    });
    reg.apply(&ChurnOp::attest(
        ReplicaId::new(2),
        sha256(b"cfg-a"),
        VotingPower::new(10),
    ));
    reg.apply(&ChurnOp::Deregister {
        replica: ReplicaId::new(2),
    });

    let delta = drain(&mut reg);
    // cfg-a: +40 (r0) +10 −10 (r2 came and went) = +40, one net member.
    let buckets = delta.buckets();
    assert_eq!(buckets.len(), 1);
    assert_eq!(buckets[0].0, sha256(b"cfg-a"));
    assert_eq!(buckets[0].1.power, 40);
    assert_eq!(buckets[0].1.members, 1);
    // Opaque: 100 at the 0.5 unattested weight, the registry's at the
    // drain.
    assert_eq!(delta.unattested_power(), Some(VotingPower::new(50)));
    assert_eq!(delta.roster_digest(), reg.roster_digest());
    // Roster: every *touched* device with its row before and after. None
    // of the three was registered when the epoch began.
    let roster = roster_of(&delta);
    assert_eq!(roster.len(), 3);
    assert!(roster.iter().all(|(_, change)| change.before.is_none()));
    assert_eq!(roster[0].0, ReplicaId::new(0));
    let after = |at: usize| roster[at].1.after;
    assert_eq!(after(0).unwrap().measurement, Some(sha256(b"cfg-a")));
    assert_eq!(after(1).unwrap().tier(), ReplicaTier::Unattested);
    assert_eq!((roster[2].0, after(2)), (ReplicaId::new(2), None));

    // Draining resets; further churn starts a fresh delta.
    assert!(reg.take_delta().is_empty());
    reg.apply(&ChurnOp::Deregister {
        replica: ReplicaId::new(0),
    });
    let next = drain(&mut reg);
    let buckets = next.buckets();
    assert_eq!(buckets.len(), 1);
    assert_eq!(buckets[0].1.power, -40);
    assert_eq!(buckets[0].1.members, -1);
    // The departure carries the row it removed.
    let roster = roster_of(&next);
    let [(replica, change)] = roster[..] else {
        panic!("one touched device, got {roster:?}");
    };
    assert_eq!(replica, ReplicaId::new(0));
    assert_eq!(change.before, after(0));
    assert_eq!(change.after, None);
}

#[test]
fn reregistration_within_an_epoch_collapses_to_final_state() {
    let mut reg = AttestedRegistry::new(TwoTierWeights::flat());
    reg.apply(&ChurnOp::attest(
        ReplicaId::new(7),
        sha256(b"cfg-a"),
        VotingPower::new(25),
    ));
    reg.apply(&ChurnOp::attest(
        ReplicaId::new(7),
        sha256(b"cfg-b"),
        VotingPower::new(60),
    ));
    let delta = drain(&mut reg);
    // cfg-a was born and died inside the epoch: pruned as a no-op.
    let buckets = delta.buckets();
    assert_eq!(buckets.len(), 1);
    assert_eq!(buckets[0].0, sha256(b"cfg-b"));
    assert_eq!(buckets[0].1.power, 60);
    assert_eq!(buckets[0].1.members, 1);
    // One roster entry: not registered before the epoch (the first touch
    // decides that, not the re-registration that displaced cfg-a's row),
    // and the final state after it.
    let roster = roster_of(&delta);
    assert_eq!(roster.len(), 1);
    assert_eq!(roster[0].1.before, None);
    let device = roster[0].1.after.unwrap();
    assert_eq!(device.measurement, Some(sha256(b"cfg-b")));
    assert_eq!(device.power, VotingPower::new(60));
}

#[test]
fn sharded_deltas_merge_to_the_unsharded_delta() {
    // The sealer's merge contract: splitting a trace across shards by
    // device id and merging the drained deltas nets out to exactly the
    // delta a single registry accumulates over the whole trace.
    let trace: Vec<ChurnOp> = (0..30u64)
        .flat_map(|i| {
            vec![
                ChurnOp::attest(
                    ReplicaId::new(i),
                    sha256(format!("cfg-{}", i % 4).as_bytes()),
                    VotingPower::new(10 + i),
                ),
                if i % 5 == 0 {
                    ChurnOp::Deregister {
                        replica: ReplicaId::new(i),
                    }
                } else {
                    ChurnOp::attest(
                        ReplicaId::new(i),
                        sha256(format!("cfg-{}", i % 3).as_bytes()),
                        VotingPower::new(20 + i),
                    )
                },
            ]
        })
        .collect();

    let mut whole = AttestedRegistry::new(TwoTierWeights::new(1.0, 0.5));
    whole.apply_batch(&trace);

    let mut shards = [
        AttestedRegistry::new(TwoTierWeights::new(1.0, 0.5)),
        AttestedRegistry::new(TwoTierWeights::new(1.0, 0.5)),
        AttestedRegistry::new(TwoTierWeights::new(1.0, 0.5)),
    ];
    for op in &trace {
        shards[(op.replica().as_u64() % 3) as usize].apply(op);
    }
    let merged = CanonicalDelta::merge(
        shards
            .iter_mut()
            .map(AttestedRegistry::take_delta)
            .collect(),
    );
    assert_eq!(rows(&merged), rows(&drain(&mut whole)));
}

/// The roster aggregate re-derived from scratch: every row `devices()`
/// yields, hashed here. `devices()` iterates a `HashMap`, which is fine —
/// the aggregate is a commutative sum.
fn refold(reg: &AttestedRegistry) -> SetDigest {
    let mut agg = SetDigest::EMPTY;
    for d in reg.devices() {
        agg.insert(&device_row_digest(&d));
    }
    agg
}

/// The unattested tier's effective power re-derived from scratch, from
/// the rows `devices()` yields.
fn unattested_recount(reg: &AttestedRegistry) -> VotingPower {
    reg.devices()
        .filter(|d| d.tier() == ReplicaTier::Unattested)
        .map(|d| d.power.scaled(reg.weights().unattested()))
        .sum()
}

/// Churn over a deliberately tiny id / measurement / power space, so
/// random interleavings keep hitting the collapsing cases: re-registration
/// with an identical row, deregister of an absent device,
/// register→deregister inside one epoch, and attested↔unattested flips.
fn churn_op() -> impl Strategy<Value = ChurnOp> {
    (0u8..3, 0u64..6, 0u8..3, 1u64..4).prop_map(|(kind, id, cfg, power)| {
        let replica = ReplicaId::new(id);
        match kind {
            0 => ChurnOp::attest(
                replica,
                sha256(format!("cfg-{cfg}").as_bytes()),
                VotingPower::new(power * 10),
            ),
            1 => ChurnOp::Unattested {
                replica,
                power: VotingPower::new(power * 10),
            },
            _ => ChurnOp::Deregister { replica },
        }
    })
}

proptest! {
    // Pinned case count: the vendored proptest runner derives every case
    // seed from the test name, so this suite is reproducible bit-for-bit.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The write-time aggregate never drifts from a from-scratch fold, and
    /// every drain carries its registry's refolded aggregate and recounted
    /// unattested power — per shard, and summed across shards merged in
    /// either order, where the fleet's sums are the shards' and the single
    /// registry's.
    #[test]
    fn roster_digest_equals_refold_and_drained_row_changes(
        epochs in proptest::collection::vec(
            proptest::collection::vec(churn_op(), 0..12),
            1..6,
        ),
        merge_reversed in any::<bool>(),
    ) {
        const SHARDS: usize = 3;
        let weights = TwoTierWeights::new(1.0, 0.5);
        let mut whole = AttestedRegistry::new(weights);
        let mut shards: Vec<AttestedRegistry> =
            (0..SHARDS).map(|_| AttestedRegistry::new(weights)).collect();
        for ops in &epochs {
            for op in ops {
                whole.apply(op);
                shards[(op.replica().as_u64() % SHARDS as u64) as usize].apply(op);
                prop_assert_eq!(whole.roster_digest(), refold(&whole));
            }

            let sealed_whole = drain(&mut whole);
            prop_assert_eq!(sealed_whole.roster_digest(), refold(&whole));
            prop_assert_eq!(sealed_whole.unattested_power(), Some(unattested_recount(&whole)));
            prop_assert_eq!(whole.roster_digest(), refold(&whole), "draining moved the aggregate");

            let mut drained: Vec<ChurnDelta> =
                shards.iter_mut().map(AttestedRegistry::take_delta).collect();
            let mut shard_agg = SetDigest::EMPTY;
            let mut shard_power = VotingPower::ZERO;
            for (shard, delta) in shards.iter().zip(&drained) {
                let sealed_shard = CanonicalDelta::merge(vec![delta.clone()]);
                prop_assert_eq!(sealed_shard.roster_digest(), refold(shard));
                prop_assert_eq!(sealed_shard.unattested_power(), Some(unattested_recount(shard)));
                shard_agg.add(refold(shard));
                shard_power += unattested_recount(shard);
            }
            if merge_reversed {
                drained.reverse();
            }
            let sealed_fleet = CanonicalDelta::merge(drained);
            prop_assert_eq!(sealed_fleet.roster_digest(), shard_agg);
            prop_assert_eq!(sealed_fleet.unattested_power(), Some(shard_power));
            prop_assert_eq!(sealed_fleet.roster_digest(), sealed_whole.roster_digest());
            prop_assert_eq!(sealed_fleet.unattested_power(), sealed_whole.unattested_power());
        }
    }

    /// Content, not history: a registry that reached the same rows by
    /// another route — every device first attested to a measurement of its
    /// own under another power, in descending id order, beside a visitor
    /// that fills a bucket and leaves again — reads the same in every bit
    /// and in the same row order.
    #[test]
    fn the_same_content_by_another_route_reads_the_same_in_every_bit(
        ops in proptest::collection::vec(churn_op(), 0..40),
    ) {
        let weights = TwoTierWeights::new(1.0, 0.5);
        let mut direct = AttestedRegistry::new(weights);
        direct.apply_batch(&ops);

        let mut rows: Vec<_> = direct.devices().collect();
        rows.sort_unstable_by_key(|d| std::cmp::Reverse(d.replica));
        let visitor = ReplicaId::new(99);
        let mut detour = AttestedRegistry::new(weights);
        for d in &rows {
            detour.apply(&ChurnOp::attest(
                d.replica,
                sha256(format!("detour-{}", d.replica).as_bytes()),
                d.power + VotingPower::new(7),
            ));
        }
        detour.apply(&ChurnOp::attest(visitor, sha256(b"cfg-0"), VotingPower::new(1_000)));
        for d in &rows {
            detour.apply(&match d.measurement {
                Some(m) => ChurnOp::attest(d.replica, m, d.power),
                None => ChurnOp::Unattested { replica: d.replica, power: d.power },
            });
        }
        detour.apply(&ChurnOp::Deregister { replica: visitor });

        prop_assert_eq!(&detour, &direct);
        prop_assert_eq!(table(&detour), table(&direct));
        prop_assert_eq!(detour.unattested_power(), direct.unattested_power());
        prop_assert_eq!(detour.roster_digest(), direct.roster_digest());
    }

    /// The sealer's merge contract, epoch after epoch: at 1, 2, 4 and 7
    /// shards the canonical merge of the drained shard deltas equals the
    /// un-sharded registry's canonical delta row for row — buckets with
    /// the no-ops pruned (a bucket one shard fills and another empties
    /// included), register→deregister inside one epoch, the roster
    /// aggregate and the unattested power — in whatever order the shards are
    /// handed over; the roster rows as a set, one a replica.
    #[test]
    fn canonical_merge_of_shard_deltas_equals_the_unsharded_delta(
        epochs in proptest::collection::vec(
            proptest::collection::vec(churn_op(), 0..16),
            1..6,
        ),
        handed_over_reversed in any::<bool>(),
    ) {
        let weights = TwoTierWeights::new(1.0, 0.5);
        for shard_count in [1usize, 2, 4, 7] {
            let mut whole = AttestedRegistry::new(weights);
            let mut shards: Vec<AttestedRegistry> =
                (0..shard_count).map(|_| AttestedRegistry::new(weights)).collect();
            for ops in &epochs {
                for op in ops {
                    whole.apply(op);
                    shards[(op.replica().as_u64() % shard_count as u64) as usize].apply(op);
                }
                let expected = drain(&mut whole);
                let mut drained: Vec<ChurnDelta> =
                    shards.iter_mut().map(AttestedRegistry::take_delta).collect();
                if handed_over_reversed {
                    drained.reverse();
                }
                let merged = CanonicalDelta::merge(drained);
                let merged_rows = rows(&merged);
                prop_assert_eq!(&merged_rows, &rows(&expected), "{} shards", shard_count);
                // The form itself: one row a bucket in ascending digest
                // order, one a replica, and no bucket row that nets to
                // nothing.
                prop_assert!(merged.buckets().windows(2).all(|w| w[0].0 < w[1].0));
                prop_assert!(merged_rows.3.windows(2).all(|w| w[0].0 < w[1].0));
                prop_assert!(merged
                    .buckets()
                    .iter()
                    .all(|(_, d)| d.power != 0 || d.members != 0));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// What lets a sealer stage departures without reading its previous
    /// snapshot: at 1, 2, 4 and 7 shards, every canonical roster row's
    /// `before` is the row that device held when the deltas were last
    /// drained — `None` if it held none — and its `after` is the row it
    /// holds now, however often it was rewritten in between.
    #[test]
    fn before_rows_are_the_last_drains_rows(
        epochs in proptest::collection::vec(
            proptest::collection::vec(churn_op(), 0..16),
            2..7,
        ),
    ) {
        let weights = TwoTierWeights::new(1.0, 0.5);
        let rows_of = |reg: &AttestedRegistry| -> BTreeMap<ReplicaId, RegisteredDevice> {
            reg.devices().map(|d| (d.replica, d)).collect()
        };
        for shard_count in [1usize, 2, 4, 7] {
            let mut shards: Vec<AttestedRegistry> =
                (0..shard_count).map(|_| AttestedRegistry::new(weights)).collect();
            let mut sealed = BTreeMap::new();
            for ops in &epochs {
                for op in ops {
                    shards[(op.replica().as_u64() % shard_count as u64) as usize].apply(op);
                }
                let drained: Vec<ChurnDelta> =
                    shards.iter_mut().map(AttestedRegistry::take_delta).collect();
                let now: BTreeMap<_, _> = shards.iter().flat_map(&rows_of).collect();
                for (replica, change) in roster_of(&CanonicalDelta::merge(drained)) {
                    prop_assert_eq!(
                        change.before, sealed.get(&replica).copied(),
                        "before of {} at {} shards", replica, shard_count
                    );
                    prop_assert_eq!(
                        change.after, now.get(&replica).copied(),
                        "after of {} at {} shards", replica, shard_count
                    );
                }
                sealed = now;
            }
        }
    }
}

#[test]
fn collapsing_churn_leaves_no_row_digest_residue() {
    let m = sha256(b"cfg-a");
    let r = ReplicaId::new(4);
    let mut reg = AttestedRegistry::new(TwoTierWeights::flat());
    reg.apply(&ChurnOp::attest(r, m, VotingPower::new(10)));
    let sealed = drain(&mut reg).roster_digest();
    assert_eq!(sealed, refold(&reg));

    // Identical re-registration: a touched device, the aggregate unmoved.
    reg.apply(&ChurnOp::attest(r, m, VotingPower::new(10)));
    let delta = drain(&mut reg);
    assert_eq!(delta.touched_devices(), 1);
    assert_eq!(delta.roster_digest(), sealed);

    // Deregistering an absent device touches nothing at all.
    reg.apply(&ChurnOp::Deregister {
        replica: ReplicaId::new(99),
    });
    let delta = reg.take_delta();
    assert!(delta.is_empty());
    assert_eq!(CanonicalDelta::merge(vec![delta]).roster_digest(), sealed);

    // Register → deregister inside one epoch nets to zero.
    let visitor = ReplicaId::new(5);
    reg.apply(&ChurnOp::Unattested {
        replica: visitor,
        power: VotingPower::new(7),
    });
    reg.apply(&ChurnOp::Deregister { replica: visitor });
    let delta = drain(&mut reg);
    assert_eq!(delta.roster_digest(), sealed);
    assert_eq!(delta.unattested_power(), Some(VotingPower::ZERO));

    // A tier flip swaps one row digest for another.
    reg.apply(&ChurnOp::Unattested {
        replica: r,
        power: VotingPower::new(10),
    });
    let mut expected = sealed;
    expected.remove(&device_row_digest(&RegisteredDevice {
        replica: r,
        measurement: Some(m),
        power: VotingPower::new(10),
    }));
    expected.insert(&device_row_digest(&RegisteredDevice {
        replica: r,
        measurement: None,
        power: VotingPower::new(10),
    }));
    assert_eq!(drain(&mut reg).roster_digest(), expected);
    assert_eq!(reg.roster_digest(), refold(&reg));
}

// --- Delta rows: positions kept in the entries, handles resolved at the
// drain ---------------------------------------------------------------

/// An attested device's row.
fn device(replica: u64, measurement: &[u8], power: u64) -> RegisteredDevice {
    RegisteredDevice {
        replica: ReplicaId::new(replica),
        measurement: Some(sha256(measurement)),
        power: VotingPower::new(power),
    }
}

#[test]
fn a_device_that_leaves_and_returns_twice_in_one_epoch_keeps_one_row() {
    let r = ReplicaId::new(3);
    let mut reg = AttestedRegistry::new(TwoTierWeights::flat());
    reg.apply(&ChurnOp::attest(r, sha256(b"cfg-a"), VotingPower::new(10)));
    let _ = reg.take_delta();

    reg.apply(&ChurnOp::Deregister { replica: r });
    reg.apply(&ChurnOp::attest(r, sha256(b"cfg-b"), VotingPower::new(20)));
    reg.apply(&ChurnOp::Deregister { replica: r });
    reg.apply(&ChurnOp::attest(r, sha256(b"cfg-c"), VotingPower::new(30)));
    let delta = drain(&mut reg);
    assert_eq!(
        roster_of(&delta),
        [(
            r,
            RosterChange {
                before: Some(device(3, b"cfg-a", 10)),
                after: Some(device(3, b"cfg-c", 30)),
            }
        )],
        "first touch's before, last write's after, one row"
    );

    // And once more, ending gone: still one row, and nothing left over for
    // the next epoch.
    reg.apply(&ChurnOp::Deregister { replica: r });
    reg.apply(&ChurnOp::attest(r, sha256(b"cfg-d"), VotingPower::new(40)));
    reg.apply(&ChurnOp::Deregister { replica: r });
    let delta = drain(&mut reg);
    assert_eq!(
        roster_of(&delta),
        [(
            r,
            RosterChange {
                before: Some(device(3, b"cfg-c", 30)),
                after: None,
            }
        )]
    );
    reg.apply(&ChurnOp::attest(r, sha256(b"cfg-e"), VotingPower::new(50)));
    let [(_, change)] = roster_of(&drain(&mut reg))[..] else {
        panic!("one touched device");
    };
    assert_eq!(change.before, None, "gone at the last drain");
}

#[test]
fn a_stale_delta_position_after_a_drain_aliases_no_other_replica() {
    // r0 takes the delta's first row, and keeps that position in its
    // entry across the drain. In the next epoch r1 takes the first row;
    // r0's next touch must not write over it.
    let mut reg = AttestedRegistry::new(TwoTierWeights::flat());
    reg.apply(&ChurnOp::attest(
        ReplicaId::new(0),
        sha256(b"cfg-a"),
        VotingPower::new(10),
    ));
    let _ = reg.take_delta();
    reg.apply(&ChurnOp::attest(
        ReplicaId::new(1),
        sha256(b"cfg-b"),
        VotingPower::new(20),
    ));
    reg.apply(&ChurnOp::attest(
        ReplicaId::new(0),
        sha256(b"cfg-b"),
        VotingPower::new(15),
    ));
    let expected = [
        (
            ReplicaId::new(1),
            RosterChange {
                before: None,
                after: Some(device(1, b"cfg-b", 20)),
            },
        ),
        (
            ReplicaId::new(0),
            RosterChange {
                before: Some(device(0, b"cfg-a", 10)),
                after: Some(device(0, b"cfg-b", 15)),
            },
        ),
    ];
    let delta = drain(&mut reg);
    assert_eq!(roster_of(&delta), expected);

    // The same with the stale device leaving: its departure is its own row.
    reg.apply(&ChurnOp::Unattested {
        replica: ReplicaId::new(2),
        power: VotingPower::new(5),
    });
    reg.apply(&ChurnOp::Deregister {
        replica: ReplicaId::new(1),
    });
    let roster = roster_of(&drain(&mut reg));
    assert_eq!(roster.len(), 2);
    assert_eq!(roster[0].0, ReplicaId::new(2));
    assert_eq!(
        roster[1],
        (
            ReplicaId::new(1),
            RosterChange {
                before: Some(device(1, b"cfg-b", 20)),
                after: None,
            }
        )
    );
}

#[test]
fn an_after_row_under_a_recycled_handle_resolves_to_the_new_measurement() {
    // Three buckets of one member each: every re-attestation kills its
    // device's bucket before it births the next, so the new measurement
    // takes the handle the old one held. Across every drain, each row's
    // `after` must read the drained table and its `before` the old row.
    let mut reg = AttestedRegistry::new(TwoTierWeights::flat());
    let cfg = |i: u64| format!("cfg-{i}");
    for r in 0..3u64 {
        reg.apply(&ChurnOp::attest(
            ReplicaId::new(r),
            sha256(cfg(r).as_bytes()),
            VotingPower::new(r),
        ));
    }
    let _ = reg.take_delta();
    let mut settled = None;
    for epoch in 1..300u64 {
        for r in 0..3u64 {
            reg.apply(&ChurnOp::attest(
                ReplicaId::new(r),
                sha256(cfg(3 * epoch + r).as_bytes()),
                VotingPower::new(3 * epoch + r),
            ));
        }
        let delta = drain(&mut reg);
        let held = *settled.get_or_insert(reg.heap_bytes());
        assert_eq!(reg.heap_bytes(), held, "the handle table grew");
        assert_eq!(delta.touched_devices(), 3);
        for (replica, change) in roster_of(&delta) {
            let r = replica.as_u64();
            let was = 3 * (epoch - 1) + r;
            let now = 3 * epoch + r;
            assert_eq!(change.before, Some(device(r, cfg(was).as_bytes(), was)));
            assert_eq!(change.after, Some(device(r, cfg(now).as_bytes(), now)));
        }
    }
}

/// Churn over 64 ids, so a batch of tens of ops can be longer than a small
/// registry's entries table's capacity, and `apply_batch` sizes the table
/// before it writes.
fn bulk_op() -> impl Strategy<Value = ChurnOp> {
    (0u8..4, 0u64..64, 0u8..3, 1u64..4).prop_map(|(kind, id, cfg, power)| {
        let replica = ReplicaId::new(id);
        match kind {
            0 | 1 => ChurnOp::attest(
                replica,
                sha256(format!("cfg-{cfg}").as_bytes()),
                VotingPower::new(power * 10),
            ),
            2 => ChurnOp::Unattested {
                replica,
                power: VotingPower::new(power * 10),
            },
            _ => ChurnOp::Deregister { replica },
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sizing a batch changes nothing but capacity: epoch after epoch, a
    /// registry fed whole batches — repeated ids, deregistrations, tier
    /// flips and re-registrations among them — equals one fed the same
    /// ops one `apply` at a time, in content, roster digest, bucket sums
    /// and the drained delta, rows in drain order.
    #[test]
    fn apply_batch_equals_op_by_op_apply(
        epochs in proptest::collection::vec(
            proptest::collection::vec(bulk_op(), 0..96),
            1..5,
        ),
    ) {
        let weights = TwoTierWeights::new(1.0, 0.5);
        let mut batched = AttestedRegistry::new(weights);
        let mut single = AttestedRegistry::new(weights);
        for ops in &epochs {
            batched.apply_batch(ops);
            for op in ops {
                single.apply(op);
            }
            prop_assert_eq!(&batched, &single);
            prop_assert_eq!(batched.roster_digest(), single.roster_digest());
            prop_assert_eq!(table(&batched), table(&single));
            prop_assert_eq!(batched.unattested_power(), single.unattested_power());
            let (by_batch, by_op) = (drain(&mut batched), drain(&mut single));
            prop_assert_eq!(roster_of(&by_batch), roster_of(&by_op));
            prop_assert_eq!(&by_batch, &by_op);
        }
    }
}
