//! Fleet determinism golden: a fixed-seed 10k-device churn trace sealed
//! through the sharded serving layer must produce one — and exactly one —
//! snapshot, regardless of shard count, thread schedule, or batch size,
//! and that snapshot's content hash is pinned by a committed fixture.
//!
//! Same pattern as `determinism_goldens.rs`: regenerate intentionally with
//! `REGENERATE_GOLDENS=1 cargo test -p fault-independence --test
//! fleet_determinism` after a deliberate trace/hash format change.

use std::fmt::Write as _;

use fault_independence::fi_attest::{AttestedRegistry, TwoTierWeights};
use fault_independence::fi_fleet::{churn_trace, ChurnTraceConfig, EpochSnapshot, ShardedFleet};
use fault_independence::{DiversityReport, Recommender};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn golden_trace_config() -> ChurnTraceConfig {
    ChurnTraceConfig {
        devices: 10_000,
        measurements: 64,
        churn_ops: 20_000,
        unattested_permille: 100,
        seed: 424_242,
    }
}

/// Seals the golden trace at every shard count (with a shard-dependent
/// batch size, so partitioning varies too) and asserts all runs agree
/// before rendering the summary the fixture pins.
fn render_fleet_golden() -> String {
    let cfg = golden_trace_config();
    let trace = churn_trace(&cfg);

    let mut sealed: Vec<(usize, std::sync::Arc<EpochSnapshot>)> = Vec::new();
    for shards in SHARD_COUNTS {
        let fleet = ShardedFleet::new(shards, TwoTierWeights::default());
        for batch in trace.chunks(512 + 64 * shards) {
            fleet.try_ingest_batch(batch).unwrap();
        }
        sealed.push((shards, fleet.try_seal_epoch().unwrap()));
    }
    let (_, reference) = &sealed[0];
    for (shards, snap) in &sealed {
        assert_eq!(
            snap.content_hash(),
            reference.content_hash(),
            "snapshot hash diverged at {shards} shards"
        );
        assert_eq!(
            snap.entropy_bits(true).unwrap().to_bits(),
            reference.entropy_bits(true).unwrap().to_bits(),
            "snapshot entropy diverged at {shards} shards"
        );
    }
    // And the un-sharded oracle agrees bit-for-bit.
    let mut oracle = AttestedRegistry::new(TwoTierWeights::default());
    oracle.apply_batch(&trace);
    assert_eq!(
        EpochSnapshot::from_registry(&oracle, 1).content_hash(),
        reference.content_hash(),
        "sharded fleets diverged from the single-threaded oracle"
    );

    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"fi-tests/fleet-snapshot/v1\",");
    let _ = writeln!(out, "  \"seed\": {},", cfg.seed);
    let _ = writeln!(out, "  \"devices\": {},", cfg.devices);
    let _ = writeln!(out, "  \"churn_ops\": {},", cfg.churn_ops);
    let _ = writeln!(out, "  \"shard_counts\": [1, 2, 4, 8],");
    let _ = writeln!(
        out,
        "  \"registered_devices\": {},",
        reference.device_count()
    );
    let _ = writeln!(out, "  \"buckets\": {},", reference.buckets().len());
    let _ = writeln!(
        out,
        "  \"total_effective_power\": {},",
        reference.total_effective_power().as_units()
    );
    let _ = writeln!(
        out,
        "  \"entropy_bits\": {:.12},",
        reference.entropy_bits(true).unwrap()
    );
    let _ = writeln!(out, "  \"content_hash\": \"{}\"", reference.content_hash());
    let _ = writeln!(out, "}}");
    out
}

#[test]
fn fleet_snapshot_matches_golden_across_shard_counts() {
    let actual = render_fleet_golden();
    if std::env::var_os("REGENERATE_GOLDENS").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/goldens/fleet_snapshot.json"
        );
        std::fs::write(path, &actual).expect("golden fixture written");
        // The compiled-in include_str! still holds the pre-regeneration
        // bytes; the next (recompiled) run asserts against the fresh ones.
        return;
    }
    assert_eq!(
        actual,
        include_str!("goldens/fleet_snapshot.json"),
        "the fixed-seed fleet snapshot drifted; regenerate the fixture \
         with REGENERATE_GOLDENS=1 if the change is intentional"
    );
}

#[test]
fn fleet_golden_render_is_stable_across_calls() {
    assert_eq!(render_fleet_golden(), render_fleet_golden());
}

/// The golden trace sealed epoch-by-epoch through the *differential* path
/// (seal every batch; a full rebuild is forced only every 32nd epoch) must
/// land on the same final content hash the single-seal full rebuild pins —
/// and the facade's serving read paths (`DiversityReport::from_snapshot`,
/// `Recommender::plan_for_snapshot`) must not be able to tell the two
/// snapshots apart, in any bit.
#[test]
fn differential_epoch_chain_lands_on_the_golden_content() {
    const FULL_EVERY: u64 = 32;
    let cfg = golden_trace_config();
    let trace = churn_trace(&cfg);

    let fleet = ShardedFleet::with_reanchor_interval(4, TwoTierWeights::default(), FULL_EVERY);
    let mut last = fleet.snapshot();
    for batch in trace.chunks(640) {
        fleet.try_ingest_batch(batch).unwrap();
        last = fleet.try_seal_epoch().unwrap();
    }
    assert!(
        last.epoch() > FULL_EVERY,
        "the chain must cross a forced full rebuild to cover both paths"
    );

    let mut oracle = AttestedRegistry::new(TwoTierWeights::default());
    oracle.apply_batch(&trace);
    let rebuilt = EpochSnapshot::from_registry(&oracle, last.epoch());
    assert_eq!(
        last.content_hash(),
        rebuilt.content_hash(),
        "differential epoch chain diverged from the canonical rebuild"
    );

    // Serving read paths over the chained snapshot: the batch metrics, the
    // O(1) entropy field and the re-attestation plan are all bit-identical
    // — the chained snapshot's accumulator is the rebuilt one's.
    for include in [false, true] {
        let via_chain = DiversityReport::from_snapshot(&last, include).unwrap();
        let via_rebuild = DiversityReport::from_snapshot(&rebuilt, include).unwrap();
        assert_eq!(via_chain, via_rebuild);
    }
    let plan_bits = |snapshot: &EpochSnapshot| -> Vec<_> {
        Recommender::default()
            .plan_for_snapshot(snapshot)
            .iter()
            .map(|m| {
                let (after, gain) = (m.entropy_after.to_bits(), m.gain_bits.to_bits());
                (m.replica, m.from_config, m.to_config, after, gain)
            })
            .collect()
    };
    let plan = plan_bits(&last);
    assert!(!plan.is_empty(), "the golden fleet has moves to recommend");
    assert_eq!(plan, plan_bits(&rebuilt));
}

/// A single reader handle held across the whole golden churn trace serves,
/// after every seal, exactly the snapshot the raw publication point does —
/// same epoch, same content hash — and a report over what the handle
/// serves stays bit-identical to one over the raw snapshot at every
/// epoch.
#[test]
fn reader_handle_serves_the_same_chain_as_raw_snapshot_loads() {
    let cfg = golden_trace_config();
    let trace = churn_trace(&cfg);

    let fleet = ShardedFleet::new(4, TwoTierWeights::default());
    let mut handle = fleet.reader();
    assert_eq!(handle.cached_epoch(), 0);
    for batch in trace.chunks(2048) {
        fleet.try_ingest_batch(batch).unwrap();
        let sealed = fleet.try_seal_epoch().unwrap();
        let via_handle = handle.snapshot();
        assert_eq!(via_handle.epoch(), sealed.epoch());
        assert_eq!(via_handle.content_hash(), sealed.content_hash());
        assert_eq!(handle.cached_epoch(), sealed.epoch());
        assert_eq!(
            DiversityReport::from_snapshot(handle.get(), true).unwrap(),
            DiversityReport::from_snapshot(&fleet.snapshot(), true).unwrap(),
            "handle read path diverged from the served snapshot at epoch {}",
            sealed.epoch()
        );
    }
}
