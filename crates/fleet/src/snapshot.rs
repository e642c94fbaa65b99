//! Immutable, canonical epoch snapshots of the attested fleet.
//!
//! An [`EpochSnapshot`] is the read side of the serving layer: everything
//! the committee selectors and the diversity monitor need, merged from the
//! write-side registry shards at a
//! [`try_seal_epoch`](crate::ShardedFleet::try_seal_epoch) barrier and then
//! never mutated again. Readers share it through an `Arc` and query it
//! without taking any lock.
//!
//! **Canonical construction is the determinism guarantee.** Registry shards
//! hold integer buckets only, and integer sums commute, so however a churn
//! trace was sharded and in whatever order it was applied the merged bucket
//! contents agree exactly. The snapshot derives everything from those
//! merged buckets in sorted measurement order — a pure function of fleet
//! *content* — which makes every derived quantity (entropy, total power,
//! candidate roster, [`content_hash`](EpochSnapshot::content_hash))
//! bit-identical across shard and thread counts, and bit-identical to
//! sealing a single un-sharded [`AttestedRegistry`] via
//! [`EpochSnapshot::from_registry`].
//!
//! **The read rules live here.** The registry is write-side only; every
//! diversity read — [`entropy_bits`](EpochSnapshot::entropy_bits),
//! [`distribution`](EpochSnapshot::distribution) and the reports built on
//! them — goes through a snapshot, so three rules have one home: the
//! unattested tier is one opaque row, present only when asked for and
//! non-zero; rows are the measurements in digest order with the opaque row
//! last; and a table with no row is `Empty`, one whose rows all carry zero
//! power `ZeroTotalWeight`.
//!
//! There are two ways to construct that canonical form. The **full build**
//! (the private `EpochSnapshot::build`) merges complete shard rows — the
//! cold-start and recovery path. The **differential patch**
//! ([`EpochSnapshot::try_apply_delta`]) applies one epoch's
//! [`CanonicalDelta`] — the shards' drained deltas, concatenated — to the
//! previous snapshot. Both fold the
//! [`EntropyAccumulator`] from the finished bucket table with
//! `from_weights`, so the two agree in every bit a reader can observe —
//! content hash, entropy and accumulator state included; only the
//! provenance field, [`parent_hash`](EpochSnapshot::parent_hash), tells
//! them apart.
//!
//! **What a patch copies.** A snapshot stores one row per device, in one
//! table: its entry in the [`PrunedRoster`] selection index (16 B: power
//! and replica, the bucket and the tier being the list's), grouped by
//! bucket slot and sorted by power inside the slot. The index *is* the
//! roster — devices registered at zero power included, which it holds and
//! never selects — and a bucket's member count is its slot's length in it,
//! not a second table. The replica-sorted view
//! ([`candidates`](EpochSnapshot::candidates),
//! [`devices`](EpochSnapshot::devices)) is not stored but derived the first
//! time something asks for it — one function, one O(n log n) sort per
//! snapshot, the same for full and differential snapshots — which today is
//! a checkpoint write, the two-tier sortition, the recommender and tests,
//! never a seal or a greedy selection. Snapshots share nothing, so a patch
//! writes the index anew — 16 B per device, O(n) memory traffic, the part
//! of a differential seal's cost that follows fleet size — in one merge
//! walk per list that copies the untouched runs between churned rows as
//! slices. The rest follows churn, and reads nothing of the old roster nor
//! any order of the delta's: each touched device arrives with the row it
//! had at the last cut and the row it has now
//! ([`TouchedRow`](fi_attest::TouchedRow), walked by
//! [`CanonicalDelta::walk`]), so its departure is staged from the one and
//! its arrival from the other. Both resolve to a bucket slot through a
//! per-seal table keyed by the measurement's leading byte: a departure,
//! which keeps its measurement, by one probe; an arrival, which names its
//! bucket by its shard's handle, through the walk's memo, which probes
//! once per handle a shard's rows name — a dozen probes a shard at the
//! benchmark's shapes, not one a device. No device row or churned id is
//! ordered by a comparison sort: the staged departures and arrivals are
//! each indexed as a [`PrunedRoster`] of their own, ordered by one stable
//! radix sort — a pass per digit of up to 11 bits that holds a key bit
//! varying among them — and then filed by list, and the churned replica
//! ids go through the same routine ([`fi_committee::radix::sort_by_key`]),
//! which is where a replica that two shards drained shows up, and is
//! refused; the sorted ids are then dropped. Both cost O(R · D)
//! for R rows and D digits — 3 at the benchmark's shapes (ids below 2¹⁸,
//! powers below 2¹⁰) — and the worst case, every key bit varying, measures
//! about 2× a comparison sort at 12 600 rows.
//!
//! **Who hashes what, and when.** The content hash folds two
//! order-independent [`SetDigest`] sums of per-row SHA-256 digests: one
//! over bucket rows, one over device-roster rows. The device row digest is
//! defined in `fi-attest` ([`device_row_digest`]) and computed by the
//! [`AttestedRegistry`] exactly once per row, when the row is written;
//! the registry keeps a running sum over its rows
//! ([`AttestedRegistry::roster_digest`]), which the drain at a cut stamps
//! on its [`ChurnDelta`](fi_attest::ChurnDelta) beside its unattested
//! power. Sealing is then arithmetic: a fleet seal, differential or
//! re-anchor, takes the merged delta's
//! [`roster_digest`](CanonicalDelta::roster_digest) and
//! [`unattested_power`](CanonicalDelta::unattested_power) — the shards'
//! sums added up — as its own. The only hashing left at a seal is
//! the bucket rows (dozens, and only the dirty ones on the differential
//! path) and the final fold. The oracle paths deliberately do *not* trust
//! that bookkeeping: [`EpochSnapshot::from_registry`] and checkpoint
//! rebuilds (`roster_aggregate`) re-hash every row from scratch, so the
//! differential suites and the self-verifying checkpoint stay independent
//! of the incremental path they check.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::OnceLock;

use fi_attest::{
    device_row_digest, AfterRow, AttestedRegistry, CanonicalDelta, RegisteredDevice, TwoTierWeights,
};
use fi_committee::{radix, Candidate, Committee, PrunedRoster, WarmReport};
use fi_entropy::{Distribution, DistributionError, EntropyAccumulator};
use fi_types::hash::{SetDigest, Sha256};
use fi_types::{Digest, ReplicaId, VotingPower};

use crate::error::SealError;

/// An immutable, sealed view of the whole fleet at one epoch: merged
/// measurement buckets, a prebuilt entropy accumulator, the device roster
/// as a committee-selection index, and a stable content hash.
///
/// # Example
///
/// ```
/// use fi_attest::{AttestedRegistry, ChurnOp, TwoTierWeights};
/// use fi_fleet::EpochSnapshot;
/// use fi_types::{sha256, ReplicaId, VotingPower};
///
/// let mut registry = AttestedRegistry::new(TwoTierWeights::flat());
/// for i in 0..4u64 {
///     registry.apply(&ChurnOp::attest(
///         ReplicaId::new(i),
///         sha256(format!("cfg-{i}").as_bytes()),
///         VotingPower::new(100),
///     ));
/// }
/// let snapshot = EpochSnapshot::from_registry(&registry, 1);
/// assert_eq!(snapshot.device_count(), 4);
/// assert!((snapshot.entropy_bits(false)? - 2.0).abs() < 1e-12);
/// let committee = snapshot.select_greedy(3);
/// assert_eq!(committee.len(), 3);
/// # Ok::<(), fi_entropy::DistributionError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    epoch: u64,
    weights: TwoTierWeights,
    /// Live measurement buckets with summed effective attested power,
    /// sorted by measurement digest (zero-power buckets with registered
    /// members included; a bucket whose last member left is dropped).
    buckets: Vec<(Digest, VotingPower)>,
    /// Total effective power of the unattested tier.
    opaque: VotingPower,
    /// Canonical accumulator over `buckets`, in bucket order.
    acc: EntropyAccumulator,
    /// The roster, as the selection index keeps it: one entry per
    /// registered device, in dense slots — one per bucket plus the trailing
    /// unattested pseudo-slot `buckets.len()` — each sorted by power. A
    /// bucket's member count is its slot's length here, which is what lets
    /// [`try_apply_delta`](Self::try_apply_delta) decide bucket birth and
    /// death from integer member deltas alone. Carried forward by
    /// `try_apply_delta`, so a seal writes this one table and serving a
    /// committee never re-sorts the fleet.
    pruned: PrunedRoster,
    /// `pruned` sorted by replica id: what
    /// [`candidates`](Self::candidates) serves, derived on first use.
    roster: OnceLock<Vec<Candidate>>,
    /// The previous snapshot's content hash when this one was produced by
    /// [`try_apply_delta`](Self::try_apply_delta); `None` for full builds.
    parent_hash: Option<Digest>,
    /// Order-independent aggregate of per-bucket row digests — the
    /// incrementally maintainable half of the content hash.
    bucket_agg: SetDigest,
    content_hash: Digest,
}

/// The canonical digest of one measurement-bucket row.
fn bucket_row_digest(measurement: &Digest, power: VotingPower) -> Digest {
    let mut h = Sha256::new();
    h.update(b"B");
    h.update(measurement.as_bytes());
    h.update(power.as_units().to_be_bytes());
    h.finalize()
}

/// The accumulator of a bucket table: one `from_weights` fold in bucket
/// order. [`EpochSnapshot::build`] and [`EpochSnapshot::try_apply_delta`]
/// both get theirs here, so a snapshot's float state is a function of its
/// buckets and of nothing else — not of the seals that led to them.
fn canonical_accumulator(buckets: &[(Digest, VotingPower)]) -> EntropyAccumulator {
    let units: Vec<u64> = buckets.iter().map(|&(_, p)| p.as_units()).collect();
    EntropyAccumulator::from_weights(&units)
}

/// The unattested power and roster aggregate a seal at `delta`'s cut takes
/// as its own: the drained shards' sums, added up. A power sum past `u64`
/// is a [`SealError::CorruptDelta`].
pub(crate) fn cut_sums(
    epoch: u64,
    delta: &CanonicalDelta,
) -> Result<(VotingPower, SetDigest), SealError> {
    let opaque = delta
        .unattested_power()
        .ok_or_else(|| SealError::CorruptDelta {
            epoch,
            detail: "the drained shards' unattested power overflows u64".to_string(),
        })?;
    Ok((opaque, delta.roster_digest()))
}

/// The device-roster aggregate computed from scratch: one
/// [`device_row_digest`] per row. This is the oracle's half of the
/// bargain — [`EpochSnapshot::from_registry`] and checkpoint rebuilds call
/// it so they never depend on aggregates maintained at write time.
pub(crate) fn roster_aggregate(
    devices: impl IntoIterator<Item: Borrow<RegisteredDevice>>,
) -> SetDigest {
    let mut agg = SetDigest::EMPTY;
    for d in devices {
        agg.insert(&device_row_digest(d.borrow()));
    }
    agg
}

/// Sorts a seal's churned replica ids ascending with the seal's one
/// ordering routine, [`radix::sort_by_key`]: a stable pass per digit of up
/// to 11 bits that holds an id bit varying among them.
fn order_replicas(ids: &mut Vec<ReplicaId>) {
    radix::sort_by_key(ids, &mut Vec::new(), |r| u128::from(r.as_u64()));
}

/// Measurement digest → value for one seal: the rows sorted by digest, and
/// where each leading byte's rows start among them. A probe reads one byte
/// and compares the digests that share it — none or one for hashed
/// measurements at any realistic bucket count — where a binary search over
/// the bucket table costs a handful of 32-byte compares per device.
/// Measurements aligned on their first byte only degrade a probe to a scan
/// of the rows that share it.
struct SlotTable<V> {
    rows: Vec<(Digest, V)>,
    starts: [usize; 257],
}

impl<V: Copy> SlotTable<V> {
    /// `rows` must be sorted by digest.
    fn new(rows: Vec<(Digest, V)>) -> Self {
        let mut starts = [0; 257];
        for (m, _) in &rows {
            starts[usize::from(m.as_bytes()[0]) + 1] += 1;
        }
        for byte in 0..256 {
            starts[byte + 1] += starts[byte];
        }
        SlotTable { rows, starts }
    }

    fn get(&self, measurement: &Digest) -> Option<V> {
        let byte = usize::from(measurement.as_bytes()[0]);
        self.rows[self.starts[byte]..self.starts[byte + 1]]
            .iter()
            .find(|(m, _)| m == measurement)
            .map(|&(_, v)| v)
    }
}

impl EpochSnapshot {
    /// The canonical builder all sealing paths share: merged bucket rows
    /// (keyed — hence sorted — by digest), the summed opaque power, the
    /// device rows in any order (the index sorts each slot by power;
    /// nothing here sorts by replica), and the roster's row-digest
    /// aggregate — summed from the shards' write-time aggregates by the
    /// fleet, recomputed with [`roster_aggregate`] by the oracle paths.
    ///
    /// The device rows are walked twice, by a clone of their iterator, and
    /// never collected: [`PrunedRoster::from_dense`] maps each row to its
    /// slot and tier inside its counting walk and again inside its filing
    /// walk, so the index's 16 bytes a device are the only per-device
    /// table a full build writes, and the device count is read off it.
    pub(crate) fn build<I>(
        epoch: u64,
        weights: TwoTierWeights,
        rows: BTreeMap<Digest, VotingPower>,
        opaque: VotingPower,
        devices: I,
        device_agg: SetDigest,
    ) -> EpochSnapshot
    where
        I: IntoIterator<Item: Borrow<RegisteredDevice>, IntoIter: Clone>,
    {
        let buckets: Vec<(Digest, VotingPower)> = rows.into_iter().collect();
        let acc = canonical_accumulator(&buckets);

        let opaque_slot = buckets.len();
        let slots = SlotTable::new(
            buckets
                .iter()
                .enumerate()
                .map(|(slot, &(m, _))| (m, slot))
                .collect(),
        );
        let candidates = devices.into_iter().map(|d| {
            let d = d.borrow();
            let config = match d.measurement {
                Some(m) => slots
                    .get(&m)
                    .expect("every attested device's measurement has a bucket"),
                None => opaque_slot,
            };
            Candidate::new(d.replica, d.power, config, d.measurement.is_some())
        });
        let pruned = PrunedRoster::from_dense(opaque_slot + 1, candidates);
        debug_assert!(
            (0..opaque_slot).all(|slot| pruned.slot_len(slot) > 0),
            "every live bucket has at least one registered member"
        );

        let mut bucket_agg = SetDigest::EMPTY;
        for &(m, p) in &buckets {
            bucket_agg.insert(&bucket_row_digest(&m, p));
        }
        let content_hash =
            Self::finalize_content(buckets.len(), bucket_agg, opaque, pruned.len(), device_agg);
        EpochSnapshot {
            epoch,
            weights,
            buckets,
            opaque,
            acc,
            pruned,
            roster: OnceLock::new(),
            parent_hash: None,
            bucket_agg,
            content_hash,
        }
    }

    /// Digest over the canonical content: the measurement-bucket rows, the
    /// opaque power, and the device-roster rows. Deliberately excludes the
    /// epoch counter — two epochs with identical fleet content hash
    /// identically.
    ///
    /// Each row set enters through an order-independent, invertible
    /// [`SetDigest`] aggregate of per-row SHA-256 digests (row counts are
    /// bound separately), so the hash is maintainable by addition —
    /// departed rows subtract, arrived rows add — while a from-scratch
    /// fold over the same rows produces the byte-identical digest.
    fn finalize_content(
        bucket_count: usize,
        bucket_agg: SetDigest,
        opaque: VotingPower,
        device_count: usize,
        device_agg: SetDigest,
    ) -> Digest {
        let mut h = Sha256::new();
        h.update(b"fi-fleet/epoch-snapshot-v2");
        h.update((bucket_count as u64).to_be_bytes());
        h.update(bucket_agg.to_bytes());
        h.update(opaque.as_units().to_be_bytes());
        h.update((device_count as u64).to_be_bytes());
        h.update(device_agg.to_bytes());
        h.finalize()
    }

    /// Seals a single, un-sharded registry — the differential oracle's path
    /// into snapshot space. It re-hashes every roster row rather than
    /// reading [`AttestedRegistry::roster_digest`], so it stays an
    /// independent check on the write-time aggregates the fleet seals from.
    /// The registry's rows are read where they lie, once for that re-hash
    /// and twice by `build`, and never copied out.
    #[must_use]
    pub fn from_registry(registry: &AttestedRegistry, epoch: u64) -> EpochSnapshot {
        let rows: BTreeMap<Digest, VotingPower> = registry.bucket_rows().collect();
        // `devices()` yields the registry's `HashMap` order; the aggregate
        // is a commutative sum, and `build` files each row by its own key,
        // so neither depends on it.
        EpochSnapshot::build(
            epoch,
            registry.weights(),
            rows,
            registry.unattested_power(),
            registry.devices(),
            roster_aggregate(registry.devices()),
        )
    }

    /// An empty epoch-zero snapshot (what a fresh fleet serves before the
    /// first seal).
    #[must_use]
    pub fn empty(weights: TwoTierWeights) -> EpochSnapshot {
        EpochSnapshot::build(
            0,
            weights,
            BTreeMap::new(),
            VotingPower::ZERO,
            std::iter::empty::<RegisteredDevice>(),
            SetDigest::EMPTY,
        )
    }

    /// Patches this snapshot with one epoch's [`CanonicalDelta`],
    /// producing the `epoch` snapshot without the O(fleet) shard re-merge
    /// and index rebuild a full `build` pays.
    /// The delta's rows are read as they come and where they lie —
    /// buckets sorted by digest, devices in each shard's drained rows
    /// ([`CanonicalDelta::walk`]) — and only the churned replica ids are
    /// ordered here, by the radix sort the index orders its staged rows
    /// with, in O(touched · D) for D 11-bit digits that hold a varying id
    /// bit. Structural work is O(changed): dirty buckets are
    /// located by a merge walk, and each touched device is staged straight
    /// from its delta row — its departure from the row it had at the last
    /// cut, in this snapshot's slot layout, resolved to a slot by one probe
    /// of a per-seal table, its arrival from the row it has now, in the
    /// patched one, through the walk's memo, which probes that table once
    /// per bucket handle a shard's rows name; this snapshot's roster is not
    /// read for it. The rest is the copy, and there is **one table** to copy:
    /// [`PrunedRoster::patch_dense`] writes the selection index — which is
    /// the roster, 16 B a device — list by list, untouched runs as slices.
    /// The replica-sorted view is not built here (see
    /// [`candidates`](Self::candidates)).
    /// No roster row is hashed here, and neither the opaque power nor the
    /// device aggregate is carried over from `self`: the delta carries the
    /// drained shards' unattested power and roster aggregate, summed
    /// ([`CanonicalDelta::unattested_power`],
    /// [`CanonicalDelta::roster_digest`]), and the patched snapshot takes
    /// those as its own. Only dirty bucket rows are hashed.
    ///
    /// **Bit-identity invariant.** Bucket powers, member counts, the
    /// roster, and the opaque power are integer sums and the row aggregates
    /// are modular sums, so the patched canonical form — and therefore
    /// [`content_hash`](Self::content_hash) — is *byte-identical* to a
    /// from-scratch build over the same fleet content. The one
    /// floating-point field, the [`EntropyAccumulator`]'s `Σ w·log2 w`, is
    /// not carried over from `self`: it is folded from the patched buckets
    /// by the function `build` uses, so it is bit-identical
    /// too, however long the chain of patches. `fleet_differential.rs`
    /// enforces all of it at every intermediate epoch against
    /// [`from_registry`](Self::from_registry), which re-hashes every row.
    ///
    /// # Errors
    ///
    /// [`SealError::CorruptDelta`] for a delta that does not chain onto
    /// this snapshot's fleet content: a bucket delta that underflows its
    /// bucket, a member count going negative, a new bucket arriving
    /// without members, an overflow past the integer domains (an
    /// unattested power summed past `u64` included), a replica listed
    /// twice (two shards drained it), a device row citing a measurement
    /// with no bucket on its side of the patch, an `after` row naming a
    /// bucket handle its shard's handle table lacks, a `before` row that
    /// is not the row this snapshot holds for the device (wrong power,
    /// wrong bucket, never registered, an unattested departure included),
    /// a bucket dying with devices still in it, or a bucket whose devices
    /// no longer add up to its member count. `self` is never
    /// mutated — a rejected delta leaves this snapshot serving — and none
    /// of it panics. What this cannot see is a delta whose rows and bucket
    /// sums are wrong *together* (a lost delta that removed a device,
    /// followed by its re-registration, arrives as a consistent `+1` with
    /// no `before` row), nor a surplus row in the unattested pseudo-slot,
    /// which has no member count: those seal to the wrong content, as they
    /// always did, and the content-hash oracles — recovery's seal records,
    /// the differential suites — are what catch them.
    pub fn try_apply_delta(
        &self,
        epoch: u64,
        delta: &CanonicalDelta,
    ) -> Result<EpochSnapshot, SealError> {
        let unchained = |what: String| SealError::CorruptDelta {
            epoch,
            detail: format!("{what}: delta not chained on this snapshot"),
        };
        let dirty = delta.buckets();

        // 1. Patch the sorted bucket vec (merge walk old × dirty), while
        //    collecting, for every measurement on either side, its [old
        //    slot, new slot] — `usize::MAX` where it has none — in digest
        //    order: the table step 3 probes.
        const OLD: usize = 0;
        const NEW: usize = 1;
        let old_buckets = &self.buckets;
        let mut slots_of: Vec<(Digest, [usize; 2])> =
            Vec::with_capacity(old_buckets.len() + dirty.len());
        let mut buckets = Vec::with_capacity(old_buckets.len() + dirty.len());
        // Each patched bucket's member count: its old slot's length in the
        // index plus the delta's member change, which the patched index
        // must then list.
        let mut members_of = Vec::with_capacity(old_buckets.len() + dirty.len());
        let mut removals: Vec<usize> = Vec::new();
        let mut insertions: Vec<usize> = Vec::new();
        let mut bucket_agg = self.bucket_agg;

        let (mut i, mut j) = (0, 0);
        while i < old_buckets.len() || j < dirty.len() {
            let take_old =
                j >= dirty.len() || (i < old_buckets.len() && old_buckets[i].0 < dirty[j].0);
            if take_old {
                slots_of.push((old_buckets[i].0, [i, buckets.len()]));
                buckets.push(old_buckets[i]);
                members_of.push(self.pruned.slot_len(i) as i64);
                i += 1;
            } else if i < old_buckets.len() && old_buckets[i].0 == dirty[j].0 {
                let (m, d) = dirty[j];
                let members = self.pruned.slot_len(i) as i64 + d.members;
                let power = i128::from(old_buckets[i].1.as_units()) + d.power;
                if members < 0 || power < 0 {
                    return Err(unchained(format!("churn delta underflows bucket {m}")));
                }
                if members == 0 {
                    if power != 0 {
                        return Err(unchained(format!("memberless bucket {m} retains power")));
                    }
                    bucket_agg.remove(&bucket_row_digest(&m, old_buckets[i].1));
                    slots_of.push((m, [i, usize::MAX]));
                    removals.push(i);
                } else {
                    let Ok(power_units) = u64::try_from(power) else {
                        return Err(unchained(format!("bucket {m} power overflows u64")));
                    };
                    let power = VotingPower::new(power_units);
                    slots_of.push((m, [i, buckets.len()]));
                    if d.power != 0 {
                        bucket_agg.remove(&bucket_row_digest(&m, old_buckets[i].1));
                        bucket_agg.insert(&bucket_row_digest(&m, power));
                    }
                    buckets.push((m, power));
                    members_of.push(members);
                }
                i += 1;
                j += 1;
            } else {
                // A bucket born this epoch.
                let (m, d) = dirty[j];
                if d.members <= 0 || d.power < 0 {
                    return Err(unchained(format!(
                        "new bucket {m} arrives with non-positive members or negative power"
                    )));
                }
                let Ok(power_units) = u64::try_from(d.power) else {
                    return Err(unchained(format!("new bucket {m} power overflows u64")));
                };
                let power = VotingPower::new(power_units);
                bucket_agg.insert(&bucket_row_digest(&m, power));
                slots_of.push((m, [usize::MAX, buckets.len()]));
                insertions.push(buckets.len());
                buckets.push((m, power));
                members_of.push(d.members);
                j += 1;
            }
        }

        // 2. The opaque power and the roster aggregate, as the shards held
        //    them at the cut, and the accumulator, from the patched buckets
        //    as `build` makes it.
        let (opaque, device_agg) = cut_sums(epoch, delta)?;
        let acc = canonical_accumulator(&buckets);

        // 3. Stage the touched devices — departures from `before`, in this
        //    snapshot's slot layout, arrivals from `after`, in the patched
        //    one — and write the next roster from this one in one pass, its
        //    slots removed and inserted where the buckets' were. A departure
        //    keeps its measurement and is probed by it; an arrival names its
        //    bucket by handle, and the walk resolves each shard's handles
        //    to a patched slot once each, through the same table. A device
        //    registered and gone again within the epoch has neither row and
        //    is only listed as churned. The churned ids are the one thing
        //    ordered here: shards own disjoint devices, so an id drained
        //    twice is a routing bug, refused here rather than merged.
        let slots_of = SlotTable::new(slots_of);
        let opaque_slot = [old_buckets.len(), buckets.len()];
        let no_bucket = |replica: ReplicaId, m: &Digest, side: &str| {
            unchained(format!(
                "touched device {replica} cites measurement {m} with no {side} bucket"
            ))
        };
        let touched = delta.touched_devices();
        let mut churned: Vec<ReplicaId> = Vec::with_capacity(touched);
        let mut departed: Vec<Candidate> = Vec::with_capacity(touched);
        let mut arrivals: Vec<Candidate> = Vec::with_capacity(touched);
        for row in delta.walk(|m| slots_of.get(m).map(|slots| slots[NEW])) {
            let replica = row.replica;
            churned.push(replica);
            if let Some(d) = row.before {
                let slot = match d.measurement {
                    None => opaque_slot[OLD],
                    Some(m) => match slots_of.get(&m) {
                        Some(slots) if slots[OLD] != usize::MAX => slots[OLD],
                        _ => return Err(no_bucket(replica, &m, "previous")),
                    },
                };
                let attested = d.measurement.is_some();
                departed.push(Candidate::new(replica, d.power, slot, attested));
            }
            let (slot, power, attested) = match row.after {
                AfterRow::Gone => continue,
                AfterRow::Unattested(power) => (opaque_slot[NEW], power, false),
                AfterRow::Attested {
                    measurement,
                    bucket,
                    power,
                } => match bucket {
                    Some(slot) if slot != usize::MAX => (slot, power, true),
                    _ => return Err(no_bucket(replica, measurement, "patched")),
                },
                AfterRow::Dangling(handle) => {
                    return Err(unchained(format!(
                        "touched device {replica} names bucket handle {handle}, \
                         which its shard's handle table lacks"
                    )));
                }
            };
            arrivals.push(Candidate::new(replica, power, slot, attested));
        }
        order_replicas(&mut churned);
        if let Some(twice) = churned.windows(2).find(|w| w[0] == w[1]) {
            return Err(unchained(format!("device {} is listed twice", twice[0])));
        }
        let pruned = self
            .pruned
            .patch_dense(&departed, &arrivals, &removals, &insertions)
            .map_err(|e| unchained(e.to_string()))?;
        // The delta's member changes and its device rows are two accounts
        // of one fact; a patch that leaves them disagreeing is not served.
        for (slot, (&members, &(m, _))) in members_of.iter().zip(&buckets).enumerate() {
            let listed = pruned.slot_len(slot);
            if listed as i64 != members {
                return Err(unchained(format!(
                    "bucket {m} lists {listed} devices for {members} members"
                )));
            }
        }

        // 4. The content hash, finalised over the patched row aggregates —
        //    byte-identical to a full rebuild's.
        let content_hash =
            Self::finalize_content(buckets.len(), bucket_agg, opaque, pruned.len(), device_agg);
        Ok(EpochSnapshot {
            epoch,
            weights: self.weights,
            buckets,
            opaque,
            acc,
            pruned,
            roster: OnceLock::new(),
            parent_hash: Some(self.content_hash),
            bucket_agg,
            content_hash,
        })
    }

    /// The epoch counter this snapshot was sealed at.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The tier weights the fleet registered power under.
    #[must_use]
    pub fn weights(&self) -> TwoTierWeights {
        self.weights
    }

    /// The canonical content digest: a pure function of buckets, opaque
    /// power, and the device roster — identical across shard and thread
    /// counts for the same fleet content.
    #[must_use]
    pub fn content_hash(&self) -> Digest {
        self.content_hash
    }

    /// Number of registered devices (both tiers). O(1).
    #[must_use]
    pub fn device_count(&self) -> usize {
        self.pruned.len()
    }

    /// The merged measurement buckets, sorted by digest.
    #[must_use]
    pub fn buckets(&self) -> &[(Digest, VotingPower)] {
        &self.buckets
    }

    /// Total effective power of the unattested tier.
    #[must_use]
    pub fn unattested_power(&self) -> VotingPower {
        self.opaque
    }

    /// The bytes this snapshot holds on the heap, by capacity: the bucket
    /// table, the accumulator's weights, the selection index
    /// ([`PrunedRoster::heap_bytes`]) and, once something has derived it,
    /// the replica-sorted view.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.buckets.capacity() * size_of::<(Digest, VotingPower)>()
            + self.acc.slots() * size_of::<u64>()
            + self.pruned.heap_bytes()
            + self
                .roster
                .get()
                .map_or(0, |roster| roster.capacity() * size_of::<Candidate>())
    }

    /// The device roster, sorted by replica id — each row derived from
    /// its candidate and the bucket table (the rows
    /// [`AttestedRegistry::devices`] yields, in canonical order). Costs what
    /// [`candidates`](Self::candidates) costs.
    pub fn devices(&self) -> impl Iterator<Item = RegisteredDevice> + '_ {
        self.candidates().iter().map(|c| RegisteredDevice {
            replica: c.replica(),
            measurement: c.attested().then(|| self.buckets[c.config()].0),
            power: c.power(),
        })
    }

    /// The committee-candidate roster (sorted by replica id, raw power,
    /// configuration index = bucket position; unattested devices share the
    /// pseudo-configuration `buckets().len()`).
    ///
    /// A snapshot stores its devices grouped by bucket and sorted by power;
    /// this view is materialised by the first call — the index entries
    /// sorted by replica id, O(n log n) once, a few milliseconds per 100k
    /// devices — and shared by every later one, from any thread. It is the
    /// same derivation for full and differential snapshots and reads no
    /// other snapshot. Seals and greedy selections never call it; a
    /// checkpoint write, the two-tier sortition and the recommender do.
    #[must_use]
    pub fn candidates(&self) -> &[Candidate] {
        self.roster.get_or_init(|| {
            let mut roster = Vec::with_capacity(self.device_count());
            roster.extend(self.pruned.candidates());
            roster.sort_unstable_by_key(Candidate::replica);
            roster
        })
    }

    /// The canonical entropy accumulator over the sorted buckets — the
    /// O(1)-query feed for monitoring and what-if planners.
    #[must_use]
    pub fn entropy_accumulator(&self) -> &EntropyAccumulator {
        &self.acc
    }

    /// Total effective (tier-weighted) power across the fleet. O(1).
    #[must_use]
    pub fn total_effective_power(&self) -> VotingPower {
        VotingPower::new(self.acc.total_weight()) + self.opaque
    }

    /// Shannon entropy (bits) of the configuration distribution, O(1) off
    /// the canonical accumulator. With `include_unattested_bucket`, the
    /// unattested tier's power, if non-zero, is one extra configuration —
    /// the pessimistic reading where every unattested replica might share
    /// one. A single row with power is exactly `+0.0` bits.
    ///
    /// # Errors
    ///
    /// [`DistributionError::Empty`] when no bucket (nor, if requested,
    /// opaque row) exists; [`DistributionError::ZeroTotalWeight`] when every
    /// row carries zero power.
    pub fn entropy_bits(&self, include_unattested_bucket: bool) -> Result<f64, DistributionError> {
        let opaque_row = include_unattested_bucket && !self.opaque.is_zero();
        if self.buckets.is_empty() && !opaque_row {
            return Err(DistributionError::Empty);
        }
        if self.acc.total_weight() == 0 && !opaque_row {
            return Err(DistributionError::ZeroTotalWeight);
        }
        Ok(if opaque_row {
            self.acc.entropy_with_extra_bucket(self.opaque.as_units())
        } else {
            self.acc.entropy_bits()
        })
    }

    /// The configuration distribution (for batch metrics: Rényi, evenness,
    /// κ-optimality) over the rows [`entropy_bits`](Self::entropy_bits)
    /// folds, in order: the measurements by digest, then the opaque row if
    /// requested and non-zero.
    ///
    /// # Errors
    ///
    /// As [`entropy_bits`](Self::entropy_bits).
    pub fn distribution(
        &self,
        include_unattested_bucket: bool,
    ) -> Result<Distribution, DistributionError> {
        let mut units: Vec<u64> = self.buckets.iter().map(|&(_, p)| p.as_units()).collect();
        if include_unattested_bucket && !self.opaque.is_zero() {
            units.push(self.opaque.as_units());
        }
        Distribution::from_counts(&units)
    }

    /// Greedy entropy-maximising selection over the prebuilt pruned index:
    /// what [`greedy_diverse`](fi_committee::greedy_diverse) selects from
    /// [`candidates`](Self::candidates), without building the index per
    /// call. Lock-free: touches only this snapshot.
    #[must_use]
    pub fn select_greedy(&self, k: usize) -> Committee {
        self.pruned.select(k)
    }

    /// [`select_greedy`](Self::select_greedy)'s committee and a report of
    /// a cold selection. There is no warm start; this stays for the
    /// benchmark's `committee.warm_*` probe until those metrics are
    /// retired, and ignores `previous`.
    #[must_use]
    pub fn select_greedy_warm(&self, k: usize, _previous: &[Candidate]) -> (Committee, WarmReport) {
        let report = WarmReport {
            replayed: 0,
            fell_back: true,
        };
        (self.select_greedy(k), report)
    }

    /// The content hash of the snapshot this one was differentially patched
    /// from (`None` for full builds / re-anchor epochs).
    #[must_use]
    pub fn parent_hash(&self) -> Option<Digest> {
        self.parent_hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_attest::{ChurnDelta, ChurnOp};
    use fi_committee::greedy::greedy_diverse_naive;
    use fi_types::sha256;

    fn registry_with(ops: &[ChurnOp]) -> AttestedRegistry {
        let mut reg = AttestedRegistry::new(TwoTierWeights::new(1.0, 0.5));
        reg.apply_batch(ops);
        reg
    }

    /// The registry's pending churn as a sealer reads it.
    fn drain(reg: &mut AttestedRegistry) -> CanonicalDelta {
        CanonicalDelta::merge(vec![reg.take_delta()])
    }

    fn mixed_ops() -> Vec<ChurnOp> {
        vec![
            ChurnOp::attest(ReplicaId::new(3), sha256(b"cfg-b"), VotingPower::new(40)),
            ChurnOp::attest(ReplicaId::new(0), sha256(b"cfg-a"), VotingPower::new(60)),
            ChurnOp::Unattested {
                replica: ReplicaId::new(7),
                power: VotingPower::new(80),
            },
            ChurnOp::attest(ReplicaId::new(5), sha256(b"cfg-a"), VotingPower::new(20)),
        ]
    }

    #[test]
    fn empty_snapshot_degenerates_like_an_empty_registry() {
        let snap = EpochSnapshot::empty(TwoTierWeights::flat());
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.device_count(), 0);
        assert_eq!(snap.total_effective_power(), VotingPower::ZERO);
        assert_eq!(snap.entropy_bits(false), Err(DistributionError::Empty));
        assert_eq!(snap.entropy_bits(true), Err(DistributionError::Empty));
        assert!(snap.select_greedy(4).is_empty());
        let sealed_empty =
            EpochSnapshot::from_registry(&AttestedRegistry::new(TwoTierWeights::flat()), 0);
        assert_eq!(sealed_empty.entropy_bits(false), snap.entropy_bits(false));
        assert_eq!(sealed_empty.content_hash(), snap.content_hash());
    }

    #[test]
    fn empty_snapshot_error_semantics_match_fresh_registry_exactly() {
        // The zero-device snapshot must be indistinguishable from a sealed
        // fresh `AttestedRegistry` in every entropy/distribution error
        // path, including the +0.0 degenerate-entropy sign.
        let registry = AttestedRegistry::new(TwoTierWeights::default());
        let sealed_fresh = EpochSnapshot::from_registry(&registry, 0);
        let snap = EpochSnapshot::empty(TwoTierWeights::default());
        for include in [false, true] {
            assert_eq!(snap.entropy_bits(include), Err(DistributionError::Empty));
            assert_eq!(
                snap.entropy_bits(include),
                sealed_fresh.entropy_bits(include)
            );
            assert_eq!(
                snap.distribution(include).map(|d| d.dimension()),
                Err(DistributionError::Empty)
            );
        }
        let h = snap.entropy_accumulator().entropy_bits();
        assert_eq!(h, 0.0);
        assert!(h.is_sign_positive(), "degenerate entropy must be +0.0");
        assert_eq!(snap.total_effective_power(), VotingPower::ZERO);
        assert_eq!(snap.device_count(), registry.len());

        // A snapshot churned *down* to zero devices through the
        // differential path degenerates identically to `empty()`.
        let mut reg = AttestedRegistry::new(TwoTierWeights::default());
        reg.apply(&ChurnOp::attest(
            ReplicaId::new(0),
            sha256(b"cfg-a"),
            VotingPower::new(10),
        ));
        reg.apply(&ChurnOp::Unattested {
            replica: ReplicaId::new(1),
            power: VotingPower::new(10),
        });
        let mut chained = EpochSnapshot::empty(TwoTierWeights::default())
            .try_apply_delta(1, &drain(&mut reg))
            .expect("the delta chains on the empty snapshot");
        assert_eq!(chained.device_count(), 2);
        reg.apply(&ChurnOp::Deregister {
            replica: ReplicaId::new(0),
        });
        reg.apply(&ChurnOp::Deregister {
            replica: ReplicaId::new(1),
        });
        chained = chained
            .try_apply_delta(2, &drain(&mut reg))
            .expect("the delta chains on epoch 1");
        assert_eq!(chained.device_count(), 0);
        assert_eq!(chained.content_hash(), snap.content_hash());
        for include in [false, true] {
            assert_eq!(chained.entropy_bits(include), Err(DistributionError::Empty));
        }
        let h = chained.entropy_accumulator().entropy_bits();
        assert_eq!(h, 0.0);
        assert!(h.is_sign_positive(), "churned-empty entropy must be +0.0");
    }

    #[test]
    fn try_apply_delta_rejects_unchained_deltas() {
        // A delta produced on top of a populated registry cannot patch the
        // empty snapshot: the departure of a never-seen bucket member is a
        // chaining error, not a silent corruption.
        let mut reg = AttestedRegistry::new(TwoTierWeights::flat());
        reg.apply(&ChurnOp::attest(
            ReplicaId::new(0),
            sha256(b"cfg-a"),
            VotingPower::new(10),
        ));
        let _ = reg.take_delta();
        reg.apply(&ChurnOp::Deregister {
            replica: ReplicaId::new(0),
        });
        let unchained = drain(&mut reg);
        let err = EpochSnapshot::empty(TwoTierWeights::flat())
            .try_apply_delta(1, &unchained)
            .unwrap_err();
        assert!(
            matches!(&err, SealError::CorruptDelta { epoch: 1, .. }),
            "got {err}"
        );
        assert!(err.to_string().contains("not chained"), "got {err}");

        // Likewise for the unattested tier: the departing row is no entry
        // of the empty snapshot's roster.
        reg.apply(&ChurnOp::Unattested {
            replica: ReplicaId::new(1),
            power: VotingPower::new(10),
        });
        let _ = reg.take_delta();
        reg.apply(&ChurnOp::Deregister {
            replica: ReplicaId::new(1),
        });
        let err = EpochSnapshot::empty(TwoTierWeights::flat())
            .try_apply_delta(1, &drain(&mut reg))
            .unwrap_err();
        assert!(matches!(&err, SealError::CorruptDelta { .. }), "got {err}");
        assert!(
            err.to_string()
                .contains("departing row of replica r1 matches no entry"),
            "got {err}"
        );
    }

    fn attest(id: u64, cfg: &[u8], power: u64) -> ChurnOp {
        ChurnOp::attest(ReplicaId::new(id), sha256(cfg), VotingPower::new(power))
    }

    fn unattested(id: u64, power: u64) -> ChurnOp {
        ChurnOp::Unattested {
            replica: ReplicaId::new(id),
            power: VotingPower::new(power),
        }
    }

    /// r0 and r5 on cfg-a (60, 20), r3 on cfg-b (40), r7 unattested (80),
    /// and r9 on cfg-b at zero power.
    fn forgery_base() -> Vec<ChurnOp> {
        let mut base = mixed_ops();
        base.push(attest(9, b"cfg-b", 0));
        base
    }

    /// `churn` on top of [`forgery_base`], drained as a sealer reads it —
    /// from a twin registry that held the row `forged` wrote for the device
    /// `churn` first touches when the deltas were last drained. The delta's
    /// `before` for that device is the forgery, and its bucket sums agree
    /// with it, as those of every delta one registry drains do.
    fn drain_with_forged_before(churn: &[ChurnOp], forged: &ChurnOp) -> CanonicalDelta {
        assert_eq!(forged.replica(), churn[0].replica());
        let mut twin = registry_with(&forgery_base());
        twin.apply(forged);
        let _ = twin.take_delta();
        twin.apply_batch(churn);
        drain(&mut twin)
    }

    /// `snap` refuses `delta` as a `CorruptDelta` whose message names
    /// `why`, and — only read — still serves what it served.
    fn assert_refused(snap: &EpochSnapshot, delta: &CanonicalDelta, why: &str) {
        let served = (
            snap.content_hash(),
            snap.select_greedy(3),
            snap.device_count(),
        );
        let err = snap.try_apply_delta(2, delta).unwrap_err();
        assert!(
            matches!(&err, SealError::CorruptDelta { epoch: 2, .. }),
            "{why}: got {err}"
        );
        let text = err.to_string();
        assert!(
            text.contains(why) && text.contains("not chained"),
            "{why}: got {err}"
        );
        assert_eq!(snap.content_hash(), served.0);
        assert_eq!(snap.select_greedy(3).members(), served.1.members());
        assert_eq!(snap.device_count(), served.2);
    }

    #[test]
    fn forged_before_rows_are_corrupt_deltas_and_leave_the_snapshot_serving() {
        // (the epoch's churn, the forged `before` of the device it first
        // touches, why that cannot chain)
        let cases: [(Vec<ChurnOp>, ChurnOp, &str); 6] = [
            (
                vec![attest(0, b"cfg-a", 70)],
                attest(0, b"cfg-a", 61),
                "matches no entry",
            ),
            // The wrong bucket, at a power cfg-b can give up.
            (
                vec![attest(0, b"cfg-a", 70)],
                attest(0, b"cfg-b", 40),
                "matches no entry",
            ),
            (
                vec![attest(0, b"cfg-a", 70)],
                unattested(0, 60),
                "matches no entry",
            ),
            // A bucket the snapshot never had, refilled by a newcomer so
            // that the delta nets it to nothing.
            (
                vec![attest(0, b"cfg-a", 70), attest(4, b"cfg-x", 60)],
                attest(0, b"cfg-x", 60),
                "no previous bucket",
            ),
            // Never registered: the churn is the newcomer's arrival.
            (
                vec![attest(4, b"cfg-a", 10)],
                attest(4, b"cfg-a", 5),
                "matches no entry",
            ),
            // A zero-power row is held like any other, so it must match.
            (
                vec![unattested(4, 10)],
                attest(4, b"cfg-b", 0),
                "matches no entry",
            ),
        ];
        for (churn, forged, why) in cases {
            let mut reg = registry_with(&forgery_base());
            let snap = EpochSnapshot::from_registry(&reg, 1);
            assert_eq!(snap.device_count(), 5);
            assert_refused(&snap, &drain_with_forged_before(&churn, &forged), why);

            // The same churn with its true `before` chains, bit for bit.
            let _ = reg.take_delta();
            reg.apply_batch(&churn);
            let patched = snap.try_apply_delta(2, &drain(&mut reg)).unwrap();
            let rebuilt = EpochSnapshot::from_registry(&reg, 2);
            assert_eq!(patched.content_hash(), rebuilt.content_hash());
            assert_eq!(patched.candidates(), rebuilt.candidates());
        }
    }

    #[test]
    fn forged_after_rows_are_corrupt_deltas_and_leave_the_snapshot_serving() {
        // An arrival's handle resolves to its measurement, and that to a
        // patched bucket slot. Here a stray shard's drain, merged after the
        // real one, takes the measurement's bucket away, so the arrival
        // cites a measurement the patched buckets lack.
        let leave = |id: u64| ChurnOp::Deregister {
            replica: ReplicaId::new(id),
        };
        let stray = |held: &[ChurnOp], churn: &[ChurnOp]| {
            let mut reg = registry_with(held);
            let _ = reg.take_delta();
            reg.apply_batch(churn);
            reg.take_delta()
        };
        // (the real arrival, the stray shard's delta, the measurement cited)
        let cases: [(ChurnOp, ChurnDelta, &[u8]); 2] = [
            // A bucket born and netted to nothing: on neither side.
            (
                attest(4, b"cfg-x", 60),
                stray(&[attest(20, b"cfg-x", 60)], &[leave(20)]),
                b"cfg-x",
            ),
            // cfg-b's two members (power 40) and as much as the arrival
            // brings leave: the bucket dies in the patch.
            (
                attest(6, b"cfg-b", 25),
                stray(
                    &[
                        attest(20, b"cfg-b", 40),
                        attest(21, b"cfg-b", 25),
                        attest(22, b"cfg-b", 0),
                    ],
                    &[leave(20), leave(21), leave(22)],
                ),
                b"cfg-b",
            ),
        ];
        for (arrival, stray, cited) in cases {
            let mut reg = registry_with(&forgery_base());
            let snap = EpochSnapshot::from_registry(&reg, 1);
            let _ = reg.take_delta();
            reg.apply(&arrival);
            let delta = CanonicalDelta::merge(vec![reg.take_delta(), stray]);
            let why = format!(
                "touched device {} cites measurement {} with no patched bucket",
                arrival.replica(),
                sha256(cited)
            );
            assert_refused(&snap, &delta, &why);
        }
    }

    #[test]
    fn a_replica_in_two_merged_deltas_is_a_corrupt_delta() {
        // Shards own disjoint devices, so a replica two drained deltas both
        // name is a routing bug, whatever the two rows say: here the real
        // churn twice over, or beside a stray shard that saw the device
        // registered and gone again — rows that net to nothing, so every
        // bucket sum still chains. Zero power changes nothing.
        for churn in [attest(0, b"cfg-a", 70), attest(9, b"cfg-b", 0)] {
            let mut reg = registry_with(&forgery_base());
            let snap = EpochSnapshot::from_registry(&reg, 1);
            let _ = reg.take_delta();
            reg.apply(&churn);
            let real = reg.take_delta();
            let mut stray = AttestedRegistry::new(reg.weights());
            stray.apply(&unattested(churn.replica().as_u64(), 1));
            stray.apply(&ChurnOp::Deregister {
                replica: churn.replica(),
            });
            for twice in [
                vec![real.clone(), real.clone()],
                vec![real, stray.take_delta()],
            ] {
                assert_refused(&snap, &CanonicalDelta::merge(twice), "listed twice");
            }
        }
    }

    #[test]
    fn the_index_costs_sixteen_bytes_a_device_however_it_was_sealed() {
        // 3 000 devices over eight buckets and the unattested tier, zero
        // power included; then one bucket dies as its members move to a
        // bucket born this epoch, devices cross tiers both ways, some leave.
        let cfg = |i: u64| format!("cfg-{}", i % 8);
        let ops: Vec<ChurnOp> = (0..3_000u64)
            .map(|i| match i % 5 {
                0 => unattested(i, i % 7),
                _ => attest(i, cfg(i).as_bytes(), i % 13),
            })
            .collect();
        let mut reg = registry_with(&ops);
        let parent = EpochSnapshot::from_registry(&reg, 1);
        let _ = reg.take_delta();
        for i in 0..3_000u64 {
            if i % 97 == 2 {
                reg.apply(&ChurnOp::Deregister {
                    replica: ReplicaId::new(i),
                });
            } else if i % 10 == 1 {
                reg.apply(&unattested(i, 5));
            } else if i % 10 == 5 {
                reg.apply(&attest(i, b"cfg-0", 9));
            } else if i % 8 == 3 && i % 5 != 0 {
                reg.apply(&attest(i, b"cfg-born", i % 13));
            }
        }
        let patched = parent.try_apply_delta(2, &drain(&mut reg)).unwrap();
        let rebuilt = EpochSnapshot::from_registry(&reg, 2);
        assert_eq!(patched.content_hash(), rebuilt.content_hash());
        assert!(!patched
            .buckets()
            .iter()
            .any(|&(m, _)| m == sha256(b"cfg-3")));

        for snap in [&parent, &patched, &rebuilt] {
            // One table: the entries, and an 8-byte offset for each of two
            // lists a slot, and one more.
            let lists = 2 * (snap.buckets().len() + 1);
            let index = snap.pruned.heap_bytes();
            assert_eq!(index, 16 * snap.device_count() + 8 * (lists + 1));
            assert!(snap.heap_bytes() > index);
        }
        // A patch writes the table a full build writes, at its exact size.
        assert_eq!(patched.pruned, rebuilt.pruned);
        assert_eq!(patched.pruned.heap_bytes(), rebuilt.pruned.heap_bytes());
        // The replica-sorted view counts once derived: 24 B a device.
        let before = rebuilt.heap_bytes();
        let _ = rebuilt.candidates();
        assert_eq!(rebuilt.heap_bytes(), before + 24 * rebuilt.device_count());
    }

    #[test]
    fn devices_are_the_sorted_registry_rows_tier_included() {
        let mut ops = mixed_ops();
        ops.push(ChurnOp::attest(
            ReplicaId::new(9),
            sha256(b"cfg-c"),
            VotingPower::ZERO,
        ));
        ops.push(ChurnOp::Unattested {
            replica: ReplicaId::new(1),
            power: VotingPower::ZERO,
        });
        let mut reg = registry_with(&ops);
        let sorted_rows = |reg: &AttestedRegistry| {
            let mut rows: Vec<RegisteredDevice> = reg.devices().collect();
            rows.sort_unstable_by_key(|d| d.replica);
            rows
        };
        let snap = EpochSnapshot::from_registry(&reg, 1);
        assert_eq!(snap.devices().collect::<Vec<_>>(), sorted_rows(&reg));
        assert_eq!(snap.device_count(), 6);

        // …and through a patch in which a bucket dies (cfg-b), a device
        // leaves and two others swap tiers.
        let _ = reg.take_delta();
        reg.apply_batch(&[
            ChurnOp::Deregister {
                replica: ReplicaId::new(3),
            },
            ChurnOp::Unattested {
                replica: ReplicaId::new(5),
                power: VotingPower::new(20),
            },
            ChurnOp::attest(ReplicaId::new(7), sha256(b"cfg-a"), VotingPower::new(80)),
        ]);
        let patched = snap
            .try_apply_delta(2, &drain(&mut reg))
            .expect("the delta chains");
        assert_eq!(patched.devices().collect::<Vec<_>>(), sorted_rows(&reg));
    }

    #[test]
    fn from_registry_mirrors_registry_queries() {
        let reg = registry_with(&mixed_ops());
        let snap = EpochSnapshot::from_registry(&reg, 1);
        assert_eq!(snap.device_count(), reg.len());
        assert_eq!(snap.unattested_power(), reg.unattested_power());
        // Buckets equal a recount of the registry's attested devices, in
        // digest order.
        let weights = reg.weights();
        let mut recount: BTreeMap<Digest, VotingPower> = BTreeMap::new();
        for d in reg.devices() {
            if let Some(m) = d.measurement {
                *recount.entry(m).or_insert(VotingPower::ZERO) +=
                    d.power.scaled(weights.attested());
            }
        }
        let expected: Vec<(Digest, VotingPower)> = recount.into_iter().collect();
        assert_eq!(snap.buckets(), &expected[..]);
        assert_eq!(snap.buckets(), &reg.bucket_rows().collect::<Vec<_>>()[..]);
        assert_eq!(
            snap.total_effective_power(),
            expected.iter().map(|&(_, p)| p).sum::<VotingPower>() + reg.unattested_power()
        );
        // Rows in digest order, the opaque row last and only on request.
        for include in [false, true] {
            let mut units: Vec<u64> = expected.iter().map(|&(_, p)| p.as_units()).collect();
            if include {
                units.push(reg.unattested_power().as_units());
            }
            let batch = Distribution::from_counts(&units).unwrap();
            let dist = snap.distribution(include).unwrap();
            assert_eq!(dist.probabilities(), batch.probabilities());
            let h = snap.entropy_bits(include).unwrap();
            assert!(
                (h - batch.shannon_entropy()).abs() < 1e-12,
                "include={include}: {h} vs {}",
                batch.shannon_entropy()
            );
        }
    }

    #[test]
    fn registries_equal_in_content_seal_to_one_hash() {
        // The second history births cfg-b first and recycles cfg-c's dead
        // bucket handle for cfg-a, so the two registries name the same
        // buckets by different handles.
        let (a, b, c) = (sha256(b"cfg-a"), sha256(b"cfg-b"), sha256(b"cfg-c"));
        let first = registry_with(&[
            ChurnOp::attest(ReplicaId::new(0), a, VotingPower::new(60)),
            ChurnOp::attest(ReplicaId::new(1), b, VotingPower::new(40)),
        ]);
        let second = registry_with(&[
            ChurnOp::attest(ReplicaId::new(1), b, VotingPower::new(40)),
            ChurnOp::attest(ReplicaId::new(0), c, VotingPower::new(60)),
            ChurnOp::attest(ReplicaId::new(0), a, VotingPower::new(60)),
        ]);
        assert_eq!(first, second);
        assert_eq!(
            EpochSnapshot::from_registry(&first, 1).content_hash(),
            EpochSnapshot::from_registry(&second, 1).content_hash()
        );
    }

    #[test]
    fn roster_is_sorted_with_bucket_configs() {
        let snap = EpochSnapshot::from_registry(&registry_with(&mixed_ops()), 1);
        let ids: Vec<u64> = snap
            .candidates()
            .iter()
            .map(|c| c.replica().as_u64())
            .collect();
        assert_eq!(ids, vec![0, 3, 5, 7]);
        // cfg-a and cfg-b occupy bucket slots 0/1 in digest order; the
        // unattested device gets the pseudo-slot 2.
        let cfg_a_slot = snap
            .buckets()
            .binary_search_by_key(&sha256(b"cfg-a"), |&(m, _)| m)
            .unwrap();
        let by_id = |id: u64| {
            *snap
                .candidates()
                .iter()
                .find(|c| c.replica().as_u64() == id)
                .unwrap()
        };
        assert_eq!(by_id(0).config(), cfg_a_slot);
        assert_eq!(by_id(5).config(), cfg_a_slot);
        assert!(by_id(0).attested());
        assert_eq!(by_id(7).config(), snap.buckets().len());
        assert!(!by_id(7).attested());
        // Raw power, not tier-weighted: the sortition applies weights.
        assert_eq!(by_id(7).power(), VotingPower::new(80));
    }

    #[test]
    fn selection_over_snapshot_equals_selection_over_roster() {
        let snap = EpochSnapshot::from_registry(&registry_with(&mixed_ops()), 1);
        for k in 0..=5 {
            assert_eq!(
                snap.select_greedy(k).members(),
                greedy_diverse_naive(snap.candidates(), k).members()
            );
        }
    }

    #[test]
    fn content_hash_tracks_content_not_epoch_or_history() {
        let reg = registry_with(&mixed_ops());
        let a = EpochSnapshot::from_registry(&reg, 1);
        let b = EpochSnapshot::from_registry(&reg, 99);
        assert_eq!(a.content_hash(), b.content_hash());
        assert_eq!(b.epoch(), 99);

        // A registry that took a different route to the same end state
        // hashes identically…
        let mut detour = registry_with(&mixed_ops());
        detour.apply(&ChurnOp::attest(
            ReplicaId::new(0),
            sha256(b"cfg-z"),
            VotingPower::new(1),
        ));
        detour.apply(&ChurnOp::attest(
            ReplicaId::new(0),
            sha256(b"cfg-a"),
            VotingPower::new(60),
        ));
        assert_eq!(
            EpochSnapshot::from_registry(&detour, 1).content_hash(),
            a.content_hash()
        );

        // …while any content change flips the digest.
        let mut changed = registry_with(&mixed_ops());
        changed.apply(&ChurnOp::Deregister {
            replica: ReplicaId::new(5),
        });
        assert_ne!(
            EpochSnapshot::from_registry(&changed, 1).content_hash(),
            a.content_hash()
        );
    }

    #[test]
    fn zero_power_rows_follow_registry_error_semantics() {
        let mut reg = AttestedRegistry::new(TwoTierWeights::flat());
        reg.apply(&ChurnOp::attest(
            ReplicaId::new(0),
            sha256(b"cfg-a"),
            VotingPower::ZERO,
        ));
        let snap = EpochSnapshot::from_registry(&reg, 1);
        assert_eq!(snap.buckets().len(), 1);
        assert_eq!(
            snap.entropy_bits(false),
            Err(DistributionError::ZeroTotalWeight)
        );
        assert_eq!(
            snap.distribution(false).map(|d| d.dimension()),
            Err(DistributionError::ZeroTotalWeight)
        );
        // One row with power is certain: exactly +0.0 bits.
        reg.apply(&ChurnOp::attest(
            ReplicaId::new(1),
            sha256(b"cfg-a"),
            VotingPower::new(5),
        ));
        let h = EpochSnapshot::from_registry(&reg, 2).entropy_bits(false);
        assert_eq!(h, Ok(0.0));
        assert!(h.unwrap().is_sign_positive());
    }

    /// `order_replicas` against the comparison sort it replaced.
    fn orders_like_sort_unstable(ids: &[u64]) {
        let mut radix: Vec<ReplicaId> = ids.iter().copied().map(ReplicaId::new).collect();
        let mut sorted = radix.clone();
        sorted.sort_unstable();
        order_replicas(&mut radix);
        assert_eq!(radix, sorted, "ids {ids:?}");
    }

    #[test]
    fn churned_ids_order_like_sort_unstable() {
        orders_like_sort_unstable(&[]);
        orders_like_sort_unstable(&[7]);
        // All ids equal: no bit varies and nothing moves.
        orders_like_sort_unstable(&[5, 5, 5]);
        // The extremes, and an id listed twice, which the seal then
        // finds adjacent and refuses.
        orders_like_sort_unstable(&[u64::MAX, 0, 1 << 63, 1, u64::MAX - 1, 0]);
        // Ids that differ only in their top byte, or in bits on both
        // sides of a digit boundary.
        orders_like_sort_unstable(&[0xff << 56, 0, 0x80 << 56, 0x7f << 56]);
        orders_like_sort_unstable(&[1 << 11, 1 << 10, (1 << 11) | (1 << 10), 1 << 21, 1 << 22, 0]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Random id sets: small (few varying bits, repeats) and from the
        /// whole `u64`.
        #[test]
        fn churned_ids_order_like_sort_unstable_on_random_ids(
            ids in proptest::collection::vec(
                proptest::prop_oneof![0..64u64, 0..(1u64 << 20), proptest::prelude::any::<u64>()],
                0..200,
            ),
        ) {
            orders_like_sort_unstable(&ids);
        }
    }
}
