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
//! [`EpochSnapshot::from_registry`] — whose own
//! [`entropy_bits`](AttestedRegistry::entropy_bits) is the same fold over
//! the same rows.
//!
//! There are two ways to construct that canonical form. The **full build**
//! (the private `EpochSnapshot::build`) merges complete shard rows — the
//! cold-start and recovery path. The **differential patch**
//! ([`EpochSnapshot::try_apply_delta`]) applies one epoch's
//! [`CanonicalDelta`] — the shards' drained deltas, sorted once — to the
//! previous snapshot. Both fold the
//! [`EntropyAccumulator`] from the finished bucket table with
//! `from_weights`, so the two agree in every bit a reader can observe —
//! content hash, entropy and accumulator state included; only the
//! provenance fields ([`parent_hash`](EpochSnapshot::parent_hash),
//! [`churned_replicas`](EpochSnapshot::churned_replicas)) tell them apart.
//!
//! **What a patch copies.** A snapshot stores two rows per device: its
//! [`Candidate`] in the roster, sorted by replica id (24 B), and — if it
//! has power — its entry in the [`PrunedRoster`] selection index (24 B);
//! the [`RegisteredDevice`] view is derived from the candidate and the
//! bucket table, not stored. Snapshots share nothing, so a patch writes
//! both tables anew — 48 B per device, O(n) memory traffic, the half of a
//! differential seal's cost that follows fleet size — each in one merge
//! walk against the sorted churn that copies the untouched runs between
//! churned rows as slices. The other half follows churn, and handles each
//! churned row once per table: it arrives sorted by replica (the
//! [`CanonicalDelta`]'s one sort), is looked up in the roster by a scan
//! that is linear over short runs and gallops over long ones, and is
//! grouped by slot in a counting pass before the selection index sorts it
//! by power inside its slot.
//!
//! **Who hashes what, and when.** The content hash folds two
//! order-independent [`SetDigest`] sums of per-row SHA-256 digests: one
//! over bucket rows, one over device-roster rows. The device row digest is
//! defined in `fi-attest` ([`device_row_digest`]) and computed by the
//! [`AttestedRegistry`] exactly once per row, when the row is written;
//! the registry keeps a running sum over its rows
//! ([`AttestedRegistry::roster_digest`]) and records the net change since
//! the last cut in its [`ChurnDelta`](fi_attest::ChurnDelta). Sealing is
//! then arithmetic: a differential seal adds the merged delta's
//! [`row_digest_change`](CanonicalDelta::row_digest_change) to the previous
//! device aggregate, and a fleet re-anchor hands `build`
//! the sum of the shards' running sums. The only hashing left at a seal is
//! the bucket rows (dozens, and only the dirty ones on the differential
//! path) and the final fold. The oracle paths deliberately do *not* trust
//! that bookkeeping: [`EpochSnapshot::from_registry`] and checkpoint
//! rebuilds (`roster_aggregate`) re-hash every row from scratch, so the
//! differential suites and the self-verifying checkpoint stay independent
//! of the incremental path they check.

use std::collections::BTreeMap;

use fi_attest::{
    device_row_digest, AttestedRegistry, CanonicalDelta, RegisteredDevice, TwoTierWeights,
};
use fi_committee::pruned::gallop_partition_point;
use fi_committee::{
    two_tier_weighted, warm_greedy, Candidate, Committee, PrunedRoster, WarmReport,
};
use fi_entropy::{Distribution, DistributionError, EntropyAccumulator};
use fi_types::hash::{SetDigest, Sha256};
use fi_types::{Digest, ReplicaId, VotingPower};
use rand::rngs::StdRng;

use crate::error::SealError;

/// An immutable, sealed view of the whole fleet at one epoch: merged
/// measurement buckets, a prebuilt entropy accumulator, the sorted device
/// roster as committee candidates, and a stable content hash.
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
    /// members included).
    buckets: Vec<(Digest, VotingPower)>,
    /// Registered-member count per bucket (parallel to `buckets`, every
    /// count ≥ 1 — a bucket whose last member left is dropped). This is
    /// what lets [`try_apply_delta`](Self::try_apply_delta) decide bucket
    /// birth/death from integer member deltas alone.
    bucket_members: Vec<u32>,
    /// Total effective power of the unattested tier.
    opaque: VotingPower,
    /// The roster: one candidate per registered device, sorted by replica
    /// id, configuration index = position of its measurement in `buckets`
    /// (unattested devices share the pseudo-configuration `buckets.len()`).
    /// [`devices`](Self::devices) is this table read through `buckets`.
    candidates: Vec<Candidate>,
    /// Canonical accumulator over `buckets`, in bucket order.
    acc: EntropyAccumulator,
    /// The pruned selection index over `candidates` — dense slots, one per
    /// bucket plus the trailing unattested pseudo-slot — carried forward
    /// by [`try_apply_delta`](Self::try_apply_delta) so serving a
    /// committee never re-sorts the fleet.
    pruned: PrunedRoster,
    /// The previous snapshot's content hash when this one was produced by
    /// [`try_apply_delta`](Self::try_apply_delta); `None` for full builds. This is
    /// the warm-start chaining key: a committee selected on the parent
    /// content can seed [`select_greedy_warm`](Self::select_greedy_warm).
    parent_hash: Option<Digest>,
    /// The sorted replica ids touched by the delta that produced this
    /// snapshot (empty for full builds).
    churned: Vec<ReplicaId>,
    /// Order-independent aggregate of per-bucket row digests — the
    /// incrementally maintainable half of the content hash.
    bucket_agg: SetDigest,
    /// Order-independent aggregate of per-device row digests.
    device_agg: SetDigest,
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

/// The device-roster aggregate computed from scratch: one
/// [`device_row_digest`] per row. This is the oracle's half of the
/// bargain — [`EpochSnapshot::from_registry`] and checkpoint rebuilds call
/// it so they never depend on aggregates maintained at write time.
pub(crate) fn roster_aggregate(devices: &[RegisteredDevice]) -> SetDigest {
    let mut agg = SetDigest::EMPTY;
    for d in devices {
        agg.insert(&device_row_digest(d));
    }
    agg
}

impl EpochSnapshot {
    /// The canonical builder all sealing paths share: merged bucket rows
    /// (keyed — hence sorted — by digest), the summed opaque power, the
    /// collected device rows (sorted here, kept as candidates), and the
    /// roster's row-digest aggregate — summed from the shards' write-time
    /// aggregates by the fleet, recomputed with [`roster_aggregate`] by the
    /// oracle paths.
    pub(crate) fn build(
        epoch: u64,
        weights: TwoTierWeights,
        rows: BTreeMap<Digest, VotingPower>,
        opaque: VotingPower,
        mut devices: Vec<RegisteredDevice>,
        device_agg: SetDigest,
    ) -> EpochSnapshot {
        let buckets: Vec<(Digest, VotingPower)> = rows.into_iter().collect();
        devices.sort_unstable_by_key(|d| d.replica);

        let acc = canonical_accumulator(&buckets);

        let opaque_slot = buckets.len();
        let mut bucket_members = vec![0u32; buckets.len()];
        let mut candidates = Vec::with_capacity(devices.len());
        for d in &devices {
            let (config, attested) = match d.measurement {
                Some(m) => {
                    let slot = buckets
                        .binary_search_by_key(&m, |&(digest, _)| digest)
                        .expect("every attested device's measurement has a bucket");
                    bucket_members[slot] += 1;
                    (slot, true)
                }
                None => (opaque_slot, false),
            };
            candidates.push(Candidate::new(d.replica, d.power, config, attested));
        }
        debug_assert!(
            bucket_members.iter().all(|&c| c > 0),
            "every live bucket has at least one registered member"
        );
        let pruned = PrunedRoster::from_dense(opaque_slot + 1, &candidates);

        let mut bucket_agg = SetDigest::EMPTY;
        for &(m, p) in &buckets {
            bucket_agg.insert(&bucket_row_digest(&m, p));
        }
        let content_hash =
            Self::finalize_content(buckets.len(), bucket_agg, opaque, devices.len(), device_agg);
        EpochSnapshot {
            epoch,
            weights,
            buckets,
            bucket_members,
            opaque,
            candidates,
            acc,
            pruned,
            parent_hash: None,
            churned: Vec::new(),
            bucket_agg,
            device_agg,
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
    #[must_use]
    pub fn from_registry(registry: &AttestedRegistry, epoch: u64) -> EpochSnapshot {
        let rows: BTreeMap<Digest, VotingPower> = registry.bucket_rows().collect();
        let devices: Vec<RegisteredDevice> = registry.devices().collect();
        // `devices()` yields the registry's `HashMap` order; the aggregate
        // is a commutative sum, so folding it before `build` sorts the
        // roster is order-independent.
        let device_agg = roster_aggregate(&devices);
        EpochSnapshot::build(
            epoch,
            registry.weights(),
            rows,
            registry.unattested_power(),
            devices,
            device_agg,
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
            Vec::new(),
            SetDigest::EMPTY,
        )
    }

    /// Patches this snapshot with one epoch's [`CanonicalDelta`],
    /// producing the `epoch` snapshot without the O(fleet) shard re-merge,
    /// roster sort and index rebuild a full `build` pays.
    /// The delta's rows are read as they come — already sorted, one per
    /// bucket and one per replica — so nothing is collected or sorted
    /// here. Structural work is O(changed · log n) at worst: dirty buckets
    /// and touched devices are located by merge walks (linear over the
    /// first few rows of a run, galloping past that) and binary search,
    /// and the touched rows are grouped by slot in a counting pass for the
    /// selection index. The rest is the copy, **one pass per table**: the
    /// roster (24 B a device) copies each untouched run between two
    /// touched replicas as a slice, remapping configs row by row only in
    /// an epoch where a bucket was born or died;
    /// [`PrunedRoster::patch_dense`] writes the selection index (24 B a
    /// device with power) list by list.
    /// No roster row is hashed here: the registry hashed each touched row
    /// when it wrote it, and the delta carries the net of those digests
    /// ([`CanonicalDelta::row_digest_change`]), which is added to this
    /// snapshot's device aggregate. Only dirty bucket rows are hashed.
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
    /// bucket, a member count going negative, an opaque delta driving the
    /// opaque power negative, a new bucket arriving without members, or an
    /// overflow past the integer domains. `self` is never mutated — a
    /// rejected delta leaves this snapshot serving.
    pub fn try_apply_delta(
        &self,
        epoch: u64,
        delta: &CanonicalDelta,
    ) -> Result<EpochSnapshot, SealError> {
        let corrupt = |detail: String| SealError::CorruptDelta { epoch, detail };
        let dirty = delta.buckets();
        let roster = delta.roster();

        // 1. Patch the sorted bucket vec (merge walk old × dirty), while
        //    collecting the old→new slot remap that lets unchanged
        //    candidates skip the binary search.
        let old_buckets = &self.buckets;
        let mut buckets = Vec::with_capacity(old_buckets.len() + dirty.len());
        let mut bucket_members = Vec::with_capacity(old_buckets.len() + dirty.len());
        // Old slot → new slot for surviving buckets plus the opaque
        // pseudo-slot (last entry); removed buckets keep `usize::MAX`.
        let mut slot_map = vec![usize::MAX; old_buckets.len() + 1];
        let mut removals: Vec<usize> = Vec::new();
        let mut insertions: Vec<usize> = Vec::new();
        let mut bucket_agg = self.bucket_agg;
        // The roster rows were hashed where they were written; their net
        // change is the delta's to report.
        let mut device_agg = self.device_agg;
        device_agg.add(delta.row_digest_change());

        let (mut i, mut j) = (0, 0);
        while i < old_buckets.len() || j < dirty.len() {
            let take_old =
                j >= dirty.len() || (i < old_buckets.len() && old_buckets[i].0 < dirty[j].0);
            if take_old {
                slot_map[i] = buckets.len();
                buckets.push(old_buckets[i]);
                bucket_members.push(self.bucket_members[i]);
                i += 1;
            } else if i < old_buckets.len() && old_buckets[i].0 == dirty[j].0 {
                let (m, d) = dirty[j];
                let members = i64::from(self.bucket_members[i]) + d.members;
                let power = i128::from(old_buckets[i].1.as_units()) + d.power;
                if members < 0 || power < 0 {
                    return Err(corrupt(format!(
                        "churn delta underflows bucket {m}: delta not chained on this snapshot"
                    )));
                }
                if members == 0 {
                    if power != 0 {
                        return Err(corrupt(format!(
                            "memberless bucket {m} retains power: \
                             delta not chained on this snapshot"
                        )));
                    }
                    bucket_agg.remove(&bucket_row_digest(&m, old_buckets[i].1));
                    removals.push(i);
                } else {
                    let Ok(power_units) = u64::try_from(power) else {
                        return Err(corrupt(format!(
                            "bucket {m} power overflows u64: \
                             delta not chained on this snapshot"
                        )));
                    };
                    let power = VotingPower::new(power_units);
                    slot_map[i] = buckets.len();
                    if d.power != 0 {
                        bucket_agg.remove(&bucket_row_digest(&m, old_buckets[i].1));
                        bucket_agg.insert(&bucket_row_digest(&m, power));
                    }
                    buckets.push((m, power));
                    let Ok(members) = u32::try_from(members) else {
                        return Err(corrupt(format!(
                            "bucket {m} member count overflows u32: \
                             delta not chained on this snapshot"
                        )));
                    };
                    bucket_members.push(members);
                }
                i += 1;
                j += 1;
            } else {
                // A bucket born this epoch.
                let (m, d) = dirty[j];
                if d.members <= 0 || d.power < 0 {
                    return Err(corrupt(format!(
                        "new bucket {m} arrives with non-positive members or negative power: \
                         delta not chained on this snapshot"
                    )));
                }
                let Ok(power_units) = u64::try_from(d.power) else {
                    return Err(corrupt(format!(
                        "new bucket {m} power overflows u64: delta not chained on this snapshot"
                    )));
                };
                let power = VotingPower::new(power_units);
                bucket_agg.insert(&bucket_row_digest(&m, power));
                insertions.push(buckets.len());
                buckets.push((m, power));
                let Ok(members) = u32::try_from(d.members) else {
                    return Err(corrupt(format!(
                        "new bucket {m} member count overflows u32: \
                         delta not chained on this snapshot"
                    )));
                };
                bucket_members.push(members);
                j += 1;
            }
        }
        slot_map[old_buckets.len()] = buckets.len();

        // 2. The accumulator, from the patched buckets as `build` makes it.
        let acc = canonical_accumulator(&buckets);

        // 3. Patch the roster (merge walk old × touched): gallop to the
        //    end of each untouched run and copy it — as a slice when no
        //    bucket was born or died (the slot map is the identity), else
        //    row by row through `slot_map`. Touched devices binary-search
        //    the patched buckets; their old and new rows are staged for
        //    the selection index.
        let slots_moved = !(removals.is_empty() && insertions.is_empty());
        let copy_run = |candidates: &mut Vec<Candidate>, run: &[Candidate]| {
            if !slots_moved {
                candidates.extend_from_slice(run);
                return Ok(());
            }
            for old in run {
                let config = slot_map[old.config()];
                if config == usize::MAX {
                    return Err(corrupt(format!(
                        "untouched device {} points at a removed bucket: \
                         delta not chained on this snapshot",
                        old.replica()
                    )));
                }
                candidates.push(Candidate::new(
                    old.replica(),
                    old.power(),
                    config,
                    old.attested(),
                ));
            }
            Ok(())
        };
        let opaque_slot = buckets.len();
        let patched_candidate = |d: &RegisteredDevice| -> Result<Candidate, SealError> {
            match d.measurement {
                Some(m) => match buckets.binary_search_by_key(&m, |&(digest, _)| digest) {
                    Ok(slot) => Ok(Candidate::new(d.replica, d.power, slot, true)),
                    Err(_) => Err(corrupt(format!(
                        "touched device {} cites measurement {m} with no patched bucket: \
                         delta not chained on this snapshot",
                        d.replica
                    ))),
                },
                None => Ok(Candidate::new(d.replica, d.power, opaque_slot, false)),
            }
        };
        let old = &self.candidates;
        let mut candidates = Vec::with_capacity(old.len() + roster.len());
        let mut departed: Vec<Candidate> = Vec::with_capacity(roster.len());
        let mut arrivals: Vec<Candidate> = Vec::with_capacity(roster.len());
        let mut churned: Vec<ReplicaId> = Vec::with_capacity(roster.len());
        let mut at = 0;
        for &(replica, state) in roster {
            let run = gallop_partition_point(&old[at..], |c| c.replica() < replica);
            copy_run(&mut candidates, &old[at..at + run])?;
            at += run;
            churned.push(replica);
            if let Some(d) = state {
                let c = patched_candidate(&d)?;
                candidates.push(c);
                arrivals.push(c);
            }
            // A `None` state for an absent device is a tolerated no-op
            // (a deregister of a never-registered replica).
            if old.get(at).is_some_and(|c| c.replica() == replica) {
                departed.push(old[at]);
                at += 1;
            }
        }
        copy_run(&mut candidates, &old[at..])?;

        // The selection index is written in one pass from the old one,
        // its slots removed and inserted where the buckets' were.
        let pruned = self
            .pruned
            .patch_dense(&departed, &arrivals, &removals, &insertions);
        debug_assert_eq!(
            pruned,
            PrunedRoster::from_dense(buckets.len() + 1, &candidates),
            "differentially patched selection index diverged from a rebuild"
        );

        // 4. Opaque power (integer-exact, range-checked) and the content
        //    hash finalised over the patched row aggregates —
        //    byte-identical to a full rebuild's.
        let opaque_units = i128::from(self.opaque.as_units()) + delta.opaque_delta();
        if opaque_units < 0 {
            return Err(corrupt(
                "opaque power driven negative: delta not chained on this snapshot".to_string(),
            ));
        }
        let Ok(opaque_units) = u64::try_from(opaque_units) else {
            return Err(corrupt(
                "opaque power overflows u64: delta not chained on this snapshot".to_string(),
            ));
        };
        let opaque = VotingPower::new(opaque_units);
        let content_hash = Self::finalize_content(
            buckets.len(),
            bucket_agg,
            opaque,
            candidates.len(),
            device_agg,
        );
        Ok(EpochSnapshot {
            epoch,
            weights: self.weights,
            buckets,
            bucket_members,
            opaque,
            candidates,
            acc,
            pruned,
            parent_hash: Some(self.content_hash),
            churned,
            bucket_agg,
            device_agg,
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

    /// Number of registered devices (both tiers).
    #[must_use]
    pub fn device_count(&self) -> usize {
        self.candidates.len()
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

    /// The device roster, sorted by replica id — each row derived from
    /// its candidate and the bucket table (the same shape as
    /// [`AttestedRegistry::devices`], in canonical order).
    pub fn devices(&self) -> impl Iterator<Item = RegisteredDevice> + '_ {
        self.candidates.iter().map(|c| RegisteredDevice {
            replica: c.replica(),
            measurement: c.attested().then(|| self.buckets[c.config()].0),
            power: c.power(),
        })
    }

    /// The prebuilt committee-candidate roster (sorted by replica id, raw
    /// power, configuration index = bucket position; unattested devices
    /// share the pseudo-configuration `buckets().len()`).
    #[must_use]
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
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
    /// the canonical accumulator. Error semantics mirror
    /// [`AttestedRegistry::entropy_bits`] exactly.
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
    /// κ-optimality). Row order mirrors
    /// [`AttestedRegistry::distribution`]: measurements sorted, opaque
    /// bucket last.
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

    /// Greedy entropy-maximising selection over the prebuilt pruned index
    /// (byte-identical member sequence to
    /// [`greedy_diverse`](fi_committee::greedy_diverse) on the same
    /// candidates, without re-sorting the roster per call). Lock-free:
    /// touches only this snapshot.
    #[must_use]
    pub fn select_greedy(&self, k: usize) -> Committee {
        self.pruned.select(k)
    }

    /// Warm-started greedy selection: replays `previous` — the committee
    /// selected for the same `k` on this snapshot's *parent* content (see
    /// [`parent_hash`](Self::parent_hash)) — against the churned rows only,
    /// repairing from the first divergent round. Byte-identical to
    /// [`select_greedy`](Self::select_greedy); steady-state cost is
    /// O(k · churn) instead of O(k · buckets · log n).
    ///
    /// Callers are responsible for the chaining check: if `previous` was
    /// not selected on the content identified by
    /// [`parent_hash`](Self::parent_hash), the churn set does not describe
    /// the difference and the result is unspecified (though still a valid
    /// committee). [`SelectionCache`](crate::SelectionCache) performs this
    /// check per lookup.
    #[must_use]
    pub fn select_greedy_warm(&self, k: usize, previous: &[Candidate]) -> (Committee, WarmReport) {
        warm_greedy(&self.pruned, &self.candidates, previous, &self.churned, k)
    }

    /// The content hash of the snapshot this one was differentially patched
    /// from (`None` for full builds / re-anchor epochs). Committees keyed
    /// by this hash can warm-start
    /// [`select_greedy_warm`](Self::select_greedy_warm).
    #[must_use]
    pub fn parent_hash(&self) -> Option<Digest> {
        self.parent_hash
    }

    /// The sorted replica ids whose roster rows changed relative to the
    /// parent snapshot (empty for full builds).
    #[must_use]
    pub fn churned_replicas(&self) -> &[ReplicaId] {
        &self.churned
    }

    /// Two-tier attested-weighted sortition over the prebuilt roster
    /// (identical member sequence to [`two_tier_weighted`] on the same
    /// candidates and RNG state). Lock-free: touches only this snapshot.
    #[must_use]
    pub fn select_two_tier(
        &self,
        k: usize,
        weights: TwoTierWeights,
        rng: &mut StdRng,
    ) -> Committee {
        two_tier_weighted(&self.candidates, k, weights, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_attest::ChurnOp;
    use fi_committee::greedy_diverse;
    use fi_types::sha256;
    use rand::SeedableRng;

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
        let empty_reg = AttestedRegistry::new(TwoTierWeights::flat());
        assert_eq!(snap.entropy_bits(false), empty_reg.entropy_bits(false));
    }

    #[test]
    fn empty_snapshot_error_semantics_match_fresh_registry_exactly() {
        // Satellite pin: the zero-device snapshot must be indistinguishable
        // from a fresh `AttestedRegistry` in every entropy/distribution
        // error path, including the +0.0 degenerate-entropy sign.
        let registry = AttestedRegistry::new(TwoTierWeights::default());
        let snap = EpochSnapshot::empty(TwoTierWeights::default());
        for include in [false, true] {
            assert_eq!(snap.entropy_bits(include), registry.entropy_bits(include));
            assert_eq!(snap.entropy_bits(include), Err(DistributionError::Empty));
            assert_eq!(
                snap.distribution(include)
                    .map(|d| d.probabilities().to_vec()),
                registry
                    .distribution(include)
                    .map(|d| d.probabilities().to_vec())
            );
        }
        let h = snap.entropy_accumulator().entropy_bits();
        assert_eq!(h, 0.0);
        assert!(h.is_sign_positive(), "degenerate entropy must be +0.0");
        assert_eq!(
            snap.total_effective_power(),
            registry.total_effective_power()
        );
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
            assert_eq!(
                chained.entropy_bits(include),
                registry.entropy_bits(include)
            );
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

        // Likewise for the unattested tier: its departure would drive the
        // empty snapshot's opaque power negative.
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
        assert!(err.to_string().contains("opaque power"), "got {err}");
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
        assert_eq!(snap.total_effective_power(), reg.total_effective_power());
        assert_eq!(snap.unattested_power(), reg.unattested_power());
        // Buckets equal the registry's sorted attested rows.
        let expected: Vec<(Digest, VotingPower)> = reg
            .measurement_powers(false)
            .into_iter()
            .map(|(m, p)| (m.unwrap(), p))
            .collect();
        assert_eq!(snap.buckets(), &expected[..]);
        // Entropy is the registry's, bit for bit: the same fold over the
        // same integer buckets in the same order.
        for include in [false, true] {
            let s = snap.entropy_bits(include).unwrap();
            let r = reg.entropy_bits(include).unwrap();
            assert_eq!(s.to_bits(), r.to_bits(), "include={include}: {s} vs {r}");
            // Batch distributions are bit-identical (same sorted rows).
            assert_eq!(
                snap.distribution(include).unwrap().probabilities(),
                reg.distribution(include).unwrap().probabilities()
            );
        }
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
                greedy_diverse(snap.candidates(), k).members()
            );
        }
        let weights = TwoTierWeights::new(1.0, 0.3);
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        assert_eq!(
            snap.select_two_tier(3, weights, &mut a).members(),
            two_tier_weighted(snap.candidates(), 3, weights, &mut b).members()
        );
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
            reg.entropy_bits(false),
            Err(DistributionError::ZeroTotalWeight)
        );
    }
}
