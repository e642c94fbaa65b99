//! The attested-replica registry and the two-tier weighting of the paper's
//! conclusion (§V).
//!
//! "We do not expect every replica to equip with a trusted hardware for
//! configuration attestation. However, having two types of replicas
//! (potentially with different voting right/weight), one supporting
//! configuration attestation and one does not, will help to improve
//! blockchain resilience."

use std::collections::{BTreeMap, HashMap};

use fi_types::hash::SetDigest;
use fi_types::{sha256, Digest, ReplicaId, VotingPower};

use crate::churn::ChurnOp;
use crate::delta::{map_heap_bytes, ChurnDelta, GONE, UNATTESTED};

/// Whether a replica's configuration is attested.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplicaTier {
    /// Configuration proven by a verified quote.
    Attested,
    /// No attestation; configuration unknown.
    Unattested,
}

/// Voting-weight multipliers per tier.
///
/// # Example
///
/// ```
/// use fi_attest::TwoTierWeights;
/// let w = TwoTierWeights::new(1.0, 0.5);
/// assert_eq!(w.attested(), 1.0);
/// assert_eq!(w.unattested(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoTierWeights {
    attested: f64,
    unattested: f64,
}

impl TwoTierWeights {
    /// Creates a weighting. Weights must be finite and non-negative;
    /// attested replicas conventionally weigh 1.0 and unattested less.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite weights.
    #[must_use]
    pub fn new(attested: f64, unattested: f64) -> Self {
        assert!(
            attested.is_finite() && attested >= 0.0,
            "attested weight must be finite and non-negative"
        );
        assert!(
            unattested.is_finite() && unattested >= 0.0,
            "unattested weight must be finite and non-negative"
        );
        TwoTierWeights {
            attested,
            unattested,
        }
    }

    /// Equal weights — attestation carries no voting advantage.
    #[must_use]
    pub fn flat() -> Self {
        TwoTierWeights::new(1.0, 1.0)
    }

    /// The attested-tier multiplier.
    #[must_use]
    pub fn attested(&self) -> f64 {
        self.attested
    }

    /// The unattested-tier multiplier.
    #[must_use]
    pub fn unattested(&self) -> f64 {
        self.unattested
    }
}

impl Default for TwoTierWeights {
    /// The paper-suggested shape: attested replicas at full weight,
    /// unattested at half.
    fn default() -> Self {
        TwoTierWeights::new(1.0, 0.5)
    }
}

/// One registered device's row: 48 bytes, 56 with its `ReplicaId` key.
/// The measurement is not here but in the bucket the handle names, once
/// per distinct measurement.
#[derive(Debug, Clone, Copy)]
struct RegistryEntry {
    /// [`device_row_digest`] of this row, computed once when the row was
    /// written so removing or overwriting it never re-hashes.
    row_digest: Digest,
    power: VotingPower,
    /// The handle of the device's bucket — its index in the registry's
    /// `slots` — or [`UNATTESTED`].
    bucket: u32,
    /// Where the pending delta keeps the device's row, as of the row's
    /// last write: stale after a drain, which the delta detects.
    touched_at: u32,
}

/// One live measurement bucket: the measurement, held once for all its
/// members, and integer sums.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    measurement: Digest,
    /// Summed effective (tier-weighted) power of the members.
    power: VotingPower,
    /// Registered replicas attested to this measurement. A bucket with
    /// members is a distribution row even at zero power; the bucket whose
    /// last member leaves dies and its handle is recycled.
    members: u32,
}

/// The registry of a fleet's replicas: attested replicas with their
/// verified measurements, plus unattested replicas contributing raw power
/// only. Its only writes are [`apply`](Self::apply) and
/// [`apply_batch`](Self::apply_batch): every registration reaches it as a
/// [`ChurnOp`], and an attested one carries the measurement of a quote
/// verified before the op was built ([`ChurnOp::from_verified_quote`]).
///
/// A device costs one 56-byte hash-table slot: its id, raw power, row
/// digest, a 4-byte handle to its measurement bucket, which holds the
/// measurement once for all its members, and the 4-byte position of its
/// row in the pending delta. The table doubles as it fills, so it is 7/16
/// to 7/8 full, and while it doubles its old and new slots are both live;
/// a batch longer than its capacity, which could make it double twice, is
/// counted first and sizes it in one step
/// ([`apply_batch`](Self::apply_batch)). The vote key a quote binds
/// (Remark 3) is checked where the quote is verified, and nothing
/// downstream carries it — not the churn op, the log, the registry or the
/// checkpoint.
///
/// A device touched since the last drain costs the pending delta one
/// 24-byte row — id, raw power and bucket handle — plus, once, the 64-byte
/// row it displaced if it was registered at the last drain, and a `gone`
/// map slot while it is deregistered ([`ChurnDelta`]). No map leads from a
/// registered device to its delta row: its entry keeps the position. A
/// registry nobody drains — an oracle replaying a whole history — holds a
/// delta row for every device it ever registered;
/// [`heap_bytes`](Self::heap_bytes) counts it.
///
/// Beside the entries the registry keeps one table of live measurement
/// buckets — measurement, effective power and member count, indexed by
/// handle and ordered by digest — and every registration, re-registration
/// and removal updates the row it leaves and the row it joins, so a seal
/// reads the distinct measurements ([`bucket_rows`](Self::bucket_rows),
/// [`unattested_power`](Self::unattested_power)), not the entries. The
/// table holds integers only, so what the registry hands a seal is a
/// function of its content and of nothing else — not of the op order that
/// led there.
///
/// The registry is write-side only: it answers no diversity query.
/// Entropy and the configuration distribution are read from an epoch
/// snapshot sealed from it (`fi-fleet`'s `EpochSnapshot`), which owns the
/// read rules.
///
/// It also owns the roster's contribution to a sealed epoch's content
/// hash: each row is hashed once, when it is written
/// ([`device_row_digest`]), and [`roster_digest`](Self::roster_digest) is
/// the running [`SetDigest`] sum over the rows currently registered.
#[derive(Debug, Clone)]
pub struct AttestedRegistry {
    entries: HashMap<ReplicaId, RegistryEntry>,
    weights: TwoTierWeights,
    /// The live buckets' handles, keyed — hence iterated — by digest.
    buckets: BTreeMap<Digest, u32>,
    /// The buckets by handle, dead ones included until reused.
    slots: Vec<Bucket>,
    /// The handles of dead buckets, reused before `slots` grows.
    free: Vec<u32>,
    /// Total effective power of the unattested tier (the opaque bucket).
    opaque: VotingPower,
    /// Sum of `row_digest` over `entries`.
    roster_digest: SetDigest,
    /// Net churn since [`take_delta`](Self::take_delta) last drained it —
    /// the O(churn) feed for differential epoch sealing. Every mutation
    /// path maintains it alongside the buckets; the drain stamps it with
    /// `opaque` and `roster_digest`.
    delta: ChurnDelta,
}

/// One registered device as seen from the outside: the iteration view
/// behind [`AttestedRegistry::devices`], used to build serving rosters
/// (committee candidates, epoch snapshots) without exposing the registry's
/// internal entry layout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegisteredDevice {
    /// The device id.
    pub replica: ReplicaId,
    /// Its attested measurement (`None` for the unattested tier).
    pub measurement: Option<Digest>,
    /// Its raw (un-weighted) registered power.
    pub power: VotingPower,
}

impl RegisteredDevice {
    /// Which tier it registered on: attested exactly when it carries a
    /// measurement. Nothing stores a tier; every reader derives it here.
    #[must_use]
    pub fn tier(&self) -> ReplicaTier {
        match self.measurement {
            Some(_) => ReplicaTier::Attested,
            None => ReplicaTier::Unattested,
        }
    }
}

/// The canonical digest of one device-roster row: SHA-256 over
/// `"D" ‖ replica (u64 BE) ‖ raw power (u64 BE) ‖ 1 ‖ measurement` for an
/// attested device, `… ‖ 0` for an unattested one. These bytes are part of
/// `fi-fleet`'s `epoch-snapshot-v2` content-hash format and must not
/// change. The registry calls this once per row it writes; everything
/// downstream adds and subtracts the results.
#[must_use]
pub fn device_row_digest(d: &RegisteredDevice) -> Digest {
    let mut row = [0u8; 50];
    row[0] = b'D';
    row[1..9].copy_from_slice(&d.replica.as_u64().to_be_bytes());
    row[9..17].copy_from_slice(&d.power.as_units().to_be_bytes());
    match d.measurement {
        Some(m) => {
            row[17] = 1;
            row[18..].copy_from_slice(m.as_bytes());
            sha256(row)
        }
        None => sha256(&row[..18]),
    }
}

/// Registries compare by content: weights, and each replica's power and
/// measurement, read through each side's own bucket table — so neither
/// handle assignment nor the bucket table's history matters.
impl PartialEq for AttestedRegistry {
    fn eq(&self, other: &Self) -> bool {
        self.weights == other.weights
            && self.entries.len() == other.entries.len()
            && self.entries.iter().all(|(r, e)| {
                other.entries.get(r).is_some_and(|o| {
                    e.power == o.power && self.measurement(e) == other.measurement(o)
                })
            })
    }
}

impl AttestedRegistry {
    /// Creates an empty registry with the given tier weights.
    #[must_use]
    pub fn new(weights: TwoTierWeights) -> Self {
        AttestedRegistry {
            entries: HashMap::new(),
            weights,
            buckets: BTreeMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            opaque: VotingPower::ZERO,
            roster_digest: SetDigest::EMPTY,
            delta: ChurnDelta::default(),
        }
    }

    /// The measurement of `entry`'s bucket; `None` on the unattested tier.
    fn measurement(&self, entry: &RegistryEntry) -> Option<Digest> {
        (entry.bucket != UNATTESTED).then(|| self.slots[entry.bucket as usize].measurement)
    }

    /// `entry` as the outside sees it.
    fn device(&self, replica: ReplicaId, entry: &RegistryEntry) -> RegisteredDevice {
        RegisteredDevice {
            replica,
            measurement: self.measurement(entry),
            power: entry.power,
        }
    }

    /// Takes `replica`'s row out of the buckets and the aggregates (if
    /// registered) ahead of a re-registration, which overwrites its entry
    /// in place, or a removal, which then removes it. Returns the row —
    /// what the pending delta records as the device's `before` if this is
    /// its first touch since the last drain — with the delta position the
    /// entry kept.
    fn unindex(&mut self, replica: ReplicaId) -> Option<(RegisteredDevice, u32)> {
        let old = *self.entries.get(&replica)?;
        self.roster_digest.remove(&old.row_digest);
        let device = self.device(replica, &old);
        if old.bucket == UNATTESTED {
            self.opaque -= old.power.scaled(self.weights.unattested());
        } else {
            let effective = old.power.scaled(self.weights.attested());
            let bucket = &mut self.slots[old.bucket as usize];
            bucket.power -= effective;
            bucket.members -= 1;
            let m = bucket.measurement;
            if bucket.members == 0 {
                self.buckets.remove(&m);
                self.free.push(old.bucket);
            }
            self.delta
                .record_bucket(m, -i128::from(effective.as_units()), -1);
        }
        Some((device, old.touched_at))
    }

    /// Adds one member with `effective` attested power to `measurement`'s
    /// bucket, creating the bucket on first sight under a recycled handle
    /// if one is free, and returns the bucket's handle.
    fn index_attested(&mut self, measurement: Digest, effective: VotingPower) -> u32 {
        let slots = &mut self.slots;
        let free = &mut self.free;
        let handle = *self.buckets.entry(measurement).or_insert_with(|| {
            let born = Bucket {
                measurement,
                power: VotingPower::ZERO,
                members: 0,
            };
            match free.pop() {
                Some(h) => {
                    slots[h as usize] = born;
                    h
                }
                None => {
                    let h = u32::try_from(slots.len())
                        .ok()
                        .filter(|&h| h < GONE)
                        .expect("fewer than 2^32 − 2 live buckets");
                    slots.push(born);
                    h
                }
            }
        });
        let bucket = &mut self.slots[handle as usize];
        bucket.power += effective;
        bucket.members += 1;
        self.delta
            .record_bucket(measurement, i128::from(effective.as_units()), 1);
        handle
    }

    /// Writes `device`'s new row under bucket handle `bucket` (its old
    /// row, `before`, already un-indexed, its bucket already indexed):
    /// hashes it — the one SHA-256 the row ever costs — folds the digest
    /// into the running aggregate, records the write in the delta's
    /// roster — `before` sticks only on the device's first touch this
    /// epoch, the new row always does (last write wins) — and
    /// stores the entry with the delta row's position, over the old entry
    /// in place when the device was registered.
    fn write_row(
        &mut self,
        before: Option<(RegisteredDevice, u32)>,
        device: RegisteredDevice,
        bucket: u32,
    ) {
        let row_digest = device_row_digest(&device);
        self.roster_digest.insert(&row_digest);
        let touched_at = self
            .delta
            .record_roster(device.replica, before, device.power, bucket);
        self.entries.insert(
            device.replica,
            RegistryEntry {
                row_digest,
                power: device.power,
                bucket,
                touched_at,
            },
        );
    }

    /// The tier weights in force.
    #[must_use]
    pub fn weights(&self) -> TwoTierWeights {
        self.weights
    }

    /// Registers an attested replica under a measurement verified before
    /// its [`ChurnOp::Attest`] was built: the registry verifies nothing.
    /// Re-registration overwrites (a replica may re-attest after
    /// reconfiguration).
    fn register_attested_preverified(
        &mut self,
        replica: ReplicaId,
        measurement: Digest,
        power: VotingPower,
    ) {
        let before = self.unindex(replica);
        let bucket = self.index_attested(measurement, power.scaled(self.weights.attested()));
        self.write_row(
            before,
            RegisteredDevice {
                replica,
                measurement: Some(measurement),
                power,
            },
            bucket,
        );
    }

    /// Applies one churn operation — one of the registry's two writes,
    /// with [`apply_batch`](Self::apply_batch).
    pub fn apply(&mut self, op: &ChurnOp) {
        match *op {
            ChurnOp::Attest {
                replica,
                measurement,
                power,
            } => self.register_attested_preverified(replica, measurement, power),
            ChurnOp::Unattested { replica, power } => self.register_unattested(replica, power),
            ChurnOp::Deregister { replica } => self.deregister(replica),
        }
    }

    /// Applies a batch of churn operations in order: every op is one entry
    /// write and at most two bucket-row updates.
    ///
    /// A table growing holds its old and new buckets at once, and only a
    /// batch longer than the entries table's capacity can make it grow more
    /// than once. Such a batch is first read once: its registrations of
    /// replicas with no entry are counted, and that many slots are reserved
    /// before the first op is written, so the table grows at most once,
    /// straight to its final size. A new replica registered twice in the
    /// batch counts twice, so the reservation can overshoot by the batch's
    /// repeats. A shorter batch skips the pass. No row, delta, digest or
    /// sum depends on it.
    ///
    /// The pass pays where one batch carries a whole population into one
    /// registry, as in a single-registry replay of a fleet's history. The
    /// fleet's own bulk paths — registration waves, checkpoint re-ingest,
    /// log replay — arrive in chunks of a few thousand ops split over its
    /// shards, so a shard takes the pass only while its table holds fewer
    /// slots than one sub-batch has ops.
    pub fn apply_batch(&mut self, ops: &[ChurnOp]) {
        if self.may_grow_twice(ops.len()) {
            self.entries.reserve(self.new_entries(ops));
        }
        for op in ops {
            self.apply(op);
        }
    }

    /// Whether a batch of `len` ops can make the entries table grow twice:
    /// a growth at least doubles the room, so a batch no longer than the
    /// capacity fits after one.
    fn may_grow_twice(&self, len: usize) -> bool {
        len > self.entries.capacity()
    }

    /// How many of `ops` register a replica that has no entry now: the
    /// most entries `ops` can add. Deregistrations free nothing here, since
    /// a removed entry's slot may not return to the table's free room.
    fn new_entries(&self, ops: &[ChurnOp]) -> usize {
        ops.iter()
            .filter(|op| {
                !matches!(op, ChurnOp::Deregister { .. })
                    && !self.entries.contains_key(&op.replica())
            })
            .count()
    }

    /// Removes `replica` from the registry entirely (churn, slashing, or a
    /// voluntary exit); a no-op if it is not registered. The replica's
    /// contribution leaves its bucket, and a measurement bucket whose last
    /// member departs leaves the table.
    fn deregister(&mut self, replica: ReplicaId) {
        if let Some(before) = self.unindex(replica) {
            self.entries.remove(&replica);
            self.delta
                .record_roster(replica, Some(before), VotingPower::ZERO, GONE);
        }
    }

    /// Registers an unattested replica (power only; configuration opaque).
    fn register_unattested(&mut self, replica: ReplicaId, power: VotingPower) {
        let before = self.unindex(replica);
        self.opaque += power.scaled(self.weights.unattested());
        self.write_row(
            before,
            RegisteredDevice {
                replica,
                measurement: None,
                power,
            },
            UNATTESTED,
        );
    }

    /// Number of registered replicas.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The live measurement buckets — every measurement with at least one
    /// registered member, paired with its summed effective attested power
    /// (zero-power buckets included), sorted by digest: the table's own
    /// order, and the order a snapshot keeps them in.
    pub fn bucket_rows(&self) -> impl Iterator<Item = (Digest, VotingPower)> + '_ {
        self.buckets
            .iter()
            .map(|(&m, &h)| (m, self.slots[h as usize].power))
    }

    /// Total effective power of the unattested tier (the opaque bucket).
    #[must_use]
    pub fn unattested_power(&self) -> VotingPower {
        self.opaque
    }

    /// The [`SetDigest`] sum of [`device_row_digest`] over every registered
    /// device, maintained at write time. O(1). Shards own disjoint devices,
    /// so a fleet's aggregate is the sum of its shards'.
    #[must_use]
    pub fn roster_digest(&self) -> SetDigest {
        self.roster_digest
    }

    /// Iterates over every registered device. Order is the entry map's —
    /// unspecified; callers needing determinism sort by
    /// [`RegisteredDevice::replica`].
    pub fn devices(&self) -> impl Iterator<Item = RegisteredDevice> + Clone + '_ {
        self.entries
            .iter()
            .map(|(&replica, e)| self.device(replica, e))
    }

    /// Drains the net churn accumulated since the previous drain (or since
    /// construction), leaving an empty delta behind, and stamps it with
    /// the registry's [`unattested_power`](Self::unattested_power) and
    /// [`roster_digest`](Self::roster_digest) as of the drain. This is the
    /// epoch cut's one read of the registry's sums: a `mem::take`, plus —
    /// if some row the delta holds names its bucket by handle — a copy of
    /// the measurement by bucket handle, O(buckets ever live at once), not
    /// O(churn). A sealer drains every shard under its consistent cut,
    /// merges the deltas after it
    /// ([`CanonicalDelta::merge`](crate::CanonicalDelta::merge)), and
    /// patches the previous epoch snapshot instead of re-merging the whole
    /// registry. The entries keep the delta positions they held, which the
    /// next delta knows for stale.
    ///
    /// Draining is part of the sealing contract even on full-rebuild
    /// epochs: the delta is always relative to the registry state at the
    /// *last* drain, so every cut must drain it.
    pub fn take_delta(&mut self) -> ChurnDelta {
        let mut delta = std::mem::take(&mut self.delta);
        delta.drained(self.opaque, self.roster_digest, || {
            self.slots.iter().map(|b| b.measurement).collect()
        });
        delta
    }

    /// The bytes the registry holds on the heap, by capacity: the entries
    /// table (a device's 56-byte slot and a control byte), the digest index
    /// by entry (a B-tree node's spare room is not counted), the bucket
    /// slots and the free list, and the pending delta — its 24-byte rows,
    /// `before` rows, `gone` map and bucket map.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        map_heap_bytes(&self.entries)
            + self.buckets.len() * size_of::<(Digest, u32)>()
            + self.slots.capacity() * size_of::<Bucket>()
            + self.free.capacity() * size_of::<u32>()
            + self.delta.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Registers `replica` as attested to `measurement`'s digest.
    fn attest(reg: &mut AttestedRegistry, replica: u64, measurement: &[u8], power: u64) {
        reg.apply(&ChurnOp::attest(
            ReplicaId::new(replica),
            sha256(measurement),
            VotingPower::new(power),
        ));
    }

    /// Registers `replica` on the unattested tier.
    fn unattested(reg: &mut AttestedRegistry, replica: u64, power: u64) {
        reg.apply(&ChurnOp::Unattested {
            replica: ReplicaId::new(replica),
            power: VotingPower::new(power),
        });
    }

    /// The bucket rows as a seal reads them.
    fn rows(reg: &AttestedRegistry) -> Vec<(Digest, VotingPower)> {
        reg.bucket_rows().collect()
    }

    /// `replica`'s row, if it is registered.
    fn row(reg: &AttestedRegistry, replica: u64) -> Option<RegisteredDevice> {
        reg.devices().find(|d| d.replica == ReplicaId::new(replica))
    }

    /// `(digest, power)` pairs in the bucket table's digest order.
    fn by_digest(mut rows: Vec<(&[u8], u64)>) -> Vec<(Digest, VotingPower)> {
        rows.sort_by_key(|&(m, _)| sha256(m));
        rows.into_iter()
            .map(|(m, p)| (sha256(m), VotingPower::new(p)))
            .collect()
    }

    #[test]
    fn register_and_query_attested() {
        let mut reg = AttestedRegistry::new(TwoTierWeights::default());
        attest(&mut reg, 0, b"cfg-a", 100);
        assert_eq!(reg.len(), 1);
        let device = row(&reg, 0).unwrap();
        assert_eq!(device.tier(), ReplicaTier::Attested);
        assert_eq!(device.measurement, Some(sha256(b"cfg-a")));
        assert_eq!(rows(&reg), by_digest(vec![(b"cfg-a", 100)]));
    }

    #[test]
    fn unattested_weighting_discounts_power() {
        let mut reg = AttestedRegistry::new(TwoTierWeights::new(1.0, 0.5));
        unattested(&mut reg, 7, 100);
        assert_eq!(row(&reg, 7).unwrap().tier(), ReplicaTier::Unattested);
        // Raw power on the row, weighted power in the opaque bucket.
        assert_eq!(row(&reg, 7).unwrap().power, VotingPower::new(100));
        assert_eq!(reg.unattested_power(), VotingPower::new(50));
        assert!(rows(&reg).is_empty());
    }

    #[test]
    fn bucket_rows_group_by_measurement() {
        let mut reg = AttestedRegistry::new(TwoTierWeights::flat());
        for (i, m) in [b"cfg-a" as &[u8], b"cfg-a", b"cfg-b"].iter().enumerate() {
            attest(&mut reg, i as u64, m, 10);
        }
        assert_eq!(rows(&reg), by_digest(vec![(b"cfg-a", 20), (b"cfg-b", 10)]));
    }

    #[test]
    fn unattested_power_is_one_opaque_bucket_beside_the_rows() {
        let mut reg = AttestedRegistry::new(TwoTierWeights::flat());
        attest(&mut reg, 0, b"cfg-a", 50);
        unattested(&mut reg, 1, 50);
        unattested(&mut reg, 2, 30);
        // Unattested devices name no measurement, so they share no row;
        // their power is one sum.
        assert_eq!(rows(&reg), by_digest(vec![(b"cfg-a", 50)]));
        assert_eq!(reg.unattested_power(), VotingPower::new(80));
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn reregistration_keeps_incremental_buckets_consistent() {
        // Replicas re-attest, switch measurements, and change tier; the
        // maintained buckets must stay equal to a from-scratch rebuild.
        let mut reg = AttestedRegistry::new(TwoTierWeights::new(1.0, 0.5));
        // Attested on cfg-a, then re-attested on cfg-b with new power.
        attest(&mut reg, 0, b"cfg-a", 40);
        attest(&mut reg, 0, b"cfg-b", 70);
        // A second replica flips attested → unattested.
        attest(&mut reg, 1, b"cfg-a", 30);
        unattested(&mut reg, 1, 30);
        // And a third flips unattested → attested.
        unattested(&mut reg, 2, 20);
        attest(&mut reg, 2, b"cfg-a", 20);

        // cfg-a holds r2's 20, cfg-b holds r0's 70, opaque holds r1's 15.
        assert_eq!(rows(&reg), by_digest(vec![(b"cfg-a", 20), (b"cfg-b", 70)]));
        assert_eq!(reg.unattested_power(), VotingPower::new(15));
        assert_eq!(reg.len(), 3);
        assert_eq!(row(&reg, 1).unwrap().tier(), ReplicaTier::Unattested);
        assert_eq!(row(&reg, 2).unwrap().measurement, Some(sha256(b"cfg-a")));
    }

    #[test]
    fn emptied_measurement_bucket_disappears_from_rows() {
        let mut reg = AttestedRegistry::new(TwoTierWeights::flat());
        attest(&mut reg, 0, b"cfg-a", 10);
        // The only cfg-a member migrates to cfg-b: cfg-a's bucket must not
        // linger as a phantom zero row.
        attest(&mut reg, 0, b"cfg-b", 10);
        assert_eq!(rows(&reg), by_digest(vec![(b"cfg-b", 10)]));
        assert_eq!(reg.buckets.len(), 1);
    }

    #[test]
    fn emptied_slots_are_recycled_not_leaked() {
        // One replica churning through many distinct measurements must not
        // grow the registry's bucket table: each abandoned measurement's
        // row leaves it.
        let mut reg = AttestedRegistry::new(TwoTierWeights::flat());
        for i in 0..50u64 {
            attest(&mut reg, 0, format!("cfg-{i}").as_bytes(), 10);
        }
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.buckets.len(), 1, "abandoned buckets leaked");
        assert_eq!(
            (reg.slots.len(), reg.free.len()),
            (1, 0),
            "abandoned handles leaked"
        );
        assert_eq!(live_handles(&reg), 1);
        assert_eq!(rows(&reg), vec![(sha256(b"cfg-49"), VotingPower::new(10))]);
    }

    #[test]
    fn two_tier_weights_shift_distribution_toward_attested() {
        let build = |weights| {
            let mut reg = AttestedRegistry::new(weights);
            attest(&mut reg, 0, b"cfg-a", 100);
            unattested(&mut reg, 1, 100);
            reg
        };
        // The attested row's share of the effective power.
        let attested_share = |reg: &AttestedRegistry| {
            let attested = rows(reg)[0].1.as_units() as f64;
            attested / (attested + reg.unattested_power().as_units() as f64)
        };
        let flat = build(TwoTierWeights::flat());
        let tiered = build(TwoTierWeights::new(1.0, 0.25));
        assert!((attested_share(&flat) - 0.5).abs() < 1e-12);
        assert!((attested_share(&tiered) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn reregistration_overwrites() {
        let mut reg = AttestedRegistry::new(TwoTierWeights::flat());
        unattested(&mut reg, 0, 10);
        attest(&mut reg, 0, b"cfg-a", 20);
        assert_eq!(reg.len(), 1);
        let device = row(&reg, 0).unwrap();
        assert_eq!(device.tier(), ReplicaTier::Attested);
        assert_eq!(device.power, VotingPower::new(20));
        assert_eq!(reg.unattested_power(), VotingPower::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn weights_reject_negative() {
        let _ = TwoTierWeights::new(-1.0, 0.5);
    }

    #[test]
    fn apply_batch_equals_individual_method_calls() {
        let m_a = sha256(b"cfg-a");
        let m_b = sha256(b"cfg-b");
        let ops = vec![
            ChurnOp::attest(ReplicaId::new(0), m_a, VotingPower::new(10)),
            ChurnOp::Unattested {
                replica: ReplicaId::new(1),
                power: VotingPower::new(20),
            },
            ChurnOp::attest(ReplicaId::new(0), m_b, VotingPower::new(15)),
            ChurnOp::Deregister {
                replica: ReplicaId::new(1),
            },
            ChurnOp::Deregister {
                replica: ReplicaId::new(99),
            },
        ];
        let mut batched = AttestedRegistry::new(TwoTierWeights::new(1.0, 0.5));
        batched.apply_batch(&ops);

        let mut manual = AttestedRegistry::new(TwoTierWeights::new(1.0, 0.5));
        manual.register_attested_preverified(ReplicaId::new(0), m_a, VotingPower::new(10));
        manual.register_unattested(ReplicaId::new(1), VotingPower::new(20));
        manual.register_attested_preverified(ReplicaId::new(0), m_b, VotingPower::new(15));
        manual.deregister(ReplicaId::new(1));
        manual.deregister(ReplicaId::new(99));

        assert_eq!(batched, manual);
        assert_eq!(rows(&batched), vec![(m_b, VotingPower::new(15))]);
        assert_eq!(rows(&batched), rows(&manual));
        assert_eq!(batched.unattested_power(), VotingPower::ZERO);
        assert_eq!(manual.unattested_power(), VotingPower::ZERO);
    }

    #[test]
    fn new_entries_counts_registrations_of_replicas_with_no_entry() {
        let mut reg = AttestedRegistry::new(TwoTierWeights::flat());
        attest(&mut reg, 0, b"cfg-a", 10);
        unattested(&mut reg, 1, 10);
        let m = sha256(b"cfg-b");
        let p = VotingPower::new(5);
        let ops = [
            ChurnOp::attest(ReplicaId::new(5), m, p),
            ChurnOp::attest(ReplicaId::new(0), m, p),
            ChurnOp::Unattested {
                replica: ReplicaId::new(5),
                power: p,
            },
            ChurnOp::Deregister {
                replica: ReplicaId::new(1),
            },
            ChurnOp::Unattested {
                replica: ReplicaId::new(6),
                power: p,
            },
            ChurnOp::Deregister {
                replica: ReplicaId::new(7),
            },
            ChurnOp::attest(ReplicaId::new(1), m, p),
        ];
        // Replica 5 twice and 6 once; 0 and 1 are registered when the batch
        // is read, and deregistrations add nothing.
        assert_eq!(reg.new_entries(&ops), 3);
        assert_eq!(reg.new_entries(&ops[1..2]), 0);
        assert_eq!(reg.new_entries(&[]), 0);
    }

    #[test]
    fn a_registration_wave_sizes_the_entries_table_once() {
        const DEVICES: usize = 10_000;
        let ops: Vec<ChurnOp> = (0..DEVICES as u64)
            .map(|i| ChurnOp::attest(ReplicaId::new(i), sha256(b"cfg-a"), VotingPower::new(1)))
            .collect();
        let mut reg = AttestedRegistry::new(TwoTierWeights::flat());
        reg.apply_batch(&ops);
        assert_eq!(reg.len(), DEVICES);
        assert_eq!(
            reg.entries.capacity(),
            HashMap::<ReplicaId, RegistryEntry>::with_capacity(DEVICES).capacity()
        );
    }

    /// A registry of at least 100 devices whose entries table is one
    /// insert short of its growth threshold, and the next unused id.
    fn one_insert_short_of_growth() -> (AttestedRegistry, u64) {
        let mut reg = AttestedRegistry::new(TwoTierWeights::flat());
        let mut next = 0u64;
        while next < 100 || reg.entries.capacity() - reg.len() != 1 {
            attest(&mut reg, next, b"cfg-a", 1);
            next += 1;
        }
        (reg, next)
    }

    /// A rewrite of devices `0..devices` to a new measurement and power,
    /// in flushes of `len` ops: update-only batches.
    fn rewrites(devices: u64, len: usize, power: u64) -> Vec<Vec<ChurnOp>> {
        let ops: Vec<ChurnOp> = (0..devices)
            .map(|i| ChurnOp::attest(ReplicaId::new(i), sha256(b"cfg-b"), VotingPower::new(power)))
            .collect();
        ops.chunks(len).map(<[ChurnOp]>::to_vec).collect()
    }

    #[test]
    fn an_update_only_batch_past_the_capacity_grows_nothing() {
        let (mut reg, next) = one_insert_short_of_growth();
        let capacity = reg.entries.capacity();
        // Every op rewrites a registered device or removes one that is
        // not: the batch is longer than the capacity, so it takes the pass,
        // and a reserve of its length would double the table.
        let mut ops = rewrites(next, next as usize, 2).remove(0);
        ops.extend((next..next + 50).map(|i| ChurnOp::Deregister {
            replica: ReplicaId::new(i),
        }));
        assert!(reg.may_grow_twice(ops.len()));
        reg.apply_batch(&ops);
        assert_eq!(reg.entries.capacity(), capacity);
        assert_eq!(reg.len() as u64, next);
        assert_eq!(
            rows(&reg),
            vec![(sha256(b"cfg-b"), VotingPower::new(2 * next))]
        );
    }

    #[test]
    fn flushes_within_the_capacity_take_no_pass_at_the_threshold() {
        let (mut reg, next) = one_insert_short_of_growth();
        let capacity = reg.entries.capacity();
        // Each flush is far longer than the one free slot but no longer
        // than the capacity: none can grow the table twice, so none reads
        // the batch twice, flush after flush, while the free room stays one.
        for flush in rewrites(next, 64, 3) {
            assert!(flush.len() > reg.entries.capacity() - reg.len());
            assert!(!reg.may_grow_twice(flush.len()));
            reg.apply_batch(&flush);
        }
        assert_eq!(reg.entries.capacity(), capacity);
        assert_eq!(reg.entries.capacity() - reg.len(), 1);
        assert_eq!(
            rows(&reg),
            vec![(sha256(b"cfg-b"), VotingPower::new(3 * next))]
        );
    }

    #[test]
    fn bucket_rows_and_devices_mirror_measurement_powers() {
        let weights = TwoTierWeights::new(1.0, 0.5);
        let mut reg = AttestedRegistry::new(weights);
        reg.register_attested_preverified(
            ReplicaId::new(0),
            sha256(b"cfg-a"),
            VotingPower::new(30),
        );
        reg.register_attested_preverified(
            ReplicaId::new(1),
            sha256(b"cfg-a"),
            VotingPower::new(20),
        );
        reg.register_attested_preverified(
            ReplicaId::new(2),
            sha256(b"cfg-b"),
            VotingPower::new(10),
        );
        reg.register_unattested(ReplicaId::new(3), VotingPower::new(40));

        // The rows and the opaque power, recounted from the devices.
        let mut recount = BTreeMap::new();
        let mut opaque = VotingPower::ZERO;
        for d in reg.devices() {
            match (d.tier(), d.measurement) {
                (ReplicaTier::Attested, Some(m)) => {
                    *recount.entry(m).or_insert(VotingPower::ZERO) +=
                        d.power.scaled(weights.attested());
                }
                _ => opaque += d.power.scaled(weights.unattested()),
            }
        }
        assert_eq!(rows(&reg), recount.into_iter().collect::<Vec<_>>());
        assert_eq!(reg.unattested_power(), opaque);
        assert_eq!(reg.unattested_power(), VotingPower::new(20));

        let mut devices: Vec<RegisteredDevice> = reg.devices().collect();
        devices.sort_by_key(|d| d.replica);
        assert_eq!(devices.len(), 4);
        assert_eq!(devices[0].measurement, Some(sha256(b"cfg-a")));
        assert_eq!(devices[0].power, VotingPower::new(30));
        assert_eq!(devices[3].tier(), ReplicaTier::Unattested);
        assert_eq!(devices[3].measurement, None);
        // Raw power, not tier-weighted.
        assert_eq!(devices[3].power, VotingPower::new(40));
    }

    #[test]
    fn device_row_digest_keeps_the_epoch_snapshot_v2_byte_layout() {
        // The field-by-field stream `fi-fleet` hashed before the digest
        // moved here; sealed content hashes depend on these exact bytes.
        let streamed = |d: &RegisteredDevice| {
            let mut h = fi_types::hash::Sha256::new();
            h.update(b"D");
            h.update(d.replica.as_u64().to_be_bytes());
            h.update(d.power.as_units().to_be_bytes());
            match d.measurement {
                Some(m) => {
                    h.update([1]);
                    h.update(m.as_bytes());
                }
                None => h.update([0]),
            }
            h.finalize()
        };
        let attested = RegisteredDevice {
            replica: ReplicaId::new(0x0102_0304_0506_0708),
            measurement: Some(sha256(b"cfg-a")),
            power: VotingPower::new(0x1112_1314_1516_1718),
        };
        let unattested = RegisteredDevice {
            measurement: None,
            ..attested
        };
        assert_eq!(device_row_digest(&attested), streamed(&attested));
        assert_eq!(device_row_digest(&unattested), streamed(&unattested));
        assert_ne!(device_row_digest(&attested), device_row_digest(&unattested));
    }

    #[test]
    fn bucket_rows_keep_zero_power_buckets_with_members() {
        // A registered device whose effective power is zero still holds a
        // distribution row; the merge feed must not drop it.
        let mut reg = AttestedRegistry::new(TwoTierWeights::flat());
        reg.register_attested_preverified(ReplicaId::new(0), sha256(b"cfg-a"), VotingPower::ZERO);
        let rows: Vec<_> = reg.bucket_rows().collect();
        assert_eq!(rows, vec![(sha256(b"cfg-a"), VotingPower::ZERO)]);
    }

    #[test]
    fn draining_twice_with_no_churn_between_carries_the_same_sums() {
        let mut reg = AttestedRegistry::new(TwoTierWeights::new(1.0, 0.5));
        attest(&mut reg, 0, b"cfg-a", 40);
        unattested(&mut reg, 1, 30);
        let sums = |delta: crate::ChurnDelta| {
            let merged = crate::CanonicalDelta::merge(vec![delta]);
            (merged.unattested_power(), merged.roster_digest())
        };
        let first = sums(reg.take_delta());
        let second = reg.take_delta();
        assert!(second.is_empty(), "no churn between the drains");
        // The sums are the registry's, not the churn's: an empty drain
        // carries them too.
        assert_eq!(sums(second), first);
        assert_eq!(first, (Some(VotingPower::new(15)), reg.roster_digest()));
    }

    #[test]
    fn a_registered_device_is_seven_words() {
        assert_eq!(std::mem::size_of::<RegistryEntry>(), 48);
        assert_eq!(std::mem::size_of::<(ReplicaId, RegistryEntry)>(), 56);
    }

    #[test]
    fn an_undrained_delta_holds_at_most_32_bytes_a_device() {
        // A registry nobody drains, as an oracle replaying a whole history
        // is: every device it registered has a pending delta row.
        const DEVICES: u64 = 131_072;
        let measurements: Vec<Digest> = (0..64u64)
            .map(|i| sha256(format!("cfg-{i}").as_bytes()))
            .collect();
        let mut reg = AttestedRegistry::new(TwoTierWeights::default());
        for i in 0..DEVICES {
            let power = VotingPower::new(1 + i % 97);
            match i % 8 {
                0 => reg.register_unattested(ReplicaId::new(i), power),
                _ => reg.register_attested_preverified(
                    ReplicaId::new(i),
                    measurements[(i % 64) as usize],
                    power,
                ),
            }
        }
        let undrained = reg.heap_bytes();
        assert_eq!(reg.take_delta().touched_devices(), DEVICES as usize);
        let drained = reg.heap_bytes();
        let per_device = (undrained - drained) as f64 / DEVICES as f64;
        assert!(per_device <= 32.0, "{per_device} B of delta a device");
        // What stays is mostly the entries table: a 56-byte slot and a
        // control byte, and a table between 7/16 and 7/8 full.
        assert!(drained >= 57 * DEVICES as usize);
        assert!(drained <= 57 * DEVICES as usize * 16 / 7 + 64 * 1024);
    }

    /// Handles issued and not recycled.
    fn live_handles(reg: &AttestedRegistry) -> usize {
        reg.slots.len() - reg.free.len()
    }

    #[test]
    fn three_live_buckets_churn_through_a_thousand_measurements_in_three_handles() {
        // Each bucket has one member, so every re-attestation kills a
        // bucket before it births one: a handle is recycled every time and
        // the table never grows past the three buckets alive.
        let mut reg = AttestedRegistry::new(TwoTierWeights::flat());
        for i in 0..1_000u64 {
            let m = sha256(format!("cfg-{i}").as_bytes());
            reg.register_attested_preverified(ReplicaId::new(i % 3), m, VotingPower::new(i));
            assert!(reg.slots.len() <= 3, "handle table grew at op {i}");
            assert_eq!(live_handles(&reg), reg.buckets.len());
            assert_eq!(row(&reg, i % 3).unwrap().measurement, Some(m));
        }
        assert_eq!((reg.slots.len(), reg.free.len()), (3, 0));
        for (&m, &h) in &reg.buckets {
            assert_eq!(reg.slots[h as usize].measurement, m);
            assert_eq!(reg.slots[h as usize].members, 1);
        }
        assert_eq!(
            rows(&reg).iter().map(|&(_, p)| p).sum::<VotingPower>(),
            VotingPower::new(997 + 998 + 999)
        );
    }

    #[test]
    fn equality_reads_content_not_handles() {
        // `first` births cfg-a then cfg-b. `second` births cfg-b, then
        // cfg-c, whose death frees the handle cfg-a then takes: the same
        // devices under swapped handles.
        let (a, b, c) = (sha256(b"cfg-a"), sha256(b"cfg-b"), sha256(b"cfg-c"));
        let mut first = AttestedRegistry::new(TwoTierWeights::default());
        first.register_attested_preverified(ReplicaId::new(0), a, VotingPower::new(60));
        first.register_attested_preverified(ReplicaId::new(1), b, VotingPower::new(40));
        let mut second = AttestedRegistry::new(TwoTierWeights::default());
        second.register_attested_preverified(ReplicaId::new(1), b, VotingPower::new(40));
        second.register_attested_preverified(ReplicaId::new(0), c, VotingPower::new(60));
        second.register_attested_preverified(ReplicaId::new(0), a, VotingPower::new(60));
        assert_ne!(first.buckets, second.buckets, "the handles must differ");
        assert_eq!(first, second);
        assert_eq!(first.roster_digest(), second.roster_digest());

        // One measurement or power apart is unequal, whatever the handles.
        second.register_attested_preverified(ReplicaId::new(0), c, VotingPower::new(60));
        assert_ne!(first, second);
        second.register_attested_preverified(ReplicaId::new(0), a, VotingPower::new(61));
        assert_ne!(first, second);
        second.register_unattested(ReplicaId::new(0), VotingPower::new(60));
        assert_ne!(first, second);
    }
}
