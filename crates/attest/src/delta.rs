//! Per-epoch churn deltas: what changed since the last epoch cut, as data.
//!
//! A fleet-scale sealer must not pay O(fleet) to publish an epoch that saw
//! a handful of churn ops. [`ChurnDelta`] is the O(churn) alternative: the
//! [`AttestedRegistry`](crate::AttestedRegistry) accumulates, alongside its
//! incremental buckets, the *net* effect of every mutation since the delta
//! was last drained — dirty measurement buckets with signed power and
//! member-count deltas, and every touched device's roster row before and
//! after. A sealer drains each shard's delta at the epoch cut
//! ([`AttestedRegistry::take_delta`](crate::AttestedRegistry::take_delta),
//! a `mem::take` plus, if a row names a bucket handle, a copy of the
//! shard's handle → measurement table — nothing is merged while the cut
//! holds its locks), which stamps it with the shard's unattested power and
//! roster aggregate at the cut. With the locks dropped it merges them once
//! ([`CanonicalDelta::merge`]): bucket deltas summed per measurement and
//! sorted, the two shard sums added up, each shard's roster rows kept as
//! drained. That form is what patches the previous canonical snapshot, row
//! by row, instead of rebuilding it.
//!
//! There are two forms because they serve two access patterns. A
//! [`ChurnDelta`] is written once per churn op and keyed for that: a hash
//! map of dirty buckets, and one 24-byte row per touched device in
//! first-touch order — replica, raw power and bucket handle, the same
//! 4-byte handle the registry's own row holds. The registry finds a
//! registered device's row by the position its entry keeps, so the delta
//! needs no map from replica to row; only the devices deregistered since
//! the last drain, which have no entry, sit in a small `gone` map. A
//! [`CanonicalDelta`] is read once per seal: its bucket rows in digest
//! order and its sums a pure function of the net churn, and its roster the
//! shards' rows as drained, each shard's with the handle table its handles
//! name. A seal reads those rows where they lie, in one walk
//! ([`CanonicalDelta::walk`]) that resolves an input's bucket handles
//! through a mapping the seal supplies, once per handle on the first row
//! that names it, into a memo indexed by handle in which only the named
//! handles' slots are written or reset; and never in an order, because a
//! patch places each row by its own key.
//!
//! Three properties make the patch exact:
//!
//! * **Integer bucket algebra.** Bucket power and member counts are integer
//!   sums, so `previous + delta` is bit-identical to a from-scratch merge of
//!   the shards — the content hash cannot drift.
//! * **Before/after roster semantics.** Each touched device records two
//!   rows, never an edit script: `before`, its row at the last drain
//!   (**first touch wins** — the registry notes it when it first displaces
//!   the row, and later touches leave it alone), and `after`, its state at
//!   the cut (**last write wins**). Re-registrations and
//!   register→deregister churn within one epoch collapse to a single roster
//!   patch, and the sealer stages the departure from `before` and the
//!   arrival from `after` without reading the previous snapshot's roster —
//!   which is what lets a snapshot keep one table per device instead of
//!   two. An `after` row names its bucket by handle, and the handle is live
//!   at the drain: a bucket cannot die while the device is in it. A
//!   `before` row keeps its measurement, since its bucket may have died and
//!   its handle been recycled since.
//! * **The roster aggregate travels with the delta.** The registry hashes
//!   each roster row once, when it writes it
//!   ([`device_row_digest`](crate::device_row_digest)), and keeps the sum of
//!   its rows' digests modulo 2²⁵⁶; the drain stamps that sum here, beside
//!   the shard's unattested power. The sealer adds the shards' sums up and
//!   takes them as the patched snapshot's own — a modular or integer sum
//!   over the same rows whatever the order — and never hashes a roster row
//!   itself.

use std::collections::hash_map::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::mem::size_of;

use fi_types::hash::SetDigest;
use fi_types::{Digest, ReplicaId, VotingPower};

use crate::registry::RegisteredDevice;

/// The bucket handle of the unattested tier, which has no slot.
pub(crate) const UNATTESTED: u32 = u32::MAX;

/// The bucket handle of a delta row whose device is not registered at the
/// cut. No bucket is issued it.
pub(crate) const GONE: u32 = u32::MAX - 1;

/// One touched device as [`CanonicalDelta::walk`] yields it: the row it
/// held at the last drain, kept whole, and its row at the cut, whose
/// bucket the walk's mapping resolved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TouchedRow<'a, T> {
    /// The touched device.
    pub replica: ReplicaId,
    /// The device's row when the span began (the last drain): `None` if it
    /// was not registered then. First touch wins.
    pub before: Option<&'a RegisteredDevice>,
    /// The device's row when the span ended (the cut). Last write wins.
    pub after: AfterRow<'a, T>,
}

/// A touched device's row at the cut, as [`CanonicalDelta::walk`] resolves
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AfterRow<'a, T> {
    /// Not registered at the cut.
    Gone,
    /// Registered in the unattested tier at this raw power.
    Unattested(VotingPower),
    /// Registered under `measurement` at raw `power`.
    Attested {
        /// The measurement the row's bucket handle names.
        measurement: &'a Digest,
        /// What the walk's mapping made of `measurement`.
        bucket: T,
        /// Raw power at the cut.
        power: VotingPower,
    },
    /// The row names this bucket handle, which its input's handle table
    /// does not hold. No drain produces this: a registry copies the table
    /// whole.
    Dangling(u32),
}

/// One touched device's row in a delta: 24 bytes.
#[derive(Debug, Clone, Copy)]
struct DeltaRow {
    replica: ReplicaId,
    /// Raw power at the cut; zero for a device that is gone.
    power: VotingPower,
    /// A bucket handle, [`UNATTESTED`], or [`GONE`].
    bucket: u32,
}

/// The delta maps sit on the per-op ingest hot path, keyed by values that
/// are already uniformly distributed (SHA-256 measurement digests, device
/// ids): a trivial folding hasher avoids paying SipHash over 32-byte keys
/// on every churn op.
#[derive(Debug, Clone, Copy, Default)]
struct UniformKeyHasher(u64);

impl Hasher for UniformKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0 ^ u64::from_le_bytes(buf))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(23);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }
}

type UniformKeyMap<K, V> = HashMap<K, V, BuildHasherDefault<UniformKeyHasher>>;

/// A hash map's table, by capacity: `capacity()` is 7/8 of its buckets
/// (one less than the buckets below eight), and a bucket is one entry plus
/// one control byte.
pub(crate) fn map_heap_bytes<K, V, S>(map: &HashMap<K, V, S>) -> usize {
    let buckets = match map.capacity() {
        0 => 0,
        c if c < 8 => c + 1,
        c => c / 7 * 8,
    };
    buckets * (size_of::<(K, V)>() + 1)
}

/// Net change to one measurement bucket since the last drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BucketDelta {
    /// Signed change in summed effective attested power (power units).
    pub power: i128,
    /// Signed change in the number of registered members.
    pub members: i64,
}

impl BucketDelta {
    /// Whether this delta nets out to no change at all.
    fn is_noop(&self) -> bool {
        self.power == 0 && self.members == 0
    }
}

/// One drained registry's touched devices, as a seal reads them: a 24-byte
/// row per device in first-touch order, the rows displaced at the previous
/// drain for the devices that held one, and the handle table the rows'
/// bucket handles name.
///
/// The handle table is the registry's measurement by handle, copied at the
/// drain if some row names a bucket handle — O(buckets ever live at once),
/// not O(churn) — and empty otherwise. Every handle a row names is live in
/// it, since a device's bucket cannot die while the device is in it; the
/// table's dead handles name whatever measurement they last held and no
/// row cites them.
#[derive(Debug, Clone, Default)]
struct DrainedRoster {
    /// The touched devices in first-touch order, each with its state at
    /// the cut.
    rows: Vec<DeltaRow>,
    /// For each touched device that was registered at the last drain: its
    /// position in `rows` and the row it held then, in position order.
    /// Sparse on purpose: a registration wave, or a registry nobody drains
    /// — an oracle replaying a whole history — displaces almost no row it
    /// did not write itself, and pays nothing here.
    before: Vec<(usize, RegisteredDevice)>,
    /// Whether some row written since the drain named a bucket handle:
    /// only then does the drain copy the handle table.
    names_handles: bool,
    /// Measurement by bucket handle, as of the drain; empty until then.
    measurements: Vec<Digest>,
}

impl DrainedRoster {
    fn heap_bytes(&self) -> usize {
        self.rows.capacity() * size_of::<DeltaRow>()
            + self.before.capacity() * size_of::<(usize, RegisteredDevice)>()
            + self.measurements.capacity() * size_of::<Digest>()
    }
}

/// The input a [`Walk`] starts on, before it reaches the first real one.
static NO_ROWS: DrainedRoster = DrainedRoster {
    rows: Vec::new(),
    before: Vec::new(),
    names_handles: false,
    measurements: Vec::new(),
};

/// [`CanonicalDelta::walk`]'s iterator: a cursor into one input's rows and
/// `before` rows, and the input's handle → `T` memo.
struct Walk<'a, T, F> {
    /// The inputs not yet reached.
    inputs: std::slice::Iter<'a, DrainedRoster>,
    /// The input being walked.
    input: &'a DrainedRoster,
    /// The position in `input.rows` of the next row.
    at: usize,
    /// The position in `input.before` of the next `before` row.
    before: usize,
    /// What `resolve` made of each of `input`'s handles, `None` until a
    /// row names it; as long as the highest handle a row has named.
    memo: Vec<Option<T>>,
    /// The handles `input`'s rows have named so far: the `memo` slots to
    /// reset when the walk moves to the next input.
    named: Vec<u32>,
    resolve: F,
}

impl<'a, T: Copy, F: FnMut(&Digest) -> T> Iterator for Walk<'a, T, F> {
    type Item = TouchedRow<'a, T>;

    fn next(&mut self) -> Option<TouchedRow<'a, T>> {
        let input = loop {
            if self.at < self.input.rows.len() {
                break self.input;
            }
            self.input = self.inputs.next()?;
            (self.at, self.before) = (0, 0);
            for handle in self.named.drain(..) {
                self.memo[handle as usize] = None;
            }
        };
        let at = self.at;
        let row = input.rows[at];
        self.at += 1;
        let before = match input.before.get(self.before) {
            Some((p, device)) if *p == at => {
                self.before += 1;
                Some(device)
            }
            _ => None,
        };
        let after = match row.bucket {
            GONE => AfterRow::Gone,
            UNATTESTED => AfterRow::Unattested(row.power),
            handle => match input.measurements.get(handle as usize) {
                Some(measurement) => {
                    let slot = handle as usize;
                    if slot >= self.memo.len() {
                        self.memo.resize(slot + 1, None);
                    }
                    let bucket = *self.memo[slot].get_or_insert_with(|| {
                        self.named.push(handle);
                        (self.resolve)(measurement)
                    });
                    AfterRow::Attested {
                        measurement,
                        bucket,
                        power: row.power,
                    }
                }
                None => AfterRow::Dangling(handle),
            },
        };
        Some(TouchedRow {
            replica: row.replica,
            before,
            after,
        })
    }
}

/// The net effect of all churn since the last epoch cut, in the form the
/// registry writes it: dirty measurement buckets and touched devices with
/// their roster row before and after, keyed for one update per churn op
/// and in no order. The drain adds the registry's unattested power and
/// roster aggregate at the cut, which no op updates here.
/// [`CanonicalDelta::merge`] turns one or more of these into the rows a
/// sealer reads.
///
/// A touched device costs one 24-byte row: its id, its raw power at the
/// cut and its bucket handle, found again on the next touch through the
/// position the device's registry entry keeps. A device that was
/// registered at the last drain adds the row it held then, once; one
/// deregistered since adds a `gone` map slot, because it has no entry to
/// keep its position in.
///
/// # Example
///
/// ```
/// use fi_attest::{AttestedRegistry, CanonicalDelta, ChurnOp, TwoTierWeights};
/// use fi_types::{sha256, ReplicaId, VotingPower};
///
/// let mut reg = AttestedRegistry::new(TwoTierWeights::flat());
/// reg.apply(&ChurnOp::attest(
///     ReplicaId::new(7),
///     sha256(b"cfg-a"),
///     VotingPower::new(40),
/// ));
/// let delta = CanonicalDelta::merge(vec![reg.take_delta()]);
/// assert_eq!(delta.unattested_power(), Some(VotingPower::ZERO));
/// assert_eq!(delta.roster_digest(), reg.roster_digest());
/// let buckets = delta.buckets();
/// assert_eq!(buckets.len(), 1);
/// assert_eq!(buckets[0].1.power, 40);
/// assert_eq!(buckets[0].1.members, 1);
/// assert!(reg.take_delta().is_empty(), "draining resets the delta");
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChurnDelta {
    /// Dirty measurement buckets, entries that net to no change included.
    buckets: UniformKeyMap<Digest, BucketDelta>,
    /// The touched devices' rows, and at the drain the handle table.
    roster: DrainedRoster,
    /// Each device deregistered since the last drain, and its position in
    /// `roster`: a registered device keeps its position in its registry
    /// entry, and a deregistered one has no entry.
    gone: UniformKeyMap<ReplicaId, u32>,
    /// The registry's unattested-tier effective power at the drain; zero
    /// before it.
    unattested: VotingPower,
    /// The registry's roster aggregate at the drain; empty before it.
    roster_digest: SetDigest,
}

impl ChurnDelta {
    /// Records a bucket change (registration side: positive; removal side:
    /// negative).
    pub(crate) fn record_bucket(&mut self, measurement: Digest, power: i128, members: i64) {
        let entry = self.buckets.entry(measurement).or_default();
        entry.power += power;
        entry.members += members;
    }

    /// Records one write to `replica`'s roster row — `power` under bucket
    /// handle `bucket`, or [`GONE`] — and returns the row's position, for
    /// the registry to keep in the device's entry. `before` is the row the
    /// write displaced with the position its entry kept, `None` if the
    /// device was not registered. A kept position is the device's only if
    /// the row there names it: a drain empties the rows and leaves every
    /// entry as it was. A device not registered has its position in `gone`
    /// if it left since the last drain. `before` sticks only on the
    /// device's first touch; the new row always replaces the one recorded
    /// (last write wins).
    pub(crate) fn record_roster(
        &mut self,
        replica: ReplicaId,
        before: Option<(RegisteredDevice, u32)>,
        power: VotingPower,
        bucket: u32,
    ) -> u32 {
        let rows = &mut self.roster.rows;
        let seen = match before {
            Some((_, at)) => rows
                .get(at as usize)
                .is_some_and(|row| row.replica == replica)
                .then_some(at),
            None => self.gone.remove(&replica),
        };
        let row = DeltaRow {
            replica,
            power,
            bucket,
        };
        let at = match seen {
            Some(at) => {
                rows[at as usize] = row;
                at
            }
            None => {
                let at = u32::try_from(rows.len())
                    .expect("fewer than 2^32 devices touched between two drains");
                if let Some((device, _)) = before {
                    self.roster.before.push((rows.len(), device));
                }
                rows.push(row);
                at
            }
        };
        if bucket == GONE {
            self.gone.insert(replica, at);
        }
        self.roster.names_handles |= bucket < GONE;
        at
    }

    /// Stamps the drained delta with the registry's unattested power and
    /// roster aggregate at the drain, and hands it the registry's
    /// measurement by bucket handle, which its rows' handles name — if some
    /// row names one; otherwise the table is not built.
    pub(crate) fn drained(
        &mut self,
        unattested: VotingPower,
        roster_digest: SetDigest,
        measurements: impl FnOnce() -> Vec<Digest>,
    ) {
        (self.unattested, self.roster_digest) = (unattested, roster_digest);
        if self.roster.names_handles {
            self.roster.measurements = measurements();
        }
    }

    /// The bytes this delta holds on the heap, by capacity: its rows,
    /// `before` rows and handle table, the `gone` map and the bucket map.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.roster.heap_bytes() + map_heap_bytes(&self.gone) + map_heap_bytes(&self.buckets)
    }

    /// Whether no churn has been recorded. Buckets whose power and member
    /// deltas both cancelled still count as touched here; they are pruned
    /// by [`CanonicalDelta::merge`].
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty() && self.roster.rows.is_empty()
    }

    /// Number of touched devices.
    #[must_use]
    pub fn touched_devices(&self) -> usize {
        self.roster.rows.len()
    }
}

/// One or more [`ChurnDelta`]s as a sealer reads them: the rows a snapshot
/// patch must visit, and the inputs' unattested power and roster aggregate
/// summed. Built only by [`merge`](Self::merge), so the bucket ordering
/// and uniqueness below hold for every value of this type.
///
/// Two deltas are equal when they say the same: the same bucket rows, sums
/// and touched rows in drain order, each `after` row by the measurement
/// its handle names, whichever handle that is.
#[derive(Debug, Clone, Default)]
pub struct CanonicalDelta {
    /// Dirty buckets sorted by measurement digest, one row per digest,
    /// rows that net to no change pruned.
    buckets: Vec<(Digest, BucketDelta)>,
    /// Each input's touched devices as drained, in drain order.
    inputs: Vec<DrainedRoster>,
    /// The inputs' unattested-tier effective power summed, in power units:
    /// wide enough that no sum of `u64`s wraps.
    unattested: u128,
    /// The inputs' roster aggregates summed, mod 2²⁵⁶.
    roster_digest: SetDigest,
}

impl CanonicalDelta {
    /// Merges `deltas` — the drained deltas of one cut, one per shard —
    /// with no intermediate map. Bucket deltas, unattested powers and
    /// roster aggregates are integer or modular sums, so the order of
    /// `deltas` cannot change them; bucket rows are summed per digest and
    /// sorted. Roster rows are moved, not copied: each input keeps its rows
    /// and handle table, in drain order, neither sorted nor deduplicated.
    /// Shards own disjoint devices, so each replica comes from one input,
    /// and a replica in two is passed through for the sealer to refuse.
    #[must_use]
    pub fn merge(deltas: Vec<ChurnDelta>) -> CanonicalDelta {
        let mut merged = CanonicalDelta {
            buckets: Vec::with_capacity(deltas.iter().map(|d| d.buckets.len()).sum()),
            inputs: Vec::with_capacity(deltas.len()),
            ..CanonicalDelta::default()
        };
        for delta in deltas {
            merged.buckets.extend(delta.buckets);
            merged.inputs.push(delta.roster);
            merged.unattested += u128::from(delta.unattested.as_units());
            merged.roster_digest.add(delta.roster_digest);
        }
        merged.buckets.sort_unstable_by_key(|&(m, _)| m);
        merged.buckets.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1.power += later.1.power;
                kept.1.members += later.1.members;
            }
            same
        });
        merged.buckets.retain(|(_, d)| !d.is_noop());
        merged
    }

    /// The dirty buckets in canonical (sorted-by-digest) order, entries
    /// that net to no change pruned.
    #[must_use]
    pub fn buckets(&self) -> &[(Digest, BucketDelta)] {
        &self.buckets
    }

    /// Number of touched devices, over every input.
    #[must_use]
    pub fn touched_devices(&self) -> usize {
        self.inputs.iter().map(|input| input.rows.len()).sum()
    }

    /// The touched devices in drain order, input by input, each with the
    /// row it held at the previous drain and its row at the cut: what a
    /// seal stages its departures and arrivals from. This is the one read
    /// of the drained rows.
    ///
    /// An `after` row names its bucket by handle, and `resolve` maps the
    /// measurement behind a handle to what the caller keys buckets by —
    /// once per handle an input's rows name, on the first row that names
    /// it; every later row naming the handle reads the answer from a memo
    /// indexed by handle. Between inputs only the slots the last input's
    /// rows named are reset, because each shard issues its own handles,
    /// and the memo grows only as far as the highest handle a row names,
    /// once a seal rather than once a shard. The `before` rows keep their
    /// measurement and are not resolved: a departed device's bucket may
    /// have died since, and its handle been recycled.
    pub fn walk<T: Copy>(
        &self,
        resolve: impl FnMut(&Digest) -> T,
    ) -> impl Iterator<Item = TouchedRow<'_, T>> {
        Walk {
            inputs: self.inputs.iter(),
            input: &NO_ROWS,
            at: 0,
            before: 0,
            memo: Vec::new(),
            named: Vec::new(),
            resolve,
        }
    }

    /// The inputs' unattested-tier effective power at their drains,
    /// summed; `None` if the sum overflows `u64`.
    #[must_use]
    pub fn unattested_power(&self) -> Option<VotingPower> {
        u64::try_from(self.unattested).ok().map(VotingPower::new)
    }

    /// The inputs' roster aggregates at their drains, summed: the
    /// [`SetDigest`] of every row the drained registries hold. Shards own
    /// disjoint devices, so a cut's sum is the fleet's aggregate.
    #[must_use]
    pub fn roster_digest(&self) -> SetDigest {
        self.roster_digest
    }
}

impl PartialEq for CanonicalDelta {
    fn eq(&self, other: &Self) -> bool {
        self.buckets == other.buckets
            && self.unattested == other.unattested
            && self.roster_digest == other.roster_digest
            && self.walk(|&m| m).eq(other.walk(|&m| m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_types::sha256;

    fn dev(id: u64, power: u64) -> RegisteredDevice {
        RegisteredDevice {
            replica: ReplicaId::new(id),
            measurement: None,
            power: VotingPower::new(power),
        }
    }

    /// A set digest over the rows `rows` names.
    fn aggregate(rows: &[&[u8]]) -> SetDigest {
        let mut agg = SetDigest::EMPTY;
        for row in rows {
            agg.insert(&sha256(row));
        }
        agg
    }

    #[test]
    fn merge_sums_buckets_and_opaque() {
        let m = sha256(b"cfg-a");
        let mut a = ChurnDelta::default();
        a.record_bucket(m, 30, 1);
        a.drained(VotingPower::new(5), aggregate(&[b"r1"]), Vec::new);
        let mut b = ChurnDelta::default();
        b.record_bucket(m, -10, 1);
        b.record_bucket(sha256(b"cfg-b"), 7, 1);
        b.drained(VotingPower::new(2), aggregate(&[b"r2", b"r3"]), Vec::new);
        let merged = CanonicalDelta::merge(vec![a, b]);
        let rows = merged.buckets();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].0 < rows[1].0, "sorted by digest");
        let (pm, pd) = rows.iter().find(|&&(d, _)| d == m).copied().unwrap();
        assert_eq!(pm, m);
        assert_eq!(
            pd,
            BucketDelta {
                power: 20,
                members: 2
            }
        );
        // The shards' sums at their drains, added up: absolute values, not
        // changes.
        assert_eq!(merged.unattested_power(), Some(VotingPower::new(7)));
        assert_eq!(merged.roster_digest(), aggregate(&[b"r1", b"r2", b"r3"]));

        // Sums past `u64` are reported, not wrapped.
        let halves: Vec<ChurnDelta> = (0..2)
            .map(|_| {
                let mut d = ChurnDelta::default();
                d.drained(VotingPower::new(1 << 63), SetDigest::EMPTY, Vec::new);
                d
            })
            .collect();
        assert_eq!(CanonicalDelta::merge(halves).unattested_power(), None);
    }

    #[test]
    fn noop_buckets_are_pruned_from_sorted_rows() {
        let m = sha256(b"cfg-a");
        let mut d = ChurnDelta::default();
        d.record_bucket(m, 12, 1);
        d.record_bucket(m, -12, -1);
        assert!(!d.is_empty(), "a cancelled bucket still counts as touched");
        assert!(CanonicalDelta::merge(vec![d]).buckets().is_empty());

        // Neither half is a no-op; their sum is.
        let (mut a, mut b) = (ChurnDelta::default(), ChurnDelta::default());
        a.record_bucket(m, 12, 1);
        b.record_bucket(m, -12, -1);
        assert!(CanonicalDelta::merge(vec![a, b]).buckets().is_empty());
    }

    #[test]
    fn roster_is_last_write_wins_and_sorted() {
        // One row per touched device, in first-touch order — the merge
        // sorts nothing but the buckets; a seal sorts the replica ids.
        let mut d = ChurnDelta::default();
        let at = d.record_roster(
            ReplicaId::new(9),
            Some((dev(9, 5), 0)),
            dev(9, 10).power,
            UNATTESTED,
        );
        d.record_roster(ReplicaId::new(2), None, dev(2, 20).power, UNATTESTED);
        d.record_roster(
            ReplicaId::new(9),
            Some((dev(9, 10), at)),
            VotingPower::ZERO,
            GONE,
        );
        assert_eq!(d.touched_devices(), 2);
        let delta = CanonicalDelta::merge(vec![d]);
        assert_eq!(
            delta
                .walk(|&m| m)
                .map(|row| (row.replica, row.before.copied(), row.after))
                .collect::<Vec<_>>(),
            [
                (ReplicaId::new(9), Some(dev(9, 5)), AfterRow::Gone),
                (
                    ReplicaId::new(2),
                    None,
                    AfterRow::Unattested(VotingPower::new(20))
                ),
            ],
            "deregistrations keep their row, and the row the first touch displaced"
        );
    }

    #[test]
    fn merging_nothing_is_the_empty_delta() {
        assert_eq!(CanonicalDelta::merge(Vec::new()), CanonicalDelta::default());
        assert_eq!(
            CanonicalDelta::merge(vec![ChurnDelta::default(); 3]),
            CanonicalDelta::default()
        );
    }

    #[test]
    fn a_delta_row_is_three_words() {
        assert_eq!(size_of::<DeltaRow>(), 24);
    }

    /// A drained delta whose rows name `handles` in order, each device
    /// arriving at power 1 with no `before` row, over `table`.
    fn drained(first: u64, handles: &[u32], table: &[Digest]) -> ChurnDelta {
        let mut d = ChurnDelta::default();
        for (id, &handle) in (first..).zip(handles) {
            d.record_roster(ReplicaId::new(id), None, VotingPower::new(1), handle);
        }
        d.drained(VotingPower::ZERO, SetDigest::EMPTY, || table.to_vec());
        d
    }

    #[test]
    fn the_walk_resolves_each_handle_once_per_input_against_its_own_table() {
        // Handle 0 names a different measurement in each input, and handle
        // 2 of the first input's table is named by no row.
        let [a, b, c, x] = [b"a", b"b", b"c", b"x"].map(sha256);
        let delta = CanonicalDelta::merge(vec![
            drained(0, &[0, 1, 0, UNATTESTED, 1, 0], &[a, b, x]),
            drained(20, &[0, GONE, 0], &[c]),
            drained(30, &[], &[]),
        ]);
        let mut calls = Vec::new();
        let walked: Vec<_> = delta
            .walk(|m| {
                calls.push(*m);
                m.as_bytes()[0]
            })
            .map(|row| match row.after {
                AfterRow::Attested {
                    measurement,
                    bucket,
                    ..
                } => {
                    assert_eq!(bucket, measurement.as_bytes()[0]);
                    (row.replica.as_u64(), Some(*measurement))
                }
                _ => (row.replica.as_u64(), None),
            })
            .collect();
        assert_eq!(calls, [a, b, c], "one call per handle a row names");
        assert_eq!(
            walked,
            [
                (0, Some(a)),
                (1, Some(b)),
                (2, Some(a)),
                (3, None),
                (4, Some(b)),
                (5, Some(a)),
                (20, Some(c)),
                (21, None),
                (22, Some(c)),
            ]
        );
        let identity: Vec<_> = delta.walk(|&m| m).map(|row| row.after).collect();
        let bucket = |at: usize| match identity[at] {
            AfterRow::Attested { bucket, .. } => Some(bucket),
            _ => None,
        };
        assert_eq!((bucket(0), bucket(6)), (Some(a), Some(c)));
        assert_eq!(identity[3], AfterRow::Unattested(VotingPower::new(1)));
        assert_eq!(identity[7], AfterRow::Gone);
    }

    #[test]
    fn a_handle_outside_its_inputs_table_walks_as_dangling() {
        let a = sha256(b"a");
        // Past the end of its table, and named with no table copied.
        let mut unresolved = ChurnDelta::default();
        unresolved.record_roster(ReplicaId::new(9), None, VotingPower::new(1), 0);
        let delta = CanonicalDelta::merge(vec![drained(0, &[0, 1], &[a]), unresolved]);
        let mut calls = 0;
        let after: Vec<_> = delta
            .walk(|_| calls += 1)
            .map(|row| (row.replica.as_u64(), row.after))
            .collect();
        assert_eq!(calls, 1);
        assert_eq!(
            after,
            [
                (
                    0,
                    AfterRow::Attested {
                        measurement: &a,
                        bucket: (),
                        power: VotingPower::new(1)
                    }
                ),
                (1, AfterRow::Dangling(1)),
                (9, AfterRow::Dangling(0)),
            ]
        );
    }
}
