//! Per-epoch churn deltas: what changed since the last epoch cut, as data.
//!
//! A fleet-scale sealer must not pay O(fleet) to publish an epoch that saw
//! a handful of churn ops. [`ChurnDelta`] is the O(churn) alternative: the
//! [`AttestedRegistry`](crate::AttestedRegistry) accumulates, alongside its
//! incremental buckets, the *net* effect of every mutation since the delta
//! was last drained — dirty measurement buckets with signed power and
//! member-count deltas, the final roster state of every touched device, the
//! net change to the roster's row-digest aggregate, and the signed
//! opaque-power delta. A sealer drains each shard's delta at the
//! epoch cut ([`AttestedRegistry::take_delta`](crate::AttestedRegistry::take_delta)),
//! merges them ([`ChurnDelta::merge`] — shards own disjoint devices, and
//! integer bucket deltas commute), and patches the previous canonical
//! snapshot instead of rebuilding it.
//!
//! Three properties make the patch exact:
//!
//! * **Integer bucket algebra.** Bucket power and member counts are integer
//!   sums, so `previous + delta` is bit-identical to a from-scratch merge of
//!   the shards — the content hash cannot drift.
//! * **Final-state roster semantics.** Each touched device records its
//!   *state at the cut* (last write wins), never an edit script, so
//!   re-registrations and register→deregister churn within one epoch
//!   collapse to a single roster patch.
//! * **Row digests travel with the delta.** The registry hashes each roster
//!   row once, when it writes it
//!   ([`device_row_digest`](crate::device_row_digest)), and records here the
//!   sum of digests written minus digests overwritten or removed, modulo
//!   2²⁵⁶. The sealer adds that one 256-bit value to the previous snapshot's
//!   device aggregate; it never hashes a roster row itself.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use fi_types::hash::SetDigest;
use fi_types::{Digest, ReplicaId};

use crate::registry::RegisteredDevice;

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
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.power == 0 && self.members == 0
    }
}

/// The net effect of all churn since the last epoch cut: dirty measurement
/// buckets, touched devices with their final roster state, and the opaque
/// (unattested-tier) power delta.
///
/// # Example
///
/// ```
/// use fi_attest::{AttestedRegistry, ChurnOp, TwoTierWeights};
/// use fi_types::{sha256, ReplicaId, VotingPower};
///
/// let mut reg = AttestedRegistry::new(TwoTierWeights::flat());
/// reg.apply(&ChurnOp::attest(
///     ReplicaId::new(7),
///     sha256(b"cfg-a"),
///     VotingPower::new(40),
/// ));
/// let delta = reg.take_delta();
/// assert_eq!(delta.opaque_delta(), 0);
/// let buckets = delta.sorted_buckets();
/// assert_eq!(buckets.len(), 1);
/// assert_eq!(buckets[0].1.power, 40);
/// assert_eq!(buckets[0].1.members, 1);
/// assert!(reg.take_delta().is_empty(), "draining resets the delta");
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChurnDelta {
    /// Dirty measurement buckets. Unordered; [`sorted_buckets`](Self::sorted_buckets)
    /// canonicalises.
    buckets: UniformKeyMap<Digest, BucketDelta>,
    /// Final state per touched device: `Some` if registered at the cut,
    /// `None` if absent.
    roster: UniformKeyMap<ReplicaId, Option<RegisteredDevice>>,
    /// Signed change in total unattested-tier effective power.
    opaque: i128,
    /// Net change to the roster's row-digest aggregate: digests of rows
    /// written minus digests of rows overwritten or removed, mod 2²⁵⁶.
    rows: SetDigest,
}

impl ChurnDelta {
    /// Records a bucket change (registration side: positive; removal side:
    /// negative).
    pub(crate) fn record_bucket(&mut self, measurement: Digest, power: i128, members: i64) {
        let entry = self.buckets.entry(measurement).or_default();
        entry.power += power;
        entry.members += members;
    }

    /// Records a change to the opaque (unattested-tier) power.
    pub(crate) fn record_opaque(&mut self, power: i128) {
        self.opaque += power;
    }

    /// Records the final roster state of a touched device (last write
    /// wins). The registry is the only production caller; it is public so a
    /// sealer's tests can forge a delta no registry would produce.
    pub fn record_roster(&mut self, replica: ReplicaId, state: Option<RegisteredDevice>) {
        self.roster.insert(replica, state);
    }

    /// Records one roster row leaving the registry (deregistered, or
    /// about to be overwritten) by its write-time digest.
    pub(crate) fn record_row_out(&mut self, row_digest: &Digest) {
        self.rows.remove(row_digest);
    }

    /// Records one roster row entering the registry by its write-time
    /// digest.
    pub(crate) fn record_row_in(&mut self, row_digest: &Digest) {
        self.rows.insert(row_digest);
    }

    /// Whether no net change has been recorded. Buckets whose power and
    /// member deltas both cancelled still count as touched here; they are
    /// pruned by [`sorted_buckets`](Self::sorted_buckets).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty() && self.roster.is_empty() && self.opaque == 0
    }

    /// Number of dirty measurement buckets (before no-op pruning).
    #[must_use]
    pub fn dirty_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Number of touched devices.
    #[must_use]
    pub fn touched_devices(&self) -> usize {
        self.roster.len()
    }

    /// The signed opaque-power delta, in power units.
    #[must_use]
    pub fn opaque_delta(&self) -> i128 {
        self.opaque
    }

    /// The net change to the roster's row-digest aggregate since the last
    /// drain: `aggregate_now = aggregate_at_last_drain + this`, as
    /// [`SetDigest::add`]. It is exactly the change
    /// [`sorted_roster`](Self::sorted_roster) describes — a device whose
    /// row was rewritten to identical content contributes zero.
    #[must_use]
    pub fn row_digest_change(&self) -> SetDigest {
        self.rows
    }

    /// Folds `other` into `self`. Bucket, opaque, and row-digest deltas are
    /// modular/integer sums (commutative, so shard merge order is
    /// irrelevant); roster entries come from disjoint device sets when
    /// merging shard deltas, and otherwise last write wins.
    pub fn merge(&mut self, other: ChurnDelta) {
        for (m, d) in other.buckets {
            let entry = self.buckets.entry(m).or_default();
            entry.power += d.power;
            entry.members += d.members;
        }
        self.roster.extend(other.roster);
        self.opaque += other.opaque;
        self.rows.add(other.rows);
    }

    /// The dirty buckets in canonical (sorted-by-digest) order, with
    /// entries that net to no change pruned — exactly the rows a snapshot
    /// patch must visit.
    #[must_use]
    pub fn sorted_buckets(&self) -> Vec<(Digest, BucketDelta)> {
        let mut rows: Vec<(Digest, BucketDelta)> = self
            .buckets
            .iter()
            .filter(|(_, d)| !d.is_noop())
            .map(|(&m, &d)| (m, d))
            .collect();
        rows.sort_unstable_by_key(|&(m, _)| m);
        rows
    }

    /// The touched devices in canonical (sorted-by-replica) order with
    /// their final roster state.
    #[must_use]
    pub fn sorted_roster(&self) -> Vec<(ReplicaId, Option<RegisteredDevice>)> {
        let mut rows: Vec<(ReplicaId, Option<RegisteredDevice>)> =
            self.roster.iter().map(|(&r, &d)| (r, d)).collect();
        rows.sort_unstable_by_key(|&(r, _)| r);
        rows
    }

    /// The touched replica ids in sorted order — the churn set a
    /// warm-started committee re-selection must re-evaluate. Every device
    /// whose roster row could differ between the pre- and post-delta
    /// snapshots appears here (final-state semantics already collapsed
    /// intra-epoch churn).
    #[must_use]
    pub fn sorted_touched_replicas(&self) -> Vec<ReplicaId> {
        let mut rows: Vec<ReplicaId> = self.roster.keys().copied().collect();
        rows.sort_unstable();
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_types::{sha256, VotingPower};

    #[test]
    fn merge_sums_buckets_and_opaque() {
        let m = sha256(b"cfg-a");
        let mut a = ChurnDelta::default();
        a.record_bucket(m, 30, 1);
        a.record_opaque(5);
        let mut b = ChurnDelta::default();
        b.record_bucket(m, -10, 1);
        b.record_bucket(sha256(b"cfg-b"), 7, 1);
        b.record_opaque(-2);
        a.merge(b);
        let rows = a.sorted_buckets();
        assert_eq!(rows.len(), 2);
        let (pm, pd) = rows.iter().find(|&&(d, _)| d == m).copied().unwrap();
        assert_eq!(pm, m);
        assert_eq!(
            pd,
            BucketDelta {
                power: 20,
                members: 2
            }
        );
        assert_eq!(a.opaque_delta(), 3);
    }

    #[test]
    fn noop_buckets_are_pruned_from_sorted_rows() {
        let m = sha256(b"cfg-a");
        let mut d = ChurnDelta::default();
        d.record_bucket(m, 12, 1);
        d.record_bucket(m, -12, -1);
        assert_eq!(d.dirty_buckets(), 1);
        assert!(d.sorted_buckets().is_empty());
    }

    #[test]
    fn roster_is_last_write_wins_and_sorted() {
        let mut d = ChurnDelta::default();
        let dev = |id: u64, power: u64| RegisteredDevice {
            replica: ReplicaId::new(id),
            tier: crate::registry::ReplicaTier::Unattested,
            measurement: None,
            power: VotingPower::new(power),
        };
        d.record_roster(ReplicaId::new(9), Some(dev(9, 10)));
        d.record_roster(ReplicaId::new(2), Some(dev(2, 20)));
        d.record_roster(ReplicaId::new(9), None);
        let rows = d.sorted_roster();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, ReplicaId::new(2));
        assert_eq!(rows[0].1, Some(dev(2, 20)));
        assert_eq!(rows[1], (ReplicaId::new(9), None));
        assert_eq!(
            d.sorted_touched_replicas(),
            vec![ReplicaId::new(2), ReplicaId::new(9)],
            "the churn set matches the roster keys, deregistrations included"
        );
    }
}
