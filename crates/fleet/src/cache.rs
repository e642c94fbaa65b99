//! Memoized committee selections: repeated quorum queries in O(1).
//!
//! A greedy selection is a **pure function of fleet content**: the member
//! sequence depends only on the snapshot's
//! [`content_hash`](EpochSnapshot::content_hash) (which pins the candidate
//! roster byte-for-byte) and the committee size `k`.
//! Production serving repeats the same `(content, k)` query many times per
//! epoch — every quorum check, every monitoring probe — so the
//! [`SelectionCache`] memoizes the result: a hit is one lock-striped probe
//! returning a shared `Arc<Committee>`, no selection arithmetic at all.
//! Randomized selection (two-tier sortition) is deliberately not cached:
//! its output depends on RNG state, not fleet content, so memoizing it
//! would change observable behaviour.
//!
//! Misses are *warm-chained*: a snapshot produced by the differential
//! sealer records its parent's content hash
//! ([`EpochSnapshot::parent_hash`]) and churned replica set, so when the
//! cache holds the parent epoch's committee for the same `k` it repairs
//! that committee through [`EpochSnapshot::select_greedy_warm`] —
//! O(k · churn) — instead of selecting cold. Either path produces the
//! byte-identical member sequence of a cold
//! [`select_greedy`](EpochSnapshot::select_greedy), so cache state can
//! never change an answer, only its cost.
//!
//! The cache is bounded: each stripe holds at most
//! `capacity / stripes` entries and evicts its lowest-epoch entry when
//! full, so advancing epochs naturally invalidate stale content. Keys are
//! content hashes, so a "stale" entry is never *wrong* — two epochs with
//! identical fleet content legitimately share an entry — it is merely
//! unreachable once no live snapshot hashes to it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use fi_committee::Committee;
use fi_types::Digest;
use serde::{Deserialize, Serialize};

use crate::snapshot::EpochSnapshot;

/// Monotonic counters describing how the cache has served its queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Queries answered from a memoized entry.
    pub hits: u64,
    /// Queries that had to select (warm or cold).
    pub misses: u64,
    /// Misses served by warm-start repair from the parent epoch's entry.
    pub warm_starts: u64,
    /// Misses that fell back to a full warm-start churn-threshold
    /// fallback or had no parent entry: selected cold.
    pub cold_selections: u64,
    /// Entries displaced by the per-stripe capacity bound.
    pub evictions: u64,
}

/// One memoized selection.
struct CacheEntry {
    hash: Digest,
    k: usize,
    /// The highest epoch this entry was observed at — the eviction key
    /// (lowest goes first), refreshed on hit so live content survives.
    epoch: u64,
    committee: Arc<Committee>,
}

/// A bounded, lock-striped, epoch-evicting memo of committee selections.
///
/// # Example
///
/// ```
/// use fi_attest::TwoTierWeights;
/// use fi_fleet::{churn_trace, ChurnTraceConfig, EpochSnapshot, SelectionCache, ShardedFleet};
///
/// let fleet = ShardedFleet::new(2, TwoTierWeights::default());
/// fleet.ingest_batch(&churn_trace(&ChurnTraceConfig::new(300, 600)));
/// let snapshot = fleet.seal_epoch();
///
/// let cache = SelectionCache::default();
/// let first = cache.select_greedy(&snapshot, 16);
/// let again = cache.select_greedy(&snapshot, 16);
/// assert_eq!(first.members(), snapshot.select_greedy(16).members());
/// assert!(std::sync::Arc::ptr_eq(&first, &again), "second query is a hit");
/// assert_eq!(cache.stats().hits, 1);
/// ```
pub struct SelectionCache {
    stripes: Vec<Mutex<Vec<CacheEntry>>>,
    stripe_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    warm_starts: AtomicU64,
    cold_selections: AtomicU64,
    evictions: AtomicU64,
}

/// Default total capacity: committees are a few KiB each, so memoizing a
/// thousand `(content, k)` pairs is cheap and far exceeds the live set of
/// any realistic serving window.
const DEFAULT_CAPACITY: usize = 1024;

/// Stripe count: enough to make contention between concurrent readers
/// negligible while keeping per-stripe scans short.
const STRIPES: usize = 16;

impl Default for SelectionCache {
    fn default() -> Self {
        SelectionCache::with_capacity(DEFAULT_CAPACITY)
    }
}

impl SelectionCache {
    /// A cache bounded to roughly `capacity` entries (rounded up to a
    /// multiple of the stripe count; at least one entry per stripe).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let stripe_capacity = capacity.div_ceil(STRIPES).max(1);
        SelectionCache {
            stripes: (0..STRIPES).map(|_| Mutex::new(Vec::new())).collect(),
            stripe_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            warm_starts: AtomicU64::new(0),
            cold_selections: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Maximum number of entries the cache will hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.stripe_capacity * self.stripes.len()
    }

    /// Number of currently memoized entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| lock_recover(s).len()).sum()
    }

    /// Whether no entry is memoized.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the hit/miss/warm/eviction counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            warm_starts: self.warm_starts.load(Ordering::Relaxed),
            cold_selections: self.cold_selections.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// The greedy committee for `(snapshot content, k)` — memoized.
    ///
    /// Hit: one striped-mutex probe, an `Arc` clone. Miss: warm-start
    /// repair from the parent epoch's cached committee when the snapshot
    /// is a differential child and the parent entry is resident, else a
    /// cold pruned selection; the result is inserted (evicting the
    /// stripe's lowest-epoch entry if full) and returned. Every path
    /// yields the byte-identical member sequence of
    /// [`EpochSnapshot::select_greedy`].
    #[must_use]
    pub fn select_greedy(&self, snapshot: &EpochSnapshot, k: usize) -> Arc<Committee> {
        let hash = snapshot.content_hash();
        if let Some(found) = self.lookup(hash, k, snapshot.epoch()) {
            // relaxed: monotonic stat counter, read only by monitoring.
            self.hits.fetch_add(1, Ordering::Relaxed);
            return found;
        }
        // relaxed: monotonic stat counter, read only by monitoring.
        self.misses.fetch_add(1, Ordering::Relaxed);

        // Warm chain: the parent epoch's committee for the same key, if
        // still resident, seeds an O(k · churn) repair.
        let parent = snapshot
            .parent_hash()
            .and_then(|ph| self.lookup(ph, k, snapshot.epoch()));
        let committee = match parent {
            Some(previous) => {
                let (committee, report) = snapshot.select_greedy_warm(k, previous.members());
                if report.fell_back {
                    // relaxed: monotonic stat counter (monitoring only).
                    self.cold_selections.fetch_add(1, Ordering::Relaxed);
                } else {
                    // relaxed: monotonic stat counter (monitoring only).
                    self.warm_starts.fetch_add(1, Ordering::Relaxed);
                }
                committee
            }
            None => {
                // relaxed: monotonic stat counter (monitoring only).
                self.cold_selections.fetch_add(1, Ordering::Relaxed);
                snapshot.select_greedy(k)
            }
        };
        let committee = Arc::new(committee);
        self.insert(hash, k, snapshot.epoch(), Arc::clone(&committee));
        committee
    }

    /// Drops every entry last observed strictly before `epoch` — explicit
    /// cross-epoch invalidation for callers that want to bound staleness
    /// harder than capacity eviction does.
    pub fn invalidate_before(&self, epoch: u64) {
        for stripe in &self.stripes {
            lock_recover(stripe).retain(|e| e.epoch >= epoch);
        }
    }

    /// Drops everything.
    pub fn clear(&self) {
        for stripe in &self.stripes {
            lock_recover(stripe).clear();
        }
    }

    fn stripe_of(&self, hash: Digest, k: usize) -> &Mutex<Vec<CacheEntry>> {
        let mut bytes = [0u8; 8];
        // lint: allow(panic) a Digest is always 32 bytes; the [..8] prefix
        // cannot be out of range.
        bytes.copy_from_slice(&hash.as_bytes()[..8]);
        let h = u64::from_le_bytes(bytes) ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // lint: allow(panic) index is reduced modulo stripes.len(), and the
        // constructor guarantees at least one stripe.
        &self.stripes[(h as usize) % self.stripes.len()]
    }

    /// Probes for `(hash, k)`; refreshes the entry's epoch tag to
    /// `observed_epoch` on hit so content that is still being served
    /// outlives the eviction sweep.
    fn lookup(&self, hash: Digest, k: usize, observed_epoch: u64) -> Option<Arc<Committee>> {
        let mut stripe = lock_recover(self.stripe_of(hash, k));
        let entry = stripe.iter_mut().find(|e| e.hash == hash && e.k == k)?;
        entry.epoch = entry.epoch.max(observed_epoch);
        Some(Arc::clone(&entry.committee))
    }

    fn insert(&self, hash: Digest, k: usize, epoch: u64, committee: Arc<Committee>) {
        let mut stripe = lock_recover(self.stripe_of(hash, k));
        // A racing miss may have inserted the same key; keep one entry.
        if let Some(entry) = stripe.iter_mut().find(|e| e.hash == hash && e.k == k) {
            entry.epoch = entry.epoch.max(epoch);
            return;
        }
        if stripe.len() >= self.stripe_capacity {
            // Never panic on the eviction path: the cache is an
            // optimisation, and a read-side memo must not be able to take
            // the serving process down. If no victim is found (an empty
            // stripe reported as full can only mean an inconsistent
            // capacity state), skip eviction and insert anyway — a
            // temporarily over-full stripe self-corrects on later sweeps.
            if let Some(oldest) = stripe
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.epoch)
                .map(|(i, _)| i)
            {
                stripe.swap_remove(oldest);
                // relaxed: monotonic stat counter, read only by monitoring.
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        stripe.push(CacheEntry {
            hash,
            k,
            epoch,
            committee,
        });
    }
}

impl std::fmt::Debug for SelectionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelectionCache")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Mutex acquisition that shrugs off poisoning: cache entries are only
/// ever replaced whole, so a panicking peer cannot leave one half-written.
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::ShardedFleet;
    use crate::trace::{churn_trace, ChurnTraceConfig};
    use fi_attest::TwoTierWeights;

    fn sealed_snapshot(devices: u64, ops: usize) -> Arc<EpochSnapshot> {
        let fleet = ShardedFleet::new(2, TwoTierWeights::default());
        fleet.ingest_batch(&churn_trace(&ChurnTraceConfig::new(devices, ops)));
        fleet.seal_epoch()
    }

    #[test]
    fn hit_returns_the_same_committee_without_reselecting() {
        let snap = sealed_snapshot(200, 500);
        let cache = SelectionCache::default();
        let a = cache.select_greedy(&snap, 12);
        let b = cache.select_greedy(&snap, 12);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.members(), snap.select_greedy(12).members());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn distinct_k_values_are_distinct_entries() {
        let snap = sealed_snapshot(150, 400);
        let cache = SelectionCache::default();
        let small = cache.select_greedy(&snap, 4);
        let large = cache.select_greedy(&snap, 9);
        assert_eq!(small.len(), 4);
        assert_eq!(large.len(), 9);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 2);
        // Greedy selection is prefix-stable: same leading members.
        assert_eq!(&large.members()[..4], small.members());
    }

    #[test]
    fn capacity_bound_evicts_lowest_epoch() {
        let snap = sealed_snapshot(100, 250);
        // One stripe's worth of capacity in total: k varies, so entries
        // spread across stripes, but each stripe holds at most one.
        let cache = SelectionCache::with_capacity(1);
        assert_eq!(cache.capacity(), STRIPES);
        for k in 1..=(2 * STRIPES) {
            let _ = cache.select_greedy(&snap, k);
        }
        assert!(cache.len() <= cache.capacity());
        assert!(cache.stats().evictions > 0, "{:?}", cache.stats());
        // Evicted keys still answer correctly (they just re-select).
        assert_eq!(
            cache.select_greedy(&snap, 1).members(),
            snap.select_greedy(1).members()
        );
    }

    #[test]
    fn invalidate_before_drops_old_epochs() {
        let snap = sealed_snapshot(100, 250);
        let cache = SelectionCache::default();
        let _ = cache.select_greedy(&snap, 3);
        assert_eq!(cache.len(), 1);
        cache.invalidate_before(snap.epoch() + 1);
        assert!(cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn zero_capacity_clamps_and_never_panics_at_the_bound() {
        // Regression: the eviction path used to `expect` a victim; the
        // tightest possible cache (one entry per stripe, every insert at
        // the bound) must churn through arbitrarily many keys without
        // panicking and still answer correctly.
        let snap = sealed_snapshot(100, 250);
        let cache = SelectionCache::with_capacity(0);
        assert_eq!(cache.capacity(), STRIPES);
        for round in 0..3 {
            for k in 1..=(3 * STRIPES) {
                assert_eq!(cache.select_greedy(&snap, k).len(), k, "round {round}");
            }
        }
        assert!(cache.len() <= cache.capacity());
    }

    #[test]
    fn concurrent_queries_and_invalidation_stay_consistent() {
        // Readers query while another thread repeatedly invalidates and
        // clears: every answer must still equal the cold selection, and
        // nothing may panic (the eviction and probe paths share stripes).
        let snap = sealed_snapshot(150, 400);
        let cache = SelectionCache::with_capacity(4);
        let oracle: Vec<_> = (1..=8).map(|k| snap.select_greedy(k)).collect();
        std::thread::scope(|scope| {
            let (cache, snap, oracle) = (&cache, &snap, &oracle);
            for _ in 0..4 {
                scope.spawn(move || {
                    for round in 0..50 {
                        let k = 1 + (round % 8);
                        let got = cache.select_greedy(snap, k);
                        assert_eq!(got.members(), oracle[k - 1].members());
                    }
                });
            }
            scope.spawn(move || {
                for round in 0..100 {
                    if round % 2 == 0 {
                        cache.invalidate_before(snap.epoch() + 1);
                    } else {
                        cache.clear();
                    }
                }
            });
        });
        assert!(cache.len() <= cache.capacity());
    }

    #[test]
    fn warm_chain_matches_cold_selection_across_epochs() {
        let fleet = ShardedFleet::new(2, TwoTierWeights::default());
        let trace = churn_trace(&ChurnTraceConfig::new(400, 2_600));
        let cache = SelectionCache::default();
        // Epoch 1: populate the fleet (full build, no parent to chain on).
        fleet.ingest_batch(&trace[..2_000]);
        let snap = fleet.seal_epoch();
        let _ = cache.select_greedy(&snap, 16);
        // Steady state: small churn batches, so every differential epoch
        // stays under the warm-start fallback threshold.
        for batch in trace[2_000..].chunks(12) {
            fleet.ingest_batch(batch);
            let snap = fleet.seal_epoch();
            let cached = cache.select_greedy(&snap, 16);
            assert_eq!(
                cached.members(),
                snap.select_greedy(16).members(),
                "epoch {}",
                snap.epoch()
            );
        }
        let stats = cache.stats();
        assert!(
            stats.warm_starts > 0,
            "differential epochs should warm-chain: {stats:?}"
        );
    }
}
