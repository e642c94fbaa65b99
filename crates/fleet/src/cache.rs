//! Memoized committee selections: a repeated quorum query is one probe.
//!
//! A greedy selection is a **pure function of fleet content**: the member
//! sequence depends only on the snapshot's
//! [`content_hash`](EpochSnapshot::content_hash) (which pins the candidate
//! roster byte-for-byte) and the committee size `k`, so the
//! [`SelectionCache`] memoizes the result under that key: a hit is one
//! mutex hold returning a shared `Arc<Committee>`, no selection arithmetic
//! at all. It is sized for the traffic measured — one query per sealed
//! epoch per `k` from the thread that drives the fleet, hit share 0–0.13
//! and no eviction on fibench's four workloads — so there is one mutex over
//! one `Vec`, probed newest-first: a repeated query asks for the entry
//! inserted last and finds it on the first compare.
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
//! The cache is bounded: it holds at most `CAPACITY` (1024) entries and
//! evicts its lowest-epoch entry when full, so advancing epochs naturally
//! invalidate stale content. Keys are content hashes, so a "stale" entry
//! is never *wrong* — two epochs with identical fleet content legitimately
//! share an entry — it is merely unreachable once no live snapshot hashes
//! to it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use fi_committee::Committee;
use fi_types::Digest;

use crate::snapshot::EpochSnapshot;

/// Monotonic counters describing how the cache has served its queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from a memoized entry.
    pub hits: u64,
    /// Queries that had to select (warm or cold).
    pub misses: u64,
    /// Misses served by warm-start repair from the parent epoch's entry.
    pub warm_starts: u64,
    /// Misses selected cold: no parent entry was resident, or the churn
    /// since the parent exceeded the warm start's threshold.
    pub cold_selections: u64,
    /// Entries displaced by the capacity bound.
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

/// A bounded, epoch-evicting memo of committee selections behind one mutex.
///
/// # Example
///
/// ```
/// use fi_attest::TwoTierWeights;
/// use fi_fleet::{churn_trace, ChurnTraceConfig, EpochSnapshot, SelectionCache, ShardedFleet};
///
/// let fleet = ShardedFleet::new(2, TwoTierWeights::default());
/// fleet.try_ingest_batch(&churn_trace(&ChurnTraceConfig::new(300, 600))).unwrap();
/// let snapshot = fleet.try_seal_epoch().unwrap();
///
/// let cache = SelectionCache::default();
/// let first = cache.select_greedy(&snapshot, 16);
/// let again = cache.select_greedy(&snapshot, 16);
/// assert_eq!(first.members(), snapshot.select_greedy(16).members());
/// assert!(std::sync::Arc::ptr_eq(&first, &again), "second query is a hit");
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Default)]
pub struct SelectionCache {
    /// In insertion order: the newest entry is last and probed first.
    entries: Mutex<Vec<CacheEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    warm_starts: AtomicU64,
    cold_selections: AtomicU64,
    evictions: AtomicU64,
}

/// Most entries held at once. Committees are a few KiB each, so memoizing
/// a thousand `(content, k)` pairs is cheap and far exceeds the live set of
/// any measured serving window (`fleet.cache.evictions` is 0 on every
/// fibench workload).
const CAPACITY: usize = 1024;

impl SelectionCache {
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

    /// The bytes the cache holds on the heap: its entry table by capacity,
    /// and each memoized committee — the `Arc`'s allocation, then its
    /// members and its power per configuration by length. A committee a
    /// caller still holds counts here while the cache holds it too.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        let entries = lock_recover(&self.entries);
        let committees: usize = entries
            .iter()
            .map(|e| {
                2 * size_of::<usize>()
                    + size_of::<Committee>()
                    + size_of_val(e.committee.members())
                    + size_of_val(e.committee.power_by_config())
            })
            .sum();
        entries.capacity() * size_of::<CacheEntry>() + committees
    }

    /// The greedy committee for `(snapshot content, k)` — memoized.
    ///
    /// Hit: one mutex probe, an `Arc` clone. Miss: warm-start repair from
    /// the parent epoch's cached committee when the snapshot is a
    /// differential child and the parent entry is resident, else a cold
    /// pruned selection; the result is inserted (evicting the lowest-epoch
    /// entry if the cache is full) and returned. Every path yields the
    /// byte-identical member sequence of [`EpochSnapshot::select_greedy`].
    #[must_use]
    pub fn select_greedy(&self, snapshot: &EpochSnapshot, k: usize) -> Arc<Committee> {
        let hash = snapshot.content_hash();
        if let Some(found) = self.lookup(hash, k, Some(snapshot.epoch())) {
            // relaxed: monotonic stat counter, read only by monitoring.
            self.hits.fetch_add(1, Ordering::Relaxed);
            return found;
        }
        // relaxed: monotonic stat counter, read only by monitoring.
        self.misses.fetch_add(1, Ordering::Relaxed);

        // Warm chain: the parent epoch's committee for the same key, if
        // still resident, seeds an O(k · churn) repair. Seeding is not
        // serving: the parent's eviction tag stays where it is.
        let parent = snapshot
            .parent_hash()
            .and_then(|ph| self.lookup(ph, k, None));
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

    /// The memoized committee for `(hash, k)`. `served_at` is the epoch of
    /// the snapshot the answer is served for, which refreshes the entry's
    /// eviction tag; `None` reads the entry without serving it.
    fn lookup(&self, hash: Digest, k: usize, served_at: Option<u64>) -> Option<Arc<Committee>> {
        let mut entries = lock_recover(&self.entries);
        let entry = probe(&mut entries, hash, k)?;
        if let Some(epoch) = served_at {
            entry.epoch = entry.epoch.max(epoch);
        }
        Some(Arc::clone(&entry.committee))
    }

    fn insert(&self, hash: Digest, k: usize, epoch: u64, committee: Arc<Committee>) {
        let mut entries = lock_recover(&self.entries);
        // A racing miss may have inserted the same key; keep one entry.
        if let Some(entry) = probe(&mut entries, hash, k) {
            entry.epoch = entry.epoch.max(epoch);
            return;
        }
        if entries.len() >= CAPACITY {
            let oldest = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.epoch)
                .map(|(i, _)| i);
            if let Some(oldest) = oldest {
                // `remove`, not `swap_remove`: the newest entry stays last.
                entries.remove(oldest);
                // relaxed: monotonic stat counter, read only by monitoring.
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        entries.push(CacheEntry {
            hash,
            k,
            epoch,
            committee,
        });
    }
}

/// Probes for `(hash, k)`, newest entry first. A caller that serves the
/// entry raises its epoch tag to the epoch it served, so content that is
/// still being served outlives the eviction sweep.
fn probe(entries: &mut [CacheEntry], hash: Digest, k: usize) -> Option<&mut CacheEntry> {
    entries
        .iter_mut()
        .rev()
        .find(|e| e.hash == hash && e.k == k)
}

impl std::fmt::Debug for SelectionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelectionCache")
            .field("len", &lock_recover(&self.entries).len())
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
    use fi_committee::Candidate;

    fn sealed_snapshot(devices: u64, ops: usize) -> Arc<EpochSnapshot> {
        let fleet = ShardedFleet::new(2, TwoTierWeights::default());
        fleet
            .try_ingest_batch(&churn_trace(&ChurnTraceConfig::new(devices, ops)))
            .unwrap();
        fleet.try_seal_epoch().unwrap()
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
    fn heap_bytes_counts_each_memoized_committee_once() {
        let snap = sealed_snapshot(200, 500);
        let cache = SelectionCache::default();
        assert_eq!(cache.heap_bytes(), 0);
        let _ = cache.select_greedy(&snap, 12);
        let one = cache.heap_bytes();
        assert!(one >= 12 * std::mem::size_of::<Candidate>());
        let _ = cache.select_greedy(&snap, 12);
        assert_eq!(cache.heap_bytes(), one, "a hit allocates nothing");
        let _ = cache.select_greedy(&snap, 20);
        assert!(cache.heap_bytes() >= one + 20 * std::mem::size_of::<Candidate>());
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
        assert_eq!(lock_recover(&cache.entries).len(), 2);
        // Greedy selection is prefix-stable: same leading members.
        assert_eq!(&large.members()[..4], small.members());
    }

    #[test]
    fn capacity_bound_evicts_lowest_epoch() {
        // Two tiny epochs of one fleet; every k past the roster size is a
        // distinct key over the same short selection.
        let fleet = ShardedFleet::new(1, TwoTierWeights::default());
        let trace = churn_trace(&ChurnTraceConfig::new(12, 40));
        fleet.try_ingest_batch(&trace[..30]).unwrap();
        let old = fleet.try_seal_epoch().unwrap();
        fleet.try_ingest_batch(&trace[30..]).unwrap();
        let new = fleet.try_seal_epoch().unwrap();
        assert_ne!(old.content_hash(), new.content_hash());

        let cache = SelectionCache::default();
        for k in 2..=CAPACITY {
            let _ = cache.select_greedy(&new, k);
        }
        // The fill's last insert is the old epoch's entry: newest in the
        // `Vec`, lowest by epoch.
        let _ = cache.select_greedy(&old, 1);
        assert_eq!(lock_recover(&cache.entries).len(), CAPACITY);
        assert_eq!(cache.stats().evictions, 0);

        // One key more evicts the lowest epoch — the newest insert — and
        // leaves the oldest insert resident.
        let _ = cache.select_greedy(&new, CAPACITY + 1);
        let before = cache.stats();
        assert_eq!(before.evictions, 1);
        let _ = cache.select_greedy(&new, 2);
        assert_eq!(cache.stats().hits, before.hits + 1);
        // The evicted key still answers correctly (it just re-selects).
        assert_eq!(
            cache.select_greedy(&old, 1).members(),
            old.select_greedy(1).members()
        );
        assert_eq!(cache.stats().misses, before.misses + 1);
        assert_eq!(lock_recover(&cache.entries).len(), CAPACITY);
    }

    #[test]
    fn a_warm_chain_probe_does_not_refresh_the_parents_eviction_tag() {
        // Two tiny epochs, the second a differential child of the first.
        let fleet = ShardedFleet::new(1, TwoTierWeights::default());
        let trace = churn_trace(&ChurnTraceConfig::new(12, 40));
        fleet.try_ingest_batch(&trace[..30]).unwrap();
        let old = fleet.try_seal_epoch().unwrap();
        fleet.try_ingest_batch(&trace[30..]).unwrap();
        let new = fleet.try_seal_epoch().unwrap();
        assert_eq!(new.parent_hash(), Some(old.content_hash()));

        // Fill to one short of capacity with the old epoch's content, the
        // key that will be chained first — so among equals it is the
        // sweep's pick. (A `k` this large keeps the child's churn under the
        // warm-start threshold.)
        let chained = CAPACITY;
        let cache = SelectionCache::default();
        let _ = cache.select_greedy(&old, chained);
        for k in 1..CAPACITY - 1 {
            let _ = cache.select_greedy(&old, k);
        }
        // The warm chain across the epoch: a miss on the child that reads
        // the parent's entry as its seed. The parent is not served by it.
        let _ = cache.select_greedy(&new, chained);
        assert_eq!(cache.stats().warm_starts, 1);
        assert_eq!(lock_recover(&cache.entries).len(), CAPACITY);
        assert_eq!(cache.stats().evictions, 0);

        // One insert more sweeps the lowest tag: the chained parent, not
        // an unrelated entry of its own age.
        let _ = cache.select_greedy(&new, CAPACITY + 1);
        let before = cache.stats();
        assert_eq!(before.evictions, 1);
        let _ = cache.select_greedy(&old, 1);
        assert_eq!(
            cache.stats().hits,
            before.hits + 1,
            "an unrelated entry went"
        );
        let _ = cache.select_greedy(&old, chained);
        assert_eq!(cache.stats().misses, before.misses + 1, "the parent stayed");
    }

    #[test]
    fn concurrent_readers_match_the_cold_oracle_and_keep_one_entry_per_key() {
        // Four readers share eight keys: racing misses on one key keep one
        // entry, and every answer equals the cold selection.
        let snap = sealed_snapshot(150, 400);
        let cache = SelectionCache::default();
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
        });
        assert_eq!(lock_recover(&cache.entries).len(), 8);
    }

    #[test]
    fn warm_chain_matches_cold_selection_across_epochs() {
        let fleet = ShardedFleet::new(2, TwoTierWeights::default());
        let trace = churn_trace(&ChurnTraceConfig::new(400, 2_600));
        let cache = SelectionCache::default();
        // Epoch 1: populate the fleet (full build, no parent to chain on).
        fleet.try_ingest_batch(&trace[..2_000]).unwrap();
        let snap = fleet.try_seal_epoch().unwrap();
        let _ = cache.select_greedy(&snap, 16);
        // Steady state: small churn batches, so every differential epoch
        // stays under the warm-start fallback threshold.
        for batch in trace[2_000..].chunks(12) {
            fleet.try_ingest_batch(batch).unwrap();
            let snap = fleet.try_seal_epoch().unwrap();
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
