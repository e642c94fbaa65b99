//! Snapshot publication: one slot, its epoch stamp, and per-reader handles.
//!
//! A sealed [`EpochSnapshot`] is immutable and shared through an `Arc`, so
//! publishing one is replacing a pointer. [`SnapshotCell`] holds that
//! pointer in **one slot**, an `RwLock<Arc<EpochSnapshot>>` whose guards
//! are held for exactly one `Arc` clone (a reader) or one `Arc` store (the
//! publisher) — never across snapshot *construction*, which happens
//! entirely outside this type. Beside the slot sits a **stamp**: one
//! `AtomicU64` holding the epoch of the published snapshot, stored with
//! `Release` after the slot is written and before its guard is dropped.
//!
//! **Why one slot suffices.** The stamp is not a second fact to keep in
//! step with the slot: it is the published snapshot's own
//! [`epoch()`](EpochSnapshot::epoch), copied out so that it can be polled
//! without touching the lock word. A read through the slot returns the
//! snapshot and reads the stamp *off that snapshot*, so the pair is
//! consistent by construction and there is nothing to revalidate or
//! retry. Publishers are serialised in strictly increasing epoch order
//! (the fleet's seal mutex), and the lock orders every clone against every
//! store, so the epochs any one reader observes through a cell are
//! **non-decreasing**. A reader that saw stamp `e` and then takes the slot
//! finds epoch `e` or newer there, because the slot was written before the
//! stamp was.
//!
//! What costs, when every monitoring read takes a lock, is the acquisition
//! itself: a write to one cache line that all readers and the publisher
//! share, and read throughput that falls as readers are added.
//! [`SnapshotHandle`] is what removes it: a per-reader cache of the last
//! `Arc<EpochSnapshot>` plus its stamp. Revalidation is a single `Relaxed`
//! stamp load compared against the cached value; while no epoch has been
//! sealed, the handle returns its cached snapshot without cloning an
//! `Arc`, taking a guard, or writing to *any* shared cache line — the
//! stamp line stays in the shared state of every reader's cache, so
//! steady-state monitoring queries (`entropy_bits`, `device_count`, report
//! derivation, committee selection) scale with cores instead of
//! serialising on the publication point. A `Relaxed` revalidation can lag
//! a publication by a moment, but a refresh goes through the slot, so the
//! handle inherits the cell's monotonicity.
//!
//! Every guard acquisition here recovers from poisoning
//! ([`PoisonError::into_inner`]): the guarded value is a plain `Arc`,
//! which a panicking holder can never leave torn — either the old or the
//! new snapshot pointer is in place, both of them validly published. A
//! panicking sealer therefore cannot brick the read path
//! (regression-tested in `fleet.rs`).
//!
//! The differential suite (`tests/publish_stress.rs`) holds the cell to a
//! locked oracle under concurrent seals at shard counts {1, 2, 4, 8}:
//! every snapshot any reader observes — by content hash and by
//! committee-selection parity — is one a sealer actually committed, and no
//! reader ever sees an epoch go backwards.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::snapshot::EpochSnapshot;

/// Shared-read guard acquisition that recovers from poisoning: the slot
/// holds a plain `Arc`, which cannot be observed torn, so a panicked
/// holder leaves a fully valid (old or new) snapshot pointer behind.
fn read_recover<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Exclusive-guard counterpart of [`read_recover`].
fn write_recover<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// The publication point: one `Arc<EpochSnapshot>` slot and the epoch
/// stamp of what it holds.
///
/// Readers ([`load`](Self::load), or a [`SnapshotHandle`] for the cached
/// fast path) never wait on snapshot construction and never observe the
/// published epoch moving backwards; publishers ([`publish`](Self::publish))
/// must already be serialised in strictly increasing epoch order, which is
/// exactly what the fleet's seal mutex, held from cut to publish, provides.
#[derive(Debug)]
pub struct SnapshotCell {
    /// Epoch of the published snapshot — `slot`'s own `epoch()`, stored
    /// after it, so handles can poll for a new one without the lock. Only
    /// (serialised) publishers store it.
    stamp: AtomicU64,
    /// The published snapshot. Guards are held for one `Arc` clone or one
    /// `Arc` store.
    slot: RwLock<Arc<EpochSnapshot>>,
}

impl SnapshotCell {
    /// Creates a cell serving `initial`; its epoch becomes the stamp.
    #[must_use]
    pub fn new(initial: Arc<EpochSnapshot>) -> Self {
        SnapshotCell {
            stamp: AtomicU64::new(initial.epoch()),
            slot: RwLock::new(initial),
        }
    }

    /// The epoch of the most recently published snapshot.
    #[must_use]
    pub fn stamp(&self) -> u64 {
        self.stamp.load(Ordering::Acquire)
    }

    /// Clones the currently published snapshot. Never blocks on a
    /// publisher's snapshot construction: the slot guard covers the `Arc`
    /// clone alone.
    #[must_use]
    pub fn load(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&read_recover(&self.slot))
    }

    /// [`load`](Self::load) plus the stamp the snapshot was published
    /// under — its own epoch — which is what a [`SnapshotHandle`] caches
    /// for relaxed revalidation.
    pub(crate) fn load_stamped(&self) -> (u64, Arc<EpochSnapshot>) {
        let snap = self.load();
        (snap.epoch(), snap)
    }

    /// Publishes `next`, making it what subsequent [`load`](Self::load)s
    /// return. Callers must be serialised in strictly increasing epoch
    /// order (the fleet's seal mutex); the never-moves-backwards guarantee
    /// is asserted, not assumed.
    ///
    /// # Panics
    ///
    /// Panics if `next.epoch()` does not exceed the current stamp.
    pub fn publish(&self, next: &Arc<EpochSnapshot>) {
        let epoch = next.epoch();
        // relaxed: publishers serialise externally, so the stamp is this
        // caller's chain predecessor; the load only feeds the sanity assert.
        let stamp = self.stamp.load(Ordering::Relaxed);
        assert!(
            epoch > stamp,
            "snapshot publication moved backwards: {stamp} then {epoch}"
        );
        // Slot first, stamp second: a reader that has seen the new stamp
        // finds at least this snapshot in the slot. And the stamp before
        // the guard drops: a reader that has cloned this snapshot out of
        // the slot acquired the lock after this release, so its next
        // (even relaxed) stamp load cannot return the old stamp — a thread
        // mixing `load` with a handle never sees the handle fall behind
        // what the slot already gave it.
        let mut slot = write_recover(&self.slot);
        *slot = Arc::clone(next);
        self.stamp.store(epoch, Ordering::Release);
    }
}

/// A per-reader handle over a [`SnapshotCell`]: the shared-nothing
/// monitoring fast path.
///
/// The handle caches the last snapshot `Arc` and the stamp it was
/// published under; [`get`](Self::get) revalidates with one `Relaxed`
/// stamp load and refreshes through the cell only when an epoch has
/// actually been sealed since. Steady-state reads therefore touch no
/// shared cache line in write mode — no lock word, no `Arc` refcount —
/// so N readers on N cores proceed entirely independently.
///
/// Each reader (thread) should own its own handle; the handle itself is a
/// small mutable cache and is deliberately not shared.
#[derive(Debug)]
pub struct SnapshotHandle<'a> {
    cell: &'a SnapshotCell,
    stamp: u64,
    cached: Arc<EpochSnapshot>,
}

impl<'a> SnapshotHandle<'a> {
    /// Creates a handle over `cell`, primed with its current snapshot.
    #[must_use]
    pub fn new(cell: &'a SnapshotCell) -> Self {
        let (stamp, cached) = cell.load_stamped();
        SnapshotHandle {
            cell,
            stamp,
            cached,
        }
    }

    /// The currently published snapshot, revalidated by a single `Relaxed`
    /// stamp load: if no seal has landed since the last call this is a
    /// pure cache hit (no `Arc` clone, no guard, no shared-line write).
    ///
    /// The relaxed check may lag a racing publication for a moment — the
    /// handle then serves the previous epoch's snapshot, exactly as any
    /// reader that cloned the `Arc` a moment before publication would —
    /// but the epochs one handle observes never decrease.
    pub fn get(&mut self) -> &Arc<EpochSnapshot> {
        // relaxed: a stale read only delays noticing a new publication
        // by one call; on mismatch load_stamped() goes through the slot
        // guard, which is where the ordering actually comes from.
        if self.cell.stamp.load(Ordering::Relaxed) != self.stamp {
            let (stamp, cached) = self.cell.load_stamped();
            self.stamp = stamp;
            self.cached = cached;
        }
        &self.cached
    }

    /// [`get`](Self::get), cloning the `Arc` out for callers that need to
    /// hold the snapshot across further handle use.
    pub fn snapshot(&mut self) -> Arc<EpochSnapshot> {
        Arc::clone(self.get())
    }

    /// The epoch of the cached snapshot, without revalidating.
    // lint: allow(unused-pub) test seam: lets the publish and monitor tests see that a handle revalidates only on demand
    #[must_use]
    pub fn cached_epoch(&self) -> u64 {
        self.cached.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_attest::TwoTierWeights;

    fn snap(epoch: u64) -> Arc<EpochSnapshot> {
        // Distinct epochs over identical (empty) content: exactly what the
        // publication layer must distinguish by stamp, not by content.
        Arc::new(
            EpochSnapshot::empty(TwoTierWeights::flat())
                .try_apply_delta(epoch, &Default::default())
                .expect("an empty delta chains on any snapshot"),
        )
    }

    #[test]
    fn load_serves_the_published_sequence() {
        let cell = SnapshotCell::new(snap(0));
        assert_eq!(cell.stamp(), 0);
        assert_eq!(cell.load().epoch(), 0);
        for epoch in 1..=5 {
            cell.publish(&snap(epoch));
            assert_eq!(cell.stamp(), epoch);
            assert_eq!(cell.load().epoch(), epoch);
        }
    }

    #[test]
    #[should_panic(expected = "moved backwards")]
    fn publish_rejects_non_advancing_epochs() {
        let cell = SnapshotCell::new(snap(0));
        cell.publish(&snap(3));
        cell.publish(&snap(3));
    }

    #[test]
    fn handle_revalidates_only_on_new_epochs() {
        let cell = SnapshotCell::new(snap(0));
        let mut handle = SnapshotHandle::new(&cell);
        assert_eq!(handle.get().epoch(), 0);
        // Steady state: the cached Arc is returned without refresh, so no
        // new strong count appears.
        let strong_before = Arc::strong_count(handle.get());
        assert_eq!(handle.get().epoch(), 0);
        assert_eq!(Arc::strong_count(handle.get()), strong_before);
        cell.publish(&snap(1));
        assert_eq!(handle.cached_epoch(), 0, "no revalidation before get()");
        assert_eq!(handle.get().epoch(), 1);
        assert_eq!(handle.snapshot().epoch(), 1);
    }

    #[test]
    fn poisoned_slot_guards_recover() {
        let cell = SnapshotCell::new(snap(0));
        cell.publish(&snap(1));
        // Poison the slot guard, as a publisher panicking mid-store would.
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let _guard = cell.slot.write().unwrap();
                panic!("poison the slot guard");
            });
            assert!(handle.join().is_err());
            assert!(cell.slot.read().is_err(), "guard must actually be poisoned");
        });
        // Reads and publication both recover: the Arc in a poisoned slot
        // is still a valid snapshot pointer.
        assert_eq!(cell.load().epoch(), 1);
        cell.publish(&snap(2));
        assert_eq!(cell.load().epoch(), 2);
        let mut handle = SnapshotHandle::new(&cell);
        assert_eq!(handle.get().epoch(), 2);
    }
}
