//! Wait-free snapshot publication: the epoch-stamped double buffer.
//!
//! Before this module, the fleet published snapshots through a single
//! `RwLock<Arc<EpochSnapshot>>`. Every monitoring read then paid an
//! acquisition on that one lock word — a shared cache line all readers and
//! the publisher fight over — and the committed `fleet.mixed_90_10`
//! baseline showed the resulting inversion: read throughput *fell* as
//! shards rose. Worse, a sealer that panicked while holding the lock
//! poisoned it, bricking every future read.
//!
//! [`SnapshotCell`] replaces that with a seqlock-style scheme built from
//! two pieces of state:
//!
//! * a **stamp**: one `AtomicU64` holding the epoch of the most recently
//!   published snapshot (publishers store it with `Release`, readers load
//!   it with `Acquire`);
//! * a **double buffer**: two slots, where the snapshot published at epoch
//!   `e` lives in slot `e & 1`.
//!
//! Publication (already serialised by the fleet's seal mutex, whose one
//! holder publishes epoch `e + 1` over epoch `e`) writes the new `Arc`
//! into the *other* slot — the one no current-stamp reader is looking at —
//! and then advances the stamp. A reader loads the stamp, clones the `Arc`
//! out of the corresponding slot, and **revalidates** the stamp after the
//! clone: if it moved, a publication raced the read and the reader retries
//! against the fresh stamp. The slot guards are held only for the duration
//! of one `Arc` clone or store, and consecutive epochs alternate slots, so
//! a reader's slot is never the slot a racing publisher is writing — in
//! steady state readers neither block nor retry, and they can never block
//! on snapshot *construction* (which happens entirely outside this type).
//! The stamp-equal-across-the-clone protocol is what makes the scheme
//! safe under laps: if a reader stalls long enough for two publications to
//! come back around to its slot, the revalidation fails and it retries,
//! so the returned snapshot is always exactly the one the observed stamp
//! names. Because a thread's loads of one atomic are coherence-ordered,
//! the epochs any single reader observes through a cell are
//! **non-decreasing** — the monotonicity contract the old lock provided,
//! now without the lock.
//!
//! [`SnapshotHandle`] layers the shared-nothing fast path on top: a
//! per-reader cache of the last `Arc<EpochSnapshot>` plus the stamp it was
//! published under. Revalidation is a single `Relaxed` stamp load compared
//! against the cached value; while no epoch has been sealed, the handle
//! returns its cached snapshot without cloning an `Arc`, taking a guard,
//! or writing to *any* shared cache line — the stamp line stays in the
//! shared state of every reader's cache, so steady-state monitoring
//! queries (`entropy_bits`, `device_count`, report derivation, committee
//! selection) scale with cores instead of serialising on the publication
//! point. A `Relaxed` revalidation can lag a publication by a moment, but
//! never reads an older stamp than this thread has already seen, so the
//! handle inherits the cell's monotonicity.
//!
//! Every guard acquisition here recovers from poisoning
//! ([`PoisonError::into_inner`]): the guarded value is a plain `Arc`,
//! which a panicking holder can never leave torn — either the old or the
//! new snapshot pointer is in place, both of them validly published. A
//! panicking sealer therefore can no longer brick the read path
//! (regression-tested in `fleet.rs`).
//!
//! The differential suite (`tests/publish_stress.rs`) proves the scheme
//! byte-identical to the locked oracle under concurrent seals at shard
//! counts {1, 2, 4, 8}: every snapshot any reader observes — by content
//! hash and by committee-selection parity — is one a sealer actually
//! committed, and no reader ever sees an epoch go backwards.

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

/// The wait-free publication point: an epoch-stamped double buffer of
/// `Arc<EpochSnapshot>` slots.
///
/// Readers ([`load`](Self::load), or a [`SnapshotHandle`] for the cached
/// fast path) never wait on snapshot construction and never observe the
/// published epoch moving backwards; publishers ([`publish`](Self::publish))
/// must already be serialised in strictly increasing epoch order, which is
/// exactly what the fleet's seal mutex, held from cut to publish, provides.
#[derive(Debug)]
pub struct SnapshotCell {
    /// Epoch of the most recently published snapshot. Only (serialised)
    /// publishers store it; readers revalidate against it.
    stamp: AtomicU64,
    /// The double buffer: epoch `e`'s snapshot lives in slot `e & 1`, so
    /// consecutive publications alternate slots and never write the slot
    /// current-stamp readers are cloning from.
    slots: [RwLock<Arc<EpochSnapshot>>; 2],
}

impl SnapshotCell {
    /// Creates a cell serving `initial`; its epoch becomes the stamp (both
    /// slots start on `initial`, so even a torn-off stale stamp read
    /// resolves to a valid snapshot).
    #[must_use]
    pub fn new(initial: Arc<EpochSnapshot>) -> Self {
        SnapshotCell {
            stamp: AtomicU64::new(initial.epoch()),
            slots: [RwLock::new(Arc::clone(&initial)), RwLock::new(initial)],
        }
    }

    /// The epoch of the most recently published snapshot.
    #[must_use]
    pub fn stamp(&self) -> u64 {
        self.stamp.load(Ordering::Acquire)
    }

    /// Clones the currently published snapshot — the seqlock-style read:
    /// load the stamp, clone the stamped slot, revalidate. Never blocks on
    /// a publisher's snapshot construction; retries only when a
    /// publication raced the clone.
    #[must_use]
    pub fn load(&self) -> Arc<EpochSnapshot> {
        self.load_stamped().1
    }

    /// [`load`](Self::load) plus the validated stamp it was published
    /// under — what a [`SnapshotHandle`] caches for relaxed revalidation.
    pub(crate) fn load_stamped(&self) -> (u64, Arc<EpochSnapshot>) {
        loop {
            let stamp = self.stamp.load(Ordering::Acquire);
            // lint: allow(panic) `& 1` indexes the two-slot double buffer;
            // the result is always 0 or 1.
            let snap = Arc::clone(&read_recover(&self.slots[(stamp & 1) as usize]));
            // Stamp unchanged across the clone ⇒ the clone is exactly the
            // snapshot published as `stamp`: the next write to that slot
            // (epoch `stamp + 2`) is preceded by the `stamp + 1` store,
            // which this re-load would have observed through the slot
            // guard had the write overtaken us. A moved stamp means a
            // publication raced us — the clone is still *some* validly
            // published snapshot, but possibly newer than `stamp`, and
            // returning it against the stale stamp could violate reader
            // monotonicity; retry against the fresh stamp instead.
            if self.stamp.load(Ordering::Acquire) == stamp {
                return (stamp, snap);
            }
        }
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
        // lint: allow(panic) `& 1` indexes the two-slot double buffer;
        // the result is always 0 or 1.
        *write_recover(&self.slots[(epoch & 1) as usize]) = Arc::clone(next);
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
        // by one call; on mismatch load_stamped() re-reads with Acquire,
        // which is where the ordering actually comes from.
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
        // Poison both slot guards: a reader panicking mid-clone (slot
        // `1 & 1`) and a publisher panicking mid-store (slot `2 & 1`).
        std::thread::scope(|scope| {
            for slot in &cell.slots {
                let handle = scope.spawn(move || {
                    let _guard = slot.write().unwrap();
                    panic!("poison the slot guard");
                });
                assert!(handle.join().is_err());
                assert!(slot.read().is_err(), "guard must actually be poisoned");
            }
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
