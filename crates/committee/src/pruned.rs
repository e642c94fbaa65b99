//! Bucket-pruned greedy selection: the one greedy engine.
//!
//! The reference fold, [`greedy_diverse_naive`], evaluates every remaining
//! candidate in every round — at least O(n·k) evaluations, far too many at
//! fleet scale (n ≈ 10⁵, k ≈ 64). But the marginal gain of adding a
//! candidate depends only on its *(configuration bucket, power)*, and
//! within one bucket the gain is **strictly unimodal in power**: writing `W` for the committee's total power, `S` for its
//! `Σ w·log2 w` term, and `b` for the bucket's current committee power, the
//! entropy after adding `p` to that bucket is
//!
//! ```text
//! f(p) = log2(W + p) − (S′ + (b + p)·log2(b + p)) / (W + p),
//! S′ = S − b·log2 b
//! ```
//!
//! whose derivative has the sign of `S′ − (W − b)·log2(b + p)` — strictly
//! decreasing in `p` whenever `W > b`, so `f` rises to a single analytic
//! peak at `b + p* = 2^{S′ / (W − b)}` and falls thereafter. A
//! [`PrunedRoster`] therefore keeps each bucket's candidates sorted by
//! power, and each selection round searches every bucket for the two
//! entries bracketing `p*` — galloping from where the previous round's
//! bracket landed, since adding one member moves the peak little — then
//! expands outward only while the *exactly
//! evaluated* gain stays within a guard band of the bucket's best. The peak
//! position is only a **locator** — every candidate that survives the band
//! is evaluated exactly, with [`EntropyAccumulator::peek_add`], and folded
//! with the naive fold's tie predicate, so the selected member sequence is
//! the naive fold's; the band (`1e-9`, three orders of magnitude wider than
//! the fold's `1e-12` tie window) guarantees every potential tie contender
//! is evaluated. Cost per round is O(C·log L) for C buckets of ≤ L
//! candidates. [`greedy_diverse`](crate::greedy_diverse) is this walk over
//! a caller's candidates, their configurations mapped to dense slots.
//!
//! [`greedy_diverse_naive`]: crate::greedy::greedy_diverse_naive
//!
//! **One evaluation per distinct power.** The gain is a function of
//! *(bucket, power)* alone, so a run of equal-power entries in one list —
//! a fleet with quantised stake has many, a chain whose validators all
//! stake the same amount has nothing else — shares one bit-identical
//! `peek_add`. The outward walk therefore steps **run by run**: it gallops
//! to the run's other end, takes the run's most-preferred unselected entry
//! (the last of the run — lists sort by `(power, Reverse(replica))`) and
//! evaluates that one entry. This is exact, not a heuristic: the band test
//! and the band ceiling see the same value whichever member is evaluated,
//! and under the fold predicate a run can only hand the round to its
//! most-preferred unselected member — the tie-break is a strict total
//! order, so if any member would take the round from the held candidate
//! that member does too, and no other member of the run then beats it.
//! Selection cost follows the number of distinct powers inside the band,
//! not the number of replicas that share them.
//!
//! **Two lists a slot; a row's tier is its list's.** The gain depends on
//! *(bucket, power)*, but the candidate a round returns carries its tier
//! too. Each configuration slot therefore keeps its attested and its
//! unattested candidates as two sorted lists, and an entry is power and
//! replica id alone — 16 bytes, where carrying the tier flag would pad it
//! to 24. Both lists of a slot feed the slot's one accumulator bucket, and
//! each is band-walked on its own: a list's band ceiling never exceeds the
//! round's best gain, so what it prunes could not have tied the winner.
//! An epoch snapshot files every attested device under its measurement
//! bucket and every unattested one under the trailing pseudo-slot, so one
//! list of every slot stays empty there; a caller's roster may mix tiers
//! inside a configuration.
//!
//! The degenerate bucket `W == b` (the committee is empty, or holds power
//! only in this bucket) has `f ≡ +0.0` exactly for *every* candidate — the
//! accumulator pins single-support entropy to `+0.0` — so the fold reduces
//! to the max-preferred unselected entry: the tail of the power-sorted
//! list.
//!
//! **Zero-power rows are held but never selected.** The greedy fold skips
//! them, and they are each list's prefix, so every band walk steps past it
//! first — one compare when there is none.
//!
//! For an epoch snapshot the roster is also the device roster itself: the
//! snapshot keeps no second per-device table and carries this one forward
//! through churn.
//! [`PrunedRoster::patch_dense`] writes the next epoch's roster from this
//! one in a single pass — departures, arrivals and bucket births and
//! deaths merged list by list, untouched runs copied as slices; a row that
//! changes tier leaves one list of its slot for the other — and
//! refuses, with a [`PatchError`] and without touching `self`, rows that
//! do not describe a change to this roster.
//!
//! **One table, two orderings.** A roster is one entry table, list by
//! list, with an offset where each list starts (list position =
//! configuration value and tier). That one type holds the fleet's roster,
//! a patch's two staged sides, and the caller picks its way in by input
//! size: [`PrunedRoster::from_dense`] sorts each list in place by
//! comparison, faster at fleet size; the radix constructor, which a patch
//! stages its churn with, orders the rows with
//! [`crate::radix::sort_by_key`] first, faster at a seal's thousands. A
//! patched roster equals a rebuilt one, capacities included.

use std::borrow::Borrow;
use std::fmt;

use fi_entropy::EntropyAccumulator;
use fi_types::{ReplicaId, VotingPower};

use crate::candidate::{single_config_fault, Candidate, Committee};
use crate::greedy::preferred;
use crate::radix;

/// The fold's tie window — identical to the literal of the reference fold,
/// [`greedy_diverse_naive`], so the band walk resolves entropy ties with
/// byte-identical semantics.
///
/// [`greedy_diverse_naive`]: crate::greedy::greedy_diverse_naive
pub(crate) const TIE_EPS: f64 = 1e-12;

/// The pruning guard band: entries whose exactly-evaluated gain falls this
/// far below their bucket's best are provably irrelevant to the fold (the
/// band is 10³× the tie window), so the outward walk stops there.
const BAND: f64 = 1e-9;

/// `w · log2 w` with the `0 · log 0 := 0` convention — local copy for the
/// peak *locator* only; every decision uses the accumulator's exact peeks.
#[inline]
fn xlog2(w: u64) -> f64 {
    if w == 0 {
        0.0
    } else {
        let x = w as f64;
        x * x.log2()
    }
}

/// One candidate as stored in a list: 16 bytes. Configuration and tier are
/// implied by the owning list, so bucket-slot splices never rewrite entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PrunedEntry {
    power: u64,
    replica: ReplicaId,
}

impl PrunedEntry {
    fn of(c: &Candidate) -> Self {
        PrunedEntry {
            power: c.power().as_units(),
            replica: c.replica(),
        }
    }

    /// The candidate this entry stands for in list `list` (see
    /// [`list_of`]).
    fn candidate(&self, list: usize) -> Candidate {
        Candidate::new(
            self.replica,
            VotingPower::new(self.power),
            list / 2,
            list.is_multiple_of(2),
        )
    }
}

/// The list a candidate is filed under: list `2·s` holds configuration
/// slot `s`'s attested rows, list `2·s + 1` its unattested ones. A
/// configuration index is below 2^(`usize::BITS` − 1), so this does not
/// overflow.
#[inline]
fn list_of(c: &Candidate) -> usize {
    2 * c.config() + usize::from(!c.attested())
}

/// Ascending sort key: power, then *descending* replica id — so the list
/// tail is always the max-preferred entry (highest power, lowest replica),
/// mirroring [`preferred`]. Packed into one integer, power in the high
/// half and the complemented id in the low, so a compare is branch-free
/// however many entries tie on power.
#[inline]
fn entry_key(e: &PrunedEntry) -> u128 {
    (u128::from(e.power) << 64) | u128::from(!e.replica.as_u64())
}

/// How many leading indices [`gallop`] tests one by one before it starts
/// doubling.
const LINEAR_PREFIX: usize = 8;

/// The partition point of `pred` over the indices `0..len` — `pred` holds
/// on a prefix of them; the result is the first index where it does not,
/// `len` if there is none — for a boundary expected near the front: the
/// first `LINEAR_PREFIX` (8) indices are tested in order, then a probe
/// doubles outward until it brackets the boundary and a binary search
/// finishes inside the bracket — O(log boundary) rather than O(log len).
/// It works on indices so that one routine serves a walk in either
/// direction: the list merges use it to find where an untouched run ends
/// (at a few percent churn most runs are shorter than the prefix and cost
/// one predictable compare a row), the band walks to find where a run of
/// equal power ends.
fn gallop(len: usize, mut pred: impl FnMut(usize) -> bool) -> usize {
    if let Some(at) = (0..len.min(LINEAR_PREFIX)).find(|&i| !pred(i)) {
        return at;
    }
    let mut hi = 2 * LINEAR_PREFIX;
    while hi <= len && pred(hi - 1) {
        hi *= 2;
    }
    let (mut lo, mut hi) = ((hi / 2).min(len), hi.min(len));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The partition point of `pred` over the indices `0..len`, as [`gallop`]
/// defines it, for a boundary expected near `from`: gallops forward from
/// `from` if `pred` still holds there, backward from it otherwise — O(log
/// distance) rather than O(log len).
fn gallop_from(len: usize, from: usize, pred: impl Fn(usize) -> bool) -> usize {
    let from = from.min(len);
    if from < len && pred(from) {
        from + 1 + gallop(len - from - 1, |i| pred(from + 1 + i))
    } else {
        from - gallop(from, |i| !pred(from - 1 - i))
    }
}

/// Why [`PrunedRoster::patch_dense`] refused an edit: the rows handed to it
/// do not describe a change to the roster they were handed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatchError {
    /// This replica's departing row matches no entry of its slot's list.
    UnknownDeparture(ReplicaId),
    /// The slot at this (old) position is to be removed but still holds
    /// entries once its departures are applied.
    SlotNotEmpty(usize),
    /// A slot position or a row's configuration lies outside the roster, or
    /// the slot positions are not ascending.
    OutOfRange,
}

impl fmt::Display for PatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatchError::UnknownDeparture(replica) => {
                write!(f, "departing row of replica {replica} matches no entry")
            }
            PatchError::SlotNotEmpty(slot) => {
                write!(f, "removing config slot {slot} that still has entries")
            }
            PatchError::OutOfRange => {
                write!(f, "a slot position or a row's config is out of range")
            }
        }
    }
}

impl std::error::Error for PatchError {}

/// The radix's two buffers of staged rows, each a row's list and its entry:
/// what [`PrunedRoster::from_churn`] orders in, shared by the two sides of
/// a patch.
type RadixBuffers = (Vec<(usize, PrunedEntry)>, Vec<(usize, PrunedEntry)>);

/// One list of [`PrunedRoster::patch_dense`]: `old − leaving + landing`,
/// all three sorted by [`entry_key`], appended to `out`. Each churned row
/// gallops to its position and the untouched run in front of it is copied
/// as a slice, so an untouched list costs one `memcpy`. A departure whose
/// key equals an arrival's is applied first (a replica that leaves and
/// re-enters with the same key is replaced); an arrival lands after an
/// equal-keyed surviving entry; a departure that matches no entry is the
/// `Err`, by its replica.
fn merge_list(
    out: &mut Vec<PrunedEntry>,
    mut old: &[PrunedEntry],
    mut leaving: &[PrunedEntry],
    mut landing: &[PrunedEntry],
) -> Result<(), ReplicaId> {
    loop {
        let departs = match (leaving.first(), landing.first()) {
            (None, None) => break,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(gone), Some(e)) => entry_key(gone) <= entry_key(e),
        };
        if departs {
            let key = entry_key(&leaving[0]);
            let run = gallop(old.len(), |i| entry_key(&old[i]) < key);
            out.extend_from_slice(&old[..run]);
            old = &old[run..];
            if old.first().is_none_or(|e| entry_key(e) != key) {
                return Err(leaving[0].replica);
            }
            old = &old[1..];
            leaving = &leaving[1..];
        } else {
            let e = landing[0];
            landing = &landing[1..];
            let run = gallop(old.len(), |i| entry_key(&old[i]) <= entry_key(&e));
            out.extend_from_slice(&old[..run]);
            old = &old[run..];
            out.push(e);
        }
    }
    out.extend_from_slice(old);
    Ok(())
}

/// A candidate roster indexed for pruned greedy selection: two candidate
/// lists per configuration slot, its attested rows and its unattested ones,
/// each sorted ascending by (power, descending replica id). Configuration
/// values are *dense* slot positions `0..num_configs` (the epoch-snapshot
/// layout), so a list's position says both its configuration and its
/// tier: list `2·s` holds slot `s`'s attested rows, list `2·s + 1` its
/// unattested ones. The lists are one table: every entry, list by list,
/// and an offset where each list starts.
///
/// Zero-power candidates are held and never selected (module docs); a
/// slot whose candidates all left keeps its (empty) lists until
/// [`patch_dense`](Self::patch_dense) renumbers the slots.
///
/// # Example
///
/// ```
/// use fi_committee::greedy::greedy_diverse_naive;
/// use fi_committee::{Candidate, PrunedRoster};
/// use fi_types::{ReplicaId, VotingPower};
///
/// let candidates: Vec<Candidate> = (0..40u64)
///     .map(|i| Candidate::new(
///         ReplicaId::new(i),
///         VotingPower::new(1 + (i * 13) % 97),
///         (i % 5) as usize,
///         true,
///     ))
///     .collect();
/// let roster = PrunedRoster::from_dense(5, &candidates);
/// // The reference fold's member sequence, at subquadratic cost.
/// assert_eq!(
///     roster.select(8).members(),
///     greedy_diverse_naive(&candidates, 8).members()
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PrunedRoster {
    /// Every entry, list by list, each list sorted by [`entry_key`].
    entries: Vec<PrunedEntry>,
    /// `starts[l]..starts[l + 1]` is list `l`'s range of `entries`: one
    /// offset per list and a last one, `entries.len()`.
    starts: Vec<usize>,
}

impl PrunedRoster {
    /// Indexes `candidates` whose configuration values are slot positions
    /// `0..slots` (the epoch-snapshot layout: one slot per sorted
    /// measurement bucket plus the trailing unattested pseudo-slot); slots
    /// without candidates keep empty lists. The rows are filed list by list
    /// into a table allocated at its exact size, and each list is then
    /// sorted in place by a comparison sort. O(n log n). This measures
    /// faster than ordering the rows by [`crate::radix`] first at fleet
    /// size, so a full build comes this way.
    ///
    /// `candidates` is walked twice, by a clone of its iterator: once to
    /// count each list, once to file. It may be a slice, or a lazy map over
    /// a caller's own rows, and then the index is the only table the build
    /// writes.
    ///
    /// Replica ids need not be distinct, but a selection seats each at most
    /// once: a band walk skips any entry whose replica is already selected.
    ///
    /// # Panics
    ///
    /// Panics if any candidate's configuration is ≥ `slots`.
    #[must_use]
    pub fn from_dense<I>(slots: usize, candidates: I) -> Self
    where
        I: IntoIterator<Item: Borrow<Candidate>, IntoIter: Clone>,
    {
        let mut roster = Self::file_by_list(
            slots,
            candidates.into_iter().map(|c| {
                let c = c.borrow();
                (list_of(c), PrunedEntry::of(c))
            }),
        );
        for l in 0..2 * slots {
            let (start, end) = (roster.starts[l], roster.starts[l + 1]);
            roster.entries[start..end].sort_unstable_by_key(entry_key);
        }
        roster
    }

    /// Indexes `rows` into the table [`from_dense`](Self::from_dense)
    /// builds, ordered by one stable radix sort on the key bits that vary
    /// among them ([`radix::sort_by_key`], `staged` and `scratch` its two
    /// buffers) and then filed by list, which keeps that order inside each
    /// list: O(R · D) for R rows and D digits of up to 11 bits, faster than
    /// `from_dense` at a seal's churn size (see [`crate::radix`]). A patch
    /// stages its rows this way.
    ///
    /// # Panics
    ///
    /// Panics if any row's configuration is ≥ `slots`.
    fn from_churn(slots: usize, rows: &[Candidate], (staged, scratch): &mut RadixBuffers) -> Self {
        staged.clear();
        staged.extend(rows.iter().map(|c| (list_of(c), PrunedEntry::of(c))));
        radix::sort_by_key(staged, scratch, |(_, e)| entry_key(e));
        Self::file_by_list(slots, staged.iter().copied())
    }

    /// Files `rows`, each a list and its entry, into one table of `2 ·
    /// slots` lists, each list's entries in the order `rows` yields them:
    /// one counting pass for the offsets, one scatter.
    fn file_by_list(
        slots: usize,
        rows: impl Iterator<Item = (usize, PrunedEntry)> + Clone,
    ) -> Self {
        let lists = 2 * slots;
        let mut starts = vec![0; lists + 1];
        for (l, _) in rows.clone() {
            starts[l + 1] += 1;
        }
        for l in 0..lists {
            starts[l + 1] += starts[l];
        }
        let mut entries = vec![PrunedEntry::default(); starts[lists]];
        let mut next = starts.clone();
        for (l, e) in rows {
            entries[next[l]] = e;
            next[l] += 1;
        }
        PrunedRoster { entries, starts }
    }

    /// List `l`'s entries.
    fn list(&self, l: usize) -> &[PrunedEntry] {
        &self.entries[self.starts[l]..self.starts[l + 1]]
    }

    /// Number of indexed candidates, zero-power ones included.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no candidate is indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of configuration slots (empty ones included).
    #[must_use]
    fn num_configs(&self) -> usize {
        self.starts.len() / 2
    }

    /// Number of indexed candidates in configuration slot `slot`, both
    /// tiers; zero for a slot the roster does not have.
    #[must_use]
    pub fn slot_len(&self, slot: usize) -> usize {
        if slot < self.num_configs() {
            self.starts[2 * slot + 2] - self.starts[2 * slot]
        } else {
            0
        }
    }

    /// The bytes the index holds on the heap, by capacity: 16 a candidate
    /// plus one 8-byte offset per slot and tier, and one more.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<PrunedEntry>()
            + self.starts.capacity() * std::mem::size_of::<usize>()
    }

    /// Every indexed candidate, slot by slot, each slot's two lists merged
    /// in ascending (power, descending replica id) order, the attested
    /// entry first on a tie — the roster read back out of the index,
    /// configuration = slot position, tier = the list's.
    pub fn candidates(&self) -> impl Iterator<Item = Candidate> + '_ {
        (0..self.num_configs()).flat_map(move |slot| {
            let (mut attested, mut unattested) = (self.list(2 * slot), self.list(2 * slot + 1));
            std::iter::from_fn(move || {
                let attested_next = match (attested.first(), unattested.first()) {
                    (None, None) => return None,
                    (Some(a), Some(u)) => entry_key(a) <= entry_key(u),
                    (a, _) => a.is_some(),
                };
                let (list, tier) = if attested_next {
                    (&mut attested, 0)
                } else {
                    (&mut unattested, 1)
                };
                let e = list[0];
                *list = &list[1..];
                Some(e.candidate(2 * slot + tier))
            })
        })
    }

    /// Builds the dense roster that one epoch's churn turns this one into,
    /// in **one pass**: every list is written once, straight from the old
    /// one, into one exactly-sized table, untouched runs copied as slices —
    /// nothing is cloned first and patched after. A config out of range is
    /// refused before anything is staged. The R churned rows of each side
    /// are then staged as a roster of their own, ordered by
    /// [`radix::sort_by_key`] in O(R · D) for D digits: 3 at the seal's
    /// shape, 12 at worst from 2 049 rows on, where it measures about 2× a
    /// comparison sort per list. The radix buffers, shared by both sides,
    /// are freed before one merge walk over the slots, which mirrors the
    /// epoch snapshot's bucket walk and its births and deaths, appends the
    /// new lists. A row that changes tier departs from one list and
    /// arrives in the other.
    ///
    /// * `departed` — rows leaving, by their exact *old-layout* `(config,
    ///   tier, power, replica)`; each must be present.
    /// * `arrivals` — rows entering, with *new-layout* configs. An arrival
    ///   whose key equals a surviving old entry's lands after it.
    /// * `removals` — ascending *old* positions of the slots to drop; each
    ///   must be empty once its departures are applied.
    /// * `insertions` — ascending *final* positions of fresh, empty slots
    ///   (which `arrivals` may then populate).
    ///
    /// The result equals [`from_dense`](Self::from_dense) over the patched
    /// candidates, capacities included.
    ///
    /// # Errors
    ///
    /// A [`PatchError`] — `self` is only read — when a departure matches
    /// no entry, when a removed slot still holds entries
    /// after its departures, or when a slot position or a row's config is
    /// out of range.
    pub fn patch_dense(
        &self,
        departed: &[Candidate],
        arrivals: &[Candidate],
        mut removals: &[usize],
        mut insertions: &[usize],
    ) -> Result<PrunedRoster, PatchError> {
        let old_slots = self.num_configs();
        let slots = (old_slots + insertions.len())
            .checked_sub(removals.len())
            .ok_or(PatchError::OutOfRange)?;
        if departed.iter().any(|c| c.config() >= old_slots)
            || arrivals.iter().any(|c| c.config() >= slots)
        {
            return Err(PatchError::OutOfRange);
        }
        let mut buffers = RadixBuffers::default();
        let leaving = Self::from_churn(old_slots, departed, &mut buffers);
        let landing = Self::from_churn(slots, arrivals, &mut buffers);
        drop(buffers);
        let mut entries =
            Vec::with_capacity((self.len() + landing.len()).saturating_sub(leaving.len()));
        let mut starts = Vec::with_capacity(2 * slots + 1);
        starts.push(0);
        let mut old_at = 0;
        while starts.len() <= 2 * slots || old_at < old_slots {
            let at = starts.len() / 2;
            if at < slots && insertions.first() == Some(&at) {
                insertions = &insertions[1..];
                for l in 2 * at..2 * at + 2 {
                    entries.extend_from_slice(landing.list(l));
                    starts.push(entries.len());
                }
                continue;
            }
            if old_at == old_slots {
                return Err(PatchError::OutOfRange);
            }
            let removed = removals.first() == Some(&old_at);
            if !removed && at == slots {
                return Err(PatchError::OutOfRange);
            }
            let kept = entries.len();
            for tier in 0..2 {
                let old = 2 * old_at + tier;
                let arriving: &[PrunedEntry] = if removed {
                    &[]
                } else {
                    landing.list(2 * at + tier)
                };
                merge_list(&mut entries, self.list(old), leaving.list(old), arriving)
                    .map_err(PatchError::UnknownDeparture)?;
                if !removed {
                    starts.push(entries.len());
                }
            }
            if removed {
                removals = &removals[1..];
                if entries.len() > kept {
                    return Err(PatchError::SlotNotEmpty(old_at));
                }
            }
            old_at += 1;
        }
        if !(removals.is_empty() && insertions.is_empty()) {
            return Err(PatchError::OutOfRange);
        }
        Ok(PrunedRoster { entries, starts })
    }

    /// Greedy entropy-maximising selection of `k` members — the
    /// byte-identical member sequence of the reference fold,
    /// [`greedy_diverse_naive`](crate::greedy::greedy_diverse_naive), over
    /// the indexed candidates, in O(k·C·log L).
    #[must_use]
    pub fn select(&self, k: usize) -> Committee {
        let mut run = SelectionRun::new(self);
        run.run_to(k);
        run.into_committee()
    }

    /// [`select`](Self::select)'s committee, repaired until it
    /// [tolerates](Committee::tolerates_one_config) a fault in any one
    /// configuration: a member leaves for good — the heaviest unattested one
    /// while any sits, then the heaviest of the heaviest attested
    /// configuration — and one more round fills its seat. `select(k)`
    /// itself when that already tolerates; `None` once no candidate is
    /// left. A repair, not a search: a tolerant `k`-subset may exist where
    /// this returns `None`.
    #[must_use]
    pub fn select_tolerant(&self, k: usize) -> Option<Committee> {
        let mut run = SelectionRun::new(self);
        run.run_to(k);
        while let Err(worst) = single_config_fault(&run.members) {
            run.eject(worst?);
            if !run.round() {
                return None;
            }
        }
        Some(run.into_committee())
    }
}

/// In-flight selection state over a [`PrunedRoster`]: the committee
/// accumulator (one slot per configuration, which both of its lists
/// add to), the members picked so far, and the selected-replica skip set.
struct SelectionRun<'a> {
    /// The roster's lists, sliced out of its table once per selection
    /// rather than once per list and round.
    lists: Vec<&'a [PrunedEntry]>,
    acc: EntropyAccumulator,
    members: Vec<Candidate>,
    /// Sorted; binary-searched by the band walks to skip picked entries.
    selected: Vec<ReplicaId>,
    /// Per roster list, where the last round's peak bracket landed (an
    /// index past the list's zero-power prefix): the peak moves little
    /// from one round to the next, so the next round gallops from here.
    hints: Vec<usize>,
}

impl<'a> SelectionRun<'a> {
    fn new(roster: &'a PrunedRoster) -> Self {
        SelectionRun {
            lists: (0..2 * roster.num_configs())
                .map(|l| roster.list(l))
                .collect(),
            acc: EntropyAccumulator::new(roster.num_configs()),
            members: Vec::new(),
            selected: Vec::new(),
            hints: vec![0; 2 * roster.num_configs()],
        }
    }

    fn is_selected(&self, replica: ReplicaId) -> bool {
        self.selected.binary_search(&replica).is_ok()
    }

    /// Commits `c` to the committee: accumulator add + skip-set insert.
    fn accept(&mut self, c: Candidate) {
        self.acc.add(c.config(), c.power().as_units());
        let pos = self
            .selected
            .binary_search(&c.replica())
            .expect_err("a replica is selected at most once");
        self.selected.insert(pos, c.replica());
        self.members.push(c);
    }

    /// Runs full greedy rounds until `k` members are picked or the roster
    /// is exhausted.
    fn run_to(&mut self, k: usize) {
        while self.members.len() < k && self.round() {}
    }

    /// Takes `member` back out of the committee but keeps it in the skip
    /// set, so no later round picks it again.
    fn eject(&mut self, member: Candidate) {
        self.acc.remove(member.config(), member.power().as_units());
        self.members.retain(|m| m.replica() != member.replica());
    }

    fn into_committee(self) -> Committee {
        Committee::new(self.members)
    }

    /// One greedy round: bracket every bucket's analytic peak (galloping
    /// from where the last round's bracket landed), evaluate the surviving
    /// band exactly, fold with the reference fold's tie predicate
    /// ([`beats`]), commit the winner. Returns `false` when no unselected
    /// candidate remains.
    fn round(&mut self) -> bool {
        let mut best: Option<(Candidate, f64)> = None;
        let mut hints = std::mem::take(&mut self.hints);
        for ((li, list), hint) in self.lists.iter().enumerate().zip(&mut hints) {
            self.walk_band(li / 2, list, hint, |e, h| {
                let cand = e.candidate(li);
                if best
                    .as_ref()
                    .is_none_or(|(held, held_h)| beats(&cand, h, held, *held_h))
                {
                    best = Some((cand, h));
                }
            });
        }
        self.hints = hints;
        match best {
            Some((winner, _)) => {
                self.accept(winner);
                true
            }
            None => false,
        }
    }

    /// The one band walk: hands `visit` every unselected entry of `list` —
    /// one of bucket `slot`'s two lists — that survives the guard band
    /// around the bucket's analytic peak, with its exactly evaluated gain.
    /// The bracket search starts at `hint` — where it landed last time in
    /// this list, or `0` — and leaves it where it lands now; the bracket is
    /// the same partition point wherever the search starts.
    fn walk_band(
        &self,
        slot: usize,
        list: &[PrunedEntry],
        hint: &mut usize,
        mut visit: impl FnMut(&PrunedEntry, f64),
    ) {
        // The zero-power prefix is never a candidate (module docs).
        let list = &list[gallop(list.len(), |i| list[i].power == 0)..];
        if list.is_empty() {
            return;
        }
        let b = self.acc.weight(slot);
        let w = self.acc.total_weight();
        if w == b {
            // Degenerate bucket: the whole committee's power (possibly
            // zero) already sits here, so every candidate lands on
            // single-support entropy — exactly +0.0 — and only the
            // max-preferred unselected entry, the list tail, can matter.
            if let Some(e) = list.iter().rev().find(|e| !self.is_selected(e.replica)) {
                visit(e, self.acc.peek_add(slot, e.power));
            }
            return;
        }

        // Analytic peak locator: f peaks where b + p = 2^{S′/(W−b)}. Float
        // error (or ±∞ saturation) only shifts where the walk *starts*;
        // the exact evaluations below decide everything.
        let s_prime = self.acc.weighted_log_sum() - xlog2(b);
        let target = (s_prime / ((w - b) as f64)).exp2() - b as f64;
        *hint = gallop_from(list.len(), *hint, |i| (list[i].power as f64) < target);
        let idx = *hint;

        // Expand outward from the bracket, below the peak then above it,
        // one run of equal power at a time: every entry of a run has the
        // bit-identical gain, so the run's most-preferred unselected entry
        // — its last — stands for all of them (module docs). f is unimodal
        // in power, so each direction's gains only fall; once one drops
        // below the band ceiling minus the guard band it — and everything
        // beyond it — is provably outside any possible tie with the round
        // winner.
        let mut ceiling = f64::NEG_INFINITY;
        for below in [true, false] {
            let mut side = if below { &list[..idx] } else { &list[idx..] };
            while !side.is_empty() {
                let (run, rest) = split_run(side, below);
                side = rest;
                let Some(e) = run.iter().rev().find(|e| !self.is_selected(e.replica)) else {
                    continue;
                };
                let h = self.acc.peek_add(slot, e.power);
                if h < ceiling - BAND {
                    break;
                }
                if h > ceiling {
                    ceiling = h;
                }
                visit(e, h);
            }
        }
    }
}

/// Splits the run of equal power nearest the band's peak off `side`: the
/// trailing run of the part `below` the peak, the leading run of the part
/// above it. Returns `(run, rest)`; `side` must not be empty.
fn split_run(side: &[PrunedEntry], below: bool) -> (&[PrunedEntry], &[PrunedEntry]) {
    let n = side.len();
    if below {
        let power = side[n - 1].power;
        let (rest, run) = side.split_at(n - gallop(n, |i| side[n - 1 - i].power == power));
        (run, rest)
    } else {
        let power = side[0].power;
        side.split_at(gallop(n, |i| side[i].power == power))
    }
}

/// The fold predicate of the reference,
/// [`greedy_diverse_naive`](crate::greedy::greedy_diverse_naive): whether
/// `cand`, evaluated at gain `h`, takes the round from `held` at `held_h`.
fn beats(cand: &Candidate, h: f64, held: &Candidate, held_h: f64) -> bool {
    h > held_h + TIE_EPS || ((h - held_h).abs() <= TIE_EPS && preferred(cand, held))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_diverse_naive;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn pool(n: u64, m: usize) -> Vec<Candidate> {
        (0..n)
            .map(|i| {
                Candidate::new(
                    ReplicaId::new(i),
                    VotingPower::new(1 + (i * 37) % 500),
                    (i as usize * i as usize) % m,
                    i % 3 != 0,
                )
            })
            .collect()
    }

    #[test]
    fn pruned_matches_incremental_and_naive() {
        let candidates = pool(60, 7);
        let roster = PrunedRoster::from_dense(7, &candidates);
        for k in [0, 1, 5, 13, 40, 60, 100] {
            assert_eq!(
                roster.select(k).members(),
                greedy_diverse_naive(&candidates, k).members(),
                "k = {k}"
            );
        }
    }

    #[test]
    fn pruned_handles_ties_and_zero_power() {
        // Heavy exact ties (many equal powers) plus zero-power rows.
        let mut candidates: Vec<Candidate> = (0..30u64)
            .map(|i| {
                Candidate::new(
                    ReplicaId::new(i),
                    VotingPower::new(10),
                    (i % 3) as usize,
                    true,
                )
            })
            .collect();
        candidates.push(Candidate::new(
            ReplicaId::new(99),
            VotingPower::ZERO,
            0,
            true,
        ));
        let roster = PrunedRoster::from_dense(3, &candidates);
        assert_eq!(roster.len(), 31, "the zero-power row is held…");
        for k in [1, 2, 7, 30, 31] {
            // …and never selected.
            assert_eq!(
                roster.select(k).members(),
                greedy_diverse_naive(&candidates, k).members(),
                "k = {k}"
            );
        }
    }

    #[test]
    fn dense_slot_splices_track_bucket_birth_and_death() {
        // Dense roster over 4 slots; slot 2's only member departs and its
        // bucket dies, a new bucket is born at position 1 with a newcomer.
        let candidates: Vec<Candidate> = vec![
            Candidate::new(ReplicaId::new(0), VotingPower::new(50), 0, true),
            Candidate::new(ReplicaId::new(1), VotingPower::new(30), 1, true),
            Candidate::new(ReplicaId::new(2), VotingPower::new(20), 2, true),
            Candidate::new(ReplicaId::new(3), VotingPower::new(10), 3, true),
        ];
        let newcomer = Candidate::new(ReplicaId::new(9), VotingPower::new(40), 1, true);
        let roster = PrunedRoster::from_dense(4, &candidates)
            .patch_dense(&[candidates[2]], &[newcomer], &[2], &[1])
            .unwrap();
        assert_eq!(roster.num_configs(), 4);
        // Expected final layout: old slots 0,1,3 → 0,2,3 plus the newcomer
        // at slot 1; surviving entries take their *new* positional configs.
        let patched: Vec<Candidate> = vec![
            Candidate::new(ReplicaId::new(0), VotingPower::new(50), 0, true),
            newcomer,
            Candidate::new(ReplicaId::new(1), VotingPower::new(30), 2, true),
            Candidate::new(ReplicaId::new(3), VotingPower::new(10), 3, true),
        ];
        assert_eq!(roster, PrunedRoster::from_dense(4, &patched));
        for k in [1, 2, 4] {
            assert_eq!(
                roster.select(k).members(),
                greedy_diverse_naive(&patched, k).members()
            );
        }
    }

    #[test]
    fn rows_that_do_not_describe_this_roster_are_errors_not_panics() {
        let row = |id: u64, power: u64, config: usize| {
            Candidate::new(ReplicaId::new(id), VotingPower::new(power), config, true)
        };
        let roster = PrunedRoster::from_dense(2, [row(0, 5, 0), row(1, 7, 1)]);
        let untouched = roster.clone();
        // A populated slot cannot be spliced out…
        assert_eq!(
            roster.patch_dense(&[], &[], &[0], &[]),
            Err(PatchError::SlotNotEmpty(0))
        );
        // …a departure must name an entry exactly: right replica with the
        // wrong power, the wrong slot, or a replica that is not there…
        for gone in [row(0, 6, 0), row(0, 5, 1), row(9, 5, 0)] {
            assert_eq!(
                roster.patch_dense(&[gone], &[], &[], &[]),
                Err(PatchError::UnknownDeparture(gone.replica()))
            );
        }
        // …and configs and slot positions stay inside the roster.
        for (departed, arrivals, removals, insertions) in [
            (vec![row(0, 5, 4_000)], vec![], vec![], vec![]),
            (vec![], vec![row(9, 5, 2)], vec![], vec![]),
            (vec![], vec![], vec![2], vec![]),
            (vec![], vec![], vec![], vec![4]),
            (vec![], vec![], vec![0, 0, 1], vec![]),
        ] {
            assert_eq!(
                roster.patch_dense(&departed, &arrivals, &removals, &insertions),
                Err(PatchError::OutOfRange)
            );
        }
        assert_eq!(roster, untouched);
    }

    #[test]
    fn a_band_walk_evaluates_each_distinct_power_once() {
        // 200 replicas a slot share one power, then three: every walk must
        // hand `visit` — one exact evaluation each — at most one entry per
        // distinct power, however many replicas are tied on it, and the
        // rounds must still pick what the per-candidate fold picks.
        for powers in [&[10u64][..], &[10, 11, 12]] {
            let candidates: Vec<Candidate> = (0..600u64)
                .map(|i| {
                    let power = powers[(i / 3) as usize % powers.len()];
                    Candidate::new(
                        ReplicaId::new(i),
                        VotingPower::new(power),
                        (i % 3) as usize,
                        true,
                    )
                })
                .collect();
            let roster = PrunedRoster::from_dense(3, &candidates);
            let mut run = SelectionRun::new(&roster);
            for round in 0..40 {
                for li in 0..roster.num_configs() {
                    let list = roster.list(2 * li);
                    let mut evaluated: Vec<u64> = Vec::new();
                    run.walk_band(li, list, &mut 0, |e, _| evaluated.push(e.power));
                    let visits = evaluated.len();
                    evaluated.sort_unstable();
                    evaluated.dedup();
                    assert_eq!(
                        evaluated.len(),
                        visits,
                        "round {round}, slot {li}: a power was evaluated twice"
                    );
                    assert!((1..=powers.len()).contains(&visits));
                }
                assert!(run.round());
            }
            assert_eq!(
                run.into_committee().members(),
                greedy_diverse_naive(&candidates, 40).members()
            );
        }
    }

    #[test]
    fn a_pruned_entry_is_two_words() {
        // Power and replica; configuration and tier are the list's.
        assert_eq!(std::mem::size_of::<PrunedEntry>(), 16);
    }

    #[test]
    fn from_churn_files_each_row_under_its_list() {
        // Rows in slots 1, 3 (both tiers) and 9 of 10: each lands in its
        // own list, and the lists in front of, between and behind them
        // stay empty.
        let row = |id, config, attested| {
            Candidate::new(ReplicaId::new(id), VotingPower::new(5), config, attested)
        };
        let rows = [
            row(1, 3, false),
            row(2, 1, true),
            row(3, 9, true),
            row(4, 3, true),
            row(5, 3, false),
        ];
        let filled = |roster: &PrunedRoster| -> Vec<(usize, usize)> {
            (0..2 * roster.num_configs())
                .map(|l| (l, roster.list(l).len()))
                .filter(|&(_, len)| len > 0)
                .collect()
        };
        let roster = PrunedRoster::from_churn(10, &rows, &mut RadixBuffers::default());
        assert_eq!(filled(&roster), [(2, 1), (6, 1), (7, 2), (18, 1)]);
        let empty = PrunedRoster::from_dense(4, std::iter::empty::<Candidate>());
        assert_eq!(filled(&empty), []);
    }

    #[test]
    fn empty_roster_selects_nothing() {
        let roster = PrunedRoster::from_dense(0, std::iter::empty::<Candidate>());
        assert!(roster.is_empty());
        assert!(roster.select(5).is_empty());
        let slots_only = PrunedRoster::from_dense(3, std::iter::empty::<Candidate>());
        assert_eq!(slots_only.num_configs(), 3);
        assert!(slots_only.select(5).is_empty());
    }

    #[test]
    fn patch_departures_equal_a_rebuild_of_the_survivors() {
        // Every third candidate departs, a zero-power row among them — held
        // and removed like any other.
        let mut candidates = pool(120, 5);
        candidates[3] = Candidate::new(ReplicaId::new(3), VotingPower::ZERO, 4, true);
        let departing: Vec<Candidate> = candidates.iter().copied().step_by(3).collect();
        let patched = PrunedRoster::from_dense(5, &candidates)
            .patch_dense(&departing, &[], &[], &[])
            .unwrap();
        let survivors: Vec<Candidate> = candidates
            .iter()
            .copied()
            .filter(|c| !departing.contains(c))
            .collect();
        assert_eq!(survivors.len(), 80);
        assert_eq!(patched, PrunedRoster::from_dense(5, &survivors));
        assert_eq!(patched.len(), 80);
    }

    #[test]
    fn patch_arrivals_equal_a_rebuild_with_the_newcomers() {
        let base = pool(80, 5);
        // Arrivals include rows for populated slots, for slots the base
        // leaves empty, and a zero-power row.
        let mut arriving = pool(40, 9)
            .into_iter()
            .map(|c| {
                Candidate::new(
                    ReplicaId::new(c.replica().as_u64() + 500),
                    c.power(),
                    c.config(),
                    c.attested(),
                )
            })
            .collect::<Vec<_>>();
        arriving.push(Candidate::new(
            ReplicaId::new(997),
            VotingPower::ZERO,
            2,
            false,
        ));
        let patched = PrunedRoster::from_dense(9, &base)
            .patch_dense(&[], &arriving, &[], &[])
            .unwrap();
        let all: Vec<Candidate> = base.iter().chain(&arriving).copied().collect();
        assert_eq!(patched, PrunedRoster::from_dense(9, &all));
        assert_eq!(patched.len(), 121);
    }

    #[test]
    fn batch_churn_matches_full_rebuild() {
        let candidates = pool(150, 6);
        let departing: Vec<Candidate> = candidates.iter().copied().step_by(4).collect();
        let arriving: Vec<Candidate> = (300..340u64)
            .map(|i| {
                Candidate::new(
                    ReplicaId::new(i),
                    VotingPower::new(1 + (i * 11) % 211),
                    (i as usize) % 6,
                    i % 2 == 0,
                )
            })
            .collect();
        let roster = PrunedRoster::from_dense(6, &candidates)
            .patch_dense(&departing, &arriving, &[], &[])
            .unwrap();
        let survivors: Vec<Candidate> = candidates
            .iter()
            .filter(|c| !departing.iter().any(|d| d.replica() == c.replica()))
            .chain(arriving.iter())
            .copied()
            .collect();
        assert_eq!(roster, PrunedRoster::from_dense(6, &survivors));
    }

    #[test]
    fn equal_keyed_rows_replace_or_land_behind() {
        let old = Candidate::new(ReplicaId::new(4), VotingPower::new(10), 0, true);
        let again = Candidate::new(ReplicaId::new(4), VotingPower::new(10), 0, false);
        let roster = PrunedRoster::from_dense(1, [old]);
        // Departing and re-arriving under the same key replaces the entry…
        let replaced = roster.patch_dense(&[old], &[again], &[], &[]).unwrap();
        assert_eq!(replaced, PrunedRoster::from_dense(1, [again]));
        // …and an arrival lands behind an equal-keyed entry that stays.
        let both = roster.patch_dense(&[], &[again], &[], &[]).unwrap();
        assert_eq!(both.list(0), [PrunedEntry::of(&old)]);
        assert_eq!(both.list(1), [PrunedEntry::of(&again)]);
        assert_eq!(both.candidates().collect::<Vec<_>>(), vec![old, again]);
        assert_eq!(both.len(), 2);
    }

    #[test]
    fn gallop_agrees_with_partition_point_at_every_boundary() {
        // Every length around the linear prefix and the first two
        // doublings, every boundary in it: inside the prefix, at the
        // hand-over to the doubling probe, and past the end.
        for len in 0..=40usize {
            let sorted: Vec<usize> = (0..len).collect();
            for boundary in 0..=len + 1 {
                let mut calls = 0;
                let at = gallop(len, |i| {
                    calls += 1;
                    sorted[i] < boundary
                });
                assert_eq!(
                    at,
                    sorted.partition_point(|&x| x < boundary),
                    "len {len}, boundary {boundary}"
                );
                if boundary < LINEAR_PREFIX.min(len) {
                    assert_eq!(calls, boundary + 1, "a short run is a linear scan");
                }
                // From any start, behind the boundary, at it, past it or
                // past the end, galloping either way lands on it too.
                for from in 0..=len + 1 {
                    assert_eq!(
                        gallop_from(len, from, |i| sorted[i] < boundary),
                        at,
                        "len {len}, boundary {boundary}, from {from}"
                    );
                }
            }
        }
    }

    /// One staged row: `(replica, power, config, attested)`.
    type Row = (u64, u64, usize, bool);

    /// [`PrunedRoster::from_churn`] over the rows of `rows` that lie in
    /// range, held table for table to the per-list comparison sort of
    /// [`PrunedRoster::from_dense`] and to a [`PrunedRoster::patch_dense`]
    /// of them onto an empty roster, capacities included; when any row
    /// lies past the last slot, a patch that departs or lands all of them
    /// is refused as out of range. Returns the radix's scratch buffer.
    fn groups_match_comparison_sort(slots: usize, rows: &[Row]) -> Vec<(usize, PrunedEntry)> {
        let rows: Vec<Candidate> = rows
            .iter()
            .map(|&(id, power, config, attested)| {
                Candidate::new(
                    ReplicaId::new(id),
                    VotingPower::new(power),
                    config,
                    attested,
                )
            })
            .collect();
        let empty = PrunedRoster::from_dense(slots, std::iter::empty::<Candidate>());
        if rows.iter().any(|c| c.config() >= slots) {
            for (departed, arrivals) in [(&rows[..], &[][..]), (&[], &rows)] {
                assert_eq!(
                    empty.patch_dense(departed, arrivals, &[], &[]),
                    Err(PatchError::OutOfRange)
                );
            }
        }
        let rows: Vec<Candidate> = rows.into_iter().filter(|c| c.config() < slots).collect();
        let mut buffers = RadixBuffers::default();
        let radix = PrunedRoster::from_churn(slots, &rows, &mut buffers);
        let sorted = PrunedRoster::from_dense(slots, &rows);
        let patched = empty.patch_dense(&[], &rows, &[], &[]).unwrap();
        assert_eq!(radix.starts.len(), 2 * slots + 1);
        for roster in [&radix, &patched] {
            assert_eq!(roster, &sorted, "{slots} slots");
            assert_eq!(roster.heap_bytes(), sorted.heap_bytes());
        }
        buffers.1
    }

    #[test]
    fn list_groups_of_no_rows_and_of_one_row() {
        assert!(groups_match_comparison_sort(0, &[]).is_empty());
        assert!(groups_match_comparison_sort(3, &[]).is_empty());
        assert!(groups_match_comparison_sort(3, &[(7, 5, 1, false)]).is_empty());
        // Past the last slot, alone or beside a row in range.
        assert!(groups_match_comparison_sort(0, &[(7, 5, 0, true)]).is_empty());
        assert!(groups_match_comparison_sort(2, &[(7, 5, 1, false), (8, 5, 2, true)]).is_empty());
    }

    /// The key bits that are not the same in every row.
    fn varying_bits(rows: &[Row]) -> u128 {
        let key = |&(id, power, ..): &Row| {
            entry_key(&PrunedEntry {
                power,
                replica: ReplicaId::new(id),
            })
        };
        rows.iter().fold(0, |acc, r| acc | (key(r) ^ key(&rows[0])))
    }

    #[test]
    fn rows_on_one_key_run_no_key_pass() {
        // The same (power, replica) in every list: no key bit varies, so
        // the radix never fills its scratch buffer, and filing by list
        // alone groups the rows.
        let rows: Vec<Row> = (0..12).map(|i| (42, 9, i % 5, i % 2 == 0)).collect();
        assert_eq!(varying_bits(&rows), 0);
        assert!(groups_match_comparison_sort(5, &rows).is_empty());
    }

    #[test]
    fn keys_differing_only_in_the_power_top_byte() {
        let rows: Vec<Row> = [0x7f, 0x00, 0xff, 0x01, 0x80, 0x7f, 0x00]
            .iter()
            .enumerate()
            .map(|(i, &top)| (3, top << 56 | 0x00ab_cdef, i % 2, true))
            .collect();
        assert_eq!(varying_bits(&rows), 0xff << 120);
        assert_eq!(groups_match_comparison_sort(2, &rows).len(), rows.len());
    }

    #[test]
    fn extreme_replicas_and_powers() {
        let mut rows: Vec<Row> = Vec::new();
        for id in [0, u64::MAX, 1, u64::MAX - 1] {
            for power in [0, u64::MAX, 1, u64::MAX - 1] {
                rows.push((id, power, 0, true));
                rows.push((id, power, 1, false));
            }
        }
        assert_eq!(groups_match_comparison_sort(2, &rows).len(), rows.len());
    }

    #[test]
    fn keys_varying_across_digit_and_half_boundaries() {
        // Ids built from bits on both sides of each 11-bit digit boundary
        // (a digit starts at the lowest varying bit) and at the top of the
        // low half; powers at both ends of the high half. Then keys whose
        // lowest varying bit is far from bit 0, in both halves.
        let bits = [0, 10, 11, 21, 22, 32, 63];
        let mut rows: Vec<Row> = Vec::new();
        for subset in 0..1u64 << bits.len() {
            let id = bits
                .iter()
                .enumerate()
                .filter(|&(i, _)| subset >> i & 1 == 1)
                .fold(0, |id, (_, &b)| id | 1 << b);
            for power in [0, 1, 1 << 63, 1 << 63 | 1] {
                rows.push((id, power, (id % 3) as usize, power % 2 == 0));
            }
        }
        groups_match_comparison_sort(3, &rows);
        let far: Vec<Row> = (0..300u64)
            .map(|k| ((k * 7 % 300) << 20, (k % 50) << 40, (k % 2) as usize, true))
            .collect();
        assert_eq!(varying_bits(&far) & 0xf_ffff, 0);
        groups_match_comparison_sort(2, &far);
    }

    #[test]
    fn keys_varying_in_every_bit() {
        // Every bit of both halves of the key, so all 16 bytes, takes both
        // values: the worst case, 12 digit passes.
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let rows: Vec<Row> = (0..600)
            .map(|i| (next(), next(), i % 4, i % 3 == 0))
            .collect();
        assert_eq!(varying_bits(&rows), u128::MAX);
        groups_match_comparison_sort(4, &rows);
    }

    /// A fleet in miniature — replica → (power, measurement label), label
    /// [`OPAQUE`] for the unattested tier — laid out the way the epoch
    /// snapshot lays it out: one slot per label with a member (zero-power
    /// members count), in label order, the unattested pseudo-slot last.
    type Rows = BTreeMap<u64, (u64, usize)>;
    const OPAQUE: usize = 6;

    fn live_labels(rows: &Rows) -> Vec<usize> {
        let mut labels: Vec<usize> = rows.values().map(|&(_, label)| label).collect();
        labels.retain(|&label| label != OPAQUE);
        labels.sort_unstable();
        labels.dedup();
        labels
    }

    fn candidate(labels: &[usize], id: u64, (power, label): (u64, usize)) -> Candidate {
        let slot = labels.binary_search(&label).unwrap_or(labels.len());
        Candidate::new(
            ReplicaId::new(id),
            VotingPower::new(power),
            slot,
            label != OPAQUE,
        )
    }

    fn row() -> impl Strategy<Value = (u64, usize)> {
        // Powers 0..=3: zero-power rows on both sides and heavy ties.
        (0..=3u64, 0..=OPAQUE)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The radix order against the per-list comparison sort, on random
        /// rows: ids and powers from small ranges (few varying bits, many
        /// equal keys) and from the whole `u64`, rows filed under both
        /// tiers of every slot, and past the last one, which a patch
        /// refuses.
        #[test]
        fn list_groups_equal_a_comparison_sort_per_list(
            slots in 0..5usize,
            rows in proptest::collection::vec(
                (
                    prop_oneof![0..40u64, 0..(1u64 << 24), any::<u64>()],
                    prop_oneof![0..4u64, 0..(1u64 << 20), any::<u64>(), Just(u64::MAX)],
                    0..7usize,
                    proptest::bool::ANY,
                ),
                0..80,
            ),
        ) {
            groups_match_comparison_sort(slots, &rows);
        }

        /// `from_dense` over a lazy map of rows, walked by a clone of its
        /// iterator, against `from_dense` over the same rows collected into
        /// a slice, capacities included: random slot counts, both tiers,
        /// zero powers and rows that repeat a key. The map runs twice a
        /// row, once in the counting walk and once in the filing walk.
        #[test]
        fn from_dense_over_a_mapped_iterator_equals_it_over_the_slice(
            slots in 1..6usize,
            rows in proptest::collection::vec(
                (0..12u64, 0..4u64, 0..6usize, proptest::bool::ANY),
                0..60,
            ),
        ) {
            let candidate = |&(id, power, config, attested): &Row| {
                Candidate::new(
                    ReplicaId::new(id),
                    VotingPower::new(power),
                    config % slots,
                    attested,
                )
            };
            let collected: Vec<Candidate> = rows.iter().map(candidate).collect();
            let mapped_rows = std::cell::Cell::new(0);
            let mapped = PrunedRoster::from_dense(
                slots,
                rows.iter().map(|r| {
                    mapped_rows.set(mapped_rows.get() + 1);
                    candidate(r)
                }),
            );
            let sliced = PrunedRoster::from_dense(slots, &collected);
            prop_assert_eq!(mapped_rows.get(), 2 * rows.len());
            prop_assert_eq!(&mapped, &sliced);
            prop_assert_eq!(mapped.entries.capacity(), sliced.entries.capacity());
            prop_assert_eq!(mapped.heap_bytes(), sliced.heap_bytes());
        }

        /// The one-pass patch against a rebuild: random dense rosters and
        /// random churn — departures, arrivals, rows rewritten to the same
        /// key, buckets dying (at any position, last zero-power member
        /// included) and being born (front, middle, end), empty deltas.
        #[test]
        fn patch_dense_equals_rebuild_and_selects_like_greedy(
            initial in proptest::collection::vec((0..24u64, row()), 0..30),
            churn in proptest::collection::vec(
                (0..24u64, prop_oneof![row().prop_map(Some), row().prop_map(Some), Just(None)]),
                0..14,
            ),
        ) {
            let old: Rows = initial.into_iter().collect();
            let mut new = old.clone();
            let mut touched: Vec<u64> = Vec::new();
            for (id, state) in churn {
                touched.push(id);
                match state {
                    Some(r) => new.insert(id, r),
                    None => new.remove(&id),
                };
            }
            touched.sort_unstable();
            touched.dedup();

            let (old_labels, new_labels) = (live_labels(&old), live_labels(&new));
            let all: Vec<u64> = (0..24).collect();
            let rows_of = |rows: &Rows, labels: &[usize], ids: &[u64]| -> Vec<Candidate> {
                ids.iter()
                    .filter_map(|id| rows.get(id).map(|&r| candidate(labels, *id, r)))
                    .collect()
            };
            let old_roster = rows_of(&old, &old_labels, &all);
            let new_roster = rows_of(&new, &new_labels, &all);
            let departed = rows_of(&old, &old_labels, &touched);
            let arrivals = rows_of(&new, &new_labels, &touched);
            let died: Vec<usize> = (0..old_labels.len())
                .filter(|&at| !new_labels.contains(&old_labels[at]))
                .collect();
            let born: Vec<usize> = (0..new_labels.len())
                .filter(|&at| !old_labels.contains(&new_labels[at]))
                .collect();

            let patched = PrunedRoster::from_dense(old_labels.len() + 1, &old_roster)
                .patch_dense(&departed, &arrivals, &died, &born)
                .expect("the churn describes the roster it was drawn over");
            let rebuilt = PrunedRoster::from_dense(new_labels.len() + 1, &new_roster);
            prop_assert_eq!(patched.len(), rebuilt.len());
            prop_assert_eq!(&patched, &rebuilt);
            prop_assert_eq!(patched.heap_bytes(), rebuilt.heap_bytes());
            for k in [1, 4, 30] {
                prop_assert_eq!(
                    patched.select(k).members(),
                    greedy_diverse_naive(&new_roster, k).members()
                );
            }
        }
    }
}
