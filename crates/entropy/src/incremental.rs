//! Incremental Shannon entropy over integer-weight configuration buckets.
//!
//! Committee selection and diversity monitoring keep asking the same
//! question — *"what is the entropy after moving a little power?"* — and the
//! naive answer rebuilds a distribution and recomputes
//! `H = −Σ p_i log2 p_i` from scratch for every trial: O(k) work plus heap
//! allocations per query. [`EntropyAccumulator`] instead maintains the
//! algebraic identity
//!
//! ```text
//! H = log2 W − S / W,   where   W = Σ_c w_c,   S = Σ_c w_c · log2 w_c
//! ```
//!
//! over the raw (un-normalized) per-configuration weights `w_c`, so that
//! adding, removing, or hypothetically moving weight at one bucket is O(1):
//! only the affected `w_c · log2 w_c` terms of `S` change.
//!
//! The identity follows from `p_c = w_c / W`:
//! `−Σ (w_c/W)·log2(w_c/W) = −Σ (w_c/W)(log2 w_c − log2 W)
//! = log2 W − (Σ w_c log2 w_c)/W`.
//!
//! Two guarantees the hot paths rely on:
//!
//! * **Equivalence.** For any weight vector, [`EntropyAccumulator::entropy_bits`]
//!   agrees with [`crate::shannon_entropy_bits`] on the corresponding
//!   [`crate::Distribution`] to well under `1e-9` (property-tested across
//!   random add/remove sequences).
//! * **Peek/apply consistency.** Every `peek_*` method performs bitwise the
//!   same floating-point operations, in the same order, as the corresponding
//!   mutation followed by [`EntropyAccumulator::entropy_bits`] — so a
//!   selection loop that compares peeked values and then applies the winner
//!   sees no drift between decision and state.

use crate::shannon::normalized_entropy;

/// `w · log2 w` with the `0 · log 0 := 0` convention.
#[inline]
fn xlog2(w: u64) -> f64 {
    if w == 0 {
        0.0
    } else {
        let x = w as f64;
        x * x.log2()
    }
}

/// Shared final step: `H = log2 W − S/W`, with degenerate cases pinned to
/// exactly `+0.0` (see [`normalized_entropy`]).
#[inline]
fn entropy_of(total: u64, weighted_log_sum: f64, support: usize) -> f64 {
    if support <= 1 {
        // One bucket (or none): H is exactly 0, and computing
        // `log2 W − (W·log2 W)/W` in floats could stray a few ulps negative.
        return 0.0;
    }
    normalized_entropy((total as f64).log2() - weighted_log_sum / total as f64)
}

/// O(1) incremental Shannon entropy over per-configuration power buckets.
///
/// Buckets are dense slots `0..slots()`; callers with sparse configuration
/// indices (e.g. arbitrary candidate configs) map them to slots once up
/// front. All weights are integer power units (see `fi_types::VotingPower`),
/// so add/remove round-trips are exact and the accumulator cannot drift in
/// `W` — only `S` carries floating-point rounding, bounded by one ulp per
/// operation.
///
/// # Example
///
/// ```
/// use fi_entropy::{shannon_entropy_bits, Distribution, EntropyAccumulator};
///
/// let mut acc = EntropyAccumulator::new(3);
/// acc.add(0, 50);
/// acc.add(1, 30);
/// acc.add(2, 20);
///
/// // Exact equivalence with the batch computation.
/// let exact = shannon_entropy_bits(&Distribution::from_counts(&[50, 30, 20])?);
/// assert!((acc.entropy_bits() - exact).abs() < 1e-12);
///
/// // O(1) what-if evaluation without mutating:
/// let peeked = acc.peek_add(2, 30);
/// acc.add(2, 30);
/// assert_eq!(peeked, acc.entropy_bits());
/// # Ok::<(), fi_entropy::DistributionError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EntropyAccumulator {
    weights: Vec<u64>,
    total: u64,
    weighted_log_sum: f64,
    support: usize,
}

impl EntropyAccumulator {
    /// An accumulator with `slots` empty buckets.
    #[must_use]
    pub fn new(slots: usize) -> Self {
        EntropyAccumulator {
            weights: vec![0; slots],
            total: 0,
            weighted_log_sum: 0.0,
            support: 0,
        }
    }

    /// An accumulator seeded with one bucket per entry of `weights`.
    ///
    /// # Example
    ///
    /// ```
    /// use fi_entropy::EntropyAccumulator;
    /// let acc = EntropyAccumulator::from_weights(&[1, 1, 1, 1]);
    /// assert!((acc.entropy_bits() - 2.0).abs() < 1e-12);
    /// ```
    #[must_use]
    pub fn from_weights(weights: &[u64]) -> Self {
        let mut acc = EntropyAccumulator::new(weights.len());
        for (slot, &w) in weights.iter().enumerate() {
            acc.add(slot, w);
        }
        acc
    }

    /// Number of buckets (zero-weight buckets included).
    #[must_use]
    pub fn slots(&self) -> usize {
        self.weights.len()
    }

    /// The weight currently in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[must_use]
    pub fn weight(&self, slot: usize) -> u64 {
        self.weights[slot]
    }

    /// Total weight `W` across all buckets.
    #[must_use]
    pub fn total_weight(&self) -> u64 {
        self.total
    }

    /// Number of buckets with positive weight (the realised κ).
    #[must_use]
    pub fn support_size(&self) -> usize {
        self.support
    }

    /// The maintained `S = Σ_c w_c · log2 w_c` term. Together with
    /// [`total_weight`](Self::total_weight) and
    /// [`support_size`](Self::support_size) this fully determines
    /// [`entropy_bits`](Self::entropy_bits); selection engines that bracket
    /// the analytic entropy peak of "add power `p` to one bucket" need the
    /// raw sum, not just the folded `H`.
    #[must_use]
    pub fn weighted_log_sum(&self) -> f64 {
        self.weighted_log_sum
    }

    /// Adds `w` units of weight to `slot` in O(1).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or the bucket/total would overflow
    /// `u64` (always a logic error in an experiment, mirroring
    /// `fi_types::VotingPower` arithmetic).
    pub fn add(&mut self, slot: usize, w: u64) {
        if w == 0 {
            return;
        }
        let old = self.weights[slot];
        let new = old
            .checked_add(w)
            .expect("entropy accumulator bucket overflowed u64");
        self.total = self
            .total
            .checked_add(w)
            .expect("entropy accumulator total overflowed u64");
        self.weighted_log_sum = self.weighted_log_sum - xlog2(old) + xlog2(new);
        self.support += usize::from(old == 0);
        self.weights[slot] = new;
    }

    /// Removes `w` units of weight from `slot` in O(1).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or holds less than `w`.
    pub fn remove(&mut self, slot: usize, w: u64) {
        if w == 0 {
            return;
        }
        let old = self.weights[slot];
        assert!(
            w <= old,
            "entropy accumulator underflow: removing {w} from bucket {slot} holding {old}"
        );
        let new = old - w;
        self.total -= w;
        self.weighted_log_sum = self.weighted_log_sum - xlog2(old) + xlog2(new);
        self.support -= usize::from(new == 0);
        self.weights[slot] = new;
    }

    /// Moves `w` units from bucket `from` to bucket `to` in O(1) (a replica
    /// migration: total power is conserved).
    ///
    /// # Panics
    ///
    /// As [`add`](Self::add) / [`remove`](Self::remove).
    pub fn apply_move(&mut self, from: usize, to: usize, w: u64) {
        if from == to {
            return;
        }
        self.remove(from, w);
        self.add(to, w);
    }

    /// Current entropy `H = log2 W − S/W` in bits; exactly `+0.0` for empty
    /// or single-configuration states.
    #[must_use]
    pub fn entropy_bits(&self) -> f64 {
        entropy_of(self.total, self.weighted_log_sum, self.support)
    }

    /// Entropy after hypothetically adding `w` at `slot`, in O(1), without
    /// mutating. Bitwise equal to calling [`add`](Self::add) followed by
    /// [`entropy_bits`](Self::entropy_bits).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or the addition would overflow.
    #[must_use]
    pub fn peek_add(&self, slot: usize, w: u64) -> f64 {
        if w == 0 {
            return self.entropy_bits();
        }
        let old = self.weights[slot];
        let new = old
            .checked_add(w)
            .expect("entropy accumulator bucket overflowed u64");
        let total = self
            .total
            .checked_add(w)
            .expect("entropy accumulator total overflowed u64");
        let s = self.weighted_log_sum - xlog2(old) + xlog2(new);
        let support = self.support + usize::from(old == 0);
        entropy_of(total, s, support)
    }

    /// Entropy after hypothetically moving `w` units from `from` to `to`,
    /// in O(1), without mutating. Bitwise equal to
    /// [`apply_move`](Self::apply_move) followed by
    /// [`entropy_bits`](Self::entropy_bits). This is the reconfiguration
    /// recommender's inner-loop query.
    ///
    /// # Panics
    ///
    /// As [`apply_move`](Self::apply_move).
    #[must_use]
    pub fn peek_move(&self, from: usize, to: usize, w: u64) -> f64 {
        if from == to || w == 0 {
            return self.entropy_bits();
        }
        let old_from = self.weights[from];
        assert!(
            w <= old_from,
            "entropy accumulator underflow: moving {w} from bucket {from} holding {old_from}"
        );
        let new_from = old_from - w;
        let old_to = self.weights[to];
        let new_to = old_to
            .checked_add(w)
            .expect("entropy accumulator bucket overflowed u64");
        let s = self.weighted_log_sum - xlog2(old_from) + xlog2(new_from) - xlog2(old_to)
            + xlog2(new_to);
        let support = self.support - usize::from(new_from == 0) + usize::from(old_to == 0);
        entropy_of(self.total, s, support)
    }

    /// Entropy with one extra, hypothetical bucket of weight `w` appended —
    /// the "all unattested power as one opaque configuration" reading of the
    /// two-tier registry, in O(1).
    #[must_use]
    pub fn entropy_with_extra_bucket(&self, w: u64) -> f64 {
        if w == 0 {
            return self.entropy_bits();
        }
        let total = self
            .total
            .checked_add(w)
            .expect("entropy accumulator total overflowed u64");
        let s = self.weighted_log_sum + xlog2(w);
        entropy_of(total, s, self.support + 1)
    }
}

/// One-pass power-weighted entropy of raw bucket weights via the same
/// `log2 W − S/W` identity: no allocation, no [`crate::Distribution`]
/// construction, zero weights inert. This is what cached committee entropy
/// is built from.
///
/// # Example
///
/// ```
/// use fi_entropy::incremental::weighted_entropy_bits;
/// let h = weighted_entropy_bits([50u64, 30, 20, 0]);
/// assert!(h > 0.0 && h < 2.0);
/// assert_eq!(weighted_entropy_bits([7u64]), 0.0);
/// assert_eq!(weighted_entropy_bits(std::iter::empty::<u64>()), 0.0);
/// ```
///
/// # Panics
///
/// Panics if the total weight overflows `u64`.
#[must_use]
pub fn weighted_entropy_bits<I: IntoIterator<Item = u64>>(weights: I) -> f64 {
    let mut total = 0u64;
    let mut s = 0.0;
    let mut support = 0usize;
    for w in weights {
        if w > 0 {
            total = total
                .checked_add(w)
                .expect("entropy weight total overflowed u64");
            s += xlog2(w);
            support += 1;
        }
    }
    entropy_of(total, s, support)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;
    use crate::shannon::shannon_entropy_bits;

    fn naive(weights: &[u64]) -> f64 {
        match Distribution::from_counts(weights) {
            Ok(d) => shannon_entropy_bits(&d),
            Err(_) => 0.0,
        }
    }

    #[test]
    fn empty_accumulator_is_zero_entropy() {
        let acc = EntropyAccumulator::new(4);
        assert_eq!(acc.entropy_bits(), 0.0);
        assert!(acc.entropy_bits().is_sign_positive());
        assert_eq!(acc.total_weight(), 0);
        assert_eq!(acc.support_size(), 0);
        assert_eq!(acc.slots(), 4);
    }

    #[test]
    fn matches_naive_on_basic_vectors() {
        for weights in [
            vec![1u64, 1, 1, 1],
            vec![50, 30, 20],
            vec![1_000_000, 1],
            vec![0, 5, 0, 5],
            vec![7],
            vec![0, 0, 3],
        ] {
            let acc = EntropyAccumulator::from_weights(&weights);
            let h = acc.entropy_bits();
            assert!(
                (h - naive(&weights)).abs() < 1e-12,
                "weights {weights:?}: {h} vs {}",
                naive(&weights)
            );
        }
    }

    #[test]
    fn single_bucket_is_exactly_positive_zero() {
        let mut acc = EntropyAccumulator::new(2);
        acc.add(0, 123_456);
        let h = acc.entropy_bits();
        assert_eq!(h, 0.0);
        assert!(h.is_sign_positive(), "must not be -0.0");
    }

    #[test]
    fn add_remove_round_trip_restores_entropy() {
        let mut acc = EntropyAccumulator::from_weights(&[10, 20, 30]);
        let before = acc.entropy_bits();
        acc.add(1, 17);
        acc.remove(1, 17);
        // W is integer-exact; S sees two symmetric updates.
        assert!((acc.entropy_bits() - before).abs() < 1e-12);
        assert_eq!(acc.total_weight(), 60);
    }

    #[test]
    fn peek_add_is_bitwise_equal_to_add() {
        let mut acc = EntropyAccumulator::from_weights(&[5, 0, 9]);
        for (slot, w) in [(1, 4), (0, 1), (2, 100)] {
            let peek = acc.peek_add(slot, w);
            acc.add(slot, w);
            assert_eq!(peek.to_bits(), acc.entropy_bits().to_bits());
        }
    }

    #[test]
    fn peek_move_is_bitwise_equal_to_apply_move() {
        let mut acc = EntropyAccumulator::from_weights(&[50, 30, 20, 0]);
        for (from, to, w) in [(0, 3, 25), (1, 2, 30), (2, 0, 1)] {
            let peek = acc.peek_move(from, to, w);
            acc.apply_move(from, to, w);
            assert_eq!(peek.to_bits(), acc.entropy_bits().to_bits());
            assert_eq!(acc.total_weight(), 100, "moves conserve power");
        }
    }

    #[test]
    fn move_to_same_slot_is_identity() {
        let mut acc = EntropyAccumulator::from_weights(&[3, 7]);
        let before = acc.entropy_bits();
        assert_eq!(acc.peek_move(1, 1, 5), before);
        acc.apply_move(1, 1, 5);
        assert_eq!(acc.entropy_bits(), before);
        assert_eq!(acc.weight(1), 7);
    }

    #[test]
    fn extra_bucket_matches_padded_naive() {
        let acc = EntropyAccumulator::from_weights(&[60, 40]);
        let h = acc.entropy_with_extra_bucket(100);
        assert!((h - naive(&[60, 40, 100])).abs() < 1e-12);
        assert_eq!(acc.entropy_with_extra_bucket(0), acc.entropy_bits());
        // The hypothetical bucket does not mutate the accumulator.
        assert_eq!(acc.slots(), 2);
        assert_eq!(acc.total_weight(), 100);
    }

    #[test]
    fn zero_weight_operations_are_inert() {
        let mut acc = EntropyAccumulator::from_weights(&[5, 5]);
        let before = acc.entropy_bits();
        acc.add(0, 0);
        acc.remove(1, 0);
        assert_eq!(acc.entropy_bits(), before);
        assert_eq!(acc.peek_add(0, 0), before);
        assert_eq!(acc.peek_move(0, 1, 0), before);
    }

    #[test]
    fn weighted_log_sum_tracks_the_identity() {
        let weights = [13u64, 0, 8, 21, 1];
        let acc = EntropyAccumulator::from_weights(&weights);
        let expected: f64 = weights.iter().map(|&w| xlog2(w)).sum();
        assert!((acc.weighted_log_sum() - expected).abs() < 1e-9);
        // H = log2 W − S/W reconstructs bit-for-bit through the shared fold.
        let h = entropy_of(
            acc.total_weight(),
            acc.weighted_log_sum(),
            acc.support_size(),
        );
        assert_eq!(h.to_bits(), acc.entropy_bits().to_bits());
    }

    #[test]
    fn weighted_entropy_bits_matches_accumulator() {
        let weights = [13u64, 0, 8, 21, 1];
        let acc = EntropyAccumulator::from_weights(&weights);
        let h = weighted_entropy_bits(weights);
        assert_eq!(h.to_bits(), acc.entropy_bits().to_bits());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn remove_more_than_present_panics() {
        let mut acc = EntropyAccumulator::from_weights(&[3]);
        acc.remove(0, 4);
    }

    #[test]
    fn never_negative_zero_after_churn() {
        let mut acc = EntropyAccumulator::new(2);
        acc.add(0, 10);
        acc.add(1, 10);
        acc.remove(1, 10);
        let h = acc.entropy_bits();
        assert_eq!(h, 0.0);
        assert!(h.is_sign_positive(), "degenerate entropy must be +0.0");
    }
}
