//! Voting power: the paper's unifying abstraction over replica counts,
//! hash rate, and stake.
//!
//! §II-A of the paper: "We define voting power as an abstraction representing
//! the total amount of valid voting power units. For BFT protocols with a
//! fixed number of replicas, `n_t` represents the total number of replicas at
//! time `t`. For Bitcoin, `n_t` represents the total computational power."
//!
//! [`VotingPower`] is an integer number of *power units*. Generators in the
//! workspace conventionally use 1 000 000 units for "the whole system" so
//! that shares down to one part per million are exact, but nothing in this
//! type depends on that convention. [`WeightedQuorum`] is the quorum rule
//! over it.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// An exact, integer-valued amount of voting power.
///
/// Implements saturating-free checked arithmetic through `+`/`-` (panicking
/// on overflow like the built-in integers in debug *and* release — overflow
/// here is always a logic error in an experiment) plus explicit
/// [`checked_add`](VotingPower::checked_add) /
/// [`checked_sub`](VotingPower::checked_sub) variants for fallible paths.
///
/// # Example
///
/// ```
/// use fi_types::VotingPower;
/// let total: VotingPower = [1u64, 2, 3].iter().map(|&u| VotingPower::new(u)).sum();
/// assert_eq!(total, VotingPower::new(6));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VotingPower(u64);

impl VotingPower {
    /// The zero amount of voting power.
    pub const ZERO: VotingPower = VotingPower(0);

    /// Creates a voting power of `units` power units.
    #[must_use]
    pub const fn new(units: u64) -> Self {
        VotingPower(units)
    }

    /// Returns the raw number of power units.
    #[must_use]
    pub const fn as_units(self) -> u64 {
        self.0
    }

    /// Returns `true` if this is zero voting power.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked addition; `None` on overflow.
    #[must_use]
    pub fn checked_add(self, rhs: VotingPower) -> Option<VotingPower> {
        self.0.checked_add(rhs.0).map(VotingPower)
    }

    /// Checked subtraction; `None` when `rhs > self`.
    #[must_use]
    pub fn checked_sub(self, rhs: VotingPower) -> Option<VotingPower> {
        self.0.checked_sub(rhs.0).map(VotingPower)
    }

    /// Saturating subtraction (floors at zero).
    #[must_use]
    pub fn saturating_sub(self, rhs: VotingPower) -> VotingPower {
        VotingPower(self.0.saturating_sub(rhs.0))
    }

    /// The fraction `self / total` as an `f64` in `[0, 1]`.
    ///
    /// Returns `0.0` when `total` is zero (an empty system has no shares).
    ///
    /// # Example
    ///
    /// ```
    /// use fi_types::VotingPower;
    /// let p = VotingPower::new(342_390);
    /// assert!((p.share_of(VotingPower::new(1_000_000)) - 0.34239).abs() < 1e-12);
    /// ```
    #[must_use]
    pub fn share_of(self, total: VotingPower) -> f64 {
        if total.is_zero() {
            0.0
        } else {
            self.0 as f64 / total.0 as f64
        }
    }

    /// Multiplies this power by a dimensionless non-negative factor,
    /// rounding to the nearest unit.
    ///
    /// Used by weighting schemes (e.g. two-tier attested voting where
    /// unattested replicas count at a discounted weight).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative, NaN, or the product overflows `u64`.
    #[must_use]
    pub fn scaled(self, factor: f64) -> VotingPower {
        self.checked_scaled(factor)
            .expect("scaled voting power overflows u64")
    }

    /// [`scaled`](Self::scaled), but `None` where the product overflows
    /// `u64`: what a caller checks before it scales power it was handed.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[must_use]
    pub fn checked_scaled(self, factor: f64) -> Option<VotingPower> {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scaling factor must be finite and non-negative, got {factor}"
        );
        let scaled = self.0 as f64 * factor;
        (scaled <= u64::MAX as f64).then(|| VotingPower(scaled.round() as u64))
    }

    /// Splits this power into `parts` near-equal integer chunks
    /// (the first `self % parts` chunks get one extra unit), preserving the
    /// total exactly.
    ///
    /// This is how Figure 1's "0.87% distributed uniformly over x miners" is
    /// realised without losing units to rounding.
    ///
    /// # Example
    ///
    /// ```
    /// use fi_types::VotingPower;
    /// let chunks = VotingPower::new(10).split_even(3);
    /// assert_eq!(chunks.iter().map(|c| c.as_units()).collect::<Vec<_>>(), vec![4, 3, 3]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `parts == 0`.
    #[must_use]
    pub fn split_even(self, parts: usize) -> Vec<VotingPower> {
        assert!(parts > 0, "cannot split voting power into zero parts");
        let parts_u64 = parts as u64;
        let base = self.0 / parts_u64;
        let extra = (self.0 % parts_u64) as usize;
        (0..parts)
            .map(|i| VotingPower(base + u64::from(i < extra)))
            .collect()
    }
}

impl Add for VotingPower {
    type Output = VotingPower;

    fn add(self, rhs: VotingPower) -> VotingPower {
        VotingPower(
            self.0
                .checked_add(rhs.0)
                .expect("voting power addition overflowed u64"),
        )
    }
}

impl AddAssign for VotingPower {
    fn add_assign(&mut self, rhs: VotingPower) {
        *self = *self + rhs;
    }
}

impl Sub for VotingPower {
    type Output = VotingPower;

    fn sub(self, rhs: VotingPower) -> VotingPower {
        VotingPower(
            self.0
                .checked_sub(rhs.0)
                .expect("voting power subtraction underflowed"),
        )
    }
}

impl SubAssign for VotingPower {
    fn sub_assign(&mut self, rhs: VotingPower) {
        *self = *self - rhs;
    }
}

impl Sum for VotingPower {
    fn sum<I: Iterator<Item = VotingPower>>(iter: I) -> VotingPower {
        iter.fold(VotingPower::ZERO, |acc, p| acc + p)
    }
}

impl<'a> Sum<&'a VotingPower> for VotingPower {
    fn sum<I: Iterator<Item = &'a VotingPower>>(iter: I) -> VotingPower {
        iter.copied().sum()
    }
}

impl From<u64> for VotingPower {
    fn from(units: u64) -> Self {
        VotingPower(units)
    }
}

impl From<VotingPower> for u64 {
    fn from(power: VotingPower) -> u64 {
        power.0
    }
}

impl fmt::Display for VotingPower {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}u", self.0)
    }
}

/// The workspace's one quorum rule over voting power: of a `total`, `f =
/// ⌊(total − 1)/3⌋` units may be compromised and a quorum is `total − f`.
/// PBFT votes, the resilience analyzer and committee selection all use it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WeightedQuorum {
    total: VotingPower,
    f_power: VotingPower,
}

impl WeightedQuorum {
    /// Derives weighted quorum parameters for a system with `total` voting
    /// power: `f = ⌊(total − 1)/3⌋` power units tolerated. Returns `None`
    /// when `total` is too small to tolerate any compromised unit
    /// (`total < 4`).
    #[must_use]
    pub fn for_total(total: VotingPower) -> Option<Self> {
        if total.as_units() < 4 {
            return None;
        }
        Some(WeightedQuorum {
            total,
            f_power: VotingPower::new((total.as_units() - 1) / 3),
        })
    }

    /// Total voting power `n_t`.
    #[must_use]
    pub fn total(&self) -> VotingPower {
        self.total
    }

    /// Maximum compromised power the system tolerates.
    #[must_use]
    pub fn f_power(&self) -> VotingPower {
        self.f_power
    }

    /// The quorum threshold: `total − f` power units. Any two sets reaching
    /// it intersect in at least `total − 2f ≥ f + 1` units — more power
    /// than the adversary can hold, so at least one honest unit is common.
    // lint: allow(unused-pub) paper-facing: the `total − f` quorum threshold, whose intersection bound bft_properties and integration_weighted assert
    #[must_use]
    pub fn quorum_power(&self) -> VotingPower {
        self.total - self.f_power
    }

    /// Whether `accumulated` voting power reaches the quorum.
    #[must_use]
    pub fn reaches_quorum(&self, accumulated: VotingPower) -> bool {
        accumulated >= self.quorum_power()
    }

    /// Whether the paper's safety condition holds for `compromised` power:
    /// `f ≥ Σ_i f^i_t` expressed in units.
    #[must_use]
    pub fn tolerates(&self, compromised: VotingPower) -> bool {
        compromised <= self.f_power
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_and_as_units_round_trip() {
        assert_eq!(VotingPower::new(42).as_units(), 42);
    }

    #[test]
    fn zero_is_zero() {
        assert!(VotingPower::ZERO.is_zero());
        assert!(!VotingPower::new(1).is_zero());
    }

    #[test]
    fn addition_and_subtraction() {
        let a = VotingPower::new(10);
        let b = VotingPower::new(4);
        assert_eq!(a + b, VotingPower::new(14));
        assert_eq!(a - b, VotingPower::new(6));
    }

    #[test]
    fn add_assign_and_sub_assign() {
        let mut p = VotingPower::new(5);
        p += VotingPower::new(3);
        assert_eq!(p, VotingPower::new(8));
        p -= VotingPower::new(8);
        assert_eq!(p, VotingPower::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflowed")]
    fn subtraction_underflow_panics() {
        let _ = VotingPower::new(1) - VotingPower::new(2);
    }

    #[test]
    fn checked_arithmetic() {
        assert_eq!(
            VotingPower::new(u64::MAX).checked_add(VotingPower::new(1)),
            None
        );
        assert_eq!(VotingPower::new(1).checked_sub(VotingPower::new(2)), None);
        assert_eq!(
            VotingPower::new(3).checked_sub(VotingPower::new(2)),
            Some(VotingPower::new(1))
        );
    }

    #[test]
    fn saturating_sub_floors_at_zero() {
        assert_eq!(
            VotingPower::new(1).saturating_sub(VotingPower::new(9)),
            VotingPower::ZERO
        );
    }

    #[test]
    fn share_of_total() {
        let p = VotingPower::new(25);
        assert!((p.share_of(VotingPower::new(100)) - 0.25).abs() < f64::EPSILON);
    }

    #[test]
    fn share_of_zero_total_is_zero() {
        assert_eq!(VotingPower::new(10).share_of(VotingPower::ZERO), 0.0);
    }

    #[test]
    fn sum_over_iterator() {
        let total: VotingPower = (1..=4).map(VotingPower::new).sum();
        assert_eq!(total, VotingPower::new(10));
        let refs = [VotingPower::new(2), VotingPower::new(3)];
        let total: VotingPower = refs.iter().sum();
        assert_eq!(total, VotingPower::new(5));
    }

    #[test]
    fn split_even_preserves_total_and_is_near_uniform() {
        let chunks = VotingPower::new(8_700).split_even(101);
        assert_eq!(chunks.len(), 101);
        let total: VotingPower = chunks.iter().sum();
        assert_eq!(total, VotingPower::new(8_700));
        let max = chunks.iter().max().unwrap().as_units();
        let min = chunks.iter().min().unwrap().as_units();
        assert!(max - min <= 1);
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn split_even_zero_parts_panics() {
        let _ = VotingPower::new(1).split_even(0);
    }

    #[test]
    fn scaled_rounds_to_nearest() {
        assert_eq!(VotingPower::new(10).scaled(0.25), VotingPower::new(3));
        assert_eq!(VotingPower::new(10).scaled(1.0), VotingPower::new(10));
        assert_eq!(VotingPower::new(10).scaled(0.0), VotingPower::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn scaled_rejects_negative() {
        let _ = VotingPower::new(10).scaled(-0.5);
    }

    #[test]
    fn checked_scaled_reports_what_scaled_would_panic_on() {
        let half = VotingPower::new(1 << 63);
        assert_eq!(half.checked_scaled(1.0), Some(half));
        assert_eq!(half.checked_scaled(0.5), Some(VotingPower::new(1 << 62)));
        assert_eq!(half.checked_scaled(4.0), None);
        assert_eq!(
            VotingPower::new(7).checked_scaled(0.5),
            Some(VotingPower::new(4))
        );
    }

    #[test]
    fn display_format() {
        assert_eq!(VotingPower::new(123).to_string(), "123u");
    }

    #[test]
    fn conversion_round_trip() {
        let p: VotingPower = 99u64.into();
        let back: u64 = p.into();
        assert_eq!(back, 99);
    }
}
