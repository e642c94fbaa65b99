//! Discrete simulation time.
//!
//! The discrete-event simulator ([`fi-simnet`](https://docs.rs)) advances a
//! logical clock measured in *ticks*; by convention one tick is one
//! microsecond, which gives plenty of resolution for network latencies
//! (milliseconds) and block intervals (minutes) while staying inside `u64`
//! for simulations spanning centuries.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Sub};

/// A point in (or duration of) discrete simulation time, in ticks.
///
/// One tick is conventionally one microsecond. `SimTime` is used both as an
/// instant and as a duration; the arithmetic is the same and the simulators
/// never need the distinction that `std::time` draws.
///
/// # Example
///
/// ```
/// use fi_types::SimTime;
/// let start = SimTime::from_millis(5);
/// let later = start + SimTime::from_millis(10);
/// assert_eq!(later.as_micros(), 15_000);
/// assert_eq!(later - start, SimTime::from_millis(10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero — the start of every simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable time (used as an "infinite" deadline).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw ticks (microseconds by convention).
    #[must_use]
    pub const fn from_micros(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// Creates a time from milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates a time from seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Raw tick count (microseconds).
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds as a float, for reporting.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Checked addition; `None` on overflow.
    #[must_use]
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// Saturating addition (caps at [`SimTime::MAX`]).
    #[must_use]
    pub fn saturating_add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (floors at [`SimTime::ZERO`]).
    #[must_use]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Returns `true` if this time is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("simulation time overflowed u64 ticks"),
        )
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("simulation time subtraction underflowed"),
        )
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |acc, t| acc + t)
    }
}

impl From<u64> for SimTime {
    fn from(ticks: u64) -> Self {
        SimTime(ticks)
    }
}

impl From<SimTime> for u64 {
    fn from(t: SimTime) -> u64 {
        t.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
    }

    #[test]
    fn accessors() {
        let t = SimTime::from_micros(2_500_123);
        assert_eq!(t.as_micros(), 2_500_123);
        assert!((t.as_secs_f64() - 2.500123).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_millis(3);
        let b = SimTime::from_millis(2);
        assert_eq!(a + b, SimTime::from_millis(5));
        assert_eq!(a - b, SimTime::from_millis(1));
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_millis(5));
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimTime::from_micros(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimTime::ZERO.saturating_sub(SimTime::from_micros(1)),
            SimTime::ZERO
        );
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert_eq!(SimTime::MAX.checked_add(SimTime::from_micros(1)), None);
        assert_eq!(
            SimTime::ZERO.checked_add(SimTime::from_micros(1)),
            Some(SimTime::from_micros(1))
        );
    }

    #[test]
    #[should_panic(expected = "underflowed")]
    fn sub_underflow_panics() {
        let _ = SimTime::ZERO - SimTime::from_micros(1);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        assert!(SimTime::ZERO.is_zero());
    }

    #[test]
    fn sum_of_durations() {
        let total: SimTime = (1..=3).map(SimTime::from_micros).sum();
        assert_eq!(total, SimTime::from_micros(6));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_micros(12).to_string(), "12us");
        assert_eq!(SimTime::from_micros(1_500).to_string(), "1.500ms");
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000s");
    }
}
