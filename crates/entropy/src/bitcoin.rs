//! The paper's Example 1 and Figure 1: best-case entropy of Bitcoin replica
//! diversity.
//!
//! §IV-B, Example 1: "As of 02 February 2023, 17 mining pools in Bitcoin
//! possess 99.13% mining power, where the distribution is (34.239%, 19.981%,
//! 12.997%, 11.348%, 8.826%, 2.619%, 2.037%, 1.649%, 1.358%, 1.261%, 0.78%,
//! 0.68%, 0.68%, 0.39%, 0.10%, 0.10%, 0.10%) … we assume that each of the
//! mining pools has a unique configuration … the rest 0.87% mining power is
//! uniformly distributed to a number of replicas ranging from 1 to 1000."
//!
//! Figure 1 plots the entropy of that family of distributions against the
//! number `x` of residual miners and finds it stays **below 3 bits** — less
//! diverse than a uniform 8-replica BFT system.
//!
//! Power shares are held in exact integer *milli-percent* units
//! (1 unit = 0.001% of total hash power; total = 100 000 units) so the
//! residual split loses nothing to rounding.

use fi_types::VotingPower;

use crate::dist::Distribution;
use crate::error::DistributionError;
use crate::shannon::{max_entropy_bits, shannon_entropy_bits};

/// The top-17 Bitcoin mining-pool shares of 2023-02-02, in percent, exactly
/// as printed in the paper's Example 1 (largest first; the head is Foundry
/// USA at 34.239%).
pub const TOP17_SHARES_PERCENT: [f64; 17] = [
    34.239, 19.981, 12.997, 11.348, 8.826, 2.619, 2.037, 1.649, 1.358, 1.261, 0.78, 0.68, 0.68,
    0.39, 0.10, 0.10, 0.10,
];

/// Total power in milli-percent units (0.001% granularity): 100 000 units
/// = 100%.
const TOTAL_UNITS: u64 = 100_000;

/// The top-17 shares converted to exact milli-percent units.
///
/// The listed percentages sum to 99.145%; the paper's prose rounds this to
/// "99.13%" and the residual to "0.87%". We keep the listed per-pool values
/// exact and derive the residual as `100% − Σ shares = 0.855%`, which is
/// what the figure's construction requires (shares must sum to 100%).
#[must_use]
pub fn top17_units() -> Vec<u64> {
    TOP17_SHARES_PERCENT
        .iter()
        .map(|&pct| (pct * 1_000.0).round() as u64)
        .collect()
}

/// The residual mining power (everything outside the top 17) in
/// milli-percent units.
#[must_use]
pub fn residual_units() -> u64 {
    TOTAL_UNITS - top17_units().iter().sum::<u64>()
}

/// The Example-1 distribution over exactly the 17 pools (ignoring the
/// residual tail), i.e. the pools renormalized to 1. This is the
/// "oligopoly head" whose entropy pins Figure 1 below 3 bits.
///
/// # Panics
///
/// Never panics: the constants are valid by construction (checked in
/// tests).
#[must_use]
pub fn example1_distribution() -> Distribution {
    Distribution::from_counts(&top17_units()).expect("17 positive pool shares")
}

/// The full-network distribution for a given residual-miner count `x`:
/// 17 pools with the Example-1 shares plus `x` miners sharing the residual
/// 0.855% as evenly as integer units allow (the paper's "uniformly
/// distributed").
///
/// # Errors
///
/// Returns [`DistributionError::Empty`] if `x == 0` — Figure 1's x-axis
/// starts at 1.
pub fn figure1_distribution(x: usize) -> Result<Distribution, DistributionError> {
    if x == 0 {
        return Err(DistributionError::Empty);
    }
    let mut units = top17_units();
    let residual = VotingPower::new(residual_units());
    units.extend(residual.split_even(x).iter().map(|p| p.as_units()));
    Distribution::from_counts(&units)
}

/// One point of the Figure 1 curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure1Point {
    /// Number of miners the residual 0.855% is split across (the x-axis).
    pub x: usize,
    /// Total miners in the system (`x + 17`).
    pub total_miners: usize,
    /// Best-case entropy in bits (the y-axis).
    pub entropy_bits: f64,
}

/// Generates the Figure 1 curve for `x = 1 ..= max_x` (the paper uses
/// `max_x = 1000`).
///
/// # Errors
///
/// Returns [`DistributionError::Empty`] if `max_x == 0`.
///
/// # Example
///
/// ```
/// use fi_entropy::bitcoin::figure1_curve;
/// let curve = figure1_curve(1000)?;
/// assert_eq!(curve.len(), 1000);
/// // The paper's headline: "the entropy is less than 3" everywhere.
/// assert!(curve.iter().all(|pt| pt.entropy_bits < 3.0));
/// // And it grows monotonically with x (more residual miners = more diversity).
/// assert!(curve.windows(2).all(|w| w[1].entropy_bits >= w[0].entropy_bits));
/// # Ok::<(), fi_entropy::DistributionError>(())
/// ```
pub fn figure1_curve(max_x: usize) -> Result<Vec<Figure1Point>, DistributionError> {
    if max_x == 0 {
        return Err(DistributionError::Empty);
    }
    (1..=max_x)
        .map(|x| {
            let dist = figure1_distribution(x)?;
            Ok(Figure1Point {
                x,
                total_miners: x + TOP17_SHARES_PERCENT.len(),
                entropy_bits: shannon_entropy_bits(&dist),
            })
        })
        .collect()
}

/// The comparison line the paper draws: a classic BFT system with `n`
/// replicas, each with a unique configuration and equal voting power, has
/// entropy `log2 n` (3 bits at `n = 8`).
#[must_use]
pub fn bft_uniform_entropy_bits(n: usize) -> f64 {
    max_entropy_bits(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_listed_total() {
        let sum: f64 = TOP17_SHARES_PERCENT.iter().sum();
        // The paper prints the per-pool values that sum to 99.145 and
        // rounds the total to 99.13 in prose.
        assert!((sum - 99.145).abs() < 1e-9);
    }

    #[test]
    fn units_are_exact() {
        let units = top17_units();
        assert_eq!(units.len(), 17);
        assert_eq!(units[0], 34_239);
        assert_eq!(units[16], 100);
        assert_eq!(units.iter().sum::<u64>() + residual_units(), TOTAL_UNITS);
    }

    #[test]
    fn residual_matches_paper_rounding() {
        // 0.855% exact; the paper's prose says "0.87%".
        assert_eq!(residual_units(), 855);
    }

    #[test]
    fn example1_entropy_is_below_three_bits() {
        // The paper's headline claim for the pools-only view.
        let h = shannon_entropy_bits(&example1_distribution());
        assert!(h < 3.0, "entropy of the 17-pool oligopoly was {h}");
        assert!(h > 2.5, "sanity lower bound, got {h}");
    }

    #[test]
    fn figure1_distribution_shapes() {
        let d = figure1_distribution(101).unwrap();
        assert_eq!(d.dimension(), 118); // "when x=101 … 118 miners" (caption).
        assert!(figure1_distribution(0).is_err());
    }

    #[test]
    fn figure1_curve_stays_below_bft8_line() {
        let curve = figure1_curve(1000).unwrap();
        let bft8 = bft_uniform_entropy_bits(8);
        assert!((bft8 - 3.0).abs() < 1e-12);
        for pt in &curve {
            assert!(
                pt.entropy_bits < bft8,
                "x = {} reached {} bits",
                pt.x,
                pt.entropy_bits
            );
        }
    }

    #[test]
    fn figure1_curve_is_monotone_increasing() {
        let curve = figure1_curve(500).unwrap();
        for w in curve.windows(2) {
            assert!(w[1].entropy_bits >= w[0].entropy_bits - 1e-12);
        }
    }

    #[test]
    fn figure1_endpoints_match_analytic_expectation() {
        let curve = figure1_curve(1000).unwrap();
        let first = curve.first().unwrap();
        let last = curve.last().unwrap();
        // x = 1: one residual miner with 0.855%.
        assert_eq!(first.total_miners, 18);
        assert!(first.entropy_bits > 2.7 && first.entropy_bits < 2.95);
        // x = 1000: the tail adds ~0.14 bits.
        assert_eq!(last.total_miners, 1017);
        assert!(last.entropy_bits > first.entropy_bits);
        assert!(last.entropy_bits < 3.0);
    }

    #[test]
    fn bft_comparison_values() {
        assert_eq!(bft_uniform_entropy_bits(8), 3.0);
        assert_eq!(bft_uniform_entropy_bits(4), 2.0);
        assert!(bft_uniform_entropy_bits(7) < 3.0);
    }

    #[test]
    fn curve_rejects_zero_range() {
        assert!(figure1_curve(0).is_err());
    }
}
