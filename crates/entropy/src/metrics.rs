//! Complementary decentralization metrics.
//!
//! Entropy is the paper's headline measure, but practitioners read
//! concentration through other lenses too. These metrics share the same
//! [`Distribution`] input so experiments can report them side by side:
//!
//! * the **Nakamoto coefficient** — the minimum number of configurations
//!   that jointly control a threshold share (e.g. 50 % for Nakamoto
//!   consensus, 33 % for BFT quorum denial);
//! * the **Gini coefficient** — inequality of the share distribution.

use crate::dist::Distribution;
use crate::error::DistributionError;

/// The minimum number of configurations whose combined share strictly
/// exceeds `threshold`. Returns `None` if even all of them together do not
/// (possible only when `threshold ≥ 1`).
///
/// # Errors
///
/// Returns [`DistributionError::InvalidProbability`] if `threshold` is not
/// in `[0, 1]`.
///
/// # Example
///
/// ```
/// use fi_entropy::{metrics::nakamoto_coefficient, Distribution};
/// let p = Distribution::from_weights(&[40.0, 30.0, 20.0, 10.0])?;
/// // 40% alone is not > 50%; 40% + 30% is.
/// assert_eq!(nakamoto_coefficient(&p, 0.5)?, Some(2));
/// // One configuration already exceeds a 33% BFT threshold.
/// assert_eq!(nakamoto_coefficient(&p, 1.0 / 3.0)?, Some(1));
/// # Ok::<(), fi_entropy::DistributionError>(())
/// ```
pub fn nakamoto_coefficient(
    p: &Distribution,
    threshold: f64,
) -> Result<Option<usize>, DistributionError> {
    if !(0.0..=1.0).contains(&threshold) || !threshold.is_finite() {
        return Err(DistributionError::InvalidProbability {
            index: 0,
            value: threshold,
        });
    }
    let mut shares: Vec<f64> = p.probabilities().to_vec();
    shares.sort_by(|a, b| b.total_cmp(a));
    let mut acc = 0.0;
    for (i, share) in shares.iter().enumerate() {
        acc += share;
        if acc > threshold {
            return Ok(Some(i + 1));
        }
    }
    Ok(None)
}

/// The Gini coefficient of the share distribution, in `[0, 1)`: 0 for
/// perfectly equal shares, approaching 1 for total concentration.
/// Zero-probability configurations count as members of the population
/// (an unused configuration is a maximally poor one).
#[must_use]
pub fn gini_coefficient(p: &Distribution) -> f64 {
    let mut shares: Vec<f64> = p.probabilities().to_vec();
    shares.sort_by(f64::total_cmp);
    let n = shares.len() as f64;
    if shares.len() <= 1 {
        return 0.0;
    }
    // G = (2 Σ_i i·x_i) / (n Σ x_i) − (n + 1)/n, with 1-based ranks over
    // ascending shares and Σ x_i = 1.
    let weighted: f64 = shares
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x)
        .sum();
    (2.0 * weighted) / n - (n + 1.0) / n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitcoin;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn nakamoto_coefficient_uniform() {
        let u = Distribution::uniform(10).unwrap();
        // Six of ten uniform shares are needed to exceed half.
        assert_eq!(nakamoto_coefficient(&u, 0.5).unwrap(), Some(6));
        assert_eq!(nakamoto_coefficient(&u, 0.0).unwrap(), Some(1));
        assert_eq!(nakamoto_coefficient(&u, 1.0).unwrap(), None);
    }

    #[test]
    fn nakamoto_coefficient_rejects_bad_threshold() {
        let u = Distribution::uniform(3).unwrap();
        assert!(nakamoto_coefficient(&u, -0.1).is_err());
        assert!(nakamoto_coefficient(&u, 1.5).is_err());
        assert!(nakamoto_coefficient(&u, f64::NAN).is_err());
    }

    #[test]
    fn nakamoto_coefficient_of_bitcoin_pools() {
        // 34.2 + 20.0 = 54.2 > 50: two pools control Bitcoin's majority —
        // the oligopoly in one number.
        let pools = bitcoin::example1_distribution();
        assert_eq!(nakamoto_coefficient(&pools, 0.5).unwrap(), Some(2));
        // One pool alone crosses the BFT 1/3 threshold.
        assert_eq!(nakamoto_coefficient(&pools, 1.0 / 3.0).unwrap(), Some(1));
    }

    #[test]
    fn gini_bounds_and_extremes() {
        assert_eq!(gini_coefficient(&Distribution::uniform(1).unwrap()), 0.0);
        assert!(close(
            gini_coefficient(&Distribution::uniform(50).unwrap()),
            0.0
        ));
        let concentrated = Distribution::degenerate(50, 0).unwrap();
        let g = gini_coefficient(&concentrated);
        assert!(g > 0.97 && g < 1.0, "gini = {g}");
    }

    #[test]
    fn gini_of_bitcoin_pools_shows_inequality() {
        let pools = bitcoin::example1_distribution();
        let g = gini_coefficient(&pools);
        assert!(g > 0.5 && g < 0.9, "gini = {g}");
    }

    #[test]
    fn gini_is_scale_free() {
        let a = Distribution::from_weights(&[1.0, 2.0, 3.0]).unwrap();
        let b = Distribution::from_weights(&[10.0, 20.0, 30.0]).unwrap();
        assert!(close(gini_coefficient(&a), gini_coefficient(&b)));
    }
}
