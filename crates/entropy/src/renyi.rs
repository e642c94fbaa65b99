//! Rényi entropies and Hill numbers.
//!
//! The paper measures diversity with Shannon entropy; the Rényi family
//! generalises it and exposes two operationally meaningful extremes for
//! fault independence:
//!
//! * **Min-entropy** (`α → ∞`) is determined by the *largest* configuration
//!   share — exactly the worst-case single vulnerability: an attacker who
//!   can exploit one configuration gains at most `2^{−H_∞}` of the voting
//!   power.
//! * **Hartley entropy** (`α = 0`) counts the support — the number of
//!   distinct configurations regardless of share.

use crate::dist::Distribution;
use crate::error::DistributionError;

/// Rényi entropy `H_α(p)` in bits.
///
/// * `α = 0`: Hartley entropy, `log2 |support|`;
/// * `α = 1`: Shannon entropy (limit case);
/// * `α = 2`: collision entropy, `−log2 Σ p_i²`;
/// * `α = ∞` (`f64::INFINITY`): min-entropy, `−log2 max p_i`.
///
/// # Errors
///
/// Returns [`DistributionError::InvalidProbability`] if `alpha` is negative
/// or NaN.
///
/// # Example
///
/// ```
/// use fi_entropy::{renyi::renyi_entropy_bits, Distribution};
/// let p = Distribution::uniform(4)?;
/// for alpha in [0.0, 0.5, 1.0, 2.0, f64::INFINITY] {
///     // All orders agree on uniform distributions.
///     assert!((renyi_entropy_bits(&p, alpha)? - 2.0).abs() < 1e-12);
/// }
/// # Ok::<(), fi_entropy::DistributionError>(())
/// ```
pub fn renyi_entropy_bits(p: &Distribution, alpha: f64) -> Result<f64, DistributionError> {
    if alpha.is_nan() || alpha < 0.0 {
        return Err(DistributionError::InvalidProbability {
            index: 0,
            value: alpha,
        });
    }
    if alpha == 0.0 {
        return Ok((p.support_size() as f64).log2());
    }
    if alpha.is_infinite() {
        return Ok(min_entropy_bits(p));
    }
    if (alpha - 1.0).abs() < 1e-12 {
        return Ok(crate::shannon::shannon_entropy_bits(p));
    }
    let sum: f64 = p
        .probabilities()
        .iter()
        .filter(|&&pi| pi > 0.0)
        .map(|&pi| pi.powf(alpha))
        .sum();
    Ok(sum.log2() / (1.0 - alpha))
}

/// Min-entropy `H_∞(p) = −log2 max_i p_i` in bits.
///
/// `2^{−H_∞}` is the voting-power share captured by compromising the single
/// most popular configuration — the paper's worst-case `f^i_t` for one
/// vulnerability.
#[must_use]
pub fn min_entropy_bits(p: &Distribution) -> f64 {
    let max = p.max_probability();
    if max <= 0.0 {
        0.0
    } else {
        -max.log2()
    }
}

/// The Simpson/Herfindahl–Hirschman concentration index `Σ p_i²`, in
/// `[1/k, 1]`: the probability that two independently sampled units of
/// voting power share a configuration (and hence share every
/// configuration-level vulnerability). Regulators use > 0.25 as "highly
/// concentrated"; Example 1's Bitcoin distribution lands near 0.2.
#[must_use]
pub fn concentration_index(p: &Distribution) -> f64 {
    p.probabilities().iter().map(|&pi| pi * pi).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn renyi_rejects_bad_alpha() {
        let p = Distribution::uniform(2).unwrap();
        assert!(renyi_entropy_bits(&p, -1.0).is_err());
        assert!(renyi_entropy_bits(&p, f64::NAN).is_err());
    }

    #[test]
    fn renyi_is_monotone_nonincreasing_in_alpha() {
        let p = Distribution::from_weights(&[5.0, 3.0, 1.0, 1.0]).unwrap();
        let alphas = [0.0, 0.5, 1.0, 2.0, 5.0, f64::INFINITY];
        let hs: Vec<f64> = alphas
            .iter()
            .map(|&a| renyi_entropy_bits(&p, a).unwrap())
            .collect();
        for w in hs.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "Renyi must be non-increasing: {hs:?}");
        }
    }

    #[test]
    fn hartley_counts_support() {
        let p = Distribution::from_weights(&[1.0, 0.0, 2.0, 3.0]).unwrap();
        assert!(close(renyi_entropy_bits(&p, 0.0).unwrap(), 3f64.log2()));
    }

    #[test]
    fn alpha_one_matches_shannon() {
        let p = Distribution::from_weights(&[3.0, 2.0, 1.0]).unwrap();
        assert!(close(
            renyi_entropy_bits(&p, 1.0).unwrap(),
            crate::shannon::shannon_entropy_bits(&p)
        ));
        // And the limit from both sides approaches it.
        let near = renyi_entropy_bits(&p, 1.0001).unwrap();
        assert!((near - crate::shannon::shannon_entropy_bits(&p)).abs() < 1e-3);
    }

    #[test]
    fn min_entropy_tracks_dominant_share() {
        let p = Distribution::from_weights(&[1.0, 1.0, 2.0]).unwrap();
        assert!(close(min_entropy_bits(&p), 1.0)); // max share = 1/2
        let d = Distribution::degenerate(4, 0).unwrap();
        assert!(close(min_entropy_bits(&d), 0.0));
    }

    #[test]
    fn collision_entropy_and_concentration_agree() {
        let p = Distribution::from_weights(&[3.0, 1.0]).unwrap();
        assert!(close(
            renyi_entropy_bits(&p, 2.0).unwrap(),
            -concentration_index(&p).log2()
        ));
    }

    #[test]
    fn concentration_bounds() {
        let u = Distribution::uniform(10).unwrap();
        assert!(close(concentration_index(&u), 0.1));
        let d = Distribution::degenerate(10, 3).unwrap();
        assert!(close(concentration_index(&d), 1.0));
    }
}
