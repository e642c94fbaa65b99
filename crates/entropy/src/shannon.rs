//! Shannon entropy of configuration distributions (paper §IV-A).
//!
//! `H(p) = −Σ_{i∈[k]} p_i log p_i = Σ p_i log (1/p_i)`, with the paper's
//! convention `log(1/0) := 0` (zero-probability configurations contribute
//! nothing). Every function here works in base-2 logarithms (bits), which
//! is what makes the paper's "8 uniform replicas ⇒ entropy 3" comparison
//! line up.

use crate::dist::Distribution;

/// Pins a computed entropy's degenerate cases to exactly `+0.0`.
///
/// Entropy is mathematically non-negative, but floating-point evaluation can
/// produce `-0.0` (a degenerate distribution's `−1·log 1` term) or stray a
/// few ulps below zero (the incremental `log2 W − S/W` identity near a point
/// mass). Every entropy-returning path in this crate funnels its result
/// through this one helper so no caller ever observes a negative sign bit.
///
/// `NaN` inputs propagate unchanged (they indicate a caller bug, not a
/// degenerate distribution).
#[must_use]
pub fn normalized_entropy(h: f64) -> f64 {
    if h <= 0.0 {
        0.0
    } else {
        h
    }
}

/// Shannon entropy of `p` in bits, using `log(1/0) := 0`.
///
/// # Example
///
/// ```
/// use fi_entropy::{shannon_entropy_bits, Distribution};
/// let bft8 = Distribution::uniform(8)?;
/// assert!((shannon_entropy_bits(&bft8) - 3.0).abs() < 1e-12);
/// # Ok::<(), fi_entropy::DistributionError>(())
/// ```
#[must_use]
pub fn shannon_entropy_bits(p: &Distribution) -> f64 {
    let h: f64 = p
        .probabilities()
        .iter()
        .filter(|&&pi| pi > 0.0)
        .map(|&pi| -pi * pi.log2())
        .sum();
    normalized_entropy(h)
}

/// The maximum achievable entropy (bits) for a space of `k` configurations:
/// `log2 k`, attained exactly by the uniform distribution.
///
/// Returns `0.0` for `k = 0` (an empty space carries no uncertainty).
#[must_use]
pub fn max_entropy_bits(k: usize) -> f64 {
    if k == 0 {
        0.0
    } else {
        (k as f64).log2()
    }
}

/// Pielou evenness: `H(p) / log |support(p)| ∈ [0, 1]`, the fraction of the
/// achievable entropy realised on the used configurations. `1.0` iff the
/// distribution is uniform on its support (Definition 1's equality
/// condition); defined as `1.0` for a single-configuration system.
#[must_use]
pub fn evenness(p: &Distribution) -> f64 {
    let support = p.support_size();
    if support <= 1 {
        return 1.0;
    }
    shannon_entropy_bits(p) / max_entropy_bits(support)
}

/// The *effective number of configurations* `2^H(p)` (the Hill number of
/// order 1, perplexity). This is the size of the uniform system with the
/// same diversity: Bitcoin's Example-1 distribution has an effective
/// configuration count below 8 even with hundreds of miners.
///
/// # Example
///
/// ```
/// use fi_entropy::{effective_configurations, Distribution};
/// let u = Distribution::uniform(16)?;
/// assert!((effective_configurations(&u) - 16.0).abs() < 1e-9);
/// # Ok::<(), fi_entropy::DistributionError>(())
/// ```
#[must_use]
pub fn effective_configurations(p: &Distribution) -> f64 {
    shannon_entropy_bits(p).exp2()
}

/// Kullback–Leibler divergence `D(p‖q)` in bits; `+∞` when `p` puts mass
/// where `q` does not.
///
/// # Errors
///
/// Returns [`crate::DistributionError::DimensionMismatch`] when dimensions
/// differ.
// lint: allow(unused-pub) paper-facing: the divergence from uniform behind the entropy gap, checked non-negative by entropy_properties
pub fn kl_divergence_bits(
    p: &Distribution,
    q: &Distribution,
) -> Result<f64, crate::DistributionError> {
    if p.dimension() != q.dimension() {
        return Err(crate::DistributionError::DimensionMismatch {
            expected: p.dimension(),
            actual: q.dimension(),
        });
    }
    let mut d = 0.0;
    for (&pi, &qi) in p.probabilities().iter().zip(q.probabilities()) {
        if pi > 0.0 {
            if qi == 0.0 {
                return Ok(f64::INFINITY);
            }
            d += pi * (pi / qi).log2();
        }
    }
    Ok(d.max(0.0))
}

/// The entropy gap to uniformity: `log2 k − H(p) = D(p ‖ uniform_k) ≥ 0`.
/// Zero iff `p` is uniform over the full space; this is the quantity a
/// diversity manager should drive to zero.
// lint: allow(unused-pub) paper-facing: `log2 k − H(p)`, the entropy deficit entropy_properties equates with the KL divergence to uniform
#[must_use]
pub fn uniformity_gap_bits(p: &Distribution) -> f64 {
    (max_entropy_bits(p.dimension()) - shannon_entropy_bits(p)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn uniform_entropy_is_log_k() {
        for k in 1..=64 {
            let p = Distribution::uniform(k).unwrap();
            assert!(
                close(shannon_entropy_bits(&p), (k as f64).log2()),
                "k = {k}"
            );
        }
    }

    #[test]
    fn paper_comparison_eight_replicas_is_three_bits() {
        // §IV-B: "when considering BFT protocols with 8 replicas, the
        // entropy is already higher (entropy is 3)".
        let p = Distribution::uniform(8).unwrap();
        assert!(close(shannon_entropy_bits(&p), 3.0));
    }

    #[test]
    fn degenerate_entropy_is_zero_and_positive_zero() {
        let p = Distribution::degenerate(4, 1).unwrap();
        let h = shannon_entropy_bits(&p);
        assert_eq!(h, 0.0);
        assert!(h.is_sign_positive());
    }

    #[test]
    fn normalized_entropy_pins_degenerate_signs() {
        // Regression for the −0.0 quirk: the fix lives in one place now, so
        // both the batch path and the incremental accumulator inherit it.
        assert!(normalized_entropy(-0.0).is_sign_positive());
        assert_eq!(normalized_entropy(-0.0), 0.0);
        // A few ulps of negative rounding noise are pinned to zero too.
        assert_eq!(normalized_entropy(-1e-16), 0.0);
        assert_eq!(normalized_entropy(1.5), 1.5);
        assert!(normalized_entropy(f64::NAN).is_nan());
    }

    #[test]
    fn zeros_are_inert() {
        let p = Distribution::from_weights(&[1.0, 1.0]).unwrap();
        let q = Distribution::from_weights(&[1.0, 1.0, 0.0, 0.0]).unwrap();
        assert!(close(shannon_entropy_bits(&p), shannon_entropy_bits(&q)));
    }

    #[test]
    fn entropy_bounded_by_log_support() {
        let p = Distribution::from_weights(&[5.0, 3.0, 2.0, 0.0]).unwrap();
        let h = shannon_entropy_bits(&p);
        assert!(h > 0.0);
        assert!(h <= max_entropy_bits(p.support_size()) + 1e-12);
    }

    #[test]
    fn max_entropy_edge_cases() {
        assert_eq!(max_entropy_bits(0), 0.0);
        assert_eq!(max_entropy_bits(1), 0.0);
        assert!(close(max_entropy_bits(8), 3.0));
    }

    #[test]
    fn evenness_is_one_for_uniform_and_singletons() {
        assert!(close(evenness(&Distribution::uniform(5).unwrap()), 1.0));
        assert!(close(
            evenness(&Distribution::degenerate(3, 0).unwrap()),
            1.0
        ));
        let skewed = Distribution::from_weights(&[9.0, 1.0]).unwrap();
        assert!(evenness(&skewed) < 1.0);
        assert!(evenness(&skewed) > 0.0);
    }

    #[test]
    fn effective_configurations_matches_uniform_equivalent() {
        let p = Distribution::from_weights(&[1.0, 1.0, 1.0, 1.0]).unwrap();
        assert!(close(effective_configurations(&p), 4.0));
        let degenerate = Distribution::degenerate(9, 0).unwrap();
        assert!(close(effective_configurations(&degenerate), 1.0));
    }

    #[test]
    fn kl_divergence_properties() {
        let p = Distribution::from_weights(&[3.0, 1.0]).unwrap();
        let u = Distribution::uniform(2).unwrap();
        assert!(close(kl_divergence_bits(&p, &p).unwrap(), 0.0));
        assert!(kl_divergence_bits(&p, &u).unwrap() > 0.0);
        // Mass where q has none => infinite divergence.
        let q = Distribution::degenerate(2, 0).unwrap();
        assert!(kl_divergence_bits(&p, &q).unwrap().is_infinite());
        let r = Distribution::uniform(3).unwrap();
        assert!(kl_divergence_bits(&p, &r).is_err());
    }

    #[test]
    fn uniformity_gap_is_kl_to_uniform() {
        let p = Distribution::from_weights(&[3.0, 1.0]).unwrap();
        let u = Distribution::uniform(2).unwrap();
        assert!(close(
            uniformity_gap_bits(&p),
            kl_divergence_bits(&p, &u).unwrap()
        ));
        assert!(close(uniformity_gap_bits(&u), 0.0));
    }

    #[test]
    fn grouping_never_increases_entropy() {
        // Data-processing inequality, which underlies the delegation
        // argument (§III): pooling always loses diversity.
        let p = Distribution::from_weights(&[4.0, 3.0, 2.0, 1.0]).unwrap();
        let g = p.grouped(&[vec![0, 3], vec![1, 2]]).unwrap();
        assert!(shannon_entropy_bits(&g) <= shannon_entropy_bits(&p) + 1e-12);
    }
}
