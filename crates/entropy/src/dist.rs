//! Validated probability distributions over the configuration space `D`.
//!
//! The paper (§IV-A): "Let `p = (p_1, …, p_k)` be a probability distribution
//! of `D` on `k` replica configurations … `p_i` represents the ratio of
//! replicas having configuration `d_i`." For Bitcoin-like systems `p_i` is a
//! share of voting power (relative configuration abundance); for classic BFT
//! it is a share of replica count.

use crate::error::DistributionError;

/// How far from exactly 1.0 a probability vector may sum and still be
/// accepted by [`Distribution::from_probabilities`]. Inputs within the
/// tolerance are renormalized exactly.
const NORMALIZATION_TOLERANCE: f64 = 1e-9;

/// A probability distribution `p = (p_1, …, p_k)` over `k` configurations.
///
/// Invariants (enforced at construction):
/// * at least one entry,
/// * every entry finite and `≥ 0`,
/// * entries sum to 1 (renormalized exactly after validation).
///
/// Zero entries are allowed and meaningful: the paper defines
/// `log(1/0) := 0`, i.e. unused configurations contribute nothing to
/// entropy but still count toward the dimension `k` of the configuration
/// space.
///
/// # Example
///
/// ```
/// use fi_entropy::Distribution;
/// let p = Distribution::from_weights(&[3.0, 1.0, 0.0])?;
/// assert_eq!(p.dimension(), 3);
/// assert_eq!(p.support_size(), 2);
/// assert!((p.probabilities()[0] - 0.75).abs() < 1e-12);
/// # Ok::<(), fi_entropy::DistributionError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Distribution {
    probs: Vec<f64>,
}

impl Distribution {
    /// Builds a distribution from explicit probabilities.
    ///
    /// # Errors
    ///
    /// * [`DistributionError::Empty`] if `probs` is empty;
    /// * [`DistributionError::InvalidProbability`] if any entry is negative,
    ///   NaN, or infinite;
    /// * [`DistributionError::NotNormalized`] if the sum deviates from 1 by
    ///   more than 1e-9 (inputs within it are renormalized exactly).
    pub fn from_probabilities(probs: Vec<f64>) -> Result<Self, DistributionError> {
        Self::validate_entries(&probs)?;
        let sum: f64 = probs.iter().sum();
        if (sum - 1.0).abs() > NORMALIZATION_TOLERANCE {
            return Err(DistributionError::NotNormalized { sum });
        }
        Ok(Self::renormalized(probs, sum))
    }

    /// Builds a distribution by normalizing non-negative weights.
    ///
    /// # Errors
    ///
    /// * [`DistributionError::Empty`] if `weights` is empty;
    /// * [`DistributionError::InvalidProbability`] for negative/non-finite
    ///   entries;
    /// * [`DistributionError::ZeroTotalWeight`] if every weight is zero.
    pub fn from_weights(weights: &[f64]) -> Result<Self, DistributionError> {
        Self::validate_entries(weights)?;
        let sum: f64 = weights.iter().sum();
        if sum <= 0.0 {
            return Err(DistributionError::ZeroTotalWeight);
        }
        Ok(Self::renormalized(weights.to_vec(), sum))
    }

    /// Builds a distribution from integer counts (configuration abundance).
    ///
    /// # Errors
    ///
    /// * [`DistributionError::Empty`] / [`DistributionError::ZeroTotalWeight`]
    ///   as for [`from_weights`](Self::from_weights).
    pub fn from_counts(counts: &[u64]) -> Result<Self, DistributionError> {
        if counts.is_empty() {
            return Err(DistributionError::Empty);
        }
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return Err(DistributionError::ZeroTotalWeight);
        }
        Ok(Distribution {
            probs: counts.iter().map(|&c| c as f64 / total as f64).collect(),
        })
    }

    /// The uniform distribution over `k` configurations — the entropy
    /// maximizer for fixed `k` (paper §IV-A, first maximization condition).
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::Empty`] if `k == 0`.
    pub fn uniform(k: usize) -> Result<Self, DistributionError> {
        if k == 0 {
            return Err(DistributionError::Empty);
        }
        Ok(Distribution {
            probs: vec![1.0 / k as f64; k],
        })
    }

    /// A point mass on configuration `index` of a `k`-dimensional space —
    /// the zero-entropy monoculture.
    ///
    /// # Errors
    ///
    /// * [`DistributionError::Empty`] if `k == 0`;
    /// * [`DistributionError::DimensionMismatch`] if `index >= k`.
    #[cfg(test)]
    pub(crate) fn degenerate(k: usize, index: usize) -> Result<Self, DistributionError> {
        if k == 0 {
            return Err(DistributionError::Empty);
        }
        if index >= k {
            return Err(DistributionError::DimensionMismatch {
                expected: k,
                actual: index,
            });
        }
        let mut probs = vec![0.0; k];
        probs[index] = 1.0;
        Ok(Distribution { probs })
    }

    fn validate_entries(entries: &[f64]) -> Result<(), DistributionError> {
        if entries.is_empty() {
            return Err(DistributionError::Empty);
        }
        for (index, &value) in entries.iter().enumerate() {
            if !value.is_finite() || value < 0.0 {
                return Err(DistributionError::InvalidProbability { index, value });
            }
        }
        Ok(())
    }

    fn renormalized(mut probs: Vec<f64>, sum: f64) -> Self {
        for p in &mut probs {
            *p /= sum;
        }
        Distribution { probs }
    }

    /// The probabilities, in configuration order.
    #[must_use]
    pub fn probabilities(&self) -> &[f64] {
        &self.probs
    }

    /// The dimension `k` of the configuration space (including zero
    /// entries).
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.probs.len()
    }

    /// The number of configurations actually in use (`|p′|` in
    /// Definition 1): entries with non-zero probability.
    #[must_use]
    pub fn support_size(&self) -> usize {
        self.probs.iter().filter(|&&p| p > 0.0).count()
    }

    /// Iterates over `(index, probability)` pairs of the support.
    pub fn support(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.probs
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, p)| p > 0.0)
    }

    /// The largest probability — the voting-power share of the dominant
    /// configuration (the oligopoly head in Example 1).
    #[must_use]
    pub fn max_probability(&self) -> f64 {
        self.probs.iter().copied().fold(0.0, f64::max)
    }

    /// Appends `extra` zero-probability configurations (growing `k` without
    /// changing the distribution's mass). Useful for comparing spaces of
    /// different abundance.
    // lint: allow(unused-pub) paper-facing: padding with unused configurations leaves entropy unchanged, a property entropy_properties checks
    #[must_use]
    pub fn padded(&self, extra: usize) -> Distribution {
        let mut probs = self.probs.clone();
        probs.extend(std::iter::repeat_n(0.0, extra));
        Distribution { probs }
    }

    /// Groups outcomes: each entry of `groups` is a set of indices whose
    /// probabilities are summed into one outcome of the result. Models
    /// *delegation* (§III): many replicas collapsing onto one effective
    /// configuration (an exchange, a mining pool).
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::DimensionMismatch`] if any index is out
    /// of range, and [`DistributionError::Empty`] if `groups` is empty.
    /// Indices may not repeat across groups and every index must be covered;
    /// otherwise the result would not be a distribution.
    // lint: allow(unused-pub) paper-facing (§III): delegation as grouping, which entropy_properties shows never raises entropy
    pub fn grouped(&self, groups: &[Vec<usize>]) -> Result<Distribution, DistributionError> {
        if groups.is_empty() {
            return Err(DistributionError::Empty);
        }
        let mut seen = vec![false; self.probs.len()];
        let mut probs = Vec::with_capacity(groups.len());
        for group in groups {
            let mut sum = 0.0;
            for &i in group {
                if i >= self.probs.len() {
                    return Err(DistributionError::DimensionMismatch {
                        expected: self.probs.len(),
                        actual: i,
                    });
                }
                if seen[i] {
                    return Err(DistributionError::InvalidProbability {
                        index: i,
                        value: self.probs[i],
                    });
                }
                seen[i] = true;
                sum += self.probs[i];
            }
            probs.push(sum);
        }
        if !seen.iter().all(|&s| s) {
            return Err(DistributionError::NotNormalized {
                sum: probs.iter().sum(),
            });
        }
        Ok(Distribution { probs })
    }

    /// Mixes two distributions over the same space:
    /// `λ·self + (1−λ)·other`.
    ///
    /// # Errors
    ///
    /// * [`DistributionError::DimensionMismatch`] if dimensions differ;
    /// * [`DistributionError::InvalidProbability`] if `lambda ∉ [0, 1]`.
    // lint: allow(unused-pub) paper-facing: the mixtures entropy_properties checks entropy's concavity on
    pub fn mixed(
        &self,
        other: &Distribution,
        lambda: f64,
    ) -> Result<Distribution, DistributionError> {
        if self.dimension() != other.dimension() {
            return Err(DistributionError::DimensionMismatch {
                expected: self.dimension(),
                actual: other.dimension(),
            });
        }
        if !(0.0..=1.0).contains(&lambda) || !lambda.is_finite() {
            return Err(DistributionError::InvalidProbability {
                index: 0,
                value: lambda,
            });
        }
        let probs = self
            .probs
            .iter()
            .zip(&other.probs)
            .map(|(&a, &b)| lambda * a + (1.0 - lambda) * b)
            .collect();
        Ok(Distribution { probs })
    }

    /// Total variation distance `½ Σ |p_i − q_i|` to another distribution
    /// over the same space.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::DimensionMismatch`] if dimensions
    /// differ.
    pub fn total_variation(&self, other: &Distribution) -> Result<f64, DistributionError> {
        if self.dimension() != other.dimension() {
            return Err(DistributionError::DimensionMismatch {
                expected: self.dimension(),
                actual: other.dimension(),
            });
        }
        Ok(self
            .probs
            .iter()
            .zip(&other.probs)
            .map(|(&a, &b)| (a - b).abs())
            .sum::<f64>()
            / 2.0)
    }

    /// Whether the distribution is uniform over its support within `tol`
    /// (Definition 1's second condition).
    #[must_use]
    pub fn is_uniform_on_support(&self, tol: f64) -> bool {
        let support: Vec<f64> = self.probs.iter().copied().filter(|&p| p > 0.0).collect();
        if support.is_empty() {
            return false;
        }
        let expect = 1.0 / support.len() as f64;
        support.iter().all(|&p| (p - expect).abs() <= tol)
    }

    /// Shannon entropy in bits (convenience; see [`crate::shannon`]).
    #[must_use]
    pub fn shannon_entropy(&self) -> f64 {
        crate::shannon::shannon_entropy_bits(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn from_probabilities_accepts_valid() {
        let p = Distribution::from_probabilities(vec![0.5, 0.25, 0.25]).unwrap();
        assert_eq!(p.dimension(), 3);
    }

    #[test]
    fn from_probabilities_rejects_empty() {
        assert_eq!(
            Distribution::from_probabilities(vec![]),
            Err(DistributionError::Empty)
        );
    }

    #[test]
    fn from_probabilities_rejects_negative() {
        let err = Distribution::from_probabilities(vec![1.2, -0.2]).unwrap_err();
        assert!(matches!(
            err,
            DistributionError::InvalidProbability { index: 1, .. }
        ));
    }

    #[test]
    fn from_probabilities_rejects_nan() {
        assert!(Distribution::from_probabilities(vec![f64::NAN, 1.0]).is_err());
    }

    #[test]
    fn from_probabilities_rejects_unnormalized() {
        assert!(matches!(
            Distribution::from_probabilities(vec![0.5, 0.4]),
            Err(DistributionError::NotNormalized { .. })
        ));
    }

    #[test]
    fn from_probabilities_renormalizes_tiny_drift() {
        let drift = vec![0.5 + 1e-12, 0.5];
        let p = Distribution::from_probabilities(drift).unwrap();
        assert!(close(p.probabilities().iter().sum::<f64>(), 1.0));
    }

    #[test]
    fn from_weights_normalizes() {
        let p = Distribution::from_weights(&[2.0, 6.0]).unwrap();
        assert!(close(p.probabilities()[0], 0.25));
        assert!(close(p.probabilities()[1], 0.75));
    }

    #[test]
    fn from_weights_rejects_all_zero() {
        assert_eq!(
            Distribution::from_weights(&[0.0, 0.0]),
            Err(DistributionError::ZeroTotalWeight)
        );
    }

    #[test]
    fn uniform_properties() {
        let u = Distribution::uniform(4).unwrap();
        assert_eq!(u.dimension(), 4);
        assert_eq!(u.support_size(), 4);
        assert!(u.is_uniform_on_support(1e-15));
        assert!(Distribution::uniform(0).is_err());
    }

    #[test]
    fn degenerate_has_singleton_support() {
        let d = Distribution::degenerate(5, 2).unwrap();
        assert_eq!(d.support_size(), 1);
        assert!(close(d.probabilities()[2], 1.0));
        assert!(Distribution::degenerate(3, 3).is_err());
        assert!(Distribution::degenerate(0, 0).is_err());
    }

    #[test]
    fn support_iterator_skips_zeros() {
        let p = Distribution::from_weights(&[1.0, 0.0, 3.0]).unwrap();
        let support: Vec<usize> = p.support().map(|(i, _)| i).collect();
        assert_eq!(support, vec![0, 2]);
        assert_eq!(p.support_size(), 2);
    }

    #[test]
    fn max_probability_finds_head() {
        let p = Distribution::from_weights(&[1.0, 5.0, 2.0]).unwrap();
        assert!(close(p.max_probability(), 5.0 / 8.0));
    }

    #[test]
    fn padded_preserves_entropy_and_grows_dimension() {
        let p = Distribution::uniform(2).unwrap();
        let padded = p.padded(3);
        assert_eq!(padded.dimension(), 5);
        assert_eq!(padded.support_size(), 2);
        assert!(close(padded.shannon_entropy(), 1.0));
    }

    #[test]
    fn grouped_models_delegation() {
        // Four miners, two pools: grouping halves the support.
        let p = Distribution::uniform(4).unwrap();
        let pools = p.grouped(&[vec![0, 1], vec![2, 3]]).unwrap();
        assert_eq!(pools.dimension(), 2);
        assert!(close(pools.shannon_entropy(), 1.0));
        // Entropy never increases under grouping.
        assert!(pools.shannon_entropy() <= p.shannon_entropy());
    }

    #[test]
    fn grouped_rejects_partial_cover() {
        let p = Distribution::uniform(3).unwrap();
        assert!(p.grouped(&[vec![0, 1]]).is_err());
    }

    #[test]
    fn grouped_rejects_duplicates_and_out_of_range() {
        let p = Distribution::uniform(3).unwrap();
        assert!(p.grouped(&[vec![0, 0], vec![1, 2]]).is_err());
        assert!(p.grouped(&[vec![0, 5], vec![1, 2]]).is_err());
        assert!(p.grouped(&[]).is_err());
    }

    #[test]
    fn mixed_interpolates() {
        let a = Distribution::degenerate(2, 0).unwrap();
        let b = Distribution::degenerate(2, 1).unwrap();
        let m = a.mixed(&b, 0.25).unwrap();
        assert!(close(m.probabilities()[0], 0.25));
        assert!(close(m.probabilities()[1], 0.75));
        assert!(a.mixed(&b, 1.5).is_err());
        let c = Distribution::uniform(3).unwrap();
        assert!(a.mixed(&c, 0.5).is_err());
    }

    #[test]
    fn total_variation_basics() {
        let a = Distribution::degenerate(2, 0).unwrap();
        let b = Distribution::degenerate(2, 1).unwrap();
        assert!(close(a.total_variation(&b).unwrap(), 1.0));
        assert!(close(a.total_variation(&a).unwrap(), 0.0));
        let c = Distribution::uniform(3).unwrap();
        assert!(a.total_variation(&c).is_err());
    }

    #[test]
    fn is_uniform_on_support_with_zeros() {
        let p = Distribution::from_weights(&[1.0, 0.0, 1.0]).unwrap();
        assert!(p.is_uniform_on_support(1e-12));
        let q = Distribution::from_weights(&[1.0, 0.0, 2.0]).unwrap();
        assert!(!q.is_uniform_on_support(1e-12));
    }
}
