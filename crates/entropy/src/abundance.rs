//! Configuration abundance (paper §IV-B).
//!
//! "In ecology, abundance has been used to measure the number of individuals
//! found per sample. In this work, we use *configuration abundance* to define
//! the number of individuals per replica configuration, and *relative
//! configuration abundance* to represent the associated percent composition.
//! The former is useful for traditional BFT protocols, where the number of
//! replicas matters. The latter is particularly useful for Bitcoin-like
//! protocols, where the relative configuration abundance represents mining
//! power distribution."

use crate::dist::Distribution;
use crate::error::DistributionError;

/// Configuration abundance: how many individual replicas run each
/// configuration `d_i` of the space `D`.
///
/// A classic BFT deployment with one replica per unique configuration is
/// `AbundanceVector::unit(n)`; a permissionless system where the same
/// configuration is operated by `ω` distinct operators has abundance `ω` at
/// that configuration.
///
/// # Example
///
/// ```
/// use fi_entropy::AbundanceVector;
/// let a = AbundanceVector::new(vec![2, 2, 2])?;
/// assert_eq!(a.uniform_abundance(), Some(2));
/// // Relative abundance is uniform, so entropy is log2(3).
/// assert!((a.relative()?.distribution().shannon_entropy() - 3f64.log2()).abs() < 1e-12);
/// # Ok::<(), fi_entropy::DistributionError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbundanceVector {
    counts: Vec<u64>,
}

impl AbundanceVector {
    /// Creates an abundance vector from per-configuration replica counts.
    /// Zero counts are allowed (configurations present in `D` but unused).
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::Empty`] if `counts` is empty.
    pub fn new(counts: Vec<u64>) -> Result<Self, DistributionError> {
        if counts.is_empty() {
            return Err(DistributionError::Empty);
        }
        Ok(AbundanceVector { counts })
    }

    /// The classic-BFT abundance: `k` configurations, one replica each
    /// ("the configuration abundance is 1 for all configurations", §IV-B).
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::Empty`] if `k == 0`.
    pub fn unit(k: usize) -> Result<Self, DistributionError> {
        Self::new(vec![1; k])
    }

    /// Uniform abundance `ω` over `k` configurations — the shape required
    /// for (κ,ω)-optimal resilience (Definition 2).
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::Empty`] if `k == 0`.
    pub fn uniform(k: usize, omega: u64) -> Result<Self, DistributionError> {
        Self::new(vec![omega; k])
    }

    /// The per-configuration counts.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of configurations in the space (dimension `k`).
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.counts.len()
    }

    /// Number of configurations with at least one replica.
    #[must_use]
    pub fn support_size(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// If every *used* configuration has the same abundance, returns it
    /// (the `ω` of Definition 2); otherwise `None`.
    #[must_use]
    pub fn uniform_abundance(&self) -> Option<u64> {
        let mut nonzero = self.counts.iter().filter(|&&c| c > 0);
        let first = *nonzero.next()?;
        if nonzero.all(|&c| c == first) {
            Some(first)
        } else {
            None
        }
    }

    /// The relative configuration abundance: per-configuration share of
    /// individuals, as a probability distribution.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::ZeroTotalWeight`] if no configuration
    /// has any replicas.
    pub fn relative(&self) -> Result<RelativeAbundance, DistributionError> {
        Ok(RelativeAbundance {
            dist: Distribution::from_counts(&self.counts)?,
        })
    }

    /// Scales every count by `factor` — the "relative configuration
    /// abundance remains identical" branch of Proposition 1. Entropy is
    /// invariant under this operation.
    ///
    /// # Panics
    ///
    /// Panics if a count multiplication overflows `u64`.
    #[must_use]
    pub fn scaled(&self, factor: u64) -> AbundanceVector {
        AbundanceVector {
            counts: self
                .counts
                .iter()
                .map(|&c| c.checked_mul(factor).expect("abundance overflow"))
                .collect(),
        }
    }

    /// Returns a copy with `delta` more replicas at configuration `index` —
    /// the entropy-decreasing branch of Proposition 1 when applied to a
    /// κ-optimal vector.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::DimensionMismatch`] if `index` is out of
    /// range.
    pub fn increased(
        &self,
        index: usize,
        delta: u64,
    ) -> Result<AbundanceVector, DistributionError> {
        if index >= self.counts.len() {
            return Err(DistributionError::DimensionMismatch {
                expected: self.counts.len(),
                actual: index,
            });
        }
        let mut counts = self.counts.clone();
        counts[index] = counts[index]
            .checked_add(delta)
            .expect("abundance overflow");
        Ok(AbundanceVector { counts })
    }

    /// Shannon entropy (bits) of the relative abundance; `0.0` for an empty
    /// system.
    #[must_use]
    pub fn entropy_bits(&self) -> f64 {
        self.relative()
            .map(|r| r.distribution().shannon_entropy())
            .unwrap_or(0.0)
    }
}

/// The relative configuration abundance: a [`Distribution`] guaranteed to
/// have come from integer replica counts.
#[derive(Debug, Clone, PartialEq)]
pub struct RelativeAbundance {
    dist: Distribution,
}

impl RelativeAbundance {
    /// The underlying probability distribution.
    #[must_use]
    pub fn distribution(&self) -> &Distribution {
        &self.dist
    }
}

impl From<RelativeAbundance> for Distribution {
    fn from(r: RelativeAbundance) -> Distribution {
        r.dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn new_rejects_empty() {
        assert!(AbundanceVector::new(vec![]).is_err());
    }

    #[test]
    fn unit_is_one_each() {
        let a = AbundanceVector::unit(4).unwrap();
        assert_eq!(a.counts(), &[1, 1, 1, 1]);
        assert_eq!(a.uniform_abundance(), Some(1));
    }

    #[test]
    fn uniform_abundance_detection() {
        assert_eq!(
            AbundanceVector::new(vec![3, 3, 0, 3])
                .unwrap()
                .uniform_abundance(),
            Some(3),
            "zero-count configurations do not break omega-uniformity"
        );
        assert_eq!(
            AbundanceVector::new(vec![3, 2, 3])
                .unwrap()
                .uniform_abundance(),
            None
        );
        assert_eq!(
            AbundanceVector::new(vec![0, 0])
                .unwrap()
                .uniform_abundance(),
            None
        );
    }

    #[test]
    fn support_and_dimension() {
        let a = AbundanceVector::new(vec![1, 0, 2]).unwrap();
        assert_eq!(a.dimension(), 3);
        assert_eq!(a.support_size(), 2);
    }

    #[test]
    fn relative_abundance_is_normalized_counts() {
        let a = AbundanceVector::new(vec![1, 3]).unwrap();
        let r = a.relative().unwrap();
        assert!(close(r.distribution().probabilities()[0], 0.25));
        assert!(close(r.distribution().probabilities()[1], 0.75));
    }

    #[test]
    fn relative_of_empty_system_errors() {
        let a = AbundanceVector::new(vec![0, 0]).unwrap();
        assert!(a.relative().is_err());
    }

    #[test]
    fn scaling_preserves_entropy() {
        // Proposition 1's equality branch.
        let a = AbundanceVector::new(vec![2, 5, 3]).unwrap();
        let scaled = a.scaled(7);
        assert!(close(a.entropy_bits(), scaled.entropy_bits()));
        assert_eq!(scaled.counts(), &[14, 35, 21]);
    }

    #[test]
    fn skewed_increase_decreases_entropy_from_uniform() {
        // Proposition 1's strict branch, from a kappa-optimal start.
        let a = AbundanceVector::uniform(4, 2).unwrap();
        let h0 = a.entropy_bits();
        let bumped = a.increased(0, 3).unwrap();
        assert!(bumped.entropy_bits() < h0);
    }

    #[test]
    fn increased_rejects_out_of_range() {
        let a = AbundanceVector::unit(2).unwrap();
        assert!(a.increased(5, 1).is_err());
    }

    #[test]
    fn entropy_of_empty_is_zero() {
        let a = AbundanceVector::new(vec![0]).unwrap();
        assert_eq!(a.entropy_bits(), 0.0);
    }

    #[test]
    fn relative_abundance_converts_into_distribution() {
        let a = AbundanceVector::new(vec![1, 1]).unwrap();
        let d: Distribution = a.relative().unwrap().into();
        assert_eq!(d, Distribution::uniform(2).unwrap());
    }
}
