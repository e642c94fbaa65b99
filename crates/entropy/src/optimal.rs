//! Definition 1 (κ-optimal fault independence) and Definition 2
//! ((κ,ω)-optimal resilience) as checkable predicates.
//!
//! Paper §IV-A:
//!
//! > **Definition 1** (κ-optimal fault independence). For all κ ≤ k, a
//! > replica configuration distribution `p = (p_1, …, p_k)` achieves
//! > κ-optimal fault independence iff: `|p′| = κ` where
//! > `p′ = {∀ p_i ∈ p : p_i ≠ 0}`; and `∀ p_i, p_j ∈ p′, p_i = p_j`.
//!
//! Paper §IV-B:
//!
//! > **Definition 2** ((κ,ω)-optimal resilience). A system is (κ,ω)-optimal
//! > resilience if it is κ-optimal fault independence with configuration
//! > abundance of ω.

use crate::abundance::AbundanceVector;
use crate::dist::Distribution;
use crate::shannon::{max_entropy_bits, shannon_entropy_bits};

/// Default tolerance when comparing floating-point probability shares for
/// the equality condition of Definition 1.
const DEFAULT_TOLERANCE: f64 = 1e-9;

/// The verdict of checking a distribution against Definition 1.
#[derive(Debug, Clone, PartialEq)]
pub struct KappaOptimality {
    kappa: usize,
    uniform_on_support: bool,
    entropy_bits: f64,
    entropy_deficit_bits: f64,
}

impl KappaOptimality {
    /// Checks a distribution against Definition 1 with tolerance `tol`.
    ///
    /// The result records the realised `κ` (support size), whether the
    /// support is uniform, the achieved entropy, and the *entropy deficit*
    /// `log2 κ − H(p) ≥ 0` — how far the system is from the best
    /// fault independence achievable with its current number of used
    /// configurations.
    #[must_use]
    pub fn check(p: &Distribution, tol: f64) -> KappaOptimality {
        let kappa = p.support_size();
        let uniform = p.is_uniform_on_support(tol);
        let h = shannon_entropy_bits(p);
        KappaOptimality {
            kappa,
            uniform_on_support: uniform,
            entropy_bits: h,
            entropy_deficit_bits: (max_entropy_bits(kappa) - h).max(0.0),
        }
    }

    /// The realised number of used configurations `κ = |p′|`.
    #[must_use]
    pub fn kappa(&self) -> usize {
        self.kappa
    }

    /// `true` iff the distribution achieves κ-optimal fault independence
    /// for its own support size.
    #[must_use]
    pub fn is_optimal(&self) -> bool {
        self.uniform_on_support && self.kappa > 0
    }

    /// The achieved Shannon entropy in bits.
    #[must_use]
    pub fn entropy_bits(&self) -> f64 {
        self.entropy_bits
    }

    /// `log2 κ − H(p)`: zero iff κ-optimal.
    #[must_use]
    pub fn entropy_deficit_bits(&self) -> f64 {
        self.entropy_deficit_bits
    }
}

/// The verdict of checking an abundance vector against Definition 2.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalResilience {
    kappa: usize,
    omega: Option<u64>,
    kappa_optimal: bool,
}

impl OptimalResilience {
    /// Checks Definition 2 for an abundance vector: the relative abundance
    /// must be κ-optimal *and* every used configuration must have the same
    /// abundance ω.
    ///
    /// For integer abundances the two conditions coincide on the support
    /// (equal counts ⇒ equal shares), but the check is stated separately to
    /// match the paper and to stay meaningful when callers weight abundance
    /// by non-uniform per-replica power.
    #[must_use]
    pub fn check(a: &AbundanceVector) -> OptimalResilience {
        let omega = a.uniform_abundance();
        let kappa = a.support_size();
        let kappa_optimal = match a.relative() {
            Ok(rel) => KappaOptimality::check(rel.distribution(), DEFAULT_TOLERANCE).is_optimal(),
            Err(_) => false,
        };
        OptimalResilience {
            kappa,
            omega,
            kappa_optimal,
        }
    }

    /// The realised κ (used configurations).
    #[must_use]
    pub fn kappa(&self) -> usize {
        self.kappa
    }

    /// The realised ω, if abundance is uniform across used configurations.
    #[must_use]
    pub fn omega(&self) -> Option<u64> {
        self.omega
    }

    /// `true` iff the system is (κ,ω)-optimal for *some* κ and ω.
    #[must_use]
    pub fn is_optimal(&self) -> bool {
        self.kappa_optimal && self.omega.is_some() && self.kappa > 0
    }
}

/// The κ-optimal distribution closest to `p` that keeps `p`'s support:
/// uniform over `support(p)`, zero elsewhere. This is the target a
/// diversity manager should steer toward without forcing replicas onto new
/// configurations.
// lint: allow(unused-pub) paper-facing (Definition 1): the κ-optimal target whose entropy dominance entropy_properties checks
#[must_use]
pub fn nearest_kappa_optimal(p: &Distribution) -> Distribution {
    let support: Vec<usize> = p.support().map(|(i, _)| i).collect();
    if support.is_empty() {
        return p.clone();
    }
    let share = 1.0 / support.len() as f64;
    let mut probs = vec![0.0; p.dimension()];
    for i in support {
        probs[i] = share;
    }
    Distribution::from_probabilities(probs).expect("uniform-on-support is a valid distribution")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_kappa_optimal() {
        let p = Distribution::uniform(6).unwrap();
        let check = KappaOptimality::check(&p, DEFAULT_TOLERANCE);
        assert!(check.is_optimal());
        assert_eq!(check.kappa(), 6);
        assert!(check.entropy_deficit_bits() < 1e-12);
    }

    #[test]
    fn zeros_do_not_break_optimality() {
        // Definition 1 quantifies over the support p' only.
        let p = Distribution::from_weights(&[1.0, 0.0, 1.0, 0.0]).unwrap();
        let check = KappaOptimality::check(&p, DEFAULT_TOLERANCE);
        assert!(check.is_optimal());
        assert_eq!(check.kappa(), 2);
    }

    #[test]
    fn skew_breaks_optimality_and_shows_deficit() {
        let p = Distribution::from_weights(&[3.0, 1.0]).unwrap();
        let check = KappaOptimality::check(&p, DEFAULT_TOLERANCE);
        assert!(!check.is_optimal());
        assert!(check.entropy_deficit_bits() > 0.0);
        assert_eq!(check.kappa(), 2);
    }

    #[test]
    fn entropy_accessor_matches_direct_computation() {
        let p = Distribution::from_weights(&[3.0, 1.0]).unwrap();
        let check = KappaOptimality::check(&p, DEFAULT_TOLERANCE);
        assert!((check.entropy_bits() - shannon_entropy_bits(&p)).abs() < 1e-15);
    }

    #[test]
    fn definition2_uniform_abundance() {
        let a = AbundanceVector::uniform(4, 2).unwrap();
        let check = OptimalResilience::check(&a);
        assert!(check.is_optimal());
        assert_eq!(check.kappa(), 4);
        assert_eq!(check.omega(), Some(2));
    }

    #[test]
    fn definition2_rejects_skewed_abundance() {
        let a = AbundanceVector::new(vec![2, 2, 3]).unwrap();
        let check = OptimalResilience::check(&a);
        assert!(!check.is_optimal());
        assert_eq!(check.omega(), None);
    }

    #[test]
    fn definition2_classic_bft_is_kappa_one_optimal() {
        // "Traditional BFT-SMR systems … the configuration abundance is 1
        // for all configurations" (§IV-B).
        let a = AbundanceVector::unit(7).unwrap();
        let check = OptimalResilience::check(&a);
        assert!(check.is_optimal());
        assert_eq!((check.kappa(), check.omega()), (7, Some(1)));
    }

    #[test]
    fn definition2_empty_system_not_optimal() {
        let a = AbundanceVector::new(vec![0, 0]).unwrap();
        assert!(!OptimalResilience::check(&a).is_optimal());
    }

    #[test]
    fn nearest_kappa_optimal_uniformizes_support() {
        let p = Distribution::from_weights(&[5.0, 0.0, 1.0]).unwrap();
        let q = nearest_kappa_optimal(&p);
        assert_eq!(q.support_size(), 2);
        assert!(KappaOptimality::check(&q, DEFAULT_TOLERANCE).is_optimal());
        assert_eq!(q.probabilities()[1], 0.0);
    }

    #[test]
    fn nearest_kappa_optimal_fixed_point_on_optimal_input() {
        let p = Distribution::uniform(3).unwrap();
        let q = nearest_kappa_optimal(&p);
        assert!(p.total_variation(&q).unwrap() < 1e-12);
    }
}
