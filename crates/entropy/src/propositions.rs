//! The paper's Propositions 1–3 as executable, numerically checked
//! statements.
//!
//! Each function evaluates the proposition's premise and conclusion on
//! concrete inputs and returns a structured outcome containing the measured
//! quantities and a boolean verdict. The benches in `fi-bench` sweep these
//! over parameter ranges (experiments E3–E5); the property tests in this
//! crate check them on randomly generated inputs.

use crate::abundance::AbundanceVector;
use crate::dist::Distribution;
use crate::error::DistributionError;
use crate::optimal::KappaOptimality;
use crate::shannon::{max_entropy_bits, shannon_entropy_bits};

/// Tolerance for "entropy unchanged" comparisons.
const ENTROPY_TOLERANCE: f64 = 1e-9;

/// Outcome of checking **Proposition 1**: "For κ-optimal fault independence
/// system, increasing configuration abundance decreases entropy, unless the
/// relative configuration abundance remains identical."
#[derive(Debug, Clone, PartialEq)]
pub struct Prop1Outcome {
    /// Entropy (bits) of the κ-optimal starting point.
    pub entropy_before: f64,
    /// Entropy (bits) after the abundance increase.
    pub entropy_after: f64,
    /// Whether the increase preserved relative configuration abundance.
    pub relative_unchanged: bool,
    /// Whether the measured entropies satisfy the proposition.
    pub holds: bool,
}

/// Checks Proposition 1 on a κ-optimal abundance vector and a vector of
/// per-configuration increments.
///
/// # Errors
///
/// * [`DistributionError::DimensionMismatch`] if `increments` has a
///   different dimension than `base`;
/// * [`DistributionError::InvalidProbability`] if `base` is not κ-optimal
///   (the proposition's premise — index 0 is reported).
///
/// # Example
///
/// ```
/// use fi_entropy::{propositions::check_proposition1, AbundanceVector};
/// let base = AbundanceVector::uniform(4, 2)?;
/// // Skewed increase: entropy must strictly decrease.
/// let skew = check_proposition1(&base, &[4, 0, 0, 0]).unwrap();
/// assert!(skew.holds && skew.entropy_after < skew.entropy_before);
/// // Proportional increase: entropy unchanged.
/// let prop = check_proposition1(&base, &[2, 2, 2, 2]).unwrap();
/// assert!(prop.holds && prop.relative_unchanged);
/// # Ok::<(), fi_entropy::DistributionError>(())
/// ```
pub fn check_proposition1(
    base: &AbundanceVector,
    increments: &[u64],
) -> Result<Prop1Outcome, DistributionError> {
    if increments.len() != base.dimension() {
        return Err(DistributionError::DimensionMismatch {
            expected: base.dimension(),
            actual: increments.len(),
        });
    }
    let rel_before = base.relative()?;
    let before_check = KappaOptimality::check(rel_before.distribution(), ENTROPY_TOLERANCE);
    if !before_check.is_optimal() {
        return Err(DistributionError::InvalidProbability {
            index: 0,
            value: before_check.entropy_deficit_bits(),
        });
    }

    let mut after = base.clone();
    for (i, &delta) in increments.iter().enumerate() {
        if delta > 0 {
            after = after.increased(i, delta)?;
        }
    }
    let rel_after = after.relative()?;
    let entropy_before = shannon_entropy_bits(rel_before.distribution());
    let entropy_after = shannon_entropy_bits(rel_after.distribution());
    let relative_unchanged = rel_before
        .distribution()
        .total_variation(rel_after.distribution())?
        < ENTROPY_TOLERANCE;

    let holds = if relative_unchanged {
        (entropy_after - entropy_before).abs() <= ENTROPY_TOLERANCE
    } else {
        entropy_after < entropy_before + ENTROPY_TOLERANCE
    };

    Ok(Prop1Outcome {
        entropy_before,
        entropy_after,
        relative_unchanged,
        holds,
    })
}

/// Outcome of checking **Proposition 2**: "Assuming each replica has a
/// unique configuration, having more replicas does not provide more
/// resilience, unless the relative configuration abundances are identical."
///
/// Resilience here is the paper's entropy measure: Example 1 shows Bitcoin
/// with hundreds of miners staying below the 3 bits of an 8-replica uniform
/// BFT system, because the oligopoly head pins the entropy down.
#[derive(Debug, Clone, PartialEq)]
pub struct Prop2Outcome {
    /// Entropy (bits) before adding replicas.
    pub entropy_before: f64,
    /// Entropy (bits) after adding replicas.
    pub entropy_after: f64,
    /// `log2 n` over the `n` replicas after adding — what a fully
    /// equalised system would reach.
    pub uniform_bound: f64,
    /// Entropy actually gained by adding the replicas.
    pub entropy_gain: f64,
    /// Upper bound on the achievable gain while the incumbents' *relative*
    /// shares stay fixed: the gain attained by spreading exactly the added
    /// mass uniformly (what Figure 1 sweeps).
    pub head_limited_bound: f64,
    /// Whether the added replicas equalised all shares.
    // lint: allow(unread-field) Proposition 2's "unless equalised" case: prop2_equalized_addition_reaches_bound and integration_propositions read it
    pub equalized: bool,
    /// Whether the measured quantities satisfy the proposition.
    pub holds: bool,
}

/// Checks Proposition 2: adds `added_weights` as new unique-configuration
/// replicas to a system whose incumbents hold `base_weights`, and verifies
/// that entropy stays strictly below the uniform bound `log2 n` unless all
/// relative shares become identical.
///
/// # Errors
///
/// Propagates [`DistributionError`] from distribution construction (e.g.
/// empty or all-zero inputs).
pub fn check_proposition2(
    base_weights: &[f64],
    added_weights: &[f64],
) -> Result<Prop2Outcome, DistributionError> {
    let before = Distribution::from_weights(base_weights)?;
    let mut all = base_weights.to_vec();
    all.extend_from_slice(added_weights);
    let after = Distribution::from_weights(&all)?;

    let entropy_before = shannon_entropy_bits(&before);
    let entropy_after = shannon_entropy_bits(&after);
    let uniform_bound = max_entropy_bits(after.support_size());
    let equalized = after.is_uniform_on_support(ENTROPY_TOLERANCE);

    // With incumbents' relative shares fixed, the best the newcomers can do
    // is spread their total mass uniformly among themselves; that is the
    // Figure-1 best case.
    let added_total: f64 = added_weights.iter().sum();
    let head_limited_bound = if added_total > 0.0 && !added_weights.is_empty() {
        let mut best = base_weights.to_vec();
        let share = added_total / added_weights.len() as f64;
        best.extend(std::iter::repeat_n(share, added_weights.len()));
        shannon_entropy_bits(&Distribution::from_weights(&best)?) - entropy_before
    } else {
        0.0
    };

    let holds = if equalized {
        // The exception branch: equalised shares may reach the bound.
        entropy_after <= uniform_bound + ENTROPY_TOLERANCE
    } else {
        entropy_after < uniform_bound - ENTROPY_TOLERANCE
    };

    Ok(Prop2Outcome {
        entropy_before,
        entropy_after,
        uniform_bound,
        entropy_gain: entropy_after - entropy_before,
        head_limited_bound,
        equalized,
        holds,
    })
}

/// One row of the **Proposition 3** trade-off: "Higher configuration
/// abundance improves the resilience of permissionless blockchains" — at
/// the cost of proportionally more messages (§IV-B's closing trade-off).
///
/// The adversary here is the paper's *malicious operator*: an operator who
/// turns Byzantine for profit controls only the replicas it operates, not
/// other replicas sharing its configuration. With κ configurations at
/// abundance ω (one operator per replica, equal power), one malicious
/// operator controls `1/(κ·ω)` of the power, while one exploited
/// *vulnerability* still controls `1/κ`.
#[derive(Debug, Clone, PartialEq)]
pub struct Prop3Row {
    /// Configuration abundance ω.
    pub omega: u64,
    /// Total number of replicas `κ·ω`.
    pub replicas: u64,
    /// Voting-power share controlled by a single malicious operator.
    pub operator_share: f64,
    /// Voting-power share compromised by one configuration-level
    /// vulnerability (unchanged by ω).
    pub vulnerability_share: f64,
    /// Messages per PBFT-style three-phase round, `O(n²)`: the overhead the
    /// paper says "is also increasing proportionally".
    pub messages_per_round: u64,
}

/// Sweeps the Proposition 3 trade-off over abundances `1..=max_omega` for a
/// (κ,ω)-optimal system.
///
/// # Errors
///
/// Returns [`DistributionError::Empty`] if `kappa == 0` or
/// `max_omega == 0`.
///
/// # Example
///
/// ```
/// use fi_entropy::propositions::proposition3_tradeoff;
/// let rows = proposition3_tradeoff(5, 4)?;
/// assert_eq!(rows.len(), 4);
/// // Operator share strictly decreases with omega...
/// assert!(rows[3].operator_share < rows[0].operator_share);
/// // ...while the vulnerability share stays put and messages grow.
/// assert_eq!(rows[3].vulnerability_share, rows[0].vulnerability_share);
/// assert!(rows[3].messages_per_round > rows[0].messages_per_round);
/// # Ok::<(), fi_entropy::DistributionError>(())
/// ```
pub fn proposition3_tradeoff(
    kappa: usize,
    max_omega: u64,
) -> Result<Vec<Prop3Row>, DistributionError> {
    if kappa == 0 || max_omega == 0 {
        return Err(DistributionError::Empty);
    }
    let mut rows = Vec::with_capacity(max_omega as usize);
    for omega in 1..=max_omega {
        let replicas = kappa as u64 * omega;
        rows.push(Prop3Row {
            omega,
            replicas,
            operator_share: 1.0 / replicas as f64,
            vulnerability_share: 1.0 / kappa as f64,
            messages_per_round: replicas * replicas,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prop1_skewed_increase_strictly_decreases_entropy() {
        let base = AbundanceVector::uniform(8, 1).unwrap();
        let out = check_proposition1(&base, &[7, 0, 0, 0, 0, 0, 0, 0]).unwrap();
        assert!(out.holds);
        assert!(!out.relative_unchanged);
        assert!(out.entropy_after < out.entropy_before);
    }

    #[test]
    fn prop1_proportional_increase_preserves_entropy() {
        let base = AbundanceVector::uniform(3, 2).unwrap();
        let out = check_proposition1(&base, &[4, 4, 4]).unwrap();
        assert!(out.holds);
        assert!(out.relative_unchanged);
        assert!((out.entropy_after - out.entropy_before).abs() < 1e-9);
    }

    #[test]
    fn prop1_rejects_non_optimal_premise() {
        let base = AbundanceVector::new(vec![3, 1]).unwrap();
        assert!(check_proposition1(&base, &[1, 1]).is_err());
    }

    #[test]
    fn prop1_rejects_dimension_mismatch() {
        let base = AbundanceVector::uniform(3, 1).unwrap();
        assert!(check_proposition1(&base, &[1, 1]).is_err());
    }

    #[test]
    fn prop1_zero_increment_is_identity() {
        let base = AbundanceVector::uniform(4, 2).unwrap();
        let out = check_proposition1(&base, &[0, 0, 0, 0]).unwrap();
        assert!(out.holds && out.relative_unchanged);
        assert_eq!(out.entropy_before, out.entropy_after);
    }

    #[test]
    fn prop2_oligopoly_addition_stays_below_bound() {
        // A Bitcoin-like head plus 100 dust miners.
        let base = [34.0, 20.0, 13.0, 11.0, 9.0];
        let dust = vec![0.01; 100];
        let out = check_proposition2(&base, &dust).unwrap();
        assert!(out.holds);
        assert!(!out.equalized);
        assert!(out.entropy_after < out.uniform_bound);
        assert!((out.uniform_bound - 105f64.log2()).abs() < 1e-12);
        // The dust gains some entropy, but only up to the head-limited
        // bound, far below log2(105) ≈ 6.7.
        assert!(out.entropy_gain <= out.head_limited_bound + 1e-9);
        assert!(out.uniform_bound > 6.5);
        assert!(out.entropy_after < 3.5);
    }

    #[test]
    fn prop2_equalized_addition_reaches_bound() {
        let base = [1.0, 1.0];
        let added = [1.0, 1.0];
        let out = check_proposition2(&base, &added).unwrap();
        assert!(out.holds);
        assert!(out.equalized);
        assert!((out.entropy_after - out.uniform_bound).abs() < 1e-9);
    }

    #[test]
    fn prop2_no_addition_is_consistent() {
        let base = [3.0, 1.0];
        let out = check_proposition2(&base, &[]).unwrap();
        assert!(out.holds);
        assert_eq!(out.entropy_gain, 0.0);
        assert_eq!(out.head_limited_bound, 0.0);
    }

    #[test]
    fn prop2_entropy_gain_monotone_in_added_mass_spread() {
        // Same added mass over more newcomers gains (weakly) more entropy.
        let base = [50.0, 30.0, 20.0];
        let few = check_proposition2(&base, &[1.0; 2]).unwrap();
        let many = check_proposition2(&base, &[0.2; 10]).unwrap();
        assert!(many.entropy_gain >= few.entropy_gain - 1e-9);
    }

    #[test]
    fn prop3_operator_share_decreases_vulnerability_share_constant() {
        let rows = proposition3_tradeoff(4, 6).unwrap();
        for w in rows.windows(2) {
            assert!(w[1].operator_share < w[0].operator_share);
            assert_eq!(w[1].vulnerability_share, w[0].vulnerability_share);
            assert!(w[1].messages_per_round > w[0].messages_per_round);
        }
    }

    #[test]
    fn prop3_message_overhead_is_quadratic() {
        let rows = proposition3_tradeoff(3, 2).unwrap();
        assert_eq!(rows[0].messages_per_round, 9);
        assert_eq!(rows[1].messages_per_round, 36);
    }

    #[test]
    fn prop3_rejects_degenerate_inputs() {
        assert!(proposition3_tradeoff(0, 3).is_err());
        assert!(proposition3_tradeoff(3, 0).is_err());
    }
}
