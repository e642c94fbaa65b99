//! Attack analyses: double-spend races and the selfish-mining baseline.
//!
//! These parameterise directly on the attacker's hash-power share, so the
//! correlated-compromise experiments can feed
//! [`crate::pool::compromised_share`] straight in: "what happens to
//! double-spend security when one vulnerability takes the top three pools'
//! software?" (experiment E7).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Analytic double-spend success probability (Rosenfeld's exact form of
/// Nakamoto's race): attacker with share `q` against `z` confirmations.
/// Returns 1.0 whenever `q ≥ 0.5` (the attacker eventually wins any race —
/// the paper's majority-compromise catastrophe).
///
/// # Panics
///
/// Panics if `q` is not in `[0, 1]`.
///
/// # Example
///
/// ```
/// use fi_nakamoto::attack::double_spend_success_probability;
/// let p = double_spend_success_probability(0.1, 6);
/// // Nakamoto's whitepaper table: q = 0.1, z = 6 → P ≈ 0.0002.
/// assert!(p > 1e-5 && p < 1e-3);
/// ```
#[must_use]
pub fn double_spend_success_probability(q: f64, z: u32) -> f64 {
    assert!((0.0..=1.0).contains(&q), "attacker share must be in [0,1]");
    if q >= 0.5 {
        return 1.0;
    }
    if q == 0.0 {
        return 0.0;
    }
    let p = 1.0 - q;
    // P = 1 − Σ_{k=0}^{z} C(z+k−1, k) (p^z q^k − q^z p^k)
    let mut sum = 0.0;
    let mut binom = 1.0; // C(z-1, 0) = 1
    for k in 0..=z {
        if k > 0 {
            // C(z+k-1, k) = C(z+k-2, k-1) * (z+k-1) / k
            binom *= (z + k - 1) as f64 / k as f64;
        }
        let term =
            binom * (p.powi(z as i32) * q.powi(k as i32) - q.powi(z as i32) * p.powi(k as i32));
        sum += term;
    }
    (1.0 - sum).clamp(0.0, 1.0)
}

/// Monte-Carlo cross-check of the double-spend race. Returns the empirical
/// success ratio.
///
/// Fast path via geometric run sampling instead of per-block Bernoulli
/// draws: while the merchant waits for `z` honest confirmations, the number
/// of attacker blocks mined before each honest one is geometric —
/// `P(L = l) = q^l·p` — so one inverse-CDF draw `⌊ln U / ln q⌋` replaces an
/// entire run of per-block coin flips (their sum is the same
/// negative-binomial attacker progress the block-by-block walk produces).
/// The catch-up phase is resolved by a single draw against the exact
/// gambler's-ruin probability `(q/p)^d` of erasing a deficit `d`, which
/// also removes the old implementation's abandon-at-64 truncation. Each
/// trial costs at most `z + 1` RNG draws (the catch-up draw is skipped when
/// the attacker already leads), independent of how long the race runs.
///
/// # Panics
///
/// Panics if `q` is not in `[0, 1]` or `trials == 0`.
#[must_use]
pub fn monte_carlo_double_spend(q: f64, z: u32, trials: u32, seed: u64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "attacker share must be in [0,1]");
    assert!(trials > 0, "at least one trial required");
    if q >= 0.5 {
        return 1.0;
    }
    if q == 0.0 {
        // No attacker power: the race is won only when z = 0 (the merchant
        // accepted an unconfirmed transaction).
        return if z == 0 { 1.0 } else { 0.0 };
    }
    let p = 1.0 - q;
    let ln_q = q.ln();
    let catch_up = q / p;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut successes = 0u32;
    for _ in 0..trials {
        // Phase 1: attacker blocks mined during the confirmation window —
        // z geometric runs (f64→u64 casts saturate, so even a pathological
        // draw cannot wrap).
        let mut attacker = 0u64;
        for _ in 0..z {
            let u = 1.0 - rng.gen::<f64>(); // (0, 1]: ln is finite
            attacker += (u.ln() / ln_q) as u64;
        }
        // Phase 2: gambler's ruin from deficit z − attacker, resolved
        // exactly with one draw.
        let deficit = i64::from(z).saturating_sub_unsigned(attacker);
        let erased = deficit <= 0 || {
            let d = i32::try_from(deficit).unwrap_or(i32::MAX);
            rng.gen::<f64>() < catch_up.powi(d)
        };
        if erased {
            successes += 1;
        }
    }
    f64::from(successes) / f64::from(trials)
}

/// Confirmations needed to push double-spend success below `target`
/// for an attacker share `q`; `None` if no finite `z ≤ 10_000` suffices
/// (i.e. `q ≥ 0.5`).
#[must_use]
pub fn confirmations_for_security(q: f64, target: f64) -> Option<u32> {
    if q >= 0.5 {
        return None;
    }
    (1..=10_000).find(|&z| double_spend_success_probability(q, z) < target)
}

/// Result of a selfish-mining simulation (Eyal–Sirer, paper ref \[5\]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelfishMiningOutcome {
    /// The selfish pool's hash-power share α.
    pub alpha: f64,
    /// Main-chain blocks won by the selfish pool.
    pub selfish_blocks: u64,
    /// Main-chain blocks won by honest miners.
    pub honest_blocks: u64,
}

impl SelfishMiningOutcome {
    /// The selfish pool's relative revenue (share of main-chain blocks).
    #[must_use]
    pub fn relative_revenue(&self) -> f64 {
        let total = self.selfish_blocks + self.honest_blocks;
        if total == 0 {
            0.0
        } else {
            self.selfish_blocks as f64 / total as f64
        }
    }

    /// Whether selfish mining beat honest mining (revenue above fair share
    /// α).
    #[must_use]
    pub fn profitable(&self) -> bool {
        self.relative_revenue() > self.alpha
    }
}

/// Simulates the Eyal–Sirer selfish-mining state machine for `blocks`
/// block-discovery events. `alpha` is the selfish pool's share; `gamma` the
/// fraction of honest power that mines on the selfish branch during a 1-1
/// race.
///
/// # Panics
///
/// Panics unless `alpha ∈ [0, 0.5]` and `gamma ∈ [0, 1]`.
#[must_use]
pub fn selfish_mining(alpha: f64, gamma: f64, blocks: u64, seed: u64) -> SelfishMiningOutcome {
    assert!((0.0..=0.5).contains(&alpha), "alpha must be in [0, 0.5]");
    assert!((0.0..=1.0).contains(&gamma), "gamma must be in [0, 1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut selfish_blocks = 0u64;
    let mut honest_blocks = 0u64;
    let mut lead = 0i64; // private-branch lead; -1 encodes the 1-1 race state
    const RACE: i64 = -1;

    for _ in 0..blocks {
        let selfish_found = rng.gen::<f64>() < alpha;
        match (lead, selfish_found) {
            (RACE, true) => {
                // Selfish extends its race branch and publishes: wins both.
                selfish_blocks += 2;
                lead = 0;
            }
            (RACE, false) => {
                // Honest finds during the race.
                if rng.gen::<f64>() < gamma {
                    // On the selfish branch: selfish keeps its block.
                    selfish_blocks += 1;
                    honest_blocks += 1;
                } else {
                    honest_blocks += 2;
                }
                lead = 0;
            }
            (0, true) => lead = 1,
            (0, false) => honest_blocks += 1,
            (1, true) => lead = 2,
            (1, false) => lead = RACE, // selfish publishes: 1-1 race
            (2, false) => {
                // Selfish publishes the whole branch, orphaning the honest
                // block.
                selfish_blocks += 2;
                lead = 0;
            }
            (_, true) => lead += 1,
            (_, false) => {
                // Deep lead shrinks; the oldest private block finalises.
                selfish_blocks += 1;
                lead -= 1;
            }
        }
    }
    // Settle any remaining private branch as selfish revenue.
    if lead > 0 {
        selfish_blocks += lead as u64;
    }
    SelfishMiningOutcome {
        alpha,
        selfish_blocks,
        honest_blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nakamoto_whitepaper_values() {
        // z = 0 (accepting unconfirmed transactions) always loses.
        assert_eq!(double_spend_success_probability(0.1, 0), 1.0);
        let p1 = double_spend_success_probability(0.1, 1);
        assert!((p1 - 0.2045).abs() < 0.01, "z=1 q=0.1 gave {p1}");
        let p6 = double_spend_success_probability(0.1, 6);
        assert!(p6 < 1e-3 && p6 > 1e-5, "z=6 q=0.1 gave {p6}");
        let p30 = double_spend_success_probability(0.3, 2);
        assert!((p30 - 0.432).abs() < 0.02, "z=2 q=0.3 gave {p30}");
    }

    #[test]
    fn majority_always_wins() {
        assert_eq!(double_spend_success_probability(0.5, 100), 1.0);
        assert_eq!(double_spend_success_probability(0.9, 1_000), 1.0);
    }

    #[test]
    fn zero_attacker_never_wins() {
        assert_eq!(double_spend_success_probability(0.0, 1), 0.0);
    }

    #[test]
    fn probability_decreases_with_confirmations() {
        let ps: Vec<f64> = (1..8)
            .map(|z| double_spend_success_probability(0.25, z))
            .collect();
        for w in ps.windows(2) {
            assert!(w[1] < w[0]);
        }
    }

    #[test]
    fn probability_increases_with_share() {
        let ps: Vec<f64> = [0.05, 0.15, 0.25, 0.35, 0.45]
            .iter()
            .map(|&q| double_spend_success_probability(q, 6))
            .collect();
        for w in ps.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    #[should_panic(expected = "share must be in")]
    fn rejects_bad_share() {
        let _ = double_spend_success_probability(1.5, 6);
    }

    #[test]
    fn monte_carlo_matches_analytic() {
        for &(q, z) in &[(0.1, 2u32), (0.2, 3), (0.3, 4)] {
            let analytic = double_spend_success_probability(q, z);
            let mc = monte_carlo_double_spend(q, z, 60_000, 42);
            assert!(
                (mc - analytic).abs() < 0.01,
                "q={q} z={z}: mc {mc} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn monte_carlo_is_deterministic_per_seed() {
        let a = monte_carlo_double_spend(0.2, 3, 10_000, 7);
        let b = monte_carlo_double_spend(0.2, 3, 10_000, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn monte_carlo_edge_shares() {
        // Powerless attacker: wins only the unconfirmed (z = 0) race.
        assert_eq!(monte_carlo_double_spend(0.0, 3, 1_000, 1), 0.0);
        assert_eq!(monte_carlo_double_spend(0.0, 0, 1_000, 1), 1.0);
        assert_eq!(monte_carlo_double_spend(0.5, 6, 1_000, 1), 1.0);
    }

    #[test]
    fn monte_carlo_geometric_sampling_matches_deep_races() {
        // Deeper confirmation windows stress the geometric phase-1 sampling
        // and the exact catch-up draw (no abandon-threshold truncation).
        for &(q, z) in &[(0.15, 8u32), (0.4, 10), (0.45, 2)] {
            let analytic = double_spend_success_probability(q, z);
            let mc = monte_carlo_double_spend(q, z, 80_000, 11);
            assert!(
                (mc - analytic).abs() < 0.01,
                "q={q} z={z}: mc {mc} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn confirmations_for_security_scales_with_share() {
        let z_small = confirmations_for_security(0.1, 1e-3).unwrap();
        let z_large = confirmations_for_security(0.3, 1e-3).unwrap();
        assert!(z_large > z_small);
        assert_eq!(confirmations_for_security(0.5, 1e-3), None);
    }

    #[test]
    fn selfish_mining_profitable_above_threshold() {
        // gamma = 0: threshold is 1/3. alpha = 0.42 must beat fair share.
        let out = selfish_mining(0.42, 0.0, 400_000, 1);
        assert!(out.profitable(), "revenue {}", out.relative_revenue());
        assert!(out.relative_revenue() > 0.45);
    }

    #[test]
    fn selfish_mining_unprofitable_below_threshold() {
        let out = selfish_mining(0.2, 0.0, 400_000, 2);
        assert!(!out.profitable(), "revenue {}", out.relative_revenue());
        // Revenue is positive but below the fair share.
        assert!(out.relative_revenue() > 0.05);
    }

    #[test]
    fn gamma_raises_selfish_revenue() {
        let low = selfish_mining(0.3, 0.0, 400_000, 3).relative_revenue();
        let high = selfish_mining(0.3, 0.9, 400_000, 3).relative_revenue();
        assert!(high > low);
    }

    #[test]
    fn selfish_outcome_accessors() {
        let out = SelfishMiningOutcome {
            alpha: 0.3,
            selfish_blocks: 30,
            honest_blocks: 70,
        };
        assert!((out.relative_revenue() - 0.3).abs() < 1e-12);
        assert!(!out.profitable());
        let empty = SelfishMiningOutcome {
            alpha: 0.3,
            selfish_blocks: 0,
            honest_blocks: 0,
        };
        assert_eq!(empty.relative_revenue(), 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn selfish_mining_rejects_majority_alpha() {
        let _ = selfish_mining(0.6, 0.0, 100, 0);
    }
}
