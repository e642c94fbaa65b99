//! Property-based tests for the entropy axioms underlying the paper's
//! diversity argument (§IV).

use fi_entropy::abundance::AbundanceVector;
use fi_entropy::optimal::{nearest_kappa_optimal, KappaOptimality};
use fi_entropy::propositions::{check_proposition1, check_proposition2};
use fi_entropy::renyi::{concentration_index, min_entropy_bits, renyi_entropy_bits};
use fi_entropy::shannon::{
    evenness, kl_divergence_bits, max_entropy_bits, shannon_entropy_bits, uniformity_gap_bits,
};
use fi_entropy::{Distribution, EntropyAccumulator};
use proptest::prelude::*;

const EPS: f64 = 1e-9;

fn weights_strategy() -> impl Strategy<Value = Vec<f64>> {
    // Non-trivial weight vectors: 1..=24 entries, at least one positive.
    proptest::collection::vec(0.0f64..100.0, 1..24)
        .prop_filter("needs positive mass", |w| w.iter().sum::<f64>() > 1e-6)
}

fn counts_strategy() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..50, 1..16)
        .prop_filter("needs positive mass", |c| c.iter().sum::<u64>() > 0)
}

proptest! {
    // Pinned case count: the vendored proptest runner derives every case
    // seed from the test name, so this suite is reproducible bit-for-bit.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// H(p) is bounded by 0 and log2 k; zero only on point masses.
    #[test]
    fn entropy_bounds(weights in weights_strategy()) {
        let p = Distribution::from_weights(&weights).unwrap();
        let h = shannon_entropy_bits(&p);
        prop_assert!(h >= 0.0);
        prop_assert!(h <= max_entropy_bits(p.dimension()) + EPS);
        prop_assert!(h <= max_entropy_bits(p.support_size()) + EPS);
        if p.support_size() == 1 {
            prop_assert!(h.abs() < EPS);
        }
    }

    /// Entropy is invariant under permutation of outcomes.
    #[test]
    fn entropy_permutation_invariant(weights in weights_strategy(), seed in 0u64..1000) {
        let p = Distribution::from_weights(&weights).unwrap();
        let mut permuted = weights.clone();
        // Deterministic pseudo-shuffle driven by the seed.
        let n = permuted.len();
        for i in 0..n {
            let j = ((seed as usize).wrapping_mul(31).wrapping_add(i * 17)) % n;
            permuted.swap(i, j);
        }
        let q = Distribution::from_weights(&permuted).unwrap();
        prop_assert!((shannon_entropy_bits(&p) - shannon_entropy_bits(&q)).abs() < EPS);
    }

    /// The uniform distribution uniquely maximises entropy for its
    /// dimension (paper §IV-A, condition 1).
    #[test]
    fn uniform_maximises(weights in weights_strategy()) {
        let p = Distribution::from_weights(&weights).unwrap();
        let u = Distribution::uniform(p.dimension()).unwrap();
        prop_assert!(shannon_entropy_bits(&p) <= shannon_entropy_bits(&u) + EPS);
    }

    /// Grouping outcomes (delegation, §III) never increases entropy.
    #[test]
    fn grouping_never_increases(weights in weights_strategy()) {
        let p = Distribution::from_weights(&weights).unwrap();
        let n = p.dimension();
        if n >= 2 {
            // Pair up adjacent indices.
            let mut groups: Vec<Vec<usize>> = Vec::new();
            let mut i = 0;
            while i + 1 < n {
                groups.push(vec![i, i + 1]);
                i += 2;
            }
            if i < n {
                groups.push(vec![i]);
            }
            let g = p.grouped(&groups).unwrap();
            prop_assert!(shannon_entropy_bits(&g) <= shannon_entropy_bits(&p) + EPS);
        }
    }

    /// Padding with unused configurations changes nothing (log(1/0) := 0).
    #[test]
    fn padding_is_inert(weights in weights_strategy(), extra in 0usize..10) {
        let p = Distribution::from_weights(&weights).unwrap();
        let padded = p.padded(extra);
        prop_assert!((shannon_entropy_bits(&p) - shannon_entropy_bits(&padded)).abs() < EPS);
        prop_assert_eq!(p.support_size(), padded.support_size());
    }

    /// Renyi entropy is non-increasing in alpha; min-entropy is the floor.
    #[test]
    fn renyi_monotone(weights in weights_strategy()) {
        let p = Distribution::from_weights(&weights).unwrap();
        let orders = [0.0, 0.5, 1.0, 2.0, 4.0, f64::INFINITY];
        let hs: Vec<f64> = orders
            .iter()
            .map(|&a| renyi_entropy_bits(&p, a).unwrap())
            .collect();
        for w in hs.windows(2) {
            prop_assert!(w[0] >= w[1] - EPS);
        }
        prop_assert!((hs[5] - min_entropy_bits(&p)).abs() < EPS);
    }

    /// Concentration index and support obey 1/k <= sum p^2 <= 1.
    #[test]
    fn concentration_bounds(weights in weights_strategy()) {
        let p = Distribution::from_weights(&weights).unwrap();
        let c = concentration_index(&p);
        prop_assert!(c <= 1.0 + EPS);
        prop_assert!(c >= 1.0 / p.support_size() as f64 - EPS);
    }

    /// KL divergence to any q is non-negative; to itself zero.
    #[test]
    fn kl_nonnegative(weights in weights_strategy()) {
        let p = Distribution::from_weights(&weights).unwrap();
        let u = Distribution::uniform(p.dimension()).unwrap();
        prop_assert!(kl_divergence_bits(&p, &u).unwrap() >= -EPS);
        prop_assert!(kl_divergence_bits(&p, &p).unwrap().abs() < EPS);
        prop_assert!((uniformity_gap_bits(&p) - kl_divergence_bits(&p, &u).unwrap()).abs() < 1e-6);
    }

    /// Evenness is in [0, 1] and exactly 1 on kappa-optimal distributions.
    #[test]
    fn evenness_bounds(weights in weights_strategy()) {
        let p = Distribution::from_weights(&weights).unwrap();
        let e = evenness(&p);
        prop_assert!((0.0..=1.0 + EPS).contains(&e));
        let opt = nearest_kappa_optimal(&p);
        prop_assert!((evenness(&opt) - 1.0).abs() < 1e-6);
        prop_assert!(KappaOptimality::check(&opt, 1e-9).is_optimal());
    }

    /// nearest_kappa_optimal dominates the original entropy.
    #[test]
    fn kappa_optimal_dominates(weights in weights_strategy()) {
        let p = Distribution::from_weights(&weights).unwrap();
        let opt = nearest_kappa_optimal(&p);
        prop_assert!(shannon_entropy_bits(&opt) >= shannon_entropy_bits(&p) - EPS);
        prop_assert_eq!(opt.support_size(), p.support_size());
    }

    /// Proposition 1 holds on arbitrary kappa-optimal starting points and
    /// arbitrary increments.
    #[test]
    fn proposition1_universal(
        kappa in 1usize..12,
        omega in 1u64..20,
        increments in proptest::collection::vec(0u64..30, 12),
    ) {
        let base = AbundanceVector::uniform(kappa, omega).unwrap();
        let inc = &increments[..kappa];
        let out = check_proposition1(&base, inc).unwrap();
        prop_assert!(out.holds, "prop1 violated: {out:?}");
    }

    /// Proposition 2 holds on arbitrary base/added weight vectors.
    #[test]
    fn proposition2_universal(
        base in counts_strategy(),
        added in proptest::collection::vec(0u64..50, 0..12),
    ) {
        let base_f: Vec<f64> = base.iter().map(|&c| c as f64).collect();
        let added_f: Vec<f64> = added.iter().map(|&c| c as f64).collect();
        let out = check_proposition2(&base_f, &added_f).unwrap();
        prop_assert!(out.holds, "prop2 violated: {out:?}");
        prop_assert!(out.entropy_gain <= out.head_limited_bound + EPS);
    }

    /// from_counts agrees with manual normalization.
    #[test]
    fn counts_normalization(counts in counts_strategy()) {
        let p = Distribution::from_counts(&counts).unwrap();
        let total: u64 = counts.iter().sum();
        for (i, &c) in counts.iter().enumerate() {
            prop_assert!((p.probabilities()[i] - c as f64 / total as f64).abs() < EPS);
        }
    }

    /// Mixing moves entropy above the minimum of the parts (concavity).
    #[test]
    fn mixing_concavity(weights in weights_strategy(), lambda in 0.0f64..1.0) {
        let p = Distribution::from_weights(&weights).unwrap();
        let u = Distribution::uniform(p.dimension()).unwrap();
        let m = p.mixed(&u, lambda).unwrap();
        let hp = shannon_entropy_bits(&p);
        let hu = shannon_entropy_bits(&u);
        let hm = shannon_entropy_bits(&m);
        prop_assert!(hm >= lambda * hp + (1.0 - lambda) * hu - EPS);
    }

    /// Incremental == naive: after any add/remove sequence, the
    /// accumulator's entropy matches `shannon_entropy_bits` on the resulting
    /// distribution, every peek matches its applied counterpart bitwise, and
    /// the sign fix holds (never −0.0).
    #[test]
    fn accumulator_matches_naive_after_any_sequence(
        ops in proptest::collection::vec(
            (0usize..8, 1u64..2_000, proptest::bool::ANY),
            1..80,
        ),
    ) {
        let mut acc = EntropyAccumulator::new(8);
        let mut weights = [0u64; 8];
        for (slot, amount, is_remove) in ops {
            if is_remove && weights[slot] > 0 {
                let w = amount.min(weights[slot]);
                acc.remove(slot, w);
                weights[slot] -= w;
            } else {
                let peek = acc.peek_add(slot, amount);
                acc.add(slot, amount);
                weights[slot] += amount;
                prop_assert_eq!(peek.to_bits(), acc.entropy_bits().to_bits());
            }
            let h = acc.entropy_bits();
            let expect = match Distribution::from_counts(&weights) {
                Ok(d) => shannon_entropy_bits(&d),
                Err(_) => 0.0,
            };
            prop_assert!((h - expect).abs() < EPS, "acc {h} vs naive {expect}");
            prop_assert!(!h.is_sign_negative(), "entropy must never be -0.0");
            prop_assert_eq!(
                acc.total_weight(),
                weights.iter().sum::<u64>(),
                "integer total must be exact"
            );
        }
    }

    /// peek_move agrees with the naive recomputation of the moved vector
    /// and conserves total power.
    #[test]
    fn accumulator_move_matches_naive(
        base in proptest::collection::vec(0u64..2_000, 2..8),
        from_pick in 0usize..8,
        to_pick in 0usize..8,
        amount in 1u64..2_000,
    ) {
        let mut acc = EntropyAccumulator::from_weights(&base);
        let from = from_pick % base.len();
        let to = to_pick % base.len();
        let w = amount.min(base[from]);
        let peek = acc.peek_move(from, to, w);
        acc.apply_move(from, to, w);
        prop_assert_eq!(peek.to_bits(), acc.entropy_bits().to_bits());
        let mut moved = base.clone();
        moved[from] -= w;
        moved[to] += w;
        let expect = match Distribution::from_counts(&moved) {
            Ok(d) => shannon_entropy_bits(&d),
            Err(_) => 0.0,
        };
        prop_assert!((acc.entropy_bits() - expect).abs() < EPS);
        prop_assert_eq!(acc.total_weight(), base.iter().sum::<u64>());
    }
}
