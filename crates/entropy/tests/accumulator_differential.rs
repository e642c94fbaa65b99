//! Differential property suite for [`EntropyAccumulator`]: random
//! adversarially-interleaved operation sequences, cross-checked against a
//! from-scratch `shannon` recompute after **every** operation.
//!
//! The incremental engine's two documented guarantees are exercised here
//! under interleavings the unit tests never reach:
//!
//! * after any op sequence, `entropy_bits()` agrees with
//!   `shannon_entropy_bits` on the mirrored weight vector (to well under
//!   the engine's 1e-9 bound);
//! * every `peek_*` is **bit-exact** against its mutate-then-read
//!   counterpart, at every intermediate state — the property the greedy
//!   selection loop's compare-then-apply discipline rests on.

use fi_entropy::shannon::shannon_entropy_bits;
use fi_entropy::{Distribution, EntropyAccumulator};
use proptest::prelude::*;

/// One step of an interleaved workload, with raw operands that get clamped
/// into validity against the mirror state at application time.
#[derive(Debug, Clone, Copy)]
enum Op {
    Add { slot: usize, w: u64 },
    Remove { slot: usize, w: u64 },
    Move { from: usize, to: usize, w: u64 },
    PeekAdd { slot: usize, w: u64 },
    PeekMove { from: usize, to: usize, w: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Raw indices/weights; `apply` clamps them against the live mirror so
    // every generated sequence is a valid adversarial interleaving.
    (0u8..5, 0usize..12, 0usize..12, 0u64..1_000).prop_map(|(kind, a, b, w)| match kind {
        0 => Op::Add { slot: a, w },
        1 => Op::Remove { slot: a, w },
        2 => Op::Move { from: a, to: b, w },
        3 => Op::PeekAdd { slot: a, w },
        _ => Op::PeekMove { from: a, to: b, w },
    })
}

/// From-scratch recompute over the mirrored weights — the oracle.
fn oracle_entropy(weights: &[u64]) -> f64 {
    match Distribution::from_counts(weights) {
        Ok(d) => shannon_entropy_bits(&d),
        // Empty/zero-mass states: the accumulator pins these to +0.0.
        Err(_) => 0.0,
    }
}

/// Applies `op` to the accumulator and the shadow vector, asserting the
/// peek/apply bit-exactness contract on the way.
fn apply(op: Op, acc: &mut EntropyAccumulator, mirror: &mut [u64]) -> Result<(), TestCaseError> {
    let k = mirror.len();
    match op {
        Op::Add { slot, w } => {
            let slot = slot % k;
            let peek = acc.peek_add(slot, w);
            acc.add(slot, w);
            mirror[slot] += w;
            prop_assert_eq!(
                peek.to_bits(),
                acc.entropy_bits().to_bits(),
                "peek_add must be bit-exact against add"
            );
        }
        Op::Remove { slot, w } => {
            let slot = slot % k;
            let w = w.min(mirror[slot]);
            acc.remove(slot, w);
            mirror[slot] -= w;
        }
        Op::Move { from, to, w } => {
            let (from, to) = (from % k, to % k);
            let w = w.min(mirror[from]);
            let peek = acc.peek_move(from, to, w);
            acc.apply_move(from, to, w);
            if from != to {
                mirror[from] -= w;
                mirror[to] += w;
            }
            prop_assert_eq!(
                peek.to_bits(),
                acc.entropy_bits().to_bits(),
                "peek_move must be bit-exact against apply_move"
            );
        }
        Op::PeekAdd { slot, w } => {
            // Pure peeks must not disturb the state.
            let before = acc.entropy_bits();
            let _ = acc.peek_add(slot % k, w);
            prop_assert_eq!(before.to_bits(), acc.entropy_bits().to_bits());
        }
        Op::PeekMove { from, to, w } => {
            let from = from % k;
            let before = acc.entropy_bits();
            let _ = acc.peek_move(from, to % k, w.min(mirror[from]));
            prop_assert_eq!(before.to_bits(), acc.entropy_bits().to_bits());
        }
    }
    Ok(())
}

proptest! {
    // Pinned case count: the vendored proptest runner derives every case
    // seed from the test name, so this suite is reproducible bit-for-bit.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core differential property: after *every* op of a random
    /// interleaving, the accumulator agrees with a from-scratch shannon
    /// recompute of the mirrored weights, and all derived state (total,
    /// support, per-slot weights) matches exactly.
    #[test]
    fn interleaved_ops_agree_with_shannon_recompute(
        initial in proptest::collection::vec(0u64..500, 1..10),
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let mut acc = EntropyAccumulator::from_weights(&initial);
        let mut mirror = initial.clone();
        for (step, &op) in ops.iter().enumerate() {
            apply(op, &mut acc, &mut mirror)?;

            let expected = oracle_entropy(&mirror);
            let actual = acc.entropy_bits();
            prop_assert!(
                (actual - expected).abs() < 1e-9,
                "step {step} ({op:?}): accumulator {actual} vs shannon {expected} on {mirror:?}"
            );
            prop_assert_eq!(acc.total_weight(), mirror.iter().sum::<u64>());
            prop_assert_eq!(
                acc.support_size(),
                mirror.iter().filter(|&&w| w > 0).count()
            );
            for (slot, &w) in mirror.iter().enumerate() {
                prop_assert_eq!(acc.weight(slot), w);
            }
            // Degenerate states are pinned to exactly +0.0, never -0.0.
            if acc.support_size() <= 1 {
                prop_assert_eq!(actual, 0.0);
                prop_assert!(actual.is_sign_positive());
            }
        }
    }

    /// Rebuilding from the mirrored end state is bit-exact against a fresh
    /// `from_weights` — churn leaves no residue in `W` and only bounded
    /// rounding in `S`.
    #[test]
    fn churned_accumulator_matches_fresh_rebuild(
        initial in proptest::collection::vec(0u64..500, 1..10),
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let mut acc = EntropyAccumulator::from_weights(&initial);
        let mut mirror = initial.clone();
        for &op in &ops {
            apply(op, &mut acc, &mut mirror)?;
        }
        let fresh = EntropyAccumulator::from_weights(&mirror);
        prop_assert_eq!(acc.total_weight(), fresh.total_weight());
        prop_assert_eq!(acc.support_size(), fresh.support_size());
        prop_assert!(
            (acc.entropy_bits() - fresh.entropy_bits()).abs() < 1e-9,
            "churned {} vs fresh {}",
            acc.entropy_bits(),
            fresh.entropy_bits()
        );
    }
}
