//! The diversity recommender: reconfiguration moves toward κ-optimality.
//!
//! This is the permissionless analogue of Lazarus (§III-A): instead of a
//! central controller rotating OS images, the recommender computes which
//! replicas should migrate to which configurations to maximise the entropy
//! of the power-weighted configuration distribution, and by how much each
//! move helps. Operators can be incentivised to follow such recommendations
//! (e.g. via the two-tier weights) even without central control.

use fi_config::Assignment;
use fi_types::ReplicaId;

/// One suggested migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recommendation {
    /// Which replica should move.
    pub replica: ReplicaId,
    /// Its current configuration index.
    pub from_config: usize,
    /// The suggested configuration index.
    pub to_config: usize,
    /// Entropy (bits) after applying this and all previous moves.
    pub entropy_after: f64,
    /// Entropy gained by this single move.
    pub gain_bits: f64,
}

/// Computes greedy reconfiguration plans.
#[derive(Debug, Clone)]
pub struct Recommender {
    max_moves: usize,
    min_gain_bits: f64,
}

impl Recommender {
    /// A recommender that proposes at most `max_moves` migrations and stops
    /// early when the best remaining move gains less than `min_gain_bits`.
    #[must_use]
    pub fn new(max_moves: usize, min_gain_bits: f64) -> Self {
        Recommender {
            max_moves,
            min_gain_bits: min_gain_bits.max(0.0),
        }
    }

    /// Greedily plans migrations on a copy of `assignment`: at each step,
    /// move the replica whose reassignment yields the largest entropy gain.
    /// Returns the plan in application order (possibly empty if the
    /// assignment is already optimal).
    ///
    /// Every candidate move is scored in O(1) by
    /// [`fi_entropy::EntropyAccumulator::peek_move`] on a bucket accumulator
    /// seeded once from the assignment — the previous implementation cloned
    /// the whole assignment and rebuilt its distribution for each of the
    /// `replicas × configurations` trials per round.
    ///
    /// # Errors
    ///
    /// Returns [`fi_config::ConfigError`] if the assignment carries no
    /// voting power.
    pub fn plan(
        &self,
        assignment: &Assignment,
    ) -> Result<Vec<Recommendation>, fi_config::ConfigError> {
        // Validates the no-power error case exactly as before.
        assignment.entropy_bits()?;
        let mut acc = assignment.entropy_accumulator();
        let devices: Vec<(ReplicaId, usize, u64)> = assignment
            .entries()
            .iter()
            .map(|e| (e.replica, e.config, e.power.as_units()))
            .collect();
        Ok(self.greedy_moves(&mut acc, devices, assignment.space().len()))
    }

    /// Plans re-attestation moves over a sealed fleet snapshot: which
    /// attested devices should rotate to which *existing* measurement
    /// bucket to maximise the fleet's configuration entropy. The serving
    /// counterpart of [`plan`](Self::plan) — configuration indices in the
    /// returned [`Recommendation`]s are snapshot bucket positions
    /// ([`EpochSnapshot::buckets`](fi_fleet::EpochSnapshot::buckets)).
    ///
    /// The snapshot itself is never mutated (it is immutable by
    /// construction — the plan is advice for the *next* epoch's churn
    /// batch); the search runs on a clone of its canonical accumulator.
    // lint: allow(unused-pub) paper-facing: the recommender over a sealed fleet, which fleet_determinism holds equal across seal paths
    #[must_use]
    pub fn plan_for_snapshot(&self, snapshot: &fi_fleet::EpochSnapshot) -> Vec<Recommendation> {
        let mut acc = snapshot.entropy_accumulator().clone();
        let k = acc.slots();
        if k < 2 {
            return Vec::new();
        }
        let attested_weight = snapshot.weights().attested();
        // (device, current bucket, effective power): only attested devices
        // can be steered between measurement buckets.
        let devices: Vec<(ReplicaId, usize, u64)> = snapshot
            .candidates()
            .iter()
            .filter(|c| c.attested())
            .map(|c| {
                (
                    c.replica(),
                    c.config(),
                    c.power().scaled(attested_weight).as_units(),
                )
            })
            .collect();
        self.greedy_moves(&mut acc, devices, k)
    }

    /// The shared greedy search both planners run: at each step, score
    /// every `(device, target configuration)` move in O(1) via
    /// [`fi_entropy::EntropyAccumulator::peek_move`], apply the best one,
    /// and stop at `max_moves`, below `min_gain_bits`, or when no move
    /// strictly helps.
    ///
    /// Baseline and trial entropies must come from the same formula (the
    /// accumulator's `log2 W − S/W`): mixing in the batch `−Σ p·log p`
    /// value here can differ by ~1e-15 and let a mathematically neutral
    /// move sneak past the spurious-gain gate.
    fn greedy_moves(
        &self,
        acc: &mut fi_entropy::EntropyAccumulator,
        mut devices: Vec<(ReplicaId, usize, u64)>,
        k: usize,
    ) -> Vec<Recommendation> {
        let mut entropy = acc.entropy_bits();
        let mut plan = Vec::new();
        for _ in 0..self.max_moves {
            let mut best: Option<(usize, usize, f64)> = None;
            for (i, &(_, current, units)) in devices.iter().enumerate() {
                for target in 0..k {
                    if target == current {
                        continue;
                    }
                    let h = acc.peek_move(current, target, units);
                    let better = match best {
                        None => h > entropy,
                        Some((_, _, best_h)) => h > best_h,
                    };
                    if better {
                        best = Some((i, target, h));
                    }
                }
            }
            let Some((i, to_config, h)) = best else {
                break;
            };
            let gain = h - entropy;
            if gain < self.min_gain_bits || gain <= 1e-12 {
                break;
            }
            let (replica, from_config, units) = devices[i];
            acc.apply_move(from_config, to_config, units);
            devices[i].1 = to_config;
            entropy = h;
            plan.push(Recommendation {
                replica,
                from_config,
                to_config,
                entropy_after: h,
                gain_bits: gain,
            });
        }
        plan
    }

    /// Applies a plan to an assignment in place.
    ///
    /// # Errors
    ///
    /// Returns [`fi_config::ConfigError`] if a move references an unknown
    /// replica or configuration.
    pub fn apply(
        assignment: &mut Assignment,
        plan: &[Recommendation],
    ) -> Result<(), fi_config::ConfigError> {
        for rec in plan {
            assignment.reassign(rec.replica, rec.to_config)?;
        }
        Ok(())
    }
}

impl Default for Recommender {
    /// Up to 16 moves, any positive gain.
    fn default() -> Self {
        Recommender::new(16, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_config::prelude::*;

    fn space(k: usize) -> ConfigurationSpace {
        ConfigurationSpace::cartesian(&[catalog::operating_systems()[..k].to_vec()]).unwrap()
    }

    #[test]
    fn monoculture_gets_fixed() {
        let assignment = Assignment::monoculture(&space(4), 0, 8, VotingPower::new(10)).unwrap();
        let plan = Recommender::default().plan(&assignment).unwrap();
        assert!(!plan.is_empty());
        let mut fixed = assignment.clone();
        Recommender::apply(&mut fixed, &plan).unwrap();
        // 8 replicas over 4 configs, equal power: reaches 2 bits.
        assert!(
            (fixed.entropy_bits().unwrap() - 2.0).abs() < 1e-9,
            "plan: {plan:?}"
        );
    }

    #[test]
    fn plan_gains_are_monotone_and_positive() {
        let assignment = Assignment::monoculture(&space(4), 0, 8, VotingPower::new(10)).unwrap();
        let plan = Recommender::default().plan(&assignment).unwrap();
        for rec in &plan {
            assert!(rec.gain_bits > 0.0);
        }
        // entropy_after is non-decreasing along the plan.
        for w in plan.windows(2) {
            assert!(w[1].entropy_after >= w[0].entropy_after);
        }
    }

    #[test]
    fn optimal_assignment_needs_no_moves() {
        let assignment = Assignment::round_robin(&space(4), 8, VotingPower::new(10)).unwrap();
        let plan = Recommender::default().plan(&assignment).unwrap();
        assert!(plan.is_empty());
    }

    #[test]
    fn max_moves_caps_plan_length() {
        let assignment = Assignment::monoculture(&space(4), 0, 12, VotingPower::new(10)).unwrap();
        let plan = Recommender::new(2, 0.0).plan(&assignment).unwrap();
        assert!(plan.len() <= 2);
    }

    #[test]
    fn min_gain_threshold_stops_early() {
        let assignment = Assignment::monoculture(&space(4), 0, 8, VotingPower::new(10)).unwrap();
        let all = Recommender::new(32, 0.0).plan(&assignment).unwrap();
        let picky = Recommender::new(32, 0.5).plan(&assignment).unwrap();
        assert!(picky.len() <= all.len());
        assert!(picky.iter().all(|r| r.gain_bits >= 0.5));
    }

    #[test]
    fn snapshot_plan_fixes_a_skewed_fleet() {
        use fi_attest::{AttestedRegistry, ChurnOp, TwoTierWeights};
        use fi_fleet::EpochSnapshot;
        use fi_types::sha256;

        // 6 devices piled onto cfg-a, 1 on cfg-b: steering devices toward
        // cfg-b must raise entropy toward the 2-bucket optimum.
        let mut reg = AttestedRegistry::new(TwoTierWeights::flat());
        for i in 0..6u64 {
            reg.apply(&ChurnOp::attest(
                ReplicaId::new(i),
                sha256(b"cfg-a"),
                VotingPower::new(100),
            ));
        }
        reg.apply(&ChurnOp::attest(
            ReplicaId::new(6),
            sha256(b"cfg-b"),
            VotingPower::new(100),
        ));
        let snapshot = EpochSnapshot::from_registry(&reg, 1);
        let before = snapshot.entropy_bits(false).unwrap();
        let plan = Recommender::default().plan_for_snapshot(&snapshot);
        assert!(!plan.is_empty());
        for rec in &plan {
            assert!(rec.gain_bits > 0.0);
            assert!(rec.to_config < snapshot.buckets().len());
        }
        let after = plan.last().unwrap().entropy_after;
        assert!(after > before);
        // 700 units over two buckets: the optimum is ~log2(2) with a 400/300
        // split being the closest integer-device partition.
        assert!(after > 0.98, "entropy_after = {after}");
        // The snapshot itself is untouched.
        assert_eq!(snapshot.entropy_bits(false).unwrap(), before);
    }

    #[test]
    fn snapshot_plan_on_balanced_or_degenerate_fleets_is_empty() {
        use fi_attest::{AttestedRegistry, ChurnOp, TwoTierWeights};
        use fi_fleet::EpochSnapshot;
        use fi_types::sha256;

        // Already balanced: no move helps.
        let mut reg = AttestedRegistry::new(TwoTierWeights::flat());
        for i in 0..4u64 {
            reg.apply(&ChurnOp::attest(
                ReplicaId::new(i),
                sha256(format!("cfg-{i}").as_bytes()),
                VotingPower::new(100),
            ));
        }
        let snapshot = EpochSnapshot::from_registry(&reg, 1);
        assert!(Recommender::default()
            .plan_for_snapshot(&snapshot)
            .is_empty());
        // A single bucket (or an empty fleet) has nowhere to move to.
        let mut mono = AttestedRegistry::new(TwoTierWeights::flat());
        mono.apply(&ChurnOp::attest(
            ReplicaId::new(0),
            sha256(b"cfg-a"),
            VotingPower::new(100),
        ));
        assert!(Recommender::default()
            .plan_for_snapshot(&EpochSnapshot::from_registry(&mono, 1))
            .is_empty());
        assert!(Recommender::default()
            .plan_for_snapshot(&EpochSnapshot::empty(TwoTierWeights::flat()))
            .is_empty());
    }

    #[test]
    fn plan_respects_power_weighting() {
        // One whale on config 0, dust elsewhere: moving the whale is the
        // single best move only if it helps entropy; the recommender should
        // strictly improve the weighted entropy either way.
        let s = space(3);
        let powers = [
            VotingPower::new(700),
            VotingPower::new(100),
            VotingPower::new(100),
            VotingPower::new(100),
        ];
        let assignment = Assignment::with_powers(&s, &powers).unwrap();
        let before = assignment.entropy_bits().unwrap();
        let plan = Recommender::default().plan(&assignment).unwrap();
        if let Some(last) = plan.last() {
            assert!(last.entropy_after > before);
        }
    }
}
