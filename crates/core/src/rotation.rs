//! Time-based configuration rotation (the Lazarus idea, paper §III-A, plus
//! the proactive-security pointers of refs \[23\]–\[27\]).
//!
//! Even a κ-optimal assignment leaves each replica exposed to its *own*
//! stack's next zero-day indefinitely. Rotating replicas across
//! configurations bounds the time any (replica, configuration) pair is
//! exposed, without changing the configuration *distribution* — rotation is
//! a measure-preserving permutation, so the entropy the paper cares about
//! is untouched while the attacker's reconnaissance ("which replicas run
//! the product I can exploit?", Remark 3's privacy concern) goes stale
//! every period.

use std::collections::HashMap;

use fi_config::Assignment;
use fi_entropy::EntropyAccumulator;
use fi_types::{ReplicaId, SimTime, VotingPower};

/// One scheduled migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RotationStep {
    /// When to apply.
    pub at: SimTime,
    /// Which replica migrates.
    pub replica: ReplicaId,
    /// Destination configuration index.
    pub to_config: usize,
}

/// Plans cyclic configuration rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RotationPlanner {
    period: SimTime,
    stride: usize,
}

impl RotationPlanner {
    /// A planner that rotates every `period`, shifting each replica's
    /// configuration index by `stride` (mod the space size) per round.
    /// `stride` must be non-zero; strides coprime to the space size visit
    /// every configuration before repeating.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or `stride` is zero.
    #[must_use]
    pub fn new(period: SimTime, stride: usize) -> Self {
        assert!(!period.is_zero(), "rotation period must be positive");
        assert!(stride > 0, "rotation stride must be non-zero");
        RotationPlanner { period, stride }
    }

    /// The rotation period.
    #[must_use]
    pub fn period(&self) -> SimTime {
        self.period
    }

    /// Plans all rotation steps within `[period, horizon]`.
    ///
    /// Each round moves every replica from configuration `c` to
    /// `(c + stride) mod k`. Because the shift is a permutation applied to
    /// every replica uniformly, per-configuration replica counts — and
    /// hence the power-weighted distribution and its entropy — are
    /// preserved exactly *when the starting counts are balanced*; for
    /// unbalanced assignments the counts rotate with the replicas, which
    /// still preserves the entropy (the multiset of per-configuration
    /// powers is invariant under the cyclic relabeling).
    #[must_use]
    pub fn plan(&self, assignment: &Assignment, horizon: SimTime) -> Vec<RotationStep> {
        let k = assignment.space().len();
        let mut steps = Vec::new();
        if k <= 1 {
            return steps;
        }
        let mut round = 1u64;
        let mut current: Vec<(ReplicaId, usize)> = assignment
            .entries()
            .iter()
            .map(|e| (e.replica, e.config))
            .collect();
        loop {
            let at = SimTime::from_micros(self.period.as_micros().saturating_mul(round));
            if at > horizon || at.is_zero() {
                break;
            }
            for (replica, config) in &mut current {
                *config = (*config + self.stride) % k;
                steps.push(RotationStep {
                    at,
                    replica: *replica,
                    to_config: *config,
                });
            }
            round += 1;
        }
        steps
    }

    /// Applies every step with `at <= now` to the assignment (idempotent
    /// per step; steps must be those produced by [`plan`](Self::plan) for
    /// this assignment).
    ///
    /// # Errors
    ///
    /// Returns [`fi_config::ConfigError`] if a step references an unknown
    /// replica or configuration.
    pub fn apply_due(
        assignment: &mut Assignment,
        steps: &[RotationStep],
        now: SimTime,
    ) -> Result<usize, fi_config::ConfigError> {
        let mut applied = 0;
        for step in steps.iter().filter(|s| s.at <= now) {
            assignment.reassign(step.replica, step.to_config)?;
            applied += 1;
        }
        Ok(applied)
    }

    /// The longest continuous interval any replica keeps one configuration
    /// under this planner: exactly one period.
    #[must_use]
    pub fn max_exposure(&self) -> SimTime {
        self.period
    }
}

/// O(1)-per-step entropy monitoring across rotation (or arbitrary
/// migration) steps.
///
/// A diversity monitor that re-derives the full power-weighted distribution
/// after every applied [`RotationStep`] pays O(replicas) per step; this
/// tracker seeds an [`EntropyAccumulator`] from the assignment once and then
/// moves each migrating replica's power between configuration buckets in
/// O(1), exposing the running entropy (which rotation provably preserves —
/// the tracker lets operators *watch* that invariant instead of trusting
/// it).
#[derive(Debug, Clone)]
pub struct RotationEntropyTracker {
    acc: EntropyAccumulator,
    positions: HashMap<ReplicaId, (usize, VotingPower)>,
}

impl RotationEntropyTracker {
    /// Seeds the tracker from an assignment's current buckets (O(replicas),
    /// once).
    #[must_use]
    pub fn new(assignment: &Assignment) -> Self {
        let acc = assignment.entropy_accumulator();
        let positions = assignment
            .entries()
            .iter()
            .map(|e| (e.replica, (e.config, e.power)))
            .collect();
        RotationEntropyTracker { acc, positions }
    }

    /// The tracked entropy (bits) of the power-weighted configuration
    /// distribution. O(1).
    #[must_use]
    pub fn entropy_bits(&self) -> f64 {
        self.acc.entropy_bits()
    }

    /// Applies one migration step in O(1) and returns the entropy after it.
    ///
    /// # Errors
    ///
    /// Mirrors [`Assignment::reassign`]:
    /// [`fi_config::ConfigError::UnknownConfiguration`] for an out-of-range
    /// destination, [`fi_config::ConfigError::EmptyAssignment`] for a
    /// replica the tracker has never seen.
    pub fn apply(&mut self, step: &RotationStep) -> Result<f64, fi_config::ConfigError> {
        if step.to_config >= self.acc.slots() {
            return Err(fi_config::ConfigError::UnknownConfiguration {
                index: step.to_config,
                space_size: self.acc.slots(),
            });
        }
        let Some((config, power)) = self.positions.get_mut(&step.replica) else {
            return Err(fi_config::ConfigError::EmptyAssignment);
        };
        self.acc
            .apply_move(*config, step.to_config, power.as_units());
        *config = step.to_config;
        Ok(self.acc.entropy_bits())
    }

    /// Applies every step with `at <= now`, returning the entropy after the
    /// last applied step (or the current entropy if none were due).
    ///
    /// # Errors
    ///
    /// As [`apply`](Self::apply).
    pub fn apply_due(
        &mut self,
        steps: &[RotationStep],
        now: SimTime,
    ) -> Result<f64, fi_config::ConfigError> {
        for step in steps.iter().filter(|s| s.at <= now) {
            self.apply(step)?;
        }
        Ok(self.entropy_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_config::prelude::*;

    fn space(k: usize) -> ConfigurationSpace {
        ConfigurationSpace::cartesian(&[catalog::operating_systems()[..k].to_vec()]).unwrap()
    }

    fn planner() -> RotationPlanner {
        RotationPlanner::new(SimTime::from_secs(3600), 1)
    }

    #[test]
    fn plan_covers_horizon_rounds() {
        let assignment = Assignment::round_robin(&space(4), 8, VotingPower::new(10)).unwrap();
        let steps = planner().plan(&assignment, SimTime::from_secs(3 * 3600));
        // 3 rounds x 8 replicas.
        assert_eq!(steps.len(), 24);
        assert!(steps.iter().all(|s| s.at.as_micros() % 3_600_000_000 == 0));
    }

    #[test]
    fn rotation_preserves_entropy() {
        let assignment = Assignment::round_robin(&space(4), 8, VotingPower::new(10)).unwrap();
        let before = assignment.entropy_bits().unwrap();
        let steps = planner().plan(&assignment, SimTime::from_secs(3600));
        let mut rotated = assignment.clone();
        RotationPlanner::apply_due(&mut rotated, &steps, SimTime::from_secs(3600)).unwrap();
        assert!((rotated.entropy_bits().unwrap() - before).abs() < 1e-12);
        // But every replica moved.
        for e in assignment.entries() {
            assert_ne!(
                rotated.configuration_of(e.replica),
                assignment.space().get(e.config).ok(),
                "replica {} did not move",
                e.replica
            );
        }
    }

    #[test]
    fn rotation_preserves_entropy_even_when_skewed() {
        // 5 replicas on config 0, 1 on config 1 (skewed): the multiset of
        // per-config masses is rotated, not equalized — entropy invariant.
        let s = space(4);
        let entries: Vec<fi_config::generator::AssignmentEntry> = (0..6u64)
            .map(|i| fi_config::generator::AssignmentEntry {
                replica: ReplicaId::new(i),
                config: usize::from(i >= 5),
                power: VotingPower::new(10),
            })
            .collect();
        let assignment = Assignment::new(s, entries).unwrap();
        let before = assignment.entropy_bits().unwrap();
        let steps = planner().plan(&assignment, SimTime::from_secs(3600));
        let mut rotated = assignment.clone();
        RotationPlanner::apply_due(&mut rotated, &steps, SimTime::from_secs(3600)).unwrap();
        assert!((rotated.entropy_bits().unwrap() - before).abs() < 1e-12);
    }

    #[test]
    fn coprime_stride_visits_every_configuration() {
        let assignment = Assignment::monoculture(&space(5), 0, 1, VotingPower::new(10)).unwrap();
        let p = RotationPlanner::new(SimTime::from_secs(1), 2); // gcd(2,5)=1
        let steps = p.plan(&assignment, SimTime::from_secs(5));
        let visited: std::collections::HashSet<usize> = steps.iter().map(|s| s.to_config).collect();
        assert_eq!(visited.len(), 5);
    }

    #[test]
    fn apply_due_respects_time() {
        let assignment = Assignment::round_robin(&space(4), 4, VotingPower::new(10)).unwrap();
        let steps = planner().plan(&assignment, SimTime::from_secs(10 * 3600));
        let mut working = assignment.clone();
        let applied =
            RotationPlanner::apply_due(&mut working, &steps, SimTime::from_secs(2 * 3600)).unwrap();
        assert_eq!(applied, 8, "two rounds of four replicas");
    }

    #[test]
    fn single_config_space_needs_no_rotation() {
        let assignment = Assignment::monoculture(&space(1), 0, 4, VotingPower::new(1)).unwrap();
        assert!(planner()
            .plan(&assignment, SimTime::from_secs(10_000))
            .is_empty());
    }

    #[test]
    fn max_exposure_is_one_period() {
        assert_eq!(planner().max_exposure(), SimTime::from_secs(3600));
    }

    #[test]
    fn tracker_follows_applied_steps_without_recomputation() {
        let assignment = Assignment::round_robin(&space(4), 8, VotingPower::new(10)).unwrap();
        let steps = planner().plan(&assignment, SimTime::from_secs(3 * 3600));
        let mut tracker = RotationEntropyTracker::new(&assignment);
        assert!((tracker.entropy_bits() - assignment.entropy_bits().unwrap()).abs() < 1e-12);

        let mut rotated = assignment.clone();
        for step in &steps {
            let tracked = tracker.apply(step).unwrap();
            rotated.reassign(step.replica, step.to_config).unwrap();
            let recomputed = rotated.entropy_bits().unwrap();
            assert!(
                (tracked - recomputed).abs() < 1e-9,
                "tracked {tracked} vs recomputed {recomputed}"
            );
        }
        // Rotation is measure-preserving: entropy is invariant end-to-end.
        assert!((tracker.entropy_bits() - assignment.entropy_bits().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn tracker_apply_due_matches_planner_apply_due() {
        let assignment = Assignment::round_robin(&space(4), 6, VotingPower::new(7)).unwrap();
        let steps = planner().plan(&assignment, SimTime::from_secs(5 * 3600));
        let now = SimTime::from_secs(2 * 3600);

        let mut tracker = RotationEntropyTracker::new(&assignment);
        let tracked = tracker.apply_due(&steps, now).unwrap();

        let mut applied = assignment.clone();
        RotationPlanner::apply_due(&mut applied, &steps, now).unwrap();
        assert!((tracked - applied.entropy_bits().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn tracker_rejects_unknown_replica_and_config() {
        let assignment = Assignment::round_robin(&space(3), 3, VotingPower::new(1)).unwrap();
        let mut tracker = RotationEntropyTracker::new(&assignment);
        let bad_replica = RotationStep {
            at: SimTime::ZERO,
            replica: ReplicaId::new(99),
            to_config: 0,
        };
        assert!(tracker.apply(&bad_replica).is_err());
        let bad_config = RotationStep {
            at: SimTime::ZERO,
            replica: ReplicaId::new(0),
            to_config: 17,
        };
        assert!(tracker.apply(&bad_config).is_err());
        // Errors do not corrupt the tracked state.
        assert!((tracker.entropy_bits() - assignment.entropy_bits().unwrap()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let _ = RotationPlanner::new(SimTime::ZERO, 1);
    }

    #[test]
    #[should_panic(expected = "stride must be non-zero")]
    fn zero_stride_rejected() {
        let _ = RotationPlanner::new(SimTime::from_secs(1), 0);
    }
}
