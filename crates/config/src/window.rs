//! Vulnerability windows and patch rollout (paper §I, Remark 1).
//!
//! "Even though vulnerabilities can be patched, there exists a vulnerability
//! window due to the latency in patching vulnerabilities." A patch becoming
//! *available* (the `patched_at` of a [`Vulnerability`]) does not end the
//! exposure: each replica applies it after its own adoption latency. The
//! [`PatchRollout`] model assigns every (replica, vulnerability) pair a
//! deterministic pseudo-random latency in `[base_latency, base_latency +
//! jitter)`, so exposure curves are reproducible without threading an RNG
//! through every query.

use fi_types::hash::hash_fields;
use fi_types::{ReplicaId, SimTime, VotingPower};

use crate::generator::Assignment;
use crate::vulnerability::{Vulnerability, VulnerabilityDb};

/// Deterministic per-replica patch-adoption model.
///
/// # Example
///
/// ```
/// use fi_config::window::PatchRollout;
/// use fi_types::{ReplicaId, SimTime, VulnId};
/// let rollout = PatchRollout::new(SimTime::from_secs(3600), SimTime::from_secs(7200), 42);
/// let l1 = rollout.latency_for(ReplicaId::new(1), VulnId::new(0));
/// let l2 = rollout.latency_for(ReplicaId::new(1), VulnId::new(0));
/// assert_eq!(l1, l2, "latency is deterministic");
/// assert!(l1 >= SimTime::from_secs(3600));
/// assert!(l1 < SimTime::from_secs(3600 + 7200));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchRollout {
    base_latency: SimTime,
    jitter: SimTime,
    seed: u64,
}

impl PatchRollout {
    /// Creates a rollout model: every replica patches between
    /// `base_latency` and `base_latency + jitter` after the patch becomes
    /// available. `seed` decorrelates experiments.
    #[must_use]
    pub fn new(base_latency: SimTime, jitter: SimTime, seed: u64) -> Self {
        PatchRollout {
            base_latency,
            jitter,
            seed,
        }
    }

    /// Instant rollout: replicas patch the moment the patch ships (the
    /// optimistic lower bound).
    #[must_use]
    pub fn instant() -> Self {
        PatchRollout::new(SimTime::ZERO, SimTime::ZERO, 0)
    }

    /// The adoption latency of `replica` for `vuln` (deterministic).
    // lint: allow(unused-pub) paper-facing (Remark 1): a replica's patch-adoption latency, shown in the type's example
    #[must_use]
    pub fn latency_for(&self, replica: ReplicaId, vuln: fi_types::VulnId) -> SimTime {
        if self.jitter.is_zero() {
            return self.base_latency;
        }
        let digest = hash_fields(&[
            b"fi-patch-rollout-v1",
            &self.seed.to_be_bytes(),
            &replica.as_u64().to_be_bytes(),
            &vuln.as_u64().to_be_bytes(),
        ]);
        let offset = digest.as_seed() % self.jitter.as_micros();
        self.base_latency + SimTime::from_micros(offset)
    }

    /// When `replica` stops being exploitable through `vuln`: patch
    /// availability plus this replica's adoption latency. Saturates at
    /// [`SimTime::MAX`] for never-patched vulnerabilities.
    #[must_use]
    fn effective_end(&self, replica: ReplicaId, vuln: &Vulnerability) -> SimTime {
        vuln.patched_at()
            .saturating_add(self.latency_for(replica, vuln.id()))
    }

    /// Whether `replica` is exploitable through `vuln` at `t` under this
    /// rollout (configuration match *not* included).
    #[must_use]
    fn replica_window_active(&self, replica: ReplicaId, vuln: &Vulnerability, t: SimTime) -> bool {
        t >= vuln.disclosed_at() && t < self.effective_end(replica, vuln)
    }
}

/// The voting power exploitable at time `t`: replicas whose configuration
/// matches at least one vulnerability whose per-replica window (disclosure
/// → patch + adoption latency) contains `t`.
#[must_use]
fn exposed_power_at(
    assignment: &Assignment,
    db: &VulnerabilityDb,
    rollout: &PatchRollout,
    t: SimTime,
) -> VotingPower {
    let mut total = VotingPower::ZERO;
    for entry in assignment.entries() {
        let config = assignment
            .space()
            .get(entry.config)
            .expect("validated index");
        let exposed = db
            .all()
            .iter()
            .any(|v| v.affects(config) && rollout.replica_window_active(entry.replica, v, t));
        if exposed {
            total += entry.power;
        }
    }
    total
}

/// Samples the exposed power at each time in `times` (experiment E9's
/// window sweep): one value per time, in order.
#[must_use]
pub fn exposure_curve(
    assignment: &Assignment,
    db: &VulnerabilityDb,
    rollout: &PatchRollout,
    times: &[SimTime],
) -> Vec<VotingPower> {
    times
        .iter()
        .map(|&time| exposed_power_at(assignment, db, rollout, time))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{catalog, ComponentKind};
    use crate::space::ConfigurationSpace;
    use crate::vulnerability::{ComponentSelector, Vulnerability};
    use fi_types::VulnId;

    fn setup() -> (Assignment, VulnerabilityDb) {
        let space =
            ConfigurationSpace::cartesian(&[catalog::operating_systems()[..2].to_vec()]).unwrap();
        let a = Assignment::round_robin(&space, 4, VotingPower::new(25)).unwrap();
        let os = &catalog::operating_systems()[0];
        let mut db = VulnerabilityDb::new();
        db.add(
            Vulnerability::new(
                VulnId::new(0),
                "os-bug",
                ComponentSelector::product(ComponentKind::OperatingSystem, os.name()),
            )
            .with_window(SimTime::from_secs(100), SimTime::from_secs(200)),
        );
        (a, db)
    }

    #[test]
    fn instant_rollout_matches_raw_window() {
        let (a, db) = setup();
        let rollout = PatchRollout::instant();
        assert_eq!(
            exposed_power_at(&a, &db, &rollout, SimTime::from_secs(50)),
            VotingPower::ZERO
        );
        assert_eq!(
            exposed_power_at(&a, &db, &rollout, SimTime::from_secs(150)),
            VotingPower::new(50)
        );
        assert_eq!(
            exposed_power_at(&a, &db, &rollout, SimTime::from_secs(250)),
            VotingPower::ZERO
        );
    }

    #[test]
    fn adoption_latency_extends_exposure() {
        let (a, db) = setup();
        let rollout = PatchRollout::new(SimTime::from_secs(100), SimTime::ZERO, 1);
        // Patch ships at t=200 but replicas adopt at t=300.
        assert_eq!(
            exposed_power_at(&a, &db, &rollout, SimTime::from_secs(250)),
            VotingPower::new(50)
        );
        assert_eq!(
            exposed_power_at(&a, &db, &rollout, SimTime::from_secs(300)),
            VotingPower::ZERO
        );
    }

    #[test]
    fn jitter_staggers_replicas() {
        let (a, db) = setup();
        let rollout = PatchRollout::new(SimTime::ZERO, SimTime::from_secs(1_000), 7);
        // Find a time where some but not all affected replicas have patched.
        let vuln = &db.all()[0];
        let ends: Vec<SimTime> = a
            .entries()
            .iter()
            .filter(|e| vuln.affects(a.space().get(e.config).unwrap()))
            .map(|e| rollout.effective_end(e.replica, vuln))
            .collect();
        assert_eq!(ends.len(), 2);
        let min_end = *ends.iter().min().unwrap();
        let max_end = *ends.iter().max().unwrap();
        assert!(min_end < max_end, "jitter should stagger patch times");
        // Just after the earliest patch, exposure is strictly between 0 and 50.
        let mid = exposed_power_at(&a, &db, &rollout, min_end);
        assert!(mid < VotingPower::new(50));
    }

    #[test]
    fn latency_is_deterministic_and_seed_sensitive() {
        let r1 = PatchRollout::new(SimTime::from_secs(10), SimTime::from_secs(100), 1);
        let r2 = PatchRollout::new(SimTime::from_secs(10), SimTime::from_secs(100), 2);
        let a = r1.latency_for(ReplicaId::new(5), VulnId::new(3));
        assert_eq!(a, r1.latency_for(ReplicaId::new(5), VulnId::new(3)));
        // Different seed gives (almost surely) different latency.
        assert_ne!(a, r2.latency_for(ReplicaId::new(5), VulnId::new(3)));
    }

    #[test]
    fn never_patched_vulnerability_saturates() {
        let v = Vulnerability::new(
            VulnId::new(9),
            "forever",
            ComponentSelector::layer(ComponentKind::Database),
        );
        let rollout = PatchRollout::new(SimTime::from_secs(1), SimTime::ZERO, 0);
        assert_eq!(rollout.effective_end(ReplicaId::new(0), &v), SimTime::MAX);
    }

    #[test]
    fn exposure_curve_samples_each_time() {
        let (a, db) = setup();
        let rollout = PatchRollout::instant();
        let times: Vec<SimTime> = (0..6).map(|i| SimTime::from_secs(i * 50)).collect();
        let curve = exposure_curve(&a, &db, &rollout, &times);
        let fifty = VotingPower::new(50);
        let zero = VotingPower::ZERO;
        assert_eq!(curve, [zero, zero, fifty, fifty, zero, zero]);
    }
}
