//! The resilience analyzer: assignment + vulnerabilities → safety verdicts.

use fi_config::closure::{component_exposure_ranking, fault_summary, ComponentExposure};
use fi_config::window::{exposure_curve, ExposurePoint, PatchRollout};
use fi_config::{Assignment, VulnerabilityDb};
use fi_types::{SimTime, VotingPower};

/// Evaluates the paper's safety condition `f ≥ Σ_i f^i_t` (§II-C) and the
/// structural exposure of an assignment.
#[derive(Debug, Clone)]
pub struct ResilienceAnalyzer {
    assignment: Assignment,
    db: VulnerabilityDb,
}

impl ResilienceAnalyzer {
    /// Creates an analyzer over an assignment and a vulnerability database.
    #[must_use]
    pub fn new(assignment: Assignment, db: VulnerabilityDb) -> Self {
        ResilienceAnalyzer { assignment, db }
    }

    /// The assignment under analysis.
    #[must_use]
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// The vulnerability database.
    #[must_use]
    pub fn database(&self) -> &VulnerabilityDb {
        &self.db
    }

    /// Analyzes the fault picture at instant `t`.
    #[must_use]
    pub fn analyze_at(&self, t: SimTime) -> ResilienceReport {
        let summary = fault_summary(&self.assignment, &self.db, t);
        let total = self.assignment.total_power();
        // The classic BFT bound: strictly less than a third of the power.
        let f_bound = VotingPower::new(total.as_units().saturating_sub(1) / 3);
        ResilienceReport {
            at: t,
            total_power: total,
            active_vulnerabilities: summary.per_vulnerability().len(),
            sum_compromised: summary.sum_power(),
            union_compromised: summary.union_power(),
            worst_single_vulnerability: summary.worst_single(),
            compromised_share: summary.compromised_share(),
            f_bound,
            safety_condition_holds: summary.safety_holds(f_bound),
            compromised_replicas: summary.union_replicas().len(),
        }
    }

    /// Analyzes a sweep of instants (for exposure-over-time plots).
    #[must_use]
    pub fn analyze_sweep(&self, times: &[SimTime]) -> Vec<ResilienceReport> {
        times.iter().map(|&t| self.analyze_at(t)).collect()
    }

    /// The structural single-product exposure ranking (no time component):
    /// which product concentrates the most voting power.
    #[must_use]
    pub fn exposure_ranking(&self) -> Vec<ComponentExposure> {
        component_exposure_ranking(&self.assignment)
    }

    /// Exposure curve under a patch-rollout model (experiment E9).
    #[must_use]
    pub fn exposure_curve(&self, rollout: &PatchRollout, times: &[SimTime]) -> Vec<ExposurePoint> {
        exposure_curve(&self.assignment, &self.db, rollout, times)
    }

    /// Entropy (bits) of the assignment's power-weighted configuration
    /// distribution.
    ///
    /// # Errors
    ///
    /// Returns [`fi_config::ConfigError`] if the assignment carries no
    /// power.
    pub fn entropy_bits(&self) -> Result<f64, fi_config::ConfigError> {
        self.assignment.entropy_bits()
    }
}

/// The fault picture at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceReport {
    /// The analyzed instant.
    pub at: SimTime,
    /// Total voting power `n_t`.
    pub total_power: VotingPower,
    /// `k_t`: vulnerabilities active at `t`.
    pub active_vulnerabilities: usize,
    /// The paper's `Σ_i f^i_t` (conservative; overlaps double-counted).
    pub sum_compromised: VotingPower,
    /// Power of the union of compromised replicas.
    pub union_compromised: VotingPower,
    /// The largest single `f^i_t`.
    pub worst_single_vulnerability: VotingPower,
    /// Union-compromised share of total power.
    pub compromised_share: f64,
    /// The BFT tolerance `f = ⌊(n − 1)/3⌋` in power units.
    pub f_bound: VotingPower,
    /// Whether `f ≥ Σ_i f^i_t` holds at `t`.
    pub safety_condition_holds: bool,
    /// Number of distinct compromised replicas.
    pub compromised_replicas: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_config::prelude::*;

    fn setup(diverse: bool) -> ResilienceAnalyzer {
        let space =
            ConfigurationSpace::cartesian(&[catalog::operating_systems()[..4].to_vec()]).unwrap();
        let assignment = if diverse {
            Assignment::round_robin(&space, 8, VotingPower::new(100)).unwrap()
        } else {
            Assignment::monoculture(&space, 0, 8, VotingPower::new(100)).unwrap()
        };
        let os = &catalog::operating_systems()[0];
        let mut db = VulnerabilityDb::new();
        db.add(
            Vulnerability::new(
                VulnId::new(0),
                "os-zero-day",
                ComponentSelector::product(os.kind(), os.name()),
                Severity::Critical,
            )
            .with_window(SimTime::from_secs(100), SimTime::from_secs(200)),
        );
        ResilienceAnalyzer::new(assignment, db)
    }

    #[test]
    fn diverse_assignment_survives_one_vuln() {
        let analyzer = setup(true);
        let report = analyzer.analyze_at(SimTime::from_secs(150));
        assert_eq!(report.active_vulnerabilities, 1);
        // 2 of 8 replicas share the vulnerable OS: 200 of 800 units.
        assert_eq!(report.sum_compromised, VotingPower::new(200));
        assert_eq!(report.union_compromised, VotingPower::new(200));
        assert_eq!(report.compromised_replicas, 2);
        // f = (800-1)/3 = 266 >= 200: safe.
        assert!(report.safety_condition_holds);
        assert!((report.compromised_share - 0.25).abs() < 1e-12);
    }

    #[test]
    fn monoculture_violates_safety_condition() {
        let analyzer = setup(false);
        let report = analyzer.analyze_at(SimTime::from_secs(150));
        assert_eq!(report.sum_compromised, VotingPower::new(800));
        assert!(!report.safety_condition_holds);
        assert_eq!(report.compromised_share, 1.0);
    }

    #[test]
    fn outside_window_nothing_is_compromised() {
        let analyzer = setup(false);
        for t in [
            SimTime::ZERO,
            SimTime::from_secs(99),
            SimTime::from_secs(200),
        ] {
            let report = analyzer.analyze_at(t);
            assert_eq!(report.active_vulnerabilities, 0);
            assert_eq!(report.sum_compromised, VotingPower::ZERO);
            assert!(report.safety_condition_holds);
        }
    }

    #[test]
    fn sweep_traces_the_window() {
        let analyzer = setup(true);
        let times: Vec<SimTime> = (0..6).map(|i| SimTime::from_secs(i * 50)).collect();
        let sweep = analyzer.analyze_sweep(&times);
        assert_eq!(sweep.len(), 6);
        let compromised: Vec<bool> = sweep.iter().map(|r| r.active_vulnerabilities > 0).collect();
        assert_eq!(compromised, vec![false, false, true, true, false, false]);
    }

    #[test]
    fn exposure_ranking_identifies_shared_os() {
        let analyzer = setup(false);
        let ranking = analyzer.exposure_ranking();
        assert_eq!(ranking[0].power, VotingPower::new(800));
        assert_eq!(ranking[0].replicas, 8);
        let diverse = setup(true);
        assert_eq!(diverse.exposure_ranking()[0].power, VotingPower::new(200));
    }

    #[test]
    fn exposure_curve_with_rollout_latency() {
        let analyzer = setup(true);
        let rollout = PatchRollout::new(SimTime::from_secs(50), SimTime::ZERO, 0);
        let times: Vec<SimTime> = (0..7).map(|i| SimTime::from_secs(i * 50)).collect();
        let curve = analyzer.exposure_curve(&rollout, &times);
        // Exposure persists to t=200+50 due to adoption latency.
        let at = |secs: u64| {
            curve
                .iter()
                .find(|p| p.time == SimTime::from_secs(secs))
                .unwrap()
                .exposed
        };
        assert_eq!(at(100), VotingPower::new(200));
        assert_eq!(at(200), VotingPower::new(200));
        assert_eq!(at(250), VotingPower::ZERO);
    }

    #[test]
    fn entropy_accessor() {
        assert!((setup(true).entropy_bits().unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(setup(false).entropy_bits().unwrap(), 0.0);
    }
}
