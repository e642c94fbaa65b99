//! The resilience analyzer: assignment + vulnerabilities → safety verdicts,
//! and the same verdict on a sealed fleet snapshot.

use fi_bft::WeightedQuorum;
use fi_config::closure::fault_summary;
use fi_config::window::{exposure_curve, PatchRollout};
use fi_config::{Assignment, ConfigurationSpace, FaultSummary, VulnerabilityDb};
use fi_fleet::EpochSnapshot;
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

    /// Analyzes the fault picture at instant `t`: the closure over the
    /// assignment's per-configuration power.
    #[must_use]
    pub fn analyze_at(&self, t: SimTime) -> ResilienceReport {
        let a = &self.assignment;
        let rows = a.space().iter().map(Some).zip(a.power_by_config());
        ResilienceReport::from_summary(&fault_summary(rows, &self.db, t), a.total_power(), t)
    }

    /// Exposure curve under a patch-rollout model (experiment E9): the
    /// exposed power at each of `times`.
    #[must_use]
    pub fn exposure_curve(&self, rollout: &PatchRollout, times: &[SimTime]) -> Vec<VotingPower> {
        exposure_curve(&self.assignment, &self.db, rollout, times)
    }
}

/// The fault picture at one instant, from an assignment
/// ([`ResilienceAnalyzer::analyze_at`]) or a sealed fleet snapshot
/// ([`ResilienceReport::from_snapshot`]).
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
    /// The BFT tolerance `f` in power units:
    /// [`WeightedQuorum::f_power`] over `total_power`, and zero below the 4
    /// units a quorum needs.
    pub f_bound: VotingPower,
    /// Whether `f ≥ Σ_i f^i_t` holds at `t`.
    pub safety_condition_holds: bool,
}

impl ResilienceReport {
    /// The verdict on a sealed epoch: the closure over the snapshot's
    /// buckets, with no roster walk — O(buckets × active
    /// vulnerabilities). A bucket whose measurement `catalogue` names is
    /// one row, that configuration's power.
    ///
    /// **Power the catalogue cannot name** — the unattested tier and every
    /// bucket whose measurement is outside `catalogue` — is one more row
    /// with no configuration, and every active vulnerability hits it: it
    /// counts in each term of `Σ_i f^i_t` and once in the union. With no
    /// vulnerability active it is compromised
    /// by none. `f` is taken over
    /// [`total_effective_power`](EpochSnapshot::total_effective_power).
    #[must_use]
    pub fn from_snapshot(
        snapshot: &EpochSnapshot,
        catalogue: &ConfigurationSpace,
        db: &VulnerabilityDb,
        t: SimTime,
    ) -> ResilienceReport {
        let buckets = snapshot.buckets();
        let mut unnamed = snapshot.unattested_power();
        let mut rows = Vec::with_capacity(buckets.len() + 1);
        for &(measurement, power) in buckets {
            if let Some(config) = catalogue
                .position(&measurement)
                .and_then(|i| catalogue.get(i).ok())
            {
                rows.push((Some(config), power));
            } else {
                unnamed += power;
            }
        }
        rows.push((None, unnamed));
        let summary = fault_summary(rows, db, t);
        ResilienceReport::from_summary(&summary, snapshot.total_effective_power(), t)
    }

    /// The shared constructor both verdict paths use, so the offline and
    /// the sealed report cannot drift.
    fn from_summary(summary: &FaultSummary, total: VotingPower, at: SimTime) -> ResilienceReport {
        let f_bound = WeightedQuorum::for_total(total).map_or(VotingPower::ZERO, |q| q.f_power());
        ResilienceReport {
            at,
            total_power: total,
            active_vulnerabilities: summary.per_vulnerability().len(),
            sum_compromised: summary.sum_power(),
            union_compromised: summary.union_power(),
            worst_single_vulnerability: summary.worst_single(),
            compromised_share: summary.union_power().share_of(total),
            f_bound,
            safety_condition_holds: summary.safety_holds(f_bound),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_attest::{ChurnOp, TwoTierWeights};
    use fi_config::closure::component_exposure_ranking;
    use fi_config::prelude::*;
    use fi_fleet::ShardedFleet;

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
            )
            .with_window(SimTime::from_secs(100), SimTime::from_secs(200)),
        );
        ResilienceAnalyzer::new(assignment, db)
    }

    /// `f` is `WeightedQuorum`'s: the old saturating `⌊(total − 1)/3⌋` at
    /// every total, so zero below the 4 units a quorum needs.
    #[test]
    fn f_bound_is_the_quorum_rules_f() {
        let summary = fault_summary(std::iter::empty(), &VulnerabilityDb::new(), SimTime::ZERO);
        for total in (0..=12).chain([800, 1_000]) {
            let report =
                ResilienceReport::from_summary(&summary, VotingPower::new(total), SimTime::ZERO);
            let old = total.saturating_sub(1) / 3;
            assert_eq!(report.f_bound, VotingPower::new(old), "total = {total}");
        }
    }

    #[test]
    fn diverse_assignment_survives_one_vuln() {
        let analyzer = setup(true);
        let report = analyzer.analyze_at(SimTime::from_secs(150));
        assert_eq!(report.active_vulnerabilities, 1);
        // 2 of 8 replicas share the vulnerable OS: 200 of 800 units.
        assert_eq!(report.sum_compromised, VotingPower::new(200));
        assert_eq!(report.union_compromised, VotingPower::new(200));
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
        let compromised: Vec<bool> = times
            .iter()
            .map(|&t| analyzer.analyze_at(t).active_vulnerabilities > 0)
            .collect();
        assert_eq!(compromised, vec![false, false, true, true, false, false]);
    }

    #[test]
    fn exposure_ranking_identifies_shared_os() {
        let ranking = component_exposure_ranking(&setup(false).assignment);
        assert_eq!(ranking[0].power, VotingPower::new(800));
        assert_eq!(ranking[0].replicas, 8);
        let diverse = component_exposure_ranking(&setup(true).assignment);
        assert_eq!(diverse[0].power, VotingPower::new(200));
    }

    #[test]
    fn exposure_curve_with_rollout_latency() {
        let analyzer = setup(true);
        let rollout = PatchRollout::new(SimTime::from_secs(50), SimTime::ZERO, 0);
        let times: Vec<SimTime> = (0..7).map(|i| SimTime::from_secs(i * 50)).collect();
        let curve = analyzer.exposure_curve(&rollout, &times);
        // Exposure persists to t=200+50 due to adoption latency.
        let at = |secs: u64| curve[(secs / 50) as usize];
        assert_eq!(at(100), VotingPower::new(200));
        assert_eq!(at(200), VotingPower::new(200));
        assert_eq!(at(250), VotingPower::ZERO);
    }

    #[test]
    fn power_the_catalogue_cannot_name_is_one_row_every_vulnerability_hits() {
        let oses = catalog::operating_systems();
        let space = ConfigurationSpace::cartesian(&[oses[..3].to_vec()]).unwrap();
        let fleet = ShardedFleet::new(2, TwoTierWeights::new(1.0, 0.5));
        let mut ops: Vec<ChurnOp> = (0..3)
            .map(|i| {
                let m = space.get(i).unwrap().measurement();
                ChurnOp::attest(ReplicaId::new(i as u64), m, VotingPower::new(100))
            })
            .collect();
        let unknown = fi_types::sha256(b"outside the catalogue");
        ops.push(ChurnOp::attest(
            ReplicaId::new(3),
            unknown,
            VotingPower::new(30),
        ));
        for replica in [4, 5] {
            let (replica, power) = (ReplicaId::new(replica), VotingPower::new(40));
            ops.push(ChurnOp::Unattested { replica, power });
        }
        fleet.try_ingest_batch(&ops).unwrap();
        let snapshot = fleet.try_seal_epoch().unwrap();
        let db: VulnerabilityDb = oses[..2]
            .iter()
            .enumerate()
            .map(|(i, os)| {
                let on_os = ComponentSelector::product(os.kind(), os.name());
                Vulnerability::new(VulnId::new(i as u64), "os-bug", on_os)
                    .with_window(SimTime::from_secs(10), SimTime::from_secs(20))
            })
            .collect();
        let at = |secs| {
            ResilienceReport::from_snapshot(&snapshot, &space, &db, SimTime::from_secs(secs))
        };

        // Three OS buckets of 100, then 30 unknown + 2 × 40 × 0.5 unattested.
        let quiet = at(5);
        assert_eq!(quiet.total_power, VotingPower::new(370));
        assert_eq!(quiet.active_vulnerabilities, 0);
        assert_eq!(quiet.sum_compromised, VotingPower::ZERO);
        assert_eq!(quiet.union_compromised, VotingPower::ZERO);
        assert!(quiet.safety_condition_holds);

        // Each term is its OS's 100 plus the unnamed 70; the union takes
        // the unnamed row once.
        let hot = at(15);
        assert_eq!(hot.active_vulnerabilities, 2);
        assert_eq!(hot.sum_compromised, VotingPower::new(340));
        assert_eq!(hot.worst_single_vulnerability, VotingPower::new(170));
        assert_eq!(hot.union_compromised, VotingPower::new(270));
        assert_eq!(hot.f_bound, VotingPower::new(123));
        assert!(!hot.safety_condition_holds);
    }
}
