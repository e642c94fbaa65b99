//! The correlated-fault closure (paper §II-C).
//!
//! "To guarantee system security, it is essential to ensure that the total
//! number of Byzantine faults does not exceed the resilience (`f`) of the
//! system, i.e. `∀t, f ≥ Σ_{i=1}^{k_t} f^i_t`."
//!
//! Given an [`Assignment`] and a [`VulnerabilityDb`], this module computes,
//! for each vulnerability `i` active at time `t`, the voting power `f^i_t`
//! it compromises, the paper's sum `Σ f^i_t`, the (tighter) union when
//! vulnerabilities overlap on replicas, and the safety condition itself.

use fi_types::{ReplicaId, SimTime, VotingPower, VulnId};

use crate::component::ComponentKind;
use crate::generator::Assignment;
use crate::vulnerability::{Vulnerability, VulnerabilityDb};

/// The replicas (and total voting power) compromised by one vulnerability —
/// one term `f^i_t` of the paper's sum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSet {
    vuln: VulnId,
    replicas: Vec<ReplicaId>,
    power: VotingPower,
}

impl FaultSet {
    /// The vulnerability that induces this fault set.
    #[must_use]
    pub fn vuln(&self) -> VulnId {
        self.vuln
    }

    /// The compromised replicas.
    #[must_use]
    pub fn replicas(&self) -> &[ReplicaId] {
        &self.replicas
    }

    /// The compromised voting power `f^i_t`.
    #[must_use]
    pub fn power(&self) -> VotingPower {
        self.power
    }

    /// Whether no replica is affected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }
}

/// Computes the fault set of a single vulnerability at time `t`: all
/// replicas whose configuration contains a matching component, if the
/// vulnerability is inside its exploitability window (empty set otherwise).
#[must_use]
pub fn correlated_fault_set(assignment: &Assignment, vuln: &Vulnerability, t: SimTime) -> FaultSet {
    let mut replicas = Vec::new();
    let mut power = VotingPower::ZERO;
    if vuln.active_at(t) {
        for entry in assignment.entries() {
            let config = assignment
                .space()
                .get(entry.config)
                .expect("assignment indices validated at construction");
            if vuln.affects(config) {
                replicas.push(entry.replica);
                power += entry.power;
            }
        }
    }
    FaultSet {
        vuln: vuln.id(),
        replicas,
        power,
    }
}

/// The full fault picture at one instant: per-vulnerability fault sets, the
/// paper's sum `Σ f^i_t`, and the union (which de-duplicates replicas hit
/// by several vulnerabilities at once).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSummary {
    per_vuln: Vec<FaultSet>,
    sum_power: VotingPower,
    union_power: VotingPower,
    union_replicas: Vec<ReplicaId>,
    total_power: VotingPower,
}

impl FaultSummary {
    /// Fault sets per active vulnerability (empty sets are retained so the
    /// count equals `k_t` restricted to active windows).
    #[must_use]
    pub fn per_vulnerability(&self) -> &[FaultSet] {
        &self.per_vuln
    }

    /// The paper's `Σ_i f^i_t` — the conservative total that the safety
    /// condition compares against `f`. Replicas hit by two vulnerabilities
    /// are counted twice here, exactly as the paper's sum does.
    #[must_use]
    pub fn sum_power(&self) -> VotingPower {
        self.sum_power
    }

    /// Voting power of the *union* of compromised replicas — the tight
    /// measure of how much power the attacker actually controls.
    #[must_use]
    pub fn union_power(&self) -> VotingPower {
        self.union_power
    }

    /// The distinct compromised replicas.
    #[must_use]
    pub fn union_replicas(&self) -> &[ReplicaId] {
        &self.union_replicas
    }

    /// Total system power `n_t` (for computing shares).
    #[must_use]
    pub fn total_power(&self) -> VotingPower {
        self.total_power
    }

    /// The largest single `f^i_t` — what min-entropy bounds.
    #[must_use]
    pub fn worst_single(&self) -> VotingPower {
        self.per_vuln
            .iter()
            .map(FaultSet::power)
            .max()
            .unwrap_or(VotingPower::ZERO)
    }

    /// The compromised *share* of total power (union-based), in `[0, 1]`.
    #[must_use]
    pub fn compromised_share(&self) -> f64 {
        self.union_power.share_of(self.total_power)
    }

    /// The paper's safety condition `f ≥ Σ_i f^i_t` for a given fault
    /// tolerance `f` (in voting power units).
    #[must_use]
    pub fn safety_holds(&self, f: VotingPower) -> bool {
        f >= self.sum_power
    }
}

/// Computes the [`FaultSummary`] for all vulnerabilities active at `t`.
///
/// # Example
///
/// ```
/// use fi_config::prelude::*;
/// let space = ConfigurationSpace::cartesian(&[catalog::operating_systems()[..2].to_vec()])?;
/// let a = Assignment::round_robin(&space, 4, VotingPower::new(25))?;
/// let os = &catalog::operating_systems()[0];
/// let mut db = VulnerabilityDb::new();
/// db.add(Vulnerability::new(
///     VulnId::new(0), "os-bug",
///     ComponentSelector::product(os.kind(), os.name()),
///     Severity::Critical,
/// ));
/// let summary = fault_summary(&a, &db, SimTime::ZERO);
/// // Two of four replicas share the vulnerable OS: 50 of 100 power units.
/// assert_eq!(summary.sum_power(), VotingPower::new(50));
/// assert!(summary.safety_holds(VotingPower::new(50)));
/// assert!(!summary.safety_holds(VotingPower::new(49)));
/// # Ok::<(), fi_config::ConfigError>(())
/// ```
#[must_use]
pub fn fault_summary(assignment: &Assignment, db: &VulnerabilityDb, t: SimTime) -> FaultSummary {
    let per_vuln: Vec<FaultSet> = db
        .active_at(t)
        .map(|v| correlated_fault_set(assignment, v, t))
        .collect();
    let sum_power = per_vuln.iter().map(FaultSet::power).sum();

    let mut union_replicas: Vec<ReplicaId> = per_vuln
        .iter()
        .flat_map(|fs| fs.replicas.iter().copied())
        .collect();
    union_replicas.sort_unstable();
    union_replicas.dedup();
    let union_power = union_replicas
        .iter()
        .filter_map(|&r| assignment.power_of(r))
        .sum();

    FaultSummary {
        per_vuln,
        sum_power,
        union_power,
        union_replicas,
        total_power: assignment.total_power(),
    }
}

/// Voting power concentrated on one product at one layer — the exposure an
/// attacker gains from a single product-level zero-day.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentExposure {
    /// The layer.
    pub kind: ComponentKind,
    /// The product name.
    pub name: String,
    /// Voting power running this product.
    pub power: VotingPower,
    /// Number of replicas running this product.
    pub replicas: usize,
}

/// Ranks products by concentrated voting power, across all layers,
/// descending. The head of this list is the system's single worst zero-day
/// target; its share is `2^{−H_∞}`-bounded by the min-entropy of the
/// per-layer product distribution.
#[must_use]
pub fn component_exposure_ranking(assignment: &Assignment) -> Vec<ComponentExposure> {
    use std::collections::HashMap;
    let mut acc: HashMap<(ComponentKind, String), (VotingPower, usize)> = HashMap::new();
    for entry in assignment.entries() {
        let config = assignment
            .space()
            .get(entry.config)
            .expect("validated index");
        for component in config.components() {
            let key = (component.kind(), component.name().to_string());
            let slot = acc.entry(key).or_insert((VotingPower::ZERO, 0));
            slot.0 += entry.power;
            slot.1 += 1;
        }
    }
    let mut ranking: Vec<ComponentExposure> = acc
        .into_iter()
        .map(|((kind, name), (power, replicas))| ComponentExposure {
            kind,
            name,
            power,
            replicas,
        })
        .collect();
    ranking.sort_by(|a, b| {
        b.power
            .cmp(&a.power)
            .then_with(|| a.kind.cmp(&b.kind))
            .then_with(|| a.name.cmp(&b.name))
    });
    ranking
}

/// The single worst product exposure (the top of
/// [`component_exposure_ranking`]); `None` for assignments whose
/// configurations have no components.
#[must_use]
pub fn worst_single_component_exposure(assignment: &Assignment) -> Option<ComponentExposure> {
    component_exposure_ranking(assignment).into_iter().next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{catalog, ComponentKind};
    use crate::space::ConfigurationSpace;
    use crate::vulnerability::{ComponentSelector, Severity, Vulnerability};

    fn os_space(n: usize) -> ConfigurationSpace {
        ConfigurationSpace::cartesian(&[catalog::operating_systems()[..n].to_vec()]).unwrap()
    }

    fn os_vuln(id: u64, os_index: usize) -> Vulnerability {
        let os = &catalog::operating_systems()[os_index];
        Vulnerability::new(
            VulnId::new(id),
            format!("os-bug-{id}"),
            ComponentSelector::product(ComponentKind::OperatingSystem, os.name()),
            Severity::Critical,
        )
    }

    #[test]
    fn fault_set_selects_exactly_matching_replicas() {
        let a = Assignment::round_robin(&os_space(4), 8, VotingPower::new(10)).unwrap();
        let fs = correlated_fault_set(&a, &os_vuln(0, 1), SimTime::ZERO);
        assert_eq!(fs.replicas().len(), 2);
        assert_eq!(fs.power(), VotingPower::new(20));
        assert_eq!(fs.vuln(), VulnId::new(0));
        assert!(!fs.is_empty());
    }

    #[test]
    fn fault_set_is_empty_outside_window() {
        let a = Assignment::round_robin(&os_space(2), 4, VotingPower::UNIT).unwrap();
        let v = os_vuln(0, 0).with_window(SimTime::from_secs(100), SimTime::from_secs(200));
        assert!(correlated_fault_set(&a, &v, SimTime::from_secs(50)).is_empty());
        assert!(!correlated_fault_set(&a, &v, SimTime::from_secs(150)).is_empty());
    }

    #[test]
    fn monoculture_loses_everything_to_one_vuln() {
        let a = Assignment::monoculture(&os_space(4), 0, 10, VotingPower::new(10)).unwrap();
        let summary = fault_summary(
            &a,
            &VulnerabilityDb::from_iter([os_vuln(0, 0)]),
            SimTime::ZERO,
        );
        assert_eq!(summary.sum_power(), VotingPower::new(100));
        assert_eq!(summary.compromised_share(), 1.0);
        assert!(!summary.safety_holds(VotingPower::new(99)));
    }

    #[test]
    fn diverse_assignment_caps_single_vuln_damage() {
        let a = Assignment::round_robin(&os_space(8), 8, VotingPower::new(10)).unwrap();
        let summary = fault_summary(
            &a,
            &VulnerabilityDb::from_iter([os_vuln(0, 0)]),
            SimTime::ZERO,
        );
        assert_eq!(summary.sum_power(), VotingPower::new(10));
        assert!((summary.compromised_share() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn sum_counts_overlaps_twice_union_does_not() {
        // One OS-product vuln and one layer-wide vuln both hit replica 0.
        let a = Assignment::round_robin(&os_space(2), 2, VotingPower::new(50)).unwrap();
        let layer_vuln = Vulnerability::new(
            VulnId::new(1),
            "os-layer",
            ComponentSelector::layer(ComponentKind::OperatingSystem),
            Severity::High,
        );
        let db = VulnerabilityDb::from_iter([os_vuln(0, 0), layer_vuln]);
        let summary = fault_summary(&a, &db, SimTime::ZERO);
        // Product vuln: 50 (replica 0); layer vuln: 100 (both replicas).
        assert_eq!(summary.sum_power(), VotingPower::new(150));
        assert_eq!(summary.union_power(), VotingPower::new(100));
        assert_eq!(summary.union_replicas().len(), 2);
        assert_eq!(summary.worst_single(), VotingPower::new(100));
    }

    #[test]
    fn summary_with_no_active_vulns_is_clean() {
        let a = Assignment::round_robin(&os_space(2), 4, VotingPower::UNIT).unwrap();
        let summary = fault_summary(&a, &VulnerabilityDb::new(), SimTime::ZERO);
        assert_eq!(summary.sum_power(), VotingPower::ZERO);
        assert_eq!(summary.union_power(), VotingPower::ZERO);
        assert_eq!(summary.worst_single(), VotingPower::ZERO);
        assert_eq!(summary.compromised_share(), 0.0);
        assert!(summary.safety_holds(VotingPower::ZERO));
        assert_eq!(summary.per_vulnerability().len(), 0);
    }

    #[test]
    fn exposure_ranking_orders_by_power() {
        // 3 replicas on OS 0, 1 replica on OS 1; equal power.
        let space = os_space(2);
        let entries = vec![
            super::super::generator::AssignmentEntry {
                replica: ReplicaId::new(0),
                config: 0,
                power: VotingPower::new(10),
            },
            super::super::generator::AssignmentEntry {
                replica: ReplicaId::new(1),
                config: 0,
                power: VotingPower::new(10),
            },
            super::super::generator::AssignmentEntry {
                replica: ReplicaId::new(2),
                config: 0,
                power: VotingPower::new(10),
            },
            super::super::generator::AssignmentEntry {
                replica: ReplicaId::new(3),
                config: 1,
                power: VotingPower::new(10),
            },
        ];
        let a = Assignment::new(space, entries).unwrap();
        let ranking = component_exposure_ranking(&a);
        assert_eq!(ranking.len(), 2);
        assert_eq!(ranking[0].power, VotingPower::new(30));
        assert_eq!(ranking[0].replicas, 3);
        assert_eq!(ranking[1].power, VotingPower::new(10));
        let worst = worst_single_component_exposure(&a).unwrap();
        assert_eq!(worst.power, VotingPower::new(30));
    }

    #[test]
    fn exposure_ranking_spans_all_layers() {
        let space = ConfigurationSpace::cartesian(&[
            catalog::operating_systems()[..2].to_vec(),
            catalog::crypto_libraries()[..1].to_vec(),
        ])
        .unwrap();
        let a = Assignment::round_robin(&space, 4, VotingPower::new(10)).unwrap();
        let ranking = component_exposure_ranking(&a);
        // The shared crypto library concentrates all power.
        let worst = &ranking[0];
        assert_eq!(worst.kind, ComponentKind::CryptoLibrary);
        assert_eq!(worst.power, VotingPower::new(40));
    }

    #[test]
    fn safety_condition_uses_sum_not_union() {
        // The paper's condition is over the conservative sum.
        let a = Assignment::round_robin(&os_space(2), 2, VotingPower::new(50)).unwrap();
        let db = VulnerabilityDb::from_iter([
            os_vuln(0, 0),
            Vulnerability::new(
                VulnId::new(1),
                "dup",
                ComponentSelector::product(
                    ComponentKind::OperatingSystem,
                    catalog::operating_systems()[0].name(),
                ),
                Severity::High,
            ),
        ]);
        let summary = fault_summary(&a, &db, SimTime::ZERO);
        assert_eq!(summary.union_power(), VotingPower::new(50));
        assert_eq!(summary.sum_power(), VotingPower::new(100));
        assert!(summary.safety_holds(VotingPower::new(100)));
        assert!(!summary.safety_holds(VotingPower::new(51)));
    }
}
