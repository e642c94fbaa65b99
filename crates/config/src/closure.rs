//! The correlated-fault closure (paper §II-C).
//!
//! "To guarantee system security, it is essential to ensure that the total
//! number of Byzantine faults does not exceed the resilience (`f`) of the
//! system, i.e. `∀t, f ≥ Σ_{i=1}^{k_t} f^i_t`."
//!
//! Replicas that share a configuration fall together, so the closure's
//! unit is the configuration, not the replica: [`fault_summary`] reads one
//! row per configuration — its voting power — and computes, for each
//! vulnerability `i` active at `t`, the power `f^i_t` it compromises, the
//! paper's sum `Σ f^i_t`, the (tighter) union when vulnerabilities
//! overlap, and the safety condition itself.

use fi_types::{SimTime, VotingPower, VulnId};

use crate::component::ComponentKind;
use crate::configuration::Configuration;
use crate::generator::Assignment;
use crate::vulnerability::VulnerabilityDb;

/// The full fault picture at one instant: one term `f^i_t` per active
/// vulnerability, the paper's sum `Σ f^i_t`, and the union (which counts
/// a configuration hit by several vulnerabilities once).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSummary {
    per_vuln: Vec<(VulnId, VotingPower)>,
    sum_power: VotingPower,
    union_power: VotingPower,
}

impl FaultSummary {
    /// The term `f^i_t` of each active vulnerability, in database order
    /// (zero terms are retained, so the count is `k_t`).
    #[must_use]
    pub fn per_vulnerability(&self) -> &[(VulnId, VotingPower)] {
        &self.per_vuln
    }

    /// The paper's `Σ_i f^i_t` — the conservative total that the safety
    /// condition compares against `f`. Power hit by two vulnerabilities
    /// is counted twice here, exactly as the paper's sum does.
    #[must_use]
    pub fn sum_power(&self) -> VotingPower {
        self.sum_power
    }

    /// Voting power of the *union* of compromised configurations — the
    /// tight measure of how much power the attacker actually controls.
    #[must_use]
    pub fn union_power(&self) -> VotingPower {
        self.union_power
    }

    /// The largest single `f^i_t` — what min-entropy bounds.
    #[must_use]
    pub fn worst_single(&self) -> VotingPower {
        self.per_vuln
            .iter()
            .map(|&(_, power)| power)
            .max()
            .unwrap_or(VotingPower::ZERO)
    }

    /// The paper's safety condition `f ≥ Σ_i f^i_t` for a given fault
    /// tolerance `f` (in voting power units).
    #[must_use]
    pub fn safety_holds(&self, f: VotingPower) -> bool {
        f >= self.sum_power
    }
}

/// Computes the [`FaultSummary`] for all vulnerabilities active at `t`
/// over per-configuration rows `(configuration, power)`.
///
/// A `None` row is power the caller cannot name a configuration for; it
/// is hit by every active vulnerability. One pass over the rows, each
/// checked against every active vulnerability: O(rows × `k_t`).
///
/// # Example
///
/// ```
/// use fi_config::prelude::*;
/// let space = ConfigurationSpace::cartesian(&[catalog::operating_systems()[..2].to_vec()])?;
/// let os = &catalog::operating_systems()[0];
/// let mut db = VulnerabilityDb::new();
/// db.add(Vulnerability::new(
///     VulnId::new(0), "os-bug",
///     ComponentSelector::product(os.kind(), os.name()),
/// ));
/// // Two replicas of 25 units on each OS.
/// let rows = space.iter().map(|c| (Some(c), VotingPower::new(50)));
/// let summary = fault_summary(rows, &db, SimTime::ZERO);
/// // The replicas sharing the vulnerable OS: 50 of 100 power units.
/// assert_eq!(summary.sum_power(), VotingPower::new(50));
/// assert!(summary.safety_holds(VotingPower::new(50)));
/// assert!(!summary.safety_holds(VotingPower::new(49)));
/// # Ok::<(), fi_config::ConfigError>(())
/// ```
#[must_use]
pub fn fault_summary<'a>(
    rows: impl IntoIterator<Item = (Option<&'a Configuration>, VotingPower)>,
    db: &VulnerabilityDb,
    t: SimTime,
) -> FaultSummary {
    let active: Vec<_> = db.active_at(t).collect();
    let mut per_vuln: Vec<(VulnId, VotingPower)> =
        active.iter().map(|v| (v.id(), VotingPower::ZERO)).collect();
    let mut union_power = VotingPower::ZERO;
    for (config, power) in rows {
        let mut hit = false;
        for ((_, term), v) in per_vuln.iter_mut().zip(&active) {
            if config.is_none_or(|c| v.affects(c)) {
                *term += power;
                hit = true;
            }
        }
        if hit {
            union_power += power;
        }
    }
    FaultSummary {
        sum_power: per_vuln.iter().map(|&(_, power)| power).sum(),
        per_vuln,
        union_power,
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
// lint: allow(unused-pub) paper-facing: which single product concentrates the most voting power, bounded by config_properties and checked in the analyzer and pipeline tests
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{catalog, ComponentKind};
    use crate::space::ConfigurationSpace;
    use crate::vulnerability::{ComponentSelector, Vulnerability};
    use fi_types::ReplicaId;

    fn os_space(n: usize) -> ConfigurationSpace {
        ConfigurationSpace::cartesian(&[catalog::operating_systems()[..n].to_vec()]).unwrap()
    }

    fn os_vuln(id: u64, os_index: usize) -> Vulnerability {
        let os = &catalog::operating_systems()[os_index];
        Vulnerability::new(
            VulnId::new(id),
            format!("os-bug-{id}"),
            ComponentSelector::product(ComponentKind::OperatingSystem, os.name()),
        )
    }

    /// The closure over an assignment's per-configuration rows.
    fn summary(a: &Assignment, db: &VulnerabilityDb, t: SimTime) -> FaultSummary {
        let rows = a.space().iter().map(Some).zip(a.power_by_config());
        fault_summary(rows, db, t)
    }

    #[test]
    fn fault_set_selects_exactly_matching_replicas() {
        let a = Assignment::round_robin(&os_space(4), 8, VotingPower::new(10)).unwrap();
        let s = summary(
            &a,
            &VulnerabilityDb::from_iter([os_vuln(0, 1)]),
            SimTime::ZERO,
        );
        assert_eq!(
            s.per_vulnerability(),
            [(VulnId::new(0), VotingPower::new(20))]
        );
    }

    #[test]
    fn fault_set_is_empty_outside_window() {
        let a = Assignment::round_robin(&os_space(2), 4, VotingPower::new(1)).unwrap();
        let v = os_vuln(0, 0).with_window(SimTime::from_secs(100), SimTime::from_secs(200));
        let db = VulnerabilityDb::from_iter([v]);
        let before = summary(&a, &db, SimTime::from_secs(50));
        assert!(before.per_vulnerability().is_empty());
        assert_eq!(before.union_power(), VotingPower::ZERO);
        let during = summary(&a, &db, SimTime::from_secs(150));
        assert_eq!(during.union_power(), VotingPower::new(2));
    }

    #[test]
    fn monoculture_loses_everything_to_one_vuln() {
        let a = Assignment::monoculture(&os_space(4), 0, 10, VotingPower::new(10)).unwrap();
        let s = summary(
            &a,
            &VulnerabilityDb::from_iter([os_vuln(0, 0)]),
            SimTime::ZERO,
        );
        assert_eq!(s.sum_power(), VotingPower::new(100));
        assert_eq!(s.union_power(), a.total_power());
        assert!(!s.safety_holds(VotingPower::new(99)));
    }

    #[test]
    fn diverse_assignment_caps_single_vuln_damage() {
        let a = Assignment::round_robin(&os_space(8), 8, VotingPower::new(10)).unwrap();
        let s = summary(
            &a,
            &VulnerabilityDb::from_iter([os_vuln(0, 0)]),
            SimTime::ZERO,
        );
        assert_eq!(s.sum_power(), VotingPower::new(10));
        assert!((s.union_power().share_of(a.total_power()) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn sum_counts_overlaps_twice_union_does_not() {
        // One OS-product vuln and one layer-wide vuln both hit replica 0.
        let a = Assignment::round_robin(&os_space(2), 2, VotingPower::new(50)).unwrap();
        let layer_vuln = Vulnerability::new(
            VulnId::new(1),
            "os-layer",
            ComponentSelector::layer(ComponentKind::OperatingSystem),
        );
        let db = VulnerabilityDb::from_iter([os_vuln(0, 0), layer_vuln]);
        let s = summary(&a, &db, SimTime::ZERO);
        // Product vuln: 50 (replica 0); layer vuln: 100 (both replicas).
        assert_eq!(s.sum_power(), VotingPower::new(150));
        assert_eq!(s.union_power(), VotingPower::new(100));
        assert_eq!(s.worst_single(), VotingPower::new(100));
    }

    #[test]
    fn summary_with_no_active_vulns_is_clean() {
        let a = Assignment::round_robin(&os_space(2), 4, VotingPower::new(1)).unwrap();
        let s = summary(&a, &VulnerabilityDb::new(), SimTime::ZERO);
        assert_eq!(s.sum_power(), VotingPower::ZERO);
        assert_eq!(s.union_power(), VotingPower::ZERO);
        assert_eq!(s.worst_single(), VotingPower::ZERO);
        assert!(s.safety_holds(VotingPower::ZERO));
        assert_eq!(s.per_vulnerability().len(), 0);
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
            ),
        ]);
        let s = summary(&a, &db, SimTime::ZERO);
        assert_eq!(s.union_power(), VotingPower::new(50));
        assert_eq!(s.sum_power(), VotingPower::new(100));
        assert!(s.safety_holds(VotingPower::new(100)));
        assert!(!s.safety_holds(VotingPower::new(51)));
    }
}
