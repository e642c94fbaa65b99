//! Property-based tests for the configuration model: measurement
//! determinism, assignment conservation laws, and correlated-fault closure
//! invariants.

use fi_config::generator::AssignmentEntry;
use fi_config::prelude::*;
use proptest::prelude::*;

fn small_space(layers: usize) -> ConfigurationSpace {
    let mut layer_lists = vec![catalog::operating_systems()];
    if layers >= 2 {
        layer_lists.push(catalog::crypto_libraries());
    }
    if layers >= 3 {
        layer_lists.push(catalog::databases());
    }
    ConfigurationSpace::cartesian(&layer_lists).unwrap()
}

proptest! {
    // Pinned case count: the vendored proptest runner derives every case
    // seed from the test name, so this suite is reproducible bit-for-bit.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Configuration measurements are injective over the cartesian space.
    #[test]
    fn measurements_unique(layers in 1usize..=2) {
        let space = small_space(layers);
        let mut seen = std::collections::HashSet::new();
        for config in space.iter() {
            prop_assert!(seen.insert(config.measurement()), "collision in {config}");
        }
    }

    /// Assignment conservation: total power equals the sum over configs,
    /// abundance totals equal replica count, distribution sums to 1.
    #[test]
    fn assignment_conservation(
        n in 1usize..40,
        powers in proptest::collection::vec(1u64..1_000, 40),
        configs in proptest::collection::vec(0usize..8, 40),
    ) {
        let space = small_space(1); // 8 OS configurations
        let entries: Vec<AssignmentEntry> = (0..n)
            .map(|i| AssignmentEntry {
                replica: ReplicaId::new(i as u64),
                config: configs[i],
                power: VotingPower::new(powers[i]),
            })
            .collect();
        let assignment = Assignment::new(space, entries).unwrap();

        let by_config: VotingPower = assignment.power_by_config().iter().copied().sum();
        prop_assert_eq!(by_config, assignment.total_power());

        let abundance = assignment.abundance().unwrap();
        prop_assert_eq!(abundance.counts().iter().sum::<u64>(), n as u64);

        let dist = assignment.distribution().unwrap();
        let sum: f64 = dist.probabilities().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
    }

    /// Reassigning a replica preserves total power and replica count.
    #[test]
    fn reassignment_conserves_power(
        n in 2usize..20,
        target in 0usize..8,
        victim in 0usize..20,
    ) {
        let space = small_space(1);
        let mut assignment =
            Assignment::round_robin(&space, n, VotingPower::new(17)).unwrap();
        let victim = ReplicaId::new((victim % n) as u64);
        let before_power = assignment.total_power();
        assignment.reassign(victim, target).unwrap();
        prop_assert_eq!(assignment.total_power(), before_power);
        prop_assert_eq!(assignment.replica_count(), n);
        prop_assert_eq!(assignment.configuration_of(victim), space.get(target).ok());
    }

    /// Closure invariants: for any vulnerability,
    /// worst_single <= sum, union <= total, and per-vuln powers sum to the
    /// summary's sum.
    #[test]
    fn closure_invariants(
        n in 1usize..30,
        os_index in 0usize..8,
        seed_configs in proptest::collection::vec(0usize..8, 30),
    ) {
        let space = small_space(1);
        let entries: Vec<AssignmentEntry> = (0..n)
            .map(|i| AssignmentEntry {
                replica: ReplicaId::new(i as u64),
                config: seed_configs[i],
                power: VotingPower::new(10),
            })
            .collect();
        let assignment = Assignment::new(space.clone(), entries).unwrap();
        let os = &catalog::operating_systems()[os_index];
        let mut db = VulnerabilityDb::new();
        db.add(Vulnerability::new(
            VulnId::new(0),
            "p",
            ComponentSelector::product(os.kind(), os.name()),
        ));
        db.add(Vulnerability::new(
            VulnId::new(1),
            "layer",
            ComponentSelector::layer(ComponentKind::OperatingSystem),
        ));
        let rows = space.iter().map(Some).zip(assignment.power_by_config());
        let summary = fault_summary(rows, &db, SimTime::ZERO);
        let per_vuln_sum: VotingPower = summary
            .per_vulnerability()
            .iter()
            .map(|&(_, power)| power)
            .sum();
        prop_assert_eq!(per_vuln_sum, summary.sum_power());
        prop_assert!(summary.worst_single() <= summary.sum_power());
        prop_assert!(summary.union_power() <= assignment.total_power());
        prop_assert!(summary.union_power() <= summary.sum_power());
        // The layer vulnerability hits everyone, so the union is total.
        prop_assert_eq!(summary.union_power(), assignment.total_power());
    }

    /// Exposure ranking: the top entry's power is at least the average and
    /// at most the total; entries cover each configured layer exactly once
    /// per product.
    #[test]
    fn exposure_ranking_bounds(n in 1usize..20) {
        let space = small_space(2);
        let assignment =
            Assignment::round_robin(&space, n, VotingPower::new(5)).unwrap();
        let ranking = component_exposure_ranking(&assignment);
        prop_assert!(!ranking.is_empty());
        let total = assignment.total_power();
        for e in &ranking {
            prop_assert!(e.power <= total);
            prop_assert!(e.replicas <= n);
        }
        // Descending order.
        for w in ranking.windows(2) {
            prop_assert!(w[0].power >= w[1].power);
        }
    }

    /// Vulnerability window algebra: active iff disclosed <= t < patched.
    #[test]
    fn window_algebra(disclosed in 0u64..1_000, len in 0u64..1_000, probe in 0u64..3_000) {
        let v = Vulnerability::new(
            VulnId::new(0),
            "w",
            ComponentSelector::layer(ComponentKind::Database),
        )
        .with_window(
            SimTime::from_micros(disclosed),
            SimTime::from_micros(disclosed + len),
        );
        let t = SimTime::from_micros(probe);
        prop_assert_eq!(
            v.active_at(t),
            probe >= disclosed && probe < disclosed + len
        );
    }
}

use fi_config::closure::component_exposure_ranking;
use fi_config::closure::fault_summary;
use fi_config::ComponentKind;
