//! Property-based tests for the BFT stack: for any cluster size, fault
//! placement within the certified bound, network jitter, and seed, the
//! protocol must stay safe — and live whenever faults are within `f`.

use fi_bft::harness::{run_cluster, ClusterConfig, ScheduledFault};
use fi_bft::{Behavior, WeightedQuorum};
use fi_simnet::{LatencyModel, NetworkConfig};
use fi_types::{SimTime, VotingPower};
use proptest::prelude::*;

fn cluster_sizes() -> impl Strategy<Value = usize> {
    prop_oneof![Just(4usize), Just(5), Just(7), Just(10)]
}

fn behaviors() -> impl Strategy<Value = Behavior> {
    prop_oneof![
        Just(Behavior::Crashed),
        Just(Behavior::Silent),
        Just(Behavior::Equivocate),
        Just(Behavior::WithholdCommit),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With at most f faulty replicas of any behaviour, safety and
    /// liveness both hold, across seeds and fault onset times.
    #[test]
    fn up_to_f_faults_are_harmless(
        n in cluster_sizes(),
        seed in 0u64..1_000,
        behavior in behaviors(),
        onset_ms in 0u64..50,
        placement in 0usize..10,
    ) {
        let config = ClusterConfig::new(n)
            .requests(4)
            .max_time(SimTime::from_secs(25));
        // One unit each: f power is f replicas.
        let f = config.quorum().f_power().as_units() as usize;
        let faults: Vec<ScheduledFault> = (0..f)
            .map(|i| ScheduledFault {
                at: SimTime::from_millis(onset_ms),
                replica: (placement + i) % n,
                behavior,
            })
            .collect();
        let report = run_cluster(&config, seed, &faults);
        prop_assert!(report.safety.holds(), "{report:?}");
        prop_assert!(
            report.liveness.all_executed(),
            "liveness lost with {f} {behavior:?} faults on n={n}: {report:?}"
        );
    }

    /// Safety holds under lossy, high-jitter networks with f crash faults
    /// (messages may be dropped; clients retransmit).
    #[test]
    fn safety_under_lossy_network(
        seed in 0u64..500,
        drop_pct in 0u32..20,
    ) {
        let network = NetworkConfig::with_latency(LatencyModel::Exponential {
            floor: SimTime::from_micros(200),
            mean: SimTime::from_millis(5),
        })
        .drop_probability(f64::from(drop_pct) / 100.0);
        let config = ClusterConfig::new(4)
            .requests(3)
            .network(network)
            .max_time(SimTime::from_secs(30));
        let faults = vec![ScheduledFault {
            at: SimTime::from_millis(5),
            replica: 3,
            behavior: Behavior::Crashed,
        }];
        let report = run_cluster(&config, seed, &faults);
        prop_assert!(report.safety.holds(), "{report:?}");
    }

    /// Runs are bit-for-bit deterministic in the seed.
    #[test]
    fn determinism(n in cluster_sizes(), seed in 0u64..100) {
        let config = ClusterConfig::new(n).requests(3).max_time(SimTime::from_secs(15));
        let a = run_cluster(&config, seed, &[]);
        let b = run_cluster(&config, seed, &[]);
        prop_assert_eq!(a, b);
    }
}

/// The quorum rule's invariants at every total from 4 to 1 999 units.
#[test]
fn quorum_invariants() {
    for total in 4u64..2_000 {
        let q = WeightedQuorum::for_total(VotingPower::new(total)).unwrap();
        let f = q.f_power().as_units();
        // Tolerance stays under a third.
        assert!(3 * f < total, "total = {total}");
        // Two quorums always intersect in more than f power.
        let intersection = 2 * q.quorum_power().as_units() - total;
        assert!(intersection > f, "total = {total}");
        // The smallest power past f, what a view-change join and a client
        // reply need, is not tolerated: it holds an honest unit.
        assert!(q.tolerates(q.f_power()), "total = {total}");
        assert!(!q.tolerates(VotingPower::new(f + 1)), "total = {total}");
    }
}
