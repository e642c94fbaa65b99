//! Cluster harness: build, run, audit.
//!
//! This is where the paper's experiment loop lives: construct a cluster,
//! optionally schedule correlated compromises derived from a vulnerability
//! database and a configuration assignment, run the workload, and audit
//! safety (`f ≥ Σ f^i_t` violated ⇒ possible fork) and liveness.

use fi_config::{Assignment, Vulnerability};
use fi_simnet::{Context, NetworkConfig, Node, NodeId, Simulation, TimerToken};
use fi_types::{SimTime, VotingPower};

use crate::byzantine::Behavior;
use crate::client::Client;
use crate::message::{BftMessage, Operation};
use crate::replica::Replica;
use crate::safety::{LivenessReport, SafetyReport};
use crate::weighted::WeightedQuorum;

/// A node in a BFT simulation: replica or client.
#[derive(Debug)]
pub enum BftNode {
    /// A protocol replica (node ids `0..n`).
    Replica(Box<Replica>),
    /// A workload client (node ids `n..n+c`).
    Client(Client),
}

impl Node for BftNode {
    type Message = BftMessage;
    type Fault = Behavior;

    fn on_start(&mut self, ctx: &mut Context<'_, BftMessage>) {
        match self {
            BftNode::Replica(r) => r.on_start(ctx),
            BftNode::Client(c) => c.on_start(ctx),
        }
    }

    fn on_message(&mut self, from: NodeId, msg: BftMessage, ctx: &mut Context<'_, BftMessage>) {
        match self {
            BftNode::Replica(r) => r.on_message(from, msg, ctx),
            BftNode::Client(c) => c.on_message(from, msg, ctx),
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, BftMessage>) {
        match self {
            BftNode::Replica(r) => r.on_timer(token, ctx),
            BftNode::Client(c) => c.on_timer(token, ctx),
        }
    }

    fn on_fault(&mut self, behavior: Behavior, _ctx: &mut Context<'_, BftMessage>) {
        if let BftNode::Replica(r) = self {
            r.on_fault(behavior);
        }
    }
}

/// A scheduled behaviour change: from `at` on, replica `replica` behaves as
/// `behavior`. A compromise adopts a Byzantine behaviour (or
/// [`Behavior::Crashed`]); a recovery — proactive recovery or a patch
/// rollout, §III-A's mitigation (refs \[23\]–\[27\]) — is
/// [`Behavior::Honest`]. Faults at one instant apply in list order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Injection time.
    pub at: SimTime,
    /// Replica index.
    pub replica: usize,
    /// Behaviour adopted.
    pub behavior: Behavior,
}

/// Cluster and workload parameters (builder-style).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Each replica's voting power, by replica index.
    powers: Vec<VotingPower>,
    /// The quorum rule over the powers' total.
    quorum: WeightedQuorum,
    clients: usize,
    requests_per_client: u64,
    checkpoint_interval: u64,
    view_change_timeout: SimTime,
    client_retry: SimTime,
    network: NetworkConfig,
    max_time: SimTime,
}

impl ClusterConfig {
    /// A cluster of `n` replicas of one unit of power each (`n` must be
    /// ≥ 4) with one client issuing ten requests over a default LAN.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` (no BFT quorum exists).
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::with_powers(vec![VotingPower::new(1); n])
    }

    /// The cluster an assignment describes: replica `e.replica` carries
    /// `e.power` for each entry `e` — the node mapping
    /// [`faults_from_vulnerability`] uses — with [`new`](Self::new)'s
    /// workload.
    ///
    /// # Panics
    ///
    /// Panics if the replica ids are not `0..n`, or if the total power is
    /// below 4 units (no BFT quorum exists).
    #[must_use]
    pub fn for_assignment(assignment: &Assignment) -> Self {
        let mut powers = vec![VotingPower::ZERO; assignment.replica_count()];
        for e in assignment.entries() {
            *powers
                .get_mut(e.replica.as_usize())
                .expect("assignment replica ids are 0..n") = e.power;
        }
        Self::with_powers(powers)
    }

    fn with_powers(powers: Vec<VotingPower>) -> Self {
        let quorum = WeightedQuorum::for_total(powers.iter().sum())
            .expect("BFT requires at least 4 units of voting power");
        ClusterConfig {
            powers,
            quorum,
            clients: 1,
            requests_per_client: 10,
            checkpoint_interval: 8,
            view_change_timeout: SimTime::from_millis(400),
            client_retry: SimTime::from_millis(300),
            network: NetworkConfig::default(),
            max_time: SimTime::from_secs(60),
        }
    }

    /// Sets requests per client.
    #[must_use]
    pub fn requests(mut self, requests: u64) -> Self {
        self.requests_per_client = requests;
        self
    }

    /// Sets the checkpoint interval.
    #[must_use]
    pub fn checkpoint_interval(mut self, interval: u64) -> Self {
        self.checkpoint_interval = interval.max(1);
        self
    }

    /// Sets the view-change timeout.
    #[must_use]
    pub fn view_change_timeout(mut self, timeout: SimTime) -> Self {
        self.view_change_timeout = timeout;
        self
    }

    /// Sets the network.
    #[must_use]
    pub fn network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }

    /// Sets the simulation horizon.
    #[must_use]
    pub fn max_time(mut self, max_time: SimTime) -> Self {
        self.max_time = max_time;
        self
    }

    /// Number of replicas.
    #[must_use]
    pub fn n(&self) -> usize {
        self.powers.len()
    }

    /// The quorum rule over the replicas' total power.
    #[must_use]
    pub fn quorum(&self) -> WeightedQuorum {
        self.quorum
    }

    /// Total requests the workload will issue.
    #[must_use]
    pub fn total_requests(&self) -> u64 {
        self.clients as u64 * self.requests_per_client
    }
}

/// Everything a run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Safety audit over honest replicas.
    pub safety: SafetyReport,
    /// Liveness audit over clients.
    pub liveness: LivenessReport,
    /// Total messages handed to the network.
    pub messages_sent: u64,
    /// Messages delivered.
    // lint: allow(unread-field) pinned hash: determinism_goldens' bft_trace_hash reads it into the BFT_TRACE_11/BFT_TRACE_23 pins
    pub messages_delivered: u64,
    /// Highest view reached by any honest replica (> 0 means view changes
    /// happened).
    pub max_view: u64,
    /// The simulated deadline the run loop stopped at: the end of the
    /// first 200 ms slice by which every client was done, or the
    /// configured `max_time`. Not the instant the last request completed.
    // lint: allow(unread-field) pinned hash: determinism_goldens' bft_trace_hash reads this slice deadline (not a completion time) into the BFT_TRACE_11/BFT_TRACE_23 pins
    pub sim_time: SimTime,
}

/// Builds and runs a cluster under a fault schedule (`&[]` for a
/// fault-free run): compromises and recoveries alike.
///
/// # Panics
///
/// Panics if a fault targets a replica index `>= n`.
#[must_use]
pub fn run_cluster(config: &ClusterConfig, seed: u64, faults: &[ScheduledFault]) -> ClusterReport {
    audit(&simulate(config, seed, faults), config).0
}

/// [`run_cluster`]'s run, with each replica's committed log
/// ([`Replica::executed`]) beside its report, in replica order.
// lint: allow(unused-pub) test seam: determinism_goldens pins each replica's committed log, which no report field carries
#[must_use]
pub fn run_cluster_with_logs(
    config: &ClusterConfig,
    seed: u64,
    faults: &[ScheduledFault],
) -> (ClusterReport, Vec<Vec<(u64, Operation)>>) {
    let sim = simulate(config, seed, faults);
    let (report, replicas) = audit(&sim, config);
    let logs = replicas.iter().map(|r| r.executed().to_vec()).collect();
    (report, logs)
}

/// Builds the cluster, schedules its faults, and runs it until every
/// client is done or `max_time` passes.
fn simulate(config: &ClusterConfig, seed: u64, faults: &[ScheduledFault]) -> Simulation<BftNode> {
    let n = config.n();
    let mut sim: Simulation<BftNode> = Simulation::new(config.network.clone(), seed);
    for i in 0..n {
        sim.add_node(BftNode::Replica(Box::new(Replica::new(
            i,
            config.quorum,
            config.powers.clone(),
            config.checkpoint_interval,
            config.view_change_timeout,
        ))));
    }
    for c in 0..config.clients {
        sim.add_node(BftNode::Client(Client::new(
            n + c,
            config.quorum,
            config.powers.clone(),
            config.requests_per_client,
            config.client_retry,
        )));
    }
    for fault in faults {
        assert!(
            fault.replica < n,
            "fault targets replica {} but n = {n}",
            fault.replica,
        );
        sim.schedule_fault(fault.at, NodeId::new(fault.replica), fault.behavior);
    }

    // Run in slices so we can stop as soon as the workload completes.
    let slice = SimTime::from_millis(200);
    let mut now = SimTime::ZERO;
    while now < config.max_time {
        now = now.saturating_add(slice).min(config.max_time);
        sim.run_until(now);
        let all_done = (n..n + config.clients)
            .all(|i| matches!(sim.node(NodeId::new(i)), BftNode::Client(c) if c.done()));
        if all_done {
            break;
        }
    }
    sim
}

/// The run's report, and its replicas in index order.
fn audit<'s>(
    sim: &'s Simulation<BftNode>,
    config: &ClusterConfig,
) -> (ClusterReport, Vec<&'s Replica>) {
    let replicas: Vec<&Replica> = (0..config.n())
        .map(|i| match sim.node(NodeId::new(i)) {
            BftNode::Replica(r) => r.as_ref(),
            BftNode::Client(_) => unreachable!("replica ids precede client ids"),
        })
        .collect();
    let honest: Vec<bool> = replicas
        .iter()
        .map(|r| r.behavior() == Behavior::Honest)
        .collect();
    let safety = SafetyReport::audit(&replicas, &honest);
    let max_view = replicas
        .iter()
        .zip(&honest)
        .filter(|(_, &h)| h)
        .map(|(r, _)| r.view())
        .max()
        .unwrap_or(0);

    let mut executed = 0;
    let mut retries = 0;
    for c in 0..config.clients {
        if let BftNode::Client(client) = sim.node(NodeId::new(config.n() + c)) {
            executed += client.completed();
            retries += client.retries();
        }
    }

    let report = ClusterReport {
        safety,
        liveness: LivenessReport {
            executed_requests: executed,
            expected_requests: config.total_requests(),
            client_retries: retries,
        },
        messages_sent: sim.stats().sent(),
        messages_delivered: sim.stats().delivered(),
        max_view,
        sim_time: sim.now(),
    };
    (report, replicas)
}

/// Derives the fault schedule for one vulnerability: every replica whose
/// configuration contains the vulnerable component is compromised at
/// `vuln.disclosed_at()` with `behavior` — the paper's correlated-fault
/// event — in assignment entry order (none if the window is empty).
/// Replica ids in the assignment map 1:1 onto simulation node ids.
#[must_use]
pub fn faults_from_vulnerability(
    assignment: &Assignment,
    vuln: &Vulnerability,
    behavior: Behavior,
) -> Vec<ScheduledFault> {
    let at = vuln.disclosed_at();
    let space = assignment.space();
    assignment
        .entries()
        .iter()
        .filter(|e| vuln.active_at(at) && space.get(e.config).is_ok_and(|c| vuln.affects(c)))
        .map(|e| ScheduledFault {
            at,
            replica: e.replica.as_usize(),
            behavior,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_config::prelude::{catalog, ComponentSelector, VulnerabilityDb};
    use fi_config::ConfigurationSpace;
    use fi_types::{VotingPower, VulnId};

    #[test]
    fn fault_free_cluster_is_safe_and_live() {
        let report = run_cluster(&ClusterConfig::new(4).requests(10), 1, &[]);
        assert!(report.safety.holds());
        assert!(report.liveness.all_executed(), "liveness: {report:?}");
        assert_eq!(report.max_view, 0, "no view change expected");
        assert!(report.messages_sent > 0);
    }

    #[test]
    fn larger_cluster_works() {
        let config = ClusterConfig {
            clients: 2,
            ..ClusterConfig::new(7).requests(6)
        };
        let report = run_cluster(&config, 2, &[]);
        assert!(report.safety.holds());
        assert!(report.liveness.all_executed(), "liveness: {report:?}");
    }

    #[test]
    fn run_is_deterministic() {
        let config = ClusterConfig::new(4).requests(5);
        let a = run_cluster(&config, 7, &[]);
        let b = run_cluster(&config, 7, &[]);
        assert_eq!(a, b);
    }

    #[test]
    fn f_crashes_are_tolerated() {
        let config = ClusterConfig::new(4).requests(8);
        let faults = vec![ScheduledFault {
            at: SimTime::from_millis(1),
            replica: 3,
            behavior: Behavior::Crashed,
        }];
        let report = run_cluster(&config, 3, &faults);
        assert!(report.safety.holds());
        assert!(report.liveness.all_executed(), "liveness: {report:?}");
    }

    #[test]
    fn primary_crash_triggers_view_change_and_recovers() {
        let config = ClusterConfig::new(4)
            .requests(6)
            .max_time(SimTime::from_secs(30));
        let faults = vec![ScheduledFault {
            // Before the first request is delivered (1 ms network latency):
            // view 0 can never make progress.
            at: SimTime::from_micros(100),
            replica: 0, // primary of view 0
            behavior: Behavior::Crashed,
        }];
        let report = run_cluster(&config, 4, &faults);
        assert!(report.safety.holds());
        assert!(report.max_view >= 1, "expected a view change: {report:?}");
        assert!(
            report.liveness.all_executed(),
            "requests must complete after view change: {report:?}"
        );
    }

    #[test]
    fn f_equivocators_cannot_break_safety() {
        let config = ClusterConfig::new(4).requests(8);
        let faults = vec![ScheduledFault {
            at: SimTime::ZERO,
            replica: 1,
            behavior: Behavior::Equivocate,
        }];
        let report = run_cluster(&config, 5, &faults);
        assert!(report.safety.holds());
        assert!(report.liveness.all_executed(), "liveness: {report:?}");
    }

    #[test]
    fn equivocating_primary_is_replaced() {
        let config = ClusterConfig::new(4)
            .requests(5)
            .max_time(SimTime::from_secs(30));
        let faults = vec![ScheduledFault {
            at: SimTime::ZERO,
            replica: 0,
            behavior: Behavior::Equivocate,
        }];
        let report = run_cluster(&config, 6, &faults);
        assert!(report.safety.holds());
        assert!(report.liveness.all_executed(), "liveness: {report:?}");
    }

    #[test]
    fn withhold_commit_by_f_replicas_preserves_liveness() {
        let config = ClusterConfig::new(7).requests(5);
        let faults: Vec<ScheduledFault> = (0..2)
            .map(|i| ScheduledFault {
                at: SimTime::ZERO,
                replica: 2 + i,
                behavior: Behavior::WithholdCommit,
            })
            .collect();
        let report = run_cluster(&config, 7, &faults);
        assert!(report.safety.holds());
        assert!(report.liveness.all_executed(), "liveness: {report:?}");
    }

    #[test]
    fn more_than_f_silent_replicas_stall_liveness_but_not_safety() {
        let config = ClusterConfig::new(4)
            .requests(4)
            .max_time(SimTime::from_secs(5));
        let faults: Vec<ScheduledFault> = (0..2)
            .map(|i| ScheduledFault {
                at: SimTime::from_millis(1),
                replica: 1 + i,
                behavior: Behavior::Silent,
            })
            .collect();
        let report = run_cluster(&config, 8, &faults);
        // 2 > f = 1 silent replicas: no quorum, nothing commits after the
        // faults land — but nothing forks either.
        assert!(report.safety.holds());
        assert!(!report.liveness.all_executed());
    }

    #[test]
    fn faults_from_vulnerability_maps_fault_sets() {
        let space =
            ConfigurationSpace::cartesian(&[catalog::operating_systems()[..2].to_vec()]).unwrap();
        let assignment =
            fi_config::Assignment::round_robin(&space, 4, VotingPower::new(1)).unwrap();
        let os = &catalog::operating_systems()[0];
        let vuln = Vulnerability::new(
            VulnId::new(0),
            "os-bug",
            ComponentSelector::product(os.kind(), os.name()),
        )
        .with_window(SimTime::from_millis(10), SimTime::from_secs(100));
        let faults = faults_from_vulnerability(&assignment, &vuln, Behavior::Silent);
        assert_eq!(faults.len(), 2);
        assert!(faults.iter().all(|f| f.at == SimTime::from_millis(10)));
        assert!(faults.iter().all(|f| f.replica % 2 == 0));
        let _ = VulnerabilityDb::new();
    }

    #[test]
    fn more_than_f_equivocators_fork_the_cluster() {
        // The paper's core scenario (§II-C): one vulnerability compromises
        // two of four replicas (Σ f^i_t = 2 > f = 1). The equivocating
        // primary proposes conflicting orders and the colluding backup
        // double-votes; the two honest replicas commit different
        // operations at the same sequence — a state-machine fork.
        let config = ClusterConfig::new(4)
            .requests(4)
            .max_time(SimTime::from_secs(10));
        let faults = vec![
            ScheduledFault {
                at: SimTime::ZERO,
                replica: 0,
                behavior: Behavior::Equivocate,
            },
            ScheduledFault {
                at: SimTime::ZERO,
                replica: 1,
                behavior: Behavior::Equivocate,
            },
        ];
        let report = run_cluster(&config, 11, &faults);
        assert!(
            !report.safety.holds(),
            "expected a fork with 2 > f = 1 colluding equivocators: {report:?}"
        );
    }

    #[test]
    fn proactive_recovery_restores_liveness() {
        // Paper §III-A points at proactive recovery (refs [23]-[27]) as a
        // mitigation: recover compromised replicas during the vulnerability
        // window. 2 > f = 1 replicas go silent at t=1ms (liveness lost);
        // recovering them at t=2s restores progress.
        let config = ClusterConfig::new(4)
            .requests(6)
            .max_time(SimTime::from_secs(30));
        let quorum = config.quorum();
        assert_eq!(quorum.f_power(), VotingPower::new(1));
        let powers = vec![VotingPower::new(1); 4];
        let mut sim: Simulation<BftNode> = Simulation::new(NetworkConfig::default(), 13);
        for i in 0..4 {
            sim.add_node(BftNode::Replica(Box::new(Replica::new(
                i,
                quorum,
                powers.clone(),
                8,
                SimTime::from_millis(400),
            ))));
        }
        sim.add_node(BftNode::Client(Client::new(
            4,
            quorum,
            powers,
            6,
            SimTime::from_millis(300),
        )));
        for r in [1usize, 2] {
            sim.schedule_fault(SimTime::from_millis(1), NodeId::new(r), Behavior::Silent);
            sim.schedule_fault(SimTime::from_secs(2), NodeId::new(r), Behavior::Honest);
        }
        sim.run_until(SimTime::from_secs(30));
        let client = match sim.node(NodeId::new(4)) {
            BftNode::Client(c) => c,
            BftNode::Replica(_) => unreachable!(
                "node ids 0..4 are replicas; id 4 was added as the workload client above"
            ),
        };
        assert!(
            client.done(),
            "recovery must restore liveness: {} of 6 done",
            client.completed()
        );
        // And the recovered cluster is still safe.
        let replicas: Vec<&Replica> = (0..4)
            .map(|i| match sim.node(NodeId::new(i)) {
                BftNode::Replica(r) => r.as_ref(),
                BftNode::Client(_) => unreachable!(),
            })
            .collect();
        let honest = vec![true; 4];
        assert!(SafetyReport::audit(&replicas, &honest).holds());
    }

    /// Replicas 1 and 2 of 4 each get `first` then `then` at t = 1 ms.
    fn same_instant(first: Behavior, then: Behavior) -> Vec<ScheduledFault> {
        let at = SimTime::from_millis(1);
        [1usize, 2]
            .iter()
            .flat_map(|&replica| {
                [first, then].map(|behavior| ScheduledFault {
                    at,
                    replica,
                    behavior,
                })
            })
            .collect()
    }

    #[test]
    fn scheduled_recovery_restores_liveness_via_harness() {
        // Same shape as proactive_recovery_restores_liveness, but through
        // the harness's one schedule: 2 > f = 1 replicas go silent at
        // t=1ms, recover at t=2s, and the workload still completes.
        let config = ClusterConfig::new(4)
            .requests(6)
            .max_time(SimTime::from_secs(30));
        let faults: Vec<ScheduledFault> = [
            (SimTime::from_millis(1), Behavior::Silent),
            (SimTime::from_secs(2), Behavior::Honest),
        ]
        .iter()
        .flat_map(|&(at, behavior)| {
            [1usize, 2].map(|replica| ScheduledFault {
                at,
                replica,
                behavior,
            })
        })
        .collect();
        let report = run_cluster(&config, 13, &faults);
        assert!(report.safety.holds());
        assert!(
            report.liveness.all_executed(),
            "recovery must restore liveness: {report:?}"
        );
    }

    #[test]
    fn faults_at_one_instant_apply_in_list_order() {
        // 2 > f = 1 replicas each get Silent and Honest at one instant:
        // whichever is listed last is what they do from then on.
        let config = ClusterConfig::new(4)
            .requests(4)
            .max_time(SimTime::from_secs(5));
        let recovered = run_cluster(
            &config,
            8,
            &same_instant(Behavior::Silent, Behavior::Honest),
        );
        assert!(recovered.safety.holds());
        assert!(
            recovered.liveness.all_executed(),
            "Honest listed last: {recovered:?}"
        );
        let silenced = run_cluster(
            &config,
            8,
            &same_instant(Behavior::Honest, Behavior::Silent),
        );
        assert!(silenced.safety.holds());
        assert_eq!(
            silenced.liveness.executed_requests, 0,
            "Silent listed last: {silenced:?}"
        );
    }

    #[test]
    #[should_panic(expected = "fault targets replica")]
    fn fault_out_of_range_panics() {
        let config = ClusterConfig::new(4);
        let faults = vec![ScheduledFault {
            at: SimTime::ZERO,
            replica: 9,
            behavior: Behavior::Crashed,
        }];
        let _ = run_cluster(&config, 0, &faults);
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_cluster_rejected() {
        let _ = ClusterConfig::new(3);
    }
}
