//! Determinism goldens: same seed ⇒ bit-identical traces, plus a committed
//! fixture for a fixed-seed Nakamoto double-spend campaign.
//!
//! The whole verification strategy of this workspace (scenario campaigns,
//! fibench's pinned chains, golden summaries) rests on one property: every
//! substrate is a pure function of its seed. These tests pin that down with
//! trace *hashes* — a drift anywhere in the event loop, the RNG stream, or
//! the protocol logic flips the digest.

use fault_independence::fi_bft::harness::{run_cluster_with_logs, ClusterConfig};
use fault_independence::fi_bft::{Behavior, ScheduledFault};
use fault_independence::fi_config::prelude::{catalog, Assignment, ConfigurationSpace};
use fault_independence::fi_nakamoto::attack::monte_carlo_double_spend;
use fault_independence::fi_simnet::{
    Context, LatencyModel, NetworkConfig, Node, NodeId, Simulation,
};
use fault_independence::fi_types::hash::Sha256;
use fault_independence::fi_types::{sha256, Digest, SimTime, VotingPower};

/// A gossiping node: every message received is forwarded to the next node,
/// `hops` times — enough traffic for latency sampling and the drop model to
/// shape the trace.
#[derive(Debug, Default)]
struct Gossip {
    received: u32,
}

impl Node for Gossip {
    type Message = u32;
    type Fault = ();

    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        if ctx.id() == NodeId::new(0) {
            ctx.broadcast(64);
        }
    }

    fn on_message(&mut self, _from: NodeId, hops: u32, ctx: &mut Context<'_, u32>) {
        self.received += 1;
        if hops > 0 {
            let next = NodeId::new((ctx.id().index() + 1) % ctx.node_count());
            ctx.send(next, hops - 1);
        }
    }
}

/// Runs the gossip workload and digests the full observable trace: final
/// clock, every counter the stats track, and each node's receive count.
fn simnet_trace_hash(seed: u64) -> Digest {
    let config = NetworkConfig::with_latency(LatencyModel::Exponential {
        floor: SimTime::from_millis(1),
        mean: SimTime::from_millis(20),
    })
    .drop_probability(0.15);
    let mut sim: Simulation<Gossip> = Simulation::new(config, seed);
    for _ in 0..5 {
        sim.add_node(Gossip::default());
    }
    sim.run_until(SimTime::from_secs(30));
    let mut trace = format!("now={} stats={:?}", sim.now(), sim.stats());
    for i in 0..sim.node_count() {
        trace.push_str(&format!(" node{i}={}", sim.node(NodeId::new(i)).received));
    }
    sha256(trace)
}

#[test]
fn simnet_engine_trace_hash_is_seed_deterministic() {
    assert_eq!(simnet_trace_hash(42), simnet_trace_hash(42));
    assert_eq!(simnet_trace_hash(7), simnet_trace_hash(7));
    // And the seed actually matters: drops and latency reshuffle the trace.
    assert_ne!(simnet_trace_hash(42), simnet_trace_hash(7));
}

/// `bft_trace_hash(11)` and `bft_trace_hash(23)`, pinned: a change to the
/// protocol's vote counting that moves any threshold flips them (a replica
/// that commits at quorum − 1 unit does, and so does `f = ⌈total/3⌉`).
const BFT_TRACE_11: &str = "40a0be487121248c92de1489308b1cf1fe7f0ca463b9e562f0818b565f3863c9";
const BFT_TRACE_23: &str = "a94f57ba1999624263b7d1a1442e50876a7d287130d5f53f2818ba65552cfb93";

/// Digest of a 7-replica BFT cluster run, over a stated encoding of what
/// the run claims — every field a fixed-width big-endian `u64`, each list
/// led by its length: each replica's committed log `(seq, client,
/// counter, payload)` in replica order; the safety verdict and its
/// conflicts `(seq, replica_a, replica_b)`; liveness (executed, expected,
/// client retries); the highest view; messages sent and delivered; and
/// the clock in microseconds.
fn bft_trace_hash(cluster: ClusterConfig, seed: u64) -> Digest {
    // A stochastic network (sampled latency) so the seed actually shapes
    // the trace; the default constant-latency LAN is seed-independent.
    let config = cluster
        .requests(5)
        .network(NetworkConfig::with_latency(LatencyModel::Exponential {
            floor: SimTime::from_micros(500),
            mean: SimTime::from_millis(5),
        }))
        .max_time(SimTime::from_secs(20));
    let faults = [
        ScheduledFault {
            at: SimTime::from_millis(1),
            replica: 2,
            behavior: Behavior::Equivocate,
        },
        ScheduledFault {
            at: SimTime::from_millis(200),
            replica: 5,
            behavior: Behavior::Crashed,
        },
    ];
    let (report, logs) = run_cluster_with_logs(&config, seed, &faults);
    let mut h = Sha256::new();
    let mut put = |x: u64| h.update(x.to_be_bytes());
    put(logs.len() as u64);
    for log in &logs {
        put(log.len() as u64);
        for &(seq, op) in log {
            for x in [seq, op.client, op.counter, op.payload] {
                put(x);
            }
        }
    }
    put(u64::from(report.safety.holds()));
    put(report.safety.violations().len() as u64);
    for v in report.safety.violations() {
        for x in [v.seq, v.replica_a as u64, v.replica_b as u64] {
            put(x);
        }
    }
    let live = report.liveness;
    for x in [
        live.executed_requests,
        live.expected_requests,
        live.client_retries,
        report.max_view,
        report.messages_sent,
        report.messages_delivered,
        report.sim_time.as_micros(),
    ] {
        put(x);
    }
    h.finalize()
}

#[test]
fn bft_harness_trace_hash_is_seed_deterministic() {
    let hash = |seed| bft_trace_hash(ClusterConfig::new(7), seed);
    assert_eq!(hash(11), hash(11));
    assert_ne!(hash(11), hash(23));
    assert_eq!(hash(11).to_string(), BFT_TRACE_11);
    assert_eq!(hash(23).to_string(), BFT_TRACE_23);
}

/// The same run with every replica at 100 units, built from an assignment:
/// at equal power the power rule's thresholds are the head-count ones, so
/// the trace is the same to the bit.
#[test]
fn bft_trace_hash_is_power_scale_invariant() {
    let space =
        ConfigurationSpace::cartesian(&[catalog::operating_systems()[..4].to_vec()]).unwrap();
    let assignment = Assignment::round_robin(&space, 7, VotingPower::new(100)).unwrap();
    let hash = |seed| bft_trace_hash(ClusterConfig::for_assignment(&assignment), seed);
    assert_eq!(hash(11).to_string(), BFT_TRACE_11);
    assert_eq!(hash(23).to_string(), BFT_TRACE_23);
}

/// Renders the fixed-seed Nakamoto double-spend campaign the committed
/// golden pins: attacker shares × confirmation depths, Monte-Carlo with
/// 30 000 trials each, seed 424242.
fn render_double_spend_campaign() -> String {
    use std::fmt::Write as _;
    const SEED: u64 = 424_242;
    const TRIALS: u32 = 30_000;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"fi-tests/nakamoto-double-spend/v1\",");
    let _ = writeln!(out, "  \"seed\": {SEED},");
    let _ = writeln!(out, "  \"trials\": {TRIALS},");
    let _ = writeln!(out, "  \"races\": [");
    let grid: &[(f64, u32)] = &[(0.05, 2), (0.10, 6), (0.20, 4), (0.30, 6), (0.45, 8)];
    for (i, &(q, z)) in grid.iter().enumerate() {
        let comma = if i + 1 < grid.len() { "," } else { "" };
        let estimate = monte_carlo_double_spend(q, z, TRIALS, SEED);
        let _ = writeln!(
            out,
            "    {{\"q\": {q:.2}, \"z\": {z}, \"estimate\": {estimate:.6}}}{comma}"
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

#[test]
fn nakamoto_double_spend_campaign_matches_golden() {
    let actual = render_double_spend_campaign();
    // Regeneration hook for intentional RNG/estimator changes:
    //   REGENERATE_GOLDENS=1 cargo test -p fault-independence \
    //     --test determinism_goldens
    if std::env::var_os("REGENERATE_GOLDENS").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/goldens/nakamoto_double_spend.json"
        );
        std::fs::write(path, &actual).expect("golden fixture written");
        // The compiled-in include_str! still holds the pre-regeneration
        // bytes; comparing against it now would fail the very run that
        // just refreshed the fixture. The next (recompiled) run asserts.
        return;
    }
    assert_eq!(
        actual,
        include_str!("goldens/nakamoto_double_spend.json"),
        "the fixed-seed double-spend campaign drifted; regenerate the \
         fixture with REGENERATE_GOLDENS=1 if the change is intentional"
    );
}

#[test]
fn double_spend_campaign_render_is_stable_across_calls() {
    assert_eq!(
        render_double_spend_campaign(),
        render_double_spend_campaign()
    );
}
