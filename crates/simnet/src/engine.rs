//! The simulation engine: event loop, network application, fault
//! injection.

use std::collections::BinaryHeap;

use fi_types::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::event::{EventKind, Scheduled};
use crate::network::NetworkConfig;
use crate::node::{Action, Context, Node, NodeId};
use crate::trace::TraceStats;

/// A deterministic discrete-event simulation over nodes of type `N`.
///
/// All randomness (latency samples, drops, node-requested randomness) flows
/// from the single seed given to [`Simulation::new`]; two runs with the same
/// seed, nodes, and schedule produce identical traces.
pub struct Simulation<N: Node> {
    nodes: Vec<N>,
    queue: BinaryHeap<Scheduled<N::Message, N::Fault>>,
    config: NetworkConfig,
    rng: StdRng,
    now: SimTime,
    seq: u64,
    started: bool,
    stats: TraceStats,
}

impl<N: Node> Simulation<N>
where
    N::Message: Clone,
{
    /// Creates an empty simulation with a network and a seed.
    #[must_use]
    pub fn new(config: NetworkConfig, seed: u64) -> Self {
        Simulation {
            nodes: Vec::new(),
            queue: BinaryHeap::new(),
            config,
            rng: StdRng::seed_from_u64(seed),
            now: SimTime::ZERO,
            seq: 0,
            started: false,
            stats: TraceStats::default(),
        }
    }

    /// Adds a node, returning its id. Nodes must be added before the first
    /// `run_*` call.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started.
    pub fn add_node(&mut self, node: N) -> NodeId {
        assert!(
            !self.started,
            "nodes must be added before the simulation starts"
        );
        let id = NodeId::new(self.nodes.len());
        self.nodes.push(node);
        self.stats.ensure_nodes(self.nodes.len());
        id
    }

    /// The current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a node's state (for harness assertions).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    /// The accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &TraceStats {
        &self.stats
    }

    fn push(&mut self, at: SimTime, kind: EventKind<N::Message, N::Fault>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled { at, seq, kind });
    }

    /// Schedules `fault` to be handed to `node`'s
    /// [`on_fault`](Node::on_fault) at absolute time `at`; faults at one
    /// instant arrive in the order they were scheduled. This is how
    /// correlated compromise is expressed: the fault-injection harness
    /// schedules one fault per replica sharing the vulnerable component,
    /// all at the same instant.
    pub fn schedule_fault(&mut self, at: SimTime, node: NodeId, fault: N::Fault) {
        self.push(at, EventKind::Fault { node, fault });
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            self.dispatch_start(NodeId::new(i));
        }
    }

    fn dispatch_start(&mut self, id: NodeId) {
        // Disjoint field borrows: the node and the context (which holds the
        // RNG) are separate fields of `self`.
        let Simulation {
            nodes, rng, now, ..
        } = self;
        let node_count = nodes.len();
        let mut ctx = Context {
            now: *now,
            id,
            node_count,
            rng,
            outbox: Vec::new(),
        };
        nodes[id.index()].on_start(&mut ctx);
        let outbox = ctx.outbox;
        self.apply_outbox(id, outbox);
    }

    /// Counts a delivery or a timer in the stats and hands `kind` to the
    /// node it is for.
    fn dispatch(&mut self, kind: EventKind<N::Message, N::Fault>) {
        let (EventKind::Deliver { to: id, .. }
        | EventKind::Timer { node: id, .. }
        | EventKind::Fault { node: id, .. }) = kind;
        let Simulation {
            nodes,
            rng,
            now,
            stats,
            ..
        } = self;
        let node_count = nodes.len();
        let mut ctx = Context {
            now: *now,
            id,
            node_count,
            rng,
            outbox: Vec::new(),
        };
        let node = &mut nodes[id.index()];
        match kind {
            EventKind::Deliver { from, payload, .. } => {
                stats.record_delivered();
                node.on_message(from, payload, &mut ctx);
            }
            EventKind::Timer { token, .. } => {
                stats.record_timer();
                node.on_timer(token, &mut ctx);
            }
            EventKind::Fault { fault, .. } => node.on_fault(fault, &mut ctx),
        }
        let outbox = ctx.outbox;
        self.apply_outbox(id, outbox);
    }

    fn apply_outbox(&mut self, from: NodeId, outbox: Vec<Action<N::Message>>) {
        for action in outbox {
            match action {
                Action::Send { to, payload } => self.route(from, to, payload),
                Action::Broadcast { payload } => {
                    for i in 0..self.nodes.len() {
                        let to = NodeId::new(i);
                        if to != from {
                            self.route(from, to, payload.clone());
                        }
                    }
                }
                Action::SetTimer { delay, token } => {
                    let at = self.now.saturating_add(delay);
                    self.push(at, EventKind::Timer { node: from, token });
                }
            }
        }
    }

    fn route(&mut self, from: NodeId, to: NodeId, payload: N::Message) {
        self.stats.record_sent(from);
        if !self.config.allows(from, to, self.now) {
            self.stats.record_blocked();
            return;
        }
        if self.config.drop_probability > 0.0 {
            let roll: f64 = self.rng.gen();
            if roll < self.config.drop_probability {
                self.stats.record_dropped();
                return;
            }
        }
        let latency = self.config.latency.sample(&mut self.rng);
        let at = self.now.saturating_add(latency);
        self.push(at, EventKind::Deliver { from, to, payload });
    }

    /// Runs until the queue is exhausted or `deadline` is reached; returns the number of events processed. Time advances to
    /// `deadline` even if the queue drains earlier.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.start_if_needed();
        let mut processed = 0;
        while let Some(head) = self.queue.peek() {
            if head.at > deadline {
                break;
            }
            let event = self.queue.pop().expect("peeked entry exists");
            self.now = event.at;
            self.dispatch(event.kind);
            processed += 1;
        }
        if self.now < deadline {
            self.now = deadline;
        }
        processed
    }

    /// Runs until the event queue is empty, up to the
    /// safety cap of `max_events`; returns the number processed. Use when
    /// the protocol quiesces on its own (no periodic timers).
    pub fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        self.start_if_needed();
        let mut processed = 0;
        while processed < max_events {
            let Some(event) = self.queue.pop() else { break };
            self.now = event.at;
            self.dispatch(event.kind);
            processed += 1;
        }
        processed
    }

    /// Number of events currently queued (in flight).
    // lint: allow(unused-pub) test seam: simnet_properties' message-conservation property counts the events still in flight
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TimerToken;
    use crate::latency::LatencyModel;
    use crate::partition::{Partition, PartitionWindow};

    /// A node that counts pings and replies with pongs.
    #[derive(Debug, Default)]
    struct PingPong {
        pings: u32,
        pongs: u32,
        crashed: bool,
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Msg {
        Ping,
        Pong,
    }

    impl Node for PingPong {
        type Message = Msg;
        /// Any fault crashes the node.
        type Fault = ();

        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            if ctx.id() == NodeId::new(0) {
                ctx.broadcast(Msg::Ping);
            }
        }

        fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            if self.crashed {
                return;
            }
            match msg {
                Msg::Ping => {
                    self.pings += 1;
                    ctx.send(from, Msg::Pong);
                }
                Msg::Pong => self.pongs += 1,
            }
        }

        fn on_timer(&mut self, _token: TimerToken, ctx: &mut Context<'_, Msg>) {
            ctx.broadcast(Msg::Ping);
        }

        fn on_fault(&mut self, _fault: (), _ctx: &mut Context<'_, Msg>) {
            self.crashed = true;
        }
    }

    fn build(n: usize, config: NetworkConfig, seed: u64) -> Simulation<PingPong> {
        let mut sim = Simulation::new(config, seed);
        for _ in 0..n {
            sim.add_node(PingPong::default());
        }
        sim
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut sim = build(4, NetworkConfig::default(), 1);
        sim.run_until(SimTime::from_secs(1));
        // Node 0 pinged 3 peers; each replied.
        assert_eq!(sim.node(NodeId::new(0)).pongs, 3);
        for i in 1..4 {
            assert_eq!(sim.node(NodeId::new(i)).pings, 1);
        }
        assert_eq!(sim.stats().sent(), 6);
        assert_eq!(sim.stats().delivered(), 6);
        assert_eq!(sim.now(), SimTime::from_secs(1));
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let config = NetworkConfig::with_latency(LatencyModel::Exponential {
            floor: SimTime::from_millis(1),
            mean: SimTime::from_millis(10),
        })
        .drop_probability(0.2);
        let run = |seed| {
            let mut sim = build(5, config.clone(), seed);
            sim.run_until(SimTime::from_secs(2));
            (
                sim.stats().delivered(),
                sim.stats().dropped(),
                sim.node(NodeId::new(0)).pongs,
            )
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn different_seeds_differ() {
        let config = NetworkConfig::default().drop_probability(0.5);
        let outcomes: Vec<u64> = (0..8)
            .map(|seed| {
                let mut sim = build(6, config.clone(), seed);
                sim.run_until(SimTime::from_secs(1));
                sim.stats().dropped()
            })
            .collect();
        assert!(
            outcomes.windows(2).any(|w| w[0] != w[1]),
            "all seeds gave identical drops: {outcomes:?}"
        );
    }

    #[test]
    fn drops_reduce_delivery() {
        let mut sim = build(10, NetworkConfig::default().drop_probability(1.0), 3);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats().delivered(), 0);
        assert_eq!(sim.stats().dropped(), 9);
    }

    #[test]
    fn partitions_block_messages() {
        let config = NetworkConfig::default().partition(PartitionWindow {
            from: SimTime::ZERO,
            until: SimTime::from_secs(10),
            partition: Partition::split_at(4, 1),
        });
        let mut sim = build(4, config, 4);
        sim.run_until(SimTime::from_secs(1));
        // Node 0 is alone: all 3 pings blocked.
        assert_eq!(sim.stats().blocked_by_partition(), 3);
        assert_eq!(sim.stats().delivered(), 0);
    }

    #[test]
    fn fault_injection_crashes_node() {
        let mut sim = build(3, NetworkConfig::default(), 5);
        sim.schedule_fault(SimTime::from_micros(1), NodeId::new(1), ());
        sim.run_until(SimTime::from_secs(1));
        // Node 1 crashed before the ping arrived (ping latency 1ms > 1us).
        assert!(sim.node(NodeId::new(1)).crashed);
        assert_eq!(sim.node(NodeId::new(1)).pings, 0);
        // Node 2 still replied.
        assert_eq!(sim.node(NodeId::new(0)).pongs, 1);
    }

    #[test]
    fn timers_fire_and_count() {
        let mut sim = build(2, NetworkConfig::default(), 6);
        sim.run_until(SimTime::from_millis(1));
        // Manually set a timer through the node API by posting a fault-free
        // path: use post to trigger on_message then timer? Simplest: drive
        // a timer via node 0's on_timer by scheduling through the queue.
        // Instead: set a timer inside on_start is not done by PingPong, so
        // exercise timers through a dedicated node below.
        struct TimerNode {
            fired: u32,
        }
        impl Node for TimerNode {
            type Message = ();
            type Fault = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                ctx.set_timer(SimTime::from_millis(10), TimerToken::new(1));
            }
            fn on_message(&mut self, _f: NodeId, _m: (), _c: &mut Context<'_, ()>) {}
            fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, ()>) {
                assert_eq!(token, TimerToken::new(1));
                self.fired += 1;
                if self.fired < 3 {
                    ctx.set_timer(SimTime::from_millis(10), TimerToken::new(1));
                }
            }
        }
        let mut tsim: Simulation<TimerNode> = Simulation::new(NetworkConfig::default(), 0);
        tsim.add_node(TimerNode { fired: 0 });
        tsim.run_until(SimTime::from_secs(1));
        assert_eq!(tsim.node(NodeId::new(0)).fired, 3);
        assert_eq!(tsim.stats().timers_fired(), 3);
    }

    #[test]
    fn run_to_quiescence_drains_queue() {
        let mut sim = build(3, NetworkConfig::default(), 9);
        let processed = sim.run_to_quiescence(1_000);
        assert!(processed > 0);
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn run_to_quiescence_respects_cap() {
        // Two nodes ping-pong forever; the cap must stop the run.
        struct Forever;
        impl Node for Forever {
            type Message = u8;
            type Fault = ();
            fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
                if ctx.id() == NodeId::new(0) {
                    ctx.send(NodeId::new(1), 0);
                }
            }
            fn on_message(&mut self, from: NodeId, _m: u8, ctx: &mut Context<'_, u8>) {
                ctx.send(from, 0);
            }
        }
        let mut sim: Simulation<Forever> = Simulation::new(NetworkConfig::default(), 0);
        sim.add_node(Forever);
        sim.add_node(Forever);
        assert_eq!(sim.run_to_quiescence(50), 50);
    }

    #[test]
    #[should_panic(expected = "before the simulation starts")]
    fn add_node_after_start_panics() {
        let mut sim = build(2, NetworkConfig::default(), 0);
        sim.run_until(SimTime::from_millis(1));
        sim.add_node(PingPong::default());
    }

    #[test]
    fn deadline_advances_clock_without_events() {
        let mut sim: Simulation<PingPong> = Simulation::new(NetworkConfig::default(), 0);
        sim.add_node(PingPong::default());
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }
}
