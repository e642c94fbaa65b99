//! The [`Node`] trait and the [`Context`] through which nodes act.

use core::fmt;

use fi_types::SimTime;
use rand::rngs::StdRng;
use rand::Rng;

use crate::event::TimerToken;

/// Index of a node within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(usize);

impl NodeId {
    /// Creates a node id from a raw index.
    #[must_use]
    pub const fn new(index: usize) -> Self {
        NodeId(index)
    }

    /// The raw index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for NodeId {
    fn from(index: usize) -> Self {
        NodeId(index)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Actions a node can emit during a callback; applied by the engine after
/// the callback returns.
#[derive(Debug, Clone)]
pub(crate) enum Action<M> {
    Send { to: NodeId, payload: M },
    Broadcast { payload: M },
    SetTimer { delay: SimTime, token: TimerToken },
}

/// The node's window onto the simulation during a callback: clock, own id,
/// deterministic randomness, and outgoing actions.
pub struct Context<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) id: NodeId,
    pub(crate) node_count: usize,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) outbox: Vec<Action<M>>,
}

impl<M> Context<'_, M> {
    /// The current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Total number of nodes in the simulation.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Sends `payload` to `to` (latency/drops/partitions applied by the
    /// engine). Sending to self is allowed and goes through the queue like
    /// any other message.
    pub fn send(&mut self, to: NodeId, payload: M) {
        self.outbox.push(Action::Send { to, payload });
    }

    /// Sends `payload` to every *other* node.
    // lint: allow(unused-pub) simulator API for Node implementations: the crate example and the nodes of simnet_properties and determinism_goldens broadcast
    pub fn broadcast(&mut self, payload: M) {
        self.outbox.push(Action::Broadcast { payload });
    }

    /// Schedules a timer to fire on this node after `delay`.
    pub fn set_timer(&mut self, delay: SimTime, token: TimerToken) {
        self.outbox.push(Action::SetTimer { delay, token });
    }

    /// Draws a uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    // lint: allow(unused-pub) simulator API for Node implementations: simnet_properties' gossip nodes draw their peers with it
    pub fn random_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "random_below requires a positive bound");
        self.rng.gen_range(0..bound)
    }
}

/// A protocol participant driven by the simulation.
///
/// All methods have no-op defaults except [`on_message`](Node::on_message);
/// implement the hooks the protocol needs. Heterogeneous simulations (e.g.
/// BFT replicas plus clients) wrap their roles in an enum implementing
/// `Node`, which keeps node state directly inspectable by harnesses.
pub trait Node {
    /// The message type this node exchanges.
    type Message;

    /// What a scheduled fault hands this node: the simulator attaches no
    /// meaning to it (`fi-bft` uses the replica's behaviour itself).
    type Fault;

    /// Called once, at simulation start (time 0), in node-id order.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>) {
        let _ = ctx;
    }

    /// Called when a message from `from` is delivered.
    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Message,
        ctx: &mut Context<'_, Self::Message>,
    );

    /// Called when a timer set by this node fires.
    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, Self::Message>) {
        let _ = (token, ctx);
    }

    /// Called when a fault scheduled with
    /// [`Simulation::schedule_fault`](crate::Simulation::schedule_fault)
    /// reaches this node.
    fn on_fault(&mut self, fault: Self::Fault, ctx: &mut Context<'_, Self::Message>) {
        let _ = (fault, ctx);
    }
}

impl<T: Node + ?Sized> Node for Box<T> {
    type Message = T::Message;
    type Fault = T::Fault;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>) {
        (**self).on_start(ctx);
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Message,
        ctx: &mut Context<'_, Self::Message>,
    ) {
        (**self).on_message(from, msg, ctx);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, Self::Message>) {
        (**self).on_timer(token, ctx);
    }

    fn on_fault(&mut self, fault: Self::Fault, ctx: &mut Context<'_, Self::Message>) {
        (**self).on_fault(fault, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn node_id_basics() {
        let id = NodeId::new(3);
        assert_eq!(id.index(), 3);
        assert_eq!(id.to_string(), "n3");
        assert_eq!(NodeId::from(3usize), id);
        assert!(NodeId::new(1) < NodeId::new(2));
    }

    #[test]
    fn context_collects_actions() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx: Context<'_, u8> = Context {
            now: SimTime::from_millis(5),
            id: NodeId::new(1),
            node_count: 4,
            rng: &mut rng,
            outbox: Vec::new(),
        };
        assert_eq!(ctx.now(), SimTime::from_millis(5));
        assert_eq!(ctx.id(), NodeId::new(1));
        assert_eq!(ctx.node_count(), 4);
        ctx.send(NodeId::new(2), 9);
        ctx.broadcast(7);
        ctx.set_timer(SimTime::from_millis(1), TimerToken::new(11));
        assert_eq!(ctx.outbox.len(), 3);
    }

    #[test]
    fn context_randomness_is_deterministic_per_seed() {
        let draw = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ctx: Context<'_, u8> = Context {
                now: SimTime::ZERO,
                id: NodeId::new(0),
                node_count: 1,
                rng: &mut rng,
                outbox: Vec::new(),
            };
            (ctx.random_below(u64::MAX), ctx.random_below(100))
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn random_below_zero_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx: Context<'_, u8> = Context {
            now: SimTime::ZERO,
            id: NodeId::new(0),
            node_count: 1,
            rng: &mut rng,
            outbox: Vec::new(),
        };
        let _ = ctx.random_below(0);
    }

    #[test]
    fn boxed_nodes_delegate() {
        struct Probe {
            messages: usize,
        }
        impl Node for Probe {
            type Message = u8;
            type Fault = ();
            fn on_message(&mut self, _f: NodeId, _m: u8, _c: &mut Context<'_, u8>) {
                self.messages += 1;
            }
        }
        let mut boxed: Box<Probe> = Box::new(Probe { messages: 0 });
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = Context {
            now: SimTime::ZERO,
            id: NodeId::new(0),
            node_count: 1,
            rng: &mut rng,
            outbox: Vec::new(),
        };
        Node::on_message(&mut boxed, NodeId::new(0), 1, &mut ctx);
        Node::on_start(&mut boxed, &mut ctx);
        Node::on_timer(&mut boxed, TimerToken::new(0), &mut ctx);
        Node::on_fault(&mut boxed, (), &mut ctx);
        assert_eq!(boxed.messages, 1);
    }
}
