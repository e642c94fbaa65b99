//! # `fi-simnet` — a deterministic discrete-event network simulator
//!
//! Both consensus stacks in this workspace (`fi-bft`, `fi-nakamoto`) run on
//! this simulator rather than on a real async runtime. That is a deliberate
//! substitution (DESIGN.md §3): the paper's claims are about *safety under
//! correlated compromise*, and a seeded discrete-event simulation makes
//! every experiment reproducible bit-for-bit while still exercising message
//! reordering, loss, latency variation, and partitions.
//!
//! ## Model
//!
//! * A [`Simulation`] owns a set of [`Node`]s (trait objects over a message
//!   type `M`) and an event queue ordered by `(time, sequence)`.
//! * Nodes interact with the world only through a [`Context`]: sending
//!   messages, broadcasting, setting timers, reading the clock, drawing
//!   randomness. The engine applies the [`NetworkConfig`] (latency model,
//!   drop probability, partitions) to every send.
//! * Faults are injected by scheduling values of the node's own
//!   [`Node::Fault`] type; the simulator attaches no meaning to them, and
//!   the node's `on_fault` hook decides what one means for its protocol (in
//!   `fi-bft` a fault is the replica's next behaviour, Byzantine or
//!   honest — the paper's "one vulnerability flips all replicas sharing
//!   the component", and a recovery).
//!
//! ## Example
//!
//! ```
//! use fi_simnet::{Context, Node, NodeId, Simulation, NetworkConfig};
//! use fi_types::SimTime;
//!
//! struct Echo { heard: usize }
//! impl Node for Echo {
//!     type Message = u32;
//!     type Fault = ();
//!     fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
//!         if ctx.id() == NodeId::new(0) {
//!             ctx.broadcast(7);
//!         }
//!     }
//!     fn on_message(&mut self, _from: NodeId, msg: u32, _ctx: &mut Context<'_, u32>) {
//!         assert_eq!(msg, 7);
//!         self.heard += 1;
//!     }
//! }
//!
//! let mut sim: Simulation<Echo> = Simulation::new(NetworkConfig::default(), 42);
//! for _ in 0..3 {
//!     sim.add_node(Echo { heard: 0 });
//! }
//! sim.run_until(SimTime::from_secs(1));
//! // Node 0 broadcast to the other two.
//! assert_eq!(sim.stats().delivered(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod latency;
pub mod network;
pub mod node;
pub mod partition;
pub mod population;
pub mod trace;

pub use engine::Simulation;
pub use event::TimerToken;
pub use latency::LatencyModel;
pub use network::NetworkConfig;
pub use node::{Context, Node, NodeId};
pub use partition::Partition;
pub use population::{ClientPopulation, PopulationConfig, TickTraffic};
pub use trace::TraceStats;
