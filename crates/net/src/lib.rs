//! # tempo-net
//!
//! A deterministic discrete-event network simulator — the substrate
//! standing in for the Xerox Research Internet over which the paper's
//! time service ran.
//!
//! The paper's analysis needs exactly two things from the network: that
//! message delay is nondeterministic but bounded (`ξ` bounds every
//! round-trip), and that the server graph is connected. This crate
//! provides both as explicit, seedable configuration:
//!
//! * [`Topology`] — which servers can exchange messages (full mesh,
//!   ring, star, line, or arbitrary edges including multi-network
//!   internets joined by gateways),
//! * [`DelayModel`] — per-link one-way delay distributions with a hard
//!   maximum,
//! * [`NetConfig`] — loss probability, per-link overrides, and timed
//!   [`Partition`]s,
//! * [`World`] — the event loop driving a set of [`Actor`]s, with
//!   stable, reproducible event ordering for any fixed seed,
//! * [`Transport`] — the delivery-backend seam: the [`World`] is one
//!   implementation; the `tempo-transport` crate provides a real UDP
//!   one driving the *same* actors over actual sockets.
//!
//! A world built with [`World::new_with_bus`] emits every send, delivery, drop,
//! duplication, and timer firing as a typed
//! [`tempo_telemetry::TelemetryEvent`], so external sinks (metrics,
//! oracle, JSONL export) observe the network without bespoke hooks.
//!
//! ```
//! use tempo_core::{Duration, Timestamp};
//! use tempo_net::{Actor, Context, DelayModel, NetConfig, NodeId, Topology, World};
//!
//! /// Every node pings its neighbours once and counts pongs.
//! #[derive(Default)]
//! struct Ping {
//!     pongs: usize,
//! }
//!
//! impl Actor for Ping {
//!     type Msg = bool; // true = ping, false = pong
//!
//!     fn on_start(&mut self, ctx: &mut Context<'_, bool>) {
//!         for peer in ctx.neighbors().to_vec() {
//!             ctx.send(peer, true);
//!         }
//!     }
//!
//!     fn on_message(&mut self, from: NodeId, msg: bool, ctx: &mut Context<'_, bool>) {
//!         if msg {
//!             ctx.send(from, false);
//!         } else {
//!             self.pongs += 1;
//!         }
//!     }
//!
//!     fn on_timer(&mut self, _tag: u64, _ctx: &mut Context<'_, bool>) {}
//! }
//!
//! let actors = (0..3).map(|_| Ping::default()).collect();
//! let mut world = World::new(
//!     actors,
//!     Topology::full_mesh(3),
//!     NetConfig::with_delay(DelayModel::Constant(Duration::from_millis(5.0))),
//!     42,
//! );
//! world.run_until(Timestamp::from_secs(1.0));
//! assert!(world.actors().iter().all(|a| a.pongs == 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod delay;
mod node;
mod queue;
mod topology;
mod transport;
mod world;

pub use config::{NetConfig, NetStats, Partition};
pub use delay::DelayModel;
pub use node::NodeId;
pub use queue::EventQueue;
pub use topology::Topology;
pub use transport::{node_rng, ActorAction, Transport};
pub use world::{Actor, Context, World};
