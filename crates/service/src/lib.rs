//! # tempo-service
//!
//! The distributed time-service protocol of Marzullo & Owicki (1983),
//! built from the pure synchronization functions of [`tempo_core`] and
//! run over the [`tempo_net`] discrete-event simulator with
//! [`tempo_clocks`] hardware.
//!
//! * [`TimeServer`] — the protocol actor: answers requests per rule
//!   MM-1, polls neighbours every `τ`, synchronises with algorithm
//!   [`Strategy::Mm`], [`Strategy::Im`], the fault-tolerant
//!   [`Strategy::MarzulloTolerant`], or a baseline; optionally runs the
//!   §3 third-server recovery.
//! * [`TimeClient`] — the client side: first-reply, smallest-error, or
//!   intersection querying.
//! * [`ServiceNode`] — a sum type so one simulated world can host both.
//!
//! ```
//! use tempo_clocks::{DriftModel, SimClock};
//! use tempo_core::{DriftRate, Duration, Timestamp};
//! use tempo_net::{DelayModel, NetConfig, Topology, World};
//! use tempo_service::{ServerConfig, Strategy, TimeServer};
//!
//! // Three servers with different drifts, synchronising with IM.
//! let servers: Vec<TimeServer> = [1e-5, -2e-5, 4e-6]
//!     .iter()
//!     .enumerate()
//!     .map(|(i, &drift)| {
//!         let clock = SimClock::builder()
//!             .drift(DriftModel::Constant(drift))
//!             .seed(i as u64)
//!             .build();
//!         TimeServer::new(
//!             clock,
//!             ServerConfig::new(Strategy::Im, DriftRate::new(1e-4))
//!                 .resync_period(Duration::from_secs(10.0))
//!                 .collect_window(Duration::from_secs(0.5)),
//!         )
//!     })
//!     .collect();
//! let mut world = World::new(
//!     servers,
//!     Topology::full_mesh(3),
//!     NetConfig::with_delay(DelayModel::Constant(Duration::from_millis(5.0))),
//!     42,
//! );
//! world.run_until(Timestamp::from_secs(60.0));
//! let now = world.now();
//! for server in world.actors_mut() {
//!     assert!(server.sample(now).correct);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod client;
mod config;
mod fault;
mod message;
mod node;
mod peers;
mod rate;
mod requests;
mod round;
mod server;
mod stats;
mod store;
pub mod wire;

pub use client::{ClientObservation, ClientStrategy, TimeClient};
pub use config::{ApplyMode, RecoveryPolicy, RetryPolicy, ScreeningPolicy, ServerConfig, Strategy};
pub use fault::{RestartSchedule, ServerFault, ServerFaultKind};
pub use message::Message;
pub use node::ServiceNode;
pub use peers::{HealthConfig, PeerState, PeerTable};
pub use rate::AdmissionControl;
pub use server::{Lifecycle, TimeServer};
pub use stats::ServerStats;
pub use store::{ClusterState, MemoryStore, PersistedState};
