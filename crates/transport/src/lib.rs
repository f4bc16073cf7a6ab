//! # tempo-transport
//!
//! The real-network backend of the time service: the same
//! [`tempo_service::TimeServer`] state machine that runs inside the
//! deterministic simulator, driven here by actual UDP datagrams on
//! actual sockets.
//!
//! The paper's protocol is transport-agnostic by construction — rule
//! MM-1 only needs "ask a peer, time the round trip on your own clock"
//! — and the codebase mirrors that: the server is a sans-io actor whose
//! outputs are [`tempo_net::ActorAction`]s, and its host executes them.
//! `tempo-net`'s `World` is one such host (simulated time, seeded
//! delays); this crate's [`UdpRuntime`] is the other (wall-clock time,
//! real packet loss).
//!
//! * [`DatagramSocket`] — the thin socket seam: `std::net::UdpSocket`
//!   in production, a recording mock in tests.
//! * [`FaultyTransport`] — a socket decorator that injects loss,
//!   duplication, delay/reordering, truncation, and garbage *below*
//!   the codec, on real datagrams — the robustness hammer.
//! * [`UdpRuntime`] — owns a [`WireActor`] (a `TimeServer`, a
//!   [`tempo_cluster::ClusterReplica`] for `tempod --cluster`, or a
//!   [`tempo_cluster::AuditClient`]), a socket, the peer table, a
//!   wall-clock timer wheel, the telemetry bus and the state file;
//!   pumps receive/decode/dispatch/mirror.
//! * [`ServeFront`] — the lock-free read path: N threads on a shared
//!   serve socket answering time requests straight from the actor's
//!   seqlock-published snapshot, with batched replies and an optional
//!   admission tier. Each thread drains the socket with one
//!   `recvmmsg`, answers it from one snapshot read and sends with one
//!   `sendmmsg` (one datagram per call off Linux).
//! * [`UdpTimeClient`] — a blocking client that queries a cluster and
//!   returns rtt-adjusted readings.
//! * [`UdpClusterClient`] — a blocking ClusterTime client: the
//!   simulator's `AuditClient` hosted by a `UdpRuntime`.
//! * [`FileStore`] — the file a durable record is mirrored to (atomic
//!   tmp-write + fsync + rename), so a SIGKILLed server rehydrates
//!   `(r_i, ε_i)` on relaunch.
//! * [`signal`] — minimal SIGTERM/SIGINT latching for graceful
//!   shutdown without a signal-handling dependency.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod client;
mod fault;
mod mmsg;
mod runtime;
mod serve;
pub mod signal;
mod socket;
mod store;

pub use client::{ClusterReading, ServerReading, TsOutcome, UdpClusterClient, UdpTimeClient};
pub use fault::{FaultPlan, FaultyTransport};
pub use runtime::{UdpRuntime, WireActor};
pub use serve::{ServeFront, ServeOptions, ServeStats};
pub use socket::DatagramSocket;
pub use store::FileStore;
