//! ClusterTime: failover-safe monotonic cluster timestamps.
//!
//! The paper's time service answers "what time is it?" with an
//! interval; this crate layers the other thing distributed systems
//! want from a clock — a *strictly monotonic* cluster-wide timestamp
//! that never goes backward, not across primary crashes, not across
//! view changes, not across amnesia restarts.
//!
//! The design is lease-gated primary assignment over the quorum
//! Marzullo intersection:
//!
//! * **One primary per view.** View `v`'s primary is replica
//!   `v mod n`. A replica only assigns timestamps while it holds a
//!   *lease*: a quorum of replicas recently acked its renewal
//!   heartbeat, each ack carrying the backup's own interval reading.
//!   The primary intersects those readings with
//!   [`tempo_core::marzullo::intersect_tolerating`] (so up to `f`
//!   lying replicas
//!   cannot poison the result) and assigns
//!   `timestamp = max(intersection.now, high_water + 1)` in
//!   microsecond ticks.
//! * **Durable high water before release.** Before a timestamp leaves
//!   the building the primary persists it via
//!   [`tempo_service::StableStore`] *and* replicates it to a quorum of
//!   backups ([`ClusterFrame::HwUpdate`] / [`ClusterFrame::HwAck`]): the
//!   reply is withheld until a quorum has the mark on stable
//!   storage. A new primary's election quorum therefore always
//!   intersects the release quorum, so its catch-up
//!   (`high_water = max over acks`) can never miss an issued
//!   timestamp — even if the old primary restarts with amnesia.
//! * **Refusal over regression.** With no lease, no quorum, a booting
//!   inner server, or an intersection the next timestamp would
//!   overrun, the replica answers [`ClusterFrame::TsRefused`] — the
//!   degraded mode is *no service*, never wrong service.
//!
//! The crate is sans-io in the same style as
//! [`tempo_service::TimeServer`]: [`ClusterReplica`] embeds an
//! unmodified `TimeServer` (driving it through
//! [`tempo_net::Context::map_msg`]) and both run under any
//! [`tempo_net::Transport`] — the simulator's `World`, or the real
//! UDP runtime via the `TYPE_TS_*` wire frames in
//! [`tempo_service::wire`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod client;
mod config;
mod msg;
mod node;
mod replica;

pub use client::{AuditClient, AuditClientConfig, ClientStats};
pub use config::{ClusterConfig, ClusterFault};
pub use msg::ClusterFrame;
pub use node::ClusterNode;
pub use replica::{ClusterReplica, ClusterStats};
