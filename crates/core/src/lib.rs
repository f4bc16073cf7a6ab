//! # tempo-core
//!
//! Interval-based clock synchronization: a faithful implementation of the
//! algorithms in Keith Marzullo and Susan Owicki, *Maintaining the Time in
//! a Distributed System* (Stanford CSL TR 83-247 / PODC 1983).
//!
//! The paper models a time server as a clock `C_i(t)` with a known maximum
//! drift rate `δ_i`, an inherited error `ε_i`, and the clock value `r_i` at
//! its last reset, so that the server can always report the pair
//! `⟨C_i(t), E_i(t)⟩` with
//!
//! ```text
//! E_i(t) = ε_i + (C_i(t) − r_i) · δ_i          (rule MM-1 / IM-1)
//! ```
//!
//! The pair is an *interval* `[C_i − E_i, C_i + E_i]` that is **correct**
//! when it contains real time. This crate provides:
//!
//! * [`Timestamp`], [`Duration`], [`DriftRate`] — validated time newtypes,
//! * [`TimeInterval`] — closed-interval algebra (intersection, width, …),
//! * [`TimeEstimate`] and [`ErrorState`] — the ⟨C, E⟩ pairs and the MM-1
//!   error-growth rule,
//! * [`sync::mm`] — algorithm **MM** (*minimization of maximum error*),
//! * [`sync::im`] — algorithm **IM** (*intersection*),
//! * [`sync::baseline`] — the Lamport max / median / mean comparators,
//! * [`bounds`] — the theorems' bound formulas as named functions,
//! * [`marzullo`] — the fault-tolerant generalisation of IM from
//!   [Marzullo 83] (the ancestor of NTP's clock-select),
//! * [`ntp`] — an RFC-5905-style selection built on the same sweep,
//! * [`consistency`] — pairwise consistency and consistency groups (§5),
//! * [`consonance`] — the same machinery applied to clock *rates* (§5),
//! * [`snapshot`] — the seqlock-published `(r, ε, δ)` serving snapshot
//!   behind the lock-free read path.
//!
//! All functions here are pure: they map an observed set of replies to a
//! decision. Driving them over a simulated network is the job of the
//! `tempo-service` and `tempo-sim` crates.
//!
//! ## Quick example
//!
//! Intersecting three server replies with algorithm IM:
//!
//! ```
//! use tempo_core::{Duration, Timestamp, TimeEstimate, DriftRate};
//! use tempo_core::sync::TimedReply;
//! use tempo_core::sync::im::{im_round, ImOutcome};
//!
//! let own = TimeEstimate::new(Timestamp::from_secs(100.0), Duration::from_secs(0.5));
//! let delta = DriftRate::new(1e-5);
//! let replies = vec![
//!     TimedReply::new(
//!         TimeEstimate::new(Timestamp::from_secs(100.2), Duration::from_secs(0.3)),
//!         Duration::from_secs(0.01),
//!     ),
//!     TimedReply::new(
//!         TimeEstimate::new(Timestamp::from_secs(99.9), Duration::from_secs(0.4)),
//!         Duration::from_secs(0.02),
//!     ),
//! ];
//! match im_round(&own, delta, &replies) {
//!     ImOutcome::Reset(reset) => {
//!         // The derived interval is never wider than the narrowest input
//!         assert!(reset.new_error <= Duration::from_secs(0.3 + 0.02 * (1.0 + 1e-5) / 2.0 + 1e-9));
//!     }
//!     ImOutcome::Inconsistent => unreachable!("these intervals intersect"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bounds;
pub mod consistency;
pub mod consonance;
pub mod estimate;
pub mod filter;
pub mod interval;
pub mod marzullo;
pub mod ntp;
pub mod offset;
pub mod snapshot;
pub mod sync;
pub mod time;

pub use estimate::{ErrorState, TimeEstimate};
pub use interval::TimeInterval;
pub use snapshot::{ClockSnapshot, SnapshotCell, SnapshotReader};
pub use time::{DriftRate, Duration, Timestamp};
