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
//! * [`bounds`] — the rules' and theorems' bound formulas as named
//!   functions,
//! * [`marzullo`] — the fault-tolerant generalisation of IM from
//!   [Marzullo 83] (the ancestor of NTP's clock-select),
//! * [`ntp`] — an RFC-5905-style selection built on the same sweep,
//! * [`consistency`] — pairwise consistency and consistency groups (§5),
//! * [`consonance`] — the same machinery applied to clock *rates* (§5),
//! * [`snapshot`] — the seqlock-published `(r, ε, δ)` serving snapshot
//!   behind the lock-free read path.
//!
//! Everything here is pure. The synchronization rules themselves — MM-2,
//! IM-2, Marzullo(f) and the max / median / mean baselines — are written
//! once, in `tempo-service`'s round engine, on top of these types and
//! bounds; driving them over a simulated network is the job of the
//! `tempo-service` and `tempo-sim` crates.
//!
//! ## Quick example
//!
//! Three servers' intervals, one of them a liar: no instant lies in all
//! three, but Marzullo's sweep tolerating one faulty source recovers the
//! region the two honest servers agree on:
//!
//! ```
//! use tempo_core::marzullo::intersect_tolerating;
//! use tempo_core::{Duration, TimeEstimate, TimeInterval, Timestamp};
//!
//! let claim = |c, e| TimeEstimate::new(Timestamp::from_secs(c), Duration::from_secs(e));
//! let intervals: Vec<TimeInterval> = [claim(100.25, 0.25), claim(99.75, 0.5), claim(250.0, 0.125)]
//!     .iter()
//!     .map(TimeEstimate::interval)
//!     .collect();
//! assert!(TimeInterval::intersect_all(&intervals).is_none());
//! let agreed = intersect_tolerating(&intervals, 1).expect("two of three agree");
//! let honest = TimeInterval::new(Timestamp::from_secs(100.0), Timestamp::from_secs(100.25));
//! assert_eq!(agreed, honest);
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
pub mod time;

pub use estimate::{ErrorState, TimeEstimate};
pub use interval::TimeInterval;
pub use snapshot::{ClockSnapshot, SnapshotCell, SnapshotReader};
pub use time::{DriftRate, Duration, Timestamp};
