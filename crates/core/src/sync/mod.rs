//! Synchronization functions.
//!
//! The paper characterises clock synchronization as each server `i`
//! independently computing `C_i(t) ← F(C_{i1}(t), …, C_{ik}(t))` over a
//! distributed set of data (§1.2). The *synchronization function* `F` is
//! what distinguishes the algorithms:
//!
//! * [`mm`] — pick the reply with the smallest maximum error (§3),
//! * [`im`] — intersect all reply intervals (§4),
//! * [`baseline`] — the maximum / median / mean functions from the prior
//!   work the paper compares against ([Lamport 78, 82]).
//!
//! All functions here are pure. They consume the server's own current
//! estimate `⟨C_i, E_i⟩`, its drift bound `δ_i`, and a set of
//! [`TimedReply`]s (a remote estimate plus the round-trip `ξ` measured on
//! the *local* clock), and return a [`Reset`] decision.

pub mod baseline;
pub mod im;
pub mod mm;

use std::fmt;

use crate::time::{Duration, Timestamp};
use crate::TimeEstimate;

/// A remote reply `⟨C_j, E_j⟩` paired with the round-trip delay `ξ^i_j`
/// measured on the requesting server's own clock `C_i`.
///
/// Measuring `ξ` locally (rather than in real time) is what introduces the
/// `(1 + δ_i)` inflation factors in rules MM-2 and IM-2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedReply {
    /// The remote server's reported estimate.
    pub estimate: TimeEstimate,
    /// The round-trip `ξ^i_j` as measured by the local clock.
    pub round_trip: Duration,
}

impl TimedReply {
    /// Pairs a reply with its locally measured round-trip.
    ///
    /// # Panics
    ///
    /// Panics if `round_trip` is negative (clock readings between resets
    /// are monotonic, so a locally measured round-trip cannot be
    /// negative).
    #[must_use]
    pub fn new(estimate: TimeEstimate, round_trip: Duration) -> Self {
        assert!(
            !round_trip.is_negative(),
            "round-trip must be non-negative, got {round_trip}"
        );
        TimedReply {
            estimate,
            round_trip,
        }
    }
}

impl fmt::Display for TimedReply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (rtt {})", self.estimate, self.round_trip)
    }
}

/// The decision to reset the local clock.
///
/// Applying a reset means `C_i ← new_clock`, `ε_i ← new_error`,
/// `r_i ← new_clock` (rules MM-2 / IM-2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reset {
    /// The value the clock is set to.
    pub new_clock: Timestamp,
    /// The inherited error after the reset.
    pub new_error: Duration,
}

impl Reset {
    /// The estimate a server holds immediately after applying this reset.
    #[must_use]
    pub fn as_estimate(&self) -> TimeEstimate {
        TimeEstimate::new(self.new_clock, self.new_error)
    }
}

impl fmt::Display for Reset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "reset to {} ± {}", self.new_clock, self.new_error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_reply_construction() {
        let e = TimeEstimate::new(Timestamp::from_secs(1.0), Duration::from_secs(0.1));
        let r = TimedReply::new(e, Duration::from_secs(0.05));
        assert_eq!(r.estimate, e);
        assert_eq!(r.round_trip, Duration::from_secs(0.05));
    }

    #[test]
    #[should_panic(expected = "round-trip must be non-negative")]
    fn timed_reply_rejects_negative_rtt() {
        let e = TimeEstimate::new(Timestamp::from_secs(1.0), Duration::ZERO);
        let _ = TimedReply::new(e, Duration::from_secs(-0.01));
    }

    #[test]
    fn reset_as_estimate() {
        let reset = Reset {
            new_clock: Timestamp::from_secs(5.0),
            new_error: Duration::from_secs(0.2),
        };
        let e = reset.as_estimate();
        assert_eq!(e.time(), Timestamp::from_secs(5.0));
        assert_eq!(e.error(), Duration::from_secs(0.2));
    }

    #[test]
    fn display_impls() {
        let e = TimeEstimate::new(Timestamp::from_secs(1.0), Duration::from_secs(0.1));
        assert!(TimedReply::new(e, Duration::ZERO)
            .to_string()
            .contains("rtt"));
        let reset = Reset {
            new_clock: Timestamp::from_secs(5.0),
            new_error: Duration::ZERO,
        };
        assert!(reset.to_string().starts_with("reset to"));
    }
}
