//! Algorithm **MM** — *minimization of the maximum error* (§3).
//!
//! Rule MM-2 of the paper: when server `S_i` receives a consistent reply
//! `⟨C_j, E_j⟩` with locally measured round-trip `ξ^i_j`, it evaluates
//!
//! ```text
//! E_j + (1 + δ_i) · ξ^i_j  ≤  E_i
//! ```
//!
//! and, if the predicate holds, resets: `ε_i ← E_j + (1+δ_i)ξ^i_j`,
//! `C_i ← C_j`, `r_i ← C_j`. Inconsistent replies are ignored (and
//! surfaced to the caller, since §3's recovery algorithm keys off them).
//!
//! MM is a *selection* function: the resulting clock value always comes
//! from a single server, so the service can never be more accurate than
//! its most accurate clock — and, because different servers may select
//! different sources, its synchronization is limited by consistency
//! (Theorem 3) rather than by the round-trip bound.

use crate::bounds::mm2_adjusted_error;
use crate::sync::{Reset, TimedReply};
use crate::time::DriftRate;
use crate::TimeEstimate;

/// The outcome of evaluating rule MM-2 against a single reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MmOutcome {
    /// The reply had a smaller adjusted error; adopt it.
    Reset(Reset),
    /// The reply was consistent but not better; keep the local clock.
    Keep,
    /// The reply's interval does not intersect ours: at least one of the
    /// two servers is incorrect. Rule MM-2 ignores the reply; §3's
    /// recovery algorithm reacts to it.
    Inconsistent,
}

impl MmOutcome {
    /// The reset, if this outcome is one.
    #[must_use]
    pub fn reset(&self) -> Option<Reset> {
        match self {
            MmOutcome::Reset(r) => Some(*r),
            MmOutcome::Keep | MmOutcome::Inconsistent => None,
        }
    }
}

/// Evaluates rule MM-2 for one reply.
///
/// * `own` — the local estimate `⟨C_i, E_i⟩` *at the moment the reply is
///   received* (per rule MM-1 the error has been growing while the
///   request was in flight).
/// * `delta` — the local drift bound `δ_i`.
/// * `reply` — the remote estimate with its locally measured round-trip.
///
/// ```
/// use tempo_core::{TimeEstimate, Timestamp, Duration, DriftRate};
/// use tempo_core::sync::TimedReply;
/// use tempo_core::sync::mm::{mm_decide, MmOutcome};
///
/// let own = TimeEstimate::new(Timestamp::from_secs(100.0), Duration::from_secs(1.0));
/// let better = TimedReply::new(
///     TimeEstimate::new(Timestamp::from_secs(100.1), Duration::from_secs(0.2)),
///     Duration::from_secs(0.05),
/// );
/// match mm_decide(&own, DriftRate::new(1e-4), &better) {
///     MmOutcome::Reset(r) => assert_eq!(r.new_clock, Timestamp::from_secs(100.1)),
///     _ => unreachable!("the reply's adjusted error beats E_i"),
/// }
/// ```
#[must_use]
pub fn mm_decide(own: &TimeEstimate, delta: DriftRate, reply: &TimedReply) -> MmOutcome {
    if !own.is_consistent_with(&reply.estimate) {
        return MmOutcome::Inconsistent;
    }
    let adjusted = mm2_adjusted_error(reply.estimate.error(), reply.round_trip, delta);
    if adjusted <= own.error() {
        MmOutcome::Reset(Reset {
            new_clock: reply.estimate.time(),
            new_error: adjusted,
        })
    } else {
        MmOutcome::Keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{Duration, Timestamp};

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn dur(s: f64) -> Duration {
        Duration::from_secs(s)
    }

    fn est(c: f64, e: f64) -> TimeEstimate {
        TimeEstimate::new(ts(c), dur(e))
    }

    #[test]
    fn adopts_strictly_better_reply() {
        let own = est(100.0, 1.0);
        let reply = TimedReply::new(est(100.2, 0.3), dur(0.1));
        let delta = DriftRate::new(0.01);
        match mm_decide(&own, delta, &reply) {
            MmOutcome::Reset(r) => {
                assert_eq!(r.new_clock, ts(100.2));
                // ε ← E_j + (1+δ)ξ = 0.3 + 1.01·0.1
                assert!((r.new_error.as_secs() - 0.401).abs() < 1e-12);
            }
            other => panic!("expected reset, got {other:?}"),
        }
    }

    #[test]
    fn keeps_clock_when_reply_not_better() {
        let own = est(100.0, 0.2);
        let reply = TimedReply::new(est(100.1, 0.3), dur(0.0));
        assert_eq!(mm_decide(&own, DriftRate::ZERO, &reply), MmOutcome::Keep);
    }

    #[test]
    fn boundary_equal_adjusted_error_is_adopted() {
        // The predicate is ≤, so an exactly-equal adjusted error resets.
        let own = est(100.0, 0.5);
        let reply = TimedReply::new(est(100.0, 0.5), dur(0.0));
        assert!(matches!(
            mm_decide(&own, DriftRate::ZERO, &reply),
            MmOutcome::Reset(_)
        ));
    }

    #[test]
    fn round_trip_penalty_can_flip_decision() {
        let own = est(100.0, 0.5);
        // E_j = 0.45 looks better, but ξ = 0.1 pushes it past E_i.
        let reply = TimedReply::new(est(100.0, 0.45), dur(0.1));
        assert_eq!(mm_decide(&own, DriftRate::ZERO, &reply), MmOutcome::Keep);
        // With a fast network the same reply is adopted.
        let fast = TimedReply::new(est(100.0, 0.45), dur(0.01));
        assert!(matches!(
            mm_decide(&own, DriftRate::ZERO, &fast),
            MmOutcome::Reset(_)
        ));
    }

    #[test]
    fn inconsistent_reply_is_ignored() {
        let own = est(100.0, 0.1);
        // 3 seconds away with tiny errors: cannot both be correct.
        let reply = TimedReply::new(est(103.0, 0.1), dur(0.0));
        assert_eq!(
            mm_decide(&own, DriftRate::ZERO, &reply),
            MmOutcome::Inconsistent
        );
    }

    #[test]
    fn inconsistent_reply_never_resets_even_if_smaller_error() {
        let own = est(100.0, 0.1);
        let reply = TimedReply::new(est(103.0, 0.001), dur(0.0));
        assert_eq!(
            mm_decide(&own, DriftRate::ZERO, &reply),
            MmOutcome::Inconsistent
        );
    }

    #[test]
    fn self_reply_always_satisfies_predicate() {
        // The Theorem 2 proof's device: a self-reply has ξ = 0 and
        // E_j = E_i, so it satisfies MM-2 without changing anything.
        let own = est(42.0, 0.7);
        let outcome = mm_decide(&own, DriftRate::new(0.1), &TimedReply::self_reply(own));
        match outcome {
            MmOutcome::Reset(r) => {
                assert_eq!(r.new_clock, own.time());
                assert_eq!(r.new_error, own.error());
            }
            other => panic!("self-reply must satisfy MM-2, got {other:?}"),
        }
    }

    #[test]
    fn outcome_reset_accessor() {
        let own = est(0.0, 1.0);
        let reply = TimedReply::new(est(0.0, 0.1), dur(0.0));
        assert!(mm_decide(&own, DriftRate::ZERO, &reply).reset().is_some());
        assert!(MmOutcome::Keep.reset().is_none());
        assert!(MmOutcome::Inconsistent.reset().is_none());
    }
}
