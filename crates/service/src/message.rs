//! The wire protocol of the time service.
//!
//! Deliberately minimal, as the paper's §1 stresses: "Issues that need
//! to be considered in other services, such as connection establishment
//! or client authentication, need not be considered in a time service."

use tempo_core::TimeEstimate;

/// A time-service message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Message {
    /// "What time is it?" The id correlates the reply with the locally
    /// recorded send instant, which is how the round-trip `ξ` is
    /// measured on the requester's own clock.
    TimeRequest {
        /// Requester-local correlation id.
        request_id: u64,
        /// Retry ordinal: `0` for the first solicitation, incremented on
        /// each re-send of a timed-out request. Purely diagnostic for
        /// the responder; the requester correlates by `request_id`
        /// (every retry gets a fresh id, so a late original and its
        /// retry's reply can never be confused).
        attempt: u8,
    },
    /// The rule MM-1 response: the pair `⟨C_j(t), E_j(t)⟩`, plus the
    /// server-clock reading at request reception (the `T2` of a
    /// [Mills 81] four-timestamp exchange; `estimate.time()` plays
    /// `T3`). In this simulator servers answer instantaneously, so
    /// `T2 = T3`, but the wire format carries both for real
    /// deployments with processing delay.
    ///
    /// Nothing in the format proves two recipients were told the same
    /// thing: under a Byzantine fault (the two-faced, colluding and
    /// adversarial tiers of [`ServerFault`](crate::ServerFault)) the
    /// `estimate` may be crafted per destination, which is precisely
    /// why requesters screen replies rather than trust them.
    TimeReply {
        /// Correlation id copied from the request.
        request_id: u64,
        /// Server-clock reading when the request arrived (`T2`).
        received_at: tempo_core::Timestamp,
        /// The replying server's estimate at the moment it answered
        /// (`T3` and the MM-1 error).
        estimate: TimeEstimate,
    },
    /// The §5 bootstrap refusal: the server is `Booting` after a
    /// restart and does not yet hold a trustworthy interval, so it
    /// explicitly declines to serve the time rather than stay silent.
    /// Requesters treat it as proof of liveness (the peer is back) but
    /// never adopt anything from it.
    Uninitialized {
        /// Correlation id copied from the request.
        request_id: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_core::{Duration, Timestamp};

    #[test]
    fn messages_are_cloneable_and_comparable() {
        let req = Message::TimeRequest {
            request_id: 7,
            attempt: 0,
        };
        assert_eq!(req, req);
        let rep = Message::TimeReply {
            request_id: 7,
            received_at: Timestamp::from_secs(1.0),
            estimate: TimeEstimate::new(Timestamp::from_secs(1.0), Duration::ZERO),
        };
        assert_ne!(req, rep);
        let copy = rep;
        assert_eq!(copy, rep);
        let refusal = Message::Uninitialized { request_id: 7 };
        assert_ne!(refusal, req);
        assert_eq!(refusal, refusal);
    }
}
