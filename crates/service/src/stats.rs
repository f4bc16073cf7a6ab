//! What a [`TimeServer`](crate::TimeServer) reports about itself:
//! its protocol counters.

/// Counters describing a server's protocol activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Resync rounds started.
    pub rounds: usize,
    /// Clock resets applied (rule MM-2 / IM-2 accepted).
    pub resets: usize,
    /// Replies processed.
    pub replies: usize,
    /// Replies ignored as inconsistent (MM) or rounds whose intersection
    /// was empty (round strategies).
    pub inconsistencies: usize,
    /// Replies that arrived after their round had already closed.
    pub late_replies: usize,
    /// §3 recoveries initiated.
    pub recoveries_started: usize,
    /// §3 recoveries applied (third-server value adopted).
    pub recoveries_applied: usize,
    /// Replies dropped by §5 rate screening (dissonant neighbours).
    pub screened: usize,
    /// Requests whose reply missed its own-clock deadline.
    pub timeouts: usize,
    /// Timed-out requests that were re-solicited.
    pub retries: usize,
    /// Replies whose sender did not match the recorded request peer
    /// (dropped unprocessed).
    pub mismatched_replies: usize,
    /// Peers that left Healthy (→ Suspect or Dead) on consecutive
    /// timeouts.
    pub peers_suspected: usize,
    /// Suspect/Dead peers reinstated to Healthy by a reply.
    pub peers_reinstated: usize,
    /// Rounds that gathered fewer than the configured quorum of replies
    /// and therefore skipped their reset (rule MM-1 keeps growing `E_i`).
    pub degraded_rounds: usize,
    /// Scheduled crashes taken.
    pub crashes: usize,
    /// Restarts taken after a crash.
    pub restarts: usize,
    /// Bootstrap rounds run while re-acquiring the time after an
    /// amnesia restart.
    pub bootstrap_rounds: usize,
    /// §3 recovery replies rejected by the §5 consistency screen.
    pub recoveries_rejected: usize,
    /// Datagrams that failed wire-codec decoding and were discarded at
    /// the transport boundary (real transports only; the simulator
    /// delivers typed messages and never increments this).
    pub malformed_frames: usize,
}
