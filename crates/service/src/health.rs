//! Per-peer health tracking.
//!
//! The protocol layer detects reply timeouts (measured on the server's
//! own clock); the [`HealthTracker`] turns those per-request signals
//! into a per-peer verdict: a peer that keeps timing out moves
//! Healthy → Suspect → Dead on consecutive misses, and any reply — or a
//! successful periodic probe — reinstates it. Round planning consults
//! the tracker so a crashed or partitioned peer stops being asked every
//! round, while probes guarantee a recovered peer is eventually found
//! again (the paper's §1.1 churn, driven by observation instead of
//! scripted joins/leaves).

use tempo_net::NodeId;
use tempo_telemetry::HealthState;

/// A peer's health verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerState {
    /// Replying normally.
    Healthy,
    /// Missed a few consecutive replies; still polled every round.
    Suspect,
    /// Missed many consecutive replies; only polled on probe rounds.
    Dead,
}

/// The verdict's telemetry mirror.
impl From<PeerState> for HealthState {
    fn from(state: PeerState) -> Self {
        match state {
            PeerState::Healthy => HealthState::Healthy,
            PeerState::Suspect => HealthState::Suspect,
            PeerState::Dead => HealthState::Dead,
        }
    }
}

/// Thresholds for the health state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Consecutive timeouts before Healthy → Suspect.
    pub suspect_after: u32,
    /// Consecutive timeouts before Suspect → Dead.
    pub dead_after: u32,
    /// Probe Dead peers every this many rounds (they are skipped on all
    /// other rounds).
    pub probe_every: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            suspect_after: 2,
            dead_after: 6,
            probe_every: 4,
        }
    }
}

impl HealthConfig {
    /// Checks the threshold invariants.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < suspect_after ≤ dead_after` and
    /// `probe_every > 0`.
    pub fn validate(&self) {
        assert!(self.suspect_after > 0, "suspect threshold must be positive");
        assert!(
            self.suspect_after <= self.dead_after,
            "suspect threshold {} must not exceed dead threshold {}",
            self.suspect_after,
            self.dead_after
        );
        assert!(self.probe_every > 0, "probe period must be positive");
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct PeerRecord {
    consecutive_timeouts: u32,
}

/// Tracks reply timeouts per peer and derives [`PeerState`]s.
#[derive(Debug, Clone)]
pub struct HealthTracker {
    config: HealthConfig,
    /// Indexed by [`NodeId::index`], grown on demand; a peer beyond the
    /// end has the default record (Healthy).
    peers: Vec<PeerRecord>,
}

impl HealthTracker {
    /// An empty tracker (all peers implicitly Healthy).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid
    /// (see [`HealthConfig::validate`]).
    #[must_use]
    pub fn new(config: HealthConfig) -> Self {
        config.validate();
        HealthTracker {
            config,
            peers: Vec::new(),
        }
    }

    /// The current verdict on `peer`.
    #[must_use]
    pub fn state(&self, peer: NodeId) -> PeerState {
        let record = self.peers.get(peer.index());
        let timeouts = record.map_or(0, |r| r.consecutive_timeouts);
        if timeouts >= self.config.dead_after {
            PeerState::Dead
        } else if timeouts >= self.config.suspect_after {
            PeerState::Suspect
        } else {
            PeerState::Healthy
        }
    }

    /// Records an exhausted request (all retries timed out). Returns
    /// `true` when this tips the peer out of Healthy (its suspicion
    /// instant, for the `peers_suspected` counter).
    pub fn record_timeout(&mut self, peer: NodeId) -> bool {
        let before = self.state(peer);
        if self.peers.len() <= peer.index() {
            self.peers.resize(peer.index() + 1, PeerRecord::default());
        }
        self.peers[peer.index()].consecutive_timeouts += 1;
        before == PeerState::Healthy && self.state(peer) != PeerState::Healthy
    }

    /// Records a reply from `peer`. Returns `true` when the peer was
    /// Suspect or Dead and is hereby reinstated.
    pub fn record_reply(&mut self, peer: NodeId) -> bool {
        let reinstated = self.state(peer) != PeerState::Healthy;
        if let Some(record) = self.peers.get_mut(peer.index()) {
            *record = PeerRecord::default();
        }
        reinstated
    }

    /// Whether `peer` should be polled in round `round`: Healthy and
    /// Suspect peers always, Dead peers only on probe rounds.
    #[must_use]
    pub fn should_poll(&self, peer: NodeId, round: u64) -> bool {
        match self.state(peer) {
            PeerState::Healthy | PeerState::Suspect => true,
            PeerState::Dead => round.is_multiple_of(self.config.probe_every),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn tracker() -> HealthTracker {
        HealthTracker::new(HealthConfig {
            suspect_after: 2,
            dead_after: 4,
            probe_every: 3,
        })
    }

    #[test]
    fn unknown_peers_are_healthy() {
        let t = tracker();
        assert_eq!(t.state(node(0)), PeerState::Healthy);
        assert!(t.should_poll(node(0), 1));
    }

    #[test]
    fn consecutive_timeouts_escalate() {
        let mut t = tracker();
        assert!(!t.record_timeout(node(0))); // 1: still healthy
        assert_eq!(t.state(node(0)), PeerState::Healthy);
        assert!(t.record_timeout(node(0))); // 2: healthy -> suspect
        assert_eq!(t.state(node(0)), PeerState::Suspect);
        assert!(!t.record_timeout(node(0))); // 3: already suspect
        assert!(!t.record_timeout(node(0))); // 4: suspect -> dead
        assert_eq!(t.state(node(0)), PeerState::Dead);
    }

    #[test]
    fn reply_reinstates_and_resets_the_count() {
        let mut t = tracker();
        assert!(!t.record_reply(node(0)), "healthy peers aren't reinstated");
        for _ in 0..4 {
            t.record_timeout(node(0));
        }
        assert_eq!(t.state(node(0)), PeerState::Dead);
        assert!(t.record_reply(node(0)));
        assert_eq!(t.state(node(0)), PeerState::Healthy);
        // The count restarted: one new timeout doesn't re-suspect.
        assert!(!t.record_timeout(node(0)));
        assert_eq!(t.state(node(0)), PeerState::Healthy);
    }

    #[test]
    fn dead_peers_are_polled_only_on_probe_rounds() {
        let mut t = tracker();
        for _ in 0..4 {
            t.record_timeout(node(1));
        }
        assert_eq!(t.state(node(1)), PeerState::Dead);
        assert!(!t.should_poll(node(1), 1));
        assert!(!t.should_poll(node(1), 2));
        assert!(t.should_poll(node(1), 3));
        assert!(!t.should_poll(node(1), 4));
        assert!(t.should_poll(node(1), 6));
        // Suspect peers are still polled every round.
        t.record_reply(node(1));
        t.record_timeout(node(1));
        t.record_timeout(node(1));
        assert_eq!(t.state(node(1)), PeerState::Suspect);
        assert!(t.should_poll(node(1), 1));
    }

    #[test]
    fn peers_are_tracked_independently() {
        let mut t = tracker();
        for _ in 0..4 {
            t.record_timeout(node(0));
        }
        assert_eq!(t.state(node(0)), PeerState::Dead);
        assert_eq!(t.state(node(1)), PeerState::Healthy);
    }

    /// The dense table against the `HashMap` it replaced, on peer
    /// indices that are sparse and far apart.
    #[test]
    fn matches_a_hash_map_model() {
        tempo_check::check("health_matches_a_hash_map_model", 128, |g| {
            let ids = g.vec(1..=6, |g| g.int(0usize..5_000));
            let config = HealthConfig {
                suspect_after: g.int(1u32..4),
                dead_after: g.int(4u32..8),
                probe_every: g.int(1u64..5),
            };
            let mut tracker = HealthTracker::new(config);
            let mut model: std::collections::HashMap<usize, u32> = Default::default();
            let verdict = |misses: u32| match misses {
                m if m >= config.dead_after => PeerState::Dead,
                m if m >= config.suspect_after => PeerState::Suspect,
                _ => PeerState::Healthy,
            };
            for _ in 0..g.int(0usize..200) {
                let id = *g.pick(&ids);
                let before = verdict(model.get(&id).copied().unwrap_or(0));
                match g.int(0u8..4) {
                    0 | 1 => {
                        *model.entry(id).or_default() += 1;
                        let tipped = before == PeerState::Healthy
                            && verdict(model[&id]) != PeerState::Healthy;
                        assert_eq!(tracker.record_timeout(node(id)), tipped);
                    }
                    2 => {
                        model.insert(id, 0);
                        let reinstated = before != PeerState::Healthy;
                        assert_eq!(tracker.record_reply(node(id)), reinstated);
                    }
                    _ => {
                        let round = g.int(0u64..40);
                        let poll =
                            before != PeerState::Dead || round.is_multiple_of(config.probe_every);
                        assert_eq!(tracker.should_poll(node(id), round), poll);
                    }
                }
                for &id in &ids {
                    let misses = model.get(&id).copied().unwrap_or(0);
                    assert_eq!(tracker.state(node(id)), verdict(misses));
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "must not exceed dead threshold")]
    fn inverted_thresholds_rejected() {
        let _ = HealthTracker::new(HealthConfig {
            suspect_after: 5,
            dead_after: 2,
            probe_every: 1,
        });
    }

    #[test]
    #[should_panic(expected = "probe period must be positive")]
    fn zero_probe_period_rejected() {
        let _ = HealthTracker::new(HealthConfig {
            suspect_after: 1,
            dead_after: 2,
            probe_every: 0,
        });
    }

    #[test]
    fn default_config_validates() {
        HealthConfig::default().validate();
        let mut t = HealthTracker::new(HealthConfig::default());
        // The tracker runs on the default thresholds: the second missed
        // deadline makes a peer suspect.
        let peer = NodeId::new(1);
        assert!(!t.record_timeout(peer));
        assert!(t.record_timeout(peer));
        assert_eq!(t.state(peer), PeerState::Suspect);
    }
}
