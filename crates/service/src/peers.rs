//! What a server knows about each neighbour, in one table.
//!
//! Per neighbour the paper's server needs only a few facts, and a
//! [`PeerTable`] keeps them all:
//!
//! * **health** — a peer whose requests keep timing out (measured on
//!   the server's own clock) moves Healthy → Suspect → Dead on
//!   consecutive misses, and any reply — or a successful periodic probe
//!   — reinstates it. Round planning skips Dead peers except on probe
//!   rounds, so a crashed or partitioned peer stops being asked every
//!   round while a recovered one is found again (the paper's §1.1
//!   churn, driven by observation instead of scripted joins/leaves);
//! * **the last claim** — the freshest `⟨C_j, E_j⟩` processed from the
//!   peer, with the own-clock reading at receipt: the record the §5
//!   screen ages and checks a recovery reply (and a corrupted server's
//!   own adoption) against;
//! * **the rate** — §5 proposes applying the interval machinery to
//!   rates ("algorithms MM and IM can then be applied to maintain a
//!   consonant set of δ_i, just as they were previously used to
//!   maintain a consistent set of t_i") to diagnose *which* server
//!   breaks an inconsistent service. Under
//!   [`ScreeningPolicy::Consonance`] the table keeps paired clock
//!   readings, estimates each neighbour's rate of separation from them,
//!   and flags neighbours whose rate the claimed drift bounds cannot
//!   explain (*dissonant* neighbours). The server screens those out of
//!   its rounds, closing the §4 loophole where a peer drifting just
//!   past its claimed bound spends part of every sawtooth
//!   consistent-but-incorrect and drags the intersection off true time.
//!
//! This module alone decides how a peer is found: by [`NodeId::index`],
//! storage grown on first contact; a peer without a record is Healthy,
//! with nothing remembered.

use tempo_core::consonance::{are_consonant, RateObservation};
use tempo_core::{DriftRate, Duration, TimeEstimate, Timestamp};
use tempo_net::NodeId;
use tempo_telemetry::HealthState;

use crate::config::{ScreeningPolicy, ServerConfig};

/// Paired readings kept per neighbour for the rate screen (oldest
/// evicted).
const RATE_WINDOW: usize = 8;
const _: () = assert!(RATE_WINDOW >= 2, "a rate needs two readings");

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

/// One paired reading: our clock at receipt, the neighbour's reported
/// clock.
#[derive(Debug, Clone, Copy)]
struct PairedSample {
    own: Timestamp,
    peer: Timestamp,
}

/// What a server knows about one peer, rate readings apart: 32 bytes,
/// where an `Option` claim (`f64`s leave its tag no niche) would be 40.
#[derive(Debug, Clone, Copy, Default)]
struct PeerRecord {
    /// Consecutive exhausted requests, the health verdict's input.
    timeouts: u32,
    has_claim: bool,
    /// If `has_claim`, the freshest processed claim and our clock
    /// reading at its receipt.
    claim: (TimeEstimate, Timestamp),
}
const _: () = assert!(std::mem::size_of::<PeerRecord>() == 32);

/// Everything a server knows about its peers (see the module docs).
#[derive(Debug, Clone)]
pub struct PeerTable {
    health: HealthConfig,
    screening: ScreeningPolicy,
    /// Own-clock span the readings must cover for a rate estimate: the
    /// resync period, so rates resolve after roughly two rounds.
    min_baseline: Duration,
    /// Indexed by [`NodeId::index`], grown on first contact.
    peers: Vec<PeerRecord>,
    /// Each peer's last [`RATE_WINDOW`] paired readings, by the same
    /// index, under screening only: a `Vec` in every record would make
    /// each 56 bytes, not 32, in a table grown to the highest id heard.
    readings: Vec<Vec<PairedSample>>,
}

impl PeerTable {
    /// An empty table (every peer implicitly Healthy, nothing
    /// remembered) on `config`'s health thresholds, screening policy and
    /// resync period.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`ServerConfig::validate`]).
    #[must_use]
    pub fn new(config: &ServerConfig) -> Self {
        config.validate();
        PeerTable {
            health: config.health,
            screening: config.screening,
            min_baseline: config.resync_period,
            peers: Vec::new(),
            readings: Vec::new(),
        }
    }

    fn record_mut(&mut self, peer: NodeId) -> &mut PeerRecord {
        if self.peers.len() <= peer.index() {
            self.peers
                .resize_with(peer.index() + 1, PeerRecord::default);
        }
        &mut self.peers[peer.index()]
    }

    /// The current verdict on `peer`.
    #[must_use]
    pub fn state(&self, peer: NodeId) -> PeerState {
        let timeouts = self.peers.get(peer.index()).map_or(0, |r| r.timeouts);
        if timeouts >= self.health.dead_after {
            PeerState::Dead
        } else if timeouts >= self.health.suspect_after {
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
        self.record_mut(peer).timeouts += 1;
        before == PeerState::Healthy && self.state(peer) != PeerState::Healthy
    }

    /// Records a reply from `peer`. Returns `true` when the peer was
    /// Suspect or Dead and is hereby reinstated.
    pub fn record_reply(&mut self, peer: NodeId) -> bool {
        let reinstated = self.state(peer) != PeerState::Healthy;
        if let Some(record) = self.peers.get_mut(peer.index()) {
            record.timeouts = 0;
        }
        reinstated
    }

    /// Whether `peer` should be polled in round `round`: Healthy and
    /// Suspect peers always, Dead peers only on probe rounds.
    #[must_use]
    pub fn should_poll(&self, peer: NodeId, round: u64) -> bool {
        match self.state(peer) {
            PeerState::Healthy | PeerState::Suspect => true,
            PeerState::Dead => round.is_multiple_of(self.health.probe_every),
        }
    }

    /// Remembers `claim` as `peer`'s freshest, heard when our clock read
    /// `seen_clock`.
    pub(crate) fn remember(&mut self, peer: NodeId, claim: TimeEstimate, seen_clock: Timestamp) {
        let record = self.record_mut(peer);
        record.has_claim = true;
        record.claim = (claim, seen_clock);
    }

    /// `peer`'s remembered claim and our clock reading at its receipt.
    pub(crate) fn claim(&self, peer: NodeId) -> Option<(TimeEstimate, Timestamp)> {
        let record = self.peers.get(peer.index())?;
        record.has_claim.then_some(record.claim)
    }

    /// Every remembered claim, by peer.
    pub(crate) fn claims(&self) -> impl Iterator<Item = (NodeId, (TimeEstimate, Timestamp))> + '_ {
        self.peers
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.has_claim.then_some((NodeId::new(i), r.claim)))
    }

    /// Forgets every claim; verdicts and rate readings stay.
    pub(crate) fn forget_claims(&mut self) {
        for record in &mut self.peers {
            record.has_claim = false;
        }
    }

    /// Records a paired reading for `peer` — our clock at receipt and
    /// the clock it reported — when screening is on; nothing otherwise.
    pub(crate) fn record_reading(
        &mut self,
        peer: NodeId,
        own_clock: Timestamp,
        peer_clock: Timestamp,
    ) {
        if self.screening == ScreeningPolicy::Off {
            return;
        }
        if self.readings.len() <= peer.index() {
            self.readings.resize_with(peer.index() + 1, Vec::new);
        }
        let readings = &mut self.readings[peer.index()];
        readings.push(PairedSample {
            own: own_clock,
            peer: peer_clock,
        });
        if readings.len() > RATE_WINDOW {
            readings.remove(0);
        }
    }

    /// The estimated separation rate `d/dt (C_peer − C_own)` for
    /// `peer`, with its uncertainty, or `None` while the baseline is
    /// too short (or screening is off).
    ///
    /// The rate is measured against our own clock, which is accurate to
    /// within our own drift bound — that bias is folded into the
    /// consonance test, not the estimate.
    fn estimate(&self, peer: NodeId) -> Option<RateObservation> {
        let ScreeningPolicy::Consonance { sample_noise, .. } = self.screening else {
            return None;
        };
        let readings = self.readings.get(peer.index())?;
        let (first, last) = (readings.first()?, readings.last()?);
        let baseline = last.own - first.own;
        if baseline < self.min_baseline {
            return None;
        }
        let separation = (last.peer - first.peer) - (last.own - first.own);
        let rate = separation.as_secs() / baseline.as_secs();
        // Each endpoint reading is off by up to the sample noise.
        let uncertainty = 2.0 * sample_noise.as_secs() / baseline.as_secs();
        Some(RateObservation::new(rate, uncertainty))
    }

    /// Whether `peer` is *dissonant*: its estimated separation rate
    /// exceeds what our bound `own_bound` and the screening policy's
    /// peer bound (plus measurement uncertainty) allow. `None` while no
    /// estimate is available.
    pub(crate) fn is_dissonant(&self, peer: NodeId, own_bound: DriftRate) -> Option<bool> {
        let ScreeningPolicy::Consonance { peer_bound, .. } = self.screening else {
            return None;
        };
        let obs = self.estimate(peer)?;
        // Shrink the observed magnitude by the uncertainty before the
        // consonance test: only flag when even the most charitable
        // reading is out of bounds.
        let magnitude = (obs.rate.abs() - obs.uncertainty).max(0.0);
        Some(!are_consonant(
            magnitude.copysign(obs.rate),
            own_bound,
            peer_bound,
        ))
    }

    /// Translates every own-clock mark — claim receipts and rate
    /// readings alike — by `delta`, after our clock was *stepped* by
    /// that much. Claims age, and rates are measured, against our own
    /// clock: without this a step would age every claim wrongly and
    /// masquerade as an instantaneous change in every neighbour's rate,
    /// flagging a consonant neighbour dissonant (or masking a dissonant
    /// one) for a whole window.
    pub(crate) fn rebase(&mut self, delta: Duration) {
        for record in self.peers.iter_mut().filter(|r| r.has_claim) {
            record.claim.1 += delta;
        }
        for reading in self.readings.iter_mut().flatten() {
            reading.own += delta;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Strategy;

    fn node(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn dur(s: f64) -> Duration {
        Duration::from_secs(s)
    }

    fn config() -> ServerConfig {
        ServerConfig::new(Strategy::Im, DriftRate::new(1e-4))
    }

    fn with_health(health: HealthConfig) -> PeerTable {
        PeerTable::new(&config().health(health))
    }

    fn tracker() -> PeerTable {
        with_health(HealthConfig {
            suspect_after: 2,
            dead_after: 4,
            probe_every: 3,
        })
    }

    /// A screening table: a 10 s baseline, readings noisy by `noise`,
    /// peers bound by 1e-4.
    fn screening(noise: f64) -> PeerTable {
        PeerTable::new(
            &config()
                .resync_period(dur(10.0))
                .screening(ScreeningPolicy::Consonance {
                    peer_bound: DriftRate::new(1e-4),
                    sample_noise: dur(noise),
                }),
        )
    }

    fn monitor() -> PeerTable {
        screening(0.01)
    }

    // ----- health -----

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
            let mut tracker = with_health(config);
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
        let _ = with_health(HealthConfig {
            suspect_after: 5,
            dead_after: 2,
            probe_every: 1,
        });
    }

    #[test]
    #[should_panic(expected = "probe period must be positive")]
    fn zero_probe_period_rejected() {
        let _ = with_health(HealthConfig {
            suspect_after: 1,
            dead_after: 2,
            probe_every: 0,
        });
    }

    #[test]
    #[should_panic(expected = "resync period must be positive")]
    fn zero_baseline_rejected() {
        let _ = PeerTable::new(&config().resync_period(Duration::ZERO));
    }

    #[test]
    fn default_config_validates() {
        HealthConfig::default().validate();
        let mut t = PeerTable::new(&config());
        // The table runs on the default thresholds: the second missed
        // deadline makes a peer suspect.
        let peer = NodeId::new(1);
        assert!(!t.record_timeout(peer));
        assert!(t.record_timeout(peer));
        assert_eq!(t.state(peer), PeerState::Suspect);
    }

    // ----- claims -----

    #[test]
    fn a_record_keeps_its_parts_apart() {
        let mut t = monitor();
        let peer = node(3);
        let said = TimeEstimate::new(ts(5.0), dur(0.1));
        t.remember(peer, said, ts(4.0));
        t.record_reading(peer, ts(0.0), ts(0.0));
        t.record_reading(peer, ts(20.0), ts(20.0 * 1.05));
        for _ in 0..4 {
            t.record_timeout(peer);
        }
        // A reply reinstates the peer and keeps its claim and readings.
        assert!(t.record_reply(peer));
        assert_eq!(t.claim(peer), Some((said, ts(4.0))));
        assert_eq!(t.is_dissonant(peer, DriftRate::new(1e-4)), Some(true));
        // Forgetting claims keeps the verdict and the readings.
        t.record_timeout(peer);
        t.record_timeout(peer);
        t.forget_claims();
        assert_eq!(t.claim(peer), None);
        assert_eq!(t.claims().count(), 0);
        assert_eq!(t.state(peer), PeerState::Suspect);
        assert_eq!(t.is_dissonant(peer, DriftRate::new(1e-4)), Some(true));
    }

    #[test]
    fn claims_walk_every_remembered_peer_in_index_order() {
        let mut t = tracker();
        assert_eq!(t.claims().count(), 0);
        let said = |s| TimeEstimate::new(ts(s), dur(0.1));
        t.remember(node(7), said(7.0), ts(1.0));
        t.remember(node(2), said(2.0), ts(1.0));
        t.record_timeout(node(4));
        t.remember(node(2), said(2.5), ts(2.0));
        let walked: Vec<_> = t.claims().collect();
        assert_eq!(
            walked,
            vec![
                (node(2), (said(2.5), ts(2.0))),
                (node(7), (said(7.0), ts(1.0)))
            ]
        );
        assert_eq!(t.claim(node(4)), None);
        assert_eq!(t.claim(node(70)), None);
    }

    // ----- rates -----

    #[test]
    fn no_estimate_until_baseline() {
        let mut m = monitor();
        let peer = NodeId::new(1);
        assert!(m.estimate(peer).is_none());
        m.record_reading(peer, ts(0.0), ts(0.0));
        m.record_reading(peer, ts(5.0), ts(5.0));
        assert!(m.estimate(peer).is_none(), "5 s < 10 s baseline");
        m.record_reading(peer, ts(12.0), ts(12.0));
        assert!(m.estimate(peer).is_some());
    }

    #[test]
    fn no_readings_without_screening() {
        let mut t = tracker();
        let peer = NodeId::new(1);
        for k in 0..4 {
            let t_k = f64::from(k) * 20.0;
            t.record_reading(peer, ts(t_k), ts(t_k * 1.05));
        }
        assert!(t.estimate(peer).is_none());
        assert_eq!(t.is_dissonant(peer, DriftRate::new(1e-4)), None);
        assert!(t.readings.is_empty(), "nothing stored, nothing grown");
    }

    #[test]
    fn estimates_a_fast_peer() {
        let mut m = monitor();
        let peer = NodeId::new(2);
        // Peer gains 1 % per own-clock second.
        for k in 0..5 {
            let t = f64::from(k) * 10.0;
            m.record_reading(peer, ts(t), ts(t * 1.01));
        }
        let obs = m.estimate(peer).unwrap();
        assert!((obs.rate - 0.01).abs() < 1e-9, "rate {}", obs.rate);
        // Uncertainty: 2·0.01 / 40 = 5e-4.
        assert!((obs.uncertainty - 5e-4).abs() < 1e-9);
    }

    #[test]
    fn window_evicts_oldest() {
        let mut m = screening(0.0);
        let peer = NodeId::new(0);
        m.record_reading(peer, ts(0.0), ts(100.0)); // will be evicted
        for k in 1..=RATE_WINDOW {
            let t = k as f64 * 10.0;
            m.record_reading(peer, ts(t), ts(t));
        }
        let obs = m.estimate(peer).unwrap();
        // Rate computed over the retained samples only.
        assert!(obs.rate.abs() < 1e-12);
    }

    #[test]
    fn dissonance_flags_the_racer_only() {
        let mut m = monitor();
        let honest = NodeId::new(1);
        let racer = NodeId::new(2);
        for k in 0..4 {
            let t = f64::from(k) * 20.0;
            m.record_reading(honest, ts(t), ts(t * (1.0 + 5e-6)));
            m.record_reading(racer, ts(t), ts(t * 1.05));
        }
        let bound = DriftRate::new(1e-4);
        assert_eq!(m.is_dissonant(honest, bound), Some(false));
        assert_eq!(m.is_dissonant(racer, bound), Some(true));
    }

    #[test]
    fn dissonance_is_charitable_under_uncertainty() {
        // A peer slightly past the bound, but within measurement noise:
        // not flagged.
        let mut m = screening(0.05);
        let peer = NodeId::new(3);
        for k in 0..3 {
            let t = f64::from(k) * 10.0;
            m.record_reading(peer, ts(t), ts(t * (1.0 + 3e-4)));
        }
        let bound = DriftRate::new(1e-4);
        // Uncertainty = 2·0.05/20 = 5e-3 ≫ the 1e-4 excess.
        assert_eq!(m.is_dissonant(peer, bound), Some(false));
    }

    #[test]
    fn negative_rate_peer() {
        let mut m = monitor();
        let peer = NodeId::new(9);
        for k in 0..3 {
            let t = f64::from(k) * 10.0;
            m.record_reading(peer, ts(t), ts(t * 0.98)); // 2 % slow
        }
        let obs = m.estimate(peer).unwrap();
        assert!((obs.rate + 0.02).abs() < 1e-9);
        let bound = DriftRate::new(1e-4);
        assert_eq!(m.is_dissonant(peer, bound), Some(true));
    }
}
