//! Protocol-level consonance: tracking neighbour clock *rates*.
//!
//! §5 of the paper proposes applying the interval machinery to rates —
//! "algorithms MM and IM can then be applied to maintain a consonant
//! set of δ_i, just as they were previously used to maintain a
//! consistent set of t_i" — as the way to diagnose *which* server
//! breaks an inconsistent service. [`RateMonitor`] implements the
//! measurement side: from the stream of `⟨C_j, E_j⟩` replies a server
//! already receives, it estimates each neighbour's rate of separation
//! and flags neighbours whose rate cannot be explained by the claimed
//! drift bounds (*dissonant* neighbours).
//!
//! The server can then *screen* dissonant neighbours out of its
//! synchronization rounds — which closes the §4 loophole where a peer
//! drifting just past its claimed bound spends part of every sawtooth
//! consistent-but-incorrect and quietly drags the intersection off
//! true time.

use tempo_core::consonance::{are_consonant, RateObservation};
use tempo_core::{DriftRate, Duration, Timestamp};
use tempo_net::NodeId;

/// One paired reading: our clock at receipt, the neighbour's reported
/// clock.
#[derive(Debug, Clone, Copy)]
struct PairedSample {
    own: Timestamp,
    peer: Timestamp,
}

/// Per-neighbour rate estimation from paired clock readings.
///
/// Samples are noisy by up to the round-trip `ξ` each, so a rate
/// estimated over a baseline `B` carries an uncertainty of roughly
/// `2ξ/B`; the monitor refuses to estimate until the baseline is long
/// enough for the claimed bounds to be resolvable.
#[derive(Debug, Clone)]
pub struct RateMonitor {
    window: usize,
    min_baseline: Duration,
    sample_noise: Duration,
    /// Samples per neighbour, by [`NodeId::index`], grown on first record.
    samples: Vec<Vec<PairedSample>>,
}

impl RateMonitor {
    /// Creates a monitor.
    ///
    /// * `window` — paired samples kept per neighbour (oldest evicted),
    /// * `min_baseline` — minimum own-clock span between the first and
    ///   last retained sample before an estimate is produced,
    /// * `sample_noise` — worst-case error of a single paired reading
    ///   (the round-trip bound `ξ` is the honest choice).
    ///
    /// # Panics
    ///
    /// Panics if `window < 2`, or a duration is non-positive.
    #[must_use]
    pub fn new(window: usize, min_baseline: Duration, sample_noise: Duration) -> Self {
        assert!(window >= 2, "rate estimation needs at least two samples");
        assert!(
            min_baseline.as_secs() > 0.0,
            "minimum baseline must be positive"
        );
        assert!(
            !sample_noise.is_negative(),
            "sample noise must be non-negative"
        );
        RateMonitor {
            window,
            min_baseline,
            sample_noise,
            samples: Vec::new(),
        }
    }

    /// Records a paired reading for `peer`.
    pub fn record(&mut self, peer: NodeId, own_clock: Timestamp, peer_clock: Timestamp) {
        if self.samples.len() <= peer.index() {
            self.samples.resize_with(peer.index() + 1, Vec::new);
        }
        let entry = &mut self.samples[peer.index()];
        entry.push(PairedSample {
            own: own_clock,
            peer: peer_clock,
        });
        if entry.len() > self.window {
            entry.remove(0);
        }
    }

    /// Forgets everything about `peer` (e.g. after it leaves).
    pub fn forget(&mut self, peer: NodeId) {
        if let Some(samples) = self.samples.get_mut(peer.index()) {
            samples.clear();
        }
    }

    /// Translates every retained own-clock reading by `delta`.
    ///
    /// Rates are measured against our own clock, so when that clock is
    /// *stepped* (an adoption applied in step mode) the retained
    /// readings must move with it — otherwise the step masquerades as
    /// an instantaneous change in every neighbour's rate, and a
    /// consonant neighbour can be flagged dissonant (or a dissonant one
    /// masked) for a whole window.
    pub fn rebase(&mut self, delta: Duration) {
        for samples in &mut self.samples {
            for s in samples.iter_mut() {
                s.own += delta;
            }
        }
    }

    /// The estimated separation rate `d/dt (C_peer − C_own)` for
    /// `peer`, with its uncertainty, or `None` while the baseline is
    /// too short.
    ///
    /// The rate is measured against our own clock, which is accurate to
    /// within our own drift bound — that bias is folded into the
    /// consonance test, not the estimate.
    #[must_use]
    pub fn estimate(&self, peer: NodeId) -> Option<RateObservation> {
        let samples = self.samples.get(peer.index())?;
        let (first, last) = (samples.first()?, samples.last()?);
        let baseline = last.own - first.own;
        if baseline < self.min_baseline {
            return None;
        }
        let separation = (last.peer - first.peer) - (last.own - first.own);
        let rate = separation.as_secs() / baseline.as_secs();
        // Each endpoint reading is off by up to the sample noise.
        let uncertainty = 2.0 * self.sample_noise.as_secs() / baseline.as_secs();
        Some(RateObservation::new(rate, uncertainty))
    }

    /// Whether `peer` is *dissonant*: its estimated separation rate
    /// exceeds what the two claimed bounds (plus measurement
    /// uncertainty) allow. `None` while no estimate is available.
    #[must_use]
    pub fn is_dissonant(
        &self,
        peer: NodeId,
        own_bound: DriftRate,
        peer_bound: DriftRate,
    ) -> Option<bool> {
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

    /// Number of neighbours currently tracked.
    #[must_use]
    pub fn tracked(&self) -> usize {
        self.samples.iter().filter(|s| !s.is_empty()).count()
    }
}

/// Request-rate admission for the serving front: a token bucket.
///
/// [`RateMonitor`] polices the *clock* rates of neighbours; this type
/// polices the *request* rate of clients, the optional admission tier
/// in front of the lock-free read path. A bucket holds at most `burst`
/// tokens and refills at `rate` tokens per second of serving-front
/// real time; each admitted request spends one. A sustained overload
/// is shaved to `rate` requests/s, while bursts up to `burst` pass
/// undelayed — and because refill accrues continuously, the tier
/// *recovers* after a rejected burst as soon as the offered load drops
/// back under the sustained rate.
///
/// One instance is **not** thread-safe (`admit` takes `&mut self`):
/// a multi-threaded front gives each thread its own bucket with a
/// `1/N` share of the global rate, keeping admission off the shared
/// path entirely.
#[derive(Debug, Clone)]
pub struct AdmissionControl {
    /// Sustained admission rate, tokens (requests) per second.
    rate: f64,
    /// Bucket capacity: the largest undelayed burst.
    burst: f64,
    /// Tokens currently available.
    tokens: f64,
    /// Real-time axis value of the last refill.
    last: Timestamp,
    admitted: u64,
    rejected: u64,
}

impl AdmissionControl {
    /// Creates a bucket that admits `rate` requests/s sustained and
    /// bursts of up to `burst` requests. The bucket starts full.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is positive and finite and `burst >= 1`
    /// (a bucket that cannot hold one token admits nothing).
    #[must_use]
    pub fn new(rate: f64, burst: f64) -> Self {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "admission rate must be positive and finite"
        );
        assert!(
            burst >= 1.0 && burst.is_finite(),
            "burst capacity must hold at least one request"
        );
        AdmissionControl {
            rate,
            burst,
            tokens: burst,
            last: Timestamp::from_secs(0.0),
            admitted: 0,
            rejected: 0,
        }
    }

    /// Decides one request observed at serving-front time `now`:
    /// `true` admits (spending a token), `false` rejects.
    ///
    /// Time running backwards (possible across threads observing a
    /// shared clock at slightly different instants) refills nothing
    /// rather than draining the bucket.
    pub fn admit(&mut self, now: Timestamp) -> bool {
        let elapsed = (now - self.last).max(Duration::ZERO);
        self.last = self.last.max(now);
        self.tokens = (self.tokens + elapsed.as_secs() * self.rate).min(self.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            self.admitted += 1;
            true
        } else {
            self.rejected += 1;
            false
        }
    }

    /// Requests admitted so far.
    #[must_use]
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Requests rejected so far.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn dur(s: f64) -> Duration {
        Duration::from_secs(s)
    }

    fn monitor() -> RateMonitor {
        RateMonitor::new(8, dur(10.0), dur(0.01))
    }

    #[test]
    fn no_estimate_until_baseline() {
        let mut m = monitor();
        let peer = NodeId::new(1);
        assert!(m.estimate(peer).is_none());
        m.record(peer, ts(0.0), ts(0.0));
        m.record(peer, ts(5.0), ts(5.0));
        assert!(m.estimate(peer).is_none(), "5 s < 10 s baseline");
        m.record(peer, ts(12.0), ts(12.0));
        assert!(m.estimate(peer).is_some());
        assert_eq!(m.tracked(), 1);
    }

    #[test]
    fn estimates_a_fast_peer() {
        let mut m = monitor();
        let peer = NodeId::new(2);
        // Peer gains 1 % per own-clock second.
        for k in 0..5 {
            let t = f64::from(k) * 10.0;
            m.record(peer, ts(t), ts(t * 1.01));
        }
        let obs = m.estimate(peer).unwrap();
        assert!((obs.rate - 0.01).abs() < 1e-9, "rate {}", obs.rate);
        // Uncertainty: 2·0.01 / 40 = 5e-4.
        assert!((obs.uncertainty - 5e-4).abs() < 1e-9);
    }

    #[test]
    fn window_evicts_oldest() {
        let mut m = RateMonitor::new(2, dur(1.0), dur(0.0));
        let peer = NodeId::new(0);
        m.record(peer, ts(0.0), ts(100.0)); // will be evicted
        m.record(peer, ts(10.0), ts(10.0));
        m.record(peer, ts(20.0), ts(20.0));
        let obs = m.estimate(peer).unwrap();
        // Rate computed over the two retained samples only.
        assert!(obs.rate.abs() < 1e-12);
    }

    #[test]
    fn dissonance_flags_the_racer_only() {
        let mut m = monitor();
        let honest = NodeId::new(1);
        let racer = NodeId::new(2);
        for k in 0..4 {
            let t = f64::from(k) * 20.0;
            m.record(honest, ts(t), ts(t * (1.0 + 5e-6)));
            m.record(racer, ts(t), ts(t * 1.05));
        }
        let bound = DriftRate::new(1e-4);
        assert_eq!(m.is_dissonant(honest, bound, bound), Some(false));
        assert_eq!(m.is_dissonant(racer, bound, bound), Some(true));
    }

    #[test]
    fn dissonance_is_charitable_under_uncertainty() {
        // A peer slightly past the bound, but within measurement noise:
        // not flagged.
        let mut m = RateMonitor::new(4, dur(10.0), dur(0.05));
        let peer = NodeId::new(3);
        for k in 0..3 {
            let t = f64::from(k) * 10.0;
            m.record(peer, ts(t), ts(t * (1.0 + 3e-4)));
        }
        let bound = DriftRate::new(1e-4);
        // Uncertainty = 2·0.05/20 = 5e-3 ≫ the 1e-4 excess.
        assert_eq!(m.is_dissonant(peer, bound, bound), Some(false));
    }

    #[test]
    fn forget_drops_history() {
        let mut m = monitor();
        let peer = NodeId::new(1);
        m.record(peer, ts(0.0), ts(0.0));
        m.record(peer, ts(20.0), ts(20.0));
        assert!(m.estimate(peer).is_some());
        m.forget(peer);
        assert!(m.estimate(peer).is_none());
        assert_eq!(m.tracked(), 0);
    }

    #[test]
    #[should_panic(expected = "at least two samples")]
    fn tiny_window_rejected() {
        let _ = RateMonitor::new(1, dur(1.0), dur(0.0));
    }

    #[test]
    #[should_panic(expected = "baseline must be positive")]
    fn zero_baseline_rejected() {
        let _ = RateMonitor::new(2, Duration::ZERO, dur(0.0));
    }

    // ----- AdmissionControl: burst-load decision patterns -----

    /// Offers `per_sec` evenly-spaced requests during second `sec`,
    /// returning how many were admitted.
    fn offer_second(a: &mut AdmissionControl, sec: f64, per_sec: u32) -> u32 {
        let mut admitted = 0;
        for k in 0..per_sec {
            let now = ts(sec + f64::from(k) / f64::from(per_sec));
            if a.admit(now) {
                admitted += 1;
            }
        }
        admitted
    }

    #[test]
    fn step_load_is_shaved_to_the_sustained_rate() {
        // 100 req/s sustained, burst of 10; offered a step to 250 req/s.
        let mut a = AdmissionControl::new(100.0, 10.0);
        let first = offer_second(&mut a, 1.0, 250);
        // Steady state: the rate plus the initial burst allowance.
        assert!(
            (100..=115).contains(&first),
            "step second admitted {first}, want ≈ rate + burst"
        );
        // Later seconds have no stored burst left: rate only.
        let later = offer_second(&mut a, 2.0, 250);
        assert!(
            (95..=105).contains(&later),
            "sustained second admitted {later}, want ≈ rate"
        );
        assert_eq!(a.admitted() + a.rejected(), 500);
    }

    #[test]
    fn under_rate_traffic_is_never_rejected() {
        let mut a = AdmissionControl::new(100.0, 10.0);
        for sec in 1..=5 {
            let got = offer_second(&mut a, f64::from(sec), 80);
            assert_eq!(got, 80, "80 req/s under a 100 req/s bucket");
        }
        assert_eq!(a.rejected(), 0);
    }

    #[test]
    fn ramp_starts_rejecting_at_the_rate_knee() {
        // Offered load ramps 50 → 250 req/s across five seconds; the
        // admitted curve must flatten at the 100 req/s knee.
        let mut a = AdmissionControl::new(100.0, 5.0);
        let mut admitted_per_sec = Vec::new();
        for (sec, offered) in [50u32, 100, 150, 200, 250].into_iter().enumerate() {
            admitted_per_sec.push(offer_second(&mut a, 1.0 + sec as f64, offered));
        }
        assert_eq!(admitted_per_sec[0], 50, "below the knee nothing drops");
        for (i, &got) in admitted_per_sec.iter().enumerate().skip(1) {
            assert!(
                (95..=110).contains(&got),
                "second {i}: admitted {got}, want the flat knee ≈ 100"
            );
        }
    }

    #[test]
    fn square_wave_recovers_during_every_off_phase() {
        // On/off square wave: 300 req/s for a second, silence for a
        // second. Every on-phase gets the same allowance — the off
        // phase fully refills the burst.
        let mut a = AdmissionControl::new(100.0, 20.0);
        let mut on_phases = Vec::new();
        for cycle in 0..3 {
            let start = f64::from(cycle) * 2.0 + 1.0;
            on_phases.push(offer_second(&mut a, start, 300));
            // Off phase: no requests at all between start+1 and start+2.
        }
        for (i, &got) in on_phases.iter().enumerate() {
            assert!(
                (110..=125).contains(&got),
                "cycle {i}: admitted {got}, want ≈ rate + refilled burst"
            );
        }
        // Rejections happened (the wave tops the rate)…
        assert!(a.rejected() > 0);
        // …but each cycle's allowance never degraded: full recovery.
        assert_eq!(on_phases[0], on_phases[2]);
    }

    #[test]
    fn recovery_after_a_rejected_burst() {
        let mut a = AdmissionControl::new(10.0, 5.0);
        // A 50-request burst at one instant: 5 pass (the bucket), the
        // rest are rejected.
        let mut burst_admitted = 0;
        for _ in 0..50 {
            if a.admit(ts(1.0)) {
                burst_admitted += 1;
            }
        }
        assert_eq!(burst_admitted, 5);
        assert_eq!(a.rejected(), 45);
        // Immediately after, still empty.
        assert!(!a.admit(ts(1.0)));
        // One second later the sustained rate has refilled 10 tokens
        // (capped at the 5-token burst): admission works again.
        let mut later_admitted = 0;
        for _ in 0..10 {
            if a.admit(ts(2.0)) {
                later_admitted += 1;
            }
        }
        assert_eq!(later_admitted, 5, "refill capped at burst capacity");
    }

    #[test]
    fn time_going_backwards_refills_nothing() {
        let mut a = AdmissionControl::new(10.0, 2.0);
        assert!(a.admit(ts(5.0)));
        assert!(a.admit(ts(5.0)));
        // An earlier-timestamped request (cross-thread clock skew) must
        // not mint tokens — the bucket is empty either way.
        assert!(!a.admit(ts(1.0)));
        assert!(!a.admit(ts(5.0)));
    }

    #[test]
    #[should_panic(expected = "admission rate must be positive")]
    fn zero_admission_rate_rejected() {
        let _ = AdmissionControl::new(0.0, 5.0);
    }

    #[test]
    #[should_panic(expected = "burst capacity must hold at least one")]
    fn sub_one_burst_rejected() {
        let _ = AdmissionControl::new(10.0, 0.5);
    }

    #[test]
    fn negative_rate_peer() {
        let mut m = monitor();
        let peer = NodeId::new(9);
        for k in 0..3 {
            let t = f64::from(k) * 10.0;
            m.record(peer, ts(t), ts(t * 0.98)); // 2 % slow
        }
        let obs = m.estimate(peer).unwrap();
        assert!((obs.rate + 0.02).abs() < 1e-9);
        let bound = DriftRate::new(1e-4);
        assert_eq!(m.is_dissonant(peer, bound, bound), Some(true));
    }
}
