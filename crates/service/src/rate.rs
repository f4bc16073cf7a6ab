//! Request-rate admission for the serving front: [`AdmissionControl`].

use tempo_core::{Duration, Timestamp};

/// Request-rate admission for the serving front: a token bucket.
///
/// [`PeerTable`](crate::PeerTable) polices the *clock* rates of
/// neighbours; this type polices the *request* rate of clients, the
/// optional admission tier in front of the lock-free read path. A
/// bucket holds at most `burst` tokens and refills at `rate` tokens per
/// second of serving-front real time; each admitted request spends one. A sustained overload
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
}
