//! The simulated clock itself.

use rand::rngs::StdRng;
use rand::SeedableRng;

use tempo_core::Timestamp;

use crate::drift::DriftModel;
use crate::fault::{Fault, FaultKind};

/// A simulated hardware clock: a piecewise-linear map from real
/// (simulated) time to clock time.
///
/// The clock is advanced lazily: every [`read`](SimClock::read) or
/// [`set`](SimClock::set) integrates the drift process up to the given
/// real time. Real time must be presented non-decreasingly (the
/// discrete-event simulator guarantees this).
///
/// Construct with [`SimClock::builder`].
///
/// ```
/// use tempo_clocks::{DriftModel, SimClock};
/// use tempo_core::{Duration, Timestamp};
///
/// let mut clock = SimClock::builder()
///     .initial_value(Timestamp::from_secs(100.0))
///     .drift(DriftModel::Constant(-1e-3)) // runs slow
///     .build();
/// let reading = clock.read(Timestamp::from_secs(1_000.0));
/// assert_eq!(reading, Timestamp::from_secs(1_099.0));
/// clock.set(Timestamp::from_secs(1_000.0), Timestamp::from_secs(1_000.0));
/// assert_eq!(clock.read(Timestamp::from_secs(1_000.0)), Timestamp::from_secs(1_000.0));
/// ```
#[derive(Debug, Clone)]
pub struct SimClock {
    last_real: Timestamp,
    clock: Timestamp,
    drift: DriftModel,
    current_drift: f64,
    next_quantum: Option<Timestamp>,
    fault: Option<Fault>,
    step_applied: bool,
    rng: StdRng,
}

impl SimClock {
    /// Starts building a clock.
    #[must_use]
    pub fn builder() -> SimClockBuilder {
        SimClockBuilder::new()
    }

    /// The real time of the most recent advance.
    #[must_use]
    pub fn last_real(&self) -> Timestamp {
        self.last_real
    }

    /// Reads the clock at real time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes a previously presented real time.
    pub fn read(&mut self, now: Timestamp) -> Timestamp {
        self.advance(now);
        self.clock
    }

    /// Sets the clock value at real time `now`, returning `true` if the
    /// set took effect (`false` when a [`FaultKind::RefuseSet`] fault is
    /// active — the clock silently keeps its old value, which is exactly
    /// how the failing service of §1.1 misbehaves).
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes a previously presented real time.
    pub fn set(&mut self, now: Timestamp, value: Timestamp) -> bool {
        self.advance(now);
        if let Some(f) = self.fault {
            if f.kind == FaultKind::RefuseSet && f.active_at(now) {
                return false;
            }
        }
        self.clock = value;
        true
    }

    /// The drift in force over a segment starting at `at`.
    fn effective_drift(&self, at: Timestamp) -> f64 {
        if let Some(f) = self.fault {
            if f.active_at(at) {
                match f.kind {
                    FaultKind::Stuck => return -1.0, // rate 0
                    FaultKind::Racing { drift } => return drift,
                    FaultKind::Step { .. } | FaultKind::RefuseSet => {}
                }
            }
        }
        self.current_drift
    }

    /// Integrates the drift process from `last_real` up to `now`,
    /// splitting at drift-quantum boundaries and the fault trigger.
    fn advance(&mut self, now: Timestamp) {
        assert!(
            now >= self.last_real,
            "real time must be non-decreasing: {now} < {}",
            self.last_real
        );
        // Apply a step fault armed in the past (or exactly now) once.
        self.maybe_apply_step();
        while self.last_real < now {
            let mut seg_end = now;
            if let Some(q) = self.next_quantum {
                if q < seg_end {
                    seg_end = q;
                }
            }
            if let Some(f) = self.fault {
                if f.at > self.last_real && f.at < seg_end {
                    seg_end = f.at;
                }
            }
            // Integrate [last_real, seg_end) at the segment's rate.
            let rate = 1.0 + self.effective_drift(self.last_real);
            let span = seg_end - self.last_real;
            self.clock += span * rate;
            self.last_real = seg_end;
            self.maybe_apply_step();
            // Resample the drift at a quantum boundary.
            if self.next_quantum == Some(seg_end) {
                self.current_drift = self.drift.sample(self.current_drift, &mut self.rng);
                let q = self
                    .drift
                    .quantum()
                    .expect("a quantum boundary implies a quantised model");
                self.next_quantum = Some(seg_end + q);
            }
        }
    }

    fn maybe_apply_step(&mut self) {
        if self.step_applied {
            return;
        }
        if let Some(Fault {
            at,
            kind: FaultKind::Step { offset },
        }) = self.fault
        {
            if at <= self.last_real {
                self.clock += offset;
                self.step_applied = true;
            }
        }
    }
}

/// Builder for [`SimClock`] ([C-BUILDER]).
#[derive(Debug, Clone)]
pub struct SimClockBuilder {
    initial_value: Timestamp,
    drift: DriftModel,
    fault: Option<Fault>,
    seed: u64,
}

impl SimClockBuilder {
    fn new() -> Self {
        SimClockBuilder {
            initial_value: Timestamp::ZERO,
            drift: DriftModel::perfect(),
            fault: None,
            seed: 0,
        }
    }

    /// Initial clock value at real time 0, when every clock comes into
    /// existence (default: 0, an initially correct clock).
    #[must_use]
    pub fn initial_value(mut self, value: Timestamp) -> Self {
        self.initial_value = value;
        self
    }

    /// The drift process (default: perfect).
    #[must_use]
    pub fn drift(mut self, drift: DriftModel) -> Self {
        self.drift = drift;
        self
    }

    /// Arms a fault.
    #[must_use]
    pub fn fault(mut self, fault: Fault) -> Self {
        self.fault = Some(fault);
        self
    }

    /// RNG seed for stochastic drift models (default: 0). Two clocks
    /// built with the same configuration and seed behave identically.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the clock.
    #[must_use]
    pub fn build(self) -> SimClock {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let current_drift = self.drift.initial(&mut rng);
        let next_quantum = self.drift.quantum().map(|q| Timestamp::ZERO + q);
        SimClock {
            last_real: Timestamp::ZERO,
            clock: self.initial_value,
            drift: self.drift,
            current_drift,
            next_quantum,
            fault: self.fault,
            step_applied: false,
            rng,
        }
    }
}

impl Default for SimClockBuilder {
    fn default() -> Self {
        SimClockBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_core::Duration;

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn perfect_clock_tracks_real_time() {
        let mut c = SimClock::builder().build();
        assert_eq!(c.read(ts(0.0)), ts(0.0));
        assert_eq!(c.read(ts(100.0)), ts(100.0));
        assert_eq!(c.read(ts(100.0)) - ts(100.0), Duration::ZERO);
    }

    #[test]
    fn constant_fast_clock() {
        let mut c = SimClock::builder()
            .drift(DriftModel::Constant(0.01))
            .build();
        assert_eq!(c.read(ts(100.0)), ts(101.0));
        assert_eq!(c.read(ts(100.0)) - ts(100.0), Duration::from_secs(1.0));
        // The offset grows 0.01 s per real second: the drift is 0.01.
        assert_eq!(c.read(ts(200.0)) - ts(200.0), Duration::from_secs(2.0));
    }

    #[test]
    fn constant_slow_clock() {
        let mut c = SimClock::builder()
            .drift(DriftModel::Constant(-0.02))
            .build();
        assert_eq!(c.read(ts(100.0)), ts(98.0));
    }

    #[test]
    fn initial_value_offsets_clock() {
        let mut c = SimClock::builder().initial_value(ts(50.0)).build();
        assert_eq!(c.read(ts(10.0)), ts(60.0));
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn time_cannot_flow_backwards() {
        let mut c = SimClock::builder().build();
        let _ = c.read(ts(10.0));
        let _ = c.read(ts(9.0));
    }

    #[test]
    fn set_changes_value_and_keeps_drifting() {
        let mut c = SimClock::builder()
            .drift(DriftModel::Constant(0.01))
            .build();
        assert!(c.set(ts(100.0), ts(200.0)));
        assert_eq!(c.read(ts(100.0)), ts(200.0));
        assert_eq!(c.read(ts(200.0)), ts(301.0));
    }

    #[test]
    fn set_backwards_is_allowed() {
        // The paper does not require local monotonicity (§1.1): clocks
        // may be freely set backward.
        let mut c = SimClock::builder().build();
        let _ = c.read(ts(100.0));
        assert!(c.set(ts(100.0), ts(50.0)));
        assert_eq!(c.read(ts(100.0)), ts(50.0));
    }

    #[test]
    fn incremental_reads_match_single_read() {
        let mut a = SimClock::builder()
            .drift(DriftModel::Constant(0.003))
            .build();
        let mut b = a.clone();
        for i in 1..=100 {
            let _ = a.read(ts(f64::from(i)));
        }
        // Segment-wise integration accumulates float round-off; the two
        // paths agree to well below a nanosecond over 100 s.
        let diff = (a.read(ts(100.0)) - b.read(ts(100.0))).abs();
        assert!(diff < Duration::from_secs(1e-10), "diff {diff}");
    }

    #[test]
    fn stuck_fault_freezes_clock() {
        let mut c = SimClock::builder().fault(Fault::stuck_at(ts(50.0))).build();
        assert_eq!(c.read(ts(50.0)), ts(50.0));
        assert_eq!(c.read(ts(100.0)), ts(50.0));
        // Rate 0: the offset falls by one second per real second.
        assert_eq!(c.read(ts(101.0)) - ts(101.0), Duration::from_secs(-51.0));
    }

    #[test]
    fn stuck_fault_mid_segment() {
        let mut c = SimClock::builder().fault(Fault::stuck_at(ts(50.0))).build();
        // One big jump across the trigger: integrates 50s at rate 1,
        // then 50s at rate 0.
        assert_eq!(c.read(ts(100.0)), ts(50.0));
    }

    #[test]
    fn racing_fault_overrides_drift() {
        let mut c = SimClock::builder()
            .drift(DriftModel::Constant(1e-5))
            .fault(Fault::racing_from(ts(100.0), 0.04))
            .build();
        let r = c.read(ts(200.0));
        // 100s at 1+1e-5, then 100s at 1.04.
        let expected = 100.0 * (1.0 + 1e-5) + 100.0 * 1.04;
        assert!((r.as_secs() - expected).abs() < 1e-9);
    }

    #[test]
    fn step_fault_applies_once() {
        let mut c = SimClock::builder()
            .fault(Fault::step_at(ts(10.0), Duration::from_secs(-5.0)))
            .build();
        assert_eq!(c.read(ts(9.0)), ts(9.0));
        assert_eq!(c.read(ts(10.0)), ts(5.0));
        assert_eq!(c.read(ts(20.0)), ts(15.0));
    }

    #[test]
    fn step_fault_in_the_past_applies_at_first_advance() {
        let mut c = SimClock::builder()
            .fault(Fault::step_at(ts(0.0), Duration::from_secs(3.0)))
            .build();
        assert_eq!(c.read(ts(0.0)), ts(3.0));
        assert_eq!(c.read(ts(10.0)), ts(13.0));
    }

    #[test]
    fn refuse_set_fault_ignores_sets() {
        let mut c = SimClock::builder()
            .fault(Fault::refuse_set_from(ts(50.0)))
            .build();
        assert!(c.set(ts(10.0), ts(0.0))); // before trigger: honoured
        assert_eq!(c.read(ts(10.0)), ts(0.0));
        assert!(!c.set(ts(60.0), ts(1000.0))); // after trigger: refused
        assert_eq!(c.read(ts(60.0)), ts(50.0));
    }

    #[test]
    fn random_walk_clock_stays_within_envelope() {
        let mut c = SimClock::builder()
            .drift(DriftModel::RandomWalk {
                sigma: 1e-5,
                bound: 1e-4,
                quantum: Duration::from_secs(10.0),
            })
            .seed(11)
            .build();
        let mut prev = c.read(ts(0.0));
        for i in 1..=1000 {
            let now = ts(f64::from(i) * 10.0);
            let r = c.read(now);
            let elapsed = 10.0;
            let advance = (r - prev).as_secs();
            // Rate within [1-1e-4, 1+1e-4] per segment.
            assert!(
                (advance / elapsed - 1.0).abs() <= 1e-4 + 1e-12,
                "segment rate escaped the drift bound"
            );
            prev = r;
        }
    }

    #[test]
    fn same_seed_same_behaviour() {
        let build = || {
            SimClock::builder()
                .drift(DriftModel::UniformResample {
                    bound: 1e-4,
                    quantum: Duration::from_secs(5.0),
                })
                .seed(77)
                .build()
        };
        let mut a = build();
        let mut b = build();
        for i in 0..200 {
            let now = ts(f64::from(i) * 3.7);
            assert_eq!(a.read(now), b.read(now));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let build = |seed| {
            SimClock::builder()
                .drift(DriftModel::UniformResample {
                    bound: 1e-4,
                    quantum: Duration::from_secs(5.0),
                })
                .seed(seed)
                .build()
        };
        let mut a = build(1);
        let mut b = build(2);
        let ra = a.read(ts(1000.0));
        let rb = b.read(ts(1000.0));
        assert_ne!(ra, rb);
    }

    #[test]
    fn builder_sets_the_drift_model() {
        let c = SimClock::builder()
            .drift(DriftModel::Constant(5e-6))
            .build();
        assert_eq!(c.drift, DriftModel::Constant(5e-6));
        assert_eq!(c.last_real(), Timestamp::ZERO);
    }

    #[test]
    fn builder_default_equals_new() {
        let mut a = SimClockBuilder::default().build();
        let mut b = SimClock::builder().build();
        assert_eq!(a.read(ts(42.0)), b.read(ts(42.0)));
    }
}
