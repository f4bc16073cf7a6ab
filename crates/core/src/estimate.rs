//! Time estimates `⟨C, E⟩` and the MM-1 error-growth rule.
//!
//! A time server maintains three quantities (rule MM-1 of the paper): its
//! clock `C_i`, the clock value at its last reset `r_i`, and the error
//! `ε_i` it inherited at that reset. When asked the time at clock reading
//! `C_i(t)` it answers with the pair
//!
//! ```text
//! ⟨C_i(t), E_i(t)⟩   with   E_i(t) = ε_i + (C_i(t) − r_i) · δ_i
//! ```
//!
//! [`ErrorState`] is the `(r_i, ε_i, δ_i)` triple; [`TimeEstimate`] is the
//! reported pair.

use std::fmt;

use crate::interval::TimeInterval;
use crate::time::{DriftRate, Duration, Timestamp};

/// A reported pair `⟨C, E⟩`: a clock reading plus its maximum error.
///
/// Equivalent to the interval `[C − E, C + E]`; the estimate is *correct*
/// at real time `t` when `t` lies in that interval.
///
/// ```
/// use tempo_core::{TimeEstimate, Timestamp, Duration};
///
/// let e = TimeEstimate::new(Timestamp::from_secs(100.0), Duration::from_secs(0.5));
/// assert!(e.is_correct_at(Timestamp::from_secs(100.4)));
/// assert!(!e.is_correct_at(Timestamp::from_secs(101.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TimeEstimate {
    time: Timestamp,
    error: Duration,
}

impl TimeEstimate {
    /// Creates an estimate from a clock reading and a maximum error.
    ///
    /// # Panics
    ///
    /// Panics if `error` is negative.
    #[must_use]
    pub fn new(time: Timestamp, error: Duration) -> Self {
        assert!(
            !error.is_negative(),
            "maximum error must be non-negative, got {error}"
        );
        TimeEstimate { time, error }
    }

    /// The clock reading `C`.
    #[must_use]
    pub fn time(&self) -> Timestamp {
        self.time
    }

    /// The maximum error `E`.
    #[must_use]
    pub fn error(&self) -> Duration {
        self.error
    }

    /// The interval `[C − E, C + E]` this estimate claims contains real
    /// time.
    #[must_use]
    pub fn interval(&self) -> TimeInterval {
        TimeInterval::from_center_radius(self.time, self.error)
    }

    /// `true` when real time `t` lies within the claimed interval — the
    /// paper's definition of a *correct* server (§2.1).
    #[must_use]
    pub fn is_correct_at(&self, real_time: Timestamp) -> bool {
        self.interval().contains(real_time)
    }

    /// The paper's *consistency* predicate (§2.3):
    /// `|C_i − C_j| ≤ E_i + E_j`. Two correct servers are always
    /// consistent; inconsistency proves at least one of them is incorrect.
    ///
    /// ```
    /// use tempo_core::{TimeEstimate, Timestamp, Duration};
    ///
    /// // The paper's example: 3:01 ± 0:02 vs 3:06 ± 0:02 cannot both be
    /// // right.
    /// let a = TimeEstimate::new(Timestamp::from_secs(181.0), Duration::from_secs(2.0));
    /// let b = TimeEstimate::new(Timestamp::from_secs(186.0), Duration::from_secs(2.0));
    /// assert!(!a.is_consistent_with(&b));
    /// ```
    #[must_use]
    pub fn is_consistent_with(&self, other: &TimeEstimate) -> bool {
        (self.time - other.time).abs() <= self.error + other.error
    }

    /// How far apart the two clock readings are: `|C_i − C_j|`.
    #[must_use]
    pub fn separation(&self, other: &TimeEstimate) -> Duration {
        (self.time - other.time).abs()
    }
}

impl fmt::Display for TimeEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ± {}", self.time, self.error)
    }
}

impl From<TimeEstimate> for TimeInterval {
    fn from(e: TimeEstimate) -> TimeInterval {
        e.interval()
    }
}

/// The per-server synchronization state `(r_i, ε_i, δ_i)` of rule MM-1.
///
/// Given the current clock reading `C_i(t)`, [`ErrorState::error_at`]
/// computes `E_i(t) = ε_i + (C_i(t) − r_i)·δ_i` and
/// [`ErrorState::estimate_at`] packages the full reply. A reset (rules
/// MM-2 / IM-2) replaces `r_i` and `ε_i` via [`ErrorState::reset`].
///
/// ```
/// use tempo_core::{ErrorState, DriftRate, Duration, Timestamp};
///
/// let mut state = ErrorState::new(
///     Timestamp::from_secs(0.0),
///     Duration::from_secs(0.1),
///     DriftRate::new(1e-3),
/// );
/// // After 100 clock-seconds without a reset the error has grown by 0.1s.
/// let e = state.error_at(Timestamp::from_secs(100.0));
/// assert_eq!(e, Duration::from_secs(0.2));
///
/// state.reset(Timestamp::from_secs(100.0), Duration::from_secs(0.05));
/// assert_eq!(state.error_at(Timestamp::from_secs(100.0)), Duration::from_secs(0.05));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorState {
    last_reset: Timestamp,
    inherited_error: Duration,
    drift_bound: DriftRate,
}

impl ErrorState {
    /// Creates the state of a server that last reset at clock reading
    /// `last_reset` with inherited error `inherited_error`, and whose
    /// clock has claimed drift bound `drift_bound`.
    ///
    /// # Panics
    ///
    /// Panics if `inherited_error` is negative.
    #[must_use]
    pub fn new(last_reset: Timestamp, inherited_error: Duration, drift_bound: DriftRate) -> Self {
        assert!(
            !inherited_error.is_negative(),
            "inherited error must be non-negative, got {inherited_error}"
        );
        ErrorState {
            last_reset,
            inherited_error,
            drift_bound,
        }
    }

    /// The clock reading `r_i` at the last reset.
    #[must_use]
    pub fn last_reset(&self) -> Timestamp {
        self.last_reset
    }

    /// The inherited error `ε_i`.
    #[must_use]
    pub fn inherited_error(&self) -> Duration {
        self.inherited_error
    }

    /// The claimed drift bound `δ_i`.
    #[must_use]
    pub fn drift_bound(&self) -> DriftRate {
        self.drift_bound
    }

    /// Rule MM-1: the maximum error at clock reading `clock_now`,
    /// `E_i = ε_i + (C_i − r_i)·δ_i`.
    ///
    /// `clock_now` may not precede the last reset (clock readings between
    /// resets are monotonic because clocks are continuous with rate
    /// `≥ 1 − δ > 0`).
    ///
    /// # Panics
    ///
    /// Panics if `clock_now < last_reset`.
    #[must_use]
    pub fn error_at(&self, clock_now: Timestamp) -> Duration {
        let since_reset = clock_now - self.last_reset;
        assert!(
            !since_reset.is_negative(),
            "clock reading {clock_now} precedes last reset {}",
            self.last_reset
        );
        self.inherited_error + since_reset * self.drift_bound
    }

    /// The full reply `⟨C_i, E_i⟩` at clock reading `clock_now`.
    ///
    /// # Panics
    ///
    /// Panics if `clock_now < last_reset`.
    #[must_use]
    pub fn estimate_at(&self, clock_now: Timestamp) -> TimeEstimate {
        TimeEstimate::new(clock_now, self.error_at(clock_now))
    }

    /// Records a reset: the clock was just set to `new_clock` and the
    /// server inherited error `new_error` (`ε_i ← new_error`,
    /// `r_i ← new_clock`).
    ///
    /// # Panics
    ///
    /// Panics if `new_error` is negative.
    pub fn reset(&mut self, new_clock: Timestamp, new_error: Duration) {
        assert!(
            !new_error.is_negative(),
            "inherited error must be non-negative, got {new_error}"
        );
        self.last_reset = new_clock;
        self.inherited_error = new_error;
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

    #[test]
    fn estimate_accessors_and_interval() {
        let e = TimeEstimate::new(ts(10.0), dur(2.0));
        assert_eq!(e.time(), ts(10.0));
        assert_eq!(e.error(), dur(2.0));
        let i = e.interval();
        assert_eq!(i.lo(), ts(8.0));
        assert_eq!(i.hi(), ts(12.0));
        let i2: TimeInterval = e.into();
        assert_eq!(i, i2);
    }

    #[test]
    #[should_panic(expected = "must be non-negative")]
    fn estimate_rejects_negative_error() {
        let _ = TimeEstimate::new(ts(0.0), dur(-1.0));
    }

    #[test]
    fn correctness_is_interval_membership() {
        let e = TimeEstimate::new(ts(10.0), dur(1.0));
        assert!(e.is_correct_at(ts(9.0)));
        assert!(e.is_correct_at(ts(11.0)));
        assert!(!e.is_correct_at(ts(8.999)));
        assert!(!e.is_correct_at(ts(11.001)));
    }

    #[test]
    fn consistency_is_symmetric() {
        let a = TimeEstimate::new(ts(0.0), dur(1.0));
        let b = TimeEstimate::new(ts(1.5), dur(1.0));
        assert!(a.is_consistent_with(&b));
        assert!(b.is_consistent_with(&a));
        let c = TimeEstimate::new(ts(3.0), dur(0.5));
        assert!(!a.is_consistent_with(&c));
        assert!(!c.is_consistent_with(&a));
    }

    #[test]
    fn consistency_boundary_case() {
        // |C_i − C_j| exactly equal to E_i + E_j is still consistent.
        let a = TimeEstimate::new(ts(0.0), dur(1.0));
        let b = TimeEstimate::new(ts(2.0), dur(1.0));
        assert!(a.is_consistent_with(&b));
    }

    #[test]
    fn consistency_is_not_transitive() {
        // The paper warns (§3) that majority voting fails because
        // consistency is not transitive: a~b and b~c do not imply a~c.
        let a = TimeEstimate::new(ts(0.0), dur(1.0));
        let b = TimeEstimate::new(ts(1.8), dur(1.0));
        let c = TimeEstimate::new(ts(3.6), dur(1.0));
        assert!(a.is_consistent_with(&b));
        assert!(b.is_consistent_with(&c));
        assert!(!a.is_consistent_with(&c));
    }

    #[test]
    fn separation() {
        let a = TimeEstimate::new(ts(1.0), dur(0.0));
        let b = TimeEstimate::new(ts(4.0), dur(0.0));
        assert_eq!(a.separation(&b), dur(3.0));
        assert_eq!(b.separation(&a), dur(3.0));
    }

    #[test]
    fn display() {
        let e = TimeEstimate::new(ts(1.0), dur(0.5));
        assert_eq!(e.to_string(), "1.000000s ± 500.000ms");
    }

    #[test]
    fn error_growth_is_linear_in_clock_time() {
        // Lemma 1: without a reset the error grows as δ·Δ.
        let state = ErrorState::new(ts(0.0), dur(1.0), DriftRate::new(0.01));
        assert_eq!(state.error_at(ts(0.0)), dur(1.0));
        assert_eq!(state.error_at(ts(50.0)), dur(1.5));
        assert_eq!(state.error_at(ts(100.0)), dur(2.0));
    }

    #[test]
    fn reset_restarts_growth() {
        let mut state = ErrorState::new(ts(0.0), dur(1.0), DriftRate::new(0.01));
        state.reset(ts(100.0), dur(0.25));
        assert_eq!(state.last_reset(), ts(100.0));
        assert_eq!(state.inherited_error(), dur(0.25));
        assert_eq!(state.error_at(ts(100.0)), dur(0.25));
        assert_eq!(state.error_at(ts(200.0)), dur(1.25));
    }

    #[test]
    fn estimate_at_packages_both_fields() {
        let state = ErrorState::new(ts(0.0), dur(0.5), DriftRate::new(0.001));
        let e = state.estimate_at(ts(1000.0));
        assert_eq!(e.time(), ts(1000.0));
        assert_eq!(e.error(), dur(1.5));
    }

    #[test]
    #[should_panic(expected = "precedes last reset")]
    fn error_at_rejects_pre_reset_reading() {
        let state = ErrorState::new(ts(10.0), dur(0.0), DriftRate::ZERO);
        let _ = state.error_at(ts(9.0));
    }

    #[test]
    fn perfect_clock_never_accumulates_error() {
        let state = ErrorState::new(ts(0.0), dur(0.0), DriftRate::ZERO);
        assert_eq!(state.error_at(ts(1e9)), Duration::ZERO);
    }
}
