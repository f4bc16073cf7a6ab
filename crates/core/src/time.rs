//! Validated time newtypes: [`Timestamp`], [`Duration`], and [`DriftRate`].
//!
//! The paper's analysis works in real numbers; we represent time as `f64`
//! seconds wrapped in newtypes so that instants, spans, and drift rates
//! cannot be confused ([C-NEWTYPE]). Constructors reject non-finite values,
//! which makes the total order (`Ord`) well-defined.
//!
//! * [`Timestamp`] — an instant, either on the real-time axis or a clock
//!   reading (the paper uses the same units for both; `tempo` keeps the
//!   distinction in variable names and documentation).
//! * [`Duration`] — a *signed* span of time. Signed because the algorithms
//!   constantly work with relative offsets (`C_j − C_i` may be negative).
//! * [`DriftRate`] — a claimed bound `δ` on `|1 − dC/dt|`, dimensionless,
//!   constrained to `0 ≤ δ < 1` as required by Theorems 2–4.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// An instant in time, in seconds since an arbitrary epoch.
///
/// A `Timestamp` may denote *real* time `t` or a clock reading `C_i(t)`;
/// the algorithms treat both as points on the same axis.
///
/// ```
/// use tempo_core::{Timestamp, Duration};
///
/// let t0 = Timestamp::from_secs(10.0);
/// let t1 = t0 + Duration::from_secs(2.5);
/// assert_eq!(t1 - t0, Duration::from_secs(2.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(Finite);

/// A signed span of time in seconds.
///
/// ```
/// use tempo_core::Duration;
///
/// let d = Duration::from_secs(-1.5);
/// assert_eq!(d.abs(), Duration::from_secs(1.5));
/// assert!(d < Duration::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(Finite);

/// A claimed upper bound `δ` on a clock's drift: `|1 − dC/dt| ≤ δ`.
///
/// Dimensionless (seconds of drift per second of real time). The paper's
/// theorems require `0 ≤ δ < 1`; the constructor enforces this. Note that a
/// `DriftRate` is a *claim* — a simulated clock's actual rate may violate
/// it, which is exactly the failure mode studied in §3 and §5 of the paper.
///
/// ```
/// use tempo_core::DriftRate;
///
/// let delta = DriftRate::new(2.0 / 86_400.0); // two seconds per day
/// assert!(delta.as_f64() < 1e-4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct DriftRate(Finite);

/// A finite `f64` with a total order. Internal building block for the
/// public newtypes; the invariant (finiteness) is established at every
/// construction site in this module.
#[derive(Debug, Clone, Copy, Default)]
struct Finite(f64);

impl PartialEq for Finite {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl Eq for Finite {}

impl PartialOrd for Finite {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Finite {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl std::hash::Hash for Finite {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Finite f64s have a canonical bit pattern except for -0.0; fold
        // -0.0 onto +0.0 so that `a == b` implies equal hashes.
        let v = if self.0 == 0.0 { 0.0f64 } else { self.0 };
        v.to_bits().hash(state);
    }
}

#[inline]
fn expect_finite(value: f64, what: &str) -> Finite {
    if !value.is_finite() {
        not_finite(value, what);
    }
    Finite(value)
}

#[cold]
#[inline(never)]
fn not_finite(value: f64, what: &str) -> ! {
    panic!("{what} must be finite, got {value}");
}

impl Timestamp {
    /// The epoch (zero seconds).
    pub const ZERO: Timestamp = Timestamp(Finite(0.0));

    /// Creates a timestamp from seconds since the epoch.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN or infinite.
    #[must_use]
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        Timestamp(expect_finite(secs, "timestamp"))
    }

    /// Returns the timestamp as seconds since the epoch.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0 .0
    }

    /// Returns the earlier of `self` and `other`.
    #[must_use]
    #[inline]
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the later of `self` and `other`.
    #[must_use]
    #[inline]
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Midpoint between two timestamps, robust against overflow.
    #[must_use]
    #[inline]
    pub fn midpoint(self, other: Self) -> Self {
        Timestamp::from_secs(self.as_secs() + (other.as_secs() - self.as_secs()) / 2.0)
    }
}

impl Duration {
    /// The zero-length span.
    pub const ZERO: Duration = Duration(Finite(0.0));

    /// Creates a duration from (possibly negative) seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN or infinite.
    #[must_use]
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        Duration(expect_finite(secs, "duration"))
    }

    /// Creates a duration from milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `millis` is NaN or infinite.
    #[must_use]
    #[inline]
    pub fn from_millis(millis: f64) -> Self {
        Duration::from_secs(millis / 1_000.0)
    }

    /// Creates a duration from microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `micros` is NaN or infinite.
    #[must_use]
    pub fn from_micros(micros: f64) -> Self {
        Duration::from_secs(micros / 1_000_000.0)
    }

    /// Returns the span in seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0 .0
    }

    /// Absolute value of the span.
    #[must_use]
    #[inline]
    pub fn abs(self) -> Self {
        Duration::from_secs(self.as_secs().abs())
    }

    /// Returns the shorter of `self` and `other` (signed comparison).
    #[must_use]
    #[inline]
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the longer of `self` and `other` (signed comparison).
    #[must_use]
    #[inline]
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// `true` if the span is negative.
    #[must_use]
    pub fn is_negative(self) -> bool {
        self.as_secs() < 0.0
    }

    /// Half of the span, useful when converting interval widths to radii.
    #[must_use]
    #[inline]
    pub fn half(self) -> Self {
        Duration::from_secs(self.as_secs() / 2.0)
    }
}

impl DriftRate {
    /// A perfect clock: zero drift.
    pub const ZERO: DriftRate = DriftRate(Finite(0.0));

    /// Creates a drift-rate bound.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is NaN, infinite, negative, or `>= 1` — the
    /// theorems of the paper require `0 ≤ δ < 1`.
    #[must_use]
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && (0.0..1.0).contains(&rate),
            "drift rate must satisfy 0 <= rate < 1, got {rate}"
        );
        DriftRate(Finite(rate))
    }

    /// Creates a drift rate from a "seconds per day" specification, the
    /// way operators of the Xerox internet stated clock quality.
    ///
    /// ```
    /// use tempo_core::DriftRate;
    /// let d = DriftRate::per_day(1.0); // one second per day
    /// assert!((d.as_f64() - 1.157e-5).abs() < 1e-8);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`DriftRate::new`].
    #[must_use]
    pub fn per_day(seconds_per_day: f64) -> Self {
        DriftRate::new(seconds_per_day / 86_400.0)
    }

    /// The bound as a plain `f64`.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0 .0
    }

    /// `(1 + δ)` — the factor by which a local round-trip measurement must
    /// be inflated to bound the real elapsed time (equation 1 in the
    /// paper).
    #[must_use]
    pub fn inflation(self) -> f64 {
        1.0 + self.as_f64()
    }
}

// --- Timestamp arithmetic ------------------------------------------------

impl Add<Duration> for Timestamp {
    type Output = Timestamp;

    #[inline]
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp::from_secs(self.as_secs() + rhs.as_secs())
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for Timestamp {
    type Output = Timestamp;

    #[inline]
    fn sub(self, rhs: Duration) -> Timestamp {
        Timestamp::from_secs(self.as_secs() - rhs.as_secs())
    }
}

impl SubAssign<Duration> for Timestamp {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Sub for Timestamp {
    type Output = Duration;

    #[inline]
    fn sub(self, rhs: Timestamp) -> Duration {
        Duration::from_secs(self.as_secs() - rhs.as_secs())
    }
}

// --- Duration arithmetic --------------------------------------------------

impl Add for Duration {
    type Output = Duration;

    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration::from_secs(self.as_secs() + rhs.as_secs())
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;

    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration::from_secs(self.as_secs() - rhs.as_secs())
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Neg for Duration {
    type Output = Duration;

    fn neg(self) -> Duration {
        Duration::from_secs(-self.as_secs())
    }
}

impl Mul<f64> for Duration {
    type Output = Duration;

    #[inline]
    fn mul(self, rhs: f64) -> Duration {
        Duration::from_secs(self.as_secs() * rhs)
    }
}

impl Mul<Duration> for f64 {
    type Output = Duration;

    fn mul(self, rhs: Duration) -> Duration {
        rhs * self
    }
}

impl Mul<DriftRate> for Duration {
    type Output = Duration;

    /// Error accumulated over this span by a clock with drift bound `δ`:
    /// `s · δ` in the paper's notation.
    #[inline]
    fn mul(self, rhs: DriftRate) -> Duration {
        Duration::from_secs(self.as_secs() * rhs.as_f64())
    }
}

impl Div<f64> for Duration {
    type Output = Duration;

    fn div(self, rhs: f64) -> Duration {
        Duration::from_secs(self.as_secs() / rhs)
    }
}

impl Div for Duration {
    type Output = f64;

    fn div(self, rhs: Duration) -> f64 {
        self.as_secs() / rhs.as_secs()
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, Add::add)
    }
}

// --- Display ---------------------------------------------------------------

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs();
        if s.abs() >= 1.0 {
            write!(f, "{s:.6}s")
        } else if s.abs() >= 1e-3 {
            write!(f, "{:.3}ms", s * 1e3)
        } else {
            write!(f, "{:.3}us", s * 1e6)
        }
    }
}

impl fmt::Display for DriftRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3e} s/s", self.as_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_roundtrip() {
        let t = Timestamp::from_secs(123.456);
        assert_eq!(t.as_secs(), 123.456);
    }

    #[test]
    fn timestamp_ordering() {
        let a = Timestamp::from_secs(1.0);
        let b = Timestamp::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn timestamp_midpoint() {
        let a = Timestamp::from_secs(10.0);
        let b = Timestamp::from_secs(20.0);
        assert_eq!(a.midpoint(b), Timestamp::from_secs(15.0));
        assert_eq!(b.midpoint(a), Timestamp::from_secs(15.0));
    }

    #[test]
    fn timestamp_duration_arithmetic() {
        let t = Timestamp::from_secs(100.0);
        let d = Duration::from_secs(2.5);
        assert_eq!((t + d).as_secs(), 102.5);
        assert_eq!((t - d).as_secs(), 97.5);
        assert_eq!((t + d) - t, d);
        let mut u = t;
        u += d;
        assert_eq!(u, t + d);
        u -= d;
        assert_eq!(u, t);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn timestamp_rejects_nan() {
        let _ = Timestamp::from_secs(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn timestamp_rejects_infinity() {
        let _ = Timestamp::from_secs(f64::INFINITY);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_millis(1500.0), Duration::from_secs(1.5));
        assert_eq!(Duration::from_micros(250.0), Duration::from_secs(0.00025));
    }

    #[test]
    fn duration_signed_behaviour() {
        let d = Duration::from_secs(-3.0);
        assert!(d.is_negative());
        assert_eq!(d.abs(), Duration::from_secs(3.0));
        assert_eq!(-d, Duration::from_secs(3.0));
        assert!(!Duration::ZERO.is_negative());
    }

    #[test]
    fn duration_arithmetic() {
        let a = Duration::from_secs(1.0);
        let b = Duration::from_secs(0.5);
        assert_eq!(a + b, Duration::from_secs(1.5));
        assert_eq!(a - b, b);
        assert_eq!(a * 2.0, Duration::from_secs(2.0));
        assert_eq!(2.0 * a, Duration::from_secs(2.0));
        assert_eq!(a / 4.0, Duration::from_secs(0.25));
        assert_eq!(a / b, 2.0);
        assert_eq!(a.half(), b);
        let mut c = a;
        c += b;
        assert_eq!(c, Duration::from_secs(1.5));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn duration_sum() {
        let total: Duration = (1..=4).map(|i| Duration::from_secs(f64::from(i))).sum();
        assert_eq!(total, Duration::from_secs(10.0));
    }

    #[test]
    fn duration_min_max() {
        let a = Duration::from_secs(-1.0);
        let b = Duration::from_secs(1.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn drift_rate_scaling() {
        let delta = DriftRate::new(0.01);
        let span = Duration::from_secs(100.0);
        assert_eq!(span * delta, Duration::from_secs(1.0));
        assert_eq!(delta.inflation(), 1.01);
    }

    #[test]
    fn drift_rate_per_day() {
        let delta = DriftRate::per_day(86.4);
        assert!((delta.as_f64() - 1e-3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "drift rate must satisfy")]
    fn drift_rate_rejects_negative() {
        let _ = DriftRate::new(-0.1);
    }

    #[test]
    #[should_panic(expected = "drift rate must satisfy")]
    fn drift_rate_rejects_one_or_more() {
        let _ = DriftRate::new(1.0);
    }

    #[test]
    fn negative_zero_equals_zero() {
        assert_eq!(Duration::from_secs(-0.0), Duration::ZERO);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |d: Duration| {
            let mut h = DefaultHasher::new();
            d.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(Duration::from_secs(-0.0)), hash(Duration::ZERO));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Timestamp::from_secs(1.5).to_string(), "1.500000s");
        assert_eq!(Duration::from_secs(2.0).to_string(), "2.000000s");
        assert_eq!(Duration::from_millis(1.5).to_string(), "1.500ms");
        assert_eq!(Duration::from_micros(2.0).to_string(), "2.000us");
        assert!(DriftRate::new(1e-5).to_string().contains("s/s"));
    }

    #[test]
    fn defaults_are_zero() {
        assert_eq!(Timestamp::default(), Timestamp::ZERO);
        assert_eq!(Duration::default(), Duration::ZERO);
        assert_eq!(DriftRate::default(), DriftRate::ZERO);
    }
}
