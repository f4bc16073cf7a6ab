//! Closed time intervals and their algebra.
//!
//! A [`TimeInterval`] `[lo, hi]` is a server's claim that real time lies
//! between `lo` and `hi`. The *trailing edge* is `lo = C − E` and the
//! *leading edge* is `hi = C + E` in the paper's vocabulary (§2.2).
//! Intersection of such claims is the heart of algorithm IM (§4) and of
//! the fault-tolerant generalisation in [`crate::marzullo`].

use std::fmt;

use crate::time::{Duration, Timestamp};

/// A closed interval `[lo, hi]` on the time axis, with `lo ≤ hi`.
///
/// ```
/// use tempo_core::{TimeInterval, Timestamp, Duration};
///
/// let a = TimeInterval::new(Timestamp::from_secs(1.0), Timestamp::from_secs(3.0));
/// let b = TimeInterval::from_center_radius(
///     Timestamp::from_secs(2.5),
///     Duration::from_secs(1.0),
/// );
/// let both = a.intersect(&b).expect("they overlap");
/// assert_eq!(both.lo(), Timestamp::from_secs(1.5));
/// assert_eq!(both.hi(), Timestamp::from_secs(3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeInterval {
    lo: Timestamp,
    hi: Timestamp,
}

/// Error returned by [`TimeInterval::try_new`] when `lo > hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidIntervalError {
    /// The offending lower bound.
    pub lo: Timestamp,
    /// The offending upper bound.
    pub hi: Timestamp,
}

impl fmt::Display for InvalidIntervalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "interval lower bound {} exceeds upper bound {}",
            self.lo, self.hi
        )
    }
}

impl std::error::Error for InvalidIntervalError {}

impl TimeInterval {
    /// Creates the interval `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`. Use [`TimeInterval::try_new`] for a fallible
    /// variant.
    #[must_use]
    pub fn new(lo: Timestamp, hi: Timestamp) -> Self {
        Self::try_new(lo, hi).expect("interval lower bound must not exceed upper bound")
    }

    /// Creates the interval `[lo, hi]`, or an error if `lo > hi`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidIntervalError`] when `lo > hi`.
    pub fn try_new(lo: Timestamp, hi: Timestamp) -> Result<Self, InvalidIntervalError> {
        if lo <= hi {
            Ok(TimeInterval { lo, hi })
        } else {
            Err(InvalidIntervalError { lo, hi })
        }
    }

    /// Creates `[center − radius, center + radius]` — the interval a
    /// server reports for the estimate `⟨C, E⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative.
    #[must_use]
    pub fn from_center_radius(center: Timestamp, radius: Duration) -> Self {
        assert!(
            !radius.is_negative(),
            "interval radius must be non-negative, got {radius}"
        );
        TimeInterval {
            lo: center - radius,
            hi: center + radius,
        }
    }

    /// The degenerate interval `[t, t]`.
    #[must_use]
    pub fn point(t: Timestamp) -> Self {
        TimeInterval { lo: t, hi: t }
    }

    /// The trailing edge `C − E` (earliest possible real time).
    #[must_use]
    pub fn lo(&self) -> Timestamp {
        self.lo
    }

    /// The leading edge `C + E` (latest possible real time).
    #[must_use]
    pub fn hi(&self) -> Timestamp {
        self.hi
    }

    /// The midpoint `C` of the interval.
    #[must_use]
    pub fn midpoint(&self) -> Timestamp {
        self.lo.midpoint(self.hi)
    }

    /// The full width `hi − lo = 2E` (never negative).
    #[must_use]
    pub fn width(&self) -> Duration {
        self.hi - self.lo
    }

    /// The radius `E = width / 2`.
    #[must_use]
    pub fn radius(&self) -> Duration {
        self.width().half()
    }

    /// `true` if `t ∈ [lo, hi]`.
    #[must_use]
    pub fn contains(&self, t: Timestamp) -> bool {
        self.lo <= t && t <= self.hi
    }

    /// `true` if `other` lies entirely inside `self`.
    #[must_use]
    pub fn contains_interval(&self, other: &TimeInterval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// `true` if the two closed intervals share at least one point.
    ///
    /// This is the paper's *consistency* predicate expressed on intervals:
    /// `|C_i − C_j| ≤ E_i + E_j` iff the intervals intersect (§2.3).
    #[must_use]
    pub fn intersects(&self, other: &TimeInterval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Intersection of two closed intervals, or `None` when disjoint.
    ///
    /// Touching intervals (`a.hi == b.lo`) intersect in a single point.
    #[must_use]
    pub fn intersect(&self, other: &TimeInterval) -> Option<TimeInterval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        TimeInterval::try_new(lo, hi).ok()
    }

    /// The smallest interval containing both inputs (convex hull).
    #[must_use]
    pub fn hull(&self, other: &TimeInterval) -> TimeInterval {
        TimeInterval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Translates the interval by `offset`.
    #[must_use]
    pub fn shift(&self, offset: Duration) -> TimeInterval {
        TimeInterval {
            lo: self.lo + offset,
            hi: self.hi + offset,
        }
    }

    /// Grows only the leading edge, the way rule IM-2 widens a reply by
    /// the round-trip allowance `(1 + δ_i)·ξ` (only the *future* side of
    /// the claim decays while a reply is in flight).
    #[must_use]
    pub fn extend_leading(&self, amount: Duration) -> TimeInterval {
        TimeInterval::new(self.lo, self.hi + amount)
    }

    /// Intersection of every interval in `intervals`, or `None` if the
    /// collection is empty or the common intersection is empty.
    ///
    /// ```
    /// use tempo_core::{TimeInterval, Timestamp};
    ///
    /// let ts = Timestamp::from_secs;
    /// let all = [
    ///     TimeInterval::new(ts(0.0), ts(4.0)),
    ///     TimeInterval::new(ts(1.0), ts(5.0)),
    ///     TimeInterval::new(ts(2.0), ts(6.0)),
    /// ];
    /// let common = TimeInterval::intersect_all(&all).unwrap();
    /// assert_eq!(common, TimeInterval::new(ts(2.0), ts(4.0)));
    /// ```
    #[must_use]
    pub fn intersect_all(intervals: &[TimeInterval]) -> Option<TimeInterval> {
        let (first, rest) = intervals.split_first()?;
        rest.iter()
            .try_fold(*first, |acc, next| acc.intersect(next))
    }
}

impl fmt::Display for TimeInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn iv(lo: f64, hi: f64) -> TimeInterval {
        TimeInterval::new(ts(lo), ts(hi))
    }

    #[test]
    fn construction_and_accessors() {
        let i = iv(1.0, 3.0);
        assert_eq!(i.lo(), ts(1.0));
        assert_eq!(i.hi(), ts(3.0));
        assert_eq!(i.midpoint(), ts(2.0));
        assert_eq!(i.width(), Duration::from_secs(2.0));
        assert_eq!(i.radius(), Duration::from_secs(1.0));
    }

    #[test]
    fn try_new_rejects_inverted() {
        assert!(TimeInterval::try_new(ts(2.0), ts(1.0)).is_err());
        let err = TimeInterval::try_new(ts(2.0), ts(1.0)).unwrap_err();
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    #[should_panic(expected = "lower bound must not exceed")]
    fn new_panics_on_inverted() {
        let _ = iv(2.0, 1.0);
    }

    #[test]
    fn center_radius_roundtrip() {
        let i = TimeInterval::from_center_radius(ts(10.0), Duration::from_secs(2.0));
        assert_eq!(i, iv(8.0, 12.0));
        assert_eq!(i.midpoint(), ts(10.0));
        assert_eq!(i.radius(), Duration::from_secs(2.0));
    }

    #[test]
    #[should_panic(expected = "radius must be non-negative")]
    fn center_radius_rejects_negative_radius() {
        let _ = TimeInterval::from_center_radius(ts(0.0), Duration::from_secs(-1.0));
    }

    #[test]
    fn point_interval() {
        let p = TimeInterval::point(ts(5.0));
        assert_eq!(p.width(), Duration::ZERO);
        assert!(p.contains(ts(5.0)));
        assert!(!p.contains(ts(5.000001)));
    }

    #[test]
    fn containment() {
        let outer = iv(0.0, 10.0);
        let inner = iv(2.0, 3.0);
        assert!(outer.contains_interval(&inner));
        assert!(!inner.contains_interval(&outer));
        assert!(outer.contains_interval(&outer));
        assert!(outer.contains(ts(0.0)));
        assert!(outer.contains(ts(10.0)));
        assert!(!outer.contains(ts(10.1)));
    }

    #[test]
    fn intersection_overlapping() {
        let a = iv(0.0, 5.0);
        let b = iv(3.0, 8.0);
        assert!(a.intersects(&b));
        assert_eq!(a.intersect(&b), Some(iv(3.0, 5.0)));
        assert_eq!(b.intersect(&a), Some(iv(3.0, 5.0)));
    }

    #[test]
    fn intersection_touching_is_a_point() {
        let a = iv(0.0, 3.0);
        let b = iv(3.0, 8.0);
        assert!(a.intersects(&b));
        assert_eq!(a.intersect(&b), Some(TimeInterval::point(ts(3.0))));
    }

    #[test]
    fn intersection_disjoint() {
        let a = iv(0.0, 1.0);
        let b = iv(2.0, 3.0);
        assert!(!a.intersects(&b));
        assert_eq!(a.intersect(&b), None);
    }

    #[test]
    fn intersection_subset_case() {
        // Left side of Figure 2: one interval inside another — the
        // intersection is the inner interval itself.
        let outer = iv(0.0, 10.0);
        let inner = iv(4.0, 6.0);
        assert_eq!(outer.intersect(&inner), Some(inner));
    }

    #[test]
    fn hull_covers_both() {
        let a = iv(0.0, 2.0);
        let b = iv(5.0, 7.0);
        assert_eq!(a.hull(&b), iv(0.0, 7.0));
        assert_eq!(b.hull(&a), iv(0.0, 7.0));
    }

    #[test]
    fn shift_moves_both_edges() {
        let a = iv(1.0, 2.0);
        assert_eq!(a.shift(Duration::from_secs(3.0)), iv(4.0, 5.0));
        assert_eq!(a.shift(Duration::from_secs(-1.0)), iv(0.0, 1.0));
    }

    #[test]
    fn extend_leading_only_moves_hi() {
        let a = iv(1.0, 2.0);
        let widened = a.extend_leading(Duration::from_secs(0.25));
        assert_eq!(widened.lo(), ts(1.0));
        assert_eq!(widened.hi(), ts(2.25));
    }

    #[test]
    fn intersect_all_basics() {
        assert_eq!(TimeInterval::intersect_all(&[]), None);
        assert_eq!(
            TimeInterval::intersect_all(&[iv(1.0, 2.0)]),
            Some(iv(1.0, 2.0))
        );
        let common =
            TimeInterval::intersect_all(&[iv(0.0, 4.0), iv(1.0, 5.0), iv(2.0, 6.0)]).unwrap();
        assert_eq!(common, iv(2.0, 4.0));
        assert_eq!(
            TimeInterval::intersect_all(&[iv(0.0, 1.0), iv(2.0, 3.0)]),
            None
        );
    }

    #[test]
    fn display() {
        assert_eq!(iv(1.0, 2.0).to_string(), "[1.000000s .. 2.000000s]");
    }
}
