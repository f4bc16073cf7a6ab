//! The fault-tolerant intersection algorithm ("Marzullo's algorithm").
//!
//! Plain algorithm IM requires *every* interval to share a common point;
//! one faulty server (an interval that excludes real time) makes the
//! whole round inconsistent. The generalisation developed in the
//! companion dissertation [Marzullo 83] — and since adopted, in modified
//! form, by NTP — asks instead for the smallest interval that is
//! contained in the **largest possible number** of source intervals:
//! if at most `f` of `n` sources are faulty, any point covered by
//! `n − f` intervals is a candidate for real time.
//!
//! The implementation is the classic endpoint sweep: each interval
//! contributes a `+1` event at its trailing edge and a `−1` event at its
//! leading edge; sorting the events and scanning keeps a running coverage
//! count whose maxima delimit the best intersections. Runtime is
//! `O(n log n)`, and up to 32 sources allocate nothing.
//!
//! Two query styles are offered:
//!
//! * [`best_intersection`] — the region(s) of maximum coverage (the
//!   dissertation's formulation),
//! * [`intersect_tolerating`] — the hull of all points covered by at
//!   least `n − f` sources, for a caller-chosen fault budget `f` (the
//!   NTP selection rule, which keeps real time inside the answer
//!   whenever at most `f` sources lie).

use std::fmt;

use crate::interval::TimeInterval;
use crate::time::Timestamp;

/// A maximal-coverage region found by the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageRegion {
    /// The region of the time axis.
    pub interval: TimeInterval,
    /// How many source intervals cover every point of the region.
    pub coverage: usize,
    /// Indices (into the input slice) of the covering intervals.
    pub members: Vec<usize>,
}

/// The result of [`best_intersection`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarzulloResult {
    /// All regions achieving the maximum coverage, in time order.
    ///
    /// With correct sources there is exactly one; faulty sources can
    /// split the maximum into several disjoint regions (the ambiguity
    /// Figure 4 of the paper illustrates).
    pub regions: Vec<CoverageRegion>,
    /// The maximum coverage count.
    pub coverage: usize,
}

impl MarzulloResult {
    /// The first (earliest) best region — the conventional single-answer
    /// form of the algorithm.
    #[must_use]
    pub fn best(&self) -> &CoverageRegion {
        &self.regions[0]
    }
}

impl fmt::Display for MarzulloResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} source(s) agree on {} region(s)",
            self.coverage,
            self.regions.len()
        )
    }
}

/// Up to this many sources, the sweep sorts their endpoints on the stack.
const ON_STACK: usize = 32;

/// Calls `visit` on the sweep's edge events in time order: `(t, true)` at
/// a trailing edge (coverage += 1), `(t, false)` at a leading edge
/// (coverage −= 1). The two kinds of edge are sorted apart and merged; at
/// equal offsets trailing edges come first, so closed intervals touching
/// at a point count as overlapping. Every `lo ≤ hi`, so the `k`-th
/// trailing edge never follows the `k`-th leading edge.
fn sweep(intervals: &[TimeInterval], mut visit: impl FnMut(Timestamp, bool)) {
    let n = intervals.len();
    let mut stack = [Timestamp::ZERO; 2 * ON_STACK];
    let mut heap = Vec::new();
    let edges = if n <= ON_STACK {
        &mut stack[..2 * n]
    } else {
        heap.resize(2 * n, Timestamp::ZERO);
        &mut heap[..]
    };
    let (starts, ends) = edges.split_at_mut(n);
    for ((lo, hi), iv) in starts.iter_mut().zip(ends.iter_mut()).zip(intervals) {
        (*lo, *hi) = (iv.lo(), iv.hi());
    }
    starts.sort_unstable();
    ends.sort_unstable();
    let mut next = 0;
    for &end in &*ends {
        while next < n && starts[next] <= end {
            visit(starts[next], true);
            next += 1;
        }
        visit(end, false);
    }
}

/// Computes the region(s) of maximum coverage among `intervals`.
///
/// Returns `None` when `intervals` is empty.
///
/// ```
/// use tempo_core::{TimeInterval, Timestamp};
/// use tempo_core::marzullo::best_intersection;
///
/// let ts = Timestamp::from_secs;
/// let sources = [
///     TimeInterval::new(ts(8.0), ts(12.0)),
///     TimeInterval::new(ts(11.0), ts(13.0)),
///     TimeInterval::new(ts(14.0), ts(15.0)), // faulty: excludes the others
/// ];
/// let result = best_intersection(&sources).unwrap();
/// assert_eq!(result.coverage, 2);
/// assert_eq!(result.best().interval, TimeInterval::new(ts(11.0), ts(12.0)));
/// assert_eq!(result.best().members, vec![0, 1]);
/// ```
#[must_use]
pub fn best_intersection(intervals: &[TimeInterval]) -> Option<MarzulloResult> {
    if intervals.is_empty() {
        return None;
    }
    // Pass 1: the maximum coverage.
    let mut count = 0usize;
    let mut max_coverage = 0usize;
    sweep(intervals, |_, is_start| {
        if is_start {
            count += 1;
            max_coverage = max_coverage.max(count);
        } else {
            count -= 1;
        }
    });

    // Pass 2: extract the maximal regions. A region starts when the
    // count reaches `max_coverage` and ends at the next leading edge.
    let mut regions = Vec::new();
    let mut count = 0usize;
    let mut region_start: Option<Timestamp> = None;
    sweep(intervals, |t, is_start| {
        if is_start {
            count += 1;
            if count == max_coverage {
                region_start = Some(t);
            }
        } else {
            if let Some(start) = region_start.take() {
                let interval = TimeInterval::new(start, t);
                let members = members_of(intervals, &interval);
                regions.push(CoverageRegion {
                    interval,
                    coverage: max_coverage,
                    members,
                });
            }
            count -= 1;
        }
    });
    debug_assert!(!regions.is_empty());
    Some(MarzulloResult {
        regions,
        coverage: max_coverage,
    })
}

/// Indices of the intervals containing every point of `region`.
fn members_of(intervals: &[TimeInterval], region: &TimeInterval) -> Vec<usize> {
    intervals
        .iter()
        .enumerate()
        .filter(|(_, iv)| iv.contains_interval(region))
        .map(|(i, _)| i)
        .collect()
}

/// The hull of every point covered by at least `n − max_faulty` of the
/// `n` sources, or `None` when no point achieves that coverage.
///
/// This is the selection rule NTP adopted from the dissertation's
/// algorithm (RFC 5905 §11.2.1): the answer spans from the first point
/// where the running coverage reaches `n − f` to the last point where it
/// drops below `n − f`. The hull form — rather than the earliest
/// maximum-coverage region — is what makes the `f`-tolerance claim true:
/// if at most `f` sources are faulty, real time is covered by the
/// `≥ n − f` correct sources and therefore lies inside the hull. (The
/// maximum-coverage region alone can *exclude* real time when a faulty
/// interval happens to tighten the crowd: three honest `[0,10]` sources
/// plus a faulty `[5,6]` put maximum coverage at `[5,6]`, which misses a
/// real time of 0 even though only one source lied.)
///
/// With `max_faulty == 0` this is the plain IM intersection. When the
/// required coverage is met by several disjoint regions, the hull spans
/// them all — wider, never narrower, than any single region; use
/// [`best_intersection`] to inspect the individual regions and their
/// ambiguity.
///
/// Returns `None` when `max_faulty >= intervals.len()` (tolerating all
/// sources being faulty leaves no evidence to intersect — this covers
/// the empty slice too) and when no point reaches the required coverage.
#[must_use]
pub fn intersect_tolerating(intervals: &[TimeInterval], max_faulty: usize) -> Option<TimeInterval> {
    if max_faulty >= intervals.len() {
        return None;
    }
    let needed = intervals.len() - max_faulty;
    let mut count = 0usize;
    let mut lo: Option<Timestamp> = None;
    let mut hi: Option<Timestamp> = None;
    sweep(intervals, |t, is_start| {
        if is_start {
            count += 1;
            if count == needed && lo.is_none() {
                lo = Some(t);
            }
        } else {
            if count == needed {
                // Coverage drops below `needed` here; the last such drop
                // is the hull's trailing edge.
                hi = Some(t);
            }
            count -= 1;
        }
    });
    Some(TimeInterval::new(lo?, hi.expect("every start has an end")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn iv(lo: f64, hi: f64) -> TimeInterval {
        TimeInterval::new(ts(lo), ts(hi))
    }

    #[test]
    fn empty_input_returns_none() {
        assert!(best_intersection(&[]).is_none());
    }

    #[test]
    fn single_interval_is_its_own_best() {
        let result = best_intersection(&[iv(1.0, 2.0)]).unwrap();
        assert_eq!(result.coverage, 1);
        assert_eq!(result.best().interval, iv(1.0, 2.0));
        assert_eq!(result.best().members, vec![0]);
        assert_eq!(result.regions.len(), 1);
    }

    #[test]
    fn all_overlapping_equals_plain_intersection() {
        let sources = [iv(0.0, 4.0), iv(1.0, 5.0), iv(2.0, 6.0)];
        let result = best_intersection(&sources).unwrap();
        assert_eq!(result.coverage, 3);
        assert_eq!(result.best().interval, iv(2.0, 4.0));
        assert_eq!(result.best().members, vec![0, 1, 2]);
        assert_eq!(
            TimeInterval::intersect_all(&sources).unwrap(),
            result.best().interval
        );
    }

    #[test]
    fn one_outlier_is_excluded() {
        let sources = [iv(8.0, 12.0), iv(11.0, 13.0), iv(14.0, 15.0)];
        let result = best_intersection(&sources).unwrap();
        assert_eq!(result.coverage, 2);
        assert_eq!(result.best().interval, iv(11.0, 12.0));
        assert_eq!(result.best().members, vec![0, 1]);
    }

    #[test]
    fn classic_ntp_example() {
        // The textbook Marzullo example: [8,12], [11,13], [10,12] →
        // [11,12] with 3 sources agreeing.
        let sources = [iv(8.0, 12.0), iv(11.0, 13.0), iv(10.0, 12.0)];
        let result = best_intersection(&sources).unwrap();
        assert_eq!(result.coverage, 3);
        assert_eq!(result.best().interval, iv(11.0, 12.0));
    }

    #[test]
    fn touching_intervals_count_as_overlap() {
        let sources = [iv(0.0, 5.0), iv(5.0, 10.0)];
        let result = best_intersection(&sources).unwrap();
        assert_eq!(result.coverage, 2);
        assert_eq!(result.best().interval, TimeInterval::point(ts(5.0)));
    }

    #[test]
    fn ambiguous_maximum_reports_all_regions() {
        // Two pairs agree in two disjoint places (Figure 4's flavour).
        let sources = [iv(0.0, 2.0), iv(1.0, 3.0), iv(10.0, 12.0), iv(11.0, 13.0)];
        let result = best_intersection(&sources).unwrap();
        assert_eq!(result.coverage, 2);
        assert_eq!(result.regions.len(), 2);
        assert_eq!(result.regions[0].interval, iv(1.0, 2.0));
        assert_eq!(result.regions[0].members, vec![0, 1]);
        assert_eq!(result.regions[1].interval, iv(11.0, 12.0));
        assert_eq!(result.regions[1].members, vec![2, 3]);
    }

    #[test]
    fn identical_intervals_all_agree() {
        let sources = [iv(1.0, 2.0); 5];
        let result = best_intersection(&sources).unwrap();
        assert_eq!(result.coverage, 5);
        assert_eq!(result.best().interval, iv(1.0, 2.0));
        assert_eq!(result.best().members, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn point_intervals() {
        let sources = [TimeInterval::point(ts(1.0)), TimeInterval::point(ts(1.0))];
        let result = best_intersection(&sources).unwrap();
        assert_eq!(result.coverage, 2);
        assert_eq!(result.best().interval.width(), Duration::ZERO);
    }

    #[test]
    fn tolerating_zero_faults_is_plain_intersection() {
        let sources = [iv(0.0, 4.0), iv(1.0, 5.0)];
        assert_eq!(intersect_tolerating(&sources, 0), Some(iv(1.0, 4.0)));
        let disjoint = [iv(0.0, 1.0), iv(2.0, 3.0)];
        assert_eq!(intersect_tolerating(&disjoint, 0), None);
    }

    #[test]
    fn tolerating_one_fault_recovers() {
        let sources = [iv(8.0, 12.0), iv(11.0, 13.0), iv(14.0, 15.0)];
        assert_eq!(intersect_tolerating(&sources, 0), None);
        assert_eq!(intersect_tolerating(&sources, 1), Some(iv(11.0, 12.0)));
    }

    #[test]
    fn tolerance_requirement_not_met() {
        // Three mutually disjoint intervals: max coverage 1, so even
        // f = 1 (needing 2) fails. With f = 2 a single source suffices
        // and the hull spans all three disjoint regions.
        let sources = [iv(0.0, 1.0), iv(2.0, 3.0), iv(4.0, 5.0)];
        assert_eq!(intersect_tolerating(&sources, 1), None);
        assert_eq!(intersect_tolerating(&sources, 2), Some(iv(0.0, 5.0)));
    }

    #[test]
    fn tolerating_everything_is_none() {
        // f ≥ n leaves no evidence to intersect: explicitly None, for
        // every n including the empty slice.
        let sources = [iv(0.0, 1.0)];
        assert_eq!(intersect_tolerating(&sources, 1), None);
        assert_eq!(intersect_tolerating(&sources, 99), None);
        let three = [iv(0.0, 1.0), iv(0.5, 2.0), iv(1.0, 3.0)];
        assert_eq!(intersect_tolerating(&three, 3), None);
        assert_eq!(intersect_tolerating(&[], 0), None);
        assert_eq!(intersect_tolerating(&[], 5), None);
    }

    #[test]
    fn hull_contains_real_time_despite_tight_liar() {
        // Three honest sources span [0,10] with real time at the very
        // edge (t = 0); one liar claims the tight [5,6]. Maximum coverage
        // (4) sits at [5,6], which excludes t — but the f = 1 hull only
        // needs coverage 3, which t enjoys from the honest sources.
        let sources = [iv(0.0, 10.0), iv(0.0, 10.0), iv(0.0, 10.0), iv(5.0, 6.0)];
        let hull = intersect_tolerating(&sources, 1).unwrap();
        assert!(hull.contains(ts(0.0)), "hull {hull:?} must keep real time");
        assert_eq!(hull, iv(0.0, 10.0));
    }

    #[test]
    fn nested_intervals_best_is_innermost() {
        let sources = [iv(0.0, 10.0), iv(2.0, 8.0), iv(4.0, 6.0)];
        let result = best_intersection(&sources).unwrap();
        assert_eq!(result.coverage, 3);
        assert_eq!(result.best().interval, iv(4.0, 6.0));
    }

    #[test]
    fn coverage_region_members_exclude_partial_coverers() {
        // An interval that covers part of the best region but not all of
        // it is not a member (membership = covers the whole region).
        let sources = [iv(0.0, 10.0), iv(0.0, 10.0), iv(9.0, 20.0)];
        let result = best_intersection(&sources).unwrap();
        assert_eq!(result.coverage, 3);
        assert_eq!(result.best().interval, iv(9.0, 10.0));
        assert_eq!(result.best().members, vec![0, 1, 2]);
    }

    #[test]
    fn display_is_informative() {
        let result = best_intersection(&[iv(0.0, 1.0)]).unwrap();
        let s = result.to_string();
        assert!(s.contains("1 source"));
        assert!(s.contains("1 region"));
    }

    #[test]
    fn large_random_input_invariants() {
        // Deterministic pseudo-random intervals; check sweep invariants
        // against a brute-force point check.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / f64::from(u32::MAX)
        };
        let sources: Vec<TimeInterval> = (0..64)
            .map(|_| {
                let lo = next() * 100.0;
                let w = next() * 20.0;
                iv(lo, lo + w)
            })
            .collect();
        let result = best_intersection(&sources).unwrap();
        // Brute force: coverage at the midpoint of the best region must
        // equal the reported maximum, and no sampled point may beat it.
        let mid = result.best().interval.midpoint();
        let cover_at = |t: Timestamp| sources.iter().filter(|iv| iv.contains(t)).count();
        assert_eq!(cover_at(mid), result.coverage);
        for i in 0..=1000 {
            let t = ts(f64::from(i) * 0.12);
            assert!(cover_at(t) <= result.coverage);
        }
    }
}
