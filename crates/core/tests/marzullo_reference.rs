//! Cross-validation of the Marzullo sweep against a brute-force
//! reference implementation.
//!
//! The reference evaluates coverage at every candidate point (all
//! endpoints plus midpoints between consecutive endpoints) — O(n²) but
//! obviously correct. The sweep must agree on the maximum coverage, on
//! the best region's boundaries, and on the membership sets, for both
//! random and adversarially structured inputs.

use tempo_check::{check, Gen};

use tempo_core::marzullo::{best_intersection, intersect_tolerating};
use tempo_core::{Duration, TimeInterval, Timestamp};

/// Brute force: maximum coverage and the first maximal region.
fn brute_force(intervals: &[TimeInterval]) -> (usize, TimeInterval) {
    let mut endpoints: Vec<Timestamp> =
        intervals.iter().flat_map(|iv| [iv.lo(), iv.hi()]).collect();
    endpoints.sort_unstable();
    endpoints.dedup();

    let cover = |t: Timestamp| intervals.iter().filter(|iv| iv.contains(t)).count();

    // Candidate points: endpoints and gap midpoints.
    let mut candidates: Vec<Timestamp> = endpoints.clone();
    for pair in endpoints.windows(2) {
        candidates.push(pair[0].midpoint(pair[1]));
    }
    candidates.sort_unstable();

    let max_cover = candidates
        .iter()
        .map(|&t| cover(t))
        .max()
        .expect("non-empty");
    // First maximal region: scan candidates in order; the region is the
    // intersection of the intervals covering the first max-coverage
    // candidate.
    let witness = candidates
        .iter()
        .copied()
        .find(|&t| cover(t) == max_cover)
        .expect("witness exists");
    let members: Vec<TimeInterval> = intervals
        .iter()
        .copied()
        .filter(|iv| iv.contains(witness))
        .collect();
    let region = TimeInterval::intersect_all(&members).expect("members share the witness");
    (max_cover, region)
}

fn arb_intervals(g: &mut Gen) -> Vec<TimeInterval> {
    g.vec(1..24, |g| {
        let (lo, w) = (g.f64(0.0..50.0), g.f64(0.0..20.0));
        TimeInterval::new(Timestamp::from_secs(lo), Timestamp::from_secs(lo + w))
    })
}

/// Brute-force reference for [`intersect_tolerating`]: the hull of all
/// points whose coverage reaches `n − f`. Coverage only changes at
/// interval endpoints, and the intervals are closed, so the extreme
/// qualifying points are always endpoints.
fn brute_force_tolerating(intervals: &[TimeInterval], max_faulty: usize) -> Option<TimeInterval> {
    if max_faulty >= intervals.len() {
        return None;
    }
    let needed = intervals.len() - max_faulty;
    let cover = |t: Timestamp| intervals.iter().filter(|iv| iv.contains(t)).count();
    let qualifying: Vec<Timestamp> = intervals
        .iter()
        .flat_map(|iv| [iv.lo(), iv.hi()])
        .filter(|&t| cover(t) >= needed)
        .collect();
    let lo = qualifying.iter().copied().min()?;
    let hi = qualifying.iter().copied().max()?;
    Some(TimeInterval::new(lo, hi))
}

/// Like [`arb_intervals`] but deliberately nasty: widths may be exactly
/// zero (point intervals), coordinates snap to a coarse grid so shared
/// endpoints are common, and a suffix of the vector duplicates earlier
/// entries verbatim.
fn arb_degenerate_intervals(g: &mut Gen) -> Vec<TimeInterval> {
    let mut intervals = g.vec(1..16, |g| {
        let (lo, w) = (g.int(0u32..40), zero_or(g, |g| g.int(0u32..8)));
        // Snap to a 0.5 s grid: collisions on purpose.
        let lo = f64::from(lo) * 0.5;
        let hi = lo + f64::from(w) * 0.5;
        TimeInterval::new(Timestamp::from_secs(lo), Timestamp::from_secs(hi))
    });
    for pick in g.vec(0..8, |g| g.int(0usize..64)) {
        let copy = intervals[pick % intervals.len()];
        intervals.push(copy);
    }
    intervals
}

/// Exactly zero half the time, `draw` otherwise.
fn zero_or<T: Default>(g: &mut Gen, draw: impl FnOnce(&mut Gen) -> T) -> T {
    if g.bool() {
        draw(g)
    } else {
        T::default()
    }
}

#[test]
fn sweep_matches_brute_force() {
    check("sweep_matches_brute_force", 256, |g| {
        let intervals = arb_intervals(g);
        let sweep = best_intersection(&intervals).expect("non-empty input");
        let (bf_cover, bf_region) = brute_force(&intervals);
        assert_eq!(sweep.coverage, bf_cover);
        // The brute-force first region must appear among the sweep's
        // best regions (and, since both pick the earliest, be the first).
        assert_eq!(
            sweep.best().interval,
            bf_region,
            "sweep {:?} vs brute {:?}",
            sweep.best().interval,
            bf_region
        );
    });
}

#[test]
fn sweep_matches_brute_force_on_degenerate_inputs() {
    check("sweep_matches_brute_force_on_degenerate_inputs", 256, |g| {
        let intervals = arb_degenerate_intervals(g);
        let sweep = best_intersection(&intervals).expect("non-empty input");
        let (bf_cover, bf_region) = brute_force(&intervals);
        assert_eq!(sweep.coverage, bf_cover);
        assert_eq!(sweep.best().interval, bf_region);
        for region in &sweep.regions {
            assert_eq!(region.members.len(), sweep.coverage);
        }
    });
}

#[test]
fn tolerating_matches_brute_force() {
    check("tolerating_matches_brute_force", 256, |g| {
        let intervals = arb_degenerate_intervals(g);
        let f_pick = g.int(0usize..4);
        let max_faulty = f_pick.min(intervals.len() - 1);
        let got = intersect_tolerating(&intervals, max_faulty);
        let want = brute_force_tolerating(&intervals, max_faulty);
        assert_eq!(got, want, "f = {}", max_faulty);
        // The hull's edges are genuinely supported, and the hull misses
        // no qualifying point: every endpoint with coverage ≥ n − f lies
        // inside it.
        if let Some(hull) = got {
            let needed = intervals.len() - max_faulty;
            let cover = |t: Timestamp| intervals.iter().filter(|iv| iv.contains(t)).count();
            assert!(cover(hull.lo()) >= needed);
            assert!(cover(hull.hi()) >= needed);
            for t in intervals.iter().flat_map(|iv| [iv.lo(), iv.hi()]) {
                if cover(t) >= needed {
                    assert!(hull.contains(t));
                }
            }
        }
    });
}

/// The paper's `f`-tolerance claim, tested against a real adversary:
/// `n` honest intervals each containing real time, plus up to
/// `f < n` adversarial intervals (arbitrary placement, disjoint or
/// degenerate — so the adversary is always a strict minority of the
/// combined input), must yield a hull that still contains real time.
#[test]
fn tolerating_contains_real_time_under_adversarial_minority() {
    check(
        "tolerating_contains_real_time_under_adversarial_minority",
        256,
        |g| {
            let real = g.f64(0.0..100.0);
            let honest_specs = g.vec(1..12, |g| (g.f64(0.0..30.0), g.f64(0.0..30.0)));
            let adversary_raw = g.vec(0..16, |g| {
                (g.f64(-50.0..150.0), zero_or(g, |g| g.f64(0.0..40.0)))
            });
            let t = Timestamp::from_secs(real);
            let mut all: Vec<TimeInterval> = honest_specs
                .iter()
                .map(|&(before, after)| {
                    TimeInterval::new(
                        Timestamp::from_secs(real - before),
                        Timestamp::from_secs(real + after),
                    )
                })
                .collect();
            let n = all.len();
            let f = adversary_raw.len().min(n.saturating_sub(1));
            for &(lo, w) in adversary_raw.iter().take(f) {
                all.push(TimeInterval::new(
                    Timestamp::from_secs(lo),
                    Timestamp::from_secs(lo + w),
                ));
            }
            let hull = intersect_tolerating(&all, f)
                .expect("the honest sources alone reach n − f coverage");
            assert!(
                hull.contains(t),
                "hull {:?} lost real time {:?} with f = {}",
                hull,
                t,
                f
            );
        },
    );
}

#[test]
fn adversarial_structures_match() {
    let iv =
        |lo: f64, hi: f64| TimeInterval::new(Timestamp::from_secs(lo), Timestamp::from_secs(hi));
    let cases: Vec<Vec<TimeInterval>> = vec![
        // All identical.
        vec![iv(1.0, 2.0); 7],
        // Perfect nesting.
        (0..8)
            .map(|k| iv(f64::from(k), 16.0 - f64::from(k)))
            .collect(),
        // A staircase of half-overlapping intervals.
        (0..10)
            .map(|k| iv(f64::from(k), f64::from(k) + 1.5))
            .collect(),
        // Points only.
        (0..5)
            .map(|k| TimeInterval::point(Timestamp::from_secs(f64::from(k % 2))))
            .collect(),
        // Two far-apart cliques of different sizes.
        vec![
            iv(0.0, 1.0),
            iv(0.2, 1.2),
            iv(0.4, 1.4),
            iv(100.0, 101.0),
            iv(100.5, 101.5),
        ],
        // Shared endpoints everywhere.
        vec![iv(0.0, 5.0), iv(5.0, 10.0), iv(0.0, 10.0), iv(5.0, 5.0)],
    ];
    for (k, intervals) in cases.into_iter().enumerate() {
        let sweep = best_intersection(&intervals).unwrap();
        let (bf_cover, bf_region) = brute_force(&intervals);
        assert_eq!(sweep.coverage, bf_cover, "case {k}: coverage");
        assert_eq!(sweep.best().interval, bf_region, "case {k}: region");
        // Membership count always equals the coverage.
        for region in &sweep.regions {
            assert_eq!(region.members.len(), sweep.coverage, "case {k}");
        }
    }
}

#[test]
fn degenerate_widths_match() {
    // Zero-width intervals stacked with wide ones.
    let iv =
        |lo: f64, hi: f64| TimeInterval::new(Timestamp::from_secs(lo), Timestamp::from_secs(hi));
    let intervals = vec![
        iv(2.0, 2.0),
        iv(2.0, 2.0),
        iv(0.0, 4.0),
        iv(2.0, 6.0),
        TimeInterval::from_center_radius(Timestamp::from_secs(2.0), Duration::ZERO),
    ];
    let sweep = best_intersection(&intervals).unwrap();
    let (bf_cover, bf_region) = brute_force(&intervals);
    assert_eq!(sweep.coverage, bf_cover);
    assert_eq!(sweep.best().interval, bf_region);
    assert_eq!(sweep.coverage, 5);
}

/// Every fault budget, `f = 0` through `f = n` (which tolerates every
/// source and so answers `None`), against the brute-force hull.
fn tolerating_matches_for_every_f(intervals: &[TimeInterval]) {
    for max_faulty in 0..=intervals.len() {
        // Bit patterns, so a `-0.0` edge must not come back as `+0.0`.
        let bits = |iv: TimeInterval| (iv.lo().as_secs().to_bits(), iv.hi().as_secs().to_bits());
        let got = intersect_tolerating(intervals, max_faulty).map(bits);
        let want = brute_force_tolerating(intervals, max_faulty).map(bits);
        assert_eq!(got, want, "f = {max_faulty} of {}", intervals.len());
    }
}

/// The sweep keeps up to 32 sources' endpoints on the stack and moves
/// to the heap past that: 33–64 sources, with shared endpoints and
/// verbatim duplicates, exercise the heap side.
#[test]
fn sweep_matches_brute_force_past_the_stack_cutoff() {
    check("sweep_matches_brute_force_past_the_stack_cutoff", 64, |g| {
        let intervals = g.vec(33..=64, |g| {
            let (lo, w) = (g.int(0u32..60), zero_or(g, |g| g.int(0u32..12)));
            let lo = f64::from(lo) * 0.5;
            let hi = lo + f64::from(w) * 0.5;
            TimeInterval::new(Timestamp::from_secs(lo), Timestamp::from_secs(hi))
        });
        let sweep = best_intersection(&intervals).expect("non-empty input");
        let (bf_cover, bf_region) = brute_force(&intervals);
        assert_eq!(sweep.coverage, bf_cover);
        assert_eq!(sweep.best().interval, bf_region);
        for region in &sweep.regions {
            assert_eq!(region.members.len(), sweep.coverage);
        }
        tolerating_matches_for_every_f(&intervals);
    });
}

#[test]
fn tolerating_matches_brute_force_for_every_f() {
    check("tolerating_matches_brute_force_for_every_f", 256, |g| {
        let intervals = arb_degenerate_intervals(g);
        tolerating_matches_for_every_f(&intervals);
    });
}

/// `Timestamp`'s order is `f64::total_cmp`, so `-0.0` sorts strictly
/// before `+0.0`: an interval ending at `-0.0` and one starting at
/// `+0.0` do not touch. The sweep must order the two zeros the way
/// `TimeInterval::contains` does, on both sides of the stack cutoff.
#[test]
fn signed_zero_endpoints_match() {
    const GRID: [f64; 6] = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0];
    check("signed_zero_endpoints_match", 256, |g| {
        let n = if g.bool() {
            g.int(1usize..=12)
        } else {
            g.int(33usize..=40)
        };
        let intervals: Vec<TimeInterval> = (0..n)
            .map(|_| {
                let (a, b) = (*g.pick(&GRID), *g.pick(&GRID));
                let (lo, hi) = if a.total_cmp(&b).is_le() {
                    (a, b)
                } else {
                    (b, a)
                };
                TimeInterval::new(Timestamp::from_secs(lo), Timestamp::from_secs(hi))
            })
            .collect();
        let sweep = best_intersection(&intervals).expect("non-empty input");
        // `brute_force` dedups its candidates with `==`, which merges the
        // two zeros; maximum coverage is always reached at a trailing
        // edge, so read it at every one instead.
        let cover = |t: Timestamp| intervals.iter().filter(|iv| iv.contains(t)).count();
        let starts = intervals.iter().map(|iv| iv.lo());
        let max_cover = starts.clone().map(cover).max().expect("non-empty");
        assert_eq!(sweep.coverage, max_cover);
        // The earliest point of maximum coverage is a trailing edge.
        let first = starts
            .filter(|&t| cover(t) == max_cover)
            .min()
            .expect("attained");
        assert_eq!(
            sweep.best().interval.lo().as_secs().to_bits(),
            first.as_secs().to_bits()
        );
        for region in &sweep.regions {
            assert_eq!(region.members.len(), sweep.coverage);
        }
        tolerating_matches_for_every_f(&intervals);
    });
}
