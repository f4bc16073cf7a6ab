//! Property tests for the §5 consonance machinery.

use tempo_check::check;

use tempo_core::consonance::{
    are_consonant, find_dissonant, rate_intersection, separation_rate, RateInterval,
    RateObservation,
};
use tempo_core::{DriftRate, Timestamp};

/// `separation_rate` recovers a constant relative rate exactly,
/// whatever the baseline and starting values.
#[test]
fn separation_rate_recovers_constant_rate() {
    check("separation_rate_recovers_constant_rate", 256, |g| {
        let rate = g.f64(-0.05..0.05);
        let start_i = g.f64(-100.0..100.0);
        let start_j = g.f64(-100.0..100.0);
        let baseline = g.f64(1.0..10_000.0);
        let ts = Timestamp::from_secs;
        let first = (ts(start_i), ts(start_j));
        let second = (
            ts(start_i + baseline * (1.0 + rate)),
            ts(start_j + baseline),
        );
        let measured = separation_rate(first, second);
        assert!(
            (measured - rate).abs() < 1e-9,
            "measured {measured} vs {rate}"
        );
    });
}

/// Consonance is symmetric in the two bounds and monotone in the
/// magnitude of the separation rate.
#[test]
fn consonance_symmetry_and_monotonicity() {
    check("consonance_symmetry_and_monotonicity", 256, |g| {
        let rate = g.f64(-0.01..0.01);
        let di = g.f64(0.0..0.005);
        let dj = g.f64(0.0..0.005);
        let di = DriftRate::new(di);
        let dj = DriftRate::new(dj);
        assert_eq!(are_consonant(rate, di, dj), are_consonant(rate, dj, di));
        assert_eq!(are_consonant(rate, di, dj), are_consonant(-rate, di, dj));
        if are_consonant(rate, di, dj) {
            assert!(are_consonant(rate / 2.0, di, dj));
        }
    });
}

/// Two clocks whose actual drifts respect their claimed bounds are
/// always consonant (the rate analogue of "correct ⇒ consistent").
#[test]
fn honest_rates_are_consonant() {
    check("honest_rates_are_consonant", 256, |g| {
        let drift_i = g.f64(-0.004..0.004);
        let drift_j = g.f64(-0.004..0.004);
        let bound_slack = g.f64(0.0..0.001);
        let di = DriftRate::new(drift_i.abs() + bound_slack);
        let dj = DriftRate::new(drift_j.abs() + bound_slack);
        // Separation rate of clocks drifting at drift_i and drift_j is
        // approximately drift_i − drift_j.
        let sep = drift_i - drift_j;
        assert!(are_consonant(sep, di, dj));
    });
}

/// `find_dissonant` flags exactly the observations whose intervals
/// miss the claimed `[−δ, δ]`.
#[test]
fn find_dissonant_matches_interval_test() {
    check("find_dissonant_matches_interval_test", 256, |g| {
        let observations = g.vec(1..10, |g| (g.f64(-0.01..0.01), g.f64(0.0..0.002)));
        let bound = g.f64(1e-5..0.005);
        let claimed: Vec<DriftRate> = vec![DriftRate::new(bound); observations.len()];
        let obs: Vec<RateObservation> = observations
            .iter()
            .map(|&(r, u)| RateObservation::new(r, u))
            .collect();
        let flagged = find_dissonant(&obs, &claimed);
        for (i, o) in obs.iter().enumerate() {
            let disjoint = !o
                .interval()
                .intersects(&RateInterval::from_bound(claimed[i]));
            assert_eq!(flagged.contains(&i), disjoint, "index {}", i);
        }
    });
}

/// The rate-interval Marzullo agrees with pairwise logic: if all
/// intervals pairwise intersect at a common point (they all contain
/// some rate r), the sweep reports full coverage.
#[test]
fn rate_intersection_full_coverage_when_common_point() {
    check(
        "rate_intersection_full_coverage_when_common_point",
        256,
        |g| {
            let r = g.f64(-0.01..0.01);
            let halfwidths = g.vec(1..10, |g| g.f64(1e-6..0.005));
            let offsets = g.vec(10..=10, |g| g.f64(-1.0..1.0));
            let rates: Vec<RateInterval> = halfwidths
                .iter()
                .enumerate()
                .map(|(i, &h)| {
                    let off = offsets[i % offsets.len()] * h;
                    RateInterval::new(r + off - h, r + off + h)
                })
                .collect();
            // Every interval contains r (|off| ≤ h), so coverage is full.
            let (best, result) = rate_intersection(&rates).unwrap();
            assert_eq!(result.coverage, rates.len());
            assert!(
                best.contains(r) || (best.lo() - r).abs() < 1e-12 || (best.hi() - r).abs() < 1e-12
            );
        },
    );
}
