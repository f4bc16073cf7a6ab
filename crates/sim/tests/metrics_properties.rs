//! Property tests over the metrics layer driven by real (small)
//! scenario runs: internal consistency of every statistic the
//! experiment library relies on.

use tempo_check::check;

use tempo_core::{Duration, Timestamp};
use tempo_service::Strategy;
use tempo_sim::metrics::summarize;
use tempo_sim::{Scenario, ServerSpec};

/// Row statistics are internally consistent on real runs.
#[test]
fn row_statistics_are_consistent() {
    check("row_statistics_are_consistent", 16, |g| {
        let n = g.int(2usize..6);
        let seed = g.int(0u64..200);
        let strategy_pick = g.int(0u8..2);
        let strategy = if strategy_pick == 0 {
            Strategy::Mm
        } else {
            Strategy::Im
        };
        let result = Scenario::new(strategy)
            .servers(n, &ServerSpec::honest(4e-5, 1e-4))
            .duration(Duration::from_secs(80.0))
            .sample_interval(Duration::from_secs(4.0))
            .seed(seed)
            .run();
        for row in &result.samples {
            let min = row.min_error().as_secs();
            let mean = row.mean_error().as_secs();
            let max = row.max_error().as_secs();
            assert!(min <= mean + 1e-12 && mean <= max + 1e-12);
            assert!(row.asynchronism().as_secs() >= 0.0);
            // The most precise server really has the minimum error.
            let mp = row.most_precise();
            assert!((row.per_server[mp].error.as_secs() - min).abs() < 1e-15);
            // An honest service is consistent at every sample (§2.3).
            assert!(row.service_consistent());
            assert_eq!(row.groups().len(), 1);
            assert_eq!(row.incorrect_count(), 0);
            // Correct servers: |offset| ≤ claimed error.
            for s in &row.per_server {
                assert!(
                    s.true_offset.abs() <= s.error,
                    "offset {} exceeds error {}",
                    s.true_offset,
                    s.error
                );
            }
        }
        // Aggregates agree with per-row recomputation.
        let max_asynch = result
            .samples
            .iter()
            .map(|r| r.asynchronism().as_secs())
            .fold(0.0f64, f64::max);
        assert!((result.max_asynchronism().as_secs() - max_asynch).abs() < 1e-15);
        // Summaries are ordered.
        let s = result.asynchronism_summary(Timestamp::ZERO);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
    });
}

/// `summarize` is permutation-invariant and bounded by the extremes.
#[test]
fn summaries_are_sane() {
    check("summaries_are_sane", 16, |g| {
        let values = g.vec(1..80, |g| g.f64(0.0..100.0));
        let s = summarize(&values);
        let lo = values.iter().cloned().fold(f64::MAX, f64::min);
        let hi = values.iter().cloned().fold(f64::MIN, f64::max);
        assert!(s.p50 >= lo && s.max <= hi + 1e-12);
        assert_eq!(s.max, hi);
        let mut shuffled = values.clone();
        shuffled.reverse();
        let s2 = summarize(&shuffled);
        assert_eq!(s.p50, s2.p50);
        assert_eq!(s.p90, s2.p90);
        assert_eq!(s.p99, s2.p99);
    });
}

/// Sampling cadence: `run` produces exactly ⌊duration/interval⌋
/// rows at the expected instants.
#[test]
fn sampling_cadence() {
    check("sampling_cadence", 16, |g| {
        let duration = g.f64(20.0..120.0);
        let interval = g.f64(1.0..10.0);
        let result = Scenario::new(Strategy::Mm)
            .servers(2, &ServerSpec::honest(1e-5, 1e-4))
            .duration(Duration::from_secs(duration))
            .sample_interval(Duration::from_secs(interval))
            .run();
        let expected = (duration / interval).floor() as usize;
        // Floating accumulation may drop the final edge sample.
        assert!(
            result.samples.len() == expected || result.samples.len() + 1 == expected,
            "{} rows for duration {duration} interval {interval}",
            result.samples.len()
        );
        for (k, row) in result.samples.iter().enumerate() {
            let expected_t = interval * (k + 1) as f64;
            assert!((row.t.as_secs() - expected_t).abs() < 1e-6);
        }
    });
}
