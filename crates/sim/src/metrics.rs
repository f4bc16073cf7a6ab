//! Measurement of a finished run.
//!
//! Everything here exploits the simulator's superpower over the paper's
//! live deployment: real time is known exactly, so *correctness*
//! (`|C_i(t) − t| ≤ E_i(t)`) is checkable, not just *consistency*.

use tempo_core::consistency::{consistency_groups, ConsistencyGroup};
use tempo_core::{Duration, TimeInterval, Timestamp};
use tempo_net::NetStats;
use tempo_service::ServerStats;
use tempo_telemetry::SampleSnapshot;

/// All server samples taken at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRow {
    /// The real time of the snapshot.
    pub t: Timestamp,
    /// One sample per server, indexed by node id.
    pub per_server: Vec<SampleSnapshot>,
}

impl SampleRow {
    /// The largest pairwise clock separation `max |C_i − C_j|` at this
    /// instant — the paper's *asynchronism*.
    #[must_use]
    pub fn asynchronism(&self) -> Duration {
        let mut max = Duration::ZERO;
        for (i, a) in self.per_server.iter().enumerate() {
            for b in &self.per_server[i + 1..] {
                max = max.max((a.clock - b.clock).abs());
            }
        }
        max
    }

    /// The smallest claimed error in the service, `E_M(t)`.
    #[must_use]
    pub fn min_error(&self) -> Duration {
        self.per_server
            .iter()
            .map(|s| s.error)
            .fold(Duration::from_secs(f64::MAX / 4.0), Duration::min)
    }

    /// The largest claimed error in the service.
    #[must_use]
    pub fn max_error(&self) -> Duration {
        self.per_server
            .iter()
            .map(|s| s.error)
            .fold(Duration::ZERO, Duration::max)
    }

    /// Mean claimed error across servers.
    #[must_use]
    pub fn mean_error(&self) -> Duration {
        let total: Duration = self.per_server.iter().map(|s| s.error).sum();
        total / self.per_server.len() as f64
    }

    /// Index of the server with the smallest claimed error (`S_M`).
    #[must_use]
    pub fn most_precise(&self) -> usize {
        self.per_server
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.error)
            .map(|(i, _)| i)
            .expect("sample rows are never empty")
    }

    /// Number of servers whose claimed interval excludes real time.
    #[must_use]
    pub fn incorrect_count(&self) -> usize {
        self.per_server.iter().filter(|s| !s.correct).count()
    }

    /// The reported intervals `[C_i − E_i, C_i + E_i]`.
    #[must_use]
    pub fn intervals(&self) -> Vec<TimeInterval> {
        self.per_server
            .iter()
            .map(|s| s.estimate().interval())
            .collect()
    }

    /// Whether the whole service is consistent at this instant (one
    /// common point, §2.3).
    #[must_use]
    pub fn service_consistent(&self) -> bool {
        TimeInterval::intersect_all(&self.intervals()).is_some()
    }

    /// The consistency groups at this instant (Figure 4's shaded sets).
    #[must_use]
    pub fn groups(&self) -> Vec<ConsistencyGroup> {
        consistency_groups(&self.intervals())
    }
}

/// Percentile summary of a series of values (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

/// Summarises a set of values by percentiles (nearest-rank method).
///
/// # Panics
///
/// Panics on an empty input or non-finite values.
#[must_use]
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "cannot summarise an empty series");
    assert!(
        values.iter().all(|v| v.is_finite()),
        "series contains non-finite values"
    );
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = |p: f64| {
        let idx = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[idx - 1]
    };
    Summary {
        p50: rank(0.50),
        p90: rank(0.90),
        p99: rank(0.99),
        max: *sorted.last().expect("non-empty"),
    }
}

/// The full record of one scenario run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Time-ordered samples.
    pub samples: Vec<SampleRow>,
    /// Per-server protocol counters at the end of the run.
    pub final_stats: Vec<ServerStats>,
    /// Network counters.
    pub net: NetStats,
    /// Theorem-oracle findings, when the scenario armed one.
    pub oracle: Option<tempo_oracle::OracleReport>,
    /// The telemetry stream's length beyond 4,096 events: what a
    /// 4,096-event ring would evict. No ring is kept, and sinks see
    /// every event they subscribe to regardless.
    pub dropped_events: u64,
    /// The empirical round-trip witness: twice the worst one-way
    /// delay the network actually delivered. The paper's `ξ` is
    /// honest iff this never exceeds it.
    pub xi_witness: Duration,
}

impl RunResult {
    /// Total number of (server, sample) points at which a server was
    /// incorrect. The theorems promise zero for services with valid
    /// drift bounds.
    #[must_use]
    pub fn correctness_violations(&self) -> usize {
        self.samples.iter().map(SampleRow::incorrect_count).sum()
    }

    /// Per-server violation counts: how many sample instants each server
    /// spent incorrect. Fault-injection experiments use this to check
    /// the *non-faulty* servers specifically — a deliberately lying
    /// server is expected to be incorrect, its honest peers are not.
    #[must_use]
    pub fn violations_per_server(&self) -> Vec<usize> {
        let n = self.samples.first().map_or(0, |r| r.per_server.len());
        let mut counts = vec![0usize; n];
        for row in &self.samples {
            for (i, s) in row.per_server.iter().enumerate() {
                if !s.correct {
                    counts[i] += 1;
                }
            }
        }
        counts
    }

    /// Violations summed over the servers `is_faulty` does not name:
    /// the count a fault-injection experiment holds to zero.
    #[must_use]
    pub fn honest_violations(&self, is_faulty: impl Fn(usize) -> bool) -> usize {
        self.violations_per_server()
            .iter()
            .enumerate()
            .filter(|&(i, _)| !is_faulty(i))
            .map(|(_, &v)| v)
            .sum()
    }

    /// The worst asynchronism over the whole run.
    #[must_use]
    pub fn max_asynchronism(&self) -> Duration {
        self.samples
            .iter()
            .map(SampleRow::asynchronism)
            .fold(Duration::ZERO, Duration::max)
    }

    /// The worst asynchronism after `from` (useful to skip warm-up).
    #[must_use]
    pub fn max_asynchronism_after(&self, from: Timestamp) -> Duration {
        self.samples
            .iter()
            .filter(|r| r.t >= from)
            .map(SampleRow::asynchronism)
            .fold(Duration::ZERO, Duration::max)
    }

    /// Mean-claimed-error time series across all servers.
    #[must_use]
    pub fn mean_error_series(&self) -> Vec<(f64, f64)> {
        self.samples
            .iter()
            .map(|r| (r.t.as_secs(), r.mean_error().as_secs()))
            .collect()
    }

    /// True-offset time series of one server.
    #[must_use]
    pub fn offset_series(&self, server: usize) -> Vec<(f64, f64)> {
        self.samples
            .iter()
            .map(|r| (r.t.as_secs(), r.per_server[server].true_offset.as_secs()))
            .collect()
    }

    /// Least-squares slope of a `(t, y)` series, in y-units per second.
    ///
    /// # Panics
    ///
    /// Panics when the series has fewer than two points.
    #[must_use]
    pub fn slope(series: &[(f64, f64)]) -> f64 {
        assert!(series.len() >= 2, "slope needs at least two points");
        let n = series.len() as f64;
        let mean_t = series.iter().map(|p| p.0).sum::<f64>() / n;
        let mean_y = series.iter().map(|p| p.1).sum::<f64>() / n;
        let mut num = 0.0;
        let mut den = 0.0;
        for &(t, y) in series {
            num += (t - mean_t) * (y - mean_y);
            den += (t - mean_t) * (t - mean_t);
        }
        num / den
    }

    /// The last sample row.
    ///
    /// # Panics
    ///
    /// Panics when the run recorded no samples.
    #[must_use]
    pub fn last(&self) -> &SampleRow {
        self.samples.last().expect("run recorded no samples")
    }

    /// The first sample index at which `S_M` (the most precise server)
    /// settles on `server` and never changes again — Theorem 4's `t_x`.
    /// Returns `None` if it never settles there.
    #[must_use]
    pub fn settles_most_precise(&self, server: usize) -> Option<Timestamp> {
        let mut settled_at = None;
        for row in &self.samples {
            if row.most_precise() == server {
                if settled_at.is_none() {
                    settled_at = Some(row.t);
                }
            } else {
                settled_at = None;
            }
        }
        settled_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_core::TimeEstimate;

    fn sample(clock: f64, error: f64, offset: f64) -> SampleSnapshot {
        let estimate = TimeEstimate::new(Timestamp::from_secs(clock), Duration::from_secs(error));
        SampleSnapshot {
            clock: estimate.time(),
            error: estimate.error(),
            true_offset: Duration::from_secs(offset),
            correct: offset.abs() <= error,
            active: true,
        }
    }

    fn row(t: f64, samples: Vec<SampleSnapshot>) -> SampleRow {
        SampleRow {
            t: Timestamp::from_secs(t),
            per_server: samples,
        }
    }

    #[test]
    fn row_asynchronism_is_max_pairwise() {
        let r = row(
            10.0,
            vec![
                sample(10.0, 1.0, 0.0),
                sample(10.5, 1.0, 0.5),
                sample(9.8, 1.0, -0.2),
            ],
        );
        assert!((r.asynchronism().as_secs() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn row_error_statistics() {
        let r = row(
            0.0,
            vec![
                sample(0.0, 0.2, 0.0),
                sample(0.0, 0.6, 0.0),
                sample(0.0, 0.4, 0.0),
            ],
        );
        assert_eq!(r.min_error(), Duration::from_secs(0.2));
        assert_eq!(r.max_error(), Duration::from_secs(0.6));
        assert!((r.mean_error().as_secs() - 0.4).abs() < 1e-12);
        assert_eq!(r.most_precise(), 0);
    }

    #[test]
    fn row_incorrect_count_and_consistency() {
        let r = row(10.0, vec![sample(10.0, 0.5, 0.0), sample(12.0, 0.5, 2.0)]);
        assert_eq!(r.incorrect_count(), 1);
        // Intervals [9.5,10.5] and [11.5,12.5] are disjoint.
        assert!(!r.service_consistent());
        assert_eq!(r.groups().len(), 2);
    }

    #[test]
    fn run_aggregates() {
        let result = RunResult {
            samples: vec![
                row(1.0, vec![sample(1.0, 0.1, 0.0), sample(1.2, 0.3, 0.2)]),
                row(2.0, vec![sample(2.0, 0.2, 0.0), sample(2.5, 0.4, 0.5)]),
            ],
            final_stats: vec![],
            net: NetStats::default(),
            oracle: None,
            dropped_events: 0,
            xi_witness: Duration::ZERO,
        };
        assert!((result.max_asynchronism().as_secs() - 0.5).abs() < 1e-12);
        assert_eq!(
            result.max_asynchronism_after(Timestamp::from_secs(1.5)),
            Duration::from_secs(0.5)
        );
        assert_eq!(result.correctness_violations(), 1); // 0.5 > 0.4
        assert_eq!(result.violations_per_server(), vec![0, 1]);
        assert_eq!(result.honest_violations(|i| i == 1), 0);
        assert_eq!(result.honest_violations(|i| i == 0), 1);
        assert_eq!(result.offset_series(1), vec![(1.0, 0.2), (2.0, 0.5)]);
        assert_eq!(result.last().t, Timestamp::from_secs(2.0));
    }

    #[test]
    fn slope_fits_a_line() {
        let series: Vec<(f64, f64)> = (0..10)
            .map(|i| (f64::from(i), 3.0 + 0.5 * f64::from(i)))
            .collect();
        assert!((RunResult::slope(&series) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn summarize_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&values);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p90, 90.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.max, 100.0);
        let one = summarize(&[7.0]);
        assert_eq!(one.p50, 7.0);
        assert_eq!(one.max, 7.0);
    }

    #[test]
    #[should_panic(expected = "empty series")]
    fn summarize_rejects_empty() {
        let _ = summarize(&[]);
    }

    #[test]
    fn settles_most_precise_finds_stable_suffix() {
        let result = RunResult {
            samples: vec![
                row(1.0, vec![sample(0.0, 0.1, 0.0), sample(0.0, 0.2, 0.0)]),
                row(2.0, vec![sample(0.0, 0.3, 0.0), sample(0.0, 0.2, 0.0)]),
                row(3.0, vec![sample(0.0, 0.3, 0.0), sample(0.0, 0.25, 0.0)]),
            ],
            final_stats: vec![],
            net: NetStats::default(),
            oracle: None,
            dropped_events: 0,
            xi_witness: Duration::ZERO,
        };
        assert_eq!(
            result.settles_most_precise(1),
            Some(Timestamp::from_secs(2.0))
        );
        assert_eq!(result.settles_most_precise(0), None);
    }
}
