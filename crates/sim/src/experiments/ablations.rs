//! Ablations A1 and A2.
//!
//! * A1 compares the three interval combiners — plain IM intersection,
//!   the fault-tolerant Marzullo sweep, and the NTP-style selection —
//!   under injected faulty intervals.
//! * A2 races every synchronization strategy (MM, IM, Marzullo, max,
//!   median, mean) on identical deployments, clean and faulty.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tempo_clocks::Fault;
use tempo_core::marzullo::intersect_tolerating;
use tempo_core::ntp::select;
use tempo_core::{DriftRate, Duration, TimeInterval, Timestamp};
use tempo_net::DelayModel;
use tempo_service::{BaselineKind, ScreeningPolicy, Strategy};

use super::Verdict;
use crate::report::{secs, Table};
use crate::scenario::{Scenario, ServerSpec};

/// One row of A1: a combiner's behaviour at a given number of faulty
/// sources.
#[derive(Debug, Clone)]
pub struct CombinerRow {
    /// Number of faulty sources (out of [`MarzulloAblation::n`]).
    pub faulty: usize,
    /// Combiner name.
    pub combiner: &'static str,
    /// Fraction of trials producing any answer.
    pub success_rate: f64,
    /// Fraction of trials whose answer contained the true time.
    pub containment_rate: f64,
    /// Mean half-width of the produced interval (successful trials).
    pub mean_half_width: f64,
}

/// Results of A1.
#[derive(Debug, Clone)]
pub struct MarzulloAblation {
    /// Sources per trial.
    pub n: usize,
    /// Trials per configuration.
    pub trials: usize,
    /// One row per (faulty, combiner).
    pub rows: Vec<CombinerRow>,
}

/// Runs A1: `n = 7` sources per trial; `k` of them are faulty (their
/// interval excludes true time entirely); the rest are honest intervals
/// containing it.
#[must_use]
pub fn marzullo_ablation() -> MarzulloAblation {
    let n = 7;
    let trials = 300;
    let mut rng = StdRng::seed_from_u64(404);
    let mut rows = Vec::new();

    for faulty in 0..=3usize {
        let mut stats: Vec<(usize, usize, f64, usize)> = vec![(0, 0, 0.0, 0); 3];
        for _ in 0..trials {
            let true_time = Timestamp::from_secs(rng.random_range(100.0..200.0));
            let mut intervals = Vec::with_capacity(n);
            for i in 0..n {
                if i < faulty {
                    // Far from true time, narrow enough to exclude it.
                    let off = rng.random_range(10.0..50.0)
                        * if rng.random::<bool>() { 1.0 } else { -1.0 };
                    let half = rng.random_range(0.1..2.0);
                    intervals.push(TimeInterval::from_center_radius(
                        true_time + Duration::from_secs(off),
                        Duration::from_secs(half),
                    ));
                } else {
                    // Honest sources: true time inside, and midpoints
                    // clustered near it (offset ≤ 0.4·half). NTP's
                    // midpoint rule rejects honest-but-scattered
                    // configurations outright, so keeping midpoints
                    // tight isolates the falseticker effect (the
                    // availability cost of the midpoint rule is still
                    // visible in the success column).
                    let half = rng.random_range(0.5..3.0);
                    let off = rng.random_range(-0.4..0.4) * half;
                    intervals.push(TimeInterval::from_center_radius(
                        true_time + Duration::from_secs(off),
                        Duration::from_secs(half),
                    ));
                }
            }
            let candidates: [Option<TimeInterval>; 3] = [
                TimeInterval::intersect_all(&intervals),
                intersect_tolerating(&intervals, faulty.max(1).min(n - 1)),
                select(&intervals).map(|sel| sel.interval()),
            ];
            for (s, cand) in stats.iter_mut().zip(candidates) {
                if let Some(iv) = cand {
                    s.0 += 1;
                    if iv.contains(true_time) {
                        s.1 += 1;
                    }
                    s.2 += iv.radius().as_secs();
                    s.3 += 1;
                }
            }
        }
        for (idx, name) in ["plain ∩ (IM)", "Marzullo(f)", "NTP select"]
            .into_iter()
            .enumerate()
        {
            let (succ, contained, width_sum, width_n) = stats[idx];
            rows.push(CombinerRow {
                faulty,
                combiner: name,
                success_rate: succ as f64 / trials as f64,
                containment_rate: contained as f64 / trials as f64,
                mean_half_width: if width_n > 0 {
                    width_sum / width_n as f64
                } else {
                    f64::NAN
                },
            });
        }
    }
    MarzulloAblation { n, trials, rows }
}

impl Verdict for MarzulloAblation {
    /// The expected shape: with zero faults all combiners contain true
    /// time; with faults, plain intersection collapses while
    /// Marzullo(f) keeps succeeding.
    fn reproduces_shape(&self) -> bool {
        let get = |faulty: usize, name: &str| {
            self.rows
                .iter()
                .find(|r| r.faulty == faulty && r.combiner == name)
                .expect("row exists")
        };
        get(0, "plain ∩ (IM)").containment_rate > 0.99
            && get(2, "plain ∩ (IM)").success_rate < 0.05
            && get(2, "Marzullo(f)").containment_rate > 0.95
    }
}

impl fmt::Display for MarzulloAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "A1 — interval combiners under faults ({} sources, {} trials)",
            self.n, self.trials
        )?;
        let mut table = Table::new(vec![
            "faulty",
            "combiner",
            "success",
            "contains t",
            "half-width",
        ]);
        for r in &self.rows {
            table.row(vec![
                r.faulty.to_string(),
                r.combiner.to_string(),
                format!("{:.0}%", r.success_rate * 100.0),
                format!("{:.0}%", r.containment_rate * 100.0),
                if r.mean_half_width.is_nan() {
                    "-".to_string()
                } else {
                    secs(r.mean_half_width)
                },
            ]);
        }
        write!(f, "{table}")
    }
}

/// One row of A2: a strategy's end-to-end behaviour.
#[derive(Debug, Clone)]
pub struct StrategyRow {
    /// Strategy name.
    pub strategy: String,
    /// Whether a faulty server was present.
    pub with_fault: bool,
    /// Correctness violations of *honest* servers over the run.
    pub honest_violations: usize,
    /// Worst asynchronism among honest servers after warm-up (seconds).
    pub honest_asynch: f64,
    /// Mean claimed error at the end of the run (seconds).
    pub final_mean_error: f64,
}

/// Results of A2.
#[derive(Debug, Clone)]
pub struct StrategyComparison {
    /// One row per (strategy, fault presence).
    pub rows: Vec<StrategyRow>,
}

fn run_strategy(strategy: Strategy, with_fault: bool, seed: u64) -> StrategyRow {
    let delta = 1e-4;
    let mut scenario = Scenario::new(strategy)
        .delay(DelayModel::Uniform {
            min: Duration::ZERO,
            max: Duration::from_millis(5.0),
        })
        .resync_period(Duration::from_secs(10.0))
        .collect_window(Duration::from_secs(0.5))
        .duration(Duration::from_secs(300.0))
        .sample_interval(Duration::from_secs(2.0))
        .seed(seed);
    for i in 0..4 {
        let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
        scenario = scenario.server(ServerSpec::honest(sign * delta * 0.5, delta));
    }
    // The fifth server either behaves or races wildly from t = 50 s.
    let fifth = if with_fault {
        ServerSpec::honest(0.0, delta).fault(Fault::racing_from(Timestamp::from_secs(50.0), 0.05))
    } else {
        ServerSpec::honest(0.0, delta)
    };
    scenario = scenario.server(fifth);
    let result = scenario.run();

    let honest = 0..4usize;
    let warmup = Timestamp::from_secs(30.0);
    let mut honest_violations = 0;
    let mut honest_asynch = 0.0f64;
    for row in &result.samples {
        for i in honest.clone() {
            if !row.per_server[i].correct {
                honest_violations += 1;
            }
        }
        if row.t >= warmup {
            for i in honest.clone() {
                for j in honest.clone() {
                    if i < j {
                        let a = (row.per_server[i].clock - row.per_server[j].clock)
                            .abs()
                            .as_secs();
                        honest_asynch = honest_asynch.max(a);
                    }
                }
            }
        }
    }
    let final_mean_error = result.last().mean_error().as_secs();
    StrategyRow {
        strategy: strategy.name().to_string(),
        with_fault,
        honest_violations,
        honest_asynch,
        final_mean_error,
    }
}

/// Runs A2 for every strategy, with and without the racing server.
#[must_use]
pub fn strategy_comparison() -> StrategyComparison {
    let strategies = [
        Strategy::Mm,
        Strategy::Im,
        Strategy::MarzulloTolerant { max_faulty: 1 },
        Strategy::Baseline(BaselineKind::LamportMax),
        Strategy::Baseline(BaselineKind::Median),
        Strategy::Baseline(BaselineKind::Mean),
    ];
    let mut rows = Vec::new();
    for (k, &s) in strategies.iter().enumerate() {
        rows.push(run_strategy(s, false, 500 + k as u64));
    }
    for (k, &s) in strategies.iter().enumerate() {
        rows.push(run_strategy(s, true, 600 + k as u64));
    }
    StrategyComparison { rows }
}

impl Verdict for StrategyComparison {
    /// The headline expectations: interval-based strategies keep honest
    /// servers correct even with the racing peer; Lamport-max does not.
    fn reproduces_shape(&self) -> bool {
        let get = |name: &str, with_fault: bool| {
            self.rows
                .iter()
                .find(|r| r.strategy == name && r.with_fault == with_fault)
                .expect("row exists")
        };
        get("MM", true).honest_violations == 0
            && get("Marzullo", true).honest_violations == 0
            && get("max", true).honest_violations > 0
    }
}

impl fmt::Display for StrategyComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "A2 — strategies on identical deployments (4 honest + 1 optional racer)"
        )?;
        let mut table = Table::new(vec![
            "strategy",
            "faulty peer",
            "honest violations",
            "honest asynch",
            "final mean E",
        ]);
        for r in &self.rows {
            table.row(vec![
                r.strategy.clone(),
                r.with_fault.to_string(),
                r.honest_violations.to_string(),
                secs(r.honest_asynch),
                secs(r.final_mean_error),
            ]);
        }
        write!(f, "{table}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_intersection_fails_under_faults_marzullo_survives() {
        let a = marzullo_ablation();
        assert!(a.reproduces_shape(), "{a}");
    }

    #[test]
    fn clean_deployments_work_for_every_strategy() {
        for (k, s) in [
            Strategy::Mm,
            Strategy::Im,
            Strategy::MarzulloTolerant { max_faulty: 1 },
        ]
        .into_iter()
        .enumerate()
        {
            let row = run_strategy(s, false, 700 + k as u64);
            assert_eq!(row.honest_violations, 0, "{}", row.strategy);
        }
    }

    #[test]
    fn racing_peer_corrupts_max_but_not_mm() {
        let max = run_strategy(Strategy::Baseline(BaselineKind::LamportMax), true, 801);
        assert!(max.honest_violations > 0, "max must be corrupted: {max:?}");
        let mm = run_strategy(Strategy::Mm, true, 802);
        assert_eq!(mm.honest_violations, 0, "MM must resist: {mm:?}");
    }
}

/// One row of A4: the §4 subtle-drift attack with and without §5 rate
/// screening.
#[derive(Debug, Clone)]
pub struct ScreeningRow {
    /// Strategy under attack.
    pub strategy: String,
    /// Whether §5 screening was on.
    pub screening: bool,
    /// Correctness violations among honest servers.
    pub honest_violations: usize,
    /// Worst honest true offset (seconds).
    pub worst_honest_offset: f64,
    /// Replies dropped by screening across honest servers.
    pub screened_replies: usize,
}

/// Results of A4.
#[derive(Debug, Clone)]
pub struct ScreeningAblation {
    /// One row per (strategy, screening) pair.
    pub rows: Vec<ScreeningRow>,
}

fn run_screening(strategy: Strategy, screening: bool, seed: u64) -> ScreeningRow {
    let delta = 1e-4;
    // The §4 attack: a peer drifting at 5 %/s — wildly past its claimed
    // bound — that *resets itself from honest peers* each round and so
    // spends the start of every sawtooth consistent-but-incorrect.
    let mut scenario = Scenario::new(strategy)
        .delay(DelayModel::Uniform {
            min: Duration::ZERO,
            max: Duration::from_millis(5.0),
        })
        .resync_period(Duration::from_secs(10.0))
        .collect_window(Duration::from_secs(0.5))
        .duration(Duration::from_secs(300.0))
        .sample_interval(Duration::from_secs(1.0))
        .seed(seed);
    if screening {
        scenario = scenario.screening(ScreeningPolicy::Consonance {
            peer_bound: DriftRate::new(delta),
            sample_noise: Duration::from_millis(10.0),
        });
    }
    for i in 0..4 {
        let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
        scenario = scenario.server(ServerSpec::honest(sign * delta * 0.3, delta));
    }
    scenario = scenario.server(
        ServerSpec::honest(0.0, delta).fault(Fault::racing_from(Timestamp::from_secs(20.0), 0.05)),
    );
    let result = scenario.run();

    let mut honest_violations = 0;
    let mut worst = 0.0f64;
    for row in &result.samples {
        for i in 0..4 {
            if !row.per_server[i].correct {
                honest_violations += 1;
            }
            worst = worst.max(row.per_server[i].true_offset.abs().as_secs());
        }
    }
    ScreeningRow {
        strategy: strategy.name().to_string(),
        screening,
        honest_violations,
        worst_honest_offset: worst,
        screened_replies: result.final_stats[..4].iter().map(|s| s.screened).sum(),
    }
}

/// Runs A4: IM and Marzullo(1) against the subtle-drift attacker, with
/// screening off and on.
#[must_use]
pub fn screening_ablation() -> ScreeningAblation {
    let mut rows = Vec::new();
    for (k, strategy) in [Strategy::Im, Strategy::MarzulloTolerant { max_faulty: 1 }]
        .into_iter()
        .enumerate()
    {
        rows.push(run_screening(strategy, false, 900 + k as u64));
        rows.push(run_screening(strategy, true, 900 + k as u64));
    }
    ScreeningAblation { rows }
}

impl Verdict for ScreeningAblation {
    /// The expected shape: screening detects the attacker by rate and
    /// keeps every configuration violation-free; IM — which has no
    /// fault budget — is dragged several times further off true time
    /// without screening than with it; and Marzullo's `f`-tolerant
    /// hull keeps honest servers correct even with screening off (the
    /// attacker is a single faulty source within the budget).
    fn reproduces_shape(&self) -> bool {
        let get = |screening: bool, prefix: &str| {
            self.rows
                .iter()
                .find(|r| r.screening == screening && r.strategy.starts_with(prefix))
                .expect("A4 always runs both strategies both ways")
        };
        let screened_active = self
            .rows
            .iter()
            .filter(|r| r.screening)
            .all(|r| r.honest_violations == 0 && r.screened_replies > 0);
        let im_rescued =
            get(false, "IM").worst_honest_offset > 2.0 * get(true, "IM").worst_honest_offset;
        let hull_safe = get(false, "Marzullo").honest_violations == 0;
        screened_active && im_rescued && hull_safe
    }
}

impl fmt::Display for ScreeningAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "A4 — §5 rate screening vs the §4 subtle-drift attacker")?;
        let mut table = Table::new(vec![
            "strategy",
            "screening",
            "honest violations",
            "worst offset",
            "screened",
        ]);
        for r in &self.rows {
            table.row(vec![
                r.strategy.clone(),
                r.screening.to_string(),
                r.honest_violations.to_string(),
                secs(r.worst_honest_offset),
                r.screened_replies.to_string(),
            ]);
        }
        write!(f, "{table}")
    }
}

#[cfg(test)]
mod screening_tests {
    use super::*;

    #[test]
    fn screening_neutralises_the_subtle_attacker() {
        let a = screening_ablation();
        assert!(a.reproduces_shape(), "{a}");
    }
}
