//! Experiment E15 (extension) — message-loss robustness.
//!
//! The paper's §1 pitch is that a time service needs no connection
//! state: requests and replies are independent datagrams, so loss only
//! costs freshness, never safety. This experiment sweeps the loss rate
//! and verifies the graceful degradation: correctness violations stay
//! at zero while claimed errors grow with the fraction of failed
//! rounds.

use std::fmt;

use tempo_core::Duration;
use tempo_net::DelayModel;
use tempo_service::Strategy;

use super::Verdict;
use crate::report::{secs, Table};
use crate::scenario::{Scenario, ServerSpec};

/// One loss rate's outcome.
#[derive(Debug, Clone, Copy)]
pub struct LossRow {
    /// The per-message loss probability.
    pub loss: f64,
    /// Messages actually lost over the run.
    pub lost: usize,
    /// Correctness violations (safety — must be zero at any loss rate).
    pub violations: usize,
    /// Mean claimed error at the end of the run (seconds) —
    /// the freshness cost.
    pub final_mean_error: f64,
    /// Worst asynchronism over the run (seconds).
    pub asynchronism: f64,
}

/// Results of E15.
#[derive(Debug, Clone)]
pub struct LossSweep {
    /// Strategy under test.
    pub strategy: Strategy,
    /// One row per loss rate.
    pub rows: Vec<LossRow>,
}

fn run_loss(strategy: Strategy, loss: f64, seed: u64) -> LossRow {
    let delta = 1e-4;
    let mut scenario = Scenario::new(strategy)
        .delay(DelayModel::Uniform {
            min: Duration::ZERO,
            max: Duration::from_millis(5.0),
        })
        .loss(loss)
        .resync_period(Duration::from_secs(10.0))
        .collect_window(Duration::from_secs(0.5))
        .duration(Duration::from_secs(400.0))
        .sample_interval(Duration::from_secs(4.0))
        .seed(seed);
    for i in 0..5 {
        let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
        scenario = scenario.server(ServerSpec::honest(sign * 0.6 * delta, delta));
    }
    let result = scenario.run();
    LossRow {
        loss,
        lost: result.net.lost,
        violations: result.correctness_violations(),
        final_mean_error: result.last().mean_error().as_secs(),
        asynchronism: result.max_asynchronism().as_secs(),
    }
}

/// Runs E15 for IM over loss rates up to 50 %.
#[must_use]
pub fn loss_sweep() -> LossSweep {
    let strategy = Strategy::Im;
    let rows = [0.0, 0.05, 0.15, 0.30, 0.50]
        .into_iter()
        .enumerate()
        .map(|(k, loss)| run_loss(strategy, loss, 700 + k as u64))
        .collect();
    LossSweep { strategy, rows }
}

impl Verdict for LossSweep {
    /// Safety at every loss rate; freshness (claimed error) degrades
    /// monotonically-ish with loss.
    fn reproduces_shape(&self) -> bool {
        let safe = self.rows.iter().all(|r| r.violations == 0);
        let degrades = match (self.rows.first(), self.rows.last()) {
            (Some(clean), Some(lossy)) => lossy.final_mean_error >= clean.final_mean_error,
            _ => false,
        };
        safe && degrades
    }
}

impl fmt::Display for LossSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E15 — message loss robustness ({} over 400 s, 5 servers)",
            self.strategy
        )?;
        let mut table = Table::new(vec!["loss", "lost msgs", "viol", "final mean E", "asynch"]);
        for r in &self.rows {
            table.row(vec![
                format!("{:.0}%", r.loss * 100.0),
                r.lost.to_string(),
                r.violations.to_string(),
                secs(r.final_mean_error),
                secs(r.asynchronism),
            ]);
        }
        write!(f, "{table}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heavy_loss_is_safe_but_stale() {
        let clean = run_loss(Strategy::Im, 0.0, 3);
        let lossy = run_loss(Strategy::Im, 0.5, 3);
        assert_eq!(clean.violations, 0);
        assert_eq!(lossy.violations, 0, "loss must never break correctness");
        assert!(lossy.lost > 100);
        assert!(
            lossy.final_mean_error >= clean.final_mean_error,
            "loss should cost freshness: {} vs {}",
            lossy.final_mean_error,
            clean.final_mean_error
        );
    }

    #[test]
    fn mm_is_also_safe_under_loss() {
        let row = run_loss(Strategy::Mm, 0.4, 5);
        assert_eq!(row.violations, 0);
    }
}
