//! Experiment E7 — Theorem 4: the most *accurate* clock eventually
//! becomes the most *precise* one, no later than
//! `t_x⁰ = max_k (E_i(0) − E_k(0)) / (δ_k − δ_i)`.

use std::fmt;

use tempo_core::Duration;
use tempo_net::DelayModel;
use tempo_service::Strategy;

use super::Verdict;
use crate::metrics::RunResult;
use crate::report::secs;
use crate::scenario::{Scenario, ServerSpec};

/// The outcome of the convergence experiment.
#[derive(Debug, Clone)]
pub struct Convergence {
    /// Index of the most accurate server (smallest `δ`).
    pub accurate_server: usize,
    /// Initial errors per server (seconds).
    pub initial_errors: Vec<f64>,
    /// Claimed drift bounds per server.
    pub deltas: Vec<f64>,
    /// Theorem 4's worst-case settling time `t_x⁰` (seconds).
    pub predicted_tx: f64,
    /// When the accurate server became (and stayed) the most precise
    /// under the full MM protocol, if it did.
    pub observed_tx_mm: Option<f64>,
    /// The same instant with synchronization disabled (the theorem's
    /// no-reset baseline) — expected to land essentially *at* `t_x⁰`.
    pub observed_tx_free: Option<f64>,
    /// Correctness violations across both runs.
    pub violations: usize,
}

fn build(resync_period: f64, duration: f64) -> RunResult {
    let accurate_delta = 1e-5;
    let sloppy_delta = 1e-3;
    Scenario::new(Strategy::Mm)
        .server(ServerSpec::honest(0.5e-5, accurate_delta).initial_error(Duration::from_secs(2.0)))
        .server(ServerSpec::honest(0.5e-3, sloppy_delta).initial_error(Duration::from_secs(0.1)))
        .server(ServerSpec::honest(-0.5e-3, sloppy_delta).initial_error(Duration::from_secs(0.1)))
        .server(ServerSpec::honest(0.2e-3, sloppy_delta).initial_error(Duration::from_secs(0.1)))
        .delay(DelayModel::Uniform {
            min: Duration::ZERO,
            max: Duration::from_millis(5.0),
        })
        .resync_period(Duration::from_secs(resync_period))
        .duration(Duration::from_secs(duration))
        .sample_interval(Duration::from_secs(duration / 400.0))
        .seed(7)
        .run()
}

/// Runs E7.
///
/// The most accurate clock (`δ = 10⁻⁵`) starts with a *large* error
/// (2 s); three sloppier clocks (`δ = 10⁻³`) start tight (0.1 s).
/// Theorem 4 promises the accurate clock holds the minimum error from
/// `t_x⁰ ≈ 1919 s` at the latest. Two runs measure when it actually
/// happens:
///
/// * free-running (no resets): the errors grow linearly and cross
///   exactly at `t_x⁰`;
/// * full MM protocol: the accurate server *inherits* a small error at
///   its first reset and then out-grows everyone — settling orders of
///   magnitude sooner.
#[must_use]
pub fn convergence() -> Convergence {
    let accurate_delta = 1e-5;
    let sloppy_delta = 1e-3;
    let accurate_e0 = 2.0;
    let sloppy_e0 = 0.1;
    let predicted_tx = (accurate_e0 - sloppy_e0) / (sloppy_delta - accurate_delta);
    let duration = predicted_tx * 1.4;

    let mm = build(30.0, duration);
    let free = build(duration * 10.0, duration); // τ beyond the horizon

    Convergence {
        accurate_server: 0,
        initial_errors: vec![accurate_e0, sloppy_e0, sloppy_e0, sloppy_e0],
        deltas: vec![accurate_delta, sloppy_delta, sloppy_delta, sloppy_delta],
        predicted_tx,
        observed_tx_mm: mm.settles_most_precise(0).map(|t| t.as_secs()),
        observed_tx_free: free.settles_most_precise(0).map(|t| t.as_secs()),
        violations: mm.correctness_violations() + free.correctness_violations(),
    }
}

impl Verdict for Convergence {
    /// Theorem 4 holds: both runs settle on the accurate server no
    /// later than `t_x⁰` (plus one sampling interval of slack), and the
    /// free-running run lands essentially *at* the bound.
    fn reproduces_shape(&self) -> bool {
        let slack = self.predicted_tx * 1.01;
        let mm_ok = matches!(self.observed_tx_mm, Some(t) if t <= slack);
        let free_ok =
            matches!(self.observed_tx_free, Some(t) if t <= slack && t >= self.predicted_tx * 0.95);
        mm_ok && free_ok && self.violations == 0
    }
}

impl fmt::Display for Convergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Theorem 4 — convergence to the most accurate clock (server S{})",
            self.accurate_server + 1
        )?;
        for (i, (e0, d)) in self.initial_errors.iter().zip(&self.deltas).enumerate() {
            writeln!(f, "  S{}: E(0) = {}, δ = {:.0e}", i + 1, secs(*e0), d)?;
        }
        writeln!(f, "  predicted t_x ≤ {}", secs(self.predicted_tx))?;
        let show = |o: Option<f64>| o.map_or_else(|| "never (!)".to_string(), secs);
        writeln!(
            f,
            "  observed, free-running: {}",
            show(self.observed_tx_free)
        )?;
        writeln!(f, "  observed, MM protocol:  {}", show(self.observed_tx_mm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn most_accurate_becomes_most_precise_before_tx() {
        let c = convergence();
        assert_eq!(c.violations, 0);
        let mm = c.observed_tx_mm.expect("MM service must settle");
        let free = c.observed_tx_free.expect("free-running must settle");
        assert!(
            mm <= c.predicted_tx,
            "MM settled at {mm}, bound {}",
            c.predicted_tx
        );
        // The free-running crossover lands essentially at t_x⁰.
        assert!(
            (free - c.predicted_tx).abs() <= c.predicted_tx * 0.05,
            "free-running settled at {free}, expected ≈{}",
            c.predicted_tx
        );
        // The protocol settles dramatically sooner than the bound.
        assert!(mm < c.predicted_tx / 10.0);
        assert!(c.reproduces_shape());
        assert!(c.to_string().contains("Theorem 4"));
    }
}
