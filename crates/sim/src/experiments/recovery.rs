//! Experiment E10 — the §3 recovery anecdote.
//!
//! "In one experiment there was a network of two servers in which one
//! server assumed its maximum drift rate was bounded by one second a day
//! and whose actual drift rate was closer to one hour a day (about four
//! percent fast). Each time either of the two clocks decided to reset,
//! it found itself inconsistent with its neighbor and obtained the time
//! from a server on some other network. The main problem was that the
//! servers did not check their neighbor very often, so the time of the
//! inaccurate clock would be very far off by the time it reset."

use std::fmt;

use tempo_clocks::DriftModel;
use tempo_core::{DriftRate, Duration};
use tempo_net::{DelayModel, Topology};
use tempo_service::{RecoveryPolicy, Strategy};

use super::Verdict;
use crate::report::{secs, Table};
use crate::scenario::{Scenario, ServerSpec};

/// One run of the recovery scenario at a given resync period.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryRow {
    /// The resync period `τ` (seconds).
    pub tau: f64,
    /// Whether §3 recovery was enabled.
    pub recovery_enabled: bool,
    /// Recoveries started by the inaccurate server.
    pub recoveries_started: usize,
    /// Recoveries applied (third-server value adopted).
    pub recoveries_applied: usize,
    /// The inaccurate server's worst true offset during the run
    /// (seconds).
    pub max_offset: f64,
    /// The excursion predicted by the anecdote: actual drift × τ
    /// (how far off the clock gets "by the time it reset").
    pub predicted_excursion: f64,
}

/// Results of E10.
#[derive(Debug, Clone)]
pub struct Recovery {
    /// The actual drift of the bad clock (the anecdote's ~4 %).
    pub actual_drift: f64,
    /// The (invalid) claimed bound (one second per day).
    pub claimed_bound: f64,
    /// One row per configuration.
    pub rows: Vec<RecoveryRow>,
}

fn run_recovery(tau: f64, enabled: bool, seed: u64) -> RecoveryRow {
    let actual_drift = 0.042; // ≈ one hour per day
    let claimed = DriftRate::per_day(1.0);

    // Two networks: A = {S0 (bad), S1}, B = {S2, S3}; both A-servers can
    // reach S2 across the gateway links — "a server on some other
    // network".
    let topology = Topology::from_edges(4, &[(0, 1), (2, 3), (0, 2), (1, 2)]);
    let duration = tau * 12.0;
    let scenario = Scenario::new(Strategy::Mm)
        .server(ServerSpec::new(DriftModel::Constant(actual_drift), claimed))
        .server(ServerSpec::honest(1e-6, claimed.as_f64()))
        .server(ServerSpec::honest(-1e-6, claimed.as_f64()))
        .server(ServerSpec::honest(0.5e-6, claimed.as_f64()))
        .topology(topology)
        .delay(DelayModel::Uniform {
            min: Duration::ZERO,
            max: Duration::from_millis(10.0),
        })
        .resync_period(Duration::from_secs(tau))
        .recovery(if enabled {
            RecoveryPolicy::ThirdServer
        } else {
            RecoveryPolicy::Ignore
        })
        .duration(Duration::from_secs(duration))
        .sample_interval(Duration::from_secs(tau / 10.0))
        .seed(seed);
    let result = scenario.run();

    let max_offset = result
        .offset_series(0)
        .iter()
        .map(|&(_, o)| o.abs())
        .fold(0.0f64, f64::max);
    RecoveryRow {
        tau,
        recovery_enabled: enabled,
        recoveries_started: result.final_stats[0].recoveries_started,
        recoveries_applied: result.final_stats[0].recoveries_applied,
        max_offset,
        predicted_excursion: actual_drift * tau,
    }
}

/// Runs E10 across two resync periods, with and without recovery.
#[must_use]
pub fn recovery() -> Recovery {
    Recovery {
        actual_drift: 0.042,
        claimed_bound: DriftRate::per_day(1.0).as_f64(),
        rows: vec![
            run_recovery(30.0, true, 41),
            run_recovery(120.0, true, 42),
            run_recovery(120.0, false, 43),
        ],
    }
}

impl Verdict for Recovery {
    /// The anecdote's shape: with recovery the bad clock's excursion is
    /// proportional to τ (within a small factor of drift×τ); without
    /// recovery it runs away (an order of magnitude worse).
    fn reproduces_shape(&self) -> bool {
        let with: Vec<&RecoveryRow> = self.rows.iter().filter(|r| r.recovery_enabled).collect();
        let without: Vec<&RecoveryRow> = self.rows.iter().filter(|r| !r.recovery_enabled).collect();
        let bounded = with
            .iter()
            .all(|r| r.recoveries_applied > 0 && r.max_offset <= r.predicted_excursion * 3.0);
        let runaway = without
            .iter()
            .all(|r| r.max_offset > r.predicted_excursion * 3.0);
        bounded && runaway
    }
}

impl fmt::Display for Recovery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "§3 recovery experiment — invalid drift bound ({:.1}%/day actual vs {:.1e} claimed)",
            self.actual_drift * 100.0,
            self.claimed_bound
        )?;
        let mut table = Table::new(vec![
            "tau",
            "recovery",
            "started",
            "applied",
            "max offset",
            "drift*tau",
        ]);
        for r in &self.rows {
            table.row(vec![
                format!("{:.0}s", r.tau),
                r.recovery_enabled.to_string(),
                r.recoveries_started.to_string(),
                r.recoveries_applied.to_string(),
                secs(r.max_offset),
                secs(r.predicted_excursion),
            ]);
        }
        write!(f, "{table}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_bounds_the_excursion() {
        let row = run_recovery(30.0, true, 77);
        assert!(row.recoveries_started > 0, "{row:?}");
        assert!(row.recoveries_applied > 0, "{row:?}");
        assert!(
            row.max_offset <= row.predicted_excursion * 3.0,
            "excursion {} should be near drift*tau {}",
            row.max_offset,
            row.predicted_excursion
        );
    }

    #[test]
    fn without_recovery_the_bad_clock_runs_away() {
        let row = run_recovery(30.0, false, 78);
        assert_eq!(row.recoveries_applied, 0);
        // 12 periods at 4.2 % ≈ 15 s of accumulated offset.
        assert!(
            row.max_offset > row.predicted_excursion * 3.0,
            "offset {} should run away",
            row.max_offset
        );
    }

    #[test]
    fn longer_tau_means_larger_excursion() {
        let short = run_recovery(30.0, true, 79);
        let long = run_recovery(120.0, true, 79);
        assert!(
            long.max_offset > short.max_offset,
            "the anecdote's 'main problem': {} vs {}",
            long.max_offset,
            short.max_offset
        );
    }
}
