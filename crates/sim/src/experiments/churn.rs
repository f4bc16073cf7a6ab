//! Experiment E13 (extension) — membership churn.
//!
//! §1.1: "The set of servers making up the service is not stable, in
//! that time servers can frequently join or leave the service. … Any
//! user who requires it should be able to convert her workstation into
//! a time server." This experiment exercises exactly that: a core of
//! stable servers, a badly-initialised workstation joining mid-run, and
//! a server retiring — the service must stay correct throughout and the
//! newcomer must converge.

use std::fmt;

use tempo_core::{Duration, Timestamp};
use tempo_net::DelayModel;
use tempo_service::Strategy;

use super::Verdict;
use crate::report::secs;
use crate::scenario::{Scenario, ServerSpec};

/// The churn experiment under one strategy.
#[derive(Debug, Clone)]
pub struct ChurnRun {
    /// Strategy under test.
    pub strategy: Strategy,
    /// Simulated time at which the workstation joined.
    pub join_at: f64,
    /// Its clock offset when it joined (seconds).
    pub joiner_initial_offset: f64,
    /// Its offset at the end of the run.
    pub joiner_final_offset: f64,
    /// Its claimed error at the end of the run.
    pub joiner_final_error: f64,
    /// Correctness violations among the *stable* servers.
    pub stable_violations: usize,
    /// Correctness violations by the joiner after it joined.
    pub joiner_violations: usize,
}

/// Runs E13 with the given strategy.
#[must_use]
pub fn churn_with(strategy: Strategy) -> ChurnRun {
    let join_at = 120.0;
    let leave_at = 200.0;
    let joiner_offset = 3.0;
    let scenario = Scenario::new(strategy)
        // Three stable, good servers.
        .servers(3, &ServerSpec::honest(2e-5, 1e-4))
        // One server that retires mid-run.
        .server(ServerSpec::honest(-3e-5, 1e-4).leave_after(Duration::from_secs(leave_at)))
        // A workstation joining late with a clock 3 s off — honest about
        // it via a large initial error, as a fresh server must be.
        .server(
            ServerSpec::honest(5e-5, 1e-4)
                .initial_offset(Duration::from_secs(joiner_offset))
                .initial_error(Duration::from_secs(5.0))
                .join_after(Duration::from_secs(join_at)),
        )
        .delay(DelayModel::Uniform {
            min: Duration::ZERO,
            max: Duration::from_millis(5.0),
        })
        .resync_period(Duration::from_secs(10.0))
        .duration(Duration::from_secs(400.0))
        .sample_interval(Duration::from_secs(2.0))
        .seed(61)
        .run();

    let mut stable_violations = 0;
    let mut joiner_violations = 0;
    for row in result_rows(&scenario) {
        for i in 0..4 {
            // Server 3 leaves at `leave_at`; a departed server free-runs
            // and stays correct anyway (its claims keep growing per
            // MM-1), so it is still audited.
            if !row.per_server[i].correct {
                stable_violations += 1;
            }
        }
        if row.t >= Timestamp::from_secs(join_at) && !row.per_server[4].correct {
            joiner_violations += 1;
        }
    }
    let last = scenario.last();
    ChurnRun {
        strategy,
        join_at,
        joiner_initial_offset: joiner_offset,
        joiner_final_offset: last.per_server[4].true_offset.as_secs(),
        joiner_final_error: last.per_server[4].error.as_secs(),
        stable_violations,
        joiner_violations,
    }
}

// Tiny readability alias: the RunResult's rows.
fn result_rows(r: &crate::metrics::RunResult) -> &[crate::metrics::SampleRow] {
    &r.samples
}

/// Results of E13: one run per strategy.
#[derive(Debug, Clone)]
pub struct Churn {
    /// The MM run, then the IM run.
    pub runs: Vec<ChurnRun>,
}

/// Runs E13 for MM and IM.
#[must_use]
pub fn churn() -> Churn {
    Churn {
        runs: vec![churn_with(Strategy::Mm), churn_with(Strategy::Im)],
    }
}

impl Verdict for Churn {
    /// Every strategy's run reproduces the shape.
    fn reproduces_shape(&self) -> bool {
        self.runs.iter().all(ChurnRun::reproduces_shape)
    }
}

impl fmt::Display for Churn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.runs.iter().try_for_each(|run| write!(f, "{run}"))
    }
}

impl Verdict for ChurnRun {
    /// The expected outcome: nobody already in the service is disturbed,
    /// and the joiner converges from seconds to milliseconds.
    fn reproduces_shape(&self) -> bool {
        self.stable_violations == 0
            && self.joiner_violations == 0
            && self.joiner_final_offset.abs() < 0.1
            && self.joiner_final_error < 0.5
    }
}

impl fmt::Display for ChurnRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "churn under {}: workstation joins at {}s with a {} offset",
            self.strategy,
            self.join_at,
            secs(self.joiner_initial_offset)
        )?;
        writeln!(
            f,
            "  joiner final offset {}, final claimed error {}",
            secs(self.joiner_final_offset),
            secs(self.joiner_final_error)
        )?;
        writeln!(
            f,
            "  violations — stable servers: {}, joiner: {}",
            self.stable_violations, self.joiner_violations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joiner_converges_under_mm_and_im() {
        for c in churn().runs {
            assert!(c.reproduces_shape(), "{c}");
            // It really did start seconds away.
            assert!(c.joiner_initial_offset >= 1.0);
        }
    }

    #[test]
    fn display_renders() {
        let c = churn_with(Strategy::Im);
        assert!(c.to_string().contains("workstation joins"));
    }
}
