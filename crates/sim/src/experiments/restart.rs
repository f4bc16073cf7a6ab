//! Experiment E18 — crash–restart lifecycle: durable clock state,
//! bootstrap re-entry, and restart storms.
//!
//! §5 of the paper sketches how a server rejoins the service after
//! losing its state. This experiment drives a six-server
//! Marzullo-tolerant deployment through four crash–restart regimes —
//! a single durable restart, a single amnesia restart, and storm
//! variants of both that keep crashing the same server every cycle —
//! each swept over several seeds with the theorem oracle armed.
//!
//! The claims under test: a *durable* restart rehydrates `(r, ε)`
//! from stable storage, re-derives its error per rule MM-1 across the
//! downtime, and reintegrates immediately with a bounded interval; an
//! *amnesia* restart serves nothing until a §5 quorum bootstrap
//! completes; peers suspect the crashed server and probe it back to
//! health afterwards; and through all of it the oracle sees zero
//! violations — no service while down, honest peers always correct.

use std::fmt;

use tempo_core::{Duration, Timestamp};
use tempo_oracle::OracleConfig;
use tempo_service::ServerFault;

use super::{fault_tolerant, Verdict};
use crate::report::{secs, Table};
use crate::scenario::ServerSpec;

/// Index of the server that crashes and restarts.
const RESTARTER: usize = 5;
/// Servers in the deployment.
const N: usize = 6;
/// Seeds swept per regime.
const SEEDS: u64 = 3;
/// Run length of each scenario.
const DURATION: f64 = 300.0;

/// One crash–restart regime's outcome, aggregated over the seed sweep.
#[derive(Debug, Clone)]
pub struct RestartRow {
    /// Regime name.
    pub label: &'static str,
    /// Whether stable storage is lost on restart.
    pub amnesia: bool,
    /// Whether the regime keeps re-crashing the server (a storm).
    pub storm: bool,
    /// Crashes observed across the sweep.
    pub crashes: usize,
    /// Restarts observed across the sweep.
    pub restarts: usize,
    /// §5 bootstrap rounds run across the sweep (zero for durable
    /// restarts, which rehydrate instead).
    pub boot_rounds: usize,
    /// Reply timeouts recorded across the sweep.
    pub timeouts: usize,
    /// Peers tipped out of Healthy across the sweep.
    pub suspected: usize,
    /// Peers probed back to health across the sweep.
    pub reinstated: usize,
    /// Correctness violations among the *non-restarting* servers.
    pub honest_violations: usize,
    /// Total theorem-oracle violations (lifecycle checks included).
    pub oracle_violations: usize,
    /// Worst time from a restart instant to the first sample at which
    /// the restarted server is correct again (seconds).
    pub worst_lag: f64,
    /// Largest claimed error of the restarted server at any sample
    /// after its first restart (seconds).
    pub worst_post_error: f64,
    /// True when the restarted server ended every run active and
    /// correct.
    pub reintegrated: bool,
}

/// Results of E18.
#[derive(Debug, Clone)]
pub struct Restart {
    /// One row per regime: durable/amnesia single restarts, then the
    /// storm variants.
    pub rows: Vec<RestartRow>,
}

/// A regime's fault schedule plus the restart instants it implies.
struct Regime {
    label: &'static str,
    amnesia: bool,
    storm: bool,
    fault: ServerFault,
    restarts_at: Vec<f64>,
}

fn single(label: &'static str, amnesia: bool) -> Regime {
    let (at, down) = (60.0, 20.0);
    Regime {
        label,
        amnesia,
        storm: false,
        fault: ServerFault::crash_restart(
            Timestamp::from_secs(at),
            Duration::from_secs(down),
            amnesia,
        ),
        restarts_at: vec![at + down],
    }
}

fn storm(label: &'static str, amnesia: bool) -> Regime {
    let (at, down, up) = (45.0, 25.0, 40.0);
    let mut restarts_at = Vec::new();
    let mut crash = at;
    while crash + down < DURATION {
        restarts_at.push(crash + down);
        crash += down + up;
    }
    Regime {
        label,
        amnesia,
        storm: true,
        fault: ServerFault::restart_storm(
            Timestamp::from_secs(at),
            Duration::from_secs(down),
            Duration::from_secs(up),
            amnesia,
        ),
        restarts_at,
    }
}

fn run_regime(regime: &Regime, base_seed: u64) -> RestartRow {
    let delta = 1e-4;
    let mut row = RestartRow {
        label: regime.label,
        amnesia: regime.amnesia,
        storm: regime.storm,
        crashes: 0,
        restarts: 0,
        boot_rounds: 0,
        timeouts: 0,
        suspected: 0,
        reinstated: 0,
        honest_violations: 0,
        oracle_violations: 0,
        worst_lag: 0.0,
        worst_post_error: 0.0,
        reintegrated: true,
    };
    for k in 0..SEEDS {
        let mut scenario = fault_tolerant(1)
            .oracle(OracleConfig::safety())
            .duration(Duration::from_secs(DURATION))
            .sample_interval(Duration::from_secs(2.0))
            .seed(base_seed + k);
        for i in 0..N {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            let mut spec = ServerSpec::honest(sign * 0.5 * delta, delta);
            if i == RESTARTER {
                spec = spec.server_fault(regime.fault);
            }
            scenario = scenario.server(spec);
        }
        let result = scenario.run();

        row.honest_violations += result.honest_violations(|i| i == RESTARTER);
        let report = result.oracle.as_ref().expect("oracle was armed");
        row.oracle_violations += report.total_violations;
        let stats = &result.final_stats[RESTARTER];
        row.crashes += stats.crashes;
        row.restarts += stats.restarts;
        row.boot_rounds += stats.bootstrap_rounds;
        row.timeouts += result.final_stats.iter().map(|s| s.timeouts).sum::<usize>();
        row.suspected += result
            .final_stats
            .iter()
            .map(|s| s.peers_suspected)
            .sum::<usize>();
        row.reinstated += result
            .final_stats
            .iter()
            .map(|s| s.peers_reinstated)
            .sum::<usize>();

        // Per restart instant: how long until the restarted server is
        // observed correct again?
        for &restart_at in &regime.restarts_at {
            let lag = result
                .samples
                .iter()
                .find(|r| r.t.as_secs() >= restart_at && r.per_server[RESTARTER].correct)
                .map_or(DURATION, |r| r.t.as_secs() - restart_at);
            row.worst_lag = row.worst_lag.max(lag);
        }
        let first_restart = regime.restarts_at[0];
        let post_error = result
            .samples
            .iter()
            .filter(|r| r.t.as_secs() >= first_restart)
            .map(|r| r.per_server[RESTARTER].error.as_secs())
            .fold(0.0, f64::max);
        row.worst_post_error = row.worst_post_error.max(post_error);
        let last = result.last();
        row.reintegrated &= last.per_server[RESTARTER].correct;
    }
    row
}

/// Runs E18: four crash–restart regimes, each swept over [`SEEDS`]
/// seeds with the theorem oracle armed.
#[must_use]
pub fn restart() -> Restart {
    let regimes = [
        single("durable restart", false),
        single("amnesia restart", true),
        storm("durable storm", false),
        storm("amnesia storm", true),
    ];
    let rows = regimes
        .iter()
        .enumerate()
        .map(|(k, regime)| run_regime(regime, 1800 + 10 * k as u64))
        .collect();
    Restart { rows }
}

impl Verdict for Restart {
    /// The headline claims: zero oracle violations and zero honest
    /// incorrectness everywhere; durable restarts rehydrate (no
    /// bootstrap rounds) while amnesia restarts bootstrap before
    /// serving; storms keep reintegrating cycle after cycle; the
    /// crashed server is suspected and later probed back; and the
    /// restarted server always ends correct with a bounded interval.
    fn reproduces_shape(&self) -> bool {
        let expected_restarts = |r: &RestartRow| {
            if r.storm {
                3 * SEEDS as usize
            } else {
                SEEDS as usize
            }
        };
        self.rows.iter().all(|r| {
            r.honest_violations == 0
                && r.oracle_violations == 0
                && r.reintegrated
                && r.crashes >= r.restarts
                && r.restarts >= expected_restarts(r)
                && (if r.amnesia {
                    r.boot_rounds >= r.restarts
                } else {
                    r.boot_rounds == 0
                })
                && r.suspected > 0
                && r.reinstated > 0
                && r.worst_lag <= 30.0
                && r.worst_post_error <= 0.25
        })
    }
}

impl fmt::Display for Restart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E18 — crash–restart lifecycle (Marzullo f=1 over {DURATION} s, {N} servers, \
             {SEEDS} seeds per regime, oracle armed)"
        )?;
        let mut table = Table::new(vec![
            "regime",
            "amnesia",
            "crashes",
            "restarts",
            "boot rounds",
            "tmo",
            "susp",
            "reinst",
            "honest viol",
            "oracle viol",
            "worst lag",
            "worst post E",
            "reintegrated",
        ]);
        for r in &self.rows {
            table.row(vec![
                r.label.to_string(),
                r.amnesia.to_string(),
                r.crashes.to_string(),
                r.restarts.to_string(),
                r.boot_rounds.to_string(),
                r.timeouts.to_string(),
                r.suspected.to_string(),
                r.reinstated.to_string(),
                r.honest_violations.to_string(),
                r.oracle_violations.to_string(),
                secs(r.worst_lag),
                secs(r.worst_post_error),
                r.reintegrated.to_string(),
            ]);
        }
        write!(f, "{table}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durable_restart_rehydrates_without_bootstrap() {
        let row = run_regime(&single("durable", false), 71);
        assert_eq!(row.honest_violations, 0, "honest servers stay correct");
        assert_eq!(row.oracle_violations, 0, "oracle stays clean");
        assert_eq!(row.boot_rounds, 0, "durable restarts rehydrate");
        assert!(row.reintegrated, "restarted server ends correct");
    }

    #[test]
    fn amnesia_storm_bootstraps_every_cycle_cleanly() {
        let row = run_regime(&storm("amnesia storm", true), 72);
        assert_eq!(row.oracle_violations, 0, "oracle stays clean");
        assert!(
            row.boot_rounds >= row.restarts,
            "every amnesia restart must bootstrap (rounds {} < restarts {})",
            row.boot_rounds,
            row.restarts
        );
        assert!(
            row.restarts >= 3 * SEEDS as usize,
            "the storm keeps cycling"
        );
        assert!(row.reintegrated, "restarted server ends correct");
    }
}
