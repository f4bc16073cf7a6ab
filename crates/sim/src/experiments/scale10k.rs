//! Experiment E20 (extension) — the simulator at 10,000 servers.
//!
//! The paper's deployment covered "hundreds" of machines; its analysis
//! is indifferent to scale. This experiment asks whether *our engine*
//! is: a 10,000-server deployment built from 500 disjoint 20-server
//! cliques, each carrying 5 % message loss, 1 % duplication, one
//! crash–restart server, and one Byzantine liar, must complete a
//! 60-simulated-second run in single-digit wall-clock seconds on the
//! sharded engine — while staying *exactly* the run the single-threaded
//! engine would have produced. At the small sizes (n ≤ 1,000) the sweep
//! re-runs each deployment single-threaded with the correctness oracle
//! armed, and compares every observable output but the oracle's report
//! with the sharded run's; at 10,000 only the sharded engine runs (the
//! point of having it). The oracle reads the full event stream, which
//! would fold a sharded run into one world, so the sharded leg stays
//! unarmed and every compared row checks the sharded engine.

use std::fmt;
use std::time::Instant;

use tempo_core::{Duration, Timestamp};
use tempo_net::Topology;
use tempo_oracle::OracleConfig;
use tempo_service::ServerFault;

use super::{fault_tolerant, Verdict};
use crate::metrics::RunResult;
use crate::report::{secs, Table};
use crate::scenario::{Scenario, ServerSpec};

/// Servers per connected component.
const CLIQUE: usize = 20;
/// Local index (within each clique) of the crash–restart server.
const CRASHER: usize = 1;
/// Local index (within each clique) of the Byzantine liar.
const LIAR: usize = 7;
/// Simulated run length (seconds).
const DURATION: f64 = 60.0;

/// One deployment size's outcome.
#[derive(Debug, Clone)]
pub struct Scale10kRow {
    /// Total servers.
    pub n: usize,
    /// Connected components (cliques of [`CLIQUE`]).
    pub components: usize,
    /// Wall-clock seconds for the sharded run.
    pub sharded_secs: f64,
    /// Wall-clock seconds for the single-threaded run, when it ran.
    pub single_secs: Option<f64>,
    /// Messages handed to the network.
    pub messages: usize,
    /// Timer events fired.
    pub timers: usize,
    /// Correctness violations among the non-faulty servers (must be 0).
    pub honest_violations: usize,
    /// Whether the armed oracle reported a clean run, when armed.
    pub oracle_clean: Option<bool>,
    /// Whether the sharded run matched the single-threaded run on every
    /// observable output, when both ran.
    pub deterministic: Option<bool>,
}

/// Results of E20.
#[derive(Debug, Clone)]
pub struct Scale10k {
    /// Worker threads the sharded runs used.
    pub threads: usize,
    /// One row per deployment size.
    pub rows: Vec<Scale10kRow>,
}

/// Builds the fault-laden deployment: `n / 20` disjoint cliques, lossy
/// duplicating links, and per clique one crash–restart server (odd
/// cliques lose their state) and one liar whose advertised interval
/// firmly excludes true time.
fn deployment(n: usize, seed: u64) -> Scenario {
    assert!(
        n.is_multiple_of(CLIQUE),
        "deployment size must be a multiple of {CLIQUE}"
    );
    let mut scenario = fault_tolerant(1)
        .topology(Topology::disjoint_cliques(n / CLIQUE, CLIQUE))
        .loss(0.05)
        .duplication(0.01)
        .duration(Duration::from_secs(DURATION))
        // Two samples per τ.
        .sample_interval(Duration::from_secs(5.0))
        .seed(seed);
    for i in 0..n {
        let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
        let frac = 0.2 + 0.8 * ((i % CLIQUE) as f64) / CLIQUE as f64;
        let mut spec = ServerSpec::honest(sign * frac * 1e-5, 1e-4);
        match i % CLIQUE {
            CRASHER => {
                spec = spec.server_fault(ServerFault::crash_restart(
                    Timestamp::from_secs(25.0),
                    Duration::from_secs(10.0),
                    (i / CLIQUE) % 2 == 1,
                ));
            }
            LIAR => {
                spec = spec.server_fault(ServerFault::lie_from(
                    Timestamp::from_secs(15.0),
                    Duration::from_secs(2.0),
                    0.1,
                ));
            }
            _ => {}
        }
        scenario = scenario.server(spec);
    }
    scenario
}

/// Every observable output the engine-equivalence contract covers, but
/// the oracle's report: only the single-threaded leg is armed.
fn same_result(a: &RunResult, b: &RunResult) -> bool {
    a.samples == b.samples
        && a.final_stats == b.final_stats
        && a.net == b.net
        && a.dropped_events == b.dropped_events
        && a.xi_witness == b.xi_witness
}

fn run_size(n: usize, seed: u64, threads: usize, check_single: bool) -> Scale10kRow {
    let scenario = deployment(n, seed);

    let start = Instant::now();
    let sharded = scenario.clone().sharded(threads).run();
    let sharded_secs = start.elapsed().as_secs_f64();

    let (single_secs, deterministic, oracle) = if check_single {
        let start = Instant::now();
        let single = scenario.oracle(OracleConfig::safety()).run();
        let elapsed = start.elapsed().as_secs_f64();
        (
            Some(elapsed),
            Some(same_result(&single, &sharded)),
            single.oracle,
        )
    } else {
        (None, None, None)
    };

    let honest_violations = sharded.honest_violations(|i| matches!(i % CLIQUE, CRASHER | LIAR));
    Scale10kRow {
        n,
        components: n / CLIQUE,
        sharded_secs,
        single_secs,
        messages: sharded.net.sent,
        timers: sharded.net.timers_fired,
        honest_violations,
        oracle_clean: oracle.as_ref().map(tempo_oracle::OracleReport::is_clean),
        deterministic,
    }
}

/// Runs E20 over the given deployment sizes (each a multiple of 20).
/// Sizes up to 1,000 are re-run single-threaded, with the oracle armed,
/// and compared output for output.
#[must_use]
pub fn scale10k_sized(sizes: &[usize]) -> Scale10k {
    let threads = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    // Any seed terminates; these are the ones EXPERIMENTS.md's E20 rows
    // were recorded under, kept so those rows stand.
    let rows = sizes
        .iter()
        .enumerate()
        .map(|(j, &n)| run_size(n, 2001 + j as u64, threads, n <= 1000))
        .collect();
    Scale10k { threads, rows }
}

/// Runs E20: the full 100 / 1,000 / 10,000 sweep.
#[must_use]
pub fn scale10k() -> Scale10k {
    scale10k_sized(&[100, 1_000, 10_000])
}

impl Verdict for Scale10k {
    /// The qualitative claim: every non-faulty server is correct at
    /// every sample instant at every size, the sharded engine
    /// reproduces the single-threaded run exactly wherever both ran,
    /// and the oracle signs off wherever it was armed. Wall-clock
    /// numbers are reported, not gated — machines differ.
    fn reproduces_shape(&self) -> bool {
        !self.rows.is_empty()
            && self.rows.iter().all(|r| {
                r.honest_violations == 0
                    && r.deterministic != Some(false)
                    && r.oracle_clean != Some(false)
            })
            && self.rows.iter().any(|r| r.deterministic == Some(true))
    }
}

impl fmt::Display for Scale10k {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E20 — scale10k (cliques of {CLIQUE}, 5% loss, crash-restart + liar \
             per clique, Marzullo f=1, {DURATION} s, {} threads)",
            self.threads
        )?;
        let mut table = Table::new(vec![
            "n", "comps", "sharded", "single", "msgs", "timers", "viol", "oracle", "det",
        ]);
        let flag = |v: Option<bool>| match v {
            Some(true) => "yes".to_string(),
            Some(false) => "NO".to_string(),
            None => "-".to_string(),
        };
        for r in &self.rows {
            table.row(vec![
                r.n.to_string(),
                r.components.to_string(),
                secs(r.sharded_secs),
                r.single_secs.map_or_else(|| "-".to_string(), secs),
                r.messages.to_string(),
                r.timers.to_string(),
                r.honest_violations.to_string(),
                flag(r.oracle_clean),
                flag(r.deterministic),
            ]);
        }
        write!(f, "{table}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_telemetry::json::{parse, read_event};
    use tempo_telemetry::TelemetryEvent;

    /// A rejoining server tolerates its clique's one liar. Without loss
    /// to blame, the amnesiac crasher of the second clique completes its
    /// §5 bootstrap in its first round; closed under IM-2, the liar
    /// emptied the intersection of every round, and it never served again.
    #[test]
    fn an_amnesiac_bootstraps_past_the_liar_in_one_round() {
        let out = std::env::temp_dir().join(format!("tempo_e20_boot_{}.jsonl", std::process::id()));
        let result = deployment(2 * CLIQUE, 7)
            .loss(0.0)
            .duplication(0.0)
            .telemetry_out(&out)
            .run();
        let text = std::fs::read_to_string(&out).expect("read the export");
        std::fs::remove_file(&out).ok();
        let amnesiac = CLIQUE + CRASHER;
        let completed: Vec<u32> = text
            .lines()
            .filter_map(|line| read_event(&parse(line).ok()?).ok())
            .filter_map(|event| match event {
                TelemetryEvent::BootstrapCompleted { server, rounds, .. } if server == amnesiac => {
                    Some(rounds)
                }
                _ => None,
            })
            .collect();
        assert_eq!(completed, [1], "bootstrap rounds of server {amnesiac}");
        assert_eq!(result.final_stats[amnesiac].bootstrap_rounds, 1);
    }

    #[test]
    fn small_deployment_is_safe_and_deterministic() {
        let row = run_size(40, 77, 2, true);
        assert_eq!(row.components, 2);
        assert_eq!(row.honest_violations, 0);
        assert_eq!(row.deterministic, Some(true));
        assert_eq!(row.oracle_clean, Some(true));
        assert!(row.messages > 0);
        assert!(row.timers > 0);
    }
}
