//! Experiment E16 (extension) — chaos: loss, partitions, crashes, and
//! liars at once.
//!
//! §5 of the paper asks what happens when servers themselves misbehave,
//! not just their clocks. This experiment drives a six-server
//! Marzullo-tolerant deployment through escalating failure regimes —
//! heavy loss, a mid-run two-group partition, a crashed server, a
//! Byzantine liar, and finally all of them together — with per-request
//! timeouts, retries, peer health tracking, and a round quorum armed.
//! The claim under test: every *non-faulty* server holds a correct
//! interval (true time ∈ [C−E, C+E]) at every sample instant of every
//! regime, while the new failure-handling counters show the machinery
//! actually firing (and, on the clean network, *not* firing: a lossless
//! run must show zero timeouts).

use std::fmt;

use tempo_core::{Duration, Timestamp};
use tempo_net::{NodeId, Partition};
use tempo_service::ServerFault;

use super::{fault_tolerant, Verdict};
use crate::report::{secs, Table};
use crate::scenario::{Scenario, ServerSpec};

/// Index of the server that lies in the liar regimes.
const LIAR: usize = 4;
/// Index of the server that crashes in the crash regimes.
const CRASHED: usize = 5;
/// Servers in the deployment.
const N: usize = 6;

/// One failure regime's outcome.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// Regime name.
    pub label: &'static str,
    /// Indices of the deliberately faulty servers.
    pub faulty: Vec<usize>,
    /// Correctness violations among the *non-faulty* servers (must be
    /// zero in every regime).
    pub honest_violations: usize,
    /// Total reply timeouts across all servers.
    pub timeouts: usize,
    /// Total re-solicitations.
    pub retries: usize,
    /// Peers tipped out of Healthy.
    pub suspected: usize,
    /// Peers reinstated by a later reply.
    pub reinstated: usize,
    /// Rounds that fell short of the quorum and skipped their reset.
    pub degraded: usize,
    /// Replies arriving after their round closed.
    pub late: usize,
    /// Mean claimed error at the end of the run (seconds).
    pub final_mean_error: f64,
}

/// Results of E16.
#[derive(Debug, Clone)]
pub struct Chaos {
    /// One row per failure regime: lossless, loss30, partition, crash,
    /// liar, everything-at-once.
    pub rows: Vec<ChaosRow>,
}

fn mid_run_partition() -> Partition {
    Partition {
        from: Timestamp::from_secs(100.0),
        until: Timestamp::from_secs(180.0),
        groups: vec![
            (0..3).map(NodeId::new).collect(),
            (3..N).map(NodeId::new).collect(),
        ],
    }
}

fn crash_fault() -> ServerFault {
    ServerFault::crash_at(Timestamp::from_secs(60.0))
}

fn lie_fault() -> ServerFault {
    // A two-second skew under a claimed error shrunk to 10 %: the
    // advertised interval firmly excludes true time.
    ServerFault::lie_from(Timestamp::from_secs(50.0), Duration::from_secs(2.0), 0.1)
}

fn run_regime(
    label: &'static str,
    faulty: Vec<usize>,
    seed: u64,
    configure: impl FnOnce(Scenario) -> Scenario,
) -> ChaosRow {
    let delta = 1e-4;
    let mut scenario = fault_tolerant(1)
        .duration(Duration::from_secs(300.0))
        .sample_interval(Duration::from_secs(2.0))
        .seed(seed);
    for i in 0..N {
        let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
        let mut spec = ServerSpec::honest(sign * 0.5 * delta, delta);
        if faulty.contains(&i) {
            spec = spec.server_fault(if i == CRASHED {
                crash_fault()
            } else {
                lie_fault()
            });
        }
        scenario = scenario.server(spec);
    }
    let result = configure(scenario).run();

    let honest_violations = result.honest_violations(|i| faulty.contains(&i));
    let sum = |f: fn(&tempo_service::ServerStats) -> usize| -> usize {
        result.final_stats.iter().map(f).sum()
    };
    ChaosRow {
        label,
        faulty,
        honest_violations,
        timeouts: sum(|s| s.timeouts),
        retries: sum(|s| s.retries),
        suspected: sum(|s| s.peers_suspected),
        reinstated: sum(|s| s.peers_reinstated),
        degraded: sum(|s| s.degraded_rounds),
        late: sum(|s| s.late_replies),
        final_mean_error: result.last().mean_error().as_secs(),
    }
}

/// Runs E16: six escalating failure regimes on a fixed seed.
#[must_use]
pub fn chaos() -> Chaos {
    let rows = vec![
        run_regime("lossless", vec![], 900, |s| s),
        run_regime("loss 30%", vec![], 901, |s| s.loss(0.3)),
        run_regime("partition", vec![], 902, |s| {
            s.partition(mid_run_partition())
        }),
        run_regime("crash", vec![CRASHED], 903, |s| s),
        run_regime("liar", vec![LIAR], 904, |s| s),
        run_regime("all at once", vec![LIAR, CRASHED], 905, |s| {
            s.loss(0.2).partition(mid_run_partition())
        }),
    ];
    Chaos { rows }
}

impl Verdict for Chaos {
    /// The qualitative claim: non-faulty servers are *never* incorrect,
    /// the clean run shows no false suspicion (zero timeouts), and each
    /// failure regime makes its corresponding counters fire.
    fn reproduces_shape(&self) -> bool {
        let [lossless, loss, partition, crash, _liar, all] = &self.rows[..] else {
            return false;
        };
        let safe = self.rows.iter().all(|r| r.honest_violations == 0);
        safe && lossless.timeouts == 0
            && lossless.degraded == 0
            && loss.timeouts > 0
            && loss.retries > 0
            && partition.suspected > 0
            && partition.reinstated > 0
            && partition.degraded > 0
            && crash.suspected > 0
            && all.timeouts > 0
            && all.retries > 0
            && all.suspected > 0
            && all.degraded > 0
    }
}

impl fmt::Display for Chaos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E16 — chaos (Marzullo f=1 over 300 s, {N} servers, retries + health + quorum 3)"
        )?;
        let mut table = Table::new(vec![
            "regime",
            "faulty",
            "viol",
            "tmo",
            "retry",
            "susp",
            "reinst",
            "degr",
            "late",
            "final mean E",
        ]);
        for r in &self.rows {
            let faulty = if r.faulty.is_empty() {
                "-".to_string()
            } else {
                r.faulty
                    .iter()
                    .map(|i| format!("S{i}"))
                    .collect::<Vec<_>>()
                    .join("+")
            };
            table.row(vec![
                r.label.to_string(),
                faulty,
                r.honest_violations.to_string(),
                r.timeouts.to_string(),
                r.retries.to_string(),
                r.suspected.to_string(),
                r.reinstated.to_string(),
                r.degraded.to_string(),
                r.late.to_string(),
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
    fn lossless_regime_never_times_out() {
        let row = run_regime("lossless", vec![], 31, |s| s);
        assert_eq!(row.honest_violations, 0);
        assert_eq!(row.timeouts, 0, "clean network must not false-suspect");
        assert_eq!(row.suspected, 0);
    }

    #[test]
    fn crash_and_liar_leave_honest_servers_correct() {
        let row = run_regime("crash+liar", vec![LIAR, CRASHED], 32, |s| {
            s.loss(0.2).partition(mid_run_partition())
        });
        assert_eq!(
            row.honest_violations, 0,
            "non-faulty servers must stay correct under full chaos"
        );
        assert!(row.timeouts > 0, "loss and a crash must cause timeouts");
        assert!(row.suspected > 0, "the crashed server must be suspected");
        assert!(row.degraded > 0, "the partition must starve some rounds");
    }
}
