//! Experiment E21 — ClusterTime failover storms.
//!
//! The cluster layer's whole promise is negative: timestamps *never*
//! go backward, no matter what happens to the primary. This experiment
//! hammers an audit-trail workload (two clients requesting every
//! 50 ms) through the regimes where that promise is hardest to keep —
//! primary crash storms (durable and amnesiac), partitions that sever
//! the primary from its quorum, a Byzantine replica lying in its lease
//! acks, and outright quorum loss — each swept over several seeds with
//! the ClusterTime oracle armed online.
//!
//! The claims under test: across every failover the released stream
//! stays strictly monotonic (`ClusterMonotonic`) and every timestamp
//! lies within the issuing quorum's Marzullo intersection
//! (`ClusterBounded`); clients witness the same monotonicity
//! end to end; elections actually happen and service resumes under the
//! new primary; and when quorum is *lost*, requests are refused — the
//! degraded mode is no service, never wrong service.

use std::fmt;

use tempo_core::{Duration, Timestamp};
use tempo_net::{NodeId, Partition};
use tempo_service::ServerFault;

use super::Verdict;
use crate::cluster::{ClusterScenario, ReplicaSpec};
use crate::report::Table;
use tempo_cluster::ClusterFault;

/// Replicas per cluster in the main regimes (tolerating `f = 1`).
const N: usize = 5;
/// Audit clients hammering the cluster.
const CLIENTS: usize = 2;
/// Seeds swept per regime.
const SEEDS: u64 = 3;
/// Run length of each scenario, seconds.
const DURATION: f64 = 60.0;

/// One regime's outcome, aggregated over the seed sweep.
#[derive(Debug, Clone)]
pub struct ClusterRow {
    /// Regime name.
    pub label: &'static str,
    /// Timestamps released by primaries across the sweep.
    pub issued: usize,
    /// Requests refused (all causes) across the sweep.
    pub refused: usize,
    /// Requests redirected to the believed primary.
    pub redirects: usize,
    /// Elections won across the sweep.
    pub elections_won: usize,
    /// The highest view reached in any run.
    pub highest_view: u64,
    /// View-change adoptions the oracle observed.
    pub view_changes: usize,
    /// Cluster-store rehydrations after restarts.
    pub rehydrations: usize,
    /// Timestamps the clients obtained.
    pub client_issued: usize,
    /// Monotonicity regressions the clients witnessed (must be 0).
    pub client_regressions: usize,
    /// ClusterTime oracle violations (must be 0).
    pub oracle_violations: usize,
    /// Whether this regime expects at least one failover per run.
    pub expect_failover: bool,
    /// Whether this regime expects refusals (degraded service).
    pub expect_refusals: bool,
}

impl ClusterRow {
    /// Whether this regime reproduced its expected shape.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.oracle_violations == 0
            && self.client_regressions == 0
            && self.issued > 0
            && self.client_issued > 0
            && (!self.expect_failover
                || (self.elections_won >= SEEDS as usize && self.highest_view >= 1))
            && (!self.expect_refusals || self.refused > 0)
    }
}

/// Results of E21.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// One row per regime.
    pub rows: Vec<ClusterRow>,
}

/// The five-replica, two-client deployment every main regime starts
/// from. `primary_fault` arms a crash schedule on replica 0 (the view-0
/// primary), `amnesia` additionally wipes its cluster store on every
/// restart, and `byzantine` arms a cluster-protocol fault on the last
/// replica.
fn deployment(
    seed: u64,
    primary_fault: Option<ServerFault>,
    amnesia: bool,
    byzantine: Option<ClusterFault>,
) -> ClusterScenario {
    let honest = ReplicaSpec::honest(1e-5, 1e-4);
    let mut primary = honest.clone().amnesia(amnesia);
    if let Some(fault) = primary_fault {
        primary = primary.server_fault(fault);
    }
    let mut last = honest.clone();
    if let Some(fault) = byzantine {
        last = last.cluster_fault(fault);
    }
    ClusterScenario::new()
        .replica(primary)
        .replicas(N - 2, &honest)
        .replica(last)
        .clients(CLIENTS)
        .max_faulty(1)
        .duration(Duration::from_secs(DURATION))
        .seed(seed)
}

/// The primary's crash storm: down 5 s, up 10 s, from t = 10 s.
fn storm() -> ServerFault {
    ServerFault::restart_storm(
        Timestamp::from_secs(10.0),
        Duration::from_secs(5.0),
        Duration::from_secs(10.0),
        false,
    )
}

fn sweep(
    label: &'static str,
    expect_failover: bool,
    expect_refusals: bool,
    base_seed: u64,
    build: impl Fn(u64) -> ClusterScenario,
) -> ClusterRow {
    let mut row = ClusterRow {
        label,
        issued: 0,
        refused: 0,
        redirects: 0,
        elections_won: 0,
        highest_view: 0,
        view_changes: 0,
        rehydrations: 0,
        client_issued: 0,
        client_regressions: 0,
        oracle_violations: 0,
        expect_failover,
        expect_refusals,
    };
    for k in 0..SEEDS {
        let result = build(base_seed + k).run();
        row.issued += result.issued();
        row.refused += result.refused();
        row.redirects += result.replicas().map(|r| r.stats.redirects).sum::<usize>();
        row.elections_won += result.elections_won();
        row.highest_view = row.highest_view.max(result.highest_view());
        row.rehydrations += result
            .replicas()
            .map(|r| r.stats.rehydrations)
            .sum::<usize>();
        row.client_issued += result.client_issued();
        row.client_regressions += result.client_regressions();
        row.oracle_violations += result.oracle_violations();
        let reports = result.oracle.as_ref().expect("oracle armed");
        row.view_changes += reports.iter().map(|r| r.view_changes).sum::<usize>();
    }
    row
}

/// Runs E21: six regimes — steady state, durable and amnesiac primary
/// crash storms, a partition severing the primary, a Byzantine replica
/// lying in its acks, and outright quorum loss — each swept over
/// [`SEEDS`] seeds with the ClusterTime oracle armed.
#[must_use]
pub fn cluster() -> Cluster {
    let rows = vec![
        sweep("steady state", false, false, 2100, |seed| {
            deployment(seed, None, false, None)
        }),
        sweep("crash storm (durable)", true, false, 2110, |seed| {
            deployment(seed, Some(storm()), false, None)
        }),
        sweep("crash storm (amnesia)", true, false, 2120, |seed| {
            let inner = ServerFault::restart_storm(
                Timestamp::from_secs(10.0),
                Duration::from_secs(5.0),
                Duration::from_secs(10.0),
                true,
            );
            deployment(seed, Some(inner), true, None)
        }),
        sweep("partition severs primary", true, false, 2130, |seed| {
            deployment(seed, None, false, None).partition(Partition {
                from: Timestamp::from_secs(15.0),
                until: Timestamp::from_secs(35.0),
                groups: vec![
                    vec![NodeId::new(0)],
                    (1..N + CLIENTS).map(NodeId::new).collect(),
                ],
            })
        }),
        sweep("byzantine lease acks", false, false, 2140, |seed| {
            deployment(
                seed,
                None,
                false,
                Some(ClusterFault::LieEstimate {
                    shift: Duration::from_secs(0.4),
                }),
            )
        }),
        sweep("understated hw + crash", true, false, 2150, |seed| {
            deployment(
                seed,
                Some(ServerFault::crash_restart(
                    Timestamp::from_secs(20.0),
                    Duration::from_secs(8.0),
                    true,
                )),
                true,
                Some(ClusterFault::UnderstateHw),
            )
        }),
        // Quorum loss is a 3-replica shape: two backups crash for good,
        // the primary's renewals stop being quorate, and every request
        // from then on must be refused, not misanswered.
        sweep("quorum lost", false, true, 2160, |seed| {
            let honest = ReplicaSpec::honest(1e-5, 1e-4);
            let dead = honest
                .clone()
                .server_fault(ServerFault::crash_at(Timestamp::from_secs(20.0)));
            ClusterScenario::new()
                .replica(honest.clone())
                .replica(dead.clone())
                .replica(dead)
                .clients(CLIENTS)
                .duration(Duration::from_secs(DURATION))
                .seed(seed)
        }),
    ];
    Cluster { rows }
}

impl Verdict for Cluster {
    /// The headline claims: zero oracle violations and zero client
    /// regressions everywhere; every failover regime actually elects a
    /// new primary and resumes issuing; the quorum-loss regime refuses
    /// instead of guessing.
    fn reproduces_shape(&self) -> bool {
        self.rows.iter().all(ClusterRow::ok)
    }
}

impl fmt::Display for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E21 — ClusterTime failover storms ({N} replicas f=1, {CLIENTS} clients, \
             {DURATION} s, {SEEDS} seeds per regime, cluster oracle armed)"
        )?;
        let mut table = Table::new(vec![
            "regime",
            "issued",
            "refused",
            "redirects",
            "elections",
            "max view",
            "view changes",
            "rehydr",
            "client ts",
            "client regr",
            "oracle viol",
            "ok",
        ]);
        for r in &self.rows {
            table.row(vec![
                r.label.to_string(),
                r.issued.to_string(),
                r.refused.to_string(),
                r.redirects.to_string(),
                r.elections_won.to_string(),
                r.highest_view.to_string(),
                r.view_changes.to_string(),
                r.rehydrations.to_string(),
                r.client_issued.to_string(),
                r.client_regressions.to_string(),
                r.oracle_violations.to_string(),
                r.ok().to_string(),
            ]);
        }
        write!(f, "{table}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durable_crash_storm_stays_monotonic() {
        let row = sweep("storm", true, false, 2110, |seed| {
            deployment(seed, Some(storm()), false, None)
        });
        assert_eq!(row.oracle_violations, 0, "oracle stays clean");
        assert_eq!(row.client_regressions, 0, "clients never see a regression");
        assert!(row.ok(), "{row:?}");
        assert!(row.rehydrations > 0, "durable restarts rehydrate");
    }

    #[test]
    fn quorum_loss_refuses_instead_of_guessing() {
        let row = sweep("quorum lost", false, true, 2160, |seed| {
            let honest = ReplicaSpec::honest(1e-5, 1e-4);
            let dead = honest
                .clone()
                .server_fault(ServerFault::crash_at(Timestamp::from_secs(20.0)));
            ClusterScenario::new()
                .replica(honest.clone())
                .replica(dead.clone())
                .replica(dead)
                .clients(CLIENTS)
                .duration(Duration::from_secs(DURATION))
                .seed(seed)
        });
        assert!(row.refused > 0, "requests are refused once quorum is lost");
        assert_eq!(row.oracle_violations, 0, "never misanswered");
        assert_eq!(row.client_regressions, 0);
        // The service stopped mid-run: well under the full-horizon rate.
        assert!(
            row.client_issued < (SEEDS as usize) * CLIENTS * 800,
            "service must stop once quorum is lost, got {}",
            row.client_issued
        );
    }
}
