//! Declarative ClusterTime deployments.
//!
//! A [`ClusterScenario`] describes a complete cluster-time deployment —
//! replica hardware and faults, audit clients, cluster timing knobs,
//! network behaviour — and [`ClusterScenario::run`] executes it
//! deterministically, returning a [`ClusterRunResult`] reconstructed
//! from the telemetry stream plus the actors' final counters.
//!
//! A scenario can host several *independent* clusters (disjoint
//! cliques of `replicas + clients` nodes). It runs on the same engine
//! as the plain [`crate::Scenario`] — this module supplies the node,
//! the sinks and the outcome type, nothing else — so an unobserved
//! multi-cluster run shards one sub-world per cluster, an observed one
//! runs as one world, and either comes back identical to the unsharded
//! run. The ClusterTime oracle is armed per cluster:
//! monotonicity is promised within a cluster, never across unrelated
//! ones.

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;

use tempo_clocks::{DriftModel, SimClock};
use tempo_cluster::{
    AuditClient, AuditClientConfig, ClientStats, ClusterConfig, ClusterFault, ClusterNode,
    ClusterReplica, ClusterStats,
};
use tempo_core::{DriftRate, Duration, Timestamp};
use tempo_net::{DelayModel, NetStats, NodeId, Partition, Topology};
use tempo_oracle::cluster::{ClusterOracle, ClusterReport};
use tempo_service::{MemoryStore, ServerConfig, ServerFault, ServerStats, Strategy, TimeServer};
use tempo_telemetry::Bus;

use crate::engine::{self, Deployment, Plan, Sampler};
use crate::sinks::ClusterOracleSink;

/// One cluster replica's hardware, claims, and armed faults.
#[derive(Debug, Clone)]
pub struct ReplicaSpec {
    /// The inner clock's actual constant drift.
    pub drift: f64,
    /// The claimed drift bound `δ_i`.
    pub claimed_bound: f64,
    /// Initial clock offset from true time (positive = fast). A
    /// primary running ahead of its successors is what makes
    /// high-water bugs observable.
    pub initial_offset: Duration,
    /// Initial inherited error of the inner server.
    pub initial_error: Duration,
    /// Optional server-process fault (crash / restart storm / lie).
    pub server_fault: Option<ServerFault>,
    /// Optional cluster-protocol fault (Byzantine lies, the injected
    /// skip-the-flush bug).
    pub cluster_fault: Option<ClusterFault>,
    /// Whether a restart also wipes the replica's *cluster* stable
    /// store (amnesia at the cluster layer).
    pub amnesia: bool,
}

impl ReplicaSpec {
    /// A well-behaved replica: constant drift within an honest bound,
    /// starting correct with a 10 ms inherited error.
    ///
    /// # Panics
    ///
    /// Panics if the claimed bound does not cover the actual drift.
    #[must_use]
    pub fn honest(drift: f64, bound: f64) -> Self {
        assert!(
            drift.abs() <= bound,
            "honest replica requires |drift| ≤ bound; got {drift} vs {bound}"
        );
        ReplicaSpec {
            drift,
            claimed_bound: bound,
            initial_offset: Duration::ZERO,
            initial_error: Duration::from_millis(10.0),
            server_fault: None,
            cluster_fault: None,
            amnesia: false,
        }
    }

    /// Sets the initial clock offset from true time.
    #[must_use]
    pub fn initial_offset(mut self, offset: Duration) -> Self {
        self.initial_offset = offset;
        self
    }

    /// Sets the initial inherited error.
    #[must_use]
    pub fn initial_error(mut self, error: Duration) -> Self {
        self.initial_error = error;
        self
    }

    /// Arms a server-process fault (crash, restart storm, lies at the
    /// time-sync layer).
    #[must_use]
    pub fn server_fault(mut self, fault: ServerFault) -> Self {
        self.server_fault = Some(fault);
        self
    }

    /// Arms a cluster-protocol fault.
    #[must_use]
    pub fn cluster_fault(mut self, fault: ClusterFault) -> Self {
        self.cluster_fault = Some(fault);
        self
    }

    /// Makes restarts wipe the cluster stable store too.
    #[must_use]
    pub fn amnesia(mut self, yes: bool) -> Self {
        self.amnesia = yes;
        self
    }
}

/// A declarative ClusterTime deployment.
#[derive(Debug, Clone)]
pub struct ClusterScenario {
    replicas: Vec<ReplicaSpec>,
    clients: usize,
    clusters: usize,
    max_faulty: usize,
    client_period: Duration,
    resync_period: Duration,
    delay: DelayModel,
    loss: f64,
    partitions: Vec<Partition>,
    duration: Duration,
    seed: u64,
    oracle: bool,
    telemetry_out: Option<PathBuf>,
    shards: usize,
}

impl Default for ClusterScenario {
    fn default() -> Self {
        ClusterScenario::new()
    }
}

impl ClusterScenario {
    /// An empty scenario with experiment-friendly defaults: one
    /// cluster, one audit client, `f = 0` (crash-tolerant; raise
    /// [`ClusterScenario::max_faulty`] for Byzantine budgets — `f = 1`
    /// needs at least 4 replicas), sub-second cluster timings (lease
    /// 0.4 s, renewal 0.1 s, election 0.3 s) over a 5 ms
    /// constant-delay mesh, 60 s horizon, oracle armed.
    #[must_use]
    pub fn new() -> Self {
        ClusterScenario {
            replicas: Vec::new(),
            clients: 1,
            clusters: 1,
            max_faulty: 0,
            client_period: Duration::from_millis(50.0),
            resync_period: Duration::from_secs(5.0),
            delay: DelayModel::Constant(Duration::from_millis(5.0)),
            loss: 0.0,
            partitions: Vec::new(),
            duration: Duration::from_secs(60.0),
            seed: 1,
            oracle: true,
            telemetry_out: None,
            shards: 0,
        }
    }

    /// Adds one replica.
    #[must_use]
    pub fn replica(mut self, spec: ReplicaSpec) -> Self {
        self.replicas.push(spec);
        self
    }

    /// Adds `n` identical replicas.
    #[must_use]
    pub fn replicas(mut self, n: usize, spec: &ReplicaSpec) -> Self {
        for _ in 0..n {
            self.replicas.push(spec.clone());
        }
        self
    }

    /// Audit clients per cluster.
    #[must_use]
    pub fn clients(mut self, n: usize) -> Self {
        self.clients = n;
        self
    }

    /// Independent clusters sharing the run (disjoint topology
    /// components, each with its own copy of the replica set).
    #[must_use]
    pub fn clusters(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one cluster");
        self.clusters = n;
        self
    }

    /// The tolerated Byzantine replica budget `f`.
    #[must_use]
    pub fn max_faulty(mut self, f: usize) -> Self {
        self.max_faulty = f;
        self
    }

    /// Audit clients' request period.
    #[must_use]
    pub fn client_period(mut self, d: Duration) -> Self {
        self.client_period = d;
        self
    }

    /// The inner time-sync resynchronisation period `τ`.
    #[must_use]
    pub fn resync_period(mut self, d: Duration) -> Self {
        self.resync_period = d;
        self
    }

    /// Network delay model.
    #[must_use]
    pub fn delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Message loss probability.
    #[must_use]
    pub fn loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Adds a timed partition (global node indices).
    #[must_use]
    pub fn partition(mut self, partition: Partition) -> Self {
        self.partitions.push(partition);
        self
    }

    /// Run length.
    #[must_use]
    pub fn duration(mut self, d: Duration) -> Self {
        self.duration = d;
        self
    }

    /// Master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Arms or disarms the per-cluster ClusterTime oracle.
    #[must_use]
    pub fn oracle(mut self, armed: bool) -> Self {
        self.oracle = armed;
        self
    }

    /// Streams the run's telemetry to a JSONL file (truncating it).
    #[must_use]
    pub fn telemetry_out(mut self, path: PathBuf) -> Self {
        self.telemetry_out = Some(path);
        self
    }

    /// Runs multi-cluster deployments on up to `threads` worker
    /// threads, one sub-world per cluster, when neither the oracle nor
    /// a JSONL export (nor the process-wide default export) reads the
    /// full event stream; a run that has one runs as one world. The
    /// result is identical to the single-threaded run either way.
    #[must_use]
    pub fn sharded(mut self, threads: usize) -> Self {
        self.shards = threads;
        self
    }

    /// Nodes per cluster: the replica set plus its audit clients.
    fn per_cluster(&self) -> usize {
        self.replicas.len() + self.clients
    }

    /// The inner servers' synchronisation strategy: the f-tolerant
    /// Marzullo intersection matching the cluster's fault budget.
    fn strategy(&self) -> Strategy {
        Strategy::MarzulloTolerant {
            max_faulty: self.max_faulty,
        }
    }

    /// The round-trip bound `ξ` implied by the delay model.
    #[must_use]
    pub fn xi(&self) -> Duration {
        self.delay.max_delay() * 2.0
    }

    /// Builds the deployment and runs it to the configured horizon.
    ///
    /// Multi-cluster scenarios with [`ClusterScenario::sharded`]
    /// enabled, no oracle and no export run one sub-world per cluster
    /// on worker threads; the sinks (and therefore the result) cannot
    /// tell the difference.
    ///
    /// # Panics
    ///
    /// Panics if the scenario has no replicas, or if the telemetry
    /// export file cannot be written.
    #[must_use]
    pub fn run(&self) -> ClusterRunResult {
        assert!(
            !self.replicas.is_empty(),
            "cluster scenario needs at least one replica"
        );
        let topology = Topology::disjoint_cliques(self.clusters, self.per_cluster());
        let run = engine::run(self, topology);
        ClusterRunResult {
            outcomes: run.world.outcomes,
            oracle: run.sinks.and_then(|sink| sink.borrow_mut().finish()),
            net: run.world.net,
            dropped_events: run.dropped_events,
            xi_witness: run.xi_witness,
        }
    }
}

impl Deployment for ClusterScenario {
    type Node = ClusterNode;
    type Outcome = NodeOutcome;
    type Sinks = Option<Rc<RefCell<ClusterOracleSink>>>;

    fn plan(&self) -> Plan<'_> {
        Plan {
            seed: self.seed,
            duration: self.duration,
            shards: self.shards,
            delay: &self.delay,
            loss: self.loss,
            duplication: 0.0,
            partitions: &self.partitions,
            telemetry_out: self.telemetry_out.as_ref(),
            label: format!("cluster+{}", self.strategy()),
            resync_period: self.resync_period,
        }
    }

    /// Node `i` is node `i % per_cluster()` of cluster `i /
    /// per_cluster()`; its replica set is addressed by the ids the
    /// hosting world gives it.
    fn build_node(&self, i: usize, members: &[NodeId]) -> ClusterNode {
        // Every deployment's timings, in seconds (the repo benchmark's
        // `perf/src/seams.rs` restates them).
        const LEASE_DURATION: f64 = 0.4;
        const RENEW_PERIOD: f64 = 0.1;
        const ELECTION_TIMEOUT: f64 = 0.3;
        const REQUEST_TIMEOUT: f64 = 0.5;
        const TICK: f64 = 0.05;
        const RTT_SLACK: f64 = 0.02;
        const COLLECT_WINDOW: f64 = 0.5;
        let r = self.replicas.len();
        let per = self.per_cluster();
        let (g, k) = (i / per, i % per);
        let base = members
            .binary_search(&NodeId::new(g * per))
            .expect("a world hosts a cluster whole");
        let replica_ids: Vec<NodeId> = (base..base + r).map(NodeId::new).collect();
        if k >= r {
            return AuditClient::new(
                AuditClientConfig::new(replica_ids)
                    .period(self.client_period)
                    .request_timeout(Duration::from_secs(REQUEST_TIMEOUT)),
            )
            .into();
        }
        let spec = &self.replicas[k];
        let clock = SimClock::builder()
            .drift(DriftModel::Constant(spec.drift))
            .initial_value(Timestamp::ZERO + spec.initial_offset)
            .seed(engine::clock_seed(self.seed, i))
            .build();
        let mut server_config =
            ServerConfig::new(self.strategy(), DriftRate::new(spec.claimed_bound))
                .resync_period(self.resync_period)
                .collect_window(Duration::from_secs(COLLECT_WINDOW))
                .initial_error(spec.initial_error)
                .jitter(0.0);
        if let Some(fault) = spec.server_fault {
            server_config = server_config.fault(fault);
        }
        let server = TimeServer::new(clock, server_config);
        let mut cluster_config = ClusterConfig::new(replica_ids, k)
            .max_faulty(self.max_faulty)
            .lease_duration(Duration::from_secs(LEASE_DURATION))
            .renew_period(Duration::from_secs(RENEW_PERIOD))
            .election_timeout(Duration::from_secs(ELECTION_TIMEOUT))
            .request_timeout(Duration::from_secs(REQUEST_TIMEOUT))
            .tick(Duration::from_secs(TICK))
            .rtt_slack(Duration::from_secs(RTT_SLACK))
            .amnesia(spec.amnesia);
        if let Some(fault) = spec.cluster_fault {
            cluster_config = cluster_config.fault(fault);
        }
        ClusterReplica::new(server, cluster_config, Box::new(MemoryStore::new())).into()
    }

    fn sampler(&self) -> Option<(Duration, Sampler<ClusterNode>)> {
        None
    }

    fn outcome(node: &ClusterNode) -> NodeOutcome {
        match node {
            ClusterNode::Replica(r) => NodeOutcome::Replica(Box::new(ReplicaOutcome {
                stats: r.stats(),
                server: r.server().stats(),
                view: r.view(),
                high_water: r.high_water(),
            })),
            ClusterNode::Client(c) => NodeOutcome::Client(ClientOutcome {
                stats: c.stats(),
                last_timestamp: c.last_timestamp(),
            }),
        }
    }

    fn attach_sinks(&self, bus: &Bus) -> Self::Sinks {
        self.oracle.then(|| {
            let per = self.per_cluster();
            let oracles = (0..self.clusters)
                .map(|_| ClusterOracle::new(self.seed))
                .collect();
            let cluster_of = (0..self.clusters * per).map(|i| i / per).collect();
            let sink = Rc::new(RefCell::new(ClusterOracleSink::new(oracles, cluster_of)));
            bus.subscribe(Rc::clone(&sink));
            sink
        })
    }

    fn wants_full_stream(&self) -> bool {
        self.oracle
    }
}

/// A replica's final state after a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaOutcome {
    /// The cluster-layer counters.
    pub stats: ClusterStats,
    /// The embedded time server's counters.
    pub server: ServerStats,
    /// The view the replica ended in.
    pub view: u64,
    /// The in-memory high-water mark it ended with.
    pub high_water: u64,
}

/// An audit client's final state after a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientOutcome {
    /// The client's counters.
    pub stats: ClientStats,
    /// The last timestamp it obtained, if any.
    pub last_timestamp: Option<u64>,
}

/// One node's final state: replica or client.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeOutcome {
    /// A cluster replica's outcome.
    Replica(Box<ReplicaOutcome>),
    /// An audit client's outcome.
    Client(ClientOutcome),
}

/// What a finished cluster run reveals.
#[derive(Debug, Clone)]
pub struct ClusterRunResult {
    /// Per-node final state, in world order (cluster by cluster,
    /// replicas before clients).
    pub outcomes: Vec<NodeOutcome>,
    /// Per-cluster oracle reports, when the oracle was armed.
    pub oracle: Option<Vec<ClusterReport>>,
    /// Network-layer counters.
    pub net: NetStats,
    /// The telemetry stream's length beyond 4,096 events: what a
    /// 4,096-event ring would evict. No ring is kept, and sinks see
    /// every event they subscribe to regardless.
    pub dropped_events: u64,
    /// Twice the worst one-way delay the network delivered.
    pub xi_witness: Duration,
}

impl ClusterRunResult {
    /// The replica outcomes, in world order.
    pub fn replicas(&self) -> impl Iterator<Item = &ReplicaOutcome> {
        self.outcomes.iter().filter_map(|o| match o {
            NodeOutcome::Replica(r) => Some(r.as_ref()),
            NodeOutcome::Client(_) => None,
        })
    }

    /// The client outcomes, in world order.
    pub fn clients(&self) -> impl Iterator<Item = &ClientOutcome> {
        self.outcomes.iter().filter_map(|o| match o {
            NodeOutcome::Client(c) => Some(c),
            NodeOutcome::Replica(_) => None,
        })
    }

    /// Timestamps released across all replicas.
    #[must_use]
    pub fn issued(&self) -> usize {
        self.replicas().map(|r| r.stats.issued).sum()
    }

    /// Requests refused across all replicas (every cause).
    #[must_use]
    pub fn refused(&self) -> usize {
        self.replicas().map(|r| r.stats.refused()).sum()
    }

    /// Elections won across all replicas.
    #[must_use]
    pub fn elections_won(&self) -> usize {
        self.replicas().map(|r| r.stats.elections_won).sum()
    }

    /// The highest view any replica ended in.
    #[must_use]
    pub fn highest_view(&self) -> u64 {
        self.replicas().map(|r| r.view).max().unwrap_or(0)
    }

    /// Monotonicity regressions the *clients* observed (the
    /// end-to-end witness, independent of the oracle).
    #[must_use]
    pub fn client_regressions(&self) -> usize {
        self.clients().map(|c| c.stats.regressions).sum()
    }

    /// Timestamps the clients obtained.
    #[must_use]
    pub fn client_issued(&self) -> usize {
        self.clients().map(|c| c.stats.issued).sum()
    }

    /// Total oracle violations across every cluster.
    ///
    /// # Panics
    ///
    /// Panics when the oracle was not armed.
    #[must_use]
    pub fn oracle_violations(&self) -> usize {
        self.oracle
            .as_ref()
            .expect("oracle was not armed")
            .iter()
            .map(|r| r.total_violations)
            .sum()
    }

    /// True when the oracle was armed and every cluster's report is
    /// clean.
    #[must_use]
    pub fn oracle_clean(&self) -> bool {
        self.oracle
            .as_ref()
            .is_some_and(|reports| reports.iter().all(ClusterReport::is_clean))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dur(s: f64) -> Duration {
        Duration::from_secs(s)
    }

    #[test]
    fn quiet_cluster_runs_clean() {
        let result = ClusterScenario::new()
            .replicas(3, &ReplicaSpec::honest(1e-5, 1e-4))
            .duration(dur(30.0))
            .seed(7)
            .run();
        assert!(result.client_issued() > 10, "client starved");
        assert_eq!(result.client_regressions(), 0);
        assert!(result.oracle_clean(), "{:?}", result.oracle);
        assert!(result.issued() > 0);
        assert_eq!(result.highest_view(), 0, "no failover in a quiet run");
    }

    #[test]
    fn primary_crash_fails_over_and_stays_monotonic() {
        let spec = ReplicaSpec::honest(1e-5, 1e-4);
        let result = ClusterScenario::new()
            .replica(
                spec.clone()
                    .server_fault(ServerFault::crash_at(Timestamp::from_secs(10.0))),
            )
            .replicas(2, &spec)
            .duration(dur(40.0))
            .seed(11)
            .run();
        assert!(result.oracle_clean(), "{:?}", result.oracle);
        assert_eq!(result.client_regressions(), 0);
        assert!(result.elections_won() >= 1, "failover happened");
        assert!(result.highest_view() >= 1);
        let reports = result.oracle.as_ref().unwrap();
        assert!(reports[0].view_changes >= 1);
    }

    #[test]
    fn independent_clusters_each_get_their_own_oracle() {
        let result = ClusterScenario::new()
            .replicas(3, &ReplicaSpec::honest(1e-5, 1e-4))
            .clusters(2)
            .duration(dur(20.0))
            .seed(5)
            .run();
        let reports = result.oracle.as_ref().unwrap();
        assert_eq!(reports.len(), 2);
        assert!(result.oracle_clean(), "{:?}", result.oracle);
        assert!(
            reports.iter().all(|r| r.issues_checked > 0),
            "both clusters issued: {reports:?}"
        );
        assert_eq!(result.outcomes.len(), 8);
    }

    #[test]
    fn sharded_multi_cluster_matches_single_threaded() {
        let build = |shards: usize| {
            ClusterScenario::new()
                .replicas(3, &ReplicaSpec::honest(1e-5, 1e-4))
                .clusters(3)
                .duration(dur(15.0))
                .seed(9)
                .sharded(shards)
        };
        let single = build(0).run();
        let sharded = build(2).run();
        assert_eq!(single.outcomes, sharded.outcomes);
        assert_eq!(single.oracle.as_ref(), sharded.oracle.as_ref());
        assert_eq!(single.net, sharded.net);
        assert_eq!(single.dropped_events, sharded.dropped_events);
    }
}
