//! Declarative scenario construction.
//!
//! A [`Scenario`] describes a complete time-service deployment — server
//! clocks, claimed bounds, strategy, topology, network behaviour, and
//! measurement schedule — and [`Scenario::run`] executes it
//! deterministically, returning a [`crate::metrics::RunResult`].

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;

use tempo_clocks::{DriftModel, Fault, SimClock};
use tempo_core::{DriftRate, Duration, Timestamp};
use tempo_net::{DelayModel, NodeId, Partition, Topology};
use tempo_oracle::{EnvelopeKind, EnvelopeParams, Oracle, OracleConfig, ServerView};
use tempo_service::{
    ApplyMode, HealthConfig, RecoveryPolicy, RetryPolicy, ScreeningPolicy, ServerConfig,
    ServerFault, ServerStats, Strategy, TimeServer,
};
use tempo_telemetry::{Bus, SampleSnapshot};

use crate::engine::{self, Deployment, Plan, Sampler};
use crate::metrics::RunResult;
use crate::sinks::{MetricsSink, OracleSink};

/// One server's hardware and claims.
#[derive(Debug, Clone)]
pub struct ServerSpec {
    /// The clock's actual drift process.
    pub drift: DriftModel,
    /// The *claimed* bound `δ_i` (may be invalid — that is the
    /// experiment in §3).
    pub claimed_bound: DriftRate,
    /// Initial inherited error `ε_i(0)`.
    pub initial_error: Duration,
    /// Initial clock offset from true time (positive = fast).
    pub initial_offset: Duration,
    /// Optional armed clock fault.
    pub fault: Option<Fault>,
    /// Optional armed server-process fault (crash / lie / corruption).
    pub server_fault: Option<ServerFault>,
    /// Delay before this server joins the service (§1.1 churn).
    pub join_after: Duration,
    /// When this server leaves the service, if ever.
    pub leave_after: Option<Duration>,
}

impl ServerSpec {
    /// A server with the given actual drift and claimed bound, starting
    /// correct (zero offset) with a 10 ms initial error.
    #[must_use]
    pub fn new(drift: DriftModel, claimed_bound: DriftRate) -> Self {
        ServerSpec {
            drift,
            claimed_bound,
            initial_error: Duration::from_millis(10.0),
            initial_offset: Duration::ZERO,
            fault: None,
            server_fault: None,
            join_after: Duration::ZERO,
            leave_after: None,
        }
    }

    /// A well-behaved server: constant actual drift `drift`, honest
    /// claimed bound `bound ≥ |drift|`.
    ///
    /// # Panics
    ///
    /// Panics if the claimed bound does not cover the actual drift (use
    /// the long constructor to build dishonest servers deliberately).
    #[must_use]
    pub fn honest(drift: f64, bound: f64) -> Self {
        assert!(
            drift.abs() <= bound,
            "honest server requires |drift| ≤ bound; got {drift} vs {bound}"
        );
        ServerSpec::new(DriftModel::Constant(drift), DriftRate::new(bound))
    }

    /// Sets the initial inherited error.
    #[must_use]
    pub fn initial_error(mut self, error: Duration) -> Self {
        self.initial_error = error;
        self
    }

    /// Sets the initial clock offset from true time.
    #[must_use]
    pub fn initial_offset(mut self, offset: Duration) -> Self {
        self.initial_offset = offset;
        self
    }

    /// Arms a fault on this server's clock.
    #[must_use]
    pub fn fault(mut self, fault: Fault) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Arms a fault on the server *process* (crash / lie / corruption).
    #[must_use]
    pub fn server_fault(mut self, fault: ServerFault) -> Self {
        self.server_fault = Some(fault);
        self
    }

    /// Delays this server's entry into the service.
    #[must_use]
    pub fn join_after(mut self, delay: Duration) -> Self {
        self.join_after = delay;
        self
    }

    /// Schedules this server's departure.
    #[must_use]
    pub fn leave_after(mut self, at: Duration) -> Self {
        self.leave_after = Some(at);
        self
    }
}

/// A complete, runnable deployment description.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Per-server hardware and claims.
    pub servers: Vec<ServerSpec>,
    /// The synchronization function every server runs.
    pub strategy: Strategy,
    /// The server graph (must match the number of servers; defaults to a
    /// full mesh at [`Scenario::run`] when left `None`).
    pub topology: Option<Topology>,
    /// One-way delay model.
    pub delay: DelayModel,
    /// Message loss probability.
    pub loss: f64,
    /// Message duplication probability.
    pub duplication: f64,
    /// Scheduled network partitions.
    pub partitions: Vec<Partition>,
    /// Resync period `τ`.
    pub resync_period: Duration,
    /// Round collection window.
    pub collect_window: Duration,
    /// Reaction to inconsistency.
    pub recovery: RecoveryPolicy,
    /// §5 rate screening (applied to every server).
    pub screening: ScreeningPolicy,
    /// How resets are realised: always [`ApplyMode::Step`]. Kept
    /// because the repo benchmark still passes it to
    /// [`ServerConfig::apply`].
    pub apply: ApplyMode,
    /// Resync-period jitter fraction.
    pub jitter: f64,
    /// Per-request timeout/retry policy (applied to every server).
    pub retry: RetryPolicy,
    /// Peer health thresholds (used when `retry` is enabled).
    pub health: HealthConfig,
    /// Round reply quorum; starved rounds degrade (`0` disables).
    pub quorum: usize,
    /// How long to run.
    pub duration: Duration,
    /// Measurement sampling interval.
    pub sample_interval: Duration,
    /// Master seed (drives clocks, network, and per-server RNGs).
    pub seed: u64,
    /// When set, the run is checked online against the paper's theorems
    /// (an [`OracleSink`] is subscribed to the telemetry bus) and the
    /// findings are returned in [`RunResult::oracle`]. Servers with an
    /// armed clock or process fault, or whose actual drift exceeds the
    /// claimed bound, are observed but never checked.
    pub oracle: Option<OracleConfig>,
    /// When set, every telemetry event is exported to this path as
    /// JSONL (schema in EXPERIMENTS.md), truncating any existing
    /// file. When `None`, the process-wide default registered with
    /// [`crate::sinks::set_default_telemetry_out`] is used instead,
    /// in append mode.
    pub telemetry_out: Option<PathBuf>,
    /// Worker-thread cap for component-sharded execution (`0`
    /// disables sharding). When the topology splits into more than
    /// one connected component and no oracle or JSONL export reads the
    /// full event stream, each component runs as an independent
    /// sub-world on a pool of this many scoped threads and their
    /// per-tick samples are stitched into the deployment-wide ones, so
    /// every observable output is identical to the unsharded run. A run
    /// with an oracle or an export runs as one world.
    pub shards: usize,
}

impl Scenario {
    /// A scenario skeleton with sane defaults: 10 ms-max uniform delay,
    /// no loss, `τ = 10 s`, 0.5 s window, 10 % jitter, 5-minute run
    /// sampled every second, seed 0.
    #[must_use]
    pub fn new(strategy: Strategy) -> Self {
        Scenario {
            servers: Vec::new(),
            strategy,
            topology: None,
            delay: DelayModel::Uniform {
                min: Duration::ZERO,
                max: Duration::from_millis(10.0),
            },
            loss: 0.0,
            duplication: 0.0,
            partitions: Vec::new(),
            resync_period: Duration::from_secs(10.0),
            collect_window: Duration::from_secs(0.5),
            recovery: RecoveryPolicy::Ignore,
            screening: ScreeningPolicy::Off,
            apply: ApplyMode::Step,
            jitter: 0.1,
            retry: RetryPolicy::Off,
            health: HealthConfig::default(),
            quorum: 0,
            duration: Duration::from_secs(300.0),
            sample_interval: Duration::from_secs(1.0),
            seed: 0,
            oracle: None,
            telemetry_out: None,
            shards: 0,
        }
    }

    /// Adds a server.
    #[must_use]
    pub fn server(mut self, spec: ServerSpec) -> Self {
        self.servers.push(spec);
        self
    }

    /// Adds `n` identical servers.
    #[must_use]
    pub fn servers(mut self, n: usize, spec: &ServerSpec) -> Self {
        for _ in 0..n {
            self.servers.push(spec.clone());
        }
        self
    }

    /// Sets an explicit topology.
    #[must_use]
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Sets the delay model.
    #[must_use]
    pub fn delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Sets the loss probability.
    #[must_use]
    pub fn loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Sets the duplication probability.
    #[must_use]
    pub fn duplication(mut self, duplication: f64) -> Self {
        self.duplication = duplication;
        self
    }

    /// Schedules a network partition.
    #[must_use]
    pub fn partition(mut self, partition: Partition) -> Self {
        self.partitions.push(partition);
        self
    }

    /// Sets the resync period `τ`.
    #[must_use]
    pub fn resync_period(mut self, tau: Duration) -> Self {
        self.resync_period = tau;
        self
    }

    /// Sets the round collection window.
    #[must_use]
    pub fn collect_window(mut self, window: Duration) -> Self {
        self.collect_window = window;
        self
    }

    /// Sets the recovery policy.
    #[must_use]
    pub fn recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Enables §5 rate screening on every server.
    #[must_use]
    pub fn screening(mut self, screening: ScreeningPolicy) -> Self {
        self.screening = screening;
        self
    }

    /// Sets the jitter fraction.
    #[must_use]
    pub fn jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter;
        self
    }

    /// Sets the timeout/retry policy on every server.
    #[must_use]
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the peer health thresholds on every server.
    #[must_use]
    pub fn health(mut self, health: HealthConfig) -> Self {
        self.health = health;
        self
    }

    /// Sets the round reply quorum on every server.
    #[must_use]
    pub fn quorum(mut self, quorum: usize) -> Self {
        self.quorum = quorum;
        self
    }

    /// Sets the run duration.
    #[must_use]
    pub fn duration(mut self, duration: Duration) -> Self {
        self.duration = duration;
        self
    }

    /// Sets the sampling interval.
    #[must_use]
    pub fn sample_interval(mut self, interval: Duration) -> Self {
        self.sample_interval = interval;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Arms the theorem oracle.
    #[must_use]
    pub fn oracle(mut self, config: OracleConfig) -> Self {
        self.oracle = Some(config);
        self
    }

    /// Exports the run's telemetry stream to `path` as JSONL.
    #[must_use]
    pub fn telemetry_out(mut self, path: impl Into<PathBuf>) -> Self {
        self.telemetry_out = Some(path.into());
        self
    }

    /// Enables component-sharded execution on up to `threads` worker
    /// threads (`0` disables). Only takes effect when the topology has
    /// more than one connected component and the run's sinks read the
    /// samples alone: a run with an oracle, a JSONL export or the
    /// process-wide default export reads the full event stream and runs
    /// as one world. Results are identical to the single-threaded run
    /// either way.
    #[must_use]
    pub fn sharded(mut self, threads: usize) -> Self {
        self.shards = threads;
        self
    }

    /// How the oracle will view each server: its claimed bound, and
    /// whether the theorems apply to it — no clock fault, no Byzantine
    /// process fault, actual drift within the claim. A server with only
    /// a [`ServerFaultKind::WeakenAdoption`](tempo_service::ServerFaultKind)
    /// bug stays trusted: the theorems *should* hold for it, and the
    /// oracle's job is to report that they don't.
    #[must_use]
    pub fn server_views(&self) -> Vec<ServerView> {
        self.servers
            .iter()
            .map(|spec| ServerView {
                drift_bound: spec.claimed_bound,
                trusted: spec.fault.is_none()
                    && !spec.server_fault.is_some_and(|f| f.is_byzantine())
                    && spec.drift.max_drift() <= spec.claimed_bound.as_f64(),
            })
            .collect()
    }

    /// The worst-case round-trip `ξ` implied by the delay model.
    #[must_use]
    pub fn xi(&self) -> Duration {
        self.delay.max_delay() * 2.0
    }

    /// The steady state the bound theorems hold this deployment to —
    /// Theorems 2 & 3 under MM, Theorem 7 under IM, `None` for any other
    /// strategy: its `ξ`; as `τ`, the longest spacing of one server's
    /// resets, the period stretched by its jitter plus the collection
    /// window; and a warm-up of three periods.
    #[must_use]
    pub fn envelope(&self) -> Option<EnvelopeParams> {
        let kind = match self.strategy {
            Strategy::Mm => EnvelopeKind::Mm,
            Strategy::Im => EnvelopeKind::Im,
            _ => return None,
        };
        Some(EnvelopeParams {
            kind,
            xi: self.xi(),
            tau: self.resync_period * (1.0 + self.jitter) + self.collect_window,
            warmup: Timestamp::ZERO + self.resync_period * 3.0,
        })
    }

    /// Builds the world and runs it, sampling on the configured
    /// schedule.
    ///
    /// This is a pure wiring layer over the telemetry bus: it
    /// subscribes a [`MetricsSink`] (always), an [`OracleSink`] (when
    /// an oracle is armed), and a [`crate::JsonlSink`] (when an export
    /// path is configured), and everything in the returned
    /// [`RunResult`] is reconstructed from the event stream those sinks
    /// saw.
    ///
    /// When [`Scenario::sharded`] is enabled, nothing but the metrics
    /// reads the run, and the topology splits into independent
    /// connected components, each component runs as its own sub-world
    /// on a scoped worker thread and their samples are stitched back
    /// into deployment-wide ones — the sinks (and therefore the result)
    /// cannot tell the difference.
    ///
    /// # Panics
    ///
    /// Panics if the scenario has no servers, the explicit topology
    /// size does not match, or the telemetry export file cannot be
    /// written.
    #[must_use]
    pub fn run(&self) -> RunResult {
        assert!(
            !self.servers.is_empty(),
            "scenario needs at least one server"
        );
        let n = self.servers.len();
        let topology = self
            .topology
            .clone()
            .unwrap_or_else(|| Topology::full_mesh(n));
        assert_eq!(topology.len(), n, "topology size must match server count");
        let run = engine::run(self, topology);
        let samples = run.sinks.metrics.borrow_mut().take_rows();
        RunResult {
            samples,
            final_stats: run.world.outcomes,
            net: run.world.net,
            oracle: run.sinks.oracle.and_then(|sink| sink.borrow_mut().finish()),
            dropped_events: run.dropped_events,
            xi_witness: run.xi_witness,
        }
    }

    fn sample_servers(t: Timestamp, actors: &mut [TimeServer]) -> Vec<SampleSnapshot> {
        actors.iter_mut().map(|s| s.sample(t)).collect()
    }
}

/// The sinks a time-service run reports through.
pub(crate) struct SinkSet {
    metrics: Rc<RefCell<MetricsSink>>,
    oracle: Option<Rc<RefCell<OracleSink>>>,
}

impl Deployment for Scenario {
    type Node = TimeServer;
    type Outcome = ServerStats;
    type Sinks = SinkSet;

    fn plan(&self) -> Plan<'_> {
        Plan {
            seed: self.seed,
            duration: self.duration,
            shards: self.shards,
            delay: &self.delay,
            loss: self.loss,
            duplication: self.duplication,
            partitions: &self.partitions,
            telemetry_out: self.telemetry_out.as_ref(),
            label: self.strategy.to_string(),
            resync_period: self.resync_period,
        }
    }

    fn build_node(&self, i: usize, _members: &[NodeId]) -> TimeServer {
        let spec = &self.servers[i];
        let mut builder = SimClock::builder()
            .drift(spec.drift.clone())
            .initial_value(Timestamp::ZERO + spec.initial_offset)
            .seed(engine::clock_seed(self.seed, i));
        if let Some(fault) = spec.fault {
            builder = builder.fault(fault);
        }
        let mut config = ServerConfig::new(self.strategy, spec.claimed_bound)
            .resync_period(self.resync_period)
            .collect_window(self.collect_window)
            .initial_error(spec.initial_error)
            .recovery(self.recovery)
            .screening(self.screening)
            .jitter(self.jitter)
            .retry(self.retry)
            .health(self.health)
            .quorum(self.quorum)
            .join_after(spec.join_after);
        if let Some(leave) = spec.leave_after {
            config = config.leave_after(leave);
        }
        if let Some(fault) = spec.server_fault {
            config = config.fault(fault);
        }
        TimeServer::new(builder.build(), config)
    }

    fn sampler(&self) -> Option<(Duration, Sampler<TimeServer>)> {
        Some((self.sample_interval, Scenario::sample_servers))
    }

    fn outcome(node: &TimeServer) -> ServerStats {
        node.stats()
    }

    fn attach_sinks(&self, bus: &Bus) -> SinkSet {
        let metrics = Rc::new(RefCell::new(MetricsSink::new()));
        bus.subscribe(Rc::clone(&metrics));
        let oracle = self.oracle.clone().map(|config| {
            let sink = Rc::new(RefCell::new(OracleSink::new(Oracle::new(
                self.seed,
                config,
                self.server_views(),
            ))));
            bus.subscribe(Rc::clone(&sink));
            sink
        });
        SinkSet { metrics, oracle }
    }

    fn wants_full_stream(&self) -> bool {
        self.oracle.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_oracle::TheoremId;

    #[test]
    fn default_scenario_runs_and_samples() {
        let result = Scenario::new(Strategy::Im)
            .servers(3, &ServerSpec::honest(1e-5, 1e-4))
            .duration(Duration::from_secs(60.0))
            .run();
        assert_eq!(result.samples.len(), 60);
        assert_eq!(result.final_stats.len(), 3);
        assert!(result.net.sent > 0);
        // Everyone stayed correct.
        assert_eq!(result.correctness_violations(), 0);
    }

    #[test]
    fn scenario_is_deterministic() {
        let build = || {
            Scenario::new(Strategy::Mm)
                .servers(4, &ServerSpec::honest(2e-5, 1e-4))
                .duration(Duration::from_secs(50.0))
                .seed(9)
                .run()
        };
        let a = build();
        let b = build();
        assert_eq!(a.samples.len(), b.samples.len());
        for (ra, rb) in a.samples.iter().zip(&b.samples) {
            assert_eq!(ra.per_server, rb.per_server);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            Scenario::new(Strategy::Im)
                .servers(3, &ServerSpec::honest(0.0, 1e-4))
                .duration(Duration::from_secs(30.0))
                .seed(seed)
                .run()
                .samples
                .last()
                .unwrap()
                .per_server
                .clone()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn fault_tolerance_knobs_reach_the_servers() {
        use tempo_net::NodeId;
        let result = Scenario::new(Strategy::Im)
            .servers(3, &ServerSpec::honest(1e-5, 1e-4))
            .server(
                ServerSpec::honest(1e-5, 1e-4)
                    .server_fault(ServerFault::crash_at(Timestamp::from_secs(30.0))),
            )
            .loss(0.2)
            .duplication(0.05)
            .partition(Partition {
                from: Timestamp::from_secs(60.0),
                until: Timestamp::from_secs(90.0),
                groups: vec![
                    vec![NodeId::new(0), NodeId::new(1)],
                    vec![NodeId::new(2), NodeId::new(3)],
                ],
            })
            .retry(RetryPolicy::backoff_defaults())
            .quorum(1)
            .duration(Duration::from_secs(200.0))
            .seed(5)
            .run();
        let timeouts: usize = result.final_stats.iter().map(|s| s.timeouts).sum();
        assert!(timeouts > 0, "loss + a crashed peer must cause timeouts");
        let suspected: usize = result.final_stats.iter().map(|s| s.peers_suspected).sum();
        assert!(suspected > 0, "the crashed server must get suspected");
        // The three honest servers stay correct; only the crashed one is
        // exempt (its clock keeps claiming MM-1 growth, which is fine —
        // crash means silent, not wrong).
        let violations = result.violations_per_server();
        assert_eq!(&violations[..3], &[0, 0, 0], "honest servers violated");
    }

    #[test]
    fn oracle_gated_clean_run_is_clean() {
        let result = Scenario::new(Strategy::Im)
            .servers(4, &ServerSpec::honest(1e-5, 1e-4))
            .duration(Duration::from_secs(120.0))
            .oracle(OracleConfig::safety())
            .seed(3)
            .run();
        let report = result.oracle.expect("oracle was armed");
        assert!(report.is_clean(), "{report}");
        assert!(report.samples_checked > 0);
        assert!(report.rounds_checked > 0, "IM rounds must be traced");
    }

    #[test]
    fn oracle_flags_an_incorrect_trusted_server() {
        // Server 2 is honest by every static criterion (no fault, drift
        // within the claim) but starts a full second off under a 10 ms
        // error claim — Theorem 1 is violated from the first sample, and
        // the report must attribute it with the scenario seed attached.
        let result = Scenario::new(Strategy::Mm)
            .servers(2, &ServerSpec::honest(1e-5, 1e-4))
            .server(ServerSpec::honest(1e-5, 1e-4).initial_offset(Duration::from_secs(1.0)))
            .duration(Duration::from_secs(30.0))
            .oracle(OracleConfig::safety())
            .seed(8)
            .run();
        let report = result.oracle.expect("oracle was armed");
        assert!(!report.is_clean(), "an incorrect server must surface");
        let v = report.first().expect("violation");
        assert_eq!(v.seed, 8);
        assert_eq!(v.server, 2);
        assert_eq!(v.theorem, TheoremId::Correctness);
    }

    #[test]
    fn oracle_off_means_no_report_and_no_tracing() {
        let result = Scenario::new(Strategy::Im)
            .servers(3, &ServerSpec::honest(1e-5, 1e-4))
            .duration(Duration::from_secs(30.0))
            .run();
        assert!(result.oracle.is_none());
    }

    #[test]
    fn server_views_reflect_trust() {
        let scenario = Scenario::new(Strategy::Mm)
            .server(ServerSpec::honest(1e-5, 1e-4))
            .server(ServerSpec::new(
                DriftModel::Constant(5e-3),
                DriftRate::new(1e-4),
            ))
            .server(
                ServerSpec::honest(1e-5, 1e-4)
                    .server_fault(ServerFault::crash_at(Timestamp::from_secs(1.0))),
            );
        let views = scenario.server_views();
        assert!(views[0].trusted);
        assert!(!views[1].trusted, "drift beyond the claim");
        assert!(!views[2].trusted, "armed process fault");
    }

    #[test]
    #[should_panic(expected = "needs at least one server")]
    fn empty_scenario_rejected() {
        let _ = Scenario::new(Strategy::Mm).run();
    }

    #[test]
    #[should_panic(expected = "honest server requires")]
    fn dishonest_spec_via_honest_ctor_rejected() {
        let _ = ServerSpec::honest(1e-3, 1e-5);
    }

    #[test]
    fn xi_is_twice_max_delay() {
        let s = Scenario::new(Strategy::Mm).delay(DelayModel::Constant(Duration::from_secs(0.02)));
        assert_eq!(s.xi(), Duration::from_secs(0.04));
    }

    #[test]
    fn initial_offset_is_applied() {
        let result = Scenario::new(Strategy::Mm)
            .server(
                ServerSpec::honest(0.0, 1e-6)
                    .initial_offset(Duration::from_secs(2.0))
                    .initial_error(Duration::from_secs(3.0)),
            )
            .server(ServerSpec::honest(0.0, 1e-6).initial_error(Duration::from_secs(3.0)))
            .duration(Duration::from_secs(5.0))
            .resync_period(Duration::from_secs(100.0)) // effectively never
            .run();
        let first = &result.samples[0].per_server;
        assert!((first[0].true_offset.as_secs() - 2.0).abs() < 1e-9);
        assert!(first[1].true_offset.abs().as_secs() < 1e-9);
    }
}
