//! The seams the traced run measures at, all on the outside of the
//! crates: a `World` the benchmark wires up itself, with the actors and
//! the sinks wrapped so the time spent inside each is counted, plus
//! micro-timings of the queue, the intersection and the request path.
//! Nothing here adds a span or a counter inside a crate.

use std::cell::{Cell, RefCell};
use std::io::BufWriter;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tempo_clocks::{DriftModel, SimClock};
use tempo_cluster::{AuditClient, AuditClientConfig, ClusterConfig, ClusterNode, ClusterReplica};
use tempo_core::marzullo::intersect_tolerating;
use tempo_core::{DriftRate, Duration, TimeInterval, Timestamp};
use tempo_net::{
    node_rng, Actor, Context, DelayModel, EventQueue, NetConfig, NetStats, NodeId, Topology, World,
};
use tempo_oracle::cluster::ClusterOracle;
use tempo_oracle::{Oracle, OracleConfig};
use tempo_service::{
    MemoryStore, Message, RetryPolicy, ServerConfig, ServerFault, Strategy, TimeServer,
};
use tempo_sim::{ClusterOracleSink, JsonlSink, MetricsSink, OracleSink, Scenario};
use tempo_telemetry::{Bus, EventKind, Observer, SampleSnapshot, TelemetryEvent};

use crate::jobs;
use crate::trace::Tracer;

/// `tempo_sim` keeps its bus ring capacity private; the mirror world
/// must use the same one for `dropped_events` to agree, and the traced
/// run checks that it does.
const RING_CAPACITY: usize = 4096;

// --- nesting-aware busy-time accounting ---------------------------------------------

/// The layers a simulated run's time is split between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The world's own stepping: queue, delivery, bus emission.
    World = 0,
    /// Actor callbacks: `service.server` or `cluster.replica`.
    Actor = 1,
    Metrics = 2,
    Oracle = 3,
    Jsonl = 4,
}

const LAYERS: usize = 5;

/// Inclusive time and calls per (enclosing layer, layer). A sink runs
/// either directly under the world (it saw a network event or a
/// sample) or under an actor callback (it saw a protocol event), so
/// two levels of nesting are all there is.
#[derive(Debug)]
pub struct Profile {
    enabled: bool,
    current: Cell<usize>,
    inclusive_ns: [[Cell<u64>; LAYERS]; LAYERS],
    calls: [[Cell<u64>; LAYERS]; LAYERS],
}

impl Profile {
    /// A disabled profile costs one branch per call: the untraced twin
    /// of a traced job runs through the same wrappers.
    pub fn new(enabled: bool) -> Rc<Profile> {
        Rc::new(Profile {
            enabled,
            current: Cell::new(Layer::World as usize),
            inclusive_ns: Default::default(),
            calls: Default::default(),
        })
    }

    fn timed<R>(&self, layer: Layer, body: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return body();
        }
        let parent = self.current.replace(layer as usize);
        let started = Instant::now();
        let result = body();
        let spent = started.elapsed().as_nanos() as u64;
        self.current.set(parent);
        let slot = &self.inclusive_ns[parent][layer as usize];
        slot.set(slot.get() + spent);
        let calls = &self.calls[parent][layer as usize];
        calls.set(calls.get() + 1);
        result
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        (0..LAYERS)
            .map(|p| self.calls[p][layer as usize].get())
            .sum()
    }

    /// Time spent in `layer` itself, wherever it ran: its inclusive
    /// time less what ran nested inside it.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        let inclusive: u64 = (0..LAYERS)
            .map(|p| self.inclusive_ns[p][layer as usize].get())
            .sum();
        let nested: u64 = (0..LAYERS)
            .map(|l| self.inclusive_ns[layer as usize][l].get())
            .sum();
        inclusive.saturating_sub(nested)
    }

    /// Writes the accumulated time as spans under `run` (the span that
    /// covers the world's run): one aggregate span per layer that ran
    /// directly under the world, laid end to end from the run's start,
    /// and inside the actor's span one per sink that ran under it.
    pub fn write_spans(
        &self,
        tracer: &mut Tracer,
        run: u64,
        request: u64,
        actor_name: &'static str,
    ) {
        const SINKS: [(Layer, &str); 3] = [
            (Layer::Metrics, "sim.sinks.metrics"),
            (Layer::Oracle, "oracle"),
            (Layer::Jsonl, "telemetry.json"),
        ];
        let inclusive =
            |parent: Layer, layer: Layer| self.inclusive_ns[parent as usize][layer as usize].get();
        let mut at = tracer.span(run).start_ns;
        let actor = inclusive(Layer::World, Layer::Actor);
        if actor > 0 {
            let id = tracer.record(actor_name, run, request, at, at + actor);
            let mut inner = at;
            for (sink, name) in SINKS {
                let nested = inclusive(Layer::Actor, sink);
                if nested > 0 {
                    tracer.record(name, id, request, inner, inner + nested);
                    inner += nested;
                }
            }
            at += actor;
        }
        for (sink, name) in SINKS {
            let direct = inclusive(Layer::World, sink);
            if direct > 0 {
                tracer.record(name, run, request, at, at + direct);
                at += direct;
            }
        }
    }
}

/// An actor whose callbacks are timed as [`Layer::Actor`].
pub struct TimedActor<A> {
    pub inner: A,
    profile: Rc<Profile>,
}

impl<A: Actor> Actor for TimedActor<A> {
    type Msg = A::Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, A::Msg>) {
        self.profile
            .timed(Layer::Actor, || self.inner.on_start(ctx));
    }

    fn on_message(&mut self, from: NodeId, msg: A::Msg, ctx: &mut Context<'_, A::Msg>) {
        self.profile
            .timed(Layer::Actor, || self.inner.on_message(from, msg, ctx));
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, A::Msg>) {
        self.profile
            .timed(Layer::Actor, || self.inner.on_timer(tag, ctx));
    }
}

/// A sink whose `observe` is timed as `layer`.
pub struct TimedObserver<O> {
    pub inner: O,
    layer: Layer,
    profile: Rc<Profile>,
}

impl<O: Observer> Observer for TimedObserver<O> {
    fn enabled(&self, kind: EventKind) -> bool {
        self.inner.enabled(kind)
    }

    fn observe(&mut self, event: &TelemetryEvent) {
        self.profile.timed(self.layer, || self.inner.observe(event));
    }
}

fn timed_sink<O: Observer + 'static>(
    bus: &Bus,
    sink: O,
    layer: Layer,
    profile: &Rc<Profile>,
) -> Rc<RefCell<TimedObserver<O>>> {
    let sink = Rc::new(RefCell::new(TimedObserver {
        inner: sink,
        layer,
        profile: Rc::clone(profile),
    }));
    bus.subscribe(Rc::clone(&sink));
    sink
}

/// Counts every event the bus builds (the ring makes it build all of
/// them whoever listens).
#[derive(Debug, Default)]
struct CountingSink {
    events: u64,
}

impl Observer for CountingSink {
    fn observe(&mut self, _event: &TelemetryEvent) {
        self.events += 1;
    }
}

fn jsonl_to(path: &Path) -> Result<JsonlSink, String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(JsonlSink::new(Box::new(BufWriter::new(file))))
}

// --- the mirror of `Scenario::run_single` ----------------------------------------------

/// Server `i` exactly as `Scenario::run` builds it (its builder is
/// private): clock seeded from the master seed and the global index.
fn server_for(scenario: &Scenario, i: usize) -> TimeServer {
    let spec = &scenario.servers[i];
    let mut clock = SimClock::builder()
        .drift(spec.drift.clone())
        .initial_value(Timestamp::ZERO + spec.initial_offset)
        .seed(
            scenario
                .seed
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(i as u64),
        );
    if let Some(fault) = spec.fault {
        clock = clock.fault(fault);
    }
    let mut config = ServerConfig::new(scenario.strategy, spec.claimed_bound)
        .resync_period(scenario.resync_period)
        .collect_window(scenario.collect_window)
        .initial_error(spec.initial_error)
        .recovery(scenario.recovery)
        .screening(scenario.screening)
        .apply(scenario.apply)
        .jitter(scenario.jitter)
        .retry(scenario.retry)
        .health(scenario.health)
        .quorum(scenario.quorum)
        .join_after(spec.join_after);
    if let Some(leave) = spec.leave_after {
        config = config.leave_after(leave);
    }
    if let Some(fault) = spec.server_fault {
        config = config.fault(fault);
    }
    TimeServer::new(clock.build(), config)
}

fn net_for(scenario: &Scenario) -> NetConfig {
    let mut net = NetConfig::with_delay(scenario.delay.clone()).loss(scenario.loss);
    if scenario.duplication > 0.0 {
        net = net.duplication(scenario.duplication);
    }
    net.partitions.extend(scenario.partitions.iter().cloned());
    net
}

/// What a mirrored job observed: the counters the public runner would
/// report, for the faithfulness check, and what only the mirror sees.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Mirrored {
    pub net: NetStats,
    pub dropped_events: u64,
    pub events_emitted: u64,
    /// Sync rounds run (E20 jobs) or timestamps issued (failover jobs).
    pub progress: usize,
    pub oracle_clean: bool,
}

impl Mirrored {
    /// Simulated events: the job workloads' operation.
    pub fn events(&self) -> u64 {
        (self.net.delivered + self.net.timers_fired) as u64
    }
}

/// Runs `scenario` unsharded on a world wired up here, every actor and
/// sink wrapped for `profile`, and records a `job` span tree in
/// `tracer` (four spans a job; an untraced twin hands in a tracer it
/// throws away). `export` arms the JSONL sink, the scenario's `oracle`
/// field the oracle.
pub fn mirror_sim(
    scenario: &Scenario,
    export: Option<&Path>,
    profile: &Rc<Profile>,
    tracer: &mut Tracer,
    request: u64,
) -> Result<Mirrored, String> {
    let job = tracer.open("job", 0, request);
    let build = tracer.open("bench.build", job, request);

    let n = scenario.servers.len();
    let bus = Bus::with_ring(RING_CAPACITY);
    let counter = Rc::new(RefCell::new(CountingSink::default()));
    bus.subscribe(Rc::clone(&counter));
    let metrics = timed_sink(&bus, MetricsSink::new(), Layer::Metrics, profile);
    let oracle = scenario.oracle.clone().map(|config: OracleConfig| {
        let oracle = Oracle::new(scenario.seed, config, scenario.server_views());
        timed_sink(&bus, OracleSink::new(oracle), Layer::Oracle, profile)
    });
    let jsonl = match export {
        Some(path) => {
            let mut sink = jsonl_to(path)?;
            sink.run_start(
                scenario.seed,
                n,
                &scenario.strategy.to_string(),
                scenario.xi(),
                scenario.resync_period,
            );
            Some(timed_sink(&bus, sink, Layer::Jsonl, profile))
        }
        None => None,
    };

    let actors: Vec<TimedActor<TimeServer>> = (0..n)
        .map(|i| {
            let mut server = server_for(scenario, i);
            server.attach_bus(bus.clone());
            TimedActor {
                inner: server,
                profile: Rc::clone(profile),
            }
        })
        .collect();
    let topology = scenario
        .topology
        .clone()
        .unwrap_or_else(|| Topology::full_mesh(n));
    let mut world = World::new_with_bus(
        actors,
        topology,
        net_for(scenario),
        scenario.seed,
        bus.clone(),
    );
    tracer.close(build);

    let run = tracer.open("net.world.run", job, request);
    let end = Timestamp::ZERO + scenario.duration;
    world.run_sampled(end, scenario.sample_interval, |t, actors| {
        let servers = actors
            .iter_mut()
            .map(|a| {
                let sample = a.inner.sample(t);
                SampleSnapshot {
                    clock: sample.clock,
                    error: sample.error,
                    true_offset: sample.true_offset,
                    correct: sample.correct,
                    active: a.inner.is_active(),
                }
            })
            .collect();
        bus.emit(TelemetryEvent::Sample { at: t, servers });
    });
    tracer.close(run);
    profile.write_spans(tracer, run, request, "service.server");

    let harvest = tracer.open("bench.harvest", job, request);
    let net = world.stats();
    let xi_witness = world.max_observed_delay() * 2.0;
    let dropped_events = bus.dropped_events();
    if let Some(sink) = &jsonl {
        sink.borrow_mut()
            .inner
            .finish(dropped_events, xi_witness, &net);
    }
    let oracle_clean = oracle
        .and_then(|sink| sink.borrow_mut().inner.finish())
        .is_none_or(|report| report.is_clean());
    let _rows = metrics.borrow_mut().inner.take_rows();
    let rounds = world.actors().iter().map(|a| a.inner.stats().rounds).sum();
    tracer.close(harvest);
    tracer.close(job);
    let events_emitted = counter.borrow().events;
    Ok(Mirrored {
        net,
        dropped_events,
        events_emitted,
        progress: rounds,
        oracle_clean,
    })
}

// --- the mirror of `ClusterScenario::run_single` -----------------------------------------

/// Node `k` of cluster `g` of the failover deployment, as
/// `ClusterScenario::run` builds it from [`jobs::failover`]'s settings
/// (its builder and fields are private, so the settings are restated:
/// the storm on replica 0, honest drift 1e-5 under a 1e-4 bound, and
/// the scenario's defaults for everything `failover` leaves alone).
fn cluster_node(seed: u64, g: usize, k: usize) -> ClusterNode {
    let per = jobs::REPLICAS + jobs::CLIENTS;
    let base = g * per;
    let replica_ids: Vec<NodeId> = (base..base + jobs::REPLICAS).map(NodeId::new).collect();
    let request_timeout = Duration::from_secs(0.5);
    if k >= jobs::REPLICAS {
        return AuditClient::new(
            AuditClientConfig::new(replica_ids)
                .period(Duration::from_millis(jobs::CLIENT_PERIOD_MS))
                .request_timeout(request_timeout),
        )
        .into();
    }
    let clock = SimClock::builder()
        .drift(DriftModel::Constant(1e-5))
        .initial_value(Timestamp::ZERO)
        .seed(
            seed.wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add((base + k) as u64),
        )
        .build();
    let mut server = ServerConfig::new(
        Strategy::MarzulloTolerant { max_faulty: 0 },
        DriftRate::new(1e-4),
    )
    .resync_period(Duration::from_secs(5.0))
    .collect_window(Duration::from_secs(0.5))
    .initial_error(Duration::from_millis(10.0))
    .jitter(0.0);
    if k == 0 {
        server = server.fault(ServerFault::restart_storm(
            Timestamp::from_secs(10.0),
            Duration::from_secs(5.0),
            Duration::from_secs(10.0),
            false,
        ));
    }
    let cluster = ClusterConfig::new(replica_ids, k)
        .max_faulty(0)
        .lease_duration(Duration::from_secs(0.4))
        .renew_period(Duration::from_secs(0.1))
        .election_timeout(Duration::from_secs(0.3))
        .request_timeout(request_timeout)
        .tick(Duration::from_secs(0.05))
        .rtt_slack(Duration::from_millis(20.0))
        .amnesia(false);
    ClusterReplica::new(
        TimeServer::new(clock, server),
        cluster,
        Box::new(MemoryStore::new()),
    )
    .into()
}

/// Runs the failover deployment for `seed` on a world wired up here,
/// exporting JSONL to `export` (the failover-gap pass reads it).
pub fn mirror_cluster(
    seed: u64,
    export: &Path,
    profile: &Rc<Profile>,
    tracer: &mut Tracer,
    request: u64,
) -> Result<Mirrored, String> {
    let job = tracer.open("job", 0, request);
    let build = tracer.open("bench.build", job, request);

    let per = jobs::REPLICAS + jobs::CLIENTS;
    let n = jobs::CLUSTERS * per;
    let bus = Bus::with_ring(RING_CAPACITY);
    let counter = Rc::new(RefCell::new(CountingSink::default()));
    bus.subscribe(Rc::clone(&counter));
    let oracles = (0..jobs::CLUSTERS)
        .map(|_| ClusterOracle::new(seed))
        .collect();
    let cluster_of = (0..n).map(|i| i / per).collect();
    let oracle = timed_sink(
        &bus,
        ClusterOracleSink::new(oracles, cluster_of),
        Layer::Oracle,
        profile,
    );
    let delay = DelayModel::Constant(Duration::from_millis(jobs::LINK_DELAY_MS));
    let mut sink = jsonl_to(export)?;
    sink.run_start(
        seed,
        n,
        &format!("cluster+{}", Strategy::MarzulloTolerant { max_faulty: 0 }),
        delay.max_delay() * 2.0,
        Duration::from_secs(5.0),
    );
    let jsonl = timed_sink(&bus, sink, Layer::Jsonl, profile);

    let actors: Vec<TimedActor<ClusterNode>> = (0..n)
        .map(|i| {
            let mut node = cluster_node(seed, i / per, i % per);
            if let Some(replica) = node.as_replica_mut() {
                replica.attach_bus(bus.clone());
            }
            TimedActor {
                inner: node,
                profile: Rc::clone(profile),
            }
        })
        .collect();
    let mut world = World::new_with_bus(
        actors,
        Topology::disjoint_cliques(jobs::CLUSTERS, per),
        NetConfig::with_delay(delay).loss(0.0),
        seed,
        bus.clone(),
    );
    tracer.close(build);

    let run = tracer.open("net.world.run", job, request);
    world.run_until(Timestamp::from_secs(jobs::SIM_SECONDS));
    tracer.close(run);
    profile.write_spans(tracer, run, request, "cluster.replica");

    let harvest = tracer.open("bench.harvest", job, request);
    let net = world.stats();
    let dropped_events = bus.dropped_events();
    jsonl
        .borrow_mut()
        .inner
        .finish(dropped_events, world.max_observed_delay() * 2.0, &net);
    let oracle_clean = oracle
        .borrow_mut()
        .inner
        .finish()
        .is_some_and(|reports| reports.iter().all(|r| r.is_clean()));
    let issued = world
        .actors()
        .iter()
        .filter_map(|a| a.inner.as_replica())
        .map(|r| r.stats().issued)
        .sum();
    tracer.close(harvest);
    tracer.close(job);
    let events_emitted = counter.borrow().events;
    Ok(Mirrored {
        net,
        dropped_events,
        events_emitted,
        progress: issued,
        oracle_clean,
    })
}

// --- micro-timings -------------------------------------------------------------------------

fn ns_per(ops: usize, body: impl FnOnce()) -> f64 {
    let started = Instant::now();
    body();
    started.elapsed().as_nanos() as f64 / ops as f64
}

/// Nanoseconds per pop-then-push on an [`EventQueue`] holding `pending`
/// timers spread a millisecond apart: the queue work one simulated
/// event costs.
pub fn queue_churn_ns(pending: usize, ops: usize) -> f64 {
    let horizon = Duration::from_secs(pending as f64 * 1e-3);
    let mut queue = EventQueue::new();
    for i in 0..pending {
        let _ = queue.push(Timestamp::from_secs(i as f64 * 1e-3), i);
    }
    ns_per(ops, || {
        for _ in 0..ops {
            let (at, i) = queue.pop().expect("the queue stays full");
            let _ = queue.push(at + horizon, std::hint::black_box(i));
        }
    })
}

/// Nanoseconds per `intersect_tolerating` call on 19 seeded intervals
/// with `f = 1`: what one E20 round (a clique of 20 less oneself) asks.
pub fn intersect_ns(seed: u64, calls: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let sets: Vec<Vec<TimeInterval>> = (0..64)
        .map(|_| {
            (0..19)
                .map(|_| {
                    let centre = 100.0 + rng.random_range(-0.005..0.005);
                    let half = rng.random_range(0.010..0.030);
                    TimeInterval::new(
                        Timestamp::from_secs(centre - half),
                        Timestamp::from_secs(centre + half),
                    )
                })
                .collect()
        })
        .collect();
    ns_per(calls, || {
        for i in 0..calls {
            let hull = intersect_tolerating(std::hint::black_box(&sets[i % sets.len()]), 1);
            assert!(
                std::hint::black_box(hull).is_some(),
                "19 overlapping intervals intersect"
            );
        }
    })
}

/// A `TimeServer` as `tempod` builds it and as `UdpRuntime::start`
/// starts it (the join is what makes it serve), for driving through
/// [`Context::external`]. The timers and polls its start queues are
/// dropped: no sync round ever runs.
pub fn daemon_server(initial_clock: f64, rng: &mut StdRng) -> TimeServer {
    let clock = SimClock::builder()
        .initial_value(Timestamp::from_secs(initial_clock))
        .drift(DriftModel::Constant(0.0))
        .seed(0)
        .build();
    let config = ServerConfig::new(Strategy::Im, DriftRate::new(1e-4))
        .resync_period(Duration::from_secs(0.05))
        .collect_window(Duration::from_secs(0.02))
        .initial_error(Duration::from_secs(0.01))
        .retry(RetryPolicy::backoff_defaults())
        .quorum(1);
    let mut server = TimeServer::new(clock, config);
    let neighbors = [NodeId::new(1)];
    let mut ctx = Context::external(Timestamp::ZERO, NodeId::new(0), &neighbors, rng);
    server.on_start(&mut ctx);
    let _ = ctx.take_actions();
    server
}

/// One request through `TimeServer::on_message` the way `UdpRuntime`
/// drives it, returning the reply it queued.
pub fn actor_reply(
    server: &mut TimeServer,
    rng: &mut StdRng,
    now: Timestamp,
    request: Message,
) -> Option<Message> {
    let me = NodeId::new(0);
    let client = NodeId::new(2);
    let neighbors = [NodeId::new(1), client];
    let mut ctx = Context::external(now, me, &neighbors, rng);
    server.on_message(client, request, &mut ctx);
    ctx.take_actions()
        .into_iter()
        .find_map(|action| match action {
            tempo_net::ActorAction::Send { msg, .. } => Some(msg),
            tempo_net::ActorAction::Timer { .. } => None,
        })
}

/// The protocol RNG `UdpRuntime` derives for node 0.
pub fn daemon_rng() -> StdRng {
    node_rng(0, NodeId::new(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_charges_nested_time_to_the_inner_layer() {
        let profile = Profile::new(true);
        let spin = |ms: u64| {
            let until = Instant::now() + std::time::Duration::from_millis(ms);
            while Instant::now() < until {}
        };
        profile.timed(Layer::Actor, || {
            spin(20);
            profile.timed(Layer::Oracle, || spin(30));
        });
        profile.timed(Layer::Oracle, || spin(10));
        let ms = |ns: u64| ns as f64 / 1e6;
        // Tolerances leave room for a time slice lost to another test.
        // The actor ran 50 ms inclusive, 20 of them its own.
        assert!((ms(profile.self_ns(Layer::Actor)) - 20.0).abs() < 8.0);
        // The oracle ran 30 ms under the actor and 10 under the world.
        assert!((ms(profile.self_ns(Layer::Oracle)) - 40.0).abs() < 8.0);
        assert_eq!(profile.calls(Layer::Oracle), 2);

        let mut tracer = Tracer::new();
        let run = tracer.record("net.world.run", 0, 1, 0, 100_000_000);
        profile.write_spans(&mut tracer, run, 1, "service.server");
        let times = crate::trace::self_times(tracer.spans());
        assert!((ms(times["service.server"].0) - 20.0).abs() < 8.0);
        assert!((ms(times["oracle"].0) - 40.0).abs() < 8.0);
        assert!((ms(times["net.world.run"].0) - 40.0).abs() < 16.0);
    }

    #[test]
    fn a_disabled_profile_records_nothing() {
        let profile = Profile::new(false);
        assert_eq!(profile.timed(Layer::Actor, || 7), 7);
        assert_eq!(profile.calls(Layer::Actor), 0);
        assert_eq!(profile.self_ns(Layer::Actor), 0);
    }

    #[test]
    fn the_mirrored_world_reproduces_the_public_runner() {
        let scenario = jobs::e20(40, 11).duration(Duration::from_secs(20.0));
        let public = scenario.run();
        let mirrored =
            mirror_sim(&scenario, None, &Profile::new(false), &mut Tracer::new(), 0).unwrap();
        assert_eq!(mirrored.net, public.net);
        assert_eq!(mirrored.dropped_events, public.dropped_events);
        let rounds: usize = public.final_stats.iter().map(|s| s.rounds).sum();
        assert_eq!(mirrored.progress, rounds);
    }

    #[test]
    fn micro_timings_are_positive_and_plausible() {
        let churn = queue_churn_ns(1_000, 100_000);
        assert!(churn > 1.0 && churn < 10_000.0, "{churn} ns per pop+push");
        let intersect = intersect_ns(3, 10_000);
        assert!(
            intersect > 10.0 && intersect < 1_000_000.0,
            "{intersect} ns per call"
        );
    }

    #[test]
    fn the_daemon_server_answers_a_request() {
        let mut rng = daemon_rng();
        let mut server = daemon_server(5.0, &mut rng);
        let reply = actor_reply(
            &mut server,
            &mut rng,
            Timestamp::from_secs(1.0),
            Message::TimeRequest {
                request_id: 9,
                attempt: 0,
            },
        );
        match reply {
            Some(Message::TimeReply {
                request_id,
                estimate,
                ..
            }) => {
                assert_eq!(request_id, 9);
                assert!((estimate.time().as_secs() - 6.0).abs() < 1e-6);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
