//! The deployment engine: the one place a declarative deployment
//! becomes a running [`World`].
//!
//! Both deployment layers — the paper's time service
//! ([`crate::Scenario`]) and the ClusterTime layer above it
//! ([`crate::ClusterScenario`]) — run through [`run`]. A
//! [`Deployment`] says what is particular to its layer: how node `i` is
//! built, whether the run is sampled on a tick,
//! which sinks listen, and what a node's final state looks like.
//! Everything else is written here once: the network configuration and
//! clock seeds, the single combined world, and the sharded path — each
//! connected component an independent sub-world on a scoped worker
//! thread, its telemetry recorded verbatim and k-way merged back into
//! the exact emission order of the combined world, so no sink (and
//! therefore no result) can tell the two paths apart.
//!
//! Node names in a [`NetConfig`] — partitions, link overrides — are
//! *global labels* in every world, combined or sub-world, so every
//! world of a run is handed the same config, unmapped.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::path::PathBuf;
use std::rc::Rc;

use tempo_core::{Duration, Timestamp};
use tempo_net::{Actor, DelayModel, NetConfig, NetStats, NodeId, Partition, Topology, World};
use tempo_telemetry::{Bus, EventKind, Observer, SampleSnapshot, TelemetryEvent};

/// The window a post-mortem ring of recent events would keep. No ring
/// is kept: a run reports its stream's length beyond this window —
/// what such a ring would evict — as `dropped_events`.
const RING_CAPACITY: u64 = 4096;

/// The seed of global node `index`'s hardware clock. A function of the
/// *global* index, so a sub-world hosting a subset of the nodes gets
/// the same hardware.
pub(crate) fn clock_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x5851_F42D_4C95_7F2D)
        .wrapping_add(index as u64)
}

/// What every deployment declares about its run: the network, the
/// horizon, and where (and under which header) the stream is exported.
pub(crate) struct Plan<'a> {
    pub(crate) seed: u64,
    pub(crate) duration: Duration,
    /// Worker-thread cap for the sharded path (`0` disables it).
    pub(crate) shards: usize,
    pub(crate) delay: &'a DelayModel,
    pub(crate) loss: f64,
    pub(crate) duplication: f64,
    pub(crate) partitions: &'a [Partition],
    pub(crate) telemetry_out: Option<&'a PathBuf>,
    /// The export header's strategy label and `τ`.
    pub(crate) label: String,
    pub(crate) resync_period: Duration,
}

impl Plan<'_> {
    fn net_config(&self) -> NetConfig {
        let mut net = NetConfig::with_delay(self.delay.clone()).loss(self.loss);
        if self.duplication > 0.0 {
            net = net.duplication(self.duplication);
        }
        net.partitions.extend(self.partitions.iter().cloned());
        net
    }
}

/// The per-tick measurement a sampled deployment takes of its nodes.
pub(crate) type Sampler<N> = fn(Timestamp, &mut [N]) -> Vec<SampleSnapshot>;

/// What a deployment layer supplies to the engine.
pub(crate) trait Deployment: Sync {
    /// The actor every node of the world runs.
    type Node: Actor;
    /// A node's final state, carried out of its world as plain data.
    type Outcome: Send;
    /// The layer's own sinks, handed back for harvesting.
    type Sinks;

    fn plan(&self) -> Plan<'_>;

    /// Builds global node `i` for a world hosting exactly `members`
    /// (ascending global indices; a node's id in that world is its
    /// position in `members`). The node reports to the world's bus
    /// through its callbacks' contexts.
    fn build_node(&self, i: usize, members: &[NodeId]) -> Self::Node;

    /// The sampling interval and measurement, for deployments whose
    /// stream carries a per-tick [`TelemetryEvent::Sample`].
    fn sampler(&self) -> Option<(Duration, Sampler<Self::Node>)>;

    fn outcome(node: &Self::Node) -> Self::Outcome;

    /// Subscribes the layer's sinks to the run's bus.
    fn attach_sinks(&self, bus: &Bus) -> Self::Sinks;

    /// Whether any of those sinks consumes the full ordered event
    /// stream, rather than the samples alone.
    fn wants_full_stream(&self) -> bool;
}

/// What one world leaves behind.
pub(crate) struct WorldRun<O> {
    /// Per-node final state, in the world's node order.
    pub(crate) outcomes: Vec<O>,
    pub(crate) net: NetStats,
    max_observed_delay: Duration,
}

/// A finished run, before the layer shapes it into its result type.
pub(crate) struct Harvest<D: Deployment> {
    pub(crate) sinks: D::Sinks,
    /// The combined world's leavings, however many worlds ran.
    pub(crate) world: WorldRun<D::Outcome>,
    /// The event stream's length beyond [`RING_CAPACITY`].
    pub(crate) dropped_events: u64,
    /// Twice the worst one-way delay the network delivered.
    pub(crate) xi_witness: Duration,
}

/// Runs `deployment` over `topology` to its horizon: on worker threads,
/// one sub-world per connected component, when sharding is enabled and
/// the topology splits; as one combined world otherwise. The export
/// (when configured) is opened, headed and closed here; the layer's
/// sinks come back unharvested.
///
/// The sub-worlds run before any sink exists. In particular the export
/// file is not truncated and held open across the fan-out: doing so
/// cost `sim_audit` 5–10 % of its wall time (CPU unchanged) when tried.
///
/// # Panics
///
/// Panics if the telemetry export file cannot be written.
pub(crate) fn run<D: Deployment>(deployment: &D, topology: Topology) -> Harvest<D> {
    let plan = deployment.plan();
    let n = topology.len();
    let components = if plan.shards > 0 {
        topology.components()
    } else {
        Vec::new()
    };
    let full_stream = plan.telemetry_out.is_some()
        || crate::sinks::default_telemetry_out().is_some()
        || deployment.wants_full_stream();
    let shards = (components.len() > 1)
        .then(|| run_sharded(deployment, &plan, &topology, &components, !full_stream));

    let bus = Bus::new();
    let sinks = deployment.attach_sinks(&bus);
    let jsonl = crate::sinks::open_jsonl(plan.telemetry_out);
    if let Some(sink) = &jsonl {
        sink.borrow_mut().run_start(
            plan.seed,
            n,
            &plan.label,
            plan.delay.max_delay() * 2.0,
            plan.resync_period,
        );
        bus.subscribe(Rc::clone(sink));
    }
    let (world, offered) = match shards {
        Some(shards) => merge_shards(n, &components, shards, &bus, full_stream),
        None => {
            let members: Vec<NodeId> = (0..n).map(NodeId::new).collect();
            let world = run_world(deployment, &plan, topology, &members, &bus);
            (world, bus.offered_events())
        }
    };
    let dropped_events = offered.saturating_sub(RING_CAPACITY);

    let xi_witness = world.max_observed_delay * 2.0;
    if let Some(sink) = &jsonl {
        sink.borrow_mut()
            .finish(dropped_events, xi_witness, &world.net);
    }
    Harvest {
        sinks,
        world,
        dropped_events,
        xi_witness,
    }
}

/// Builds the world hosting exactly `members` — the whole deployment,
/// or one connected component of it — on `bus` and runs it to the
/// horizon. `topology` is already the induced one.
fn run_world<D: Deployment>(
    deployment: &D,
    plan: &Plan<'_>,
    topology: Topology,
    members: &[NodeId],
    bus: &Bus,
) -> WorldRun<D::Outcome> {
    let nodes: Vec<D::Node> = members
        .iter()
        .map(|m| deployment.build_node(m.index(), members))
        .collect();
    let labels = members.iter().map(|m| m.index()).collect();
    let mut world = World::new_labeled(
        nodes,
        topology,
        plan.net_config(),
        plan.seed,
        bus.clone(),
        labels,
    );

    let end = Timestamp::ZERO + plan.duration;
    match deployment.sampler() {
        // Sampling is the measurement schedule, not observation: it
        // must happen (clock reads advance slews) whether or not
        // anything listens, so the snapshots are built eagerly.
        Some((interval, sample)) => world.run_sampled(end, interval, |t, actors| {
            bus.emit(TelemetryEvent::Sample {
                at: t,
                servers: sample(t, actors),
            });
        }),
        None => world.run_until(end),
    }
    WorldRun {
        outcomes: world.actors().iter().map(D::outcome).collect(),
        net: world.stats(),
        max_observed_delay: world.max_observed_delay(),
    }
}

/// Captures a shard's raw event stream for the deterministic merge. It
/// wants every kind — or, in `samples_only` mode, just the
/// [`TelemetryEvent::Sample`]s: building and k-way merging millions of
/// events nobody consumes is the dominant cost of a large sharded run,
/// and `dropped_events` needs only the shard bus's count of events
/// offered.
struct RecordingSink {
    events: Vec<TelemetryEvent>,
    samples_only: bool,
}

impl Observer for RecordingSink {
    fn enabled(&self, kind: EventKind) -> bool {
        !self.samples_only || kind == EventKind::Sample
    }

    fn observe(&mut self, event: &TelemetryEvent) {
        self.events.push(event.clone());
    }
}

/// Everything a component sub-world produced, carried back across the
/// thread boundary as plain data; the merge never looks inside `O`.
struct ShardRun<O> {
    events: VecDeque<TelemetryEvent>,
    /// Every event offered to the shard's bus, including ones not in
    /// `events`.
    offered: u64,
    world: WorldRun<O>,
}

/// Runs one connected component as an independent sub-world and
/// records its raw telemetry stream for the deterministic merge.
fn run_shard<D: Deployment>(
    deployment: &D,
    plan: &Plan<'_>,
    topology: &Topology,
    members: &[NodeId],
    samples_only: bool,
) -> ShardRun<D::Outcome> {
    let bus = Bus::new();
    let recorder = Rc::new(RefCell::new(RecordingSink {
        events: Vec::new(),
        samples_only,
    }));
    bus.subscribe(Rc::clone(&recorder));
    let world = run_world(deployment, plan, topology.induced(members), members, &bus);
    let events = std::mem::take(&mut recorder.borrow_mut().events);
    ShardRun {
        events: events.into(),
        offered: bus.offered_events(),
        world,
    }
}

/// The sharded path's first half: one sub-world per connected
/// component on a bounded pool of scoped threads, each recording its
/// own stream.
fn run_sharded<D: Deployment>(
    deployment: &D,
    plan: &Plan<'_>,
    topology: &Topology,
    components: &[Vec<NodeId>],
    samples_only: bool,
) -> Vec<ShardRun<D::Outcome>> {
    let threads = plan.shards.min(components.len());
    let chunk = components.len().div_ceil(threads);
    let mut runs: Vec<Option<ShardRun<D::Outcome>>> = components.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        for (comps, outs) in components.chunks(chunk).zip(runs.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (members, out) in comps.iter().zip(outs.iter_mut()) {
                    *out = Some(run_shard(deployment, plan, topology, members, samples_only));
                }
            });
        }
    });
    runs.into_iter()
        .map(|r| r.expect("every component ran"))
        .collect()
}

/// The sharded path's second half: a deterministic merge of the
/// recorded streams into `bus` — the same sinks the single path feeds
/// live. Returns the combined world's leavings and the length of the
/// combined stream, which the sinks may not all have seen.
fn merge_shards<O>(
    n: usize,
    components: &[Vec<NodeId>],
    mut shards: Vec<ShardRun<O>>,
    bus: &Bus,
    full_stream: bool,
) -> (WorldRun<O>, u64) {
    // A samples-only shard recorded exactly its ticks.
    let ticks = shards.first().map_or(0, |s| s.events.len()) as u64;
    merge_events(n, components, &mut shards, |event| bus.emit(event));
    let offered = if full_stream {
        bus.offered_events()
    } else {
        // Only the stitched samples went through the bus; the combined
        // stream's length is reconstructed from each shard bus's count
        // of events offered: the combined stream has every non-sample
        // event, plus ONE deployment-wide sample per tick where each
        // shard counted its own (none at all in an unsampled deployment).
        let offered: u64 = shards.iter().map(|s| s.offered).sum();
        offered - ticks * (shards.len() as u64 - 1)
    };

    let mut outcomes: Vec<(NodeId, O)> = Vec::with_capacity(n);
    let mut net = NetStats::default();
    let mut max_observed_delay = Duration::ZERO;
    for (members, shard) in components.iter().zip(shards) {
        outcomes.extend(members.iter().copied().zip(shard.world.outcomes));
        net = net.merged(shard.world.net);
        max_observed_delay = max_observed_delay.max(shard.world.max_observed_delay);
    }
    outcomes.sort_unstable_by_key(|&(node, _)| node);
    let combined = WorldRun {
        outcomes: outcomes.into_iter().map(|(_, o)| o).collect(),
        net,
        max_observed_delay,
    };
    (combined, offered)
}

/// K-way merges the per-shard streams, handing each event to `emit` in
/// the exact emission order of the combined single-threaded world (the
/// merged stream is consumed as it forms, never held whole): ascending
/// time, component rank breaking ties (the combined world's queue pops
/// same-instant events in rank order), with the per-tick [`Sample`]s of
/// every shard stitched into one deployment-wide snapshot that sorts
/// *after* same-instant events (`run_sampled` drains the queue up to
/// the tick before snapshotting). Streams with no samples at all merge
/// by the plain time/rank key.
///
/// [`Sample`]: TelemetryEvent::Sample
fn merge_events<S>(
    n: usize,
    components: &[Vec<NodeId>],
    shards: &mut [ShardRun<S>],
    mut emit: impl FnMut(TelemetryEvent),
) {
    let key = |event: &TelemetryEvent, rank: usize| {
        (
            event.at(),
            matches!(event, TelemetryEvent::Sample { .. }),
            rank,
        )
    };
    // One entry per non-empty shard: its head's key. A linear
    // min-scan here is O(shards) per event, which at 500
    // components dwarfs the simulation itself.
    let mut heads: BinaryHeap<Reverse<(Timestamp, bool, usize)>> =
        BinaryHeap::with_capacity(shards.len());
    for (rank, shard) in shards.iter().enumerate() {
        if let Some(event) = shard.events.front() {
            heads.push(Reverse(key(event, rank)));
        }
    }
    while let Some(Reverse((at, is_sample, rank))) = heads.pop() {
        if !is_sample {
            emit(shards[rank].events.pop_front().expect("head exists"));
            if let Some(event) = shards[rank].events.front() {
                heads.push(Reverse(key(event, rank)));
            }
            continue;
        }
        // Every shard samples on the same schedule, so when the
        // earliest head is a sample, *every* head is that tick's
        // sample — the remaining heap entries all refer to it. Drop
        // them, pop all the heads, re-index by global server id,
        // and rebuild the heap from the new heads.
        heads.clear();
        let mut servers: Vec<Option<SampleSnapshot>> = vec![None; n];
        for (members, shard) in components.iter().zip(shards.iter_mut()) {
            let event = shard
                .events
                .pop_front()
                .expect("every shard samples every tick");
            let TelemetryEvent::Sample {
                at: shard_at,
                servers: local,
            } = event
            else {
                panic!("expected a sample at the head of every shard stream");
            };
            assert_eq!(shard_at, at, "shards sample on the same schedule");
            for (k, snapshot) in local.into_iter().enumerate() {
                servers[members[k].index()] = Some(snapshot);
            }
        }
        for (rank, shard) in shards.iter().enumerate() {
            if let Some(event) = shard.events.front() {
                heads.push(Reverse(key(event, rank)));
            }
        }
        emit(TelemetryEvent::Sample {
            at,
            servers: servers
                .into_iter()
                .map(|s| s.expect("every server sampled"))
                .collect(),
        });
    }
}
