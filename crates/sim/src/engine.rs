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
//! thread. Only a run whose sinks read the samples alone shards: its
//! shards' per-tick samples are stitched into the combined world's
//! deployment-wide ones, and the rest of its stream is counted, not
//! kept. A run with an export or an oracle, which read the full stream,
//! runs as the one combined world, whose emission order that stream is.
//! Either way no sink (and therefore no result) can tell a sharded run
//! from an unsharded one.
//!
//! Node names in a [`NetConfig`] — partitions, link overrides — are
//! *global labels* in every world, combined or sub-world, so every
//! world of a run is handed the same config, unmapped.

use std::cell::RefCell;
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
    /// Worker-thread cap for the sharded path (`0` disables it). A run
    /// whose sinks read the full stream never takes that path.
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
/// one sub-world per connected component, when sharding is enabled, the
/// sinks read only the samples, and the topology splits; as one
/// combined world otherwise. The export (when configured) is opened,
/// headed and closed here; the layer's sinks come back unharvested.
///
/// A sink that reads the full stream — the export, an oracle — gets it
/// from the combined world, whose emission order it is. Recording every
/// shard's stream and k-way merging it back into that order cost
/// `sim_audit` about a quarter of its CPU when profiled (the recording
/// clone 12 %, the heap merge 12 %), and bought no wall time: the merge
/// and the sinks behind it ran on one thread after the shards finished.
///
/// # Panics
///
/// Panics if the telemetry export file cannot be written.
pub(crate) fn run<D: Deployment>(deployment: &D, topology: Topology) -> Harvest<D> {
    let plan = deployment.plan();
    let n = topology.len();
    let full_stream = plan.telemetry_out.is_some()
        || crate::sinks::default_telemetry_out().is_some()
        || deployment.wants_full_stream();
    let components = if plan.shards > 0 && !full_stream {
        topology.components()
    } else {
        Vec::new()
    };
    let shards =
        (components.len() > 1).then(|| run_sharded(deployment, &plan, &topology, &components));

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
        Some(shards) => merge_shards(n, &components, shards, &bus),
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
        // must happen (clock reads advance the drift processes) whether
        // or not anything listens, so the snapshots are built eagerly.
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

/// One tick of one world: its instant and every member's snapshot, in
/// the world's node order.
type Tick = (Timestamp, Vec<SampleSnapshot>);

/// Captures a shard's [`TelemetryEvent::Sample`]s for the stitch. No
/// other kind is even built: `dropped_events` needs only the shard
/// bus's count of events offered.
#[derive(Default)]
struct RecordingSink {
    ticks: Vec<Tick>,
}

impl Observer for RecordingSink {
    fn enabled(&self, kind: EventKind) -> bool {
        kind == EventKind::Sample
    }

    fn observe(&mut self, event: &TelemetryEvent) {
        if let TelemetryEvent::Sample { at, servers } = event {
            self.ticks.push((*at, servers.clone()));
        }
    }
}

/// Everything a component sub-world produced, carried back across the
/// thread boundary as plain data; the stitch never looks inside `O`.
struct ShardRun<O> {
    ticks: Vec<Tick>,
    /// Every event offered to the shard's bus, samples included.
    offered: u64,
    world: WorldRun<O>,
}

/// Runs one connected component as an independent sub-world and
/// records its samples for the stitch.
fn run_shard<D: Deployment>(
    deployment: &D,
    plan: &Plan<'_>,
    topology: &Topology,
    members: &[NodeId],
) -> ShardRun<D::Outcome> {
    let bus = Bus::new();
    let recorder = Rc::new(RefCell::new(RecordingSink::default()));
    bus.subscribe(Rc::clone(&recorder));
    let world = run_world(deployment, plan, topology.induced(members), members, &bus);
    let ticks = std::mem::take(&mut recorder.borrow_mut().ticks);
    ShardRun {
        ticks,
        offered: bus.offered_events(),
        world,
    }
}

/// The sharded path's first half: one sub-world per connected
/// component on a bounded pool of scoped threads, each recording its
/// own samples.
fn run_sharded<D: Deployment>(
    deployment: &D,
    plan: &Plan<'_>,
    topology: &Topology,
    components: &[Vec<NodeId>],
) -> Vec<ShardRun<D::Outcome>> {
    let threads = plan.shards.min(components.len());
    let chunk = components.len().div_ceil(threads);
    let mut runs: Vec<Option<ShardRun<D::Outcome>>> = components.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        for (comps, outs) in components.chunks(chunk).zip(runs.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (members, out) in comps.iter().zip(outs.iter_mut()) {
                    *out = Some(run_shard(deployment, plan, topology, members));
                }
            });
        }
    });
    runs.into_iter()
        .map(|r| r.expect("every component ran"))
        .collect()
}

/// The sharded path's second half: the shards' samples stitched into
/// `bus` — the same sinks the single path feeds live. Returns the
/// combined world's leavings and the length of the combined stream,
/// which the sinks have not seen: it is reconstructed from each shard
/// bus's count of events offered. The combined stream has every
/// non-sample event, plus ONE deployment-wide sample per tick where
/// each shard counted its own (none at all in an unsampled deployment).
fn merge_shards<O>(
    n: usize,
    components: &[Vec<NodeId>],
    shards: Vec<ShardRun<O>>,
    bus: &Bus,
) -> (WorldRun<O>, u64) {
    let ticks = shards.first().map_or(0, |s| s.ticks.len()) as u64;
    let offered = shards.iter().map(|s| s.offered).sum::<u64>() - ticks * (shards.len() as u64 - 1);

    let mut samples = Vec::with_capacity(shards.len());
    let mut outcomes: Vec<(NodeId, O)> = Vec::with_capacity(n);
    let mut net = NetStats::default();
    let mut max_observed_delay = Duration::ZERO;
    for (members, shard) in components.iter().zip(shards) {
        samples.push(shard.ticks);
        outcomes.extend(members.iter().copied().zip(shard.world.outcomes));
        net = net.merged(shard.world.net);
        max_observed_delay = max_observed_delay.max(shard.world.max_observed_delay);
    }
    stitch_samples(n, components, samples, |event| bus.emit(event));
    outcomes.sort_unstable_by_key(|&(node, _)| node);
    let combined = WorldRun {
        outcomes: outcomes.into_iter().map(|(_, o)| o).collect(),
        net,
        max_observed_delay,
    };
    (combined, offered)
}

/// Stitches the shards' per-tick samples, tick by tick, into one
/// deployment-wide [`TelemetryEvent::Sample`] each, re-indexed by
/// global server id, and hands them to `emit` in tick order. Every
/// shard samples on the same schedule, so tick `k` is the `k`-th sample
/// of every shard.
///
/// # Panics
///
/// Panics if the shards disagree on the schedule: a different number of
/// ticks, or a different instant for the same tick.
fn stitch_samples(
    n: usize,
    components: &[Vec<NodeId>],
    shards: Vec<Vec<Tick>>,
    mut emit: impl FnMut(TelemetryEvent),
) {
    let ticks = shards.first().map_or(0, Vec::len);
    assert!(
        shards.iter().all(|s| s.len() == ticks),
        "every shard samples every tick"
    );
    let mut streams: Vec<_> = shards.into_iter().map(Vec::into_iter).collect();
    for _ in 0..ticks {
        let mut at = None;
        let mut servers: Vec<Option<SampleSnapshot>> = vec![None; n];
        for (members, stream) in components.iter().zip(&mut streams) {
            let (shard_at, local) = stream.next().expect("every shard samples every tick");
            assert_eq!(
                *at.get_or_insert(shard_at),
                shard_at,
                "shards sample on the same schedule"
            );
            for (member, snapshot) in members.iter().zip(local) {
                servers[member.index()] = Some(snapshot);
            }
        }
        emit(TelemetryEvent::Sample {
            at: at.expect("a tick has a shard"),
            servers: servers
                .into_iter()
                .map(|s| s.expect("every server sampled"))
                .collect(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Six servers in three shards whose members interleave, as
    /// components of a real topology need not be contiguous.
    fn components() -> Vec<Vec<NodeId>> {
        [vec![0, 3], vec![1, 4, 5], vec![2]]
            .into_iter()
            .map(|members| members.into_iter().map(NodeId::new).collect())
            .collect()
    }

    /// A shard's samples every 5 s; global server `g`'s clock reads
    /// `10 t + g` at tick `t`, so a misplaced snapshot shows.
    fn shard_ticks(members: &[NodeId], ticks: usize) -> Vec<Tick> {
        (0..ticks)
            .map(|t| {
                let snapshot = |g: usize| SampleSnapshot {
                    clock: Timestamp::from_secs((10 * t + g) as f64),
                    error: Duration::ZERO,
                    true_offset: Duration::ZERO,
                    correct: true,
                    active: true,
                };
                let at = Timestamp::from_secs(5.0 * t as f64);
                (at, members.iter().map(|m| snapshot(m.index())).collect())
            })
            .collect()
    }

    #[test]
    fn stitch_emits_one_deployment_wide_sample_per_tick_in_global_order() {
        let components = components();
        let shards = components.iter().map(|m| shard_ticks(m, 3)).collect();
        let mut emitted = Vec::new();
        stitch_samples(6, &components, shards, |event| emitted.push(event));
        assert_eq!(emitted.len(), 3);
        for (t, event) in emitted.iter().enumerate() {
            let TelemetryEvent::Sample { at, servers } = event else {
                panic!("the stitch emits samples only");
            };
            assert_eq!(*at, Timestamp::from_secs(5.0 * t as f64));
            let clocks: Vec<f64> = servers.iter().map(|s| s.clock.as_secs()).collect();
            let expected: Vec<f64> = (0..6).map(|g| (10 * t + g) as f64).collect();
            assert_eq!(clocks, expected, "tick {t}");
        }
    }

    #[test]
    #[should_panic(expected = "shards sample on the same schedule")]
    fn a_shard_whose_tick_disagrees_panics() {
        let components = components();
        let mut shards: Vec<Vec<Tick>> = components.iter().map(|m| shard_ticks(m, 3)).collect();
        shards[1][2].0 = Timestamp::from_secs(11.0);
        stitch_samples(6, &components, shards, |_| {});
    }
}
