//! Shared sharded-execution machinery.
//!
//! Both deployment layers — the paper's time service
//! ([`crate::Scenario`]) and the ClusterTime layer above it
//! ([`crate::ClusterScenario`]) — run multi-component topologies the
//! same way: each connected component executes as an independent
//! sub-world on a worker thread, its telemetry stream is recorded
//! verbatim, and the per-shard streams are k-way merged back into the
//! exact emission order of the combined single-threaded world. The
//! pieces here are the actor-agnostic half of that pipeline; building
//! the sub-worlds stays with each scenario type.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use tempo_core::{Duration, Timestamp};

/// How many recent events a run's bus ring retains for post-mortem
/// inspection; overflow is counted in the result's `dropped_events`.
pub(crate) const RING_CAPACITY: usize = 4096;
use tempo_net::{NetStats, NodeId};
use tempo_telemetry::{EventKind, Observer, SampleSnapshot, TelemetryEvent};

/// Captures a shard's raw event stream for the deterministic merge. It
/// wants every kind, as the ring-armed bus of the single-threaded path
/// does — or, in `samples_only` mode, just the
/// [`TelemetryEvent::Sample`]s: building and k-way merging millions of
/// events nobody consumes is the dominant cost of a large sharded run,
/// and the ring-drop accounting needs only the shard bus's count of
/// events offered.
#[derive(Debug)]
pub(crate) struct RecordingSink {
    pub(crate) events: Vec<TelemetryEvent>,
    samples_only: bool,
}

impl RecordingSink {
    pub(crate) fn new(samples_only: bool) -> Self {
        RecordingSink {
            events: Vec::new(),
            samples_only,
        }
    }
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
/// thread boundary as plain data. `S` is the per-node final-state
/// payload ([`tempo_service::ServerStats`] for plain deployments, a
/// richer per-node outcome for cluster ones); the merge never looks
/// inside it.
pub(crate) struct ShardRun<S> {
    pub(crate) events: VecDeque<TelemetryEvent>,
    /// Every event offered to the shard's bus, including ones not in
    /// `events`.
    pub(crate) offered: u64,
    pub(crate) final_stats: Vec<S>,
    pub(crate) net: NetStats,
    pub(crate) max_observed_delay: Duration,
}

/// K-way merges the per-shard streams, handing each event to `emit` in
/// the exact emission order of the combined single-threaded world (the
/// merged stream is consumed as it forms, never held whole): ascending
/// time, component rank breaking ties (the combined scheduler drains
/// same-time heads in rank order), with the per-tick [`Sample`]s of
/// every shard stitched into one deployment-wide snapshot that sorts
/// *after* same-instant events (`run_sampled` drains the queue up to
/// the tick before snapshotting). Streams with no samples at all merge
/// by the plain time/rank key.
///
/// [`Sample`]: TelemetryEvent::Sample
pub(crate) fn merge_events<S>(
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
