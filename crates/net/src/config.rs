//! The network a [`World`](crate::World) simulates — delay, per-link
//! delay overrides, loss, duplication and partitions — and the counters
//! of what it did.

use tempo_core::{Duration, Timestamp};

use crate::delay::DelayModel;
use crate::node::NodeId;

/// A scheduled communication outage: while active, messages between
/// nodes in different groups are dropped. Nodes absent from every group
/// are isolated entirely during the partition.
///
/// Groups are expressed in *global label* space (identical to node-id
/// space unless the world was built with
/// [`World::new_labeled`](crate::World::new_labeled)).
#[derive(Debug, Clone)]
pub struct Partition {
    /// Start of the outage (inclusive).
    pub from: Timestamp,
    /// End of the outage (exclusive).
    pub until: Timestamp,
    /// The mutually isolated groups.
    pub groups: Vec<Vec<NodeId>>,
}

impl Partition {
    pub(crate) fn blocks(&self, now: Timestamp, a: NodeId, b: NodeId) -> bool {
        if now < self.from || now >= self.until {
            return false;
        }
        let group_of = |n: NodeId| self.groups.iter().position(|g| g.contains(&n));
        match (group_of(a), group_of(b)) {
            (Some(ga), Some(gb)) => ga != gb,
            // A node outside all groups is isolated during the outage.
            _ => true,
        }
    }
}

/// Network configuration: default delay, per-link delay overrides,
/// loss, duplication, and partitions.
///
/// Link overrides and partitions name nodes by their *global label*
/// (identical to node-id space unless the world was built with
/// [`World::new_labeled`](crate::World::new_labeled)), so one config
/// describes the same network whether a component runs combined or
/// sharded.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Default one-way delay model for every link.
    pub delay: DelayModel,
    /// Probability that any message is silently lost.
    pub loss: f64,
    /// Per-directed-link delay overrides `((from, to), model)`.
    pub link_overrides: Vec<((NodeId, NodeId), DelayModel)>,
    /// Probability that a delivered message is *duplicated*: a second
    /// copy is scheduled with an independently sampled delay. Datagram
    /// networks (and retransmitting transports) deliver duplicates, so
    /// protocol retries must be idempotent.
    pub duplication: f64,
    /// Scheduled partitions.
    pub partitions: Vec<Partition>,
}

impl NetConfig {
    /// A lossless network with the given delay model everywhere.
    ///
    /// # Panics
    ///
    /// Panics if the delay model is invalid.
    #[must_use]
    pub fn with_delay(delay: DelayModel) -> Self {
        delay.validate();
        NetConfig {
            delay,
            loss: 0.0,
            link_overrides: Vec::new(),
            duplication: 0.0,
            partitions: Vec::new(),
        }
    }

    /// Sets the loss probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ loss < 1`.
    #[must_use]
    pub fn loss(mut self, loss: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&loss),
            "loss probability must be in [0, 1), got {loss}"
        );
        self.loss = loss;
        self
    }

    /// Overrides the delay model of one directed link.
    #[must_use]
    pub fn link_override(mut self, from: NodeId, to: NodeId, delay: DelayModel) -> Self {
        delay.validate();
        self.link_overrides.push(((from, to), delay));
        self
    }

    /// Sets the duplication probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ duplication < 1`.
    #[must_use]
    pub fn duplication(mut self, duplication: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&duplication),
            "duplication probability must be in [0, 1), got {duplication}"
        );
        self.duplication = duplication;
        self
    }

    /// Adds a scheduled partition.
    #[must_use]
    pub fn partition(mut self, partition: Partition) -> Self {
        self.partitions.push(partition);
        self
    }

    /// The worst-case round-trip over any link — the paper's `ξ`.
    #[must_use]
    pub fn max_round_trip(&self) -> Duration {
        let mut max = self.delay.max_delay();
        for (_, model) in &self.link_overrides {
            max = max.max(model.max_delay());
        }
        max * 2.0
    }

    #[inline]
    pub(crate) fn delay_for(&self, from: NodeId, to: NodeId) -> &DelayModel {
        self.link_overrides
            .iter()
            .find(|((f, t), _)| *f == from && *t == to)
            .map_or(&self.delay, |(_, model)| model)
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::with_delay(DelayModel::instant())
    }
}

/// Counters describing what the network did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to the network by actors.
    pub sent: usize,
    /// Messages delivered to their destination.
    pub delivered: usize,
    /// Messages dropped by random loss.
    pub lost: usize,
    /// Extra message copies injected by random duplication.
    pub duplicated: usize,
    /// Messages dropped because a partition separated the endpoints.
    pub partitioned: usize,
    /// Timer events fired.
    pub timers_fired: usize,
}

impl NetStats {
    /// Sums two stat blocks — used when merging per-shard results.
    #[must_use]
    pub fn merged(self, other: NetStats) -> NetStats {
        NetStats {
            sent: self.sent + other.sent,
            delivered: self.delivered + other.delivered,
            lost: self.lost + other.lost,
            duplicated: self.duplicated + other.duplicated,
            partitioned: self.partitioned + other.partitioned,
            timers_fired: self.timers_fired + other.timers_fired,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dur(s: f64) -> Duration {
        Duration::from_secs(s)
    }

    #[test]
    #[should_panic(expected = "duplication probability")]
    fn bad_duplication_rejected() {
        let _ = NetConfig::default().duplication(1.5);
    }

    #[test]
    fn max_round_trip_accounts_for_overrides() {
        let cfg = NetConfig::with_delay(DelayModel::Constant(dur(0.01))).link_override(
            NodeId::new(0),
            NodeId::new(1),
            DelayModel::Constant(dur(0.2)),
        );
        assert_eq!(cfg.max_round_trip(), dur(0.4));
    }
}
