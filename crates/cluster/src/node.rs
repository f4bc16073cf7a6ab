//! Mixed replica/client cluster worlds.
//!
//! [`tempo_net::World`] is homogeneous over one actor type;
//! [`ClusterNode`] is the sum type that lets a single world host both
//! cluster-time replicas and audit clients (the shape of the E21
//! experiment).

use tempo_net::{Actor, Context, NodeId};

use crate::client::AuditClient;
use crate::msg::ClusterFrame;
use crate::replica::ClusterReplica;

/// Either a cluster-time replica or an audit client.
///
/// The replica (an embedded server plus all the cluster machinery) is
/// far larger than the client, so it is boxed to keep the world's node
/// vector dense.
#[derive(Debug)]
pub enum ClusterNode {
    /// A cluster-time replica.
    Replica(Box<ClusterReplica>),
    /// An audit-trail client of the cluster.
    Client(AuditClient),
}

impl ClusterNode {
    /// The replica inside, if this node is one.
    #[must_use]
    pub fn as_replica(&self) -> Option<&ClusterReplica> {
        match self {
            ClusterNode::Replica(r) => Some(r),
            ClusterNode::Client(_) => None,
        }
    }

    /// Mutable access to the replica inside, if this node is one.
    pub fn as_replica_mut(&mut self) -> Option<&mut ClusterReplica> {
        match self {
            ClusterNode::Replica(r) => Some(r),
            ClusterNode::Client(_) => None,
        }
    }

    /// The client inside, if this node is one.
    #[must_use]
    pub fn as_client(&self) -> Option<&AuditClient> {
        match self {
            ClusterNode::Replica(_) => None,
            ClusterNode::Client(c) => Some(c),
        }
    }
}

impl From<ClusterReplica> for ClusterNode {
    fn from(replica: ClusterReplica) -> Self {
        ClusterNode::Replica(Box::new(replica))
    }
}

impl From<AuditClient> for ClusterNode {
    fn from(client: AuditClient) -> Self {
        ClusterNode::Client(client)
    }
}

impl Actor for ClusterNode {
    type Msg = ClusterFrame;

    fn on_start(&mut self, ctx: &mut Context<'_, ClusterFrame>) {
        match self {
            ClusterNode::Replica(r) => r.on_start(ctx),
            ClusterNode::Client(c) => c.on_start(ctx),
        }
    }

    fn on_message(&mut self, from: NodeId, msg: ClusterFrame, ctx: &mut Context<'_, ClusterFrame>) {
        match self {
            ClusterNode::Replica(r) => r.on_message(from, msg, ctx),
            ClusterNode::Client(c) => c.on_message(from, msg, ctx),
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, ClusterFrame>) {
        match self {
            ClusterNode::Replica(r) => r.on_timer(tag, ctx),
            ClusterNode::Client(c) => c.on_timer(tag, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::AuditClientConfig;
    use tempo_clocks::SimClock;
    use tempo_core::{DriftRate, Duration, Timestamp};
    use tempo_net::{DelayModel, NetConfig, Topology, World};
    use tempo_service::{MemoryStore, ServerConfig, Strategy, TimeServer};

    fn dur(s: f64) -> Duration {
        Duration::from_secs(s)
    }

    fn make_replica(replicas: Vec<NodeId>, index: usize, seed: u64) -> ClusterReplica {
        let clock = SimClock::builder().seed(seed).build();
        let server = TimeServer::new(
            clock,
            ServerConfig::new(Strategy::Im, DriftRate::new(1e-5))
                .resync_period(dur(5.0))
                .collect_window(dur(0.5))
                .jitter(0.0),
        );
        ClusterReplica::new(
            server,
            ClusterConfig::new(replicas, index),
            Box::new(MemoryStore::new()),
        )
    }

    /// A full 3-replica + 1-client world: replica 0 acquires the view-0
    /// lease, the client obtains strictly increasing timestamps.
    #[test]
    fn quiet_cluster_issues_monotonic_timestamps() {
        let replicas: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let nodes: Vec<ClusterNode> = vec![
            make_replica(replicas.clone(), 0, 1).into(),
            make_replica(replicas.clone(), 1, 2).into(),
            make_replica(replicas.clone(), 2, 3).into(),
            AuditClient::new(AuditClientConfig::new(replicas).period(dur(0.25))).into(),
        ];
        let topology = Topology::full_mesh(4);
        let mut world = World::new(
            nodes,
            topology,
            NetConfig::with_delay(DelayModel::Constant(dur(0.005))),
            7,
        );
        world.run_until(Timestamp::from_secs(60.0));

        let client = world.actors()[3].as_client().unwrap();
        assert!(
            client.stats().issued > 10,
            "client starved: {:?}",
            client.stats()
        );
        assert_eq!(client.stats().regressions, 0);
        let trail = client.trail();
        for pair in trail.windows(2) {
            assert!(pair[1].timestamp > pair[0].timestamp, "regression in trail");
        }

        let primary = world.actors()[0].as_replica().unwrap();
        assert!(primary.stats().leases_granted >= 1);
        assert!(primary.stats().issued > 0);
    }

    #[test]
    fn accessors_discriminate() {
        let replicas: Vec<NodeId> = (0..1).map(NodeId::new).collect();
        let node: ClusterNode = make_replica(replicas.clone(), 0, 1).into();
        assert!(node.as_replica().is_some());
        assert!(node.as_client().is_none());
        let node: ClusterNode = AuditClient::new(AuditClientConfig::new(replicas)).into();
        assert!(node.as_replica().is_none());
        assert!(node.as_client().is_some());
    }
}
