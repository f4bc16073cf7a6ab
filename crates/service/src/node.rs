//! Mixed server/client worlds.
//!
//! [`tempo_net::World`] is homogeneous over one actor type; [`ServiceNode`]
//! is the sum type that lets a single world host both time servers and
//! clients (the shape of the examples and of the client-facing
//! experiments).

use tempo_net::{Actor, Context, NodeId};

use crate::client::TimeClient;
use crate::message::Message;
use crate::server::TimeServer;

/// Either a time server or a client.
///
/// The server variant is much larger than the client one; worlds hold
/// few nodes and index them in place, so the size skew is harmless and
/// boxing would only add indirection.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum ServiceNode {
    /// A time server.
    Server(TimeServer),
    /// A client of the service.
    Client(TimeClient),
}

impl ServiceNode {
    /// Mutable access to the server inside, if this node is one.
    pub fn as_server_mut(&mut self) -> Option<&mut TimeServer> {
        match self {
            ServiceNode::Server(s) => Some(s),
            ServiceNode::Client(_) => None,
        }
    }

    /// The client inside, if this node is one.
    #[must_use]
    pub fn as_client(&self) -> Option<&TimeClient> {
        match self {
            ServiceNode::Server(_) => None,
            ServiceNode::Client(c) => Some(c),
        }
    }
}

impl From<TimeServer> for ServiceNode {
    fn from(server: TimeServer) -> Self {
        ServiceNode::Server(server)
    }
}

impl From<TimeClient> for ServiceNode {
    fn from(client: TimeClient) -> Self {
        ServiceNode::Client(client)
    }
}

impl Actor for ServiceNode {
    type Msg = Message;

    fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
        match self {
            ServiceNode::Server(s) => s.on_start(ctx),
            ServiceNode::Client(c) => c.on_start(ctx),
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut Context<'_, Message>) {
        match self {
            ServiceNode::Server(s) => s.on_message(from, msg, ctx),
            ServiceNode::Client(c) => c.on_message(from, msg, ctx),
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, Message>) {
        match self {
            ServiceNode::Server(s) => s.on_timer(tag, ctx),
            ServiceNode::Client(c) => c.on_timer(tag, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientStrategy;
    use crate::config::{ServerConfig, Strategy};
    use tempo_clocks::SimClock;
    use tempo_core::{DriftRate, Duration, Timestamp};
    use tempo_net::{DelayModel, NetConfig, Topology, World};

    fn dur(s: f64) -> Duration {
        Duration::from_secs(s)
    }

    fn make_server(seed: u64) -> TimeServer {
        let clock = SimClock::builder().seed(seed).build();
        TimeServer::new(
            clock,
            ServerConfig::new(Strategy::Im, DriftRate::new(1e-5))
                .resync_period(dur(10.0))
                .collect_window(dur(0.5))
                .jitter(0.0),
        )
    }

    #[test]
    fn accessors_discriminate() {
        let mut node: ServiceNode = make_server(0).into();
        assert!(node.as_server_mut().is_some());
        assert!(node.as_client().is_none());
        let mut node: ServiceNode =
            TimeClient::new(ClientStrategy::FirstReply, dur(5.0), dur(1.0)).into();
        assert!(node.as_server_mut().is_none());
        assert!(node.as_client().is_some());
    }

    #[test]
    fn client_obtains_time_from_servers() {
        // Star of 3 servers + 1 client, client connected to all servers.
        let nodes: Vec<ServiceNode> = vec![
            make_server(1).into(),
            make_server(2).into(),
            make_server(3).into(),
            TimeClient::new(ClientStrategy::FirstReply, dur(5.0), dur(1.0)).into(),
        ];
        let topology = Topology::from_edges(4, &[(0, 1), (0, 2), (1, 2), (3, 0), (3, 1), (3, 2)]);
        let mut world = World::new(
            nodes,
            topology,
            NetConfig::with_delay(DelayModel::Constant(dur(0.01))),
            1,
        );
        world.run_until(Timestamp::from_secs(60.0));
        let client = world.actors()[3].as_client().unwrap();
        assert!(!client.observations().is_empty());
        for obs in client.observations() {
            assert!(obs.correct(), "client obtained an incorrect time");
        }
    }

    #[test]
    fn all_client_strategies_obtain_correct_time() {
        for strategy in [
            ClientStrategy::FirstReply,
            ClientStrategy::SmallestError,
            ClientStrategy::Intersection,
            ClientStrategy::Filtered,
        ] {
            let nodes: Vec<ServiceNode> = vec![
                make_server(1).into(),
                make_server(2).into(),
                make_server(3).into(),
                TimeClient::new(strategy, dur(5.0), dur(1.0)).into(),
            ];
            let topology =
                Topology::from_edges(4, &[(0, 1), (0, 2), (1, 2), (3, 0), (3, 1), (3, 2)]);
            let mut world = World::new(
                nodes,
                topology,
                NetConfig::with_delay(DelayModel::Uniform {
                    min: Duration::ZERO,
                    max: dur(0.05),
                }),
                2,
            );
            world.run_until(Timestamp::from_secs(120.0));
            let client = world.actors()[3].as_client().unwrap();
            assert!(
                !client.observations().is_empty(),
                "{strategy} produced no observations"
            );
            for obs in client.observations() {
                assert!(obs.correct(), "{strategy} obtained incorrect time");
            }
        }
    }
}
