//! The delivery-backend seam between actors and the outside world.
//!
//! An [`Actor`](crate::Actor) is sans-io: its callbacks only queue
//! [`ActorAction`]s into a [`Context`](crate::Context). *Something*
//! must then execute those actions — deliver the messages, arm the
//! timers. That something is a [`Transport`].
//!
//! Two backends exist:
//!
//! - [`World`](crate::World) — the deterministic discrete-event
//!   simulator in this crate. Sends are routed through its delay /
//!   loss / duplication / partition pipeline and timers through its
//!   event queue; per-seed runs are bit-reproducible.
//! - `UdpRuntime` (in the `tempo-transport` crate) — real
//!   `std::net::UdpSocket` datagrams and wall-clock timers, where
//!   loss, reordering, and delay come from an actual network (or a
//!   `FaultyTransport` decorator on top of real sockets).
//!
//! The production state machines run unchanged on both: `UdpRuntime`
//! hosts `TimeServer`, `ClusterReplica` and `AuditClient`, the same
//! actors the simulator steps (`TimeClient` runs only in the
//! simulator). The paper's robustness claims are only meaningful if the
//! protocol code cannot tell which side of this trait it is running on.

use rand::rngs::StdRng;

use tempo_core::{Duration, Timestamp};

use crate::node::NodeId;

/// What an actor asked its transport to do during one callback.
///
/// Produced by [`Context::send`](crate::Context::send) /
/// [`Context::set_timer`](crate::Context::set_timer) and drained via
/// [`Context::take_actions`](crate::Context::take_actions); a
/// [`Transport`] executes them in queue order.
#[derive(Debug, PartialEq)]
pub enum ActorAction<M> {
    /// Deliver `msg` to node `to` (asynchronously; the transport may
    /// delay, reorder, duplicate, or lose it).
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: M,
    },
    /// Arm a timer that fires `delay` after *now* with `tag`.
    Timer {
        /// How far in the future the timer fires.
        delay: Duration,
        /// Actor-chosen discriminator, handed back to
        /// [`Actor::on_timer`](crate::Actor::on_timer).
        tag: u64,
    },
}

/// A message-delivery and timer backend for sans-io actors.
///
/// # Contract
///
/// - [`send`](Transport::send) is asynchronous and unreliable: the
///   message may arrive after an arbitrary delay, more than once, out
///   of order with other messages, or never. Actors must already
///   tolerate all of that (the paper's network model, §1).
/// - [`set_timer`](Transport::set_timer) schedules a single firing of
///   [`Actor::on_timer`](crate::Actor::on_timer) with `tag` on node
///   `node`, no earlier than `delay` after the current
///   [`now`](Transport::now). Timers are never lost and never fire
///   early relative to the transport's own clock; there is no
///   cancellation — actors disarm stale timers with epoch-tagged
///   `tag`s instead.
/// - [`now`](Transport::now) is the transport's *real-time* axis:
///   simulated time in the [`World`](crate::World), wall-clock time
///   in a UDP runtime. Protocol code should consult its own
///   [`SimClock`](tempo_clocks::SimClock)-style clock for protocol
///   decisions and use this only to feed that clock.
pub trait Transport<M> {
    /// Current transport time.
    fn now(&self) -> Timestamp;

    /// Hands one message from `from` to the delivery pipeline.
    fn send(&mut self, from: NodeId, to: NodeId, msg: M);

    /// Arms a timer for `node` firing after `delay` with `tag`.
    fn set_timer(&mut self, node: NodeId, delay: Duration, tag: u64);

    /// Executes a batch of actions drained from a [`Context`]
    /// (queue order preserved — reordering here would change which
    /// RNG draw backs which message in the simulator).
    fn apply(&mut self, node: NodeId, actions: Vec<ActorAction<M>>) {
        for action in actions {
            match action {
                ActorAction::Send { to, msg } => self.send(node, to, msg),
                ActorAction::Timer { delay, tag } => self.set_timer(node, delay, tag),
            }
        }
    }
}

/// A deterministic RNG for one externally-driven node, derived
/// exactly as the [`World`](crate::World) derives its per-node RNGs —
/// so a protocol decision that draws randomness (jitter, probe
/// choice) is reproducible given `(seed, node)` on any backend.
#[must_use]
pub fn node_rng(seed: u64, node: NodeId) -> StdRng {
    use rand::SeedableRng;
    StdRng::seed_from_u64(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(node.index() as u64 + 1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Actor, Context};

    /// A toy actor: greets every neighbour on start, echoes increments
    /// back, arms a timer per message received.
    struct Echo {
        got: Vec<u32>,
        timers: Vec<u64>,
    }

    impl Actor for Echo {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.broadcast(1);
        }
        fn on_message(&mut self, from: NodeId, msg: u32, ctx: &mut Context<'_, u32>) {
            self.got.push(msg);
            if msg < 3 {
                ctx.send(from, msg + 1);
            }
            ctx.set_timer(Duration::from_secs(1.0), u64::from(msg));
        }
        fn on_timer(&mut self, tag: u64, _: &mut Context<'_, u32>) {
            self.timers.push(tag);
        }
    }

    /// A transcript-recording transport: the minimal external driver.
    #[derive(Default)]
    struct Script {
        sent: Vec<(NodeId, NodeId, u32)>,
        timers: Vec<(NodeId, Duration, u64)>,
    }

    impl Transport<u32> for Script {
        fn now(&self) -> Timestamp {
            Timestamp::ZERO
        }
        fn send(&mut self, from: NodeId, to: NodeId, msg: u32) {
            self.sent.push((from, to, msg));
        }
        fn set_timer(&mut self, node: NodeId, delay: Duration, tag: u64) {
            self.timers.push((node, delay, tag));
        }
    }

    #[test]
    fn external_context_drives_an_actor_through_a_custom_transport() {
        let me = NodeId::new(0);
        let peers = [NodeId::new(1), NodeId::new(2)];
        let mut rng = node_rng(7, me);
        let mut actor = Echo {
            got: Vec::new(),
            timers: Vec::new(),
        };
        let mut transport = Script::default();

        // Start: the broadcast must surface as two sends.
        let mut ctx = Context::external(Timestamp::ZERO, me, &peers, &mut rng);
        actor.on_start(&mut ctx);
        let actions = ctx.take_actions();
        assert_eq!(actions.len(), 2);
        transport.apply(me, actions);
        assert_eq!(
            transport.sent,
            vec![(me, NodeId::new(1), 1), (me, NodeId::new(2), 1)]
        );

        // Deliver a message "from the network": echo + timer.
        let mut ctx = Context::external(Timestamp::from_secs(0.5), me, &peers, &mut rng);
        actor.on_message(NodeId::new(1), 2, &mut ctx);
        transport.apply(me, ctx.take_actions());
        assert_eq!(actor.got, vec![2]);
        assert_eq!(transport.sent.last(), Some(&(me, NodeId::new(1), 3)));
        assert_eq!(transport.timers, vec![(me, Duration::from_secs(1.0), 2u64)]);

        // Fire the timer back into the actor.
        let mut ctx = Context::external(Timestamp::from_secs(1.5), me, &peers, &mut rng);
        actor.on_timer(2, &mut ctx);
        assert!(ctx.take_actions().is_empty());
        assert_eq!(actor.timers, vec![2]);
    }

    #[test]
    fn take_actions_leaves_the_context_reusable() {
        let me = NodeId::new(0);
        let peers = [NodeId::new(1)];
        let mut rng = node_rng(1, me);
        let mut ctx: Context<'_, u32> = Context::external(Timestamp::ZERO, me, &peers, &mut rng);
        ctx.send(NodeId::new(1), 9);
        assert_eq!(ctx.take_actions().len(), 1);
        assert!(ctx.take_actions().is_empty());
    }

    #[test]
    fn node_rng_matches_world_derivation() {
        use rand::Rng;
        // Two independent derivations for the same (seed, node) agree;
        // different nodes diverge.
        let mut a = node_rng(42, NodeId::new(3));
        let mut b = node_rng(42, NodeId::new(3));
        let mut c = node_rng(42, NodeId::new(4));
        let (x, y, z): (u64, u64, u64) = (a.random(), b.random(), c.random());
        assert_eq!(x, y);
        assert_ne!(x, z);
    }
}
