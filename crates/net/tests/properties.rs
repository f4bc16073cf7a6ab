//! Property tests for the network substrate: delay bounds are honoured,
//! partitions block exactly the cross-group traffic, and everything is
//! reproducible.

use tempo_check::check;

use tempo_core::{Duration, Timestamp};
use tempo_net::{Actor, Context, DelayModel, NetConfig, NodeId, Partition, Topology, World};

/// Sends its neighbour timestamped messages on a timer; records, for
/// every arrival, the (send time, receive time) pair.
struct Probe {
    sends: Vec<f64>,
    received: Vec<(f64, f64)>,
}

impl Probe {
    fn new(sends: Vec<f64>) -> Self {
        Probe {
            sends,
            received: Vec::new(),
        }
    }
}

impl Actor for Probe {
    type Msg = f64;

    fn on_start(&mut self, ctx: &mut Context<'_, f64>) {
        if ctx.me() == NodeId::new(0) {
            for (k, &at) in self.sends.iter().enumerate() {
                ctx.set_timer(Duration::from_secs(at), k as u64);
            }
        }
    }

    fn on_message(&mut self, _: NodeId, sent_at: f64, ctx: &mut Context<'_, f64>) {
        self.received.push((sent_at, ctx.now().as_secs()));
    }

    fn on_timer(&mut self, _: u64, ctx: &mut Context<'_, f64>) {
        ctx.send(NodeId::new(1), ctx.now().as_secs());
    }
}

/// Every delivery happens within [min, max] one-way delay of its
/// send, for arbitrary schedules and delay ranges.
#[test]
fn delivery_respects_delay_bounds() {
    check("delivery_respects_delay_bounds", 48, |g| {
        let min_ms = g.f64(0.0..20.0);
        let extra_ms = g.f64(0.1..50.0);
        let sends = g.vec(1..30, |g| g.f64(0.0..50.0));
        let seed = g.int(0u64..1000);
        let min = min_ms / 1e3;
        let max = (min_ms + extra_ms) / 1e3;
        let mut world = World::new(
            vec![Probe::new(sends.clone()), Probe::new(vec![])],
            Topology::full_mesh(2),
            NetConfig::with_delay(DelayModel::Uniform {
                min: Duration::from_secs(min),
                max: Duration::from_secs(max),
            }),
            seed,
        );
        world.run_until(Timestamp::from_secs(120.0));
        let received = &world.actors()[1].received;
        assert_eq!(received.len(), sends.len());
        for &(sent, got) in received {
            let delay = got - sent;
            assert!(
                delay >= min - 1e-12 && delay <= max + 1e-12,
                "delay {delay} outside [{min}, {max}]"
            );
        }
    });
}

/// During a partition nothing crosses between the groups; after it
/// lifts, traffic flows again.
#[test]
fn partition_blocks_exactly_its_window() {
    check("partition_blocks_exactly_its_window", 48, |g| {
        let seed = g.int(0u64..1000);
        let gap_start = g.f64(5.0..15.0);
        let gap_len = g.f64(1.0..10.0);
        let sends: Vec<f64> = (0..40).map(f64::from).collect();
        let partition = Partition {
            from: Timestamp::from_secs(gap_start),
            until: Timestamp::from_secs(gap_start + gap_len),
            groups: vec![vec![NodeId::new(0)], vec![NodeId::new(1)]],
        };
        let mut world = World::new(
            vec![Probe::new(sends), Probe::new(vec![])],
            Topology::full_mesh(2),
            NetConfig::with_delay(DelayModel::instant()).partition(partition),
            seed,
        );
        world.run_until(Timestamp::from_secs(120.0));
        let received = &world.actors()[1].received;
        for &(sent, _) in received {
            assert!(
                !(gap_start..gap_start + gap_len).contains(&sent),
                "message sent at {sent} crossed the partition"
            );
        }
        // Everything outside the window arrived.
        let expected = 40 - received.len();
        assert_eq!(world.stats().partitioned, expected);
    });
}

/// Bit-identical reruns for any seed.
#[test]
fn worlds_are_reproducible() {
    check("worlds_are_reproducible", 48, |g| {
        let seed = g.int(0u64..10_000);
        let sends = g.vec(1..20, |g| g.f64(0.0..20.0));
        let run = || {
            let mut world = World::new(
                vec![Probe::new(sends.clone()), Probe::new(vec![])],
                Topology::full_mesh(2),
                NetConfig::with_delay(DelayModel::Uniform {
                    min: Duration::ZERO,
                    max: Duration::from_secs(0.5),
                })
                .loss(0.2),
                seed,
            );
            world.run_until(Timestamp::from_secs(60.0));
            (world.actors()[1].received.clone(), world.stats())
        };
        assert_eq!(run(), run());
    });
}
