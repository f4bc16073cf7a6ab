//! Property-style tests of the fault-tolerance machinery: the live
//! protocol driven end-to-end under heavy loss, a mid-run two-group
//! partition, and duplicate delivery, across a sweep of deterministic
//! seeds. Every non-faulty server must hold a *correct* interval
//! (true time ∈ [C−E, C+E]) throughout, and the timeout/retry/health
//! counters must actually fire.

use tempo_clocks::{DriftModel, SimClock};
use tempo_core::{DriftRate, Duration, Timestamp};
use tempo_net::{DelayModel, NetConfig, NodeId, Partition, Topology, World};
use tempo_service::{
    HealthConfig, PeerState, RetryPolicy, ServerConfig, ServerFault, Strategy, TimeServer,
};

fn ts(s: f64) -> Timestamp {
    Timestamp::from_secs(s)
}

fn dur(s: f64) -> Duration {
    Duration::from_secs(s)
}

const DRIFTS: [f64; 6] = [5e-5, -5e-5, 2e-5, -2e-5, 1e-5, -4e-5];

fn retrying_config(strategy: Strategy) -> ServerConfig {
    ServerConfig::new(strategy, DriftRate::new(1e-4))
        .resync_period(dur(10.0))
        .collect_window(dur(1.0))
        .initial_error(dur(0.05))
        .retry(RetryPolicy::Backoff {
            timeout: dur(0.15),
            max_retries: 3,
            multiplier: 2.0,
            jitter: 0.1,
        })
        .health(HealthConfig {
            suspect_after: 2,
            dead_after: 6,
            probe_every: 3,
        })
}

fn build_world(strategy: Strategy, net: NetConfig, seed: u64) -> World<TimeServer> {
    let servers: Vec<TimeServer> = DRIFTS
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let clock = SimClock::builder()
                .drift(DriftModel::Constant(d))
                .seed(seed.wrapping_add(i as u64))
                .build();
            TimeServer::new(clock, retrying_config(strategy))
        })
        .collect();
    World::new(servers, Topology::full_mesh(DRIFTS.len()), net, seed)
}

/// Checks correctness of every server at a stride of sample instants,
/// not just at the end — a transiently wrong interval must not hide.
fn assert_correct_throughout(world: &mut World<TimeServer>, until: f64, label: &str) {
    let mut t = 0.0;
    while t < until {
        t += 2.5;
        let now = ts(t.min(until));
        world.run_until(now);
        for (i, s) in world.actors_mut().iter_mut().enumerate() {
            let sample = s.sample(now);
            assert!(
                sample.correct,
                "{label}: server {i} incorrect at {now}: offset {} error {}",
                sample.true_offset, sample.error
            );
        }
    }
}

#[test]
fn correct_under_heavy_loss() {
    for seed in [101, 202, 303, 404] {
        let mut net = NetConfig::with_delay(DelayModel::Uniform {
            min: Duration::ZERO,
            max: dur(0.02),
        });
        net.loss = 0.3;
        let mut world = build_world(Strategy::MarzulloTolerant { max_faulty: 1 }, net, seed);
        assert_correct_throughout(&mut world, 300.0, "loss30");
        let mut timeouts = 0;
        let mut retries = 0;
        let mut replies = 0;
        for s in world.actors() {
            let stats = s.stats();
            timeouts += stats.timeouts;
            retries += stats.retries;
            replies += stats.replies;
        }
        assert!(timeouts > 0, "seed {seed}: 30% loss must cause timeouts");
        assert!(retries > 0, "seed {seed}: timeouts must be retried");
        assert!(replies > 0, "seed {seed}: the service must still work");
    }
}

#[test]
fn correct_across_two_group_partition() {
    for seed in [11, 22, 33] {
        let mut net = NetConfig::with_delay(DelayModel::Uniform {
            min: Duration::ZERO,
            max: dur(0.02),
        });
        net.partitions.push(Partition {
            from: ts(100.0),
            until: ts(200.0),
            groups: vec![
                (0..3).map(NodeId::new).collect(),
                (3..6).map(NodeId::new).collect(),
            ],
        });
        let mut world = build_world(Strategy::Im, net, seed);
        assert_correct_throughout(&mut world, 400.0, "partition");
        for (i, s) in world.actors().iter().enumerate() {
            let stats = s.stats();
            assert!(
                stats.timeouts > 0,
                "seed {seed}: server {i} must time out across the cut: {stats:?}"
            );
            assert!(
                stats.peers_suspected > 0,
                "seed {seed}: server {i} must suspect unreachable peers"
            );
            assert!(
                stats.peers_reinstated > 0,
                "seed {seed}: server {i} must reinstate peers after healing"
            );
            // Long after the heal every peer is Healthy again.
            for peer in 0..DRIFTS.len() {
                if peer != i {
                    assert_eq!(
                        s.peer_state(NodeId::new(peer)),
                        PeerState::Healthy,
                        "seed {seed}: server {i} still distrusts {peer}"
                    );
                }
            }
        }
    }
}

#[test]
fn loss_and_partition_combined_exercise_late_replies() {
    // Loss plus a long partition plus a collect window shorter than the
    // slowest delays: every failure counter fires somewhere, and the
    // service stays correct regardless.
    for seed in [7, 77] {
        let mut net = NetConfig::with_delay(DelayModel::Uniform {
            min: dur(0.001),
            max: dur(0.4),
        });
        net.loss = 0.3;
        net.partitions.push(Partition {
            from: ts(80.0),
            until: ts(160.0),
            groups: vec![
                (0..3).map(NodeId::new).collect(),
                (3..6).map(NodeId::new).collect(),
            ],
        });
        let mut world = build_world(Strategy::MarzulloTolerant { max_faulty: 1 }, net, seed);
        assert_correct_throughout(&mut world, 300.0, "loss+partition");
        let mut late = 0;
        let mut timeouts = 0;
        for s in world.actors() {
            late += s.stats().late_replies;
            timeouts += s.stats().timeouts;
        }
        assert!(
            late > 0,
            "seed {seed}: slow replies must be counted late, not processed"
        );
        assert!(timeouts > 0, "seed {seed}: timeouts must fire");
    }
}

#[test]
fn duplicate_delivery_is_idempotent() {
    // With the net duplicating 20% of messages, a reply's second copy
    // finds its pending entry already consumed and must land in
    // `late_replies` — never processed twice. Correctness and reply
    // accounting stay intact.
    for seed in [5, 55] {
        let net = NetConfig::with_delay(DelayModel::Uniform {
            min: Duration::ZERO,
            max: dur(0.02),
        })
        .duplication(0.2);
        let mut world = build_world(Strategy::Im, net, seed);
        assert_correct_throughout(&mut world, 200.0, "duplication");
        let mut late = 0;
        for s in world.actors() {
            late += s.stats().late_replies;
        }
        assert!(
            late > 0,
            "seed {seed}: duplicated replies must be dropped as late"
        );
        assert!(world.stats().duplicated > 0);
    }
}

/// The Zeno time-out (ROADMAP item 2). A request's timer runs on real
/// time but its deadline is an own-clock reading, so on a slow clock
/// the timer re-arms with the remainder — which shrinks geometrically.
/// Just past a power of two of real time, with the slow clock still in
/// the binade below, the remainder can be one unit in the last place of
/// the clock and half a unit of real time: `now + remainder == now`,
/// and the timer used to fire for ever at that instant. Requester slow
/// by its full δ, peer silent, so every request runs to its deadline;
/// the window after each power of two is 2^k·δ wide, and a short
/// period puts a deadline or two in each.
#[test]
fn slow_clock_timeout_does_not_fire_for_ever_at_one_instant() {
    let bound = 1e-2;
    for seed in 0..8 {
        let servers: Vec<TimeServer> = [-bound, 0.0]
            .iter()
            .enumerate()
            .map(|(i, &drift)| {
                let clock = SimClock::builder()
                    .drift(DriftModel::Constant(drift))
                    .seed(seed + i as u64)
                    .build();
                let mut config = ServerConfig::new(Strategy::Mm, DriftRate::new(bound))
                    .resync_period(dur(0.5))
                    .collect_window(dur(0.1))
                    .initial_error(dur(0.05))
                    .retry(RetryPolicy::backoff_defaults());
                if i == 1 {
                    config = config.fault(ServerFault::crash_at(ts(0.0)));
                }
                TimeServer::new(clock, config)
            })
            .collect();
        let net = NetConfig::with_delay(DelayModel::Constant(dur(0.005)));
        let mut world = World::new(servers, Topology::full_mesh(2), net, seed);
        // An event budget, not a wall clock: 140 s is some 280 rounds
        // of one request and a few re-arms each.
        let mut budget = 20_000u32;
        while world.now() < ts(140.0) && world.step() {
            budget -= 1;
            assert!(
                budget > 0,
                "seed {seed}: stuck at {} after {} timer firings",
                world.now(),
                world.stats().timers_fired
            );
        }
        let stats = world.actors()[0].stats();
        assert!(
            stats.timeouts > 200,
            "seed {seed}: requests ran to their deadlines"
        );
    }
}
