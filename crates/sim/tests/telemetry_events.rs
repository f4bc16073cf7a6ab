//! Telemetry-bus integration: the health lifecycle of a partitioned
//! peer, observed purely through [`TelemetryEvent::HealthChanged`]
//! events.
//!
//! A two-server service is split by a scheduled partition long enough
//! for each side to walk its peer Healthy → Suspect → Dead, then the
//! partition heals and a probe round reinstates the peer. The bus
//! must report exactly that sequence — and a clean network must
//! produce no health events at all.
//!
//! The assertions are structural (transition order, not instants):
//! round start phases draw on seeded RNGs, so times shift with the
//! RNG stream, but the lifecycle itself is forced by the schedule —
//! the partition spans dozens of resync rounds while `dead_after`
//! needs only six, and probes retry every four rounds after the heal.

use std::cell::RefCell;
use std::rc::Rc;

use tempo_clocks::{DriftModel, SimClock};
use tempo_core::{DriftRate, Duration, Timestamp};
use tempo_net::{DelayModel, NetConfig, NodeId, Partition, Topology, World};
use tempo_service::{HealthConfig, RetryPolicy, ServerConfig, ServerFault, Strategy, TimeServer};
use tempo_telemetry::{Bus, EventKind, HealthState, Observer, TelemetryEvent};

/// Records every health transition the bus reports.
#[derive(Debug, Default)]
struct HealthRecorder {
    transitions: Vec<(usize, usize, HealthState, HealthState)>,
}

impl Observer for HealthRecorder {
    fn enabled(&self, kind: EventKind) -> bool {
        kind == EventKind::HealthChanged
    }

    fn observe(&mut self, event: &TelemetryEvent) {
        if let TelemetryEvent::HealthChanged {
            server,
            peer,
            from,
            to,
            ..
        } = event
        {
            self.transitions.push((*server, *peer, *from, *to));
        }
    }
}

fn base_config() -> ServerConfig {
    ServerConfig::new(Strategy::Mm, DriftRate::new(1e-4))
        .resync_period(Duration::from_secs(5.0))
        .collect_window(Duration::from_secs(0.5))
        .jitter(0.0)
        .retry(RetryPolicy::Backoff {
            timeout: Duration::from_millis(200.0),
            max_retries: 0,
            multiplier: 2.0,
            jitter: 0.0,
        })
        .health(HealthConfig {
            suspect_after: 2,
            dead_after: 6,
            probe_every: 4,
        })
}

fn server_with(seed: u64, config: ServerConfig) -> TimeServer {
    let clock = SimClock::builder()
        .drift(DriftModel::Constant(1e-5))
        .seed(seed)
        .build();
    TimeServer::new(clock, config)
}

fn server(seed: u64) -> TimeServer {
    server_with(seed, base_config())
}

fn run_pair(partitioned: bool) -> Vec<(usize, usize, HealthState, HealthState)> {
    let bus = Bus::new();
    let recorder = Rc::new(RefCell::new(HealthRecorder::default()));
    bus.subscribe(Rc::clone(&recorder));

    let servers = vec![server(1), server(2)];
    let mut net = NetConfig::with_delay(DelayModel::Constant(Duration::from_millis(5.0)));
    if partitioned {
        net.partitions.push(Partition {
            from: Timestamp::from_secs(30.0),
            until: Timestamp::from_secs(150.0),
            groups: vec![vec![NodeId::new(0)], vec![NodeId::new(1)]],
        });
    }
    let mut world = World::new_with_bus(servers, Topology::full_mesh(2), net, 42, bus.clone());
    world.run_until(Timestamp::from_secs(300.0));

    let recorder = recorder.borrow();
    recorder.transitions.clone()
}

#[test]
fn partitioned_peer_walks_the_full_health_lifecycle() {
    let transitions = run_pair(true);
    // Each server watches exactly one peer, so each side's sequence
    // must be exactly: demoted to Suspect, demoted to Dead, and — once
    // the partition heals and a probe round reaches it — reinstated.
    for me in 0..2usize {
        let peer = 1 - me;
        let mine: Vec<_> = transitions
            .iter()
            .filter(|(server, _, _, _)| *server == me)
            .collect();
        assert_eq!(
            mine,
            vec![
                &(me, peer, HealthState::Healthy, HealthState::Suspect),
                &(me, peer, HealthState::Suspect, HealthState::Dead),
                &(me, peer, HealthState::Dead, HealthState::Healthy),
            ],
            "server {me} health sequence: {transitions:?}"
        );
    }
}

#[test]
fn clean_network_emits_no_health_events() {
    let transitions = run_pair(false);
    assert!(
        transitions.is_empty(),
        "no peer should change health on a clean network: {transitions:?}"
    );
}

/// Records the crash–restart lifecycle events alongside health
/// transitions: `(kind, server)` in emission order.
#[derive(Debug, Default)]
struct LifecycleRecorder {
    events: Vec<(EventKind, usize)>,
    bootstrap_rounds: Vec<u32>,
    amnesia_flags: Vec<bool>,
}

impl Observer for LifecycleRecorder {
    fn enabled(&self, kind: EventKind) -> bool {
        matches!(
            kind,
            EventKind::ServerCrashed
                | EventKind::ServerRestarted
                | EventKind::StateRehydrated
                | EventKind::BootstrapCompleted
        )
    }

    fn observe(&mut self, event: &TelemetryEvent) {
        match event {
            TelemetryEvent::ServerCrashed { server, .. } => {
                self.events.push((EventKind::ServerCrashed, *server));
            }
            TelemetryEvent::ServerRestarted {
                server, amnesia, ..
            } => {
                self.events.push((EventKind::ServerRestarted, *server));
                self.amnesia_flags.push(*amnesia);
            }
            TelemetryEvent::StateRehydrated { server, .. } => {
                self.events.push((EventKind::StateRehydrated, *server));
            }
            TelemetryEvent::BootstrapCompleted { server, rounds, .. } => {
                self.events.push((EventKind::BootstrapCompleted, *server));
                self.bootstrap_rounds.push(*rounds);
            }
            _ => {}
        }
    }
}

/// A crashed peer is walked to Dead while down, then probe-reinstated
/// once its durable restart brings it back — all observed through the
/// bus: the crash/restart/rehydrate/bootstrap event sequence from the
/// restarting server, the health walk from its peers.
#[test]
fn dead_peer_is_probe_reinstated_after_restart() {
    const RESTARTER: usize = 2;
    let bus = Bus::new();
    let health = Rc::new(RefCell::new(HealthRecorder::default()));
    let lifecycle = Rc::new(RefCell::new(LifecycleRecorder::default()));
    bus.subscribe(Rc::clone(&health));
    bus.subscribe(Rc::clone(&lifecycle));

    // Crash at 30 s, restart 60 s later: at one failed round per 5 s
    // resync period, both peers walk server 2 to Dead (dead_after 6)
    // well before the restart at 90 s, then a probe (every 4th skip)
    // reinstates it.
    let servers = vec![
        server(11),
        server(12),
        server_with(
            13,
            base_config().fault(ServerFault::crash_restart(
                Timestamp::from_secs(30.0),
                Duration::from_secs(60.0),
                false,
            )),
        ),
    ];
    let net = NetConfig::with_delay(DelayModel::Constant(Duration::from_millis(5.0)));
    let mut world = World::new_with_bus(servers, Topology::full_mesh(3), net, 42, bus.clone());
    world.run_until(Timestamp::from_secs(300.0));

    // The restarting server emitted the full durable lifecycle, in order.
    let lifecycle = lifecycle.borrow();
    assert_eq!(
        lifecycle.events,
        vec![
            (EventKind::ServerCrashed, RESTARTER),
            (EventKind::ServerRestarted, RESTARTER),
            (EventKind::StateRehydrated, RESTARTER),
            (EventKind::BootstrapCompleted, RESTARTER),
        ],
        "durable restart lifecycle: {:?}",
        lifecycle.events
    );
    assert_eq!(lifecycle.amnesia_flags, vec![false]);
    assert_eq!(
        lifecycle.bootstrap_rounds,
        vec![0],
        "a durable restart rehydrates instead of bootstrapping"
    );

    // Both peers walked it Healthy → Suspect → Dead while it was down,
    // then probe-reinstated it after the restart.
    let health = health.borrow();
    for me in (0..3usize).filter(|&me| me != RESTARTER) {
        let about_restarter: Vec<_> = health
            .transitions
            .iter()
            .filter(|(server, peer, _, _)| *server == me && *peer == RESTARTER)
            .map(|&(_, _, from, to)| (from, to))
            .collect();
        assert_eq!(
            about_restarter,
            vec![
                (HealthState::Healthy, HealthState::Suspect),
                (HealthState::Suspect, HealthState::Dead),
                (HealthState::Dead, HealthState::Healthy),
            ],
            "server {me} walk of the restarter: {:?}",
            health.transitions
        );
    }
    // The restarter never lost faith in its (always reachable) peers.
    assert!(
        health
            .transitions
            .iter()
            .all(|(server, _, _, _)| *server != RESTARTER),
        "restarter demoted a healthy peer: {:?}",
        health.transitions
    );
}
