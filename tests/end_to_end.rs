//! Cross-crate integration tests: full services (clocks + network +
//! protocol) under varied strategies, topologies, faults, and network
//! conditions.

use tempo::clocks::Fault;
use tempo::core::{Duration, Timestamp};
use tempo::net::{DelayModel, Topology};
use tempo::service::{BaselineKind, Strategy};
use tempo::sim::{Scenario, ServerSpec};

fn dur(s: f64) -> Duration {
    Duration::from_secs(s)
}

/// Every strategy keeps an all-honest service correct, across seeds.
#[test]
fn all_strategies_correct_on_honest_service() {
    let strategies = [
        Strategy::Mm,
        Strategy::Im,
        Strategy::MarzulloTolerant { max_faulty: 1 },
        Strategy::Baseline(BaselineKind::LamportMax),
        Strategy::Baseline(BaselineKind::Median),
        Strategy::Baseline(BaselineKind::Mean),
    ];
    for strategy in strategies {
        for seed in [1u64, 2, 3] {
            let result = Scenario::new(strategy)
                .servers(4, &ServerSpec::honest(4e-5, 1e-4))
                .duration(dur(200.0))
                .seed(seed)
                .run();
            assert_eq!(
                result.correctness_violations(),
                0,
                "{} seed {seed} violated correctness",
                strategy
            );
        }
    }
}

/// Interval strategies stay correct on ring and star topologies too —
/// the paper only assumes the graph is connected.
#[test]
fn non_mesh_topologies_stay_correct() {
    for (name, topology) in [
        ("ring", Topology::ring(6)),
        ("star", Topology::star(6)),
        ("line", Topology::line(6)),
    ] {
        for strategy in [Strategy::Mm, Strategy::Im] {
            let result = Scenario::new(strategy)
                .servers(6, &ServerSpec::honest(3e-5, 1e-4))
                .topology(topology.clone())
                .duration(dur(300.0))
                .seed(5)
                .run();
            assert_eq!(
                result.correctness_violations(),
                0,
                "{strategy} on {name} violated correctness"
            );
        }
    }
}

/// Ten percent message loss slows convergence but never breaks
/// correctness.
#[test]
fn lossy_network_is_safe() {
    for strategy in [Strategy::Mm, Strategy::Im] {
        let result = Scenario::new(strategy)
            .servers(5, &ServerSpec::honest(4e-5, 1e-4))
            .loss(0.10)
            .duration(dur(300.0))
            .seed(8)
            .run();
        assert_eq!(result.correctness_violations(), 0, "{strategy} under loss");
        assert!(result.net.lost > 0, "loss must actually occur");
    }
}

/// A server whose clock sticks still *reports* honestly growing error
/// bounds only per its claimed drift — it goes incorrect, while honest
/// MM peers ignore its (eventually inconsistent) replies and survive.
#[test]
fn stuck_clock_does_not_poison_mm_peers() {
    let result = Scenario::new(Strategy::Mm)
        .servers(3, &ServerSpec::honest(2e-5, 1e-4))
        .server(ServerSpec::honest(0.0, 1e-4).fault(Fault::stuck_at(Timestamp::from_secs(30.0))))
        .duration(dur(400.0))
        .seed(11)
        .run();
    // Honest servers (0..3) stay correct throughout.
    for row in &result.samples {
        for i in 0..3 {
            assert!(
                row.per_server[i].correct,
                "honest S{i} incorrect at {}",
                row.t
            );
        }
    }
    // The stuck server eventually becomes incorrect.
    assert!(
        result.samples.iter().any(|r| !r.per_server[3].correct),
        "a stuck clock must eventually leave its claimed interval"
    );
}

/// Marzullo(1) keeps honest servers correct while a violently racing
/// peer sprays replies: the racer's interval exits the consistency band
/// within milliseconds of each of its own resets, so its interval is
/// (almost) always disjoint from the honest cluster and the sweep
/// excludes it.
#[test]
fn marzullo_tolerates_wildly_racing_peer() {
    let result = Scenario::new(Strategy::MarzulloTolerant { max_faulty: 1 })
        .servers(4, &ServerSpec::honest(3e-5, 1e-4))
        .server(
            ServerSpec::honest(0.0, 1e-4)
                .fault(Fault::racing_from(Timestamp::from_secs(20.0), 5.0)),
        )
        .duration(dur(300.0))
        .seed(13)
        .run();
    for row in &result.samples {
        for i in 0..4 {
            assert!(
                row.per_server[i].correct,
                "honest S{i} incorrect at {}",
                row.t
            );
        }
    }
}

/// The flip side, straight from §4: "Algorithm IM is particularly
/// susceptible to servers drifting slightly slower or faster than their
/// assumed maximum drift rates." A *mildly* racing peer spends part of
/// each sawtooth consistent-but-incorrect (the Figure 3 state), and
/// while there it can drag the intersection off true time. The
/// excursion is bounded by the width of the consistency band, but it is
/// a real correctness violation — reproducing the paper's warning.
///
/// The demonstration needs *plain* IM: the faulty-tolerant hull with
/// `f ≥ 1` keeps real time covered by the n−1 honest intervals, so a
/// single racing peer cannot push it out. (An earlier version of this
/// test showed the excursion under Marzullo(f=1) — that turned out to
/// be the in-flight round-trip tear fixed in `apply_reset`'s mark
/// rebasing, not the §4 phenomenon.)
#[test]
fn subtle_drift_violation_can_mislead_intersection() {
    let result = Scenario::new(Strategy::Im)
        .servers(4, &ServerSpec::honest(3e-5, 1e-4))
        .server(
            ServerSpec::honest(0.0, 1e-4)
                .fault(Fault::racing_from(Timestamp::from_secs(20.0), 0.05)),
        )
        .duration(dur(300.0))
        .seed(45)
        .run();
    let honest_violations: usize = result
        .samples
        .iter()
        .map(|row| (0..4).filter(|&i| !row.per_server[i].correct).count())
        .sum();
    assert!(
        honest_violations > 0,
        "the §4 susceptibility should manifest with this seed"
    );
    // But the damage is bounded by the consistency band: honest servers
    // never stray more than ~an interval-width from true time.
    for row in &result.samples {
        for i in 0..4 {
            assert!(
                row.per_server[i].true_offset.abs() < dur(0.1),
                "honest S{i} offset {} too large at {}",
                row.per_server[i].true_offset,
                row.t
            );
        }
    }
}

/// …and §5's remedy: the same attack with rate screening enabled — the
/// dissonant peer is detected from its separation rate and excluded,
/// and the violations vanish.
#[test]
fn rate_screening_neutralises_subtle_drift() {
    use tempo::core::DriftRate;
    use tempo::service::ScreeningPolicy;

    let result = Scenario::new(Strategy::Im)
        .servers(4, &ServerSpec::honest(3e-5, 1e-4))
        .server(
            ServerSpec::honest(0.0, 1e-4)
                .fault(Fault::racing_from(Timestamp::from_secs(20.0), 0.05)),
        )
        .screening(ScreeningPolicy::Consonance {
            peer_bound: DriftRate::new(1e-4),
            sample_noise: Duration::from_millis(10.0),
        })
        .duration(dur(300.0))
        .seed(45)
        .run();
    for row in &result.samples {
        for i in 0..4 {
            assert!(
                row.per_server[i].correct,
                "screened honest S{i} incorrect at {}",
                row.t
            );
        }
    }
    let screened: usize = result.final_stats[..4].iter().map(|s| s.screened).sum();
    assert!(screened > 0, "the attacker must actually get screened");
}

/// A mid-run partition splits the service; consistency survives within
/// each side, and after healing the service re-converges.
#[test]
fn partition_heals() {
    use tempo::net::{NetConfig, Partition, World};
    use tempo::service::{ServerConfig, TimeServer};
    use tempo_clocks::{DriftModel, SimClock};
    use tempo_core::DriftRate;

    let n = 6;
    let servers: Vec<TimeServer> = (0..n)
        .map(|i| {
            let drift = if i % 2 == 0 { 4e-5 } else { -4e-5 };
            let clock = SimClock::builder()
                .drift(DriftModel::Constant(drift))
                .seed(i as u64)
                .build();
            TimeServer::new(
                clock,
                ServerConfig::new(Strategy::Im, DriftRate::new(1e-4))
                    .resync_period(dur(10.0))
                    .collect_window(dur(0.5)),
            )
        })
        .collect();
    let partition = Partition {
        from: Timestamp::from_secs(100.0),
        until: Timestamp::from_secs(200.0),
        groups: vec![
            (0..3).map(Into::into).collect(),
            (3..6).map(Into::into).collect(),
        ],
    };
    let net = NetConfig::with_delay(DelayModel::Uniform {
        min: Duration::ZERO,
        max: dur(0.01),
    })
    .partition(partition);
    let mut world = World::new(servers, Topology::full_mesh(n), net, 17);
    world.run_until(Timestamp::from_secs(400.0));
    assert!(
        world.stats().partitioned > 0,
        "partition must block messages"
    );
    let now = world.now();
    for (i, s) in world.actors_mut().iter_mut().enumerate() {
        let sample = s.sample(now);
        assert!(sample.correct, "S{i} incorrect after healing");
    }
}

/// The two-network §3 deployment end-to-end (also exercised by the
/// recovery experiment; this pins the cross-crate plumbing).
#[test]
fn two_network_recovery_deployment() {
    use tempo::clocks::DriftModel;
    use tempo::core::DriftRate;
    use tempo::service::RecoveryPolicy;

    let topology = Topology::from_edges(4, &[(0, 1), (2, 3), (0, 2), (1, 2)]);
    let result = Scenario::new(Strategy::Mm)
        .server(ServerSpec::new(
            DriftModel::Constant(0.042),
            DriftRate::per_day(1.0),
        ))
        .server(ServerSpec::honest(1e-6, 2e-5))
        .server(ServerSpec::honest(-1e-6, 2e-5))
        .server(ServerSpec::honest(0.0, 2e-5))
        .topology(topology)
        .resync_period(dur(30.0))
        .recovery(RecoveryPolicy::ThirdServer)
        .duration(dur(400.0))
        .seed(19)
        .run();
    assert!(result.final_stats[0].recoveries_applied > 0);
    // The honest servers never flinch.
    for row in &result.samples {
        for i in 1..4 {
            assert!(row.per_server[i].correct);
        }
    }
}

/// Identical scenarios are bit-identical across runs (full-stack
/// determinism), and seeds matter.
#[test]
fn full_stack_determinism() {
    let run = |seed: u64| {
        Scenario::new(Strategy::Im)
            .servers(5, &ServerSpec::honest(4e-5, 1e-4))
            .loss(0.05)
            .duration(dur(150.0))
            .seed(seed)
            .run()
    };
    let a = run(42);
    let b = run(42);
    assert_eq!(a.samples.len(), b.samples.len());
    for (ra, rb) in a.samples.iter().zip(&b.samples) {
        assert_eq!(ra.per_server, rb.per_server);
    }
    assert_eq!(a.net, b.net);
    let c = run(43);
    assert_ne!(
        a.last().per_server,
        c.last().per_server,
        "different seeds must diverge"
    );
}

/// IM tightens claimed errors below a free-running clock's growth.
#[test]
fn im_beats_free_running_error_growth() {
    // Drift *diversity* is what lets intersection shrink intervals
    // (Theorem 8): spread the actual drifts across the claimed band.
    let delta = 1e-4;
    let duration = 500.0;
    let mut scenario = Scenario::new(Strategy::Im).duration(dur(duration)).seed(23);
    for (i, frac) in [0.8f64, -0.8, 0.4, -0.4, 0.1, -0.1].iter().enumerate() {
        let _ = i;
        scenario = scenario.server(ServerSpec::honest(frac * delta, delta));
    }
    let result = scenario.run();
    assert_eq!(result.correctness_violations(), 0);
    let free_running = 0.01 + delta * duration; // ε0 + δ·t
    let worst = result.last().max_error().as_secs();
    assert!(
        worst < free_running / 2.0,
        "synchronized error {worst} should be well below free-running {free_running}"
    );
}
