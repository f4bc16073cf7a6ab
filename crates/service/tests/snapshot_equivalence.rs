//! Seed-swept equivalence: the lock-free snapshot path must answer
//! with *bit-identical* readings to the sync actor it mirrors.
//!
//! The serving split (seqlock-published [`tempo_core::ClockSnapshot`],
//! answered by detached reader threads) is only sound if a snapshot
//! read is indistinguishable from asking the actor itself. These tests
//! drive three pinned seed-swept simulated deployments — different
//! sizes, strategies, and network pathologies — and at
//! every sample point compare `TimeServer::current_estimate` against
//! `SnapshotReader::read().estimate_at(..)` down to the float bits:
//! same `(r_i, ε_i, δ_i)` inputs through the same MM-1 arithmetic, so
//! anything short of exact equality means the publish sites and the
//! sync core have drifted apart.

use tempo_clocks::{DriftModel, SimClock};
use tempo_core::{DriftRate, Duration, Timestamp};
use tempo_net::{DelayModel, NetConfig, Topology, World};
use tempo_service::{ApplyMode, RetryPolicy, ServerConfig, Strategy, TimeServer};

/// The three pinned seeds, each with a distinct deployment shape so
/// the sweep covers strategies and lossy networks.
const SEEDS: [u64; 3] = [11, 47, 203];

fn world_for(seed: u64) -> World<TimeServer> {
    let (strategy, apply, drifts, loss, quorum): (_, _, &[f64], f64, usize) = match seed {
        // Clean MM mesh, stepped clocks.
        11 => (
            Strategy::Mm,
            ApplyMode::Step,
            &[2e-5, -3e-5, 1e-5, -1e-5],
            0.0,
            1,
        ),
        // IM under loss, stepped clocks.
        47 => (
            Strategy::Im,
            ApplyMode::Step,
            &[4e-5, -2e-5, 3e-5, -4e-5, 1e-5],
            0.1,
            1,
        ),
        // Fault-tolerant Marzullo with a §5 bootstrap quorum.
        203 => (
            Strategy::MarzulloTolerant { max_faulty: 1 },
            ApplyMode::Step,
            &[3e-5, -3e-5, 2e-5],
            0.05,
            2,
        ),
        _ => unreachable!("no deployment pinned for seed {seed}"),
    };
    let servers: Vec<TimeServer> = drifts
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let clock = SimClock::builder()
                .drift(DriftModel::Constant(d))
                .seed(seed.wrapping_add(i as u64))
                .build();
            TimeServer::new(
                clock,
                ServerConfig::new(strategy, DriftRate::new(1e-4))
                    .resync_period(Duration::from_secs(5.0))
                    .collect_window(Duration::from_secs(0.5))
                    .initial_error(Duration::from_millis(20.0))
                    .retry(RetryPolicy::backoff_defaults())
                    .quorum(quorum)
                    .apply(apply),
            )
        })
        .collect();
    World::new(
        servers,
        Topology::full_mesh(drifts.len()),
        NetConfig::with_delay(DelayModel::Uniform {
            min: Duration::from_millis(1.0),
            max: Duration::from_millis(10.0),
        })
        .loss(loss),
        seed,
    )
}

/// The contract itself: at every sample point of every seed-swept run,
/// a snapshot read equals the sync actor's answer bit for bit, and the
/// serving flag equals the actor's activity.
#[test]
fn snapshot_readings_match_the_sync_actor_bit_for_bit() {
    for seed in SEEDS {
        let mut world = world_for(seed);
        let readers: Vec<_> = world
            .actors()
            .iter()
            .map(TimeServer::snapshot_reader)
            .collect();
        let mut checks = 0u32;
        let mut t = 0.0;
        while t < 90.0 {
            // Off-period stride so samples land mid-round, mid-window,
            // and right after resets across the sweep.
            t += 1.7;
            let now = Timestamp::from_secs(t);
            world.run_until(now);
            for (i, s) in world.actors_mut().iter_mut().enumerate() {
                let snap = readers[i]
                    .read()
                    .expect("a snapshot is published from construction onward");
                assert_eq!(
                    snap.serving,
                    s.is_active(),
                    "seed {seed} S{i} at {now}: serving flag out of sync"
                );
                let sync = s.current_estimate(now);
                let served = snap.estimate_at(sync.time());
                assert_eq!(
                    served.time().as_secs().to_bits(),
                    sync.time().as_secs().to_bits(),
                    "seed {seed} S{i} at {now}: served time {} != actor time {}",
                    served.time(),
                    sync.time()
                );
                assert_eq!(
                    served.error().as_secs().to_bits(),
                    sync.error().as_secs().to_bits(),
                    "seed {seed} S{i} at {now}: served error {} != actor error {}",
                    served.error(),
                    sync.error()
                );
                checks += 1;
            }
        }
        assert!(checks > 100, "seed {seed}: only {checks} sample points");
    }
}

/// Liveness of the publish sites: generations keep advancing while
/// the protocol resyncs, and every server ends up serving.
#[test]
fn snapshot_generation_tracks_protocol_activity() {
    for seed in SEEDS {
        let mut world = world_for(seed);
        let readers: Vec<_> = world
            .actors()
            .iter()
            .map(TimeServer::snapshot_reader)
            .collect();
        let before: Vec<u64> = readers.iter().map(|r| r.generation()).collect();
        world.run_until(Timestamp::from_secs(60.0));
        for (i, (reader, s)) in readers.iter().zip(world.actors()).enumerate() {
            let after = reader.generation();
            let resets = s.stats().resets as u64;
            // Every adoption republishes (on top of construction and
            // join), so the generation floor is the reset count plus
            // the two lifecycle publishes already counted in `before`.
            // MM deployments may legitimately never reset — their
            // state truly is constant — so the floor, not a fixed
            // growth, is the contract.
            assert!(
                after >= before[i].max(resets),
                "seed {seed} S{i}: generation {} → {after} with {resets} resets: \
                 an adoption went unpublished",
                before[i]
            );
            let snap = reader.read().expect("published");
            assert!(snap.serving, "seed {seed} S{i}: never reached serving");
        }
    }
}
