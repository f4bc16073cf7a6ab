//! Property tests over the live protocol: arbitrary honest deployments
//! driven end-to-end through the actor stack.

use tempo_check::check;

use tempo_clocks::{DriftModel, SimClock};
use tempo_core::{DriftRate, Duration, Timestamp};
use tempo_net::{DelayModel, NetConfig, Topology, World};
use tempo_service::{ServerConfig, Strategy, TimeServer};

fn build_world(
    strategy: Strategy,
    drifts: &[f64],
    bound: f64,
    tau: f64,
    max_delay: f64,
    seed: u64,
) -> World<TimeServer> {
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
                ServerConfig::new(strategy, DriftRate::new(bound))
                    .resync_period(Duration::from_secs(tau))
                    .collect_window(Duration::from_secs((4.0 * max_delay).min(tau / 3.0)))
                    .initial_error(Duration::from_millis(20.0)),
            )
        })
        .collect();
    World::new(
        servers,
        Topology::full_mesh(drifts.len()),
        NetConfig::with_delay(DelayModel::Uniform {
            min: Duration::ZERO,
            max: Duration::from_secs(max_delay),
        }),
        seed,
    )
}

/// Theorem 1/5 at the actor level: honest services stay correct for
/// arbitrary drifts within bound, strategies, and network speeds.
#[test]
fn protocol_preserves_correctness() {
    check("protocol_preserves_correctness", 16, |g| {
        let n = g.int(2usize..6);
        let drift_fracs = g.vec(6..=6, |g| g.f64(-0.9..0.9));
        let bound_exp = g.f64(3.0..5.0); // δ ∈ [1e-5, 1e-3]
        let tau = g.f64(5.0..20.0);
        let max_delay = g.f64(0.001..0.02);
        let strategy_pick = g.int(0u8..3);
        let seed = g.int(0u64..500);
        let bound = 10f64.powf(-bound_exp);
        let strategy = match strategy_pick {
            0 => Strategy::Mm,
            1 => Strategy::Im,
            _ => Strategy::MarzulloTolerant { max_faulty: 1 },
        };
        let drifts: Vec<f64> = drift_fracs[..n].iter().map(|f| f * bound).collect();
        let mut world = build_world(strategy, &drifts, bound, tau, max_delay, seed);
        let horizon = tau * 12.0;
        let mut t = 0.0;
        while t < horizon {
            t += tau / 3.0;
            let now = Timestamp::from_secs(t);
            world.run_until(now);
            for (i, s) in world.actors_mut().iter_mut().enumerate() {
                let sample = s.sample(now);
                assert!(
                    sample.correct,
                    "S{i} incorrect at {now} (strategy {strategy}): offset {} error {}",
                    sample.true_offset, sample.error
                );
            }
        }
        // Liveness: rounds actually ran and at least IM/Marzullo reset.
        let rounds: usize = world.actors().iter().map(|s| s.stats().rounds).sum();
        assert!(rounds >= n * 8);
    });
}

/// Request/reply accounting balances: every processed reply matches
/// a request this server sent, and late + processed + screened never
/// exceeds requests sent (n-1 peers per round plus recoveries).
#[test]
fn reply_accounting_balances() {
    check("reply_accounting_balances", 16, |g| {
        let n = g.int(2usize..6);
        let seed = g.int(0u64..300);
        let drifts: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 3e-5 } else { -3e-5 })
            .collect();
        let mut world = build_world(Strategy::Im, &drifts, 1e-4, 10.0, 0.005, seed);
        world.run_until(Timestamp::from_secs(120.0));
        for s in world.actors() {
            let st = s.stats();
            let max_expected = st.rounds * (n - 1) + st.recoveries_started;
            assert!(
                st.replies + st.late_replies <= max_expected,
                "stats {st:?} exceed {max_expected}"
            );
            assert!(st.rounds >= 10);
        }
    });
}
