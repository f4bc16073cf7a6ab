//! Workspace-level property tests: randomly configured honest services
//! must satisfy the paper's safety properties end-to-end.

use tempo_check::{check, Gen};

use tempo::core::Duration;
use tempo::sim::{Scenario, ServerSpec};

fn dur(s: f64) -> Duration {
    Duration::from_secs(s)
}

fn strategy(g: &mut Gen) -> tempo::service::Strategy {
    *g.pick(&[
        tempo::service::Strategy::Mm,
        tempo::service::Strategy::Im,
        tempo::service::Strategy::MarzulloTolerant { max_faulty: 1 },
    ])
}

/// Theorem 1 / Theorem 5, end to end: an initially correct service
/// of honest servers remains correct, whatever the topology of
/// drifts, the delays, and the scheduling.
#[test]
fn honest_services_stay_correct() {
    check("honest_services_stay_correct", 24, |g| {
        let strategy = strategy(g);
        let n = g.int(2usize..7);
        let drift_fracs = g.vec(7..=7, |g| g.f64(-0.9..0.9));
        let delta_exp = g.f64(1.0..3.0); // δ ∈ [1e-5, 1e-3]
        let max_delay_ms = g.f64(0.5..20.0);
        let tau = g.f64(5.0..25.0);
        let seed = g.int(0u64..1000);
        let delta = 10f64.powf(-2.0 - delta_exp);
        let mut scenario = Scenario::new(strategy)
            .delay(tempo::net::DelayModel::Uniform {
                min: Duration::ZERO,
                max: Duration::from_millis(max_delay_ms),
            })
            .resync_period(dur(tau))
            .collect_window(dur((4.0 * max_delay_ms / 1000.0).min(tau / 3.0)))
            .duration(dur(tau * 10.0))
            .sample_interval(dur(tau / 3.0))
            .seed(seed);
        for frac in drift_fracs.iter().take(n) {
            scenario = scenario.server(ServerSpec::honest(frac * delta, delta));
        }
        let result = scenario.run();
        assert_eq!(result.correctness_violations(), 0);
        // Correct servers are pairwise consistent (§2.3), hence so is
        // every sample row.
        for row in &result.samples {
            for i in 0..n {
                for j in 0..n {
                    let a = row.per_server[i].estimate();
                    let b = row.per_server[j].estimate();
                    assert!(a.is_consistent_with(&b));
                }
            }
        }
    });
}

/// Lemma 3 end-to-end: the minimum claimed error in an MM service
/// never decreases between samples.
#[test]
fn mm_minimum_error_never_decreases() {
    check("mm_minimum_error_never_decreases", 24, |g| {
        let n = g.int(2usize..6);
        let seed = g.int(0u64..500);
        let result = Scenario::new(tempo::service::Strategy::Mm)
            .servers(n, &ServerSpec::honest(4e-5, 1e-4))
            .duration(dur(150.0))
            .sample_interval(dur(2.0))
            .seed(seed)
            .run();
        let mut prev = Duration::ZERO;
        for row in &result.samples {
            let min = row.min_error();
            assert!(
                min >= prev - Duration::from_secs(1e-12),
                "E_M decreased: {} -> {}",
                prev,
                min
            );
            prev = min;
        }
    });
}

/// Determinism under arbitrary seeds: the same scenario twice gives
/// identical traces.
#[test]
fn runs_are_reproducible() {
    check("runs_are_reproducible", 24, |g| {
        let seed = g.int(0u64..10_000);
        let build = || {
            Scenario::new(tempo::service::Strategy::Im)
                .servers(3, &ServerSpec::honest(3e-5, 1e-4))
                .loss(0.02)
                .duration(dur(60.0))
                .seed(seed)
                .run()
        };
        let a = build();
        let b = build();
        for (ra, rb) in a.samples.iter().zip(&b.samples) {
            assert_eq!(&ra.per_server, &rb.per_server);
        }
    });
}
