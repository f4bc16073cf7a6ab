//! Property tests for the clock substrate: every drift model honours
//! its envelope, the monotonic adapter never goes backward, and the
//! discipline stays monotone while draining corrections.

use tempo_check::{check, Gen};

use tempo_clocks::{
    Adjustment, ClockDiscipline, DisciplineConfig, DriftModel, MonotonicClock, SimClock,
};
use tempo_core::{Duration, Timestamp};

fn drift_model(g: &mut Gen) -> DriftModel {
    match g.int(0..5u8) {
        0 => DriftModel::Constant(g.f64(-1e-3..1e-3)),
        1 => DriftModel::RandomWalk {
            sigma: g.f64(1e-6..1e-4),
            bound: g.f64(1e-5..1e-3),
            quantum: Duration::from_secs(g.f64(1.0..50.0)),
        },
        2 => DriftModel::Sinusoidal {
            amplitude: g.f64(1e-6..1e-3),
            period: Duration::from_secs(g.f64(10.0..1000.0)),
            phase: g.f64(0.0..std::f64::consts::TAU),
        },
        3 => DriftModel::UniformResample {
            bound: g.f64(1e-6..1e-3),
            quantum: Duration::from_secs(g.f64(1.0..50.0)),
        },
        _ => {
            let mut segments = g.vec(1..5, |g| (g.f64(0.0..1000.0), g.f64(-1e-3..1e-3)));
            segments.sort_by(|a, b| a.0.total_cmp(&b.0));
            DriftModel::Scripted {
                segments,
                quantum: Duration::from_secs(g.f64(1.0..20.0)),
            }
        }
    }
}

/// Every model's realised segment rate stays within `1 ± max_drift`.
#[test]
fn clock_rate_within_envelope() {
    check("clock_rate_within_envelope", 256, |g| {
        let model = drift_model(g);
        let seed = g.int(0u64..1000);
        let steps = g.vec(1..40, |g| g.f64(0.01..30.0));
        let bound = model.max_drift();
        let mut clock = SimClock::builder().drift(model).seed(seed).build();
        let mut t = 0.0;
        let mut prev = clock.read(Timestamp::ZERO);
        for step in steps {
            t += step;
            let now = Timestamp::from_secs(t);
            let r = clock.read(now);
            let rate = (r - prev).as_secs() / step;
            assert!(
                (rate - 1.0).abs() <= bound + 1e-9,
                "rate {rate} outside 1±{bound}"
            );
            prev = r;
        }
    });
}

/// Clock readings are monotone for any schedule (no fault armed).
#[test]
fn clock_readings_monotone() {
    check("clock_readings_monotone", 256, |g| {
        let model = drift_model(g);
        let seed = g.int(0u64..1000);
        let steps = g.vec(1..40, |g| g.f64(0.0..20.0));
        let mut clock = SimClock::builder().drift(model).seed(seed).build();
        let mut t = 0.0;
        let mut prev = clock.read(Timestamp::ZERO);
        for step in steps {
            t += step;
            let r = clock.read(Timestamp::from_secs(t));
            assert!(r >= prev, "clock went backwards: {r} < {prev}");
            prev = r;
        }
    });
}

/// `set` always wins (absent a refuse-set fault): reading right
/// after a set returns the set value.
#[test]
fn set_takes_effect() {
    check("set_takes_effect", 256, |g| {
        let model = drift_model(g);
        let seed = g.int(0u64..1000);
        let at = g.f64(0.0..100.0);
        let value = g.f64(-1000.0..1000.0);
        let mut clock = SimClock::builder().drift(model).seed(seed).build();
        let now = Timestamp::from_secs(at);
        assert!(clock.set(now, Timestamp::from_secs(value)));
        assert_eq!(clock.read(now), Timestamp::from_secs(value));
    });
}

/// The monotonic adapter never steps backward for any raw sequence.
#[test]
fn monotonic_adapter_is_monotone() {
    check("monotonic_adapter_is_monotone", 256, |g| {
        let slew = g.f64(0.01..0.99);
        let raws = g.vec(1..50, |g| g.f64(-100.0..100.0));
        let mut mono = MonotonicClock::new(slew);
        let mut last = f64::MIN;
        for raw in raws {
            let m = mono.observe(Timestamp::from_secs(raw)).as_secs();
            assert!(m >= last, "monotonic clock regressed: {m} < {last}");
            last = m;
        }
    });
}

/// The discipline's reading is monotone under sub-threshold
/// corrections, and pending corrections drain to zero given time.
#[test]
fn discipline_monotone_and_drains() {
    check("discipline_monotone_and_drains", 256, |g| {
        let rate = g.f64(1e-4..0.5);
        let corrections = g.vec(1..20, |g| g.f64(-0.05..0.05));
        let mut d = ClockDiscipline::new(DisciplineConfig {
            step_threshold: Duration::from_secs(10.0), // never step
            max_slew_rate: rate,
        });
        let mut t = 0.0;
        let mut last = d.read(Timestamp::ZERO).as_secs();
        for c in corrections {
            t += 1.0;
            match d.correct(Timestamp::from_secs(t), Duration::from_secs(c)) {
                Adjustment::Slewing { .. } => {}
                Adjustment::Stepped { .. } => panic!("threshold too low"),
            }
            let r = d.read(Timestamp::from_secs(t)).as_secs();
            assert!(r >= last - 1e-12, "discipline regressed");
            last = r;
        }
        // Let the slew drain fully: pending ≤ 20·0.05 = 1 s, at `rate`
        // per second.
        t += 1.0 / rate + 100.0;
        let _ = d.read(Timestamp::from_secs(t));
        assert!(d.pending().abs() < Duration::from_secs(1e-9));
    });
}

/// Same seed ⇒ same behaviour for every stochastic model.
#[test]
fn clocks_are_reproducible() {
    check("clocks_are_reproducible", 256, |g| {
        let model = drift_model(g);
        let seed = g.int(0u64..1000);
        let at = g.f64(1.0..500.0);
        let build = || SimClock::builder().drift(model.clone()).seed(seed).build();
        let mut a = build();
        let mut b = build();
        let now = Timestamp::from_secs(at);
        assert_eq!(a.read(now), b.read(now));
    });
}
