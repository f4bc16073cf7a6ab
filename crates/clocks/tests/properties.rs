//! Property tests for the clock substrate: every drift model honours
//! its envelope, and the monotonic adapter never goes backward.

use tempo_check::{check, Gen};

use tempo_clocks::{DriftModel, MonotonicClock, SimClock};
use tempo_core::{Duration, Timestamp};

fn drift_model(g: &mut Gen) -> DriftModel {
    match g.int(0..3u8) {
        0 => DriftModel::Constant(g.f64(-1e-3..1e-3)),
        1 => DriftModel::RandomWalk {
            sigma: g.f64(1e-6..1e-4),
            bound: g.f64(1e-5..1e-3),
            quantum: Duration::from_secs(g.f64(1.0..50.0)),
        },
        _ => DriftModel::UniformResample {
            bound: g.f64(1e-6..1e-3),
            quantum: Duration::from_secs(g.f64(1.0..50.0)),
        },
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
