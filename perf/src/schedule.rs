//! The open-loop arrival schedule: log-normal inter-arrival gaps from a
//! seed, so bursts and lulls are heavy-tailed the way independent
//! callers are, and latency can be timed from when a request was *due*
//! rather than from when a stalled generator got round to sending it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape parameter of the gap distribution.
const SIGMA: f64 = 1.0;

/// One request of the schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Nanoseconds after the schedule's start at which it is due.
    pub due_ns: u64,
    /// Whether it goes to the sync actor's protocol port instead of the
    /// serving front.
    pub to_actor: bool,
}

/// `rate · seconds` arrivals over exactly `seconds`: the gaps are drawn
/// log-normal (σ = 1) and then scaled so they sum to the span, which
/// pins the offered load to `rate` for every seed while keeping the
/// bursts. One arrival in ten (drawn, not strided) goes to the actor.
pub fn lognormal(seed: u64, rate: f64, seconds: f64) -> Vec<Arrival> {
    let n = (rate * seconds).round() as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gaps = Vec::with_capacity(n);
    let mut total = 0.0;
    for _ in 0..n {
        // Box–Muller; 1 − u keeps the logarithm's argument in (0, 1].
        let u1: f64 = 1.0 - rng.random::<f64>();
        let u2: f64 = rng.random();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let gap = (SIGMA * z).exp();
        total += gap;
        gaps.push(gap);
    }
    let scale = seconds * 1e9 / total;
    let mut at = 0.0;
    gaps.into_iter()
        .map(|gap| {
            at += gap * scale;
            Arrival {
                due_ns: at as u64,
                to_actor: rng.random_bool(0.1),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_schedules_and_different_seeds_do_not() {
        let a = lognormal(5, 20_000.0, 1.0);
        assert_eq!(a, lognormal(5, 20_000.0, 1.0));
        assert_ne!(a, lognormal(6, 20_000.0, 1.0));
    }

    #[test]
    fn mean_rate_is_the_asked_rate() {
        let rate = 20_000.0;
        let arrivals = lognormal(11, rate, 2.0);
        let span_s = arrivals.last().unwrap().due_ns as f64 / 1e9;
        let measured = arrivals.len() as f64 / span_s;
        assert!(
            (measured / rate - 1.0).abs() < 0.01,
            "{measured} req/s against {rate}"
        );
        assert!(arrivals.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let to_actor = arrivals.iter().filter(|a| a.to_actor).count() as f64;
        let share = to_actor / arrivals.len() as f64;
        assert!(
            (share - 0.1).abs() < 0.01,
            "{share} of arrivals to the actor"
        );
    }

    #[test]
    fn gaps_are_heavy_tailed() {
        // A log-normal with σ = 1 has median e^{-1/2} ≈ 0.61 of its
        // mean: most gaps are short and a few are long.
        let arrivals = lognormal(3, 10_000.0, 2.0);
        let mut gaps: Vec<u64> = arrivals
            .windows(2)
            .map(|w| w[1].due_ns - w[0].due_ns)
            .collect();
        gaps.sort_unstable();
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        let median = gaps[gaps.len() / 2] as f64;
        assert!((0.5..0.7).contains(&(median / mean)), "{}", median / mean);
    }
}
