//! Drift processes for simulated clocks.
//!
//! A drift model produces the clock's instantaneous *drift* — the
//! deviation of its rate from one second per second. A clock with drift
//! `d` advances `1 + d` clock-seconds per real second. The paper's
//! analysis only assumes `|d| ≤ δ` for a *claimed* bound `δ`; the models
//! here generate processes inside (or, for fault experiments,
//! deliberately outside) such an envelope.

use rand::Rng;

use tempo_core::Duration;

/// A drift-generating process.
///
/// Piecewise models hold the drift constant over a *quantum* of real
/// time and then resample; this matches the paper's treatment of drift
/// as the random variable "exhibited between two successive readings"
/// (Theorem 8).
#[derive(Debug, Clone, PartialEq)]
pub enum DriftModel {
    /// A constant drift: the clock runs steadily fast (`> 0`) or slow
    /// (`< 0`).
    Constant(f64),
    /// A bounded random walk: every `quantum` the drift moves by a
    /// normal step with standard deviation `sigma`, clamped to
    /// `[-bound, bound]`. Models ageing/temperature-wandering quartz.
    RandomWalk {
        /// Standard deviation of each step.
        sigma: f64,
        /// Hard clamp on the drift magnitude.
        bound: f64,
        /// Real-time interval between steps.
        quantum: Duration,
    },
    /// Independent uniform drift per quantum: each quantum the drift is
    /// drawn afresh from `[-bound, bound]` — the i.i.d. model of
    /// Theorem 8.
    UniformResample {
        /// Half-width of the uniform distribution.
        bound: f64,
        /// Real-time interval between redraws.
        quantum: Duration,
    },
}

impl DriftModel {
    /// A perfect clock (zero drift).
    #[must_use]
    pub fn perfect() -> Self {
        DriftModel::Constant(0.0)
    }

    /// The real-time quantum after which the drift must be re-evaluated,
    /// or `None` for constant drift.
    #[must_use]
    pub(crate) fn quantum(&self) -> Option<Duration> {
        match self {
            DriftModel::Constant(_) => None,
            DriftModel::RandomWalk { quantum, .. }
            | DriftModel::UniformResample { quantum, .. } => Some(*quantum),
        }
    }

    /// The largest drift magnitude this model can produce — useful for
    /// choosing an honest claimed bound `δ`.
    #[must_use]
    pub fn max_drift(&self) -> f64 {
        match self {
            DriftModel::Constant(d) => d.abs(),
            DriftModel::RandomWalk { bound, .. } | DriftModel::UniformResample { bound, .. } => {
                *bound
            }
        }
    }

    /// Evaluates the drift for the next quantum, given the previous
    /// drift value.
    pub(crate) fn sample<R: Rng>(&self, previous: f64, rng: &mut R) -> f64 {
        match self {
            DriftModel::Constant(d) => *d,
            DriftModel::RandomWalk { sigma, bound, .. } => {
                let step = normal_sample(rng) * sigma;
                (previous + step).clamp(-bound, *bound)
            }
            DriftModel::UniformResample { bound, .. } => {
                if *bound == 0.0 {
                    0.0
                } else {
                    rng.random_range(-bound..=*bound)
                }
            }
        }
    }

    /// The drift value a fresh clock starts with (before the first
    /// quantum boundary): a random walk starts from zero, the other
    /// models from their first sample.
    pub(crate) fn initial<R: Rng>(&self, rng: &mut R) -> f64 {
        match self {
            DriftModel::RandomWalk { .. } => 0.0,
            _ => self.sample(0.0, rng),
        }
    }
}

/// A standard-normal sample via the Box–Muller transform (avoids a
/// `rand_distr` dependency).
fn normal_sample<R: Rng>(rng: &mut R) -> f64 {
    // u1 in (0, 1] to keep ln finite.
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_has_no_quantum() {
        assert_eq!(DriftModel::Constant(1e-5).quantum(), None);
        assert_eq!(DriftModel::perfect().max_drift(), 0.0);
    }

    #[test]
    fn constant_always_samples_same_value() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = DriftModel::Constant(-3e-4);
        assert_eq!(m.initial(&mut rng), -3e-4);
        assert_eq!(m.sample(0.0, &mut rng), -3e-4);
        assert_eq!(m.max_drift(), 3e-4);
    }

    #[test]
    fn random_walk_stays_within_bound() {
        let mut rng = StdRng::seed_from_u64(42);
        let m = DriftModel::RandomWalk {
            sigma: 1e-5,
            bound: 5e-5,
            quantum: Duration::from_secs(1.0),
        };
        let mut drift = m.initial(&mut rng);
        for _ in 0..10_000 {
            drift = m.sample(drift, &mut rng);
            assert!(drift.abs() <= 5e-5, "drift {drift} escaped the clamp");
        }
        assert_eq!(m.max_drift(), 5e-5);
    }

    #[test]
    fn random_walk_actually_moves() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = DriftModel::RandomWalk {
            sigma: 1e-5,
            bound: 1e-3,
            quantum: Duration::from_secs(1.0),
        };
        let d0 = m.initial(&mut rng);
        let d1 = m.sample(d0, &mut rng);
        assert_ne!(d0, d1);
    }

    #[test]
    fn uniform_resample_within_bound_and_varies() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = DriftModel::UniformResample {
            bound: 1e-4,
            quantum: Duration::from_secs(10.0),
        };
        let mut values = Vec::new();
        for _ in 0..100 {
            let d = m.sample(0.0, &mut rng);
            assert!(d.abs() <= 1e-4);
            values.push(d);
        }
        values.dedup();
        assert!(values.len() > 90, "uniform resampling should rarely repeat");
    }

    #[test]
    fn uniform_resample_zero_bound_is_perfect() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = DriftModel::UniformResample {
            bound: 0.0,
            quantum: Duration::from_secs(1.0),
        };
        assert_eq!(m.initial(&mut rng), 0.0);
        assert_eq!(m.sample(0.0, &mut rng), 0.0);
    }

    #[test]
    fn normal_sampler_moments() {
        let mut rng = StdRng::seed_from_u64(99);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal_sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.1, "variance {var} too far from 1");
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let m = DriftModel::UniformResample {
            bound: 1e-4,
            quantum: Duration::from_secs(1.0),
        };
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            assert_eq!(m.sample(0.0, &mut a), m.sample(0.0, &mut b));
        }
    }
}
