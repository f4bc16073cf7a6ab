//! Offline stand-in for the `rand` 0.9 API surface the tempo crates use.
//!
//! The sandbox has no registry, so `perf/Cargo.toml` patches `rand` to
//! this crate. It is *not* the published generator: `StdRng` here is
//! xoshiro256++ seeded through splitmix64, so simulated statistics
//! differ from a build against crates.io `rand` — but they are a pure
//! function of the seed, which is all the benchmark's *exact* counters
//! need. Only what the workspace calls is provided: `StdRng`,
//! `SeedableRng::seed_from_u64`, and `Rng::{random, random_range,
//! random_bool}` over the numeric types that appear at call sites.

use std::ops::{Range, RangeInclusive};

pub mod rngs {
    /// xoshiro256++ (Blackman & Vigna), public domain reference algorithm.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        pub(crate) s: [u64; 4],
    }
}

use rngs::StdRng;

/// Seeding, as far as the workspace uses it.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        // splitmix64 expands the seed; it never yields four zero words.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        StdRng {
            s: [next(), next(), next(), next()],
        }
    }
}

/// The raw word source.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types `Rng::random` can produce.
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    /// Uniform on `[0, 1)` with 53 random bits.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                // The high bits of xoshiro256++ are the strongest.
                (rng.next_u64() >> (64 - <$t>::BITS)) as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize);

/// Types `Rng::random_range` can draw uniformly.
pub trait SampleUniform: Sized {
    /// Uniform on `[lo, hi)` or, when `inclusive`, `[lo, hi]`.
    fn sample_between<R: RngCore + ?Sized>(lo: Self, hi: Self, inclusive: bool, rng: &mut R)
        -> Self;
}

impl SampleUniform for f64 {
    fn sample_between<R: RngCore + ?Sized>(lo: f64, hi: f64, inclusive: bool, rng: &mut R) -> f64 {
        assert!(
            if inclusive { lo <= hi } else { lo < hi },
            "empty range in random_range"
        );
        let u = f64::sample(rng);
        let x = lo + (hi - lo) * u;
        // Rounding can land exactly on `hi`; an exclusive range must not.
        if !inclusive && x >= hi {
            lo
        } else {
            x
        }
    }
}

macro_rules! uniform_int {
    ($($t:ty => $wide:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                lo: $t,
                hi: $t,
                inclusive: bool,
                rng: &mut R,
            ) -> $t {
                assert!(
                    if inclusive { lo <= hi } else { lo < hi },
                    "empty range in random_range"
                );
                let span = (hi as $wide - lo as $wide) as u128 + u128::from(inclusive);
                // 128-bit multiply-shift: bias below 2^-64 for any span
                // the workspace asks for.
                let pick = (u128::from(rng.next_u64()) * span) >> 64;
                (lo as $wide + pick as $wide) as $t
            }
        }
    )*};
}
uniform_int!(u8 => i128, u16 => i128, u32 => i128, u64 => i128, usize => i128,
             i32 => i128, i64 => i128);

/// Range forms accepted by `Rng::random_range`.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_between(lo, hi, true, rng)
    }
}

/// The user-facing sampling methods.
pub trait Rng: RngCore {
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability outside [0, 1]");
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_agree_and_different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.random()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.random()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.random()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_stay_inside_their_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let f: f64 = rng.random();
            assert!((0.0..1.0).contains(&f));
            assert!((-2.5..2.5).contains(&rng.random_range(-2.5..2.5)));
            assert!((3..=6usize).contains(&rng.random_range(3..=6usize)));
            assert!((0..10).contains(&rng.random_range(0..10)));
            assert!((-5..5i64).contains(&rng.random_range(-5..5i64)));
        }
    }

    #[test]
    fn inclusive_integer_ranges_reach_both_ends() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 3];
        for _ in 0..1_000 {
            seen[rng.random_range(0..=2usize)] = true;
        }
        assert_eq!(seen, [true; 3]);
    }
}
