//! Seeded property checking for the workspace's tests.
//!
//! [`check`] runs a property on `cases` inputs drawn through a [`Gen`].
//! Each case has its own seed, derived from the property's name and the
//! case index, so a property's inputs depend neither on which other tests
//! exist nor on the order they run in. A case that panics is run again
//! from the same seed at half the size for as long as it still panics —
//! size scales every number toward zero (toward the start of a range
//! that does not hold zero) and so every length toward its minimum — and
//! the final panic names the seed and size [`replay`] reproduces it from.

use std::ops::{Bound, Range, RangeBounds};
use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The size every case of [`check`] starts at: ranges are drawn in full.
pub const FULL_SIZE: u32 = 256;

/// The source of a case's inputs.
pub struct Gen {
    rng: StdRng,
    size: u32,
}

impl Gen {
    fn new(seed: u64, size: u32) -> Self {
        Gen {
            rng: StdRng::seed_from_u64(seed),
            size,
        }
    }

    /// Uniform over `a..b` or `a..=b`, for integer types of at most 64 bits.
    pub fn int<T>(&mut self, range: impl RangeBounds<T>) -> T
    where
        T: Copy + TryFrom<i128> + TryInto<i128>,
    {
        let wide = |x: T| x.try_into().ok().expect("fits i128");
        let (lo, hi) = match (range.start_bound(), range.end_bound()) {
            (Bound::Included(&lo), Bound::Included(&hi)) => (wide(lo), wide(hi)),
            (Bound::Included(&lo), Bound::Excluded(&hi)) => (wide(lo), wide(hi) - 1),
            _ => panic!("int draws from a..b or a..=b"),
        };
        assert!(lo <= hi && hi - lo < 1 << 64, "empty or over-wide range");
        let span = (hi - lo) as u128 + 1;
        let x = lo + ((u128::from(self.rng.random::<u64>()) * span) >> 64) as i128;
        let origin = if lo <= 0 && 0 <= hi { 0 } else { lo };
        let scaled = origin + (x - origin) * i128::from(self.size) / i128::from(FULL_SIZE);
        T::try_from(scaled).ok().expect("between lo and hi")
    }

    /// Uniform over `[start, end)`.
    pub fn f64(&mut self, range: Range<f64>) -> f64 {
        let origin = if range.contains(&0.0) {
            0.0
        } else {
            range.start
        };
        let x = self.rng.random_range(range);
        origin + (x - origin) * (f64::from(self.size) / f64::from(FULL_SIZE))
    }

    pub fn bool(&mut self) -> bool {
        self.int(0..=1u8) == 1
    }

    /// Any `u64`.
    pub fn u64(&mut self) -> u64 {
        self.int(0..=u64::MAX)
    }

    /// A vector whose length is drawn from `len`, each item from `item`.
    pub fn vec<T>(
        &mut self,
        len: impl RangeBounds<usize>,
        mut item: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.int(len);
        (0..n).map(|_| item(self)).collect()
    }

    /// Arbitrary bytes, their number drawn from `len`.
    pub fn bytes(&mut self, len: impl RangeBounds<usize>) -> Vec<u8> {
        self.vec(len, |g| g.int(0..=u8::MAX))
    }

    /// One of `items`, uniformly.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.int(0..items.len())]
    }
}

/// Runs `property` once from `seed` at `size`; its panic message if it panics.
fn failure(seed: u64, size: u32, property: &impl Fn(&mut Gen)) -> Option<String> {
    let mut g = Gen::new(seed, size);
    let payload = catch_unwind(AssertUnwindSafe(|| property(&mut g))).err()?;
    let text = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied());
    Some(text.unwrap_or("(panic payload is not a string)").to_owned())
}

/// Checks `property` on `cases` seeded inputs; panics on the first that
/// fails, after shrinking it, with what [`replay`] needs to reproduce it.
pub fn check(name: &str, cases: u32, property: impl Fn(&mut Gen)) {
    // FNV-1a over the name; the case index strides by the golden ratio.
    let base = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    for case in 0..cases {
        let seed = base ^ u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let Some(mut message) = failure(seed, FULL_SIZE, &property) else {
            continue;
        };
        let mut size = FULL_SIZE;
        while size > 0 {
            let Some(smaller) = failure(seed, size / 2, &property) else {
                break;
            };
            message = smaller;
            size /= 2;
        }
        panic!(
            "property '{name}' failed at seed {seed:#018x}, size {size} \
             (reproduce: tempo_check::replay({seed:#018x}, {size}, ..)): {message}"
        );
    }
}

/// Runs `property` once on the input [`check`] reported failing.
pub fn replay(seed: u64, size: u32, property: impl FnOnce(&mut Gen)) {
    property(&mut Gen::new(seed, size));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fails on any long-enough vector with a large-enough sum, so it
    /// fails at full size and stops failing somewhere on the way down.
    fn broken(g: &mut Gen) {
        let v = g.vec(0..=40, |g| g.int(0..1000u32));
        assert!(v.iter().sum::<u32>() < 300, "sum of {v:?} too large");
    }

    fn panic_text(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
        payload.downcast_ref::<String>().expect("formatted").clone()
    }

    #[test]
    fn broken_property_is_caught_shrunk_and_replayable_from_the_printed_seed() {
        let text = panic_text(|| check("broken", 256, broken));
        assert!(text.starts_with("property 'broken' failed at seed 0x"));
        assert!(text.contains("too large"), "inner message kept: {text}");
        let field = |key: &str| {
            let rest = &text[text.find(key).expect(key) + key.len()..];
            rest[..rest.find([',', ' ']).unwrap()].to_owned()
        };
        let seed = u64::from_str_radix(&field("seed 0x"), 16).unwrap();
        let size: u32 = field("size ").parse().unwrap();
        assert!(size < FULL_SIZE, "shrunk below full size, got {size}");
        assert!(size > 0, "size 0 draws the empty vector, which passes");
        // The printed pair reproduces the failure; one halving more passes.
        assert!(panic_text(|| replay(seed, size, broken)).contains("too large"));
        replay(seed, size / 2, broken);
    }

    #[test]
    fn passing_property_runs_every_case_on_distinct_reproducible_inputs() {
        let draws = std::cell::RefCell::new(Vec::new());
        check("p", 64, |g| draws.borrow_mut().push(g.u64()));
        let first = draws.take();
        check("p", 64, |g| draws.borrow_mut().push(g.u64()));
        assert_eq!(first, draws.take(), "same name, same inputs");
        let mut distinct = first.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 64);
        check("q", 64, |g| draws.borrow_mut().push(g.u64()));
        assert_ne!(first, draws.take(), "another name, other inputs");
    }

    #[test]
    fn full_size_draws_cover_their_ranges_and_size_zero_draws_the_origin() {
        let mut g = Gen::new(1, FULL_SIZE);
        let (mut lo, mut hi, mut bytes) = (false, false, [false; 256]);
        for _ in 0..20_000 {
            let x = g.int(-3..=3i64);
            assert!((-3..=3).contains(&x));
            lo |= x == -3;
            hi |= x == 3;
            assert!((2.0..5.0).contains(&g.f64(2.0..5.0)));
            assert!((1..6).contains(&g.vec(1..6, Gen::bool).len()));
            bytes[usize::from(g.int(0..=u8::MAX))] = true;
            assert!([7, 8, 9].contains(g.pick(&[7, 8, 9])));
        }
        assert!(lo && hi && bytes.iter().all(|&b| b));
        assert!((0..100).any(|_| g.u64() > u64::MAX / 2));
        let mut g = Gen::new(1, 0);
        assert_eq!(g.int(-3..=3i64), 0);
        assert_eq!(g.int(5..9u32), 5);
        assert_eq!(g.f64(-1.0..1.0), 0.0);
        assert_eq!(g.f64(2.0..5.0), 2.0);
        assert_eq!(g.bytes(3..=3), [0, 0, 0]);
    }
}
