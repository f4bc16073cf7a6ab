//! Differential test of the in-tree number writers against
//! `format!("{}")`: the JSONL export is byte-identical to what
//! `core::fmt` would have written only if every value is.
//!
//! No external crate: the generator is an inline splitmix64, so the
//! file also runs from a throw-away manifest that path-depends on
//! `crates/telemetry`.

use std::fmt::Write as _;

use tempo_telemetry::num::{write_f64, write_u64};

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// Compares the writer with `{}` on one value after another, reusing
/// its buffers.
#[derive(Default)]
struct Differ {
    ours: Vec<u8>,
    std: String,
    checked: u64,
}

impl Differ {
    fn f64(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.ours.clear();
        write_f64(&mut self.ours, value);
        self.std.clear();
        write!(self.std, "{value}").expect("writing to a String");
        assert_eq!(
            std::str::from_utf8(&self.ours),
            Ok(self.std.as_str()),
            "bits {:#018x}",
            value.to_bits()
        );
        self.checked += 1;
    }

    /// The value, its two neighbours and their negations.
    fn f64_around(&mut self, value: f64) {
        let bits = value.to_bits();
        for bits in [bits.saturating_sub(1), bits, bits + 1] {
            self.f64(f64::from_bits(bits));
            self.f64(-f64::from_bits(bits));
        }
    }

    fn u64(&mut self, value: u64) {
        self.ours.clear();
        write_u64(&mut self.ours, value);
        assert_eq!(self.ours, value.to_string().as_bytes());
        self.checked += 1;
    }
}

#[test]
fn floats_by_bit_pattern() {
    let mut rng = SplitMix64(0x5EED_0001);
    let mut differ = Differ::default();
    // Anything at all: mostly outside the fast path, so this holds the
    // hand-over to std to the same bytes.
    for _ in 0..500_000 {
        differ.f64(f64::from_bits(rng.next()));
    }
    // Every exponent the fast path accepts, and a margin either side.
    for _ in 0..2_000_000 {
        let exponent = 880 + rng.below(212);
        let sign = rng.next() & (1 << 63);
        let fraction = match rng.below(8) {
            // Short fractions end in long runs of zero digits.
            0 => rng.next() << rng.below(52),
            _ => rng.next(),
        } & ((1 << 52) - 1);
        differ.f64(f64::from_bits(sign | exponent << 52 | fraction));
    }
    assert!(differ.checked > 2_400_000);
}

#[test]
fn floats_in_the_simulators_shapes() {
    let mut rng = SplitMix64(0x5EED_0002);
    let mut differ = Differ::default();
    // Event times: whole nanoseconds, as seconds.
    for _ in 0..700_000 {
        differ.f64(rng.below(3_600_000_000_000) as f64 * 1e-9);
    }
    // Configured quantities: a few significant digits.
    for _ in 0..300_000 {
        let digits = rng.below(10_000) as f64;
        let scale = [1e-9, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0][rng.below(9) as usize];
        differ.f64(digits * scale);
        differ.f64(-(digits / 1000.0) * scale);
    }
    // Clock readings and error bounds: a time plus a delay, a drifting
    // clock's running sum, the offsets between them.
    let mut clock = 0.0_f64;
    let mut error = 0.004_f64;
    for _ in 0..500_000 {
        let t = rng.unit() * 86_400.0;
        let delay = rng.unit() * 0.02;
        let drift = (rng.unit() - 0.5) * 2e-4;
        differ.f64(t + delay);
        clock += delay * (1.0 + drift);
        error += delay * drift.abs();
        differ.f64(clock);
        differ.f64(error);
        differ.f64(clock - (t + delay));
        differ.f64((t + delay) * (1.0 + drift) - t);
        if clock > 86_400.0 {
            clock = 0.0;
            error = 0.004;
        }
    }
    assert!(differ.checked >= 3_800_000);
}

#[test]
fn float_edge_cases() {
    let mut differ = Differ::default();
    for value in [0.0, f64::MIN_POSITIVE, f64::MAX, f64::EPSILON, 5e-324] {
        differ.f64_around(value);
    }
    // Where other formatters switch to exponent form; `{}` never does.
    for value in [1e-7, 1e-5, 1e16, 1e17, 1e21, 9_007_199_254_740_992.0] {
        differ.f64_around(value);
    }
    // Every power of two, subnormals included: the one place the gap
    // below a double is half the gap above.
    for exponent in -1074..=1023 {
        differ.f64_around(2.0_f64.powi(exponent));
    }
    // Every power of ten, through the parser so each is correctly
    // rounded.
    for exponent in -323..=308 {
        let value: f64 = format!("1e{exponent}").parse().expect("a double");
        differ.f64_around(value);
        differ.f64_around(value * 5.0);
    }
    // Integers of every width a double holds exactly, and halves.
    let mut integer = 1u64;
    while integer < 1 << 53 {
        for value in [integer - 1, integer, integer + 1] {
            differ.f64(value as f64);
            differ.f64(value as f64 + 0.5);
        }
        integer = integer * 10 - integer / 3;
    }
    assert!(differ.checked > 20_000);
}

#[test]
fn integers_of_every_width() {
    let mut rng = SplitMix64(0x5EED_0003);
    let mut differ = Differ::default();
    differ.u64(0);
    differ.u64(u64::MAX);
    let mut power = 1u64;
    for _ in 0..20 {
        for value in [power - 1, power, power + 1] {
            differ.u64(value);
        }
        power = power.wrapping_mul(10);
    }
    for bits in 1..=64 {
        for _ in 0..10_000 {
            differ.u64(rng.next() >> (64 - bits));
        }
    }
}
