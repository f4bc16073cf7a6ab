//! Decimal number writers for the JSONL export: append to a byte
//! buffer exactly what `format!("{}")` would produce, without going
//! through `core::fmt`.
//!
//! The contract is byte-for-byte equality with Rust's `Display`:
//! integers in plain decimal, floats as the shortest decimal that
//! round-trips, never in exponent form (`1e21` is written out as 22
//! digits, `1e-7` as `0.0000001`). `tests/number_format.rs` holds the
//! writers to it over millions of seeded values.

use std::io::Write as _;

/// `"00" "01" … "99"`: two digits per table lookup.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Longest `u64` in decimal.
const U64_DIGITS: usize = 20;

/// Formats `value` right-aligned into `buf` and returns its digits.
fn u64_digits(buf: &mut [u8; U64_DIGITS], mut value: u64) -> &[u8] {
    let mut at = U64_DIGITS;
    while value >= 100 {
        let pair = (value % 100) as usize * 2;
        value /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if value >= 10 {
        let pair = value as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + value as u8;
    }
    &buf[at..]
}

/// Appends `value` in decimal, as `{}` formats it.
pub fn write_u64(out: &mut Vec<u8>, value: u64) {
    let mut buf = [0u8; U64_DIGITS];
    out.extend_from_slice(u64_digits(&mut buf, value));
}

/// Appends `value` as `{}` formats it: the shortest decimal that parses
/// back to the same bits, in positional notation. A non-finite value is
/// not a JSON number; it is a bug in the caller (asserted in debug
/// builds) and is written as `null`.
pub fn write_f64(out: &mut Vec<u8>, value: f64) {
    if !value.is_finite() {
        debug_assert!(false, "non-finite number {value} in a JSON record");
        out.extend_from_slice(b"null");
        return;
    }
    let bits = value.to_bits();
    let magnitude = bits & (u64::MAX >> 1);
    let Some((mut digits, mut exponent)) = shortest_decimal(magnitude) else {
        // Outside the fast path's certified range: let std format it.
        write!(out, "{value}").expect("writing to a Vec cannot fail");
        return;
    };
    if bits != magnitude {
        out.push(b'-');
    }
    while exponent < 0 && digits.is_multiple_of(10) {
        digits /= 10;
        exponent += 1;
    }
    let mut buf = [0u8; U64_DIGITS];
    let digits = u64_digits(&mut buf, digits);
    let zeros = |out: &mut Vec<u8>, count: usize| out.resize(out.len() + count, b'0');
    // The decimal point sits `point` digits into `digits`.
    let point = digits.len() as i32 + exponent;
    if exponent >= 0 {
        out.extend_from_slice(digits);
        zeros(out, exponent as usize);
    } else if point > 0 {
        let (whole, fraction) = digits.split_at(point as usize);
        out.extend_from_slice(whole);
        out.push(b'.');
        out.extend_from_slice(fraction);
    } else {
        out.extend_from_slice(b"0.");
        zeros(out, point.unsigned_abs() as usize);
        out.extend_from_slice(digits);
    }
}

/// `10^k` for `k` in `0..=55`, as `5^k` shifted up to fill 128 bits.
/// `5^55 < 2^128`, so every entry is exact: the products below carry no
/// table rounding error, and the shortest-digits search is certified
/// for exactly the values that need no other entry.
const POW10: [u128; 56] = {
    let mut table = [0u128; 56];
    let mut k = 0;
    let mut pow5 = 1u128;
    loop {
        table[k] = pow5 << pow5.leading_zeros();
        k += 1;
        if k == table.len() {
            break;
        }
        pow5 *= 5;
    }
    table
};

/// `floor(g · cp / 2^128)` with the low bit set when the division left
/// a remainder: round-to-odd keeps every comparison the digit search
/// makes on the truncated value faithful to the exact one.
fn round_to_odd(g: u128, cp: u64) -> u64 {
    let low = u128::from(g as u64) * u128::from(cp);
    let high = (g >> 64) * u128::from(cp) + (low >> 64);
    let inexact = high as u64 != 0 || low as u64 != 0;
    (high >> 64) as u64 | u64::from(inexact)
}

/// The shortest decimal `digits · 10^exponent` that rounds to the
/// positive double with bit pattern `bits` (Schubfach: Giulietti, "The
/// Schubfach way to render doubles", 2020), or `None` when the value
/// needs a power of ten outside [`POW10`] — below `2^-130` or above
/// `2^56`, subnormals included. `digits` may end in zeros, and is zero
/// for zero.
fn shortest_decimal(bits: u64) -> Option<(u64, i32)> {
    const FRACTION_BITS: u32 = 52;
    let fraction = bits & ((1 << FRACTION_BITS) - 1);
    let biased = (bits >> FRACTION_BITS) as i32;
    if biased == 0 {
        return (fraction == 0).then_some((0, 0));
    }
    // value = c · 2^q
    let c = fraction | 1 << FRACTION_BITS;
    let q = biased - 1075;
    if (-(FRACTION_BITS as i32)..=0).contains(&q) && c.trailing_zeros() >= q.unsigned_abs() {
        return Some((c >> -q, 0));
    }
    // At a power of two the gap below is half the gap above.
    let lower_is_closer = fraction == 0 && biased > 1;
    // k = floor(log10(2^q)), or of (3/4)·2^q when the lower gap is
    // the narrow one.
    let k = (q * 1_262_611 - if lower_is_closer { 524_031 } else { 0 }) >> 22;
    let g = *POW10.get(usize::try_from(-k).ok()?)?;
    // h = q + floor(log2(10^-k)) + 1, in 1..=4.
    let h = q + ((-k * 1_741_647) >> 19) + 1;
    // The value and the midpoints to its neighbours, times 4·10^-k.
    let cb = 4 * c;
    let vbl = round_to_odd(g, (cb - 2 + u64::from(lower_is_closer)) << h);
    let vb = round_to_odd(g, cb << h);
    let vbr = round_to_odd(g, (cb + 2) << h);
    // Round-to-even parsing accepts a midpoint only for an even c.
    let open = c & 1;
    let (lower, upper) = (vbl + open, vbr - open);

    let s = vb / 4;
    if s >= 10 {
        // One digit fewer: at most one multiple of ten lies inside.
        let sp = s / 10;
        let down_inside = lower <= 40 * sp;
        let up_inside = 40 * sp + 40 <= upper;
        if down_inside != up_inside {
            return Some((sp + u64::from(up_inside), k + 1));
        }
    }
    let down_inside = lower <= 4 * s;
    let up_inside = 4 * s + 4 <= upper;
    if down_inside != up_inside {
        return Some((s + u64::from(up_inside), k));
    }
    // Both neighbours qualify: take the closer, and on an exact tie the
    // upper, as std's shortest formatting does.
    Some((s + u64::from(vb >= 4 * s + 2), k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fast_path_covers_the_simulators_range() {
        for value in [0.0_f64, 1e-30, 1e-9, 0.02, 1.5, 60.0, 86_400.0, 1e15] {
            assert!(shortest_decimal(value.to_bits()).is_some(), "{value}");
        }
        for value in [5e-324_f64, f64::MIN_POSITIVE / 2.0, 1e-40, 1e17, f64::MAX] {
            assert!(shortest_decimal(value.to_bits()).is_none(), "{value}");
        }
    }

    #[test]
    fn non_finite_is_null_and_a_debug_assertion() {
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let written = std::panic::catch_unwind(|| {
                let mut out = Vec::new();
                write_f64(&mut out, value);
                out
            });
            if cfg!(debug_assertions) {
                assert!(written.is_err(), "{value} should trip the assertion");
            } else {
                assert_eq!(written.expect("no assertion in release"), b"null");
            }
        }
    }
}
