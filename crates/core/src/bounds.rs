//! The paper's bound formulas as named functions.
//!
//! Every theorem in §3–§4 is an inequality between an observable quantity
//! and a closed-form bound. This module is the single home of those
//! right-hand sides: each function is the bound of exactly one rule or
//! theorem, named after it, so a checker can cite "Theorem 2" and mean
//! this code. The synchronisation rules call the rule bounds; the theorem
//! bounds have one caller each, a row of `tempo_oracle::rules`, and the
//! experiments print the margins the oracle measured against them.
//!
//! Conventions: `xi` (ξ) is the round-trip bound, `tau` (τ) the resync
//! period, `delta` (δ) a drift bound, `e_m` the maximum error `E_M` of
//! any correct server. All quantities are in the clock's second units.

use crate::time::{DriftRate, Duration};

/// Rule MM-2's adjusted error for a reply: `E_j + (1+δ_i)·ξ^i_j`.
///
/// This is both the adoption predicate's left-hand side (adopt iff it is
/// `≤ E_i`) and the error the adopter inherits on reset.
#[must_use]
pub fn mm2_adjusted_error(
    reply_error: Duration,
    round_trip: Duration,
    delta: DriftRate,
) -> Duration {
    reply_error + round_trip * delta.inflation()
}

/// Rule IM-2's leading-edge allowance: `(1+δ_i)·ξ^i_j`.
///
/// Only the leading edge of a transformed reply interval is widened by
/// this much — while the reply was in flight, real time can only have
/// advanced.
#[must_use]
pub fn im2_leading_allowance(round_trip: Duration, delta: DriftRate) -> Duration {
    round_trip * delta.inflation()
}

/// Theorem 2 (`E_i ≤ E_M + ξ + δ_i(τ + 2ξ)`) as a gap above `E_M`:
/// `E_i − E_M ≤ ξ + δ_i(τ + 2ξ) + 2δ_iξ`.
///
/// The trailing `2δ_iξ` reinstates the slack the paper's proof drops as
/// second-order; the oracle checks against the honest (larger) form.
#[must_use]
pub fn thm2_gap_bound(xi: Duration, tau: Duration, delta: DriftRate) -> Duration {
    xi + (tau + xi + xi) * delta + (xi + xi) * delta
}

/// Theorem 3: pairwise asynchronism bound for MM,
/// `|C_i − C_j| ≤ 2E_M + 2ξ + (δ_i+δ_j)(τ + 2ξ) + 2(δ_i+δ_j)ξ`.
///
/// As with [`thm2_gap_bound`], the final term reinstates the proof's
/// dropped second-order slack.
#[must_use]
pub fn thm3_asynchronism_bound(
    e_m: Duration,
    xi: Duration,
    tau: Duration,
    delta_i: DriftRate,
    delta_j: DriftRate,
) -> Duration {
    // δ_i + δ_j can reach 2, outside DriftRate's domain — stay in f64.
    let delta_sum = delta_i.as_f64() + delta_j.as_f64();
    let span = tau + xi + xi;
    e_m + e_m
        + xi
        + xi
        + Duration::from_secs(span.as_secs() * delta_sum)
        + Duration::from_secs(2.0 * xi.as_secs() * delta_sum)
}

/// Theorem 7: pairwise asynchronism bound for IM,
/// `|C_i − C_j| ≤ ξ + (δ_i+δ_j)·τ`.
///
/// `tau` here is the *effective* inter-reset spacing: callers modelling a
/// protocol whose resets are not simultaneous should pass the worst-case
/// spacing (period plus jitter plus collection window) rather than the
/// nominal period.
#[must_use]
pub fn thm7_asynchronism_bound(
    xi: Duration,
    tau: Duration,
    delta_i: DriftRate,
    delta_j: DriftRate,
) -> Duration {
    let delta_sum = delta_i.as_f64() + delta_j.as_f64();
    xi + Duration::from_secs(tau.as_secs() * delta_sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dur(s: f64) -> Duration {
        Duration::from_secs(s)
    }

    #[test]
    fn mm2_adjusted_error_matches_rule() {
        // E_j + (1+δ)ξ = 0.3 + 1.01·0.1
        let adj = mm2_adjusted_error(dur(0.3), dur(0.1), DriftRate::new(0.01));
        assert!((adj.as_secs() - 0.401).abs() < 1e-12);
    }

    #[test]
    fn im2_allowance_matches_rule() {
        let a = im2_leading_allowance(dur(2.0), DriftRate::new(0.5));
        assert_eq!(a, dur(3.0));
    }

    #[test]
    fn thm2_gap_is_theorem_2_plus_the_dropped_slack() {
        let gap = thm2_gap_bound(dur(0.01), dur(10.0), DriftRate::new(1e-4)).as_secs();
        // ξ + δ(τ + 2ξ), then the proof's second-order 2δξ.
        let expect = 0.01 + 1e-4 * (10.0 + 0.02) + 2.0 * 1e-4 * 0.01;
        assert!((gap - expect).abs() < 1e-12);
    }

    #[test]
    fn thm3_bound_reduces_to_expected_closed_form() {
        let (e_m, xi, tau, d) = (dur(0.1), dur(0.01), dur(10.0), DriftRate::new(1e-4));
        let b = thm3_asynchronism_bound(e_m, xi, tau, d, d).as_secs();
        let expect = 2.0 * 0.1 + 2.0 * 0.01 + 2.0 * 1e-4 * (10.0 + 0.02) + 4.0 * 1e-4 * 0.01;
        assert!((b - expect).abs() < 1e-12);
    }

    #[test]
    fn thm7_bound_reduces_to_expected_closed_form() {
        let b = thm7_asynchronism_bound(
            dur(0.01),
            dur(11.0),
            DriftRate::new(1e-4),
            DriftRate::new(2e-4),
        );
        assert!((b.as_secs() - (0.01 + 3e-4 * 11.0)).abs() < 1e-12);
    }
}
