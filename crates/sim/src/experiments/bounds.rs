//! Theorem-bound experiments: E5 (Theorem 2), E6 (Theorem 3), E8
//! (Theorem 7) and the nonzero-minimum-delay ablation A3.

use std::fmt;

use tempo_core::bounds::{thm2_gap_bound, thm3_asynchronism_bound, thm7_asynchronism_bound};
use tempo_core::{DriftRate, Duration, Timestamp};
use tempo_net::DelayModel;
use tempo_service::Strategy;

use super::Verdict;
use crate::report::{secs, Table};
use crate::scenario::{Scenario, ServerSpec};

/// One configuration of the bound sweep and what it measured.
#[derive(Debug, Clone, Copy)]
pub struct BoundRow {
    /// Number of servers.
    pub n: usize,
    /// Claimed drift bound (identical across servers).
    pub delta: f64,
    /// Resync period `τ` (seconds).
    pub tau: f64,
    /// Round-trip bound `ξ` (seconds).
    pub xi: f64,
    /// Empirical round-trip witness: twice the worst one-way delay
    /// the network delivered. `ξ` is honest iff `xi_witness ≤ xi`.
    pub xi_witness: f64,
    /// Largest observed `E_i − E_M` after warm-up.
    pub observed_gap: f64,
    /// Theorem 2's bound `ξ + δ(τ + 2ξ)` (plus the `2δξ` slack the
    /// proof drops).
    pub gap_bound: f64,
    /// Largest observed asynchronism after warm-up.
    pub observed_asynch: f64,
    /// Theorem 3's bound at the worst sample:
    /// `2·E_M + 2ξ + 2δ(τ + 2ξ)`.
    pub asynch_bound: f64,
    /// Correctness violations over the whole run (theorems promise 0).
    pub violations: usize,
}

impl BoundRow {
    /// Whether both observed quantities respect their bounds and the
    /// claimed `ξ` really covered every round trip.
    #[must_use]
    pub fn within_bounds(&self) -> bool {
        self.observed_gap <= self.gap_bound
            && self.observed_asynch <= self.asynch_bound
            && self.xi_witness <= self.xi
            && self.violations == 0
    }
}

/// Results of E5+E6: the MM bound sweep.
#[derive(Debug, Clone)]
pub struct MmBounds {
    /// One row per configuration.
    pub rows: Vec<BoundRow>,
}

/// Runs one MM configuration and measures the Theorem 2/3 quantities.
fn run_mm_config(n: usize, delta: f64, tau: f64, max_delay: f64, seed: u64) -> BoundRow {
    let duration = Duration::from_secs(tau * 30.0);
    let warmup = Timestamp::from_secs(tau * 3.0);
    // Actual drifts alternate around ±delta/2 so clocks genuinely
    // separate.
    let mut scenario = Scenario::new(Strategy::Mm)
        .delay(DelayModel::Uniform {
            min: Duration::ZERO,
            max: Duration::from_secs(max_delay),
        })
        .resync_period(Duration::from_secs(tau))
        .collect_window(Duration::from_secs((max_delay * 4.0).min(tau / 2.0)))
        .duration(duration)
        .sample_interval(Duration::from_secs(tau / 10.0))
        .seed(seed);
    for i in 0..n {
        let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
        let drift = sign * delta * 0.5 * (1.0 + i as f64 / n as f64).min(1.0);
        scenario = scenario.server(ServerSpec::honest(drift, delta));
    }
    let result = scenario.run();

    let xi = 2.0 * max_delay;
    let d = DriftRate::new(delta);
    let observed_gap = result.max_error_gap_after(warmup).as_secs();
    // Theorem 2 bound with the proof's dropped 2δξ slack reinstated.
    let gap_bound = thm2_gap_bound(Duration::from_secs(xi), Duration::from_secs(tau), d).as_secs();

    // Theorem 3 is per-instant (it references E_M(t)); check the worst
    // margin over the post-warm-up samples.
    let mut observed_asynch: f64 = 0.0;
    let mut asynch_bound: f64 = 0.0;
    for row in result.samples.iter().filter(|r| r.t >= warmup) {
        let a = row.asynchronism().as_secs();
        if a >= observed_asynch {
            observed_asynch = a;
            asynch_bound = thm3_asynchronism_bound(
                row.min_error(),
                Duration::from_secs(xi),
                Duration::from_secs(tau),
                d,
                d,
            )
            .as_secs();
        }
    }

    BoundRow {
        n,
        delta,
        tau,
        xi,
        xi_witness: result.xi_witness.as_secs(),
        observed_gap,
        gap_bound,
        observed_asynch,
        asynch_bound,
        violations: result.correctness_violations(),
    }
}

/// Runs E5+E6 across the default sweep.
#[must_use]
pub fn mm_bounds() -> MmBounds {
    let mut rows = Vec::new();
    for (n, delta, tau, max_delay, seed) in [
        (3, 1e-4, 10.0, 0.005, 1),
        (5, 1e-4, 10.0, 0.005, 2),
        (8, 1e-4, 10.0, 0.005, 3),
        (5, 1e-3, 10.0, 0.005, 4),
        (5, 1e-4, 30.0, 0.005, 5),
        (5, 1e-4, 10.0, 0.020, 6),
    ] {
        rows.push(run_mm_config(n, delta, tau, max_delay, seed));
    }
    MmBounds { rows }
}

impl Verdict for MmBounds {
    /// Every configuration stays within both theorems' bounds.
    fn reproduces_shape(&self) -> bool {
        !self.rows.is_empty() && self.rows.iter().all(BoundRow::within_bounds)
    }
}

impl fmt::Display for MmBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Theorems 2 & 3 — MM error gap and asynchronism vs bounds"
        )?;
        let mut table = Table::new(vec![
            "n",
            "delta",
            "tau",
            "xi",
            "xi wit",
            "gap",
            "gap bound",
            "asynch",
            "asynch bound",
            "viol",
            "holds",
        ]);
        for r in &self.rows {
            table.row(vec![
                r.n.to_string(),
                format!("{:.0e}", r.delta),
                format!("{:.0}s", r.tau),
                secs(r.xi),
                secs(r.xi_witness),
                secs(r.observed_gap),
                secs(r.gap_bound),
                secs(r.observed_asynch),
                secs(r.asynch_bound),
                r.violations.to_string(),
                r.within_bounds().to_string(),
            ]);
        }
        write!(f, "{table}")
    }
}

/// One row of the IM asynchronism sweep (Theorem 7) or the min-delay
/// ablation (A3).
#[derive(Debug, Clone, Copy)]
pub struct ImAsynchRow {
    /// Number of servers.
    pub n: usize,
    /// Claimed drift bound.
    pub delta: f64,
    /// Resync period `τ`.
    pub tau: f64,
    /// Minimum one-way delay (A3 varies this).
    pub min_delay: f64,
    /// Round-trip bound `ξ`.
    pub xi: f64,
    /// Empirical round-trip witness: twice the worst one-way delay
    /// the network delivered.
    pub xi_witness: f64,
    /// Largest observed asynchronism after warm-up.
    pub observed: f64,
    /// Theorem 7's bound `ξ + 2δτ` plus the round-window allowance
    /// (servers reset at most one collect-window apart, during which
    /// clocks drift).
    pub bound: f64,
    /// Correctness violations.
    pub violations: usize,
}

impl ImAsynchRow {
    /// Whether the observation respects the bound and the claimed `ξ`
    /// really covered every round trip.
    #[must_use]
    pub fn within_bounds(&self) -> bool {
        self.observed <= self.bound && self.xi_witness <= self.xi && self.violations == 0
    }
}

/// Results of E8 / A3.
#[derive(Debug, Clone)]
pub struct ImBounds {
    /// One row per configuration.
    pub rows: Vec<ImAsynchRow>,
}

fn run_im_config(
    n: usize,
    delta: f64,
    tau: f64,
    min_delay: f64,
    max_delay: f64,
    seed: u64,
) -> ImAsynchRow {
    let window = (max_delay * 4.0).min(tau / 2.0);
    let duration = Duration::from_secs(tau * 30.0);
    let warmup = Timestamp::from_secs(tau * 3.0);
    let mut scenario = Scenario::new(Strategy::Im)
        .delay(DelayModel::Uniform {
            min: Duration::from_secs(min_delay),
            max: Duration::from_secs(max_delay),
        })
        .resync_period(Duration::from_secs(tau))
        .collect_window(Duration::from_secs(window))
        .duration(duration)
        .sample_interval(Duration::from_secs(tau / 10.0))
        .seed(seed);
    for i in 0..n {
        let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
        scenario = scenario.server(ServerSpec::honest(sign * delta * 0.8, delta));
    }
    let result = scenario.run();
    let xi = 2.0 * max_delay;
    // Theorem 7 assumes simultaneous resets; in the protocol, resets are
    // up to (τ·(1+jitter) + window) apart, during which two clocks can
    // separate at 2δ, and the reset itself can land anywhere in an extra
    // ξ of one-way skew. Using the full period keeps the bound honest.
    let d = DriftRate::new(delta);
    let bound = thm7_asynchronism_bound(
        Duration::from_secs(xi),
        Duration::from_secs(tau * 1.1 + window),
        d,
        d,
    )
    .as_secs()
        + xi;
    ImAsynchRow {
        n,
        delta,
        tau,
        min_delay,
        xi,
        xi_witness: result.xi_witness.as_secs(),
        observed: result.max_asynchronism_after(warmup).as_secs(),
        bound,
        violations: result.correctness_violations(),
    }
}

/// Runs E8: the Theorem 7 sweep with zero minimum delay.
#[must_use]
pub fn im_bounds() -> ImBounds {
    let mut rows = Vec::new();
    for (n, delta, tau, max_delay, seed) in [
        (3, 1e-4, 10.0, 0.005, 11),
        (5, 1e-4, 10.0, 0.005, 12),
        (8, 1e-4, 10.0, 0.005, 13),
        (5, 1e-3, 10.0, 0.005, 14),
        (5, 1e-4, 30.0, 0.005, 15),
    ] {
        rows.push(run_im_config(n, delta, tau, 0.0, max_delay, seed));
    }
    ImBounds { rows }
}

/// Runs A3: the same service with increasing minimum one-way delay —
/// the extension the paper notes the algorithms "can easily" absorb.
#[must_use]
pub fn min_delay_ablation() -> ImBounds {
    let mut rows = Vec::new();
    for (min_delay, seed) in [(0.0, 21), (0.002, 22), (0.004, 23)] {
        rows.push(run_im_config(5, 1e-4, 10.0, min_delay, 0.005, seed));
    }
    ImBounds { rows }
}

impl Verdict for ImBounds {
    /// Every configuration stays within Theorem 7's bound.
    fn reproduces_shape(&self) -> bool {
        !self.rows.is_empty() && self.rows.iter().all(ImAsynchRow::within_bounds)
    }
}

impl fmt::Display for ImBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Theorem 7 — IM asynchronism vs bound")?;
        let mut table = Table::new(vec![
            "n", "delta", "tau", "min d", "xi", "xi wit", "observed", "bound", "viol", "holds",
        ]);
        for r in &self.rows {
            table.row(vec![
                r.n.to_string(),
                format!("{:.0e}", r.delta),
                format!("{:.0}s", r.tau),
                secs(r.min_delay),
                secs(r.xi),
                secs(r.xi_witness),
                secs(r.observed),
                secs(r.bound),
                r.violations.to_string(),
                r.within_bounds().to_string(),
            ]);
        }
        write!(f, "{table}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm_bound_holds_for_a_small_config() {
        let row = run_mm_config(4, 1e-4, 10.0, 0.005, 99);
        assert_eq!(row.violations, 0, "MM must preserve correctness");
        assert!(
            row.observed_gap <= row.gap_bound,
            "gap {} exceeded bound {}",
            row.observed_gap,
            row.gap_bound
        );
        assert!(
            row.observed_asynch <= row.asynch_bound,
            "asynch {} exceeded bound {}",
            row.observed_asynch,
            row.asynch_bound
        );
        assert!(
            row.xi_witness > 0.0 && row.xi_witness <= row.xi,
            "witness {} outside (0, {}]",
            row.xi_witness,
            row.xi
        );
        assert!(row.within_bounds());
    }

    #[test]
    fn im_bound_holds_for_a_small_config() {
        let row = run_im_config(4, 1e-4, 10.0, 0.0, 0.005, 98);
        assert_eq!(row.violations, 0, "IM must preserve correctness");
        assert!(
            row.observed <= row.bound,
            "asynch {} exceeded bound {}",
            row.observed,
            row.bound
        );
        assert!(
            row.xi_witness > 0.0 && row.xi_witness <= row.xi,
            "witness {} outside (0, {}]",
            row.xi_witness,
            row.xi
        );
    }

    #[test]
    fn nonzero_min_delay_still_correct() {
        let row = run_im_config(4, 1e-4, 10.0, 0.003, 0.005, 97);
        assert_eq!(row.violations, 0);
        assert!(
            row.xi_witness >= 2.0 * row.min_delay,
            "witness must see the delay floor"
        );
        assert!(row.within_bounds());
    }

    #[test]
    fn displays_render() {
        let rows = ImBounds {
            rows: vec![run_im_config(3, 1e-4, 10.0, 0.0, 0.005, 96)],
        };
        assert!(rows.to_string().contains("Theorem 7"));
    }
}
