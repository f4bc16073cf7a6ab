//! Theorem-bound experiments: E5 (Theorem 2), E6 (Theorem 3), E8
//! (Theorem 7) and the nonzero-minimum-delay ablation A3.
//!
//! Every configuration runs with the oracle armed with the scenario's
//! [`envelope`](Scenario::envelope), and its row reports the tightest
//! margin the oracle's rows measured. Each bound is computed once, in
//! `tempo_oracle::rules`; nothing here derives one.

use std::fmt;

use tempo_core::Duration;
use tempo_net::DelayModel;
use tempo_oracle::rules::Margin;
use tempo_oracle::{EnvelopeKind, OracleConfig, TheoremId};
use tempo_service::Strategy;

use super::Verdict;
use crate::report::{secs, Table};
use crate::scenario::{Scenario, ServerSpec};

/// One configuration of a bound sweep and the margins the oracle
/// measured on it.
#[derive(Debug, Clone, Copy)]
pub struct BoundRow {
    /// Number of servers.
    pub n: usize,
    /// Claimed drift bound (identical across servers).
    pub delta: f64,
    /// Resync period `τ` (seconds).
    pub tau: f64,
    /// Minimum one-way delay (A3 varies this).
    pub min_delay: f64,
    /// Round-trip bound `ξ` (seconds).
    pub xi: f64,
    /// Empirical round-trip witness: twice the worst one-way delay
    /// the network delivered. `ξ` is honest iff `xi_witness ≤ xi`.
    pub xi_witness: f64,
    /// Theorem 2's tightest E-gap margin (MM only).
    pub gap: Option<Margin>,
    /// The tightest pairwise-skew margin: Theorem 3's under MM,
    /// Theorem 7's under IM.
    pub asynch: Margin,
    /// Oracle violations over the whole run, every armed predicate
    /// counted (the theorems promise 0).
    pub violations: usize,
}

impl BoundRow {
    /// Whether the oracle found nothing and the claimed `ξ` really
    /// covered every round trip.
    #[must_use]
    pub fn within_bounds(&self) -> bool {
        self.violations == 0 && self.xi_witness <= self.xi
    }
}

/// Results of one bound sweep: E5+E6 under MM, E8 or A3 under IM.
#[derive(Debug, Clone)]
pub struct Bounds {
    /// The report's headline.
    pub title: &'static str,
    /// One row per configuration.
    pub rows: Vec<BoundRow>,
}

/// One configuration of a sweep: servers, the claimed drift bound `δ`,
/// the resync period `τ`, the one-way delay range `[min, max]` (seconds)
/// and the seed.
type Config = (usize, f64, f64, (f64, f64), u64);

/// Runs one configuration of `strategy` (MM or IM) for `30τ`.
fn run_config(strategy: Strategy, config: Config) -> BoundRow {
    let (n, delta, tau, (min_delay, max_delay), seed) = config;
    let mut scenario = Scenario::new(strategy)
        .delay(DelayModel::Uniform {
            min: Duration::from_secs(min_delay),
            max: Duration::from_secs(max_delay),
        })
        .resync_period(Duration::from_secs(tau))
        .collect_window(Duration::from_secs((max_delay * 4.0).min(tau / 2.0)))
        .duration(Duration::from_secs(tau * 30.0))
        .sample_interval(Duration::from_secs(tau / 10.0))
        .seed(seed);
    let envelope = scenario.envelope().expect("the sweeps run MM or IM");
    // Actual drifts alternate in sign so clocks genuinely separate.
    let (share, skew) = match envelope.kind {
        EnvelopeKind::Mm => (0.5, TheoremId::MmAsynchronism),
        EnvelopeKind::Im => (0.8, TheoremId::ImAsynchronism),
    };
    for i in 0..n {
        let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
        scenario = scenario.server(ServerSpec::honest(sign * delta * share, delta));
    }
    let result = scenario
        .oracle(OracleConfig::safety().envelope(envelope))
        .run();
    let report = result.oracle.expect("the oracle was armed");
    BoundRow {
        n,
        delta,
        tau,
        min_delay,
        xi: envelope.xi.as_secs(),
        xi_witness: result.xi_witness.as_secs(),
        gap: report.tightness.worst(TheoremId::ErrorEnvelope),
        asynch: report
            .tightness
            .worst(skew)
            .expect("the skew is checked after warm-up"),
        violations: report.total_violations,
    }
}

fn sweep(title: &'static str, strategy: Strategy, configs: &[Config]) -> Bounds {
    let rows = configs.iter().map(|&c| run_config(strategy, c)).collect();
    Bounds { title, rows }
}

/// Up to 5 ms one way, from zero.
const FAST: (f64, f64) = (0.0, 0.005);

/// Runs E5+E6 across the default sweep.
#[must_use]
pub fn mm_bounds() -> Bounds {
    sweep(
        "Theorems 2 & 3 — MM error gap and asynchronism vs bounds",
        Strategy::Mm,
        &[
            (3, 1e-4, 10.0, FAST, 1),
            (5, 1e-4, 10.0, FAST, 2),
            (8, 1e-4, 10.0, FAST, 3),
            (5, 1e-3, 10.0, FAST, 4),
            (5, 1e-4, 30.0, FAST, 5),
            (5, 1e-4, 10.0, (0.0, 0.020), 6),
        ],
    )
}

/// Runs E8: the Theorem 7 sweep with zero minimum delay.
#[must_use]
pub fn im_bounds() -> Bounds {
    sweep(
        "Theorem 7 — IM asynchronism vs bound",
        Strategy::Im,
        &[
            (3, 1e-4, 10.0, FAST, 11),
            (5, 1e-4, 10.0, FAST, 12),
            (8, 1e-4, 10.0, FAST, 13),
            (5, 1e-3, 10.0, FAST, 14),
            (5, 1e-4, 30.0, FAST, 15),
        ],
    )
}

/// Runs A3: the same service with increasing minimum one-way delay —
/// the extension the paper notes the algorithms "can easily" absorb.
#[must_use]
pub fn min_delay_ablation() -> Bounds {
    sweep(
        "Theorem 7 — IM asynchronism vs bound",
        Strategy::Im,
        &[
            (5, 1e-4, 10.0, FAST, 21),
            (5, 1e-4, 10.0, (0.002, 0.005), 22),
            (5, 1e-4, 10.0, (0.004, 0.005), 23),
        ],
    )
}

impl Verdict for Bounds {
    /// Every configuration stays within its theorems' bounds.
    fn reproduces_shape(&self) -> bool {
        !self.rows.is_empty() && self.rows.iter().all(BoundRow::within_bounds)
    }
}

impl fmt::Display for Bounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        let mm = self.rows.iter().any(|r| r.gap.is_some());
        let mut header = vec!["n", "delta", "tau", "min d", "xi", "xi wit"];
        if mm {
            header.extend(["gap", "gap bound"]);
        }
        header.extend(["asynch", "asynch bound", "viol", "holds"]);
        let mut table = Table::new(header);
        for r in &self.rows {
            let mut cells = vec![
                r.n.to_string(),
                format!("{:.0e}", r.delta),
                format!("{:.0}s", r.tau),
                secs(r.min_delay),
                secs(r.xi),
                secs(r.xi_witness),
            ];
            if let Some(gap) = r.gap {
                cells.extend([secs(gap.observed), secs(gap.bound)]);
            }
            cells.extend([
                secs(r.asynch.observed),
                secs(r.asynch.bound),
                r.violations.to_string(),
                r.within_bounds().to_string(),
            ]);
            table.row(cells);
        }
        write!(f, "{table}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm_bound_holds_for_a_small_config() {
        let row = run_config(Strategy::Mm, (4, 1e-4, 10.0, FAST, 99));
        assert_eq!(row.violations, 0, "MM must preserve every armed theorem");
        let gap = row.gap.expect("MM measures Theorem 2's gap");
        assert!(gap.observed <= gap.bound, "gap {gap:?}");
        assert!(row.asynch.observed <= row.asynch.bound, "{:?}", row.asynch);
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
        let row = run_config(Strategy::Im, (4, 1e-4, 10.0, FAST, 98));
        assert_eq!(row.violations, 0, "IM must preserve every armed theorem");
        assert_eq!(row.gap, None, "Theorem 2 is MM's");
        assert!(row.asynch.observed <= row.asynch.bound, "{:?}", row.asynch);
        assert!(
            row.xi_witness > 0.0 && row.xi_witness <= row.xi,
            "witness {} outside (0, {}]",
            row.xi_witness,
            row.xi
        );
    }

    #[test]
    fn nonzero_min_delay_still_correct() {
        let row = run_config(Strategy::Im, (4, 1e-4, 10.0, (0.003, 0.005), 97));
        assert_eq!(row.violations, 0);
        assert!(
            row.xi_witness >= 2.0 * row.min_delay,
            "witness must see the delay floor"
        );
        assert!(row.within_bounds());
    }

    #[test]
    fn displays_render() {
        let rows = Bounds {
            title: "Theorem 7 — IM asynchronism vs bound",
            rows: vec![run_config(Strategy::Im, (3, 1e-4, 10.0, FAST, 96))],
        };
        let text = rows.to_string();
        assert!(text.contains("Theorem 7"), "{text}");
        assert!(!text.contains("gap bound"), "{text}");
    }
}
