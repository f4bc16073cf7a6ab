//! Experiment E19 — Byzantine tiers and self-stabilization, oracle-armed.
//!
//! §4's screened intersection tolerates up to `f` arbitrarily faulty
//! sources per round; the moment a coordinated clique exceeds that
//! budget, no intersection rule can protect the honest minority. This
//! experiment drives a six-server Marzullo-tolerant deployment through
//! five Byzantine regimes — coordinated lies within budget, two-faced
//! (per-destination) lies, adversarially crafted lies, a transient
//! state-corruption storm, and a clique *beyond* the budget — each
//! swept over several seeds with the theorem oracle's f-tolerance and
//! stabilization predicates armed.
//!
//! The claims under test: as long as each honest round sees at most
//! `f` faulty inputs, every adoption's interval still contains real
//! time (zero `FTolerant` violations) and honest samples stay correct,
//! *whatever* the liars coordinate; a server whose state is
//! overwritten with garbage self-stabilizes — re-converges through its
//! own screens — within a bounded number of rounds; and when a
//! colluding clique outnumbers the budget the oracle provably catches
//! the capture, flagging the honest adoptions the clique drags off
//! true time.

use std::fmt;

use tempo_core::{Duration, Timestamp};
use tempo_oracle::{OracleConfig, TheoremId};
use tempo_service::ServerFault;

use super::{fault_tolerant, Verdict};
use crate::report::{secs, Table};
use crate::scenario::ServerSpec;

/// Servers in the deployment.
const N: usize = 6;
/// Seeds swept per regime.
const SEEDS: u64 = 3;
/// Run length of each scenario.
const DURATION: f64 = 300.0;
/// A corrupted server's sample counts as a disruption beyond this
/// offset — well above anything an honest clock exhibits, well below
/// the ≥ 1 s garbage the corruption injects.
const DISRUPTED: f64 = 0.5;

/// One Byzantine regime's outcome, aggregated over the seed sweep.
#[derive(Debug, Clone)]
pub struct ByzantineRow {
    /// Regime name.
    pub label: &'static str,
    /// The fault tier exercised.
    pub tier: &'static str,
    /// The `f` the strategy was configured to tolerate.
    pub max_faulty: usize,
    /// Servers carrying an armed fault.
    pub faulty: usize,
    /// Whether the faulty set deliberately exceeds `max_faulty`.
    pub beyond_budget: bool,
    /// Whether the regime corrupts state (vs. lying on the wire).
    pub corrupting: bool,
    /// Correctness violations among the fault-free servers.
    pub honest_violations: usize,
    /// Stored oracle violations of the f-tolerance predicate.
    pub f_violations: usize,
    /// Stored oracle violations of the stabilization predicate.
    pub stab_violations: usize,
    /// Total theorem-oracle violations (all predicates).
    pub oracle_violations: usize,
    /// Samples at which a corrupted server was observed visibly off
    /// true time (proof the corruption actually fired).
    pub disruptions: usize,
    /// Worst honest-server |offset from true time| at any sample (s).
    pub worst_honest_offset: f64,
}

/// Results of E19.
#[derive(Debug, Clone)]
pub struct Byzantine {
    /// One row per regime, within-budget tiers first, the f-exceeded
    /// clique last.
    pub rows: Vec<ByzantineRow>,
}

/// A regime's fault assignment and oracle arming.
struct Regime {
    label: &'static str,
    tier: &'static str,
    max_faulty: usize,
    faults: Vec<(usize, ServerFault)>,
    stabilization: Option<Duration>,
    /// Claimed drift bound δ for every server.
    claimed_bound: f64,
    /// Initial inherited error (wide enough that the beyond-budget
    /// clique's lie lands inside honest intervals from round one).
    initial_error: Duration,
    beyond_budget: bool,
}

impl Regime {
    fn corrupting(&self) -> bool {
        self.stabilization.is_some()
    }
}

fn regimes() -> Vec<Regime> {
    let start = Timestamp::ZERO;
    // Bit i of a clique mask names server i; {4, 5} = 0b11_0000.
    let pair = 0b11_0000;
    let triple = 0b11_1000;
    vec![
        Regime {
            label: "collude within budget",
            tier: "collude (2 ≤ f)",
            max_faulty: 2,
            faults: vec![
                (
                    4,
                    ServerFault::collude_from(start, pair, Duration::from_secs(2.0), 0.1),
                ),
                (
                    5,
                    ServerFault::collude_from(start, pair, Duration::from_secs(2.0), 0.1),
                ),
            ],
            stabilization: None,
            claimed_bound: 1e-4,
            initial_error: Duration::from_millis(50.0),
            beyond_budget: false,
        },
        Regime {
            label: "two-faced pair",
            tier: "two-faced (2 ≤ f)",
            max_faulty: 2,
            faults: vec![
                (
                    4,
                    ServerFault::two_faced_from(start, Duration::from_secs(1.0), 0.2),
                ),
                (
                    5,
                    ServerFault::two_faced_from(start, Duration::from_secs(1.0), 0.2),
                ),
            ],
            stabilization: None,
            claimed_bound: 1e-4,
            initial_error: Duration::from_millis(50.0),
            beyond_budget: false,
        },
        Regime {
            label: "adversarial pair",
            tier: "adversarial (2 ≤ f)",
            max_faulty: 2,
            faults: vec![
                (4, ServerFault::adversarial_from(start, 0.1)),
                (5, ServerFault::adversarial_from(start, 0.1)),
            ],
            stabilization: None,
            claimed_bound: 1e-4,
            initial_error: Duration::from_millis(50.0),
            beyond_budget: false,
        },
        Regime {
            label: "corruption storm",
            tier: "corrupt-state",
            max_faulty: 1,
            // Staggered so the two corruption windows never overlap:
            // the first must stabilize (bound 80 s) long before the
            // second fires at 170 s.
            faults: vec![
                (4, ServerFault::corrupt_at(Timestamp::from_secs(50.0), 0xC4)),
                (
                    5,
                    ServerFault::corrupt_at(Timestamp::from_secs(170.0), 0xC5),
                ),
            ],
            stabilization: Some(Duration::from_secs(80.0)),
            claimed_bound: 1e-4,
            initial_error: Duration::from_millis(50.0),
            beyond_budget: false,
        },
        Regime {
            label: "clique beyond budget",
            tier: "collude (3 > f)",
            max_faulty: 1,
            faults: vec![
                (
                    3,
                    ServerFault::collude_from(start, triple, Duration::from_millis(30.0), 0.1),
                ),
                (
                    4,
                    ServerFault::collude_from(start, triple, Duration::from_millis(30.0), 0.1),
                ),
                (
                    5,
                    ServerFault::collude_from(start, triple, Duration::from_millis(30.0), 0.1),
                ),
            ],
            stabilization: None,
            // A looser δ keeps honest intervals wide enough (≥ 30 ms)
            // that the clique's coordinated 30 ms lie overlaps them —
            // the capture needs the lie to *pass* the screen, not be
            // rejected as an outlier.
            claimed_bound: 1e-3,
            initial_error: Duration::from_millis(50.0),
            beyond_budget: true,
        },
    ]
}

fn run_regime(regime: &Regime, base_seed: u64) -> ByzantineRow {
    let faulty: Vec<usize> = regime.faults.iter().map(|&(i, _)| i).collect();
    let mut row = ByzantineRow {
        label: regime.label,
        tier: regime.tier,
        max_faulty: regime.max_faulty,
        faulty: faulty.len(),
        beyond_budget: regime.beyond_budget,
        corrupting: regime.corrupting(),
        honest_violations: 0,
        f_violations: 0,
        stab_violations: 0,
        oracle_violations: 0,
        disruptions: 0,
        worst_honest_offset: 0.0,
    };
    for k in 0..SEEDS {
        let mut oracle = OracleConfig::safety().f_tolerant();
        if let Some(bound) = regime.stabilization {
            oracle = oracle.stabilization(bound);
        }
        let mut scenario = fault_tolerant(regime.max_faulty)
            .oracle(oracle)
            .duration(Duration::from_secs(DURATION))
            .sample_interval(Duration::from_secs(2.0))
            .seed(base_seed + k);
        for i in 0..N {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            let mut spec = ServerSpec::honest(sign * 0.5 * 1e-4, regime.claimed_bound)
                .initial_error(regime.initial_error);
            if let Some(&(_, fault)) = regime.faults.iter().find(|&&(j, _)| j == i) {
                spec = spec.server_fault(fault);
            }
            scenario = scenario.server(spec);
        }
        let result = scenario.run();

        row.honest_violations += result.honest_violations(|i| faulty.contains(&i));
        let report = result.oracle.as_ref().expect("oracle was armed");
        row.oracle_violations += report.total_violations;
        row.f_violations += report
            .violations
            .iter()
            .filter(|v| v.theorem == TheoremId::FTolerant)
            .count();
        row.stab_violations += report
            .violations
            .iter()
            .filter(|v| v.theorem == TheoremId::Stabilization)
            .count();
        for sample in &result.samples {
            for (i, s) in sample.per_server.iter().enumerate() {
                let offset = s.true_offset.as_secs().abs();
                if faulty.contains(&i) {
                    if regime.corrupting() && offset > DISRUPTED {
                        row.disruptions += 1;
                    }
                } else {
                    row.worst_honest_offset = row.worst_honest_offset.max(offset);
                }
            }
        }
    }
    row
}

/// Runs E19: five Byzantine regimes, each swept over [`SEEDS`] seeds
/// with the oracle's f-tolerance (and, for the corruption storm, the
/// stabilization) predicates armed.
#[must_use]
pub fn byzantine() -> Byzantine {
    let rows = regimes()
        .iter()
        .enumerate()
        .map(|(k, regime)| run_regime(regime, 1900 + 10 * k as u64))
        .collect();
    Byzantine { rows }
}

impl Verdict for Byzantine {
    /// The headline claims. Within budget (tiers up to and including
    /// coordinated collusion, plus the corruption storm): zero oracle
    /// violations of any predicate and zero honest incorrectness —
    /// and the storm regime's corruptions demonstrably fired
    /// (disruptions observed) yet stabilized within the bound. Beyond
    /// budget: the oracle provably flags the capture with at least
    /// one f-tolerance violation.
    fn reproduces_shape(&self) -> bool {
        self.rows.iter().all(|r| {
            if r.beyond_budget {
                r.f_violations > 0
            } else {
                r.oracle_violations == 0
                    && r.honest_violations == 0
                    && (!r.corrupting || r.disruptions > 0)
            }
        })
    }
}

impl fmt::Display for Byzantine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E19 — Byzantine tiers and self-stabilization ({N} servers over {DURATION} s, \
             {SEEDS} seeds per regime, f-tolerance oracle armed)"
        )?;
        let mut table = Table::new(vec![
            "regime",
            "tier",
            "f",
            "faulty",
            "beyond f",
            "honest viol",
            "f-tol viol",
            "stab viol",
            "oracle viol",
            "disrupted",
            "worst honest off",
        ]);
        for r in &self.rows {
            table.row(vec![
                r.label.to_string(),
                r.tier.to_string(),
                r.max_faulty.to_string(),
                r.faulty.to_string(),
                r.beyond_budget.to_string(),
                r.honest_violations.to_string(),
                r.f_violations.to_string(),
                r.stab_violations.to_string(),
                r.oracle_violations.to_string(),
                r.disruptions.to_string(),
                secs(r.worst_honest_offset),
            ]);
        }
        write!(f, "{table}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colluders_within_budget_never_break_f_tolerance() {
        let all = regimes();
        let row = run_regime(&all[0], 81);
        assert_eq!(row.honest_violations, 0, "honest servers stay correct");
        assert_eq!(row.oracle_violations, 0, "oracle stays clean");
        assert!(
            row.worst_honest_offset < 0.5,
            "the 2 s coordinated lie never drags an honest clock (worst {})",
            row.worst_honest_offset
        );
    }

    #[test]
    fn corruption_storm_disrupts_then_stabilizes_within_bound() {
        let all = regimes();
        let row = run_regime(&all[3], 83);
        assert!(row.corrupting);
        assert!(row.disruptions > 0, "the corruptions visibly fired");
        assert_eq!(
            row.oracle_violations, 0,
            "both victims stabilized within the bound, honestly screened"
        );
        assert_eq!(row.honest_violations, 0, "bystanders never notice");
    }

    #[test]
    fn clique_beyond_budget_is_provably_flagged() {
        let all = regimes();
        let row = run_regime(all.last().expect("five regimes"), 85);
        assert!(row.beyond_budget);
        assert!(
            row.f_violations > 0,
            "three colluders against f = 1 must trip the f-tolerance predicate"
        );
        assert!(
            row.worst_honest_offset > 0.01,
            "the capture demonstrably drags honest clocks (worst {})",
            row.worst_honest_offset
        );
    }
}
