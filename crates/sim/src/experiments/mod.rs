//! The experiment library: every figure and every quantitative claim of
//! the paper, regenerated (see DESIGN.md's experiment index E1–E21 and
//! the ablations A1–A4).
//!
//! Each experiment is a pure function returning a result struct whose
//! `Display` implementation prints the paper-style report and whose
//! [`Verdict`] says whether the run reproduces the paper's shape.
//! [`CATALOGUE`] lists them all; the root package's `experiments`
//! binary (`src/bin/experiments`) runs its rows and prints each
//! verdict.

use std::fmt;

use tempo_core::Duration;
use tempo_net::DelayModel;
use tempo_service::{HealthConfig, RetryPolicy, Strategy};

use crate::scenario::Scenario;

pub mod ablations;
pub mod bounds;
pub mod byzantine;
pub mod chaos;
pub mod churn;
pub mod cluster;
pub mod consonance;
pub mod convergence;
pub mod figures;
pub mod fuzz;
pub mod fuzz_cluster;
pub mod growth;
pub mod loss;
pub mod recovery;
pub mod restart;
pub mod scale;
pub mod scale10k;

pub use ablations::{
    marzullo_ablation, screening_ablation, strategy_comparison, MarzulloAblation,
    ScreeningAblation, StrategyComparison,
};
pub use bounds::{im_bounds, min_delay_ablation, mm_bounds, ImBounds, MmBounds};
pub use byzantine::{byzantine, Byzantine, ByzantineRow};
pub use chaos::{chaos, Chaos};
pub use churn::{churn, churn_with, Churn, ChurnRun};
pub use cluster::{cluster, Cluster, ClusterRow};
pub use consonance::{consonance, Consonance};
pub use convergence::{convergence, Convergence};
pub use figures::{figure1, figure2, figure3, figure4, Fig1, Fig2, Fig3, Fig4};
pub use fuzz::{
    fuzz, fuzz_smoke, shrink, Fuzz, FuzzCase, FuzzFailure, FuzzServer, FuzzSmoke, FuzzTarget,
};
pub use fuzz_cluster::{
    cluster_fuzz, ClusterCrash, ClusterFuzzCase, ClusterFuzzReplica, ClusterLie,
};
pub use growth::{ten_x, thm8_error_vs_n, TenX, Thm8};
pub use loss::{loss_sweep, LossSweep};
pub use recovery::{recovery, Recovery};
pub use restart::{restart, Restart, RestartRow};
pub use scale::{scale, Scale};
pub use scale10k::{scale10k, scale10k_sized, Scale10k, Scale10kRow};

/// A finished experiment: its report, and the one judgement made of it.
pub trait Verdict: fmt::Display {
    /// Whether the run reproduces the shape the paper (or, for an
    /// extension, its stated claim) predicts.
    fn reproduces_shape(&self) -> bool;
}

/// One runnable experiment: a row of [`CATALOGUE`].
#[derive(Debug)]
pub struct Experiment {
    /// Command-line name.
    pub name: &'static str,
    /// The paper artifact it regenerates.
    pub artifact: &'static str,
    /// Runs the experiment.
    pub run: fn() -> Box<dyn Verdict>,
}

/// Builds [`CATALOGUE`]'s rows: `name => run, artifact;`.
macro_rules! catalogue {
    ($($name:literal => $run:expr, $artifact:literal;)*) => {
        &[$(Experiment { name: $name, artifact: $artifact, run: || Box::new($run) },)*]
    };
}

/// Every experiment, in the order bare `experiments` runs them.
pub const CATALOGUE: &[Experiment] = catalogue! {
    "fig1" => figure1(), "Figure 1 — growth of maximum errors";
    "fig2" => figure2(), "Figure 2 — intersections of maximum errors (+ Theorem 6)";
    "fig3" => figure3(), "Figure 3 — consistent state where MM recovers, IM does not";
    "fig4" => figure4(), "Figure 4 — inconsistent six-server service";
    "thm2" => mm_bounds(), "Theorems 2 & 3 — MM error-gap and asynchronism bounds";
    "thm4" => convergence(), "Theorem 4 — convergence to the most accurate clock";
    "thm7" => im_bounds(), "Theorem 7 — IM asynchronism bound";
    "thm8" => thm8_error_vs_n(&[2, 4, 8, 16, 32, 64, 128], 200), "Theorem 8 — E(e) → e0 as n grows";
    "recovery" => recovery(), "§3 anecdote — invalid drift bound, third-server recovery";
    "tenx" => ten_x(), "§4 anecdote — IM error grows ~10x slower than MM";
    "consonance" => consonance(), "§5 — consonance diagnoses the invalid drift bound";
    "ablation-marzullo" => marzullo_ablation(), "A1 — plain ∩ vs Marzullo(f) vs NTP select under faults";
    "ablation-baselines" => strategy_comparison(), "A2 — MM/IM/Marzullo vs max/median/mean";
    "ablation-mindelay" => min_delay_ablation(), "A3 — nonzero minimum message delay";
    "ablation-screening" => screening_ablation(), "A4 — §5 rate screening vs the §4 subtle-drift attacker";
    "churn" => churn(), "E13 — §1.1 membership churn (join/leave)";
    "scale" => scale(), "E14 — scaling with service size and topology";
    "loss" => loss_sweep(), "E15 — message-loss robustness";
    "chaos" => chaos(), "E16 — loss + partition + crashed + lying servers at once";
    "fuzz" => fuzz_smoke(), "E17 — oracle-gated scenario fuzzer (Theorems 1–7 online)";
    "restart" => restart(), "E18 — crash–restart lifecycle: durable vs amnesia, restart storms";
    "byzantine" => byzantine(), "E19 — Byzantine tiers + self-stabilization, f-tolerance oracle";
    "scale10k" => scale10k(), "E20 — 10,000-server deployments on the sharded engine";
    "cluster" => cluster(), "E21 — ClusterTime failover storms: crash storms, partitions, Byzantine acks, quorum loss";
};

/// The fault-tolerant deployment E16, E18, E19 and E20 share, before
/// servers, faults and a schedule: Marzullo(`max_faulty`) over 0–20 ms
/// uniform delays, `τ = 10 s` with a 1 s collection window, backoff
/// retries, health thresholds 2/6 probing every 3rd round, quorum 3.
pub(crate) fn fault_tolerant(max_faulty: usize) -> Scenario {
    Scenario::new(Strategy::MarzulloTolerant { max_faulty })
        .delay(DelayModel::Uniform {
            min: Duration::ZERO,
            max: Duration::from_millis(20.0),
        })
        .resync_period(Duration::from_secs(10.0))
        .collect_window(Duration::from_secs(1.0))
        // Max honest round-trip is 40 ms: the 100 ms floor never falsely
        // suspects, yet detects real losses fast enough to re-solicit
        // three times inside the one-second window.
        .retry(RetryPolicy::backoff_defaults())
        .health(HealthConfig {
            suspect_after: 2,
            dead_after: 6,
            probe_every: 3,
        })
        .quorum(3)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// DESIGN.md's experiment index names the command that regenerates
    /// each artifact; every `experiments <name>` in it must be a
    /// catalogue row, and every row must be indexed.
    #[test]
    fn design_md_indexes_exactly_the_catalogue() {
        let doc = include_str!("../../../../DESIGN.md");
        let section = doc
            .split("\n## ")
            .find(|s| s.starts_with("4. Experiment index"))
            .expect("DESIGN.md has an experiment index");
        let mut indexed: Vec<&str> = section
            .split("`experiments ")
            .skip(1)
            .filter_map(|cell| cell.split([' ', '`']).next())
            .collect();
        let mut rows: Vec<&str> = CATALOGUE.iter().map(|e| e.name).collect();
        for name in &indexed {
            assert!(
                rows.contains(name),
                "DESIGN.md indexes `experiments {name}`"
            );
        }
        indexed.sort_unstable();
        indexed.dedup();
        rows.sort_unstable();
        assert_eq!(indexed, rows);
    }
}
