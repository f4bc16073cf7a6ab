//! The experiment library: every figure and every quantitative claim of
//! the paper, regenerated (see DESIGN.md's experiment index E1–E21 and
//! the ablations A1–A4).
//!
//! Each experiment is a pure function returning a result struct whose
//! `Display` implementation prints the paper-style report; the
//! root package's `experiments` binary (`src/bin/experiments`) simply
//! calls these.

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
pub use churn::{churn, churn_with, Churn};
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
