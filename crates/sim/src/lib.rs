//! # tempo-sim
//!
//! Scenario construction, metrics, and the experiment library that
//! regenerates every figure and measurement of Marzullo & Owicki,
//! *Maintaining the Time in a Distributed System* (1983).
//!
//! * [`scenario`] — declarative deployments ([`Scenario`],
//!   [`ServerSpec`]) running on the `tempo-net` simulator,
//! * [`metrics`] — what a finished run reveals
//!   ([`RunResult`]): correctness violations,
//!   asynchronism, error growth, consistency groups,
//! * [`experiments`] — E1–E21 and A1–A4, one function per paper
//!   artifact, each result judged by its
//!   [`Verdict`](experiments::Verdict) and listed in
//!   [`CATALOGUE`](experiments::CATALOGUE) (see DESIGN.md for the
//!   index),
//! * [`sinks`] — the telemetry-bus observers a run wires up: metrics
//!   collection, online theorem checking, and JSONL export,
//! * [`report`] — plain-text tables for the experiment reports.
//!
//! ```
//! use tempo_core::Duration;
//! use tempo_service::Strategy;
//! use tempo_sim::{Scenario, ServerSpec};
//!
//! let result = Scenario::new(Strategy::Im)
//!     .servers(3, &ServerSpec::honest(1e-5, 1e-4))
//!     .duration(Duration::from_secs(120.0))
//!     .run();
//! assert_eq!(result.correctness_violations(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cluster;
mod engine;
pub mod experiments;
pub mod metrics;
pub mod plot;
pub mod report;
pub mod scenario;
pub mod sinks;

pub use cluster::{ClientOutcome, ClusterRunResult, ClusterScenario, ReplicaOutcome, ReplicaSpec};
pub use metrics::{RunResult, SampleRow};
pub use scenario::{Scenario, ServerSpec};
pub use sinks::{set_default_telemetry_out, ClusterOracleSink, JsonlSink, MetricsSink, OracleSink};
pub use tempo_oracle::{
    EnvelopeKind, EnvelopeParams, OracleConfig, OracleReport, TheoremId, Violation,
};
pub use tempo_telemetry::{Bus, EventKind, Observer, TelemetryEvent};
