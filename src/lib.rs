//! # tempo
//!
//! An interval-based distributed time service: a complete, simulation-
//! backed reproduction of Keith Marzullo and Susan Owicki, *Maintaining
//! the Time in a Distributed System* (Stanford CSL TR 83-247 /
//! PODC 1983) — the paper whose intersection algorithm grew into NTP's
//! clock selection.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] ([`tempo_core`]) — intervals, estimates, the rules' and
//!   theorems' bounds, and the pure building blocks (the fault-tolerant
//!   Marzullo sweep, NTP-style selection, consistency, consonance),
//! * [`clocks`] ([`tempo_clocks`]) — simulated drifting/faulty clocks,
//! * [`net`] ([`tempo_net`]) — the deterministic discrete-event network,
//! * [`service`] ([`tempo_service`]) — the time-server/client protocol,
//!   whose round engine holds the synchronization rules (MM-2, IM-2,
//!   Marzullo(f) and the max / median / mean baselines),
//! * [`sim`] ([`tempo_sim`]) — scenarios, metrics, and the experiment
//!   library regenerating every figure of the paper,
//! * [`telemetry`] ([`tempo_telemetry`]) — the typed event bus every
//!   layer publishes on, with a JSONL codec and schema validator.
//!
//! ## Quickstart
//!
//! ```
//! use tempo::core::Duration;
//! use tempo::service::Strategy;
//! use tempo::sim::{Scenario, ServerSpec};
//!
//! // Five servers with ±50 ppm clocks, synchronising by intersection.
//! let result = Scenario::new(Strategy::Im)
//!     .servers(5, &ServerSpec::honest(5e-5, 1e-4))
//!     .duration(Duration::from_secs(300.0))
//!     .run();
//! assert_eq!(result.correctness_violations(), 0);
//! println!("worst asynchronism: {}", result.max_asynchronism());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tempo_clocks as clocks;
pub use tempo_core as core;
pub use tempo_net as net;
pub use tempo_service as service;
pub use tempo_sim as sim;
pub use tempo_telemetry as telemetry;
