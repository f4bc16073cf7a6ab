//! # tempo-clocks
//!
//! Simulated hardware clocks for the `tempo` time service — the substrate
//! standing in for the physical quartz clocks of the Xerox Research
//! Internet machines the paper experimented on.
//!
//! A [`SimClock`] is a continuous piecewise-linear map from *real*
//! (simulated) time to *clock* time, born at real time 0 — the paper's
//! clock, whose only assumption is `|1 − dC/dt| ≤ δ`. Its instantaneous
//! rate is `1 + drift(t)` where the drift process is chosen from
//! [`DriftModel`]:
//!
//! * [`DriftModel::Constant`] — a fixed bias (a clock that is steadily
//!   fast or slow),
//! * [`DriftModel::RandomWalk`] — a bounded random walk (ageing quartz),
//! * [`DriftModel::UniformResample`] — independently resampled drift per
//!   quantum, the i.i.d. model under which Theorem 8 of the paper is
//!   stated.
//!
//! Fault injection ([`Fault`]) reproduces the §1.1 failure catalogue: a
//! clock "may fail in many ways, such as by stopping, racing ahead, or
//! refusing to change its value when reset".
//!
//! [`MonotonicClock`] is the §1.1 client-side adapter that turns a
//! freely-resettable clock into a locally monotonic one by slewing
//! through backward steps.
//!
//! ```
//! use tempo_clocks::{DriftModel, SimClock};
//! use tempo_core::Timestamp;
//!
//! // A clock that runs one part in 10⁴ fast.
//! let mut clock = SimClock::builder()
//!     .drift(DriftModel::Constant(1e-4))
//!     .build();
//! let reading = clock.read(Timestamp::from_secs(10_000.0));
//! assert_eq!(reading, Timestamp::from_secs(10_001.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clock;
mod drift;
mod fault;
mod monotonic;

pub use clock::{SimClock, SimClockBuilder};
pub use drift::DriftModel;
pub use fault::{Fault, FaultKind};
pub use monotonic::MonotonicClock;
