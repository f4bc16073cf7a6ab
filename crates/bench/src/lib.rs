//! # tempo-bench
//!
//! The `experiments` and `simulate` binaries for the `tempo` workspace.
//!
//! The `experiments` binary regenerates every figure and quantitative
//! claim of Marzullo & Owicki (1983); run `experiments --list` for the
//! catalogue. Speed is measured by the repository benchmark in `perf/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod cli;
