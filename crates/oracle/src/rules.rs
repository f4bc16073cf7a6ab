//! The predicate rows: one pure function per check, in [`TheoremId`]
//! order, each named after the variant it checks.
//!
//! A row reads plain values — states, errors, drift bounds, the envelope,
//! one observation — and returns the [`Breach`] it found, if any. It holds
//! no state and knows no seed, event index or configuration, and it
//! applies its own numeric headroom, so the simulator's
//! [`Oracle`](crate::Oracle), a model checker and a live daemon that call
//! it cannot disagree about what it means. A row that needs ground-truth
//! real time takes `real`. The `detail` string is built only on a breach.
//!
//! A predicate with two checks has two rows: rehydration (derivation,
//! containment), lifecycle (served while down, bootstrap rounds),
//! stabilization (late, never) and the envelope (E-gap, MM skew, IM skew).
//!
//! [`TheoremId`]: crate::TheoremId

use tempo_core::bounds::{thm2_gap_bound, thm3_asynchronism_bound, thm7_asynchronism_bound};
use tempo_core::{DriftRate, Duration, Timestamp};

use crate::cluster::IssueObservation;
use crate::{EnvelopeParams, RehydrationObservation, RoundObservation, SampleState};

/// Floating-point headroom added to every bound, in seconds.
const TOLERANCE_SECS: f64 = 1e-9;

/// The ClusterTime rows' headroom, in seconds: timestamps are floored to
/// microsecond ticks, and 2 µs covers both edges of an intersection.
const TICK_TOLERANCE_SECS: f64 = 2e-6;

fn tol() -> Duration {
    Duration::from_secs(TOLERANCE_SECS)
}

/// What a row found wrong: the observed quantity, the bound it broke
/// (both in seconds, or counts where the row says so), and specifics.
#[derive(Debug, Clone, PartialEq)]
pub struct Breach {
    /// The observed quantity.
    pub observed: f64,
    /// The bound it had to respect.
    pub bound: f64,
    /// Human-readable specifics (the pair, the phase, …).
    pub detail: String,
}

/// Theorems 1 & 5: `|C − real| ≤ E`.
#[inline]
#[must_use]
pub fn correctness(real: Timestamp, s: SampleState) -> Option<Breach> {
    let offset = (s.clock - real).abs();
    (offset > s.error + tol()).then(|| Breach {
        observed: offset.as_secs(),
        bound: s.error.as_secs(),
        detail: format!("clock {} at real {real}", s.clock),
    })
}

/// Rules MM-1/IM-1: since the previous `(real, E)`, if any, `E` grew by
/// at most `δ(1+δ)` per real second (the clock runs at most `1+δ` fast,
/// `E` grows at `δ` per clock second, and resets only shrink it).
#[inline]
#[must_use]
pub fn error_growth(
    prev: Option<(Timestamp, Duration)>,
    real: Timestamp,
    error: Duration,
    delta: DriftRate,
) -> Option<Breach> {
    let (prev_real, prev_error) = prev?;
    let dt = (real - prev_real).max(Duration::ZERO);
    let allowed =
        prev_error + Duration::from_secs(dt.as_secs() * delta.as_f64() * delta.inflation()) + tol();
    (error > allowed).then(|| Breach {
        observed: error.as_secs(),
        bound: allowed.as_secs(),
        detail: format!("error rose from {prev_error} over {dt} of real time"),
    })
}

/// Rules MM-2/IM-2: a reset that is not a §3 recovery never raises `E`.
#[must_use]
pub fn adoption_guard(round: &RoundObservation) -> Option<Breach> {
    (!round.recovery && round.error_after > round.error_before + tol()).then(|| Breach {
        observed: round.error_after.as_secs(),
        bound: round.error_before.as_secs(),
        detail: format!("reset at clock {} increased E", round.clock),
    })
}

/// Theorems 2 & 4, the E-gap under MM: `E − e_min ≤ ξ + δ(τ + 2ξ)` (plus
/// the second-order term), where `e_min` stands in for `E_M`.
#[must_use]
pub fn error_envelope(
    error: Duration,
    e_min: Duration,
    delta: DriftRate,
    env: &EnvelopeParams,
) -> Option<Breach> {
    let bound = thm2_gap_bound(env.xi, env.tau, delta) + (tol() + env.slack);
    let gap = (error - e_min).max(Duration::ZERO);
    (gap > bound).then(|| Breach {
        observed: gap.as_secs(),
        bound: bound.as_secs(),
        detail: format!("E_i {error} vs E_M {e_min}"),
    })
}

/// Theorem 3: under MM, the clocks of the servers `pair` are within
/// `2e_min + 2ξ + (δ_i + δ_j)(τ + 2ξ)` (plus the second-order term).
#[must_use]
pub fn mm_asynchronism(
    pair: (usize, usize),
    a: SampleState,
    b: SampleState,
    e_min: Duration,
    deltas: (DriftRate, DriftRate),
    env: &EnvelopeParams,
) -> Option<Breach> {
    let bound = thm3_asynchronism_bound(e_min, env.xi, env.tau, deltas.0, deltas.1);
    skew_within(pair, a, b, bound + (tol() + env.slack))
}

/// Theorem 6: an IM reset is no wider than the narrowest of its inputs.
#[must_use]
pub fn intersection_width(round: &RoundObservation) -> Option<Breach> {
    let narrowest = round.input_widths.iter().copied().reduce(Duration::min)?;
    let width = round.error_after + round.error_after;
    (width > narrowest + tol()).then(|| Breach {
        observed: width.as_secs(),
        bound: narrowest.as_secs(),
        detail: format!(
            "intersection of {} inputs wider than the narrowest",
            round.input_widths.len()
        ),
    })
}

/// Theorem 7: under IM, the clocks of the servers `pair` are within
/// `ξ + (δ_i + δ_j)τ`, plus one more `ξ` for the one-way skew of
/// non-simultaneous resets (cf. experiment E8).
#[must_use]
pub fn im_asynchronism(
    pair: (usize, usize),
    a: SampleState,
    b: SampleState,
    deltas: (DriftRate, DriftRate),
    env: &EnvelopeParams,
) -> Option<Breach> {
    let bound = thm7_asynchronism_bound(env.xi, env.tau, deltas.0, deltas.1) + env.xi;
    skew_within(pair, a, b, bound + (tol() + env.slack))
}

fn skew_within(
    pair: (usize, usize),
    a: SampleState,
    b: SampleState,
    bound: Duration,
) -> Option<Breach> {
    let skew = (a.clock - b.clock).abs();
    (skew > bound).then(|| Breach {
        observed: skew.as_secs(),
        bound: bound.as_secs(),
        detail: format!("pair ({}, {})", pair.0, pair.1),
    })
}

/// §5: the intervals of the servers `pair` intersect, `|C_i − C_j| ≤
/// E_i + E_j`.
#[inline]
#[must_use]
pub fn consistency(pair: (usize, usize), a: SampleState, b: SampleState) -> Option<Breach> {
    let gap = (a.clock - b.clock).abs();
    let reach = a.error + b.error + tol();
    (gap > reach).then(|| Breach {
        observed: gap.as_secs(),
        bound: reach.as_secs(),
        detail: format!(
            "intervals of servers {} and {} are disjoint",
            pair.0, pair.1
        ),
    })
}

/// Rule MM-1 across downtime, derivation: the rehydrated `E` is
/// `ε + (C − r)·δ` from the persisted `(r, ε)`.
#[must_use]
pub fn rehydration_derivation(obs: &RehydrationObservation, delta: DriftRate) -> Option<Breach> {
    let since_reset = (obs.clock - obs.reset_clock).max(Duration::ZERO);
    let expected = obs.persisted_error + since_reset * delta;
    ((obs.error - expected).abs() > tol()).then(|| Breach {
        observed: obs.error.as_secs(),
        bound: expected.as_secs(),
        detail: format!(
            "rehydrated E differs from ε + (C − r)·δ with ε {} r {}",
            obs.persisted_error, obs.reset_clock
        ),
    })
}

/// Rule MM-1 across downtime, containment: the rehydrated interval still
/// contains real time.
#[must_use]
pub fn rehydration_containment(real: Timestamp, obs: &RehydrationObservation) -> Option<Breach> {
    let offset = (obs.clock - real).abs();
    (offset > obs.error + tol()).then(|| Breach {
        observed: offset.as_secs(),
        bound: obs.error.as_secs(),
        detail: format!(
            "rehydrated interval excludes real time (clock {} at real {real})",
            obs.clock
        ),
    })
}

/// §5 rejoin, silence: a server that presents a sample is not `down`.
/// Observed and bound count samples.
#[must_use]
pub fn served_while_down(server: usize, down: bool) -> Option<Breach> {
    down.then(|| Breach {
        observed: 1.0,
        bound: 0.0,
        detail: format!("server {server} served a sample while down"),
    })
}

/// §5 rejoin, progress: a bootstrap took at most `max_rounds` rounds.
/// Observed and bound count rounds.
#[must_use]
pub fn bootstrap_rounds(rounds: u32, max_rounds: u32) -> Option<Breach> {
    (rounds > max_rounds).then(|| Breach {
        observed: f64::from(rounds),
        bound: f64::from(max_rounds),
        detail: format!("bootstrap took {rounds} rounds"),
    })
}

/// §4 `f`-tolerance: an adopted interval (centre `center`, radius
/// `error`) contains real time.
#[must_use]
pub fn f_tolerant(real: Timestamp, center: Timestamp, error: Duration) -> Option<Breach> {
    let offset = (center - real).abs();
    (offset > error + tol()).then(|| Breach {
        observed: offset.as_secs(),
        bound: error.as_secs(),
        detail: format!(
            "adopted interval (centre {center}, radius {error}) excludes real time {real}"
        ),
    })
}

/// Self-stabilization, late: a server stabilized within `bound` of its
/// corruption.
#[must_use]
pub fn stabilization_late(elapsed: Duration, bound: Duration) -> Option<Breach> {
    (elapsed > bound + tol()).then(|| Breach {
        observed: elapsed.as_secs(),
        bound: bound.as_secs(),
        detail: format!("stabilized only {elapsed} after the corruption"),
    })
}

/// Self-stabilization, never: a server is not still corrupted (since
/// `corrupted`) when the run ends at `real`.
#[must_use]
pub fn stabilization_never(
    corrupted: Option<Timestamp>,
    real: Timestamp,
    bound: Duration,
) -> Option<Breach> {
    let since = corrupted?;
    Some(Breach {
        observed: (real - since).max(Duration::ZERO).as_secs(),
        bound: bound.as_secs(),
        detail: format!("never stabilized: corrupted since {since}"),
    })
}

/// ClusterTime invariant M: a released timestamp is above the one
/// released before it, `prev`. Observed and bound are ticks in seconds.
#[must_use]
pub fn cluster_monotonic(
    prev: Option<&IssueObservation>,
    obs: &IssueObservation,
) -> Option<Breach> {
    let prev = prev.filter(|prev| obs.timestamp <= prev.timestamp)?;
    Some(Breach {
        observed: obs.timestamp as f64 * 1e-6,
        bound: prev.timestamp as f64 * 1e-6,
        detail: format!(
            "ts {} (view {}) after ts {} from server {} (view {})",
            obs.timestamp, obs.view, prev.timestamp, prev.server, prev.view
        ),
    })
}

/// ClusterTime invariant B: a released timestamp lies within its issuing
/// quorum's intersection `[lo, hi]`, compared in seconds.
#[must_use]
pub fn cluster_bounded(obs: &IssueObservation) -> Option<Breach> {
    let ts_secs = obs.timestamp as f64 * 1e-6;
    let lo = obs.lo.as_secs() - TICK_TOLERANCE_SECS;
    let hi = obs.hi.as_secs() + TICK_TOLERANCE_SECS;
    let edge = if ts_secs < lo { obs.lo } else { obs.hi };
    (ts_secs < lo || ts_secs > hi).then(|| Breach {
        observed: ts_secs,
        bound: edge.as_secs(),
        detail: format!(
            "ts {} outside the issuing intersection [{}, {}]",
            obs.timestamp, obs.lo, obs.hi
        ),
    })
}
