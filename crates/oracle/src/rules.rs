//! The predicate rows: one pure function per check, in [`TheoremId`]
//! order, each named after the variant it checks.
//!
//! A row reads plain values — estimates, errors, drift bounds, the
//! envelope, the fields of one event. It holds no state and knows no seed,
//! event index or configuration, and it applies its own numeric headroom,
//! so the simulator's [`Oracle`](crate::Oracle), a model checker and a live
//! daemon that call it cannot disagree about what it means. A row that
//! needs ground-truth real time takes `real`. A row that measures a
//! quantity against a bound returns a [`Check`]: its [`Margin`] on every
//! call, and its [`Breach`] only when it found one. The rest (served while
//! down, never stabilized, the rehydration derivation, ClusterTime) return
//! their breach, if any. The `detail` string is built only on a breach.
//!
//! A predicate with two checks has two rows: rehydration (derivation,
//! containment), lifecycle (served while down, bootstrap rounds),
//! stabilization (late, never) and the envelope (E-gap, MM skew, IM skew).
//!
//! [`TheoremId`]: crate::TheoremId

use tempo_core::bounds::{thm2_gap_bound, thm3_asynchronism_bound, thm7_asynchronism_bound};
use tempo_core::{DriftRate, Duration, TimeEstimate, Timestamp};

use crate::EnvelopeParams;

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

/// What a numeric row measured on one call, breach or not: the observed
/// quantity and the bound it is held to, in the units of its [`Breach`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Margin {
    /// The observed quantity.
    pub observed: f64,
    /// The bound it had to respect.
    pub bound: f64,
}

impl Margin {
    fn secs(observed: Duration, bound: Duration) -> Self {
        Margin {
            observed: observed.as_secs(),
            bound: bound.as_secs(),
        }
    }

    /// `observed ÷ bound`: the share of its bound the observation used.
    /// Past 1 only on a breach, or within the row's headroom.
    #[must_use]
    pub fn tightness(self) -> f64 {
        self.observed / self.bound
    }

    /// This margin as a row's result, with a breach (carrying `detail`)
    /// when the row found one.
    fn check(self, breached: bool, detail: impl FnOnce() -> String) -> Check {
        Check {
            margin: self,
            breach: breached.then(|| Breach {
                observed: self.observed,
                bound: self.bound,
                detail: detail(),
            }),
        }
    }
}

/// A numeric row's result: its [`Margin`] on every call, and the
/// [`Breach`] only when it found one.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What the row measured.
    pub margin: Margin,
    /// What it found wrong, if anything.
    pub breach: Option<Breach>,
}

/// Theorems 1 & 5: `|C − real| ≤ E`.
#[inline]
#[must_use]
pub fn correctness(real: Timestamp, s: TimeEstimate) -> Check {
    let offset = (s.time() - real).abs();
    Margin::secs(offset, s.error()).check(offset > s.error() + tol(), || {
        format!("clock {} at real {real}", s.time())
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
) -> Option<Check> {
    let (prev_real, prev_error) = prev?;
    let dt = (real - prev_real).max(Duration::ZERO);
    let allowed =
        prev_error + Duration::from_secs(dt.as_secs() * delta.as_f64() * delta.inflation()) + tol();
    Some(Margin::secs(error, allowed).check(error > allowed, || {
        format!("error rose from {prev_error} over {dt} of real time")
    }))
}

/// Rules MM-2/IM-2: a reset at `clock` that is not a §3 `recovery` never
/// raises `E` from `before` to `after`.
#[must_use]
pub fn adoption_guard(
    clock: Timestamp,
    before: Duration,
    after: Duration,
    recovery: bool,
) -> Option<Check> {
    (!recovery).then(|| {
        Margin::secs(after, before).check(after > before + tol(), || {
            format!("reset at clock {clock} increased E")
        })
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
) -> Check {
    let bound = thm2_gap_bound(env.xi, env.tau, delta) + tol();
    let gap = (error - e_min).max(Duration::ZERO);
    Margin::secs(gap, bound).check(gap > bound, || format!("E_i {error} vs E_M {e_min}"))
}

/// Theorem 3: under MM, the clocks of the servers `pair` are within
/// `2e_min + 2ξ + (δ_i + δ_j)(τ + 2ξ)` (plus the second-order term).
#[must_use]
pub fn mm_asynchronism(
    pair: (usize, usize),
    a: TimeEstimate,
    b: TimeEstimate,
    e_min: Duration,
    deltas: (DriftRate, DriftRate),
    env: &EnvelopeParams,
) -> Check {
    let bound = thm3_asynchronism_bound(e_min, env.xi, env.tau, deltas.0, deltas.1);
    skew_within(pair, a, b, bound + tol())
}

/// Theorem 6: an IM reset to error `after` is no wider than the narrowest
/// of its inputs' full widths (none unless the strategy intersects).
#[must_use]
pub fn intersection_width(after: Duration, input_widths: &[Duration]) -> Option<Check> {
    let narrowest = input_widths.iter().copied().reduce(Duration::min)?;
    let width = after + after;
    Some(
        Margin::secs(width, narrowest).check(width > narrowest + tol(), || {
            format!(
                "intersection of {} inputs wider than the narrowest",
                input_widths.len()
            )
        }),
    )
}

/// Theorem 7: under IM, the clocks of the servers `pair` are within
/// `ξ + (δ_i + δ_j)τ`, plus one more `ξ` for the one-way skew of
/// non-simultaneous resets (cf. experiment E8).
#[must_use]
pub fn im_asynchronism(
    pair: (usize, usize),
    a: TimeEstimate,
    b: TimeEstimate,
    deltas: (DriftRate, DriftRate),
    env: &EnvelopeParams,
) -> Check {
    let bound = thm7_asynchronism_bound(env.xi, env.tau, deltas.0, deltas.1) + env.xi;
    skew_within(pair, a, b, bound + tol())
}

fn skew_within(pair: (usize, usize), a: TimeEstimate, b: TimeEstimate, bound: Duration) -> Check {
    let skew = a.separation(&b);
    Margin::secs(skew, bound).check(skew > bound, || format!("pair ({}, {})", pair.0, pair.1))
}

/// §5: the intervals of the servers `pair` intersect, `|C_i − C_j| ≤
/// E_i + E_j`.
#[inline]
#[must_use]
pub fn consistency(pair: (usize, usize), a: TimeEstimate, b: TimeEstimate) -> Check {
    let gap = a.separation(&b);
    let reach = a.error() + b.error() + tol();
    Margin::secs(gap, reach).check(gap > reach, || {
        format!(
            "intervals of servers {} and {} are disjoint",
            pair.0, pair.1
        )
    })
}

/// Rule MM-1 across downtime, derivation: the rehydrated `⟨C, E⟩` has
/// `E = ε + (C − r)·δ` from the persisted `(r, ε)`.
#[must_use]
pub fn rehydration_derivation(
    rehydrated: TimeEstimate,
    (reset_clock, persisted_error): (Timestamp, Duration),
    delta: DriftRate,
) -> Option<Breach> {
    let since_reset = (rehydrated.time() - reset_clock).max(Duration::ZERO);
    let expected = persisted_error + since_reset * delta;
    ((rehydrated.error() - expected).abs() > tol()).then(|| Breach {
        observed: rehydrated.error().as_secs(),
        bound: expected.as_secs(),
        detail: format!(
            "rehydrated E differs from ε + (C − r)·δ with ε {persisted_error} r {reset_clock}"
        ),
    })
}

/// Rule MM-1 across downtime, containment: the rehydrated interval still
/// contains real time.
#[must_use]
pub fn rehydration_containment(real: Timestamp, rehydrated: TimeEstimate) -> Check {
    let offset = (rehydrated.time() - real).abs();
    Margin::secs(offset, rehydrated.error()).check(offset > rehydrated.error() + tol(), || {
        format!(
            "rehydrated interval excludes real time (clock {} at real {real})",
            rehydrated.time()
        )
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
pub fn bootstrap_rounds(rounds: u32, max_rounds: u32) -> Check {
    let margin = Margin {
        observed: f64::from(rounds),
        bound: f64::from(max_rounds),
    };
    margin.check(rounds > max_rounds, || {
        format!("bootstrap took {rounds} rounds")
    })
}

/// §4 `f`-tolerance: an adopted interval (centre `center`, radius
/// `error`) contains real time.
#[must_use]
pub fn f_tolerant(real: Timestamp, center: Timestamp, error: Duration) -> Check {
    let offset = (center - real).abs();
    Margin::secs(offset, error).check(offset > error + tol(), || {
        format!("adopted interval (centre {center}, radius {error}) excludes real time {real}")
    })
}

/// Self-stabilization, late: a server stabilized within `bound` of its
/// corruption.
#[must_use]
pub fn stabilization_late(elapsed: Duration, bound: Duration) -> Check {
    Margin::secs(elapsed, bound).check(elapsed > bound + tol(), || {
        format!("stabilized only {elapsed} after the corruption")
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

/// ClusterTime invariant M: `timestamp`, released under `view`, is above
/// the one released before it, `prev` (its issuer, view and timestamp).
/// Observed and bound are ticks in seconds.
#[must_use]
pub fn cluster_monotonic(
    prev: Option<(usize, u64, u64)>,
    view: u64,
    timestamp: u64,
) -> Option<Breach> {
    let (prev_server, prev_view, prev_ts) = prev.filter(|&(_, _, ts)| timestamp <= ts)?;
    Some(Breach {
        observed: timestamp as f64 * 1e-6,
        bound: prev_ts as f64 * 1e-6,
        detail: format!(
            "ts {timestamp} (view {view}) after ts {prev_ts} from server {prev_server} (view {prev_view})"
        ),
    })
}

/// ClusterTime invariant B: a released `timestamp` lies within its issuing
/// quorum's intersection `[lo, hi]`, compared in seconds.
#[must_use]
pub fn cluster_bounded(timestamp: u64, lo: Timestamp, hi: Timestamp) -> Option<Breach> {
    let ts_secs = timestamp as f64 * 1e-6;
    let lo_secs = lo.as_secs() - TICK_TOLERANCE_SECS;
    let hi_secs = hi.as_secs() + TICK_TOLERANCE_SECS;
    let edge = if ts_secs < lo_secs { lo } else { hi };
    (ts_secs < lo_secs || ts_secs > hi_secs).then(|| Breach {
        observed: ts_secs,
        bound: edge.as_secs(),
        detail: format!("ts {timestamp} outside the issuing intersection [{lo}, {hi}]"),
    })
}
