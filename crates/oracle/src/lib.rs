//! # tempo-oracle
//!
//! Online checking of the paper's theorems against a running simulation.
//!
//! The simulator knows ground-truth real time, so every claim the paper
//! *proves* can be evaluated mechanically while a scenario runs. The
//! predicates are the variants of [`TheoremId`], each of which cites its
//! statement ([`TheoremId::paper_ref`]); [`rules`] holds one pure function
//! per check, and [`cluster`] checks the two ClusterTime invariants.
//!
//! (Theorem 8 — the *expected* IM width need not grow with the number of
//! servers — is a distributional claim; experiment E9 covers it offline.)
//!
//! The oracle is pure: it never touches the network or the servers.
//! [`Oracle`] and [`cluster::ClusterOracle`] are [`Observer`]s that read
//! the telemetry stream themselves, so arming one is a `subscribe` on the
//! bus the service emits to. [`Oracle`] checks samples, round adoptions,
//! resets and lifecycle events; [`Oracle::finish`] returns a structured
//! [`OracleReport`] whose [`Violation`]s carry everything needed to
//! reproduce: the scenario seed, the event index, the server, the
//! predicate, and the observed-vs-bound pair.
//!
//! Which predicates are *sound* depends on the scenario. Correctness of a
//! non-faulty server, for example, is only guaranteed when no lying peer
//! can sneak a consistent-but-wrong estimate past the strategy, and the
//! envelope theorems assume a clean steady state (no loss, partitions, or
//! faults). [`OracleConfig`] therefore gates those families; the scenario
//! layer decides what applies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cluster;
mod findings;
pub mod rules;

use std::fmt;

use tempo_core::{DriftRate, Duration, TimeEstimate, Timestamp};
use tempo_telemetry::{EventKind, Observer, SampleSnapshot, TelemetryEvent};

use findings::{write_violations, Findings};
use rules::{Check, Margin};

/// Which proved statement a check (and hence a violation) refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TheoremId {
    /// Theorems 1 & 5: a non-faulty server's interval contains real time.
    Correctness,
    /// Rules MM-1/IM-1 plus the shrink-only reset rules: between two
    /// observations `E` may grow by at most `δ(1+δ)·Δt` of real time.
    ErrorGrowth,
    /// Rules MM-2/IM-2: an accepted reset never increases `E`.
    AdoptionGuard,
    /// Theorems 2 & 4: in steady state, `E_i − min_j E_j` is bounded by
    /// `ξ + δ_i(τ + 2ξ)` (plus the proof's second-order slack).
    ErrorEnvelope,
    /// Theorem 3: MM pairwise asynchronism bound.
    MmAsynchronism,
    /// Theorem 6: an IM round's interval is never wider than its
    /// narrowest input interval.
    IntersectionWidth,
    /// Theorem 7: IM pairwise asynchronism bound.
    ImAsynchronism,
    /// §5: correct servers are pairwise consistent (their intervals
    /// intersect), i.e. they form a single consistency group.
    Consistency,
    /// Rule MM-1 held across downtime: a durably restarted server's
    /// rehydrated interval must be exactly `ε + (C − r)·δ` from the
    /// persisted reset pair, and must still contain real time (the
    /// hardware clock kept its drift bound while the server was down).
    Rehydration,
    /// §5 rejoin discipline: a crashed or booting server serves nothing,
    /// and a bootstrap reaches a quorum within a bounded number of
    /// rounds whenever one is reachable.
    Lifecycle,
    /// §4 `f`-tolerance: as long as at most `f` of a correct server's
    /// inputs are faulty (Byzantine liars included), every interval it
    /// *adopts* still contains real time. Checked at each non-recovery
    /// reset of a trusted, up, uncorrupted server.
    FTolerant,
    /// Self-stabilization: a server whose state was transiently
    /// overwritten with garbage must reach a legitimate state — one
    /// that passes every per-sample row an uncorrupted server must pass
    /// — within the configured bound (a small multiple of the resync
    /// period). From then on those rows hold it like any other server.
    Stabilization,
    /// ClusterTime invariant M: released cluster timestamps strictly
    /// increase — across primaries, view changes, crashes, and amnesia
    /// restarts (checked by [`cluster::ClusterOracle`]).
    ClusterMonotonic,
    /// ClusterTime invariant B: every released timestamp lies within
    /// the issuing quorum's §4 Marzullo intersection (checked by
    /// [`cluster::ClusterOracle`]).
    ClusterBounded,
}

impl TheoremId {
    /// Every predicate, in declaration order.
    pub(crate) const ALL: [TheoremId; 14] = [
        TheoremId::Correctness,
        TheoremId::ErrorGrowth,
        TheoremId::AdoptionGuard,
        TheoremId::ErrorEnvelope,
        TheoremId::MmAsynchronism,
        TheoremId::IntersectionWidth,
        TheoremId::ImAsynchronism,
        TheoremId::Consistency,
        TheoremId::Rehydration,
        TheoremId::Lifecycle,
        TheoremId::FTolerant,
        TheoremId::Stabilization,
        TheoremId::ClusterMonotonic,
        TheoremId::ClusterBounded,
    ];

    /// The statement in the paper this predicate encodes.
    #[must_use]
    pub fn paper_ref(&self) -> &'static str {
        match self {
            TheoremId::Correctness => "Theorems 1 & 5",
            TheoremId::ErrorGrowth => "Rules MM-1/IM-1",
            TheoremId::AdoptionGuard => "Rules MM-2/IM-2",
            TheoremId::ErrorEnvelope => "Theorems 2 & 4",
            TheoremId::MmAsynchronism => "Theorem 3",
            TheoremId::IntersectionWidth => "Theorem 6",
            TheoremId::ImAsynchronism => "Theorem 7",
            TheoremId::Consistency => "Section 5 (consistency groups)",
            TheoremId::Rehydration => "Rule MM-1 across downtime",
            TheoremId::Lifecycle => "Section 5 (rejoin/bootstrap)",
            TheoremId::FTolerant => "Section 4 (f-tolerant synthesis)",
            TheoremId::Stabilization => "Section 5 (self-stabilization)",
            TheoremId::ClusterMonotonic => "ClusterTime invariant M (monotonic timestamps)",
            TheoremId::ClusterBounded => "ClusterTime invariant B (within the §4 intersection)",
        }
    }
}

impl fmt::Display for TheoremId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?} ({})", self.paper_ref())
    }
}

/// One observed breach of a theorem predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The scenario's master seed (reproduces the run).
    pub seed: u64,
    /// When it happened, counted by the check that found it:
    /// * sample checks carry the sample index (a stabilization, the
    ///   sample that first found the server legitimate);
    /// * round checks carry that server's own round count (its rounds
    ///   before this one);
    /// * reset, rehydration and bootstrap checks, and those at
    ///   [`Oracle::finish`], carry the number of samples checked so far;
    /// * cluster checks carry the issue index.
    pub event: usize,
    /// The server the predicate is *about* (for pairwise predicates, the
    /// first of the pair; `detail` names the other).
    pub server: usize,
    /// The predicate that failed.
    pub theorem: TheoremId,
    /// The observed quantity, in seconds.
    pub observed: f64,
    /// The bound it had to respect, in seconds.
    pub bound: f64,
    /// Human-readable specifics (the pair, the phase, …).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed {} event {} server {}: {} violated — observed {:.6e}s > bound {:.6e}s ({})",
            self.seed,
            self.event,
            self.server,
            self.theorem,
            self.observed,
            self.bound,
            self.detail
        )
    }
}

/// Steady-state envelope parameters for the bound theorems.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvelopeParams {
    /// Which strategy's asynchronism theorem applies.
    pub kind: EnvelopeKind,
    /// The round-trip bound `ξ`.
    pub xi: Duration,
    /// The *effective* inter-reset spacing: the longest time between one
    /// server's resets (nominal period plus jitter plus collection
    /// window; `Scenario::envelope` in `tempo-sim` derives it).
    pub tau: Duration,
    /// Real time before which the envelope is not checked (the service
    /// needs a few rounds to reach steady state).
    pub warmup: Timestamp,
}

/// Which asynchronism theorem an envelope check uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvelopeKind {
    /// Theorems 2 & 3 (algorithm MM).
    Mm,
    /// Theorem 7 (algorithm IM).
    Im,
}

/// Which scenario-dependent predicate families the oracle evaluates.
///
/// Soundness is scenario-dependent; the layer that builds the scenario
/// (and therefore knows about faults, loss, and the strategy) is
/// responsible for enabling only the checks the theorems actually
/// guarantee there. The adoption guard, Theorem 6, rehydration and the
/// lifecycle checks hold in every scenario and are always on.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleConfig {
    /// Correctness (Theorems 1 & 5), error growth (rules MM-1/IM-1)
    /// and §5 consistency on every trusted server. Each needs every
    /// honest estimate to be sound, which a lying peer can void;
    /// [`OracleConfig::without_trust_checks`] clears it.
    pub trust_checks: bool,
    /// A booting server must reach a quorum within this many rounds
    /// (scenarios that legitimately starve the quorum — partitions,
    /// storms of crashed peers — should raise it).
    pub max_bootstrap_rounds: u32,
    /// Steady-state envelope theorems (2/3 or 7), when applicable.
    pub envelope: Option<EnvelopeParams>,
    /// §4 `f`-tolerance: every non-recovery adoption of a trusted, up,
    /// uncorrupted server must contain real time. Sound only when the
    /// strategy carries a fault budget (`MarzulloTolerant`) *and* at
    /// most `f` of each server's inputs are faulty — the scenario layer
    /// arms it, exactly like the trust checks.
    pub check_f_tolerant: bool,
    /// Self-stabilization bound: a state-corrupted server's first
    /// legitimate sample must come within this much real time of its
    /// corruption (and before the run ends). `None` disables the family.
    pub stabilization_bound: Option<Duration>,
}

impl OracleConfig {
    /// The always-sound safety core for the interval strategies under
    /// step application: correctness, growth, adoption, intersection,
    /// consistency and the lifecycle — no envelope.
    #[must_use]
    pub fn safety() -> Self {
        OracleConfig {
            trust_checks: true,
            max_bootstrap_rounds: 8,
            envelope: None,
            check_f_tolerant: false,
            stabilization_bound: None,
        }
    }

    /// Arms the §4 `f`-tolerance check on adoptions (see
    /// [`OracleConfig::check_f_tolerant`] for when it is sound).
    #[must_use]
    pub fn f_tolerant(mut self) -> Self {
        self.check_f_tolerant = true;
        self
    }

    /// Arms the self-stabilization window check with the given bound.
    #[must_use]
    pub fn stabilization(mut self, bound: Duration) -> Self {
        self.stabilization_bound = Some(bound);
        self
    }

    /// Adds the steady-state envelope checks.
    #[must_use]
    pub fn envelope(mut self, params: EnvelopeParams) -> Self {
        self.envelope = Some(params);
        self
    }

    /// Disables the correctness, growth and consistency checks (for
    /// scenarios where a lying peer can legitimately corrupt an honest
    /// server's estimate).
    #[must_use]
    pub fn without_trust_checks(mut self) -> Self {
        self.trust_checks = false;
        self
    }
}

/// Static per-server facts the oracle needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerView {
    /// The server's claimed drift bound `δ_i`.
    pub drift_bound: DriftRate,
    /// Whether the theorems apply to this server at all: its clock obeys
    /// the claimed bound and no fault is injected into it. Untrusted
    /// servers are observed but never checked.
    pub trusted: bool,
}

/// The worst [`Margin`] each predicate's numeric rows reached: per
/// [`TheoremId`], the check that used the largest share of its bound.
/// Recording is one comparison and no allocation; a predicate that
/// measured nothing has no entry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tightness([Option<Margin>; TheoremId::ALL.len()]);

impl Tightness {
    /// Keeps `margin` if it is `theorem`'s tightest so far: the larger
    /// share of its bound, compared without dividing (so a zero bound is
    /// infinitely tight unless nothing was observed).
    #[inline]
    pub(crate) fn record(&mut self, theorem: TheoremId, margin: Margin) {
        let worst = &mut self.0[theorem as usize];
        if worst.is_none_or(|w| margin.observed * w.bound > w.observed * margin.bound) {
            *worst = Some(margin);
        }
    }

    /// The tightest margin `theorem`'s rows measured, if they measured
    /// any.
    #[must_use]
    pub fn worst(&self, theorem: TheoremId) -> Option<Margin> {
        self.0[theorem as usize]
    }

    /// Folds in another run's margins, keeping the tighter of each.
    pub fn merge(&mut self, other: &Tightness) {
        for (theorem, margin) in TheoremId::ALL.into_iter().zip(other.0) {
            if let Some(margin) = margin {
                self.record(theorem, margin);
            }
        }
    }
}

impl fmt::Display for Tightness {
    /// One line per measured predicate: its name, worst
    /// `observed ÷ bound` and paper source.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for theorem in TheoremId::ALL {
            if let Some(margin) = self.worst(theorem) {
                let name = format!("{theorem:?}");
                let (tightness, source) = (margin.tightness(), theorem.paper_ref());
                writeln!(f, "  {name:<18} {tightness:.3}  {source}")?;
            }
        }
        Ok(())
    }
}

/// The checker: subscribe it to a bus, then [`finish`] it.
///
/// [`finish`]: Oracle::finish
#[derive(Debug)]
pub struct Oracle {
    config: OracleConfig,
    servers: Vec<ServerView>,
    /// Last (real, error) per server, for the growth check.
    prev: Vec<Option<(Timestamp, Duration)>>,
    /// True from a crash until the matching bootstrap completes; a down
    /// server must present no samples.
    down: Vec<bool>,
    /// `Some(corruption instant)` from a `StateCorrupted` event until the
    /// server's first legitimate sample ([`Oracle::legitimate`]); a
    /// corrupted server is exempt from the per-server checks (its state
    /// is arbitrary by construction) but on the clock for the
    /// stabilization bound.
    corrupted: Vec<Option<Timestamp>>,
    /// Set by a recovery `RoundAdopt`, consumed by the immediately
    /// following reset event: recovery adoptions are taken on faith and
    /// exempt from the `f`-tolerance check.
    pending_recovery: Vec<bool>,
    /// The latest real time seen, so `finish` can measure how long a
    /// never-stabilized server had been corrupted.
    last_real: Timestamp,
    findings: Findings,
    samples_checked: usize,
    rounds_checked: Vec<usize>,
    lifecycle_checked: usize,
    resets_checked: usize,
}

impl Oracle {
    /// Creates an oracle for a run with the given master seed and
    /// per-server facts.
    #[must_use]
    pub fn new(seed: u64, config: OracleConfig, servers: Vec<ServerView>) -> Self {
        let n = servers.len();
        Oracle {
            config,
            servers,
            prev: vec![None; n],
            down: vec![false; n],
            corrupted: vec![None; n],
            pending_recovery: vec![false; n],
            last_real: Timestamp::from_secs(0.0),
            findings: Findings::new(seed),
            samples_checked: 0,
            rounds_checked: vec![0; n],
            lifecycle_checked: 0,
            resets_checked: 0,
        }
    }

    /// Checks one sampling instant: `real` is ground-truth real time,
    /// `snapshots[i]` the state of server `i`. The theorems say nothing
    /// about a server outside the service, so inactive ones are skipped.
    fn check_sample(&mut self, real: Timestamp, snapshots: &[SampleSnapshot]) {
        assert_eq!(
            snapshots.len(),
            self.servers.len(),
            "oracle was built for {} servers",
            self.servers.len()
        );
        let event = self.samples_checked;
        self.samples_checked += 1;
        self.last_real = self.last_real.max(real);
        if self.corrupted.iter().any(Option::is_some) {
            self.judge_corrupted(real, snapshots, event);
        }
        let trust = self.config.trust_checks;

        // The servers the theorems speak for at this instant: present,
        // trusted and uncorrupted, in index order.
        let mut live = Vec::with_capacity(snapshots.len());
        for (i, snapshot) in snapshots.iter().enumerate() {
            if !snapshot.active {
                self.prev[i] = None;
                continue;
            }
            if !self.servers[i].trusted {
                continue;
            }
            if self.corrupted[i].is_some() {
                // Not yet legitimate: an arbitrary state proves nothing
                // about correctness, growth, or consistency, and the
                // stabilization clock is what this server is held to.
                self.prev[i] = None;
                continue;
            }
            let s = snapshot.estimate();
            // The sample exists at all — a crashed/booting server must
            // stay silent until its bootstrap completes.
            let down = rules::served_while_down(i, self.down[i]);
            self.findings.flag(event, i, TheoremId::Lifecycle, down);
            if trust {
                let correct = rules::correctness(real, s);
                self.findings
                    .measure(event, i, TheoremId::Correctness, correct);
                let delta = self.servers[i].drift_bound;
                let growth = rules::error_growth(self.prev[i], real, s.error(), delta);
                self.findings
                    .measure(event, i, TheoremId::ErrorGrowth, growth);
            }
            self.prev[i] = Some((real, s.error()));
            live.push((i, s));
        }

        if trust {
            for (k, &(i, a)) in live.iter().enumerate() {
                for &(j, b) in &live[k + 1..] {
                    let consistent = rules::consistency((i, j), a, b);
                    self.findings
                        .measure(event, i, TheoremId::Consistency, consistent);
                }
            }
        }
        if let Some(envelope) = self.config.envelope.filter(|e| real >= e.warmup) {
            self.check_envelope(&envelope, &live, event);
        }
    }

    /// Ends the exemption of each corrupted server whose sample is
    /// [legitimate](Oracle::legitimate) against the uncorrupted live
    /// servers, and measures how long that took. The main loop then
    /// checks this sample like any other, and so every later one: what
    /// converged must stay legitimate (closure).
    fn judge_corrupted(&mut self, real: Timestamp, snapshots: &[SampleSnapshot], event: usize) {
        let checked = |i: usize| snapshots[i].active && self.servers[i].trusted;
        let live: Vec<_> = (0..snapshots.len())
            .filter(|&i| checked(i) && self.corrupted[i].is_none())
            .map(|i| (i, snapshots[i].estimate()))
            .collect();
        for (i, snapshot) in snapshots.iter().enumerate() {
            let Some(since) = self.corrupted[i] else {
                continue;
            };
            if !checked(i) || !self.legitimate(real, (i, snapshot.estimate()), &live) {
                continue;
            }
            self.corrupted[i] = None;
            if let Some(bound) = self.config.stabilization_bound {
                let late = rules::stabilization_late(real - since, bound);
                self.findings
                    .measure(event, i, TheoremId::Stabilization, late);
            }
        }
    }

    /// Whether server `i`, sampled at `s`, is in a legitimate state: it
    /// passes its own rows of this sample against the `live` servers —
    /// correct (which the oracle can always judge), consistent with each
    /// when the trust checks are armed, and inside the envelope once one
    /// is armed and warm.
    fn legitimate(
        &self,
        real: Timestamp,
        (i, s): (usize, TimeEstimate),
        live: &[(usize, TimeEstimate)],
    ) -> bool {
        let pass = |check: Check| check.breach.is_none();
        let consistent = || {
            live.iter()
                .all(|&(j, b)| pass(rules::consistency((i, j), s, b)))
        };
        let enveloped = || match self.config.envelope.filter(|e| real >= e.warmup) {
            None => true,
            Some(env) => {
                let e_min = live
                    .iter()
                    .map(|(_, b)| b.error())
                    .fold(s.error(), Duration::min);
                envelope_rows(&env, &self.servers, e_min, (i, s), live).all(|(_, c)| pass(c))
            }
        };
        pass(rules::correctness(real, s))
            && (!self.config.trust_checks || consistent())
            && enveloped()
    }

    /// The steady-state rows over the live servers: each server's E-gap
    /// (under MM), then its pairs' skews.
    fn check_envelope(
        &mut self,
        env: &EnvelopeParams,
        live: &[(usize, TimeEstimate)],
        event: usize,
    ) {
        // E_M stand-in: the most accurate live server right now.
        let Some(e_min) = live.iter().map(|(_, s)| s.error()).min() else {
            return;
        };
        for (k, &(i, a)) in live.iter().enumerate() {
            for (theorem, check) in envelope_rows(env, &self.servers, e_min, (i, a), &live[k + 1..])
            {
                self.findings.measure(event, i, theorem, check);
            }
        }
    }

    /// Consumes the oracle and returns its findings. A server still
    /// corrupted at the end of the run — its stabilization never came —
    /// is flagged here if the stabilization family is armed.
    #[must_use]
    pub fn finish(mut self) -> OracleReport {
        if let Some(bound) = self.config.stabilization_bound {
            for (i, view) in self.servers.iter().enumerate() {
                if view.trusted {
                    let never =
                        rules::stabilization_never(self.corrupted[i], self.last_real, bound);
                    self.findings
                        .flag(self.samples_checked, i, TheoremId::Stabilization, never);
                }
            }
        }
        OracleReport {
            violations: self.findings.stored,
            total_violations: self.findings.total,
            samples_checked: self.samples_checked,
            rounds_checked: self.rounds_checked.iter().sum(),
            lifecycle_checked: self.lifecycle_checked,
            resets_checked: self.resets_checked,
            tightness: self.findings.tightness,
        }
    }
}

impl Observer for Oracle {
    fn enabled(&self, kind: EventKind) -> bool {
        matches!(
            kind,
            EventKind::Sample
                | EventKind::RoundAdopt
                | EventKind::ClockStep
                | EventKind::ServerCrashed
                | EventKind::ServerRestarted
                | EventKind::StateRehydrated
                | EventKind::BootstrapCompleted
                | EventKind::StateCorrupted
        )
    }

    /// Checks one event. A server index out of range, or a sample of
    /// another server count than the oracle was built for, panics.
    fn observe(&mut self, event: &TelemetryEvent) {
        match *event {
            TelemetryEvent::Sample { at, ref servers } => self.check_sample(at, servers),
            TelemetryEvent::RoundAdopt {
                server,
                clock,
                error_before,
                error_after,
                ref input_widths,
                recovery,
                ..
            } => {
                let event = self.rounds_checked[server];
                self.rounds_checked[server] += 1;
                // The reset event that follows this record inherits its
                // recovery flag: unconditional (§3-style) adoptions are
                // exempt from the f-tolerance check.
                self.pending_recovery[server] = recovery;
                if !self.servers[server].trusted || self.corrupted[server].is_some() {
                    return;
                }
                let guard = rules::adoption_guard(clock, error_before, error_after, recovery);
                self.findings
                    .measure(event, server, TheoremId::AdoptionGuard, guard);
                let width = rules::intersection_width(error_after, input_widths);
                self.findings
                    .measure(event, server, TheoremId::IntersectionWidth, width);
            }
            // An applied reset: under the §4 fault budget, the interval a
            // correct server *adopts* must contain real time. Its centre
            // is the post-step served reading. Recovery adoptions
            // (flagged by the preceding round record) are taken on faith
            // and exempt, as are down, corrupted, and untrusted servers.
            TelemetryEvent::ClockStep {
                at,
                server,
                to: center,
                error,
                ..
            } => {
                let recovery = std::mem::take(&mut self.pending_recovery[server]);
                if !self.config.check_f_tolerant
                    || !self.servers[server].trusted
                    || self.down[server]
                    || self.corrupted[server].is_some()
                    || recovery
                {
                    return;
                }
                self.resets_checked += 1;
                let adopted = rules::f_tolerant(at, center, error);
                self.findings
                    .measure(self.samples_checked, server, TheoremId::FTolerant, adopted);
            }
            // From a crash until its bootstrap completes a server must
            // present no samples.
            TelemetryEvent::ServerCrashed { server, .. } => {
                self.lifecycle_checked += 1;
                self.down[server] = true;
                // The growth baseline dies with the process; the hardware
                // clock keeps running, so the next observed error may be
                // much larger.
                self.prev[server] = None;
            }
            // The server stays *down* for checking purposes until its
            // bootstrap completes — a durable restart promotes
            // immediately (it completes a zero-round bootstrap), an
            // amnesia restart only after a §5 quorum read.
            TelemetryEvent::ServerRestarted { server, .. } => {
                self.lifecycle_checked += 1;
                self.down[server] = true;
            }
            // The re-derived error must be exactly rule MM-1 applied to
            // the persisted `(r, ε)` pair, and the rehydrated interval
            // must still contain real time (the hardware clock honoured
            // its drift bound while the server was down).
            TelemetryEvent::StateRehydrated {
                at,
                server,
                clock,
                error,
                reset_clock,
                persisted_error,
            } => {
                self.lifecycle_checked += 1;
                let view = self.servers[server];
                if !view.trusted {
                    return;
                }
                let event = self.samples_checked;
                let rehydrated = TimeEstimate::new(clock, error);
                let persisted = (reset_clock, persisted_error);
                let derived =
                    rules::rehydration_derivation(rehydrated, persisted, view.drift_bound);
                self.findings
                    .flag(event, server, TheoremId::Rehydration, derived);
                let contained = rules::rehydration_containment(at, rehydrated);
                self.findings
                    .measure(event, server, TheoremId::Rehydration, contained);
            }
            // `rounds` quorum rounds (zero for a durable restart) and the
            // server may serve again.
            TelemetryEvent::BootstrapCompleted { server, rounds, .. } => {
                self.lifecycle_checked += 1;
                self.down[server] = false;
                if self.servers[server].trusted {
                    let slow = rules::bootstrap_rounds(rounds, self.config.max_bootstrap_rounds);
                    self.findings
                        .measure(self.samples_checked, server, TheoremId::Lifecycle, slow);
                }
            }
            // The state was transiently overwritten with garbage: until
            // its first legitimate sample the per-server checks are
            // suspended for this server and the stabilization clock runs.
            TelemetryEvent::StateCorrupted { at, server, .. } => {
                self.lifecycle_checked += 1;
                self.last_real = self.last_real.max(at);
                self.corrupted[server] = Some(at);
                // The growth baseline is garbage now too.
                self.prev[server] = None;
            }
            _ => {}
        }
    }
}

/// Server `i`'s steady-state rows against `others`: its E-gap (under
/// MM), then its skew with each of them, in order.
fn envelope_rows<'a>(
    env: &'a EnvelopeParams,
    servers: &'a [ServerView],
    e_min: Duration,
    (i, a): (usize, TimeEstimate),
    others: &'a [(usize, TimeEstimate)],
) -> impl Iterator<Item = (TheoremId, Check)> + 'a {
    let delta_i = servers[i].drift_bound;
    let gap = (env.kind == EnvelopeKind::Mm).then(|| {
        let gap = rules::error_envelope(a.error(), e_min, delta_i, env);
        (TheoremId::ErrorEnvelope, gap)
    });
    let skews = others.iter().map(move |&(j, b)| {
        let deltas = (delta_i, servers[j].drift_bound);
        match env.kind {
            EnvelopeKind::Mm => (
                TheoremId::MmAsynchronism,
                rules::mm_asynchronism((i, j), a, b, e_min, deltas, env),
            ),
            EnvelopeKind::Im => (
                TheoremId::ImAsynchronism,
                rules::im_asynchronism((i, j), a, b, deltas, env),
            ),
        }
    });
    gap.into_iter().chain(skews)
}

/// The structured outcome of an oracle-gated run.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleReport {
    /// The first `MAX_STORED_VIOLATIONS` violations, in event order.
    pub violations: Vec<Violation>,
    /// The total number of violations (may exceed `violations.len()`).
    pub total_violations: usize,
    /// Sampling instants checked.
    pub samples_checked: usize,
    /// Round records checked.
    pub rounds_checked: usize,
    /// Crash–restart lifecycle events observed.
    pub lifecycle_checked: usize,
    /// Applied resets put through the §4 `f`-tolerance check.
    pub resets_checked: usize,
    /// Each predicate's tightest margin over the run, breaches included.
    pub tightness: Tightness,
}

impl OracleReport {
    /// True when no predicate was ever violated.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }

    /// The first violation, if any (the natural minimal witness).
    #[must_use]
    pub fn first(&self) -> Option<&Violation> {
        self.violations.first()
    }
}

impl fmt::Display for OracleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "oracle: {} samples, {} rounds, {} lifecycle events checked, violations: {}",
            self.samples_checked,
            self.rounds_checked,
            self.lifecycle_checked,
            self.total_violations
        )?;
        write!(f, "{}", self.tightness)?;
        write_violations(f, &self.violations, self.total_violations)
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use crate::findings::MAX_STORED_VIOLATIONS;
    use tempo_telemetry::Bus;

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn dur(s: f64) -> Duration {
        Duration::from_secs(s)
    }

    fn views(n: usize) -> Vec<ServerView> {
        vec![
            ServerView {
                drift_bound: DriftRate::new(1e-4),
                trusted: true,
            };
            n
        ]
    }

    fn state(clock: f64, error: f64) -> Option<TimeEstimate> {
        Some(TimeEstimate::new(ts(clock), dur(error)))
    }

    /// A `Sample` at real time `real`; `None` is a server outside the
    /// service.
    fn sample(real: f64, states: &[Option<TimeEstimate>]) -> TelemetryEvent {
        let at = ts(real);
        let servers = states
            .iter()
            .map(|state| {
                let s = state.unwrap_or(TimeEstimate::new(at, Duration::ZERO));
                SampleSnapshot {
                    clock: s.time(),
                    error: s.error(),
                    true_offset: s.time() - at,
                    correct: s.is_correct_at(at),
                    active: state.is_some(),
                }
            })
            .collect();
        TelemetryEvent::Sample { at, servers }
    }

    /// A `RoundAdopt` at clock 30 s moving `E` from `before` to `after`.
    fn adopt(
        server: usize,
        before: f64,
        after: f64,
        widths: &[f64],
        recovery: bool,
    ) -> TelemetryEvent {
        TelemetryEvent::RoundAdopt {
            at: ts(30.0),
            server,
            round: 0,
            clock: ts(30.0),
            error_before: dur(before),
            error_after: dur(after),
            input_widths: widths.iter().map(|&w| dur(w)).collect(),
            recovery,
        }
    }

    /// A `ClockStep` to `to` with error `error` at real time `at`.
    fn step(server: usize, at: f64, to: f64, error: f64) -> TelemetryEvent {
        TelemetryEvent::ClockStep {
            at: ts(at),
            server,
            from: ts(at),
            to: ts(to),
            error: dur(error),
        }
    }

    fn crash(server: usize) -> TelemetryEvent {
        TelemetryEvent::ServerCrashed {
            at: ts(0.0),
            server,
        }
    }

    fn restart(server: usize) -> TelemetryEvent {
        TelemetryEvent::ServerRestarted {
            at: ts(0.0),
            server,
            amnesia: false,
        }
    }

    /// A `StateRehydrated` at real time `real`: the re-derived `(clock,
    /// error)` and the persisted `(reset_clock, persisted_error)`.
    fn rehydrate(
        server: usize,
        real: f64,
        (clock, error): (f64, f64),
        (r, e): (f64, f64),
    ) -> TelemetryEvent {
        TelemetryEvent::StateRehydrated {
            at: ts(real),
            server,
            clock: ts(clock),
            error: dur(error),
            reset_clock: ts(r),
            persisted_error: dur(e),
        }
    }

    fn bootstrap(server: usize, rounds: u32) -> TelemetryEvent {
        TelemetryEvent::BootstrapCompleted {
            at: ts(0.0),
            server,
            rounds,
            clock: ts(0.0),
            error: Duration::ZERO,
        }
    }

    fn corrupt(server: usize, at: f64) -> TelemetryEvent {
        TelemetryEvent::StateCorrupted {
            at: ts(at),
            server,
            clock: ts(at),
            error: Duration::ZERO,
        }
    }

    #[test]
    fn clean_run_reports_clean() {
        let mut o = Oracle::new(7, OracleConfig::safety(), views(2));
        o.observe(&sample(10.0, &[state(10.001, 0.01), state(9.999, 0.01)]));
        o.observe(&sample(20.0, &[state(20.001, 0.011), state(19.999, 0.011)]));
        let report = o.finish();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.samples_checked, 2);
    }

    #[test]
    fn incorrect_server_is_flagged_with_seed_and_event() {
        let mut o = Oracle::new(42, OracleConfig::safety(), views(2));
        o.observe(&sample(10.0, &[state(10.0, 0.01), state(10.0, 0.01)]));
        // Server 1 claims 5 ms of error while being 50 ms off.
        o.observe(&sample(20.0, &[state(20.0, 0.011), state(20.05, 0.005)]));
        let report = o.finish();
        let v = report.first().expect("violation");
        assert_eq!(v.theorem, TheoremId::Correctness);
        assert_eq!(v.seed, 42);
        assert_eq!(v.event, 1);
        assert_eq!(v.server, 1);
        assert!(v.observed > v.bound);
    }

    #[test]
    fn untrusted_servers_are_exempt() {
        let mut servers = views(2);
        servers[1].trusted = false;
        let mut o = Oracle::new(0, OracleConfig::safety(), servers);
        o.observe(&sample(10.0, &[state(10.0, 0.01), state(13.0, 0.001)]));
        assert!(o.finish().is_clean());
    }

    #[test]
    fn error_jump_beyond_drift_growth_is_flagged() {
        let mut o = Oracle::new(3, OracleConfig::safety(), views(1));
        o.observe(&sample(0.0, &[state(0.0, 0.010)]));
        // δ = 1e-4 over 2 s allows ≈ 0.2 ms of growth; 5 ms is a breach
        // (exactly what a weakened MM-2 adoption guard would produce).
        o.observe(&sample(2.0, &[state(2.0, 0.015)]));
        let report = o.finish();
        let v = report.first().expect("violation");
        assert_eq!(v.theorem, TheoremId::ErrorGrowth);
    }

    #[test]
    fn error_growth_within_drift_passes() {
        let mut o = Oracle::new(3, OracleConfig::safety(), views(1));
        o.observe(&sample(0.0, &[state(0.0, 0.010)]));
        o.observe(&sample(2.0, &[state(2.0, 0.010 + 1.9e-4)]));
        // A reset that shrinks the error is always fine.
        o.observe(&sample(4.0, &[state(4.0, 0.002)]));
        assert!(o.finish().is_clean());
    }

    #[test]
    fn inactive_gap_resets_growth_baseline() {
        let mut o = Oracle::new(0, OracleConfig::safety(), views(1));
        o.observe(&sample(0.0, &[state(0.0, 0.010)]));
        o.observe(&sample(2.0, &[None]));
        // After an absence the baseline must not be the stale sample.
        o.observe(&sample(4.0, &[state(4.0, 0.5)]));
        assert!(o.finish().is_clean());
    }

    #[test]
    fn disjoint_intervals_violate_consistency() {
        // Both "correct-looking" individually is impossible here, so ask
        // the §5 row alone.
        let (a, b) = (state(10.0, 0.01), state(10.5, 0.01));
        let check = rules::consistency((0, 1), a.unwrap(), b.unwrap());
        let breach = check
            .breach
            .expect("0.5 s apart with 10 ms each is disjoint");
        assert!(check.margin.tightness() > 1.0);
        assert!(breach.observed > breach.bound);
        assert_eq!(breach.detail, "intervals of servers 0 and 1 are disjoint");
        // And the plain-safety oracle flags the same instant (as
        // correctness), proving the checks overlap as intended.
        let mut o = Oracle::new(0, OracleConfig::safety(), views(2));
        o.observe(&sample(10.0, &[a, b]));
        assert!(!o.finish().is_clean());
    }

    #[test]
    fn adoption_that_increases_error_is_flagged() {
        let mut o = Oracle::new(9, OracleConfig::safety(), views(1));
        o.observe(&adopt(0, 0.010, 0.025, &[], false));
        let report = o.finish();
        let v = report.first().expect("violation");
        assert_eq!(v.theorem, TheoremId::AdoptionGuard);
        assert_eq!(v.seed, 9);
    }

    #[test]
    fn recovery_adoptions_may_increase_error() {
        let mut o = Oracle::new(0, OracleConfig::safety(), views(1));
        o.observe(&adopt(0, 0.010, 0.025, &[], true));
        assert!(o.finish().is_clean());
    }

    #[test]
    fn intersection_wider_than_narrowest_input_is_flagged() {
        let mut o = Oracle::new(0, OracleConfig::safety(), views(1));
        // Width 0.08 > narrowest 0.06.
        o.observe(&adopt(0, 0.050, 0.040, &[0.10, 0.06], false));
        let report = o.finish();
        assert_eq!(
            report.first().expect("violation").theorem,
            TheoremId::IntersectionWidth
        );
    }

    #[test]
    fn sound_intersection_passes() {
        let mut o = Oracle::new(0, OracleConfig::safety(), views(1));
        o.observe(&adopt(0, 0.050, 0.020, &[0.10, 0.06], false));
        assert!(o.finish().is_clean());
    }

    #[test]
    fn mm_envelope_flags_runaway_error_gap() {
        let params = EnvelopeParams {
            kind: EnvelopeKind::Mm,
            xi: dur(0.01),
            tau: dur(10.0),
            warmup: ts(5.0),
        };
        let mut o = Oracle::new(0, OracleConfig::safety().envelope(params), views(2));
        // Before warmup nothing is checked.
        o.observe(&sample(1.0, &[state(1.0, 0.5), state(1.0, 0.01)]));
        // After warmup a 0.5 s error against a 10 ms best is far beyond
        // ξ + δ(τ+2ξ) ≈ 11 ms.
        o.observe(&sample(8.0, &[state(8.0, 0.5), state(8.0, 0.01)]));
        let report = o.finish();
        let v = report.first().expect("violation");
        assert_eq!(v.theorem, TheoremId::ErrorEnvelope);
        assert_eq!(v.event, 1);
    }

    #[test]
    fn im_envelope_flags_excess_skew() {
        let params = EnvelopeParams {
            kind: EnvelopeKind::Im,
            xi: dur(0.01),
            tau: dur(10.0),
            warmup: ts(0.0),
        };
        let cfg = OracleConfig::safety()
            .envelope(params)
            .without_trust_checks();
        let mut o = Oracle::new(0, cfg, views(2));
        // Thm 7 bound ≈ 0.01 + 2e-4·10 + 0.01 = 0.022; skew of 0.3 breaks it.
        o.observe(&sample(8.0, &[state(8.0, 0.5), state(8.3, 0.5)]));
        let report = o.finish();
        assert_eq!(
            report.first().expect("violation").theorem,
            TheoremId::ImAsynchronism
        );
    }

    #[test]
    fn tightness_keeps_each_predicates_worst_margin() {
        let mut o = Oracle::new(0, OracleConfig::safety(), views(2));
        // Offsets of 2 ms and 6 ms against 10 ms of error use 0.2 and
        // 0.6 of Theorem 1's bound; the later sample is looser.
        o.observe(&sample(10.0, &[state(10.002, 0.01), state(9.994, 0.01)]));
        o.observe(&sample(20.0, &[state(20.001, 0.011), state(20.0, 0.011)]));
        let report = o.finish();
        assert!(report.is_clean(), "{report}");
        let worst = report.tightness.worst(TheoremId::Correctness);
        let worst = worst.expect("every sample measures correctness");
        assert!((worst.tightness() - 0.6).abs() < 1e-9, "{worst:?}");
        assert_eq!(worst.bound, 0.01);
        assert_eq!(
            report.tightness.worst(TheoremId::ErrorEnvelope),
            None,
            "an unarmed row measures nothing"
        );
    }

    #[test]
    fn tightness_merges_by_share_of_bound() {
        let margin = |observed, bound| Margin { observed, bound };
        let mut a = Tightness::default();
        a.record(TheoremId::Consistency, margin(1.0, 4.0));
        a.record(TheoremId::Consistency, margin(0.1, 1.0));
        assert_eq!(a.worst(TheoremId::Consistency), Some(margin(1.0, 4.0)));
        let mut b = Tightness::default();
        b.record(TheoremId::Consistency, margin(3.0, 4.0));
        b.record(TheoremId::Lifecycle, margin(0.0, 8.0));
        a.merge(&b);
        assert_eq!(a.worst(TheoremId::Consistency), Some(margin(3.0, 4.0)));
        assert_eq!(a.worst(TheoremId::Lifecycle), Some(margin(0.0, 8.0)));
        let text = a.to_string();
        assert!(text.contains("Consistency        0.750"), "{text}");
        assert!(!text.contains("Correctness"), "{text}");
    }

    #[test]
    fn violation_overflow_is_counted_not_stored() {
        let mut o = Oracle::new(0, OracleConfig::safety(), views(1));
        for k in 0..(MAX_STORED_VIOLATIONS + 10) {
            o.observe(&sample(k as f64, &[state(k as f64 + 1.0, 0.001)]));
        }
        let report = o.finish();
        assert_eq!(report.violations.len(), MAX_STORED_VIOLATIONS);
        assert!(report.total_violations > MAX_STORED_VIOLATIONS);
        assert!(!report.is_clean());
        let text = report.to_string();
        assert!(text.contains("more"), "{text}");
    }

    #[test]
    fn mm_envelope_flags_excess_skew() {
        let params = EnvelopeParams {
            kind: EnvelopeKind::Mm,
            xi: dur(0.01),
            tau: dur(10.0),
            warmup: ts(0.0),
        };
        // Equal errors keep the E-gap at zero. A skew within E_i + E_j
        // never breaks Theorem 3's 2E_M + …, so the trust checks, which
        // would see the disjoint pair first, are off.
        let cfg = OracleConfig::safety()
            .envelope(params)
            .without_trust_checks();
        let mut o = Oracle::new(21, cfg, views(2));
        // Thm 3 bound ≈ 2·0.01 + 2·0.01 + 2e-4·(10 + 0.02) ≈ 0.042.
        o.observe(&sample(8.0, &[state(8.0, 0.01), state(8.3, 0.01)]));
        let report = o.finish();
        let v = report.first().expect("violation");
        assert_eq!(v.theorem, TheoremId::MmAsynchronism);
        assert_eq!((v.seed, v.server), (21, 0));
        assert_eq!(v.detail, "pair (0, 1)");
        assert!(v.observed > v.bound);
    }

    #[test]
    fn mm_skew_within_theorem_3_passes() {
        let params = EnvelopeParams {
            kind: EnvelopeKind::Mm,
            xi: dur(0.01),
            tau: dur(10.0),
            warmup: ts(0.0),
        };
        let cfg = OracleConfig::safety().envelope(params);
        let mut o = Oracle::new(0, cfg, views(2));
        // 30 ms of skew against a bound of ≈ 62 ms (E_M is 20 ms here);
        // each interval still contains real time and they intersect.
        o.observe(&sample(8.0, &[state(7.985, 0.02), state(8.015, 0.02)]));
        assert!(o.finish().is_clean());
    }

    /// Every predicate, in declaration order.
    fn every_theorem() -> [TheoremId; 14] {
        use TheoremId::*;
        for (k, id) in TheoremId::ALL.into_iter().enumerate() {
            // Exhaustive on purpose: a new variant fails to compile
            // here until it joins `TheoremId::ALL`.
            match id {
                Correctness | ErrorGrowth | AdoptionGuard | ErrorEnvelope | MmAsynchronism
                | IntersectionWidth | ImAsynchronism | Consistency | Rehydration | Lifecycle
                | FTolerant | Stabilization | ClusterMonotonic | ClusterBounded => {}
            }
            assert_eq!(id as usize, k, "{id:?} is out of declaration order");
        }
        TheoremId::ALL
    }

    #[test]
    fn every_theorem_id_cites_the_paper() {
        use TheoremId::*;
        for id in every_theorem() {
            let cited = match id {
                Correctness => "1",
                ErrorGrowth => "MM-1",
                AdoptionGuard => "MM-2",
                ErrorEnvelope => "2",
                MmAsynchronism => "3",
                IntersectionWidth => "6",
                ImAsynchronism => "7",
                Consistency | Lifecycle | Stabilization => "5",
                Rehydration => "MM-1",
                FTolerant => "4",
                ClusterMonotonic => "monotonic",
                ClusterBounded => "intersection",
            };
            assert!(id.paper_ref().contains(cited), "{id}");
        }
    }

    /// DESIGN.md § "Oracle & theorem checking" tabulates the predicates
    /// for readers; its first column must name exactly the variants, in
    /// order.
    #[test]
    fn design_md_tabulates_exactly_the_theorem_ids() {
        let doc = include_str!("../../../DESIGN.md");
        let section = doc
            .split("\n### ")
            .find(|s| s.starts_with("Oracle & theorem checking"))
            .expect("DESIGN.md has an Oracle & theorem checking section");
        let tabulated: Vec<&str> = section
            .lines()
            .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
            .collect();
        let variants: Vec<String> = every_theorem().iter().map(|id| format!("{id:?}")).collect();
        assert_eq!(tabulated, variants);
    }

    #[test]
    fn sample_served_while_down_is_flagged() {
        let mut o = Oracle::new(11, OracleConfig::safety(), views(2));
        o.observe(&sample(10.0, &[state(10.0, 0.01), state(10.0, 0.01)]));
        o.observe(&crash(1));
        // Silence is what the lifecycle demands …
        o.observe(&sample(20.0, &[state(20.0, 0.011), None]));
        // … so a present sample is a breach even if numerically correct.
        o.observe(&sample(30.0, &[state(30.0, 0.012), state(30.0, 0.01)]));
        let report = o.finish();
        let v = report.first().expect("violation");
        assert_eq!(v.theorem, TheoremId::Lifecycle);
        assert_eq!(v.server, 1);
        assert_eq!(v.event, 2);
        assert_eq!(report.total_violations, 1);
    }

    #[test]
    fn full_lifecycle_with_silence_is_clean() {
        let mut o = Oracle::new(0, OracleConfig::safety(), views(2));
        o.observe(&sample(10.0, &[state(10.0, 0.01), state(10.0, 0.01)]));
        o.observe(&crash(1));
        o.observe(&sample(20.0, &[state(20.0, 0.011), None]));
        o.observe(&restart(1));
        o.observe(&sample(25.0, &[state(25.0, 0.0112), None]));
        o.observe(&bootstrap(1, 2));
        o.observe(&sample(30.0, &[state(30.0, 0.0114), state(30.0, 0.02)]));
        let report = o.finish();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.lifecycle_checked, 3);
    }

    #[test]
    fn bootstrap_beyond_round_bound_is_flagged() {
        let mut o = Oracle::new(5, OracleConfig::safety(), views(1));
        o.observe(&crash(0));
        o.observe(&restart(0));
        o.observe(&bootstrap(0, 9));
        let report = o.finish();
        let v = report.first().expect("violation");
        assert_eq!(v.theorem, TheoremId::Lifecycle);
        assert!(v.observed > v.bound);
    }

    #[test]
    fn faithful_rehydration_passes() {
        let mut o = Oracle::new(0, OracleConfig::safety(), views(1));
        o.observe(&crash(0));
        o.observe(&restart(0));
        // δ = 1e-4, 100 s since the persisted reset → E = 1 ms + 10 ms.
        o.observe(&rehydrate(0, 200.0, (200.002, 0.011), (100.002, 0.001)));
        o.observe(&bootstrap(0, 0));
        assert!(o.finish().is_clean());
    }

    #[test]
    fn understated_rehydrated_error_is_flagged() {
        let mut o = Oracle::new(0, OracleConfig::safety(), views(1));
        o.observe(&crash(0));
        o.observe(&restart(0));
        // Claims the persisted error verbatim, ignoring 100 s of drift.
        o.observe(&rehydrate(0, 200.0, (200.0, 0.001), (100.0, 0.001)));
        let report = o.finish();
        assert_eq!(
            report.first().expect("violation").theorem,
            TheoremId::Rehydration
        );
    }

    #[test]
    fn rehydrated_interval_excluding_real_time_is_flagged() {
        let mut o = Oracle::new(0, OracleConfig::safety(), views(1));
        o.observe(&crash(0));
        o.observe(&restart(0));
        // Correctly derived, but the clock is 1 s off with 11 ms of error:
        // the downtime drift bound cannot have held.
        o.observe(&rehydrate(0, 200.0, (201.0, 0.011), (101.0, 0.001)));
        let report = o.finish();
        let v = report.first().expect("violation");
        assert_eq!(v.theorem, TheoremId::Rehydration);
        assert!(v.detail.contains("excludes real time"), "{}", v.detail);
    }

    #[test]
    fn untrusted_servers_skip_lifecycle_checks() {
        let mut servers = views(1);
        servers[0].trusted = false;
        let mut o = Oracle::new(0, OracleConfig::safety(), servers);
        o.observe(&crash(0));
        o.observe(&sample(10.0, &[state(10.0, 0.01)]));
        o.observe(&restart(0));
        o.observe(&bootstrap(0, 99));
        assert!(o.finish().is_clean());
    }

    #[test]
    fn adoption_excluding_real_time_violates_f_tolerance() {
        let mut o = Oracle::new(13, OracleConfig::safety().f_tolerant(), views(1));
        // Sound adoption: centre 30.02 with radius 50 ms contains 30.0.
        o.observe(&step(0, 30.0, 30.02, 0.05));
        // A colluding clique beyond the budget drags the hull off true
        // time: centre 30.5 with radius 10 ms excludes 30.0.
        o.observe(&step(0, 30.0, 30.5, 0.01));
        let report = o.finish();
        let v = report.first().expect("violation");
        assert_eq!(v.theorem, TheoremId::FTolerant);
        assert_eq!(v.seed, 13);
        assert_eq!(report.total_violations, 1);
        assert_eq!(report.resets_checked, 2);
    }

    #[test]
    fn f_tolerance_exempts_recovery_down_and_unarmed() {
        // Unarmed: nothing is checked at all.
        let mut o = Oracle::new(0, OracleConfig::safety(), views(1));
        o.observe(&step(0, 30.0, 40.0, 0.01));
        let report = o.finish();
        assert!(report.is_clean());
        assert_eq!(report.resets_checked, 0);
        // Recovery adoptions are taken on faith.
        let mut o = Oracle::new(0, OracleConfig::safety().f_tolerant(), views(1));
        o.observe(&adopt(0, 0.01, 0.5, &[], true));
        o.observe(&step(0, 30.0, 40.0, 0.01));
        // … but only the one immediately following the recovery record.
        o.observe(&step(0, 50.0, 60.0, 0.01));
        let report = o.finish();
        assert_eq!(report.total_violations, 1);
        // A down server's bootstrap resets are not adoption decisions.
        let mut o = Oracle::new(0, OracleConfig::safety().f_tolerant(), views(1));
        o.observe(&crash(0));
        o.observe(&restart(0));
        o.observe(&step(0, 30.0, 40.0, 0.01));
        assert!(o.finish().is_clean());
    }

    #[test]
    fn corruption_window_suspends_sample_checks() {
        let mut o = Oracle::new(0, OracleConfig::safety(), views(2));
        o.observe(&sample(10.0, &[state(10.0, 0.01), state(10.0, 0.01)]));
        o.observe(&corrupt(1, 15.0));
        // Server 1 is 40 s off with a tiny claim — correctness, growth,
        // and consistency would all fire, but the window exempts it.
        o.observe(&sample(20.0, &[state(20.0, 0.011), state(60.0, 0.001)]));
        // Its first legitimate sample ends the window, and is checked.
        o.observe(&sample(30.0, &[state(30.0, 0.012), state(30.01, 0.02)]));
        assert_eq!(o.corrupted[1], None);
        let report = o.finish();
        assert!(report.is_clean(), "{report}");
        let worst = report.tightness.worst(TheoremId::Correctness);
        let worst = worst.expect("server 1's row ran on its first legitimate sample");
        assert_eq!(worst.bound, 0.02);
    }

    #[test]
    fn slow_stabilization_is_flagged() {
        let cfg = OracleConfig::safety().stabilization(dur(30.0));
        let mut o = Oracle::new(17, cfg, views(2));
        o.observe(&corrupt(0, 100.0));
        o.observe(&sample(120.0, &[state(121.0, 0.01), state(120.0, 0.01)]));
        o.observe(&sample(145.0, &[state(145.001, 0.01), state(145.0, 0.01)]));
        let report = o.finish();
        let v = report.first().expect("violation");
        assert_eq!(v.theorem, TheoremId::Stabilization);
        assert_eq!((v.seed, v.event, v.server), (17, 1, 0));
        assert_eq!((v.observed, v.bound), (45.0, 30.0));
        assert!(v.detail.contains("stabilized only"), "{}", v.detail);
        assert_eq!(report.total_violations, 1, "{report}");
    }

    #[test]
    fn stabilization_within_bound_is_clean() {
        let cfg = OracleConfig::safety().stabilization(dur(30.0));
        let mut o = Oracle::new(0, cfg, views(1));
        o.observe(&corrupt(0, 100.0));
        o.observe(&sample(104.0, &[state(107.0, 0.01)]));
        o.observe(&sample(112.0, &[state(112.001, 0.01)]));
        let report = o.finish();
        assert!(report.is_clean(), "{report}");
        let margin = report.tightness.worst(TheoremId::Stabilization);
        assert_eq!(margin.map(|m| (m.observed, m.bound)), Some((12.0, 30.0)));
    }

    #[test]
    fn never_stabilizing_is_flagged_at_finish() {
        let cfg = OracleConfig::safety().stabilization(dur(30.0));
        let mut o = Oracle::new(0, cfg, views(2));
        o.observe(&corrupt(1, 100.0));
        o.observe(&sample(200.0, &[state(200.0, 0.01), state(260.0, 0.001)]));
        let report = o.finish();
        let v = report.first().expect("violation");
        assert_eq!(v.theorem, TheoremId::Stabilization);
        assert_eq!(v.server, 1);
        assert!(v.detail.contains("never stabilized"), "{}", v.detail);
        // ~100 s outstanding against a 30 s bound.
        assert!(v.observed > v.bound);
    }

    #[test]
    fn legitimate_only_after_the_bound_is_flagged_with_its_margin() {
        let cfg = OracleConfig::safety().stabilization(dur(30.0));
        let mut o = Oracle::new(3, cfg, views(2));
        o.observe(&corrupt(1, 50.0));
        for t in [60.0, 70.0, 80.0] {
            o.observe(&sample(t, &[state(t, 0.01), state(t + 5.0, 0.01)]));
        }
        o.observe(&sample(90.0, &[state(90.0, 0.01), state(90.002, 0.01)]));
        o.observe(&sample(
            100.0,
            &[state(100.0, 0.011), state(100.002, 0.011)],
        ));
        let report = o.finish();
        assert_eq!(report.total_violations, 1, "{report}");
        let v = report.first().expect("violation");
        assert_eq!(v.theorem, TheoremId::Stabilization);
        assert_eq!((v.event, v.server), (3, 1));
        assert_eq!((v.observed, v.bound), (40.0, 30.0));
        let margin = report.tightness.worst(TheoremId::Stabilization);
        assert_eq!(margin.map(|m| m.tightness()), Some(40.0 / 30.0));
    }

    #[test]
    fn adopting_rounds_while_incorrect_is_no_stabilization() {
        let cfg = OracleConfig::safety().stabilization(dur(30.0)).f_tolerant();
        let mut o = Oracle::new(5, cfg, views(2));
        o.observe(&corrupt(1, 10.0));
        for t in [20.0, 30.0, 40.0, 50.0] {
            // Each round raises E and steps off real time: the adoption
            // guard, Theorem 6 and f-tolerance would all fire, but a
            // server not yet legitimate is exempt from them.
            o.observe(&adopt(1, 0.01, 0.02, &[0.01], false));
            o.observe(&step(1, t, t + 3.0, 0.02));
            o.observe(&sample(t, &[state(t, 0.01), state(t + 3.0, 0.02)]));
        }
        assert!(o.corrupted[1].is_some(), "still exempt");
        let report = o.finish();
        assert_eq!(report.total_violations, 1, "{report}");
        let v = report.first().expect("violation");
        assert_eq!(v.theorem, TheoremId::Stabilization);
        assert!(v.detail.contains("never stabilized"), "{}", v.detail);
        assert_eq!((v.event, v.observed, v.bound), (4, 40.0, 30.0));
    }

    #[test]
    fn a_relapse_after_stabilizing_is_a_correctness_breach() {
        let cfg = OracleConfig::safety().stabilization(dur(30.0));
        let mut o = Oracle::new(9, cfg, views(2));
        o.observe(&corrupt(1, 10.0));
        o.observe(&sample(12.0, &[state(12.0, 0.01), state(12.001, 0.01)]));
        o.observe(&sample(14.0, &[state(14.0, 0.01), state(14.0, 0.01)]));
        o.observe(&sample(16.0, &[state(16.0, 0.01), state(16.5, 0.0101)]));
        let report = o.finish();
        let margin = report.tightness.worst(TheoremId::Stabilization);
        assert_eq!(margin.map(|m| m.observed), Some(2.0));
        let v = report.first().expect("violation");
        assert_eq!(v.theorem, TheoremId::Correctness);
        assert_eq!((v.event, v.server), (2, 1));
    }

    #[test]
    fn legitimacy_includes_the_envelope_once_warm() {
        let params = EnvelopeParams {
            kind: EnvelopeKind::Mm,
            xi: dur(0.01),
            tau: dur(10.0),
            warmup: ts(0.0),
        };
        let cfg = OracleConfig::safety().envelope(params);
        let mut o = Oracle::new(0, cfg, views(2));
        o.observe(&corrupt(1, 5.0));
        // Correct and consistent, but 0.49 s above the best E against a
        // Theorem 2 gap of ≈ 11 ms: not yet legitimate.
        o.observe(&sample(8.0, &[state(8.0, 0.01), state(8.0, 0.5)]));
        assert!(o.corrupted[1].is_some());
        o.observe(&sample(10.0, &[state(10.0, 0.01), state(10.0, 0.015)]));
        assert_eq!(o.corrupted[1], None);
        let report = o.finish();
        assert!(report.is_clean(), "{report}");
    }

    /// Judged stabilization against a brute-force reference: random
    /// streams of samples after one `StateCorrupted`. The exemption ends
    /// exactly at the first sample where the corrupted server is correct
    /// (and consistent with every other server, when the trust checks
    /// are armed), never earlier; with the trust checks armed every
    /// later incorrect sample is a `Correctness` breach of that server.
    #[test]
    fn the_exemption_ends_at_the_first_legitimate_sample() {
        tempo_check::check("judged stabilization", 512, |g| {
            let n = g.int(2..=3usize);
            let victim = g.int(0..n);
            let trust = g.bool();
            let mut cfg = OracleConfig::safety().stabilization(dur(1e6));
            if !trust {
                cfg = cfg.without_trust_checks();
            }
            let mut o = Oracle::new(0, cfg, views(n));
            o.observe(&corrupt(victim, 15.0));
            let (mut end, mut relapses) = (None, Vec::new());
            for k in 0..g.int(1..=8usize) {
                let real = 20.0 + 2.0 * k as f64;
                let states: Vec<(f64, f64)> = (0..n)
                    .map(|i| {
                        let error = if i == victim {
                            g.f64(0.001..0.03)
                        } else {
                            0.01
                        };
                        // Honest clocks stray past their error 1 time in 8.
                        let stray = i != victim && g.int(0..8) == 0;
                        let reach = if i == victim || stray { 0.05 } else { 0.009 };
                        (real + g.f64(-reach..reach), error)
                    })
                    .collect();
                let correct = |(c, e): (f64, f64)| (c - real).abs() <= e;
                let (cv, ev) = states[victim];
                let consistent = states.iter().all(|&(c, e)| (c - cv).abs() <= e + ev);
                let legitimate = correct(states[victim]) && (!trust || consistent);
                if end.is_none() && legitimate {
                    end = Some(k);
                } else if end.is_some() && !correct(states[victim]) {
                    relapses.push(k);
                }
                let states: Vec<_> = states.iter().map(|&(c, e)| state(c, e)).collect();
                o.observe(&sample(real, &states));
                assert_eq!(o.corrupted[victim].is_none(), end.is_some(), "sample {k}");
            }
            let report = o.finish();
            assert!(report.total_violations <= MAX_STORED_VIOLATIONS);
            let flagged: Vec<usize> = report
                .violations
                .iter()
                .filter(|v| v.server == victim && v.theorem == TheoremId::Correctness)
                .map(|v| v.event)
                .collect();
            assert_eq!(flagged, if trust { relapses } else { Vec::new() });
            let stabilized = report.tightness.worst(TheoremId::Stabilization);
            let expected = end.map(|k| 5.0 + 2.0 * k as f64);
            assert_eq!(stabilized.map(|m| m.observed), expected);
        });
    }

    #[test]
    fn crash_resets_the_growth_baseline() {
        let mut o = Oracle::new(0, OracleConfig::safety(), views(1));
        o.observe(&sample(0.0, &[state(0.0, 0.001)]));
        o.observe(&crash(0));
        o.observe(&bootstrap(0, 0));
        // The error grew across downtime far beyond per-sample drift;
        // that is legitimate — the baseline died with the process.
        o.observe(&sample(100.0, &[state(100.0, 0.5)]));
        assert!(o.finish().is_clean());
    }

    /// Hands the oracle to a bus and takes it back once the bus is gone.
    fn armed(oracle: Oracle) -> (Bus, Rc<RefCell<Oracle>>) {
        let bus = Bus::new();
        let oracle = Rc::new(RefCell::new(oracle));
        bus.subscribe(Rc::clone(&oracle));
        (bus, oracle)
    }

    fn disarmed(bus: Bus, oracle: Rc<RefCell<Oracle>>) -> Oracle {
        drop(bus);
        Rc::try_unwrap(oracle)
            .expect("the bus held the only other handle")
            .into_inner()
    }

    #[test]
    fn a_bus_delivers_the_eight_checked_kinds_and_builds_no_other() {
        use EventKind::*;
        let checked = [
            Sample,
            RoundAdopt,
            ClockStep,
            ServerCrashed,
            ServerRestarted,
            StateRehydrated,
            BootstrapCompleted,
            StateCorrupted,
        ];
        let (bus, oracle) = armed(Oracle::new(
            0,
            OracleConfig::safety().f_tolerant(),
            views(1),
        ));
        for kind in EventKind::ALL {
            assert_eq!(bus.enabled(kind), checked.contains(&kind), "{kind:?}");
        }
        let count = |bus: &Bus, oracle: &Rc<RefCell<Oracle>>, event| {
            bus.emit(event);
            let o = oracle.borrow();
            let rounds = o.rounds_checked.iter().sum();
            (
                o.samples_checked,
                rounds,
                o.lifecycle_checked,
                o.resets_checked,
            )
        };
        // Each kind moves the counter its report documents.
        let events = [
            (sample(10.0, &[state(10.0, 0.01)]), (1, 0, 0, 0)),
            (adopt(0, 0.01, 0.005, &[], false), (1, 1, 0, 0)),
            (step(0, 30.0, 30.001, 0.005), (1, 1, 0, 1)),
            (corrupt(0, 40.0), (1, 1, 1, 1)),
            (sample(45.0, &[state(45.0, 0.01)]), (2, 1, 1, 1)),
            (crash(0), (2, 1, 2, 1)),
            (restart(0), (2, 1, 3, 1)),
            (
                rehydrate(0, 200.0, (200.002, 0.011), (100.002, 0.001)),
                (2, 1, 4, 1),
            ),
            (bootstrap(0, 0), (2, 1, 5, 1)),
        ];
        for (event, counts) in events {
            let kind = event.kind();
            assert_eq!(count(&bus, &oracle, event), counts, "{kind:?}");
        }
        // A kind the oracle does not check never reaches the mask, so
        // the bus does not even build it for `observe`.
        assert!(!bus.enabled(RoundBegin));
        bus.emit_with(RoundBegin, || unreachable!("a round_begin was built"));
        let report = disarmed(bus, oracle).finish();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.rounds_checked, 1);
    }
}
