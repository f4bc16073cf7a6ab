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
//! The oracle is pure: it never touches the network or the servers. The
//! simulation feeds it per-sample snapshots ([`Oracle::observe_sample`]),
//! per-reset round records ([`Oracle::observe_round`]), and crash–restart
//! lifecycle transitions ([`Oracle::observe_crash`],
//! [`Oracle::observe_restart`], [`Oracle::observe_rehydration`],
//! [`Oracle::observe_bootstrap_complete`]); it returns a
//! structured [`OracleReport`] whose [`Violation`]s carry everything
//! needed to reproduce: the scenario seed, the event index, the server,
//! the predicate, and the observed-vs-bound pair.
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
pub mod rules;

use std::fmt;

use tempo_core::{DriftRate, Duration, Timestamp};

use rules::Breach;

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
    /// overwritten with garbage must pass the §5 consistency screen
    /// again — and thereby rejoin the consistency group — within the
    /// configured bound (a small multiple of the resync period).
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
    /// * sample checks carry the sample index;
    /// * round checks carry that server's own round count (its rounds
    ///   before this one);
    /// * reset, rehydration, bootstrap and stabilization checks
    ///   (including those at [`Oracle::finish`]) carry the number of
    ///   samples checked so far;
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
    /// The *effective* inter-reset spacing (nominal period plus jitter
    /// plus collection window — see the E5/E8 experiments).
    pub tau: Duration,
    /// Real time before which the envelope is not checked (the service
    /// needs a few rounds to reach steady state).
    pub warmup: Timestamp,
    /// Extra slack granted on top of the theorem bound, absorbing the
    /// discreteness of sampling and non-simultaneous resets.
    pub slack: Duration,
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
    /// Self-stabilization bound: a state-corrupted server must emit
    /// `Stabilized` within this much real time of its corruption (and
    /// before the run ends). `None` disables the family.
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

/// One server's state at a sampling instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleState {
    /// The served clock reading `C_i(t)`.
    pub clock: Timestamp,
    /// The claimed error `E_i(t)`.
    pub error: Duration,
}

/// One synthesis decision, as reported by the service layer.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundObservation {
    /// Served clock at the decision instant.
    pub clock: Timestamp,
    /// `E_i` immediately before the decision.
    pub error_before: Duration,
    /// `E_i` written by the reset.
    pub error_after: Duration,
    /// Full widths of the candidate intervals (own first, each reply
    /// widened by its round-trip allowance). Empty when the strategy is
    /// not interval-synthesising (MM records leave it empty).
    pub input_widths: Vec<Duration>,
    /// True for §3 recovery adoptions, which are unconditional and may
    /// legitimately increase `E`.
    pub recovery: bool,
}

/// What a durably restarted server claims to have rehydrated from
/// stable storage (mirrors the `StateRehydrated` telemetry event).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RehydrationObservation {
    /// The clock reading at the rehydration instant.
    pub clock: Timestamp,
    /// The error the server re-derived for that reading.
    pub error: Duration,
    /// The persisted reset point `r` it derived from.
    pub reset_clock: Timestamp,
    /// The persisted inherited error `ε` it derived from.
    pub persisted_error: Duration,
}

/// Keep at most this many violations verbatim; the total is still counted.
const MAX_STORED_VIOLATIONS: usize = 64;

/// What one run has found: the first [`MAX_STORED_VIOLATIONS`]
/// violations verbatim, and how many there were. Both oracles keep one,
/// and [`Findings::flag`] is the only code that builds a [`Violation`].
#[derive(Debug)]
struct Findings {
    seed: u64,
    stored: Vec<Violation>,
    total: usize,
}

impl Findings {
    fn new(seed: u64) -> Self {
        Findings {
            seed,
            stored: Vec::new(),
            total: 0,
        }
    }

    /// Records a row's breach, if it found one, as `server` violating
    /// `theorem` at `event`.
    #[inline]
    fn flag(&mut self, event: usize, server: usize, theorem: TheoremId, breach: Option<Breach>) {
        let Some(breach) = breach else {
            return;
        };
        self.total += 1;
        if self.stored.len() < MAX_STORED_VIOLATIONS {
            self.stored.push(Violation {
                seed: self.seed,
                event,
                server,
                theorem,
                observed: breach.observed,
                bound: breach.bound,
                detail: breach.detail,
            });
        }
    }
}

/// Writes a report's stored violations, one per line, then how many
/// more its `total` counted.
fn write_violations(f: &mut fmt::Formatter<'_>, stored: &[Violation], total: usize) -> fmt::Result {
    for v in stored {
        writeln!(f, "  {v}")?;
    }
    if total > stored.len() {
        writeln!(f, "  … and {} more", total - stored.len())?;
    }
    Ok(())
}

/// The checker. Feed it samples and round records, then [`finish`].
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
    /// matching `Stabilized`; a corrupted server is exempt from the
    /// per-sample families (its state is arbitrary by construction) but
    /// on the clock for the stabilization bound.
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
    /// `states[i]` the snapshot of server `i` (`None` while it is not
    /// part of the service).
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` differs from the server count.
    pub fn observe_sample(&mut self, real: Timestamp, states: &[Option<SampleState>]) {
        assert_eq!(
            states.len(),
            self.servers.len(),
            "oracle was built for {} servers",
            self.servers.len()
        );
        let event = self.samples_checked;
        self.samples_checked += 1;
        self.last_real = self.last_real.max(real);
        let trust = self.config.trust_checks;

        // The servers the theorems speak for at this instant: present,
        // trusted and uncorrupted, in index order.
        let mut live = Vec::with_capacity(states.len());
        for (i, state) in states.iter().enumerate() {
            let Some(s) = *state else {
                self.prev[i] = None;
                continue;
            };
            if !self.servers[i].trusted {
                continue;
            }
            if self.corrupted[i].is_some() {
                // An arbitrary state proves nothing about correctness,
                // growth, or consistency; the stabilization clock is
                // what this server is being held to.
                self.prev[i] = None;
                continue;
            }
            // The sample exists at all — a crashed/booting server must
            // stay silent until its bootstrap completes.
            let down = rules::served_while_down(i, self.down[i]);
            self.findings.flag(event, i, TheoremId::Lifecycle, down);
            if trust {
                let correct = rules::correctness(real, s);
                self.findings
                    .flag(event, i, TheoremId::Correctness, correct);
                let delta = self.servers[i].drift_bound;
                let growth = rules::error_growth(self.prev[i], real, s.error, delta);
                self.findings.flag(event, i, TheoremId::ErrorGrowth, growth);
            }
            self.prev[i] = Some((real, s.error));
            live.push((i, s));
        }

        if trust {
            for (k, &(i, a)) in live.iter().enumerate() {
                for &(j, b) in &live[k + 1..] {
                    let consistent = rules::consistency((i, j), a, b);
                    self.findings
                        .flag(event, i, TheoremId::Consistency, consistent);
                }
            }
        }
        if let Some(envelope) = self.config.envelope.filter(|e| real >= e.warmup) {
            self.check_envelope(&envelope, &live, event);
        }
    }

    /// The steady-state rows over the live servers: each server's E-gap
    /// (under MM), then its pairs' skews.
    fn check_envelope(
        &mut self,
        env: &EnvelopeParams,
        live: &[(usize, SampleState)],
        event: usize,
    ) {
        // E_M stand-in: the most accurate live server right now.
        let Some(e_min) = live.iter().map(|(_, s)| s.error).min() else {
            return;
        };
        for (k, &(i, a)) in live.iter().enumerate() {
            let delta_i = self.servers[i].drift_bound;
            if env.kind == EnvelopeKind::Mm {
                let gap = rules::error_envelope(a.error, e_min, delta_i, env);
                self.findings.flag(event, i, TheoremId::ErrorEnvelope, gap);
            }
            for &(j, b) in &live[k + 1..] {
                let deltas = (delta_i, self.servers[j].drift_bound);
                let (theorem, skew) = match env.kind {
                    EnvelopeKind::Mm => (
                        TheoremId::MmAsynchronism,
                        rules::mm_asynchronism((i, j), a, b, e_min, deltas, env),
                    ),
                    EnvelopeKind::Im => (
                        TheoremId::ImAsynchronism,
                        rules::im_asynchronism((i, j), a, b, deltas, env),
                    ),
                };
                self.findings.flag(event, i, theorem, skew);
            }
        }
    }

    /// Checks one synthesis decision of server `server`.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn observe_round(&mut self, server: usize, round: &RoundObservation) {
        let event = self.rounds_checked[server];
        self.rounds_checked[server] += 1;
        // The reset event that follows this record inherits its recovery
        // flag: unconditional (§3-style) adoptions are exempt from the
        // f-tolerance check.
        self.pending_recovery[server] = round.recovery;
        if !self.servers[server].trusted || self.corrupted[server].is_some() {
            return;
        }
        let guard = rules::adoption_guard(round);
        self.findings
            .flag(event, server, TheoremId::AdoptionGuard, guard);
        let width = rules::intersection_width(round);
        self.findings
            .flag(event, server, TheoremId::IntersectionWidth, width);
    }

    /// Checks one applied reset (a `ClockStep`/`ClockSlew` event):
    /// under the §4 fault budget, the interval a correct server *adopts*
    /// — centre `center`, radius `error`, applied at real time `at` —
    /// must contain real time. Recovery adoptions (flagged by the
    /// preceding round record) are taken on faith and exempt, as are
    /// down, corrupted, and untrusted servers.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn observe_reset(
        &mut self,
        server: usize,
        at: Timestamp,
        center: Timestamp,
        error: Duration,
    ) {
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
            .flag(self.samples_checked, server, TheoremId::FTolerant, adopted);
    }

    /// Records that `server`'s state was transiently overwritten with
    /// garbage (a `StateCorrupted` event): from here until the matching
    /// [`observe_stabilized`] the per-sample families are suspended for
    /// it and the stabilization clock runs.
    ///
    /// [`observe_stabilized`]: Oracle::observe_stabilized
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn observe_corruption(&mut self, server: usize, at: Timestamp) {
        self.lifecycle_checked += 1;
        self.last_real = self.last_real.max(at);
        self.corrupted[server] = Some(at);
        // The growth baseline is garbage now too.
        self.prev[server] = None;
    }

    /// Records that `server` declared itself stabilized `elapsed` after
    /// its corruption: the window must respect the configured bound.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn observe_stabilized(&mut self, server: usize, at: Timestamp, elapsed: Duration) {
        self.lifecycle_checked += 1;
        self.last_real = self.last_real.max(at);
        self.corrupted[server] = None;
        // Fresh start for the growth check: the pre-corruption baseline
        // is ancient history.
        self.prev[server] = None;
        let Some(bound) = self.config.stabilization_bound else {
            return;
        };
        if self.servers[server].trusted {
            let late = rules::stabilization_late(elapsed, bound);
            self.findings
                .flag(self.samples_checked, server, TheoremId::Stabilization, late);
        }
    }

    /// Records that `server` crashed: from here until its bootstrap
    /// completes it must present no samples.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn observe_crash(&mut self, server: usize) {
        self.lifecycle_checked += 1;
        self.down[server] = true;
        // The growth baseline dies with the process; the hardware clock
        // keeps running, so the next observed error may be much larger.
        self.prev[server] = None;
    }

    /// Records that `server` restarted. The server stays *down* for
    /// checking purposes until [`observe_bootstrap_complete`] — a
    /// durable restart promotes immediately (it completes a zero-round
    /// bootstrap), an amnesia restart only after a §5 quorum read.
    ///
    /// [`observe_bootstrap_complete`]: Oracle::observe_bootstrap_complete
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn observe_restart(&mut self, server: usize) {
        self.lifecycle_checked += 1;
        self.down[server] = true;
    }

    /// Checks a durable restart's rehydrated state: the re-derived error
    /// must be exactly rule MM-1 applied to the persisted `(r, ε)` pair,
    /// and the rehydrated interval must still contain real time `real`
    /// (the hardware clock honoured its drift bound while the server was
    /// down).
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn observe_rehydration(
        &mut self,
        server: usize,
        real: Timestamp,
        obs: &RehydrationObservation,
    ) {
        self.lifecycle_checked += 1;
        let view = self.servers[server];
        if !view.trusted {
            return;
        }
        let event = self.samples_checked;
        let derived = rules::rehydration_derivation(obs, view.drift_bound);
        self.findings
            .flag(event, server, TheoremId::Rehydration, derived);
        let contained = rules::rehydration_containment(real, obs);
        self.findings
            .flag(event, server, TheoremId::Rehydration, contained);
    }

    /// Records that `server` finished bootstrapping in `rounds` quorum
    /// rounds (zero for a durable restart) and may serve again.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn observe_bootstrap_complete(&mut self, server: usize, rounds: u32) {
        self.lifecycle_checked += 1;
        self.down[server] = false;
        if self.servers[server].trusted {
            let slow = rules::bootstrap_rounds(rounds, self.config.max_bootstrap_rounds);
            self.findings
                .flag(self.samples_checked, server, TheoremId::Lifecycle, slow);
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
        }
    }
}

/// The structured outcome of an oracle-gated run.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleReport {
    /// The first [`MAX_STORED_VIOLATIONS`] violations, in event order.
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
        write_violations(f, &self.violations, self.total_violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn state(clock: f64, error: f64) -> Option<SampleState> {
        Some(SampleState {
            clock: ts(clock),
            error: dur(error),
        })
    }

    #[test]
    fn clean_run_reports_clean() {
        let mut o = Oracle::new(7, OracleConfig::safety(), views(2));
        o.observe_sample(ts(10.0), &[state(10.001, 0.01), state(9.999, 0.01)]);
        o.observe_sample(ts(20.0), &[state(20.001, 0.011), state(19.999, 0.011)]);
        let report = o.finish();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.samples_checked, 2);
    }

    #[test]
    fn incorrect_server_is_flagged_with_seed_and_event() {
        let mut o = Oracle::new(42, OracleConfig::safety(), views(2));
        o.observe_sample(ts(10.0), &[state(10.0, 0.01), state(10.0, 0.01)]);
        // Server 1 claims 5 ms of error while being 50 ms off.
        o.observe_sample(ts(20.0), &[state(20.0, 0.011), state(20.05, 0.005)]);
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
        o.observe_sample(ts(10.0), &[state(10.0, 0.01), state(13.0, 0.001)]);
        assert!(o.finish().is_clean());
    }

    #[test]
    fn error_jump_beyond_drift_growth_is_flagged() {
        let mut o = Oracle::new(3, OracleConfig::safety(), views(1));
        o.observe_sample(ts(0.0), &[state(0.0, 0.010)]);
        // δ = 1e-4 over 2 s allows ≈ 0.2 ms of growth; 5 ms is a breach
        // (exactly what a weakened MM-2 adoption guard would produce).
        o.observe_sample(ts(2.0), &[state(2.0, 0.015)]);
        let report = o.finish();
        let v = report.first().expect("violation");
        assert_eq!(v.theorem, TheoremId::ErrorGrowth);
    }

    #[test]
    fn error_growth_within_drift_passes() {
        let mut o = Oracle::new(3, OracleConfig::safety(), views(1));
        o.observe_sample(ts(0.0), &[state(0.0, 0.010)]);
        o.observe_sample(ts(2.0), &[state(2.0, 0.010 + 1.9e-4)]);
        // A reset that shrinks the error is always fine.
        o.observe_sample(ts(4.0), &[state(4.0, 0.002)]);
        assert!(o.finish().is_clean());
    }

    #[test]
    fn inactive_gap_resets_growth_baseline() {
        let mut o = Oracle::new(0, OracleConfig::safety(), views(1));
        o.observe_sample(ts(0.0), &[state(0.0, 0.010)]);
        o.observe_sample(ts(2.0), &[None]);
        // After an absence the baseline must not be the stale sample.
        o.observe_sample(ts(4.0), &[state(4.0, 0.5)]);
        assert!(o.finish().is_clean());
    }

    #[test]
    fn disjoint_intervals_violate_consistency() {
        // Both "correct-looking" individually is impossible here, so ask
        // the §5 row alone.
        let (a, b) = (state(10.0, 0.01), state(10.5, 0.01));
        let breach = rules::consistency((0, 1), a.unwrap(), b.unwrap());
        let breach = breach.expect("0.5 s apart with 10 ms each is disjoint");
        assert!(breach.observed > breach.bound);
        assert_eq!(breach.detail, "intervals of servers 0 and 1 are disjoint");
        // And the plain-safety oracle flags the same instant (as
        // correctness), proving the checks overlap as intended.
        let mut o = Oracle::new(0, OracleConfig::safety(), views(2));
        o.observe_sample(ts(10.0), &[a, b]);
        assert!(!o.finish().is_clean());
    }

    #[test]
    fn adoption_that_increases_error_is_flagged() {
        let mut o = Oracle::new(9, OracleConfig::safety(), views(1));
        o.observe_round(
            0,
            &RoundObservation {
                clock: ts(30.0),
                error_before: dur(0.010),
                error_after: dur(0.025),
                input_widths: vec![],
                recovery: false,
            },
        );
        let report = o.finish();
        let v = report.first().expect("violation");
        assert_eq!(v.theorem, TheoremId::AdoptionGuard);
        assert_eq!(v.seed, 9);
    }

    #[test]
    fn recovery_adoptions_may_increase_error() {
        let mut o = Oracle::new(0, OracleConfig::safety(), views(1));
        o.observe_round(
            0,
            &RoundObservation {
                clock: ts(30.0),
                error_before: dur(0.010),
                error_after: dur(0.025),
                input_widths: vec![],
                recovery: true,
            },
        );
        assert!(o.finish().is_clean());
    }

    #[test]
    fn intersection_wider_than_narrowest_input_is_flagged() {
        let mut o = Oracle::new(0, OracleConfig::safety(), views(1));
        o.observe_round(
            0,
            &RoundObservation {
                clock: ts(30.0),
                error_before: dur(0.050),
                error_after: dur(0.040), // width 0.08 > narrowest 0.06
                input_widths: vec![dur(0.10), dur(0.06)],
                recovery: false,
            },
        );
        let report = o.finish();
        assert_eq!(
            report.first().expect("violation").theorem,
            TheoremId::IntersectionWidth
        );
    }

    #[test]
    fn sound_intersection_passes() {
        let mut o = Oracle::new(0, OracleConfig::safety(), views(1));
        o.observe_round(
            0,
            &RoundObservation {
                clock: ts(30.0),
                error_before: dur(0.050),
                error_after: dur(0.020),
                input_widths: vec![dur(0.10), dur(0.06)],
                recovery: false,
            },
        );
        assert!(o.finish().is_clean());
    }

    #[test]
    fn mm_envelope_flags_runaway_error_gap() {
        let params = EnvelopeParams {
            kind: EnvelopeKind::Mm,
            xi: dur(0.01),
            tau: dur(10.0),
            warmup: ts(5.0),
            slack: Duration::ZERO,
        };
        let mut o = Oracle::new(0, OracleConfig::safety().envelope(params), views(2));
        // Before warmup nothing is checked.
        o.observe_sample(ts(1.0), &[state(1.0, 0.5), state(1.0, 0.01)]);
        // After warmup a 0.5 s error against a 10 ms best is far beyond
        // ξ + δ(τ+2ξ) ≈ 11 ms.
        o.observe_sample(ts(8.0), &[state(8.0, 0.5), state(8.0, 0.01)]);
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
            slack: Duration::ZERO,
        };
        let cfg = OracleConfig::safety()
            .envelope(params)
            .without_trust_checks();
        let mut o = Oracle::new(0, cfg, views(2));
        // Thm 7 bound ≈ 0.01 + 2e-4·10 + 0.01 = 0.022; skew of 0.3 breaks it.
        o.observe_sample(ts(8.0), &[state(8.0, 0.5), state(8.3, 0.5)]);
        let report = o.finish();
        assert_eq!(
            report.first().expect("violation").theorem,
            TheoremId::ImAsynchronism
        );
    }

    #[test]
    fn violation_overflow_is_counted_not_stored() {
        let mut o = Oracle::new(0, OracleConfig::safety(), views(1));
        for k in 0..(MAX_STORED_VIOLATIONS + 10) {
            o.observe_sample(ts(k as f64), &[state(k as f64 + 1.0, 0.001)]);
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
            slack: Duration::ZERO,
        };
        // Equal errors keep the E-gap at zero. A skew within E_i + E_j
        // never breaks Theorem 3's 2E_M + …, so the trust checks, which
        // would see the disjoint pair first, are off.
        let cfg = OracleConfig::safety()
            .envelope(params)
            .without_trust_checks();
        let mut o = Oracle::new(21, cfg, views(2));
        // Thm 3 bound ≈ 2·0.01 + 2·0.01 + 2e-4·(10 + 0.02) ≈ 0.042.
        o.observe_sample(ts(8.0), &[state(8.0, 0.01), state(8.3, 0.01)]);
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
            slack: Duration::ZERO,
        };
        let cfg = OracleConfig::safety().envelope(params);
        let mut o = Oracle::new(0, cfg, views(2));
        // 30 ms of skew against a bound of ≈ 62 ms (E_M is 20 ms here);
        // each interval still contains real time and they intersect.
        o.observe_sample(ts(8.0), &[state(7.985, 0.02), state(8.015, 0.02)]);
        assert!(o.finish().is_clean());
    }

    /// Every predicate, in declaration order.
    fn every_theorem() -> [TheoremId; 14] {
        use TheoremId::*;
        let all = [
            Correctness,
            ErrorGrowth,
            AdoptionGuard,
            ErrorEnvelope,
            MmAsynchronism,
            IntersectionWidth,
            ImAsynchronism,
            Consistency,
            Rehydration,
            Lifecycle,
            FTolerant,
            Stabilization,
            ClusterMonotonic,
            ClusterBounded,
        ];
        for (k, id) in all.into_iter().enumerate() {
            // Exhaustive on purpose: a new variant fails to compile
            // here until it joins the list above.
            match id {
                Correctness | ErrorGrowth | AdoptionGuard | ErrorEnvelope | MmAsynchronism
                | IntersectionWidth | ImAsynchronism | Consistency | Rehydration | Lifecycle
                | FTolerant | Stabilization | ClusterMonotonic | ClusterBounded => {}
            }
            assert_eq!(id as usize, k, "{id:?} is out of declaration order");
        }
        all
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
        o.observe_sample(ts(10.0), &[state(10.0, 0.01), state(10.0, 0.01)]);
        o.observe_crash(1);
        // Silence is what the lifecycle demands …
        o.observe_sample(ts(20.0), &[state(20.0, 0.011), None]);
        // … so a present sample is a breach even if numerically correct.
        o.observe_sample(ts(30.0), &[state(30.0, 0.012), state(30.0, 0.01)]);
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
        o.observe_sample(ts(10.0), &[state(10.0, 0.01), state(10.0, 0.01)]);
        o.observe_crash(1);
        o.observe_sample(ts(20.0), &[state(20.0, 0.011), None]);
        o.observe_restart(1);
        o.observe_sample(ts(25.0), &[state(25.0, 0.0112), None]);
        o.observe_bootstrap_complete(1, 2);
        o.observe_sample(ts(30.0), &[state(30.0, 0.0114), state(30.0, 0.02)]);
        let report = o.finish();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.lifecycle_checked, 3);
    }

    #[test]
    fn bootstrap_beyond_round_bound_is_flagged() {
        let mut o = Oracle::new(5, OracleConfig::safety(), views(1));
        o.observe_crash(0);
        o.observe_restart(0);
        o.observe_bootstrap_complete(0, 9);
        let report = o.finish();
        let v = report.first().expect("violation");
        assert_eq!(v.theorem, TheoremId::Lifecycle);
        assert!(v.observed > v.bound);
    }

    #[test]
    fn faithful_rehydration_passes() {
        let mut o = Oracle::new(0, OracleConfig::safety(), views(1));
        o.observe_crash(0);
        o.observe_restart(0);
        // δ = 1e-4, 100 s since the persisted reset → E = 1 ms + 10 ms.
        o.observe_rehydration(
            0,
            ts(200.0),
            &RehydrationObservation {
                clock: ts(200.002),
                error: dur(0.011),
                reset_clock: ts(100.002),
                persisted_error: dur(0.001),
            },
        );
        o.observe_bootstrap_complete(0, 0);
        assert!(o.finish().is_clean());
    }

    #[test]
    fn understated_rehydrated_error_is_flagged() {
        let mut o = Oracle::new(0, OracleConfig::safety(), views(1));
        o.observe_crash(0);
        o.observe_restart(0);
        // Claims the persisted error verbatim, ignoring 100 s of drift.
        o.observe_rehydration(
            0,
            ts(200.0),
            &RehydrationObservation {
                clock: ts(200.0),
                error: dur(0.001),
                reset_clock: ts(100.0),
                persisted_error: dur(0.001),
            },
        );
        let report = o.finish();
        assert_eq!(
            report.first().expect("violation").theorem,
            TheoremId::Rehydration
        );
    }

    #[test]
    fn rehydrated_interval_excluding_real_time_is_flagged() {
        let mut o = Oracle::new(0, OracleConfig::safety(), views(1));
        o.observe_crash(0);
        o.observe_restart(0);
        // Correctly derived, but the clock is 1 s off with 11 ms of error:
        // the downtime drift bound cannot have held.
        o.observe_rehydration(
            0,
            ts(200.0),
            &RehydrationObservation {
                clock: ts(201.0),
                error: dur(0.011),
                reset_clock: ts(101.0),
                persisted_error: dur(0.001),
            },
        );
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
        o.observe_crash(0);
        o.observe_sample(ts(10.0), &[state(10.0, 0.01)]);
        o.observe_restart(0);
        o.observe_bootstrap_complete(0, 99);
        assert!(o.finish().is_clean());
    }

    #[test]
    fn adoption_excluding_real_time_violates_f_tolerance() {
        let mut o = Oracle::new(13, OracleConfig::safety().f_tolerant(), views(1));
        // Sound adoption: centre 30.02 with radius 50 ms contains 30.0.
        o.observe_reset(0, ts(30.0), ts(30.02), dur(0.05));
        // A colluding clique beyond the budget drags the hull off true
        // time: centre 30.5 with radius 10 ms excludes 30.0.
        o.observe_reset(0, ts(30.0), ts(30.5), dur(0.01));
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
        o.observe_reset(0, ts(30.0), ts(40.0), dur(0.01));
        let report = o.finish();
        assert!(report.is_clean());
        assert_eq!(report.resets_checked, 0);
        // Recovery adoptions are taken on faith.
        let mut o = Oracle::new(0, OracleConfig::safety().f_tolerant(), views(1));
        o.observe_round(
            0,
            &RoundObservation {
                clock: ts(30.0),
                error_before: dur(0.01),
                error_after: dur(0.5),
                input_widths: vec![],
                recovery: true,
            },
        );
        o.observe_reset(0, ts(30.0), ts(40.0), dur(0.01));
        // … but only the one immediately following the recovery record.
        o.observe_reset(0, ts(50.0), ts(60.0), dur(0.01));
        let report = o.finish();
        assert_eq!(report.total_violations, 1);
        // A down server's bootstrap resets are not adoption decisions.
        let mut o = Oracle::new(0, OracleConfig::safety().f_tolerant(), views(1));
        o.observe_crash(0);
        o.observe_restart(0);
        o.observe_reset(0, ts(30.0), ts(40.0), dur(0.01));
        assert!(o.finish().is_clean());
    }

    #[test]
    fn corruption_window_suspends_sample_checks() {
        let mut o = Oracle::new(0, OracleConfig::safety(), views(2));
        o.observe_sample(ts(10.0), &[state(10.0, 0.01), state(10.0, 0.01)]);
        o.observe_corruption(1, ts(15.0));
        // Server 1 is 40 s off with a tiny claim — correctness, growth,
        // and consistency would all fire, but the window exempts it.
        o.observe_sample(ts(20.0), &[state(20.0, 0.011), state(60.0, 0.001)]);
        o.observe_stabilized(1, ts(25.0), dur(10.0));
        o.observe_sample(ts(30.0), &[state(30.0, 0.012), state(30.0, 0.02)]);
        let report = o.finish();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn slow_stabilization_is_flagged() {
        let cfg = OracleConfig::safety().stabilization(dur(30.0));
        let mut o = Oracle::new(17, cfg, views(1));
        o.observe_corruption(0, ts(100.0));
        o.observe_stabilized(0, ts(145.0), dur(45.0));
        let report = o.finish();
        let v = report.first().expect("violation");
        assert_eq!(v.theorem, TheoremId::Stabilization);
        assert_eq!(v.seed, 17);
        assert!(v.observed > v.bound);
    }

    #[test]
    fn stabilization_within_bound_is_clean() {
        let cfg = OracleConfig::safety().stabilization(dur(30.0));
        let mut o = Oracle::new(0, cfg, views(1));
        o.observe_corruption(0, ts(100.0));
        o.observe_stabilized(0, ts(112.0), dur(12.0));
        assert!(o.finish().is_clean());
    }

    #[test]
    fn never_stabilizing_is_flagged_at_finish() {
        let cfg = OracleConfig::safety().stabilization(dur(30.0));
        let mut o = Oracle::new(0, cfg, views(2));
        o.observe_corruption(1, ts(100.0));
        o.observe_sample(ts(200.0), &[state(200.0, 0.01), state(260.0, 0.001)]);
        let report = o.finish();
        let v = report.first().expect("violation");
        assert_eq!(v.theorem, TheoremId::Stabilization);
        assert_eq!(v.server, 1);
        assert!(v.detail.contains("never stabilized"), "{}", v.detail);
        // ~100 s outstanding against a 30 s bound.
        assert!(v.observed > v.bound);
    }

    #[test]
    fn crash_resets_the_growth_baseline() {
        let mut o = Oracle::new(0, OracleConfig::safety(), views(1));
        o.observe_sample(ts(0.0), &[state(0.0, 0.001)]);
        o.observe_crash(0);
        o.observe_bootstrap_complete(0, 0);
        // The error grew across downtime far beyond per-sample drift;
        // that is legitimate — the baseline died with the process.
        o.observe_sample(ts(100.0), &[state(100.0, 0.5)]);
        assert!(o.finish().is_clean());
    }
}
