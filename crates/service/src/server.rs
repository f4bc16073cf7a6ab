//! The time server actor.
//!
//! A [`TimeServer`] owns a simulated hardware clock and the rule MM-1
//! state `(r_i, ε_i, δ_i)`. It answers time requests with
//! `⟨C_i(t), E_i(t)⟩`, polls its neighbours every `τ`, and synchronises
//! with the configured [`Strategy`]. All protocol timing is measured on
//! the server's *own clock* — the simulator's real time is only ever
//! used to drive that clock, exactly as on real hardware.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tempo_clocks::{ClockDiscipline, DisciplineConfig, SimClock};
use tempo_core::bounds::mm2_adjusted_error;
use tempo_core::sync::baseline::baseline_round;
use tempo_core::sync::im::{im_round, ImOutcome};
use tempo_core::sync::mm::{mm_decide, MmOutcome};
use tempo_core::sync::{Reset, TimedReply};
use tempo_core::{marzullo, ClockSnapshot, ErrorState, SnapshotCell, SnapshotReader};
use tempo_core::{Duration, Timestamp};
use tempo_core::{TimeEstimate, TimeInterval};
use tempo_net::{Actor, Context, NodeId};
use tempo_telemetry::{Bus, EventKind as TelemetryKind, HealthState, RejectCause, TelemetryEvent};

use crate::config::{
    ApplyMode, RecoveryPolicy, RetryPolicy, ScreeningPolicy, ServerConfig, Strategy,
};
use crate::fault::ServerFaultKind;
use crate::health::{HealthTracker, PeerState};
use crate::message::Message;
use crate::rate::RateMonitor;
use crate::store::{MemoryStore, PersistedState, StableStore};

/// Timer tag: start a new resync round.
const TIMER_RESYNC: u64 = 1;
/// Timer tag: close the current collection round.
const TIMER_ROUND_END: u64 = 2;
/// Timer tag: join the service (§1.1 churn).
const TIMER_JOIN: u64 = 3;
/// Timer tag: leave the service (§1.1 churn).
const TIMER_LEAVE: u64 = 4;
/// Timer tag: the armed crash instant (and, under a restart storm, each
/// subsequent re-crash).
const TIMER_CRASH: u64 = 5;
/// Timer tag: the scheduled restart after a crash.
const TIMER_RESTART: u64 = 6;
/// Timer tag: close the current bootstrap collection round.
const TIMER_BOOT_ROUND: u64 = 7;
/// Timer tag: the armed state-corruption instant
/// (see [`ServerFaultKind::CorruptState`]).
const TIMER_CORRUPT: u64 = 8;
/// Round timers carry the lifecycle epoch in their high bits so a resync
/// chain armed before a crash dies instead of doubling up with the chain
/// the restart starts.
const TIMER_EPOCH_SHIFT: u64 = 32;
/// High bit marking a per-request timeout timer; the low bits carry the
/// request id. Request ids are sequential and never reach 2^63.
const TIMER_TIMEOUT_FLAG: u64 = 1 << 63;

/// Where a server stands in the crash–restart lifecycle.
///
/// `Active → Crashed` at a scheduled [`ServerFaultKind::Crash`];
/// `Crashed → Active` directly on a durable restart (stable storage
/// rehydrates `(r_i, ε_i)` and rule MM-1 has grown `E_i` across the
/// downtime); `Crashed → Booting → Active` on an amnesia restart, which
/// must first re-acquire the time from a quorum of neighbours (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifecycle {
    /// Serving time and running resync rounds.
    Active,
    /// Crashed: deaf and mute until the scheduled restart (if any).
    Crashed,
    /// Restarted without usable stable state: answering requests with an
    /// explicit [`Message::Uninitialized`] refusal while re-acquiring
    /// the time from a quorum.
    Booting,
}

/// Why a request was sent, remembered until its reply arrives.
#[derive(Debug, Clone, Copy)]
struct Pending {
    peer: NodeId,
    /// `C_i` at the moment the request was sent — the basis of the
    /// locally measured round-trip `ξ^i_j`.
    send_clock: Timestamp,
    round: u64,
    recovery: bool,
    /// How many times this solicitation has already been retried.
    attempt: u32,
    /// The own-clock reading at which the request counts as lost
    /// (armed only under [`RetryPolicy::Backoff`]).
    deadline_clock: Option<Timestamp>,
}

/// Requests in flight, keyed by the sequential id `fresh_request_id`
/// hands out and never reuses. A round has at most neighbours ×
/// (1 + retries) of them open and `begin_round` sweeps the rest, so a
/// short vector searched from the newest entry beats hashing the id.
type InFlight<T> = Vec<(u64, T)>;

/// Where request `id` sits in `table`, while it is in flight.
fn in_flight<T>(table: &InFlight<T>, id: u64) -> Option<usize> {
    table.iter().rposition(|&(key, _)| key == id)
}

/// A reply buffered during a collection round.
#[derive(Debug, Clone, Copy)]
struct BufferedReply {
    peer: NodeId,
    estimate: TimeEstimate,
    send_clock: Timestamp,
    /// `C_i` when the reply arrived (basis of the baselines'
    /// symmetric-delay extrapolation).
    recv_clock: Timestamp,
}

/// Counters describing a server's protocol activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Resync rounds started.
    pub rounds: usize,
    /// Clock resets applied (rule MM-2 / IM-2 accepted).
    pub resets: usize,
    /// Replies processed.
    pub replies: usize,
    /// Replies ignored as inconsistent (MM) or rounds whose intersection
    /// was empty (round strategies).
    pub inconsistencies: usize,
    /// Replies that arrived after their round had already closed.
    pub late_replies: usize,
    /// §3 recoveries initiated.
    pub recoveries_started: usize,
    /// §3 recoveries applied (third-server value adopted).
    pub recoveries_applied: usize,
    /// Replies dropped by §5 rate screening (dissonant neighbours).
    pub screened: usize,
    /// Requests whose reply missed its own-clock deadline.
    pub timeouts: usize,
    /// Timed-out requests that were re-solicited.
    pub retries: usize,
    /// Replies whose sender did not match the recorded request peer
    /// (dropped unprocessed).
    pub mismatched_replies: usize,
    /// Peers that left Healthy (→ Suspect or Dead) on consecutive
    /// timeouts.
    pub peers_suspected: usize,
    /// Suspect/Dead peers reinstated to Healthy by a reply.
    pub peers_reinstated: usize,
    /// Rounds that gathered fewer than the configured quorum of replies
    /// and therefore skipped their reset (rule MM-1 keeps growing `E_i`).
    pub degraded_rounds: usize,
    /// Scheduled crashes taken.
    pub crashes: usize,
    /// Restarts taken after a crash.
    pub restarts: usize,
    /// Bootstrap rounds run while re-acquiring the time after an
    /// amnesia restart.
    pub bootstrap_rounds: usize,
    /// §3 recovery replies rejected by the §5 consistency screen.
    pub recoveries_rejected: usize,
    /// Datagrams that failed wire-codec decoding and were discarded at
    /// the transport boundary (real transports only; the simulator
    /// delivers typed messages and never increments this).
    pub malformed_frames: usize,
}

/// A snapshot of a server's externally observable and simulation-only
/// state, taken by the metrics layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerSample {
    /// The server's clock reading `C_i(t)`.
    pub clock: Timestamp,
    /// The claimed maximum error `E_i(t)` (rule MM-1).
    pub error: Duration,
    /// Simulation-only: the true offset `C_i(t) − t`.
    pub true_offset: Duration,
    /// Simulation-only: whether the server is *correct*
    /// (`|C_i(t) − t| ≤ E_i(t)`).
    pub correct: bool,
}

impl ServerSample {
    /// The sample as a reported estimate `⟨C, E⟩`.
    #[must_use]
    pub fn estimate(&self) -> TimeEstimate {
        TimeEstimate::new(self.clock, self.error)
    }
}

/// Ages replies buffered during a collection window to `clock_now`.
///
/// Two sound adjustments keep an aged claim sharp:
///
/// * trailing edge: since receipt, at least `age/(1+δ)` real seconds
///   have passed (our clock runs at most (1+δ)), so the whole claim may
///   be advanced by that much;
/// * leading edge: it must still absorb the full inflated send-to-now
///   span `(1+δ)·ξ_total` (rule IM-2), so the residual round-trip passed
///   on is `ξ_total − m/(1+δ)`.
fn age_buffered(
    buffered: &[BufferedReply],
    clock_now: Timestamp,
    inflation: f64,
) -> Vec<TimedReply> {
    buffered
        .iter()
        .map(|b| {
            let age = (clock_now - b.recv_clock).max(Duration::ZERO);
            let advance = age / inflation;
            let xi_total = (clock_now - b.send_clock).max(Duration::ZERO);
            let residual = (xi_total - advance / inflation).max(Duration::ZERO);
            TimedReply::new(
                TimeEstimate::new(b.estimate.time() + advance, b.estimate.error()),
                residual,
            )
        })
        .collect()
}

/// Maps the health tracker's verdict to its telemetry mirror.
fn health_state(state: PeerState) -> HealthState {
    match state {
        PeerState::Healthy => HealthState::Healthy,
        PeerState::Suspect => HealthState::Suspect,
        PeerState::Dead => HealthState::Dead,
    }
}

/// A time server (see module docs).
#[derive(Debug)]
pub struct TimeServer {
    clock: SimClock,
    state: ErrorState,
    config: ServerConfig,
    started: bool,
    next_request_id: u64,
    current_round: u64,
    pending: InFlight<Pending>,
    round_replies: Vec<BufferedReply>,
    stats: ServerStats,
    recovering: bool,
    /// Whether the server currently participates in the service
    /// (between its join and leave instants).
    active: bool,
    /// §5 rate monitor, present when screening is enabled.
    rates: Option<RateMonitor>,
    /// Per-peer health verdicts, fed by reply timeouts (inert under
    /// [`RetryPolicy::Off`] — no timeouts, no signal).
    health: HealthTracker,
    /// Own-clock reading when the current round began (bounds retries
    /// to the collection window).
    round_start_clock: Timestamp,
    /// Slewing discipline, present in [`ApplyMode::Slew`]. The protocol
    /// then runs entirely on the *disciplined* (monotonic) clock.
    discipline: Option<ClockDiscipline>,
    /// Telemetry fan-out (disabled by default; see
    /// [`TimeServer::attach_bus`]). Every synthesis decision, health
    /// transition, and clock correction is emitted here — the oracle
    /// and metrics layers consume these events instead of bespoke
    /// per-server buffers.
    bus: Bus,
    /// Our own actor index, learned in `on_start` (events need it in
    /// paths that have no [`Context`], e.g. `apply_reset`).
    me: usize,
    /// Whether the previous windowed round was quorum-starved, for
    /// degraded-mode enter/exit transition events.
    degraded: bool,
    /// Crash–restart lifecycle stage.
    lifecycle: Lifecycle,
    /// Bumped on every crash; round timers from older epochs are stale.
    epoch: u32,
    /// Stable storage for `(r_i, ε_i)`, written at every reset and read
    /// back on a durable restart. Boxed so real deployments can plug a
    /// file-backed store that survives the *process* (see
    /// [`TimeServer::with_store`]); the default [`MemoryStore`] only
    /// survives simulated crashes.
    store: Box<dyn StableStore>,
    /// Bootstrap requests in flight (`request id → (peer, send clock)`).
    boot_pending: InFlight<(NodeId, Timestamp)>,
    /// Replies collected by the current bootstrap round.
    boot_replies: Vec<BufferedReply>,
    /// Bootstrap rounds run since the current restart.
    boot_rounds: u32,
    /// The freshest processed estimate per peer (with the own-clock
    /// reading at receipt) — the §5 screen applied to recovery replies.
    /// Indexed by [`NodeId::index`] and grown on the first record.
    recent_estimates: Vec<Option<(TimeEstimate, Timestamp)>>,
    /// When a [`ServerFaultKind::CorruptState`] fault scrambled this
    /// server's state, until the first adoption that passes the §5
    /// consistency screen declares it stabilized again.
    corrupted_at: Option<Timestamp>,
    /// The seqlock-published serving snapshot: every reset/adoption and
    /// every lifecycle transition republishes `(r_i, ε_i, δ_i)` plus an
    /// affine `(base clock, base real)` pair here, so [`SnapshotReader`]
    /// handles answer time requests without touching this actor (see
    /// `tempo_core::snapshot` and DESIGN.md §Serving path).
    snapshot: Arc<SnapshotCell>,
}

impl TimeServer {
    /// Creates a server around a simulated clock.
    ///
    /// The rule MM-1 state starts as `r_i =` the clock's initial value
    /// and `ε_i =` the configured initial error.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid
    /// (see [`ServerConfig::validate`]).
    #[must_use]
    pub fn new(clock: SimClock, config: ServerConfig) -> Self {
        Self::with_store(clock, config, Box::new(MemoryStore::new()))
    }

    /// Creates a server around a simulated clock and an explicit
    /// stable store — the real-deployment constructor.
    ///
    /// If `store` already holds persisted state (the process was
    /// killed and relaunched against the same file), the server
    /// rehydrates it exactly as a durable in-process restart does:
    /// `(r_i, ε_i)` come from the store and rule MM-1 re-derives
    /// `E = ε + (C − r)·δ`, so the error keeps growing across the
    /// downtime instead of resetting to the configured initial error.
    /// An empty store gets the initial `(r_i, ε_i)` persisted, exactly
    /// as [`TimeServer::new`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid
    /// (see [`ServerConfig::validate`]).
    #[must_use]
    pub fn with_store(
        mut clock: SimClock,
        config: ServerConfig,
        mut store: Box<dyn StableStore>,
    ) -> Self {
        config.validate();
        let start_reading = clock.read(clock.last_real());
        let state = match store.load() {
            // Cross-process durable restart: rehydrate, guarding
            // against a pre-crash step that left the current reading
            // behind the persisted reset point (the MM-1 growth term
            // must stay non-negative), as `restart` does.
            Some(p) => ErrorState::new(
                p.reset_clock.min(start_reading),
                p.inherited_error,
                config.drift_bound,
            ),
            None => ErrorState::new(start_reading, config.initial_error, config.drift_bound),
        };
        let rates = match config.screening {
            ScreeningPolicy::Off => None,
            ScreeningPolicy::Consonance { sample_noise, .. } => Some(RateMonitor::new(
                8,
                // Rates become resolvable after roughly two rounds.
                config.resync_period,
                sample_noise,
            )),
        };
        let discipline = match config.apply {
            ApplyMode::Step => None,
            ApplyMode::Slew { max_rate } => Some(ClockDiscipline::new(DisciplineConfig {
                // Never step: all corrections slew.
                step_threshold: Duration::from_secs(f64::MAX / 4.0),
                max_slew_rate: max_rate,
            })),
        };
        let health = HealthTracker::new(config.health);
        // The initial `(r_i, ε_i)` counts as the first reset: a durable
        // restart before any adoption still rehydrates something. A
        // store carrying rehydrated state is left untouched — its
        // persisted reset predates this launch and stays the truth
        // until the first post-launch adoption.
        if store.load().is_none() {
            store.persist(PersistedState {
                reset_clock: start_reading,
                inherited_error: config.initial_error,
                reset_at: clock.last_real(),
            });
        }
        let mut server = TimeServer {
            clock,
            state,
            config,
            started: false,
            next_request_id: 0,
            current_round: 0,
            pending: Vec::new(),
            round_replies: Vec::new(),
            stats: ServerStats::default(),
            recovering: false,
            active: false,
            rates,
            health,
            round_start_clock: start_reading,
            discipline,
            bus: Bus::disabled(),
            me: 0,
            degraded: false,
            lifecycle: Lifecycle::Active,
            epoch: 0,
            store,
            boot_pending: Vec::new(),
            boot_replies: Vec::new(),
            boot_rounds: 0,
            recent_estimates: Vec::new(),
            corrupted_at: None,
            snapshot: Arc::new(SnapshotCell::new()),
        };
        // First publication: the payload exists from birth, flagged
        // not-serving until the join.
        let at = server.clock.last_real();
        server.publish_snapshot(at);
        server
    }

    /// Wires the server onto a telemetry [`Bus`]. Call before the
    /// world starts (the bus should see the join). With no bus (or a
    /// [`Bus::disabled`] one) every emission is a single branch.
    pub fn attach_bus(&mut self, bus: Bus) {
        self.bus = bus;
    }

    /// The clock reading the server *serves*: the raw hardware reading
    /// in [`ApplyMode::Step`], the disciplined (monotonic) reading in
    /// [`ApplyMode::Slew`].
    fn reading(&mut self, now: Timestamp) -> Timestamp {
        let raw = self.clock.read(now);
        match &mut self.discipline {
            Some(d) => d.read(raw),
            None => raw,
        }
    }

    /// Whether the server is currently part of the service *and*
    /// serving time (neither crashed nor booting after a restart).
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active && self.lifecycle == Lifecycle::Active
    }

    /// Where the server stands in the crash–restart lifecycle.
    #[must_use]
    pub fn lifecycle(&self) -> Lifecycle {
        self.lifecycle
    }

    /// The most recently persisted stable state, if any survives (the
    /// amnesia path wipes it).
    #[must_use]
    pub fn persisted(&self) -> Option<PersistedState> {
        self.store.load()
    }

    /// The server's configuration.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Records a datagram that failed wire-codec decoding: the frame
    /// is dropped *audibly* — counted in
    /// [`ServerStats::malformed_frames`] and emitted as a
    /// [`TelemetryKind::MalformedFrame`] event — never handed to the
    /// protocol. Real transports call this from their receive loop;
    /// the simulator delivers typed messages and has no malformed
    /// path.
    pub fn note_malformed_frame(
        &mut self,
        now: Timestamp,
        len: usize,
        error: crate::wire::DecodeError,
    ) {
        self.stats.malformed_frames += 1;
        self.bus.emit_with(TelemetryKind::MalformedFrame, || {
            TelemetryEvent::MalformedFrame {
                at: now,
                server: self.me,
                len,
                cause: error.label(),
            }
        });
    }

    /// Protocol counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Forces the stable store onto its durable medium (see
    /// [`StableStore::flush`]). Real deployments call this from their
    /// graceful-shutdown path so the persisted `(r_i, ε_i)` survives
    /// the process.
    pub fn flush_store(&mut self) {
        self.store.flush();
    }

    /// The current estimate `⟨C_i(t), E_i(t)⟩` (rule MM-1), on the
    /// served clock.
    pub fn current_estimate(&mut self, now: Timestamp) -> TimeEstimate {
        let reading = self.reading(now);
        self.state.estimate_at(reading)
    }

    /// A cloneable, lock-free handle onto the published serving
    /// snapshot. Reader threads answer `⟨C, E⟩` queries through it
    /// without ever touching this actor — the million-QPS read path.
    #[must_use]
    pub fn snapshot_reader(&self) -> SnapshotReader {
        SnapshotReader::new(Arc::clone(&self.snapshot))
    }

    /// Republishes the serving snapshot from the current MM-1 state.
    ///
    /// Called at every site that changes what a read would return:
    /// construction, join/leave, every adopted reset (both apply
    /// modes), state corruption, crash, and post-restart promotion.
    /// `now` anchors the affine `(base clock, base real)` pair that
    /// detached serving threads extrapolate along at rate 1.
    fn publish_snapshot(&mut self, now: Timestamp) {
        let base_clock = self.reading(now);
        let snapshot = ClockSnapshot {
            reset_clock: self.state.last_reset(),
            inherited_error: self.state.inherited_error(),
            drift_bound: self.config.drift_bound,
            base_clock,
            base_real: now,
            epoch: self.epoch,
            serving: self.is_active(),
        };
        self.snapshot.publish(&snapshot);
    }

    /// Takes a metrics snapshot (simulation-only observability).
    pub fn sample(&mut self, now: Timestamp) -> ServerSample {
        let estimate = self.current_estimate(now);
        let true_offset = estimate.time() - now;
        ServerSample {
            clock: estimate.time(),
            error: estimate.error(),
            true_offset,
            correct: estimate.is_correct_at(now),
        }
    }

    /// Direct access to the underlying clock (fault scripting in
    /// experiments).
    pub fn clock_mut(&mut self) -> &mut SimClock {
        &mut self.clock
    }

    /// The current health verdict on `peer` (always Healthy under
    /// [`RetryPolicy::Off`] — without timeouts there is no signal).
    #[must_use]
    pub fn peer_state(&self, peer: NodeId) -> PeerState {
        self.health.state(peer)
    }

    /// When a [`ServerFaultKind::CorruptState`] fault scrambled this
    /// server's state and it has not yet stabilized, the corruption
    /// instant; `None` otherwise.
    #[must_use]
    pub fn corrupted_since(&self) -> Option<Timestamp> {
        self.corrupted_at
    }

    /// The armed server fault's kind, if it has triggered by `now`.
    fn fault_kind(&self, now: Timestamp) -> Option<ServerFaultKind> {
        self.config
            .fault
            .filter(|f| f.active_at(now))
            .map(|f| f.kind)
    }

    fn fresh_request_id(&mut self) -> u64 {
        let id = self.next_request_id;
        self.next_request_id += 1;
        id
    }

    /// Tags a round timer with the current lifecycle epoch, so firings
    /// from a pre-crash chain are recognisably stale.
    fn round_tag(&self, base: u64) -> u64 {
        base | (u64::from(self.epoch) << TIMER_EPOCH_SHIFT)
    }

    /// Moves every own-clock landmark by `delta` after the clock was
    /// *stepped* by that much.
    ///
    /// The protocol measures elapsed own-time between landmarks — a
    /// request's `send_clock` against "now" is the round-trip `ξ` that
    /// rule MM-2 widens an adopted error by, buffered replies age from
    /// their `recv_clock`, the §5 screens age cached neighbour claims
    /// from their record marks. A step tears that timescale: with a
    /// backward step larger than the remaining flight time, an
    /// in-flight request's measured round-trip clamps to zero and the
    /// reply is adopted with *no* delay widening — an interval that can
    /// exclude real time (a genuine Theorem 1 break, found by the E17
    /// fuzzer). Translating the landmarks by the step keeps every
    /// elapsed-time computation denominated in the post-step timescale.
    fn rebase_clock_marks(&mut self, delta: Duration) {
        if delta == Duration::ZERO {
            return;
        }
        for (_, p) in &mut self.pending {
            p.send_clock += delta;
            if let Some(deadline) = p.deadline_clock.as_mut() {
                *deadline += delta;
            }
        }
        for b in &mut self.round_replies {
            b.send_clock += delta;
            b.recv_clock += delta;
        }
        for (_, seen_clock) in self.recent_estimates.iter_mut().flatten() {
            *seen_clock += delta;
        }
        for (_, (_, send_clock)) in &mut self.boot_pending {
            *send_clock += delta;
        }
        for b in &mut self.boot_replies {
            b.send_clock += delta;
            b.recv_clock += delta;
        }
        self.round_start_clock += delta;
        if let Some(rates) = &mut self.rates {
            rates.rebase(delta);
        }
    }

    /// Applies an accepted reset: sets the hardware clock, reads it back
    /// (the read-back is what keeps the MM-1 state honest even when the
    /// clock refuses the set — see `FaultKind::RefuseSet`), and replaces
    /// `(r_i, ε_i)`.
    fn apply_reset(&mut self, now: Timestamp, reset: Reset) {
        match &mut self.discipline {
            None => {
                let before = self.clock.read(now);
                let _ = self.clock.set(now, reset.new_clock);
                let actual = self.clock.read(now);
                self.state.reset(actual, reset.new_error);
                self.rebase_clock_marks(actual - before);
                self.bus
                    .emit_with(TelemetryKind::ClockStep, || TelemetryEvent::ClockStep {
                        at: now,
                        server: self.me,
                        from: before,
                        to: actual,
                        error: reset.new_error,
                    });
            }
            Some(_) => {
                // Slew mode: queue the correction on the discipline and
                // cover the not-yet-applied part with extra error. The
                // served reading is unchanged at this instant, so it is
                // the new `r_i`.
                let raw = self.clock.read(now);
                let d = self.discipline.as_mut().expect("slew mode");
                let current = d.read(raw);
                let _ = d.correct(raw, reset.new_clock - current);
                let pending = d.pending().abs();
                self.state.reset(current, reset.new_error + pending);
                self.bus
                    .emit_with(TelemetryKind::ClockSlew, || TelemetryEvent::ClockSlew {
                        at: now,
                        server: self.me,
                        from: current,
                        to: reset.new_clock,
                        error: reset.new_error + pending,
                    });
            }
        }
        // The serving front sees the adoption as soon as the sync core
        // does: republish before anything else can observe the state.
        self.publish_snapshot(now);
        // Every reset reaches stable storage, so a durable restart can
        // rehydrate the freshest `(r_i, ε_i)` pair.
        self.store.persist(PersistedState {
            reset_clock: self.state.last_reset(),
            inherited_error: self.state.inherited_error(),
            reset_at: now,
        });
        self.stats.resets += 1;
        // Self-stabilization exit: a corrupted server counts as
        // recovered once an adopted `(r_i, ε_i)` again agrees with the
        // majority of what the neighbourhood said recently — the same
        // §5 screen that vets recovery replies, aimed at ourselves.
        // Unlike the recovery screen, the exit is *not* vacuously
        // satisfied by an empty record set: with nothing fresh on
        // record there is no evidence the garbage is gone, so the
        // server stays flagged until the neighbourhood has spoken.
        if let Some(since) = self.corrupted_at {
            let reading = self.state.last_reset();
            let adopted = self.state.estimate_at(reading);
            if self.recent_estimates.iter().any(Option::is_some)
                && self.consistent_with_recent(None, &adopted, reading)
            {
                let elapsed = (now - since).max(Duration::ZERO);
                self.corrupted_at = None;
                self.bus
                    .emit_with(TelemetryKind::Stabilized, || TelemetryEvent::Stabilized {
                        at: now,
                        server: self.me,
                        elapsed,
                    });
            }
        }
    }

    /// Enters the service: from here on the server answers requests and
    /// schedules its resync rounds. The first round fires at a random
    /// fraction of the period so the service does not resync in
    /// lock-step.
    fn join(&mut self, ctx: &mut Context<'_, Message>) {
        self.active = true;
        let now = ctx.now();
        self.publish_snapshot(now);
        let clock = self.reading(now);
        self.bus
            .emit_with(TelemetryKind::Join, || TelemetryEvent::Join {
                at: now,
                server: self.me,
                clock,
            });
        let fraction = ctx.rng().random_range(0.05..1.0);
        ctx.set_timer(
            self.config.resync_period * fraction,
            self.round_tag(TIMER_RESYNC),
        );
    }

    fn begin_round(&mut self, ctx: &mut Context<'_, Message>) {
        self.stats.rounds += 1;
        self.current_round += 1;
        self.round_replies.clear();
        // Drop pendings from previous rounds (their replies, if still in
        // flight, will count as late). If a recovery request was lost,
        // clear the flag so recovery can retry next time.
        let round = self.current_round;
        self.pending.retain(|(_, p)| p.round == round);
        self.recovering = self.pending.iter().any(|(_, p)| p.recovery);

        let now = ctx.now();
        self.round_start_clock = self.reading(now);
        // Dead peers are skipped except on probe rounds, so a crashed
        // neighbour costs nothing until it comes back.
        let polled: Vec<NodeId> = ctx
            .neighbors()
            .iter()
            .copied()
            .filter(|&peer| !self.config.retry.is_enabled() || self.health.should_poll(peer, round))
            .collect();
        self.bus
            .emit_with(TelemetryKind::RoundBegin, || TelemetryEvent::RoundBegin {
                at: now,
                server: self.me,
                round,
                clock: self.round_start_clock,
                polled: polled.len(),
            });
        for peer in polled {
            self.send_request(peer, 0, false, ctx);
        }
        if self.config.strategy.uses_round_window() {
            ctx.set_timer(self.config.collect_window, self.round_tag(TIMER_ROUND_END));
        }
        // Schedule the next round with jitter.
        let jitter = if self.config.jitter > 0.0 {
            1.0 + ctx
                .rng()
                .random_range(-self.config.jitter..self.config.jitter)
        } else {
            1.0
        };
        ctx.set_timer(
            self.config.resync_period * jitter,
            self.round_tag(TIMER_RESYNC),
        );
    }

    /// Sends one time request to `peer`, records it as pending and —
    /// under [`RetryPolicy::Backoff`] — arms its timeout: the deadline
    /// is a reading of the server's *own* clock
    /// (`send_clock + timeout·multiplier^attempt·(1+jitter·r)`), and the
    /// timer re-arms until that reading is actually reached, so a slow
    /// clock never shortens the patience it promised.
    fn send_request(
        &mut self,
        peer: NodeId,
        attempt: u32,
        recovery: bool,
        ctx: &mut Context<'_, Message>,
    ) {
        let request_id = self.fresh_request_id();
        let send_clock = self.reading(ctx.now());
        let deadline_clock = if let RetryPolicy::Backoff {
            timeout,
            multiplier,
            jitter,
            ..
        } = self.config.retry
        {
            let mut wait = timeout * multiplier.powi(attempt.min(i32::MAX as u32) as i32);
            if jitter > 0.0 {
                wait = wait * (1.0 + jitter * ctx.rng().random::<f64>());
            }
            ctx.set_timer(wait, TIMER_TIMEOUT_FLAG | request_id);
            Some(send_clock + wait)
        } else {
            None
        };
        let pending = Pending {
            peer,
            send_clock,
            round: self.current_round,
            recovery,
            attempt,
            deadline_clock,
        };
        self.pending.push((request_id, pending));
        ctx.send(
            peer,
            Message::TimeRequest {
                request_id,
                attempt: attempt.min(u32::from(u8::MAX)) as u8,
            },
        );
    }

    /// A request's timeout timer fired. The timer runs on real time, but
    /// the deadline is an own-clock reading: if our clock is slow the
    /// deadline hasn't arrived *for us*, so the timer re-arms. A
    /// confirmed loss is retried with backoff while the round (and its
    /// collection window) lasts; when retries are exhausted the peer's
    /// health record takes the hit.
    fn handle_timeout(&mut self, request_id: u64, ctx: &mut Context<'_, Message>) {
        let Some(at) = in_flight(&self.pending, request_id) else {
            // Answered (or swept by round cleanup) before the deadline.
            return;
        };
        let pending = self.pending[at].1;
        let clock_now = self.reading(ctx.now());
        if let Some(deadline) = pending.deadline_clock {
            // On a slow clock the remainder shrinks geometrically; once
            // it no longer advances real time the timer would fire for
            // ever at this instant, so that counts as expired too.
            let remainder = deadline - clock_now;
            if ctx.now() + remainder > ctx.now() {
                ctx.set_timer(remainder, TIMER_TIMEOUT_FLAG | request_id);
                return;
            }
        }
        self.pending.swap_remove(at);
        self.stats.timeouts += 1;
        let now = ctx.now();
        self.bus
            .emit_with(TelemetryKind::Timeout, || TelemetryEvent::Timeout {
                at: now,
                server: self.me,
                peer: ctx.label_of(pending.peer),
                round: pending.round,
                attempt: pending.attempt,
            });
        if pending.recovery {
            // A lost recovery request just clears the latch so a future
            // inconsistency can try another third server.
            self.recovering = false;
            return;
        }
        let RetryPolicy::Backoff { max_retries, .. } = self.config.retry else {
            return;
        };
        let round_current = pending.round == self.current_round;
        let window_open = !self.config.strategy.uses_round_window()
            || clock_now - self.round_start_clock < self.config.collect_window;
        if pending.attempt < max_retries && round_current && window_open {
            self.stats.retries += 1;
            self.bus
                .emit_with(TelemetryKind::Retry, || TelemetryEvent::Retry {
                    at: now,
                    server: self.me,
                    peer: ctx.label_of(pending.peer),
                    round: pending.round,
                    attempt: pending.attempt + 1,
                });
            self.send_request(pending.peer, pending.attempt + 1, false, ctx);
        } else {
            let before = self.health.state(pending.peer);
            if self.health.record_timeout(pending.peer) {
                self.stats.peers_suspected += 1;
            }
            let after = self.health.state(pending.peer);
            if before != after {
                self.bus.emit_with(TelemetryKind::HealthChanged, || {
                    TelemetryEvent::HealthChanged {
                        at: now,
                        server: self.me,
                        peer: ctx.label_of(pending.peer),
                        from: health_state(before),
                        to: health_state(after),
                    }
                });
            }
        }
    }

    fn handle_reply(
        &mut self,
        from: NodeId,
        request_id: u64,
        estimate: TimeEstimate,
        ctx: &mut Context<'_, Message>,
    ) {
        let Some(at) = in_flight(&self.pending, request_id) else {
            self.stats.late_replies += 1;
            return;
        };
        let pending = self.pending[at].1;
        if pending.peer != from {
            // A reply whose sender doesn't match the recorded request
            // peer (misrouted, forged, or a duplicate id collision) must
            // not be processed under the wrong `Pending` — its round
            // trip and screening record would be attributed to the
            // wrong neighbour. Drop it; the original request stays
            // pending for the real peer.
            self.stats.mismatched_replies += 1;
            return;
        }
        self.pending.swap_remove(at);
        self.stats.replies += 1;
        if self.config.retry.is_enabled() {
            let before = self.health.state(from);
            if self.health.record_reply(from) {
                self.stats.peers_reinstated += 1;
            }
            let after = self.health.state(from);
            if before != after {
                let at = ctx.now();
                self.bus.emit_with(TelemetryKind::HealthChanged, || {
                    TelemetryEvent::HealthChanged {
                        at,
                        server: self.me,
                        peer: ctx.label_of(from),
                        from: health_state(before),
                        to: health_state(after),
                    }
                });
            }
        }
        let now = ctx.now();
        let clock_now = self.reading(now);
        let rtt = clock_now - pending.send_clock;
        let reply = TimedReply::new(estimate, rtt.max(Duration::ZERO));

        // §5 screening: track the neighbour's rate and drop replies from
        // dissonant neighbours before they can influence any strategy.
        if let (Some(rates), ScreeningPolicy::Consonance { peer_bound, .. }) =
            (&mut self.rates, self.config.screening)
        {
            rates.record(from, clock_now, estimate.time());
            if rates.is_dissonant(from, self.config.drift_bound, peer_bound) == Some(true) {
                self.stats.screened += 1;
                if pending.recovery {
                    // A dissonant third server is no rescuer; allow a
                    // future recovery attempt instead.
                    self.recovering = false;
                }
                return;
            }
        }

        if !pending.recovery {
            // Remember what this neighbour claimed (and when, on our
            // clock): these records are the §5 screen a later recovery
            // reply must pass.
            if self.recent_estimates.len() <= from.index() {
                self.recent_estimates.resize(from.index() + 1, None);
            }
            self.recent_estimates[from.index()] = Some((estimate, clock_now));
        }

        if pending.recovery {
            // §3 recovery, with a §5 screen: the rescuer's claim must
            // still intersect what the *remaining* neighbours said
            // recently (their estimates aged to now). Without the screen
            // a lying third server poisons the recovering clock
            // unconditionally.
            let new_error =
                estimate.error() + reply.round_trip * self.config.drift_bound.inflation();
            let proposal = TimeEstimate::new(estimate.time(), new_error);
            if !self.recovery_consistent(from, &proposal, clock_now) {
                self.stats.recoveries_rejected += 1;
                self.recovering = false;
                self.bus
                    .emit_with(TelemetryKind::RoundReject, || TelemetryEvent::RoundReject {
                        at: now,
                        server: self.me,
                        round: pending.round,
                        cause: RejectCause::Inconsistent,
                    });
                return;
            }
            let error_before = self.state.estimate_at(clock_now).error();
            self.bus
                .emit_with(TelemetryKind::RoundAdopt, || TelemetryEvent::RoundAdopt {
                    at: now,
                    server: self.me,
                    round: pending.round,
                    clock: clock_now,
                    error_before,
                    error_after: new_error,
                    input_widths: Vec::new(),
                    recovery: true,
                });
            self.apply_reset(
                now,
                Reset {
                    new_clock: estimate.time(),
                    new_error,
                },
            );
            self.stats.recoveries_applied += 1;
            self.recovering = false;
            return;
        }

        match self.config.strategy {
            Strategy::Mm => {
                let own = self.state.estimate_at(clock_now);
                match mm_decide(&own, self.config.drift_bound, &reply) {
                    MmOutcome::Reset(reset) => {
                        self.bus.emit_with(TelemetryKind::RoundAdopt, || {
                            TelemetryEvent::RoundAdopt {
                                at: now,
                                server: self.me,
                                round: pending.round,
                                clock: clock_now,
                                error_before: own.error(),
                                error_after: reset.new_error,
                                input_widths: Vec::new(),
                                recovery: false,
                            }
                        });
                        self.apply_reset(now, reset);
                    }
                    MmOutcome::Keep => {
                        // Injected bug: a weakened MM-2 guard adopts
                        // estimates the real rule rejects, writing an
                        // error *larger* than its own — the defect the
                        // theorem oracle exists to catch.
                        if let Some(ServerFaultKind::WeakenAdoption { slack }) =
                            self.fault_kind(now)
                        {
                            let adjusted = mm2_adjusted_error(
                                reply.estimate.error(),
                                reply.round_trip,
                                self.config.drift_bound,
                            );
                            if adjusted <= own.error() + slack {
                                self.bus.emit_with(TelemetryKind::RoundAdopt, || {
                                    TelemetryEvent::RoundAdopt {
                                        at: now,
                                        server: self.me,
                                        round: pending.round,
                                        clock: clock_now,
                                        error_before: own.error(),
                                        error_after: adjusted,
                                        input_widths: Vec::new(),
                                        recovery: false,
                                    }
                                });
                                self.apply_reset(
                                    now,
                                    Reset {
                                        new_clock: reply.estimate.time(),
                                        new_error: adjusted,
                                    },
                                );
                            }
                        }
                    }
                    MmOutcome::Inconsistent => {
                        self.stats.inconsistencies += 1;
                        self.bus.emit_with(TelemetryKind::RoundReject, || {
                            TelemetryEvent::RoundReject {
                                at: now,
                                server: self.me,
                                round: pending.round,
                                cause: RejectCause::Inconsistent,
                            }
                        });
                        self.maybe_recover(Some(from), ctx);
                    }
                }
            }
            Strategy::Im | Strategy::MarzulloTolerant { .. } | Strategy::Baseline(_) => {
                self.round_replies.push(BufferedReply {
                    peer: from,
                    estimate,
                    send_clock: pending.send_clock,
                    recv_clock: clock_now,
                });
            }
        }
    }

    /// The §5 screen on a §3 recovery reply: the rescuer's proposal must
    /// intersect at least half of the intervals most recently heard from
    /// the *remaining* peers, each aged to `clock_now` (its time advanced
    /// by the elapsed own-clock span, its error widened by `2δ` of it —
    /// both clocks drift at most `δ`). With no other peer on record there
    /// is nothing to screen against and the reply is taken on faith,
    /// exactly as in §3.
    fn recovery_consistent(
        &self,
        target: NodeId,
        proposal: &TimeEstimate,
        clock_now: Timestamp,
    ) -> bool {
        self.consistent_with_recent(Some(target), proposal, clock_now)
    }

    /// The screen behind [`Self::recovery_consistent`], reusable for the
    /// self-stabilization exit: does `proposal` intersect at least half
    /// of the freshest per-peer estimates (aged to `clock_now`),
    /// skipping `exclude` when the proposal originated there? With
    /// nothing on record there is nothing to disagree with.
    fn consistent_with_recent(
        &self,
        exclude: Option<NodeId>,
        proposal: &TimeEstimate,
        clock_now: Timestamp,
    ) -> bool {
        let widen_rate = 2.0 * self.config.drift_bound.as_f64();
        let mut consistent = 0usize;
        let mut total = 0usize;
        for (peer, record) in self.recent_estimates.iter().enumerate() {
            let Some((estimate, seen_clock)) = *record else {
                continue;
            };
            if Some(NodeId::new(peer)) == exclude {
                continue;
            }
            let age = (clock_now - seen_clock).max(Duration::ZERO);
            let aged =
                TimeEstimate::new(estimate.time() + age, estimate.error() + age * widen_rate);
            total += 1;
            if proposal.is_consistent_with(&aged) {
                consistent += 1;
            }
        }
        total == 0 || consistent * 2 >= total
    }

    /// The §3 recovery rule, health-aware: ask a neighbour other than
    /// the inconsistent one (if any is named), preferring Healthy peers,
    /// falling back to Suspects, and never soliciting a peer already
    /// declared Dead — a recovery request to a buried peer can only time
    /// out, wasting the one in-flight recovery this server allows
    /// itself. The answer, when it arrives, must still pass the §5
    /// consistency screen before it is adopted.
    fn maybe_recover(&mut self, inconsistent_with: Option<NodeId>, ctx: &mut Context<'_, Message>) {
        if self.config.recovery != RecoveryPolicy::ThirdServer || self.recovering {
            return;
        }
        let of_state = |state: PeerState| -> Vec<NodeId> {
            ctx.neighbors()
                .iter()
                .copied()
                .filter(|&n| Some(n) != inconsistent_with && self.health.state(n) == state)
                .collect()
        };
        let mut pool = of_state(PeerState::Healthy);
        if pool.is_empty() {
            pool = of_state(PeerState::Suspect);
        }
        if pool.is_empty() {
            return;
        }
        let peer = pool[ctx.rng().random_range(0..pool.len())];
        let at = ctx.now();
        self.bus.emit_with(TelemetryKind::RecoveryStarted, || {
            TelemetryEvent::RecoveryStarted {
                at,
                server: self.me,
            }
        });
        self.send_request(peer, 0, true, ctx);
        self.recovering = true;
        self.stats.recoveries_started += 1;
    }

    /// The scheduled state corruption: a transient fault overwrites the
    /// rule MM-1 state `(r_i, ε_i)`, the stable store, and the health
    /// tables with seeded garbage. Unlike a crash the server *keeps
    /// serving* — its replies are garbage until the next adoption that
    /// passes the §5 screen, which is exactly the self-stabilization
    /// window the oracle bounds.
    fn corrupt_state(&mut self, ctx: &mut Context<'_, Message>) {
        let Some(ServerFaultKind::CorruptState { seed }) = self.config.fault.map(|f| f.kind) else {
            return;
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let now = ctx.now();
        // Garbage clock: the hardware clock jumps 1–50 s either way, and
        // the claimed error shrinks or balloons to anywhere in
        // [1 ms, 10 s] — an arbitrary state in the self-stabilization
        // sense, not merely a large one.
        let magnitude = Duration::from_secs(rng.random_range(1.0..50.0));
        let offset = if rng.random_bool(0.5) {
            magnitude
        } else {
            -magnitude
        };
        let garbage_error = Duration::from_secs(rng.random_range(0.001..10.0));
        let raw = self.clock.read(now);
        let _ = self.clock.set(now, raw + offset);
        let served = self.reading(now);
        self.state.reset(served, garbage_error);
        // The corruption reaches stable storage too: a durable restart
        // inside the window would rehydrate garbage, exactly as a real
        // memory fault that was checkpointed before detection.
        self.store.persist(PersistedState {
            reset_clock: served,
            inherited_error: garbage_error,
            reset_at: now,
        });
        // Scramble the health tables: bursts of phantom timeouts can
        // bury perfectly healthy peers, so recovery must claw back from
        // a poisoned view of the neighbourhood as well.
        let peers: Vec<NodeId> = ctx.neighbors().to_vec();
        for peer in peers {
            for _ in 0..rng.random_range(0..8u32) {
                let _ = self.health.record_timeout(peer);
            }
        }
        // The neighbour-estimate cache is part of the clobbered tables.
        // Wiping it also closes a subtle hole in the stabilization
        // screen: cached estimates age by *own-clock* deltas, so a
        // clock jump would translate every pre-jump record along with
        // the garbage and make the corrupted state look "consistent"
        // with the neighbourhood. Only post-corruption records, taken
        // against the jumped clock, are correctly denominated.
        self.recent_estimates.clear();
        // In-flight request marks are torn by the jump the same way
        // (a pre-jump `send_clock` against the jumped clock is a
        // garbage round-trip, and rule MM-2 widens by exactly that
        // measurement). Unlike an adoption step the jump is not a
        // known, compensable quantity — the state is arbitrary — so
        // the marks are dropped, and replies to pre-corruption
        // requests count as late.
        self.pending.clear();
        self.round_replies.clear();
        self.corrupted_at = Some(now);
        // The front serves whatever the actor would: garbage state is
        // published too (the §5 stabilization exit will republish the
        // clean adoption the same way).
        self.publish_snapshot(now);
        self.bus.emit_with(TelemetryKind::StateCorrupted, || {
            TelemetryEvent::StateCorrupted {
                at: now,
                server: self.me,
                clock: served,
                error: garbage_error,
            }
        });
    }

    /// The scheduled crash: the server goes deaf and mute and loses all
    /// volatile protocol state — only the [`StableStore`] survives. The
    /// hardware clock keeps running (it is hardware), and the restart,
    /// if one is scheduled, is armed here.
    fn crash(&mut self, ctx: &mut Context<'_, Message>) {
        self.lifecycle = Lifecycle::Crashed;
        self.epoch = self.epoch.wrapping_add(1);
        self.pending.clear();
        self.round_replies.clear();
        self.boot_pending.clear();
        self.boot_replies.clear();
        self.recent_estimates.clear();
        self.recovering = false;
        self.degraded = false;
        self.stats.crashes += 1;
        let at = ctx.now();
        // Down: the front must refuse on our behalf immediately.
        self.publish_snapshot(at);
        self.bus.emit_with(TelemetryKind::ServerCrashed, || {
            TelemetryEvent::ServerCrashed {
                at,
                server: self.me,
            }
        });
        if let Some(schedule) = self.config.fault.and_then(|f| f.restart_schedule()) {
            ctx.set_timer(schedule.after, TIMER_RESTART);
        }
    }

    /// The scheduled restart. A *durable* restart rehydrates `(r_i, ε_i)`
    /// from stable storage and re-derives the error per rule MM-1 — the
    /// hardware clock ran through the downtime, so `E = ε + (C − r)·δ`
    /// has grown across it automatically — and promotes straight back to
    /// [`Lifecycle::Active`]. An *amnesia* restart lost the store: it
    /// enters [`Lifecycle::Booting`] and re-acquires the time from a
    /// quorum (§5) before serving anything.
    fn restart(&mut self, ctx: &mut Context<'_, Message>) {
        let schedule = self
            .config
            .fault
            .and_then(|f| f.restart_schedule())
            .expect("restart timer fired without a restart schedule");
        self.stats.restarts += 1;
        let now = ctx.now();
        let amnesia = schedule.amnesia;
        self.bus.emit_with(TelemetryKind::ServerRestarted, || {
            TelemetryEvent::ServerRestarted {
                at: now,
                server: self.me,
                amnesia,
            }
        });
        if amnesia {
            self.store.wipe();
            self.lifecycle = Lifecycle::Booting;
            self.boot_rounds = 0;
            self.begin_boot_round(ctx);
        } else {
            let clock_now = self.reading(now);
            if let Some(p) = self.store.load() {
                // Guard against a pre-crash step that left the current
                // reading behind the persisted reset point (the MM-1
                // growth term must stay non-negative).
                let reset_clock = p.reset_clock.min(clock_now);
                self.state =
                    ErrorState::new(reset_clock, p.inherited_error, self.config.drift_bound);
                self.bus.emit_with(TelemetryKind::StateRehydrated, || {
                    TelemetryEvent::StateRehydrated {
                        at: now,
                        server: self.me,
                        clock: clock_now,
                        error: self.state.error_at(clock_now),
                        reset_clock,
                        persisted_error: p.inherited_error,
                    }
                });
            }
            self.promote(0, ctx);
        }
        if let Some(uptime) = schedule.every {
            // A restart storm: the next crash is already scheduled.
            ctx.set_timer(uptime, TIMER_CRASH);
        }
    }

    /// Re-enters service after a restart: back to [`Lifecycle::Active`]
    /// with a fresh resync chain, started at a random fraction of the
    /// period (like a join) so restarted servers do not resync in
    /// lock-step.
    fn promote(&mut self, rounds: u32, ctx: &mut Context<'_, Message>) {
        self.lifecycle = Lifecycle::Active;
        let now = ctx.now();
        // Back in service (rehydrated or bootstrapped state already in
        // place): reopen the serving front under the new epoch.
        self.publish_snapshot(now);
        let clock = self.reading(now);
        self.bus.emit_with(TelemetryKind::BootstrapCompleted, || {
            TelemetryEvent::BootstrapCompleted {
                at: now,
                server: self.me,
                rounds,
                clock,
                error: self.state.error_at(clock),
            }
        });
        let fraction = ctx.rng().random_range(0.05..1.0);
        ctx.set_timer(
            self.config.resync_period * fraction,
            self.round_tag(TIMER_RESYNC),
        );
    }

    /// One §5 bootstrap round: ask every neighbour for the time, collect
    /// replies for one window, then try to intersect them in
    /// [`TimeServer::close_boot_round`].
    fn begin_boot_round(&mut self, ctx: &mut Context<'_, Message>) {
        self.boot_replies.clear();
        self.boot_pending.clear();
        self.boot_rounds += 1;
        self.stats.bootstrap_rounds += 1;
        let peers = ctx.neighbors().to_vec();
        for peer in peers {
            let request_id = self.fresh_request_id();
            let send_clock = self.reading(ctx.now());
            self.boot_pending.push((request_id, (peer, send_clock)));
            ctx.send(
                peer,
                Message::TimeRequest {
                    request_id,
                    attempt: 0,
                },
            );
        }
        ctx.set_timer(self.config.collect_window, self.round_tag(TIMER_BOOT_ROUND));
    }

    /// A reply received while booting: buffered for the bootstrap round
    /// (with its round-trip, measured like any other reply).
    fn handle_boot_reply(
        &mut self,
        from: NodeId,
        request_id: u64,
        estimate: TimeEstimate,
        ctx: &mut Context<'_, Message>,
    ) {
        let Some(at) = in_flight(&self.boot_pending, request_id) else {
            self.stats.late_replies += 1;
            return;
        };
        let (peer, send_clock) = self.boot_pending[at].1;
        if peer != from {
            self.stats.mismatched_replies += 1;
            return;
        }
        self.boot_pending.swap_remove(at);
        let recv_clock = self.reading(ctx.now());
        self.boot_replies.push(BufferedReply {
            peer: from,
            estimate,
            send_clock,
            recv_clock,
        });
    }

    /// Closes a bootstrap collection window. With a quorum of replies
    /// the server runs an IM-style read — its own interval is a
    /// synthesised, effectively unbounded stand-in, so the result is the
    /// intersection of the neighbours' claims — and promotes itself.
    /// Too few replies, or an empty intersection, and the round retries.
    fn close_boot_round(&mut self, ctx: &mut Context<'_, Message>) {
        let now = ctx.now();
        let clock_now = self.reading(now);
        let needed = self.config.quorum.max(1);
        if self.boot_replies.len() >= needed {
            let replies = age_buffered(
                &self.boot_replies,
                clock_now,
                self.config.drift_bound.inflation(),
            );
            // An amnesia restart holds no trustworthy interval of its
            // own: a year of claimed error is wider than anything a
            // peer will say, so only the peers constrain the result.
            let wide = TimeEstimate::new(clock_now, Duration::from_secs(3.2e7));
            if let ImOutcome::Reset(reset) = im_round(&wide, self.config.drift_bound, &replies) {
                self.apply_reset(now, reset);
                self.boot_replies.clear();
                self.boot_pending.clear();
                let rounds = self.boot_rounds;
                self.promote(rounds, ctx);
                return;
            }
        }
        self.begin_boot_round(ctx);
    }

    /// A peer refused our request because it is booting after a restart.
    /// The refusal is proof of liveness — the peer is back and talking —
    /// so its health record takes a reply (reinstating it if it was
    /// buried), but nothing is adopted, and a recovery aimed at it is
    /// abandoned so another third server can be tried.
    fn handle_uninitialized(
        &mut self,
        from: NodeId,
        request_id: u64,
        ctx: &mut Context<'_, Message>,
    ) {
        let Some(at) = in_flight(&self.pending, request_id) else {
            self.stats.late_replies += 1;
            return;
        };
        let pending = self.pending[at].1;
        if pending.peer != from {
            self.stats.mismatched_replies += 1;
            return;
        }
        self.pending.swap_remove(at);
        if pending.recovery {
            self.recovering = false;
        }
        if self.config.retry.is_enabled() {
            let before = self.health.state(from);
            if self.health.record_reply(from) {
                self.stats.peers_reinstated += 1;
            }
            let after = self.health.state(from);
            if before != after {
                let at = ctx.now();
                self.bus.emit_with(TelemetryKind::HealthChanged, || {
                    TelemetryEvent::HealthChanged {
                        at,
                        server: self.me,
                        peer: ctx.label_of(from),
                        from: health_state(before),
                        to: health_state(after),
                    }
                });
            }
        }
    }

    fn close_round(&mut self, ctx: &mut Context<'_, Message>) {
        let now = ctx.now();
        let clock_now = self.reading(now);
        // Degraded mode: a starved round (fewer replies than the
        // quorum) is not allowed to reset the clock — a partition or
        // mass crash could otherwise hand the synthesis to whatever
        // minority happens to answer. Skipping the reset is always
        // safe: rule MM-1 keeps growing `E_i`, so correctness is
        // preserved at the price of a wider interval, and §3 recovery
        // (if configured) looks for help.
        if self.config.quorum > 0 && self.round_replies.len() < self.config.quorum {
            self.stats.degraded_rounds += 1;
            let replies = self.round_replies.len();
            self.bus
                .emit_with(TelemetryKind::RoundReject, || TelemetryEvent::RoundReject {
                    at: now,
                    server: self.me,
                    round: self.current_round,
                    cause: RejectCause::Starved,
                });
            if !self.degraded {
                self.degraded = true;
                self.bus.emit_with(TelemetryKind::DegradedEnter, || {
                    TelemetryEvent::DegradedEnter {
                        at: now,
                        server: self.me,
                        round: self.current_round,
                        replies,
                        quorum: self.config.quorum,
                    }
                });
            }
            self.round_replies.clear();
            self.maybe_recover(None, ctx);
            return;
        }
        if self.degraded {
            self.degraded = false;
            self.bus.emit_with(TelemetryKind::DegradedExit, || {
                TelemetryEvent::DegradedExit {
                    at: now,
                    server: self.me,
                    round: self.current_round,
                }
            });
        }
        let own = self.state.estimate_at(clock_now);
        // A buffered reply has aged while waiting for the round to
        // close; see `age_buffered` for the two sound adjustments.
        let replies = age_buffered(
            &self.round_replies,
            clock_now,
            self.config.drift_bound.inflation(),
        );

        match self.config.strategy {
            Strategy::Mm => unreachable!("MM does not use round windows"),
            Strategy::Im => match im_round(&own, self.config.drift_bound, &replies) {
                ImOutcome::Reset(reset) => {
                    // The Theorem 6 inputs (own interval plus each reply
                    // widened by its round-trip allowance) are only
                    // computed inside the lazy closure, so rounds cost
                    // nothing extra when no observer wants adoptions.
                    self.bus.emit_with(TelemetryKind::RoundAdopt, || {
                        let mut input_widths = vec![own.error() + own.error()];
                        for r in &replies {
                            input_widths.push(
                                r.estimate.error()
                                    + r.estimate.error()
                                    + r.round_trip * self.config.drift_bound.inflation(),
                            );
                        }
                        TelemetryEvent::RoundAdopt {
                            at: now,
                            server: self.me,
                            round: self.current_round,
                            clock: clock_now,
                            error_before: own.error(),
                            error_after: reset.new_error,
                            input_widths,
                            recovery: false,
                        }
                    });
                    self.apply_reset(now, reset);
                }
                ImOutcome::Inconsistent => {
                    self.stats.inconsistencies += 1;
                    self.bus.emit_with(TelemetryKind::RoundReject, || {
                        TelemetryEvent::RoundReject {
                            at: now,
                            server: self.me,
                            round: self.current_round,
                            cause: RejectCause::Inconsistent,
                        }
                    });
                    let peer = self.round_replies.first().map(|b| b.peer);
                    self.maybe_recover(peer, ctx);
                }
            },
            Strategy::MarzulloTolerant { max_faulty } => {
                // Own interval plus each reply widened by its round-trip
                // allowance, as absolute intervals.
                let mut intervals = vec![own.interval()];
                for r in &replies {
                    intervals.push(
                        r.estimate
                            .interval()
                            .extend_leading(r.round_trip * self.config.drift_bound.inflation()),
                    );
                }
                let f = max_faulty.min(intervals.len() - 1);
                match marzullo::intersect_tolerating(&intervals, f) {
                    Some(best) => {
                        // Guard: never adopt an interval disjoint from our
                        // own (we would be provably incorrect if we were
                        // previously correct).
                        let (clipped, within_own): (TimeInterval, bool) =
                            match best.intersect(&own.interval()) {
                                Some(c) => (c, true),
                                None => (best, false),
                            };
                        // With f > 0 the max-coverage region may exclude
                        // some inputs, so Theorem 6 does not apply:
                        // record no input widths. The disjoint fallback
                        // is an unconditional adoption (it may raise E),
                        // so it is flagged like a recovery.
                        self.bus.emit_with(TelemetryKind::RoundAdopt, || {
                            TelemetryEvent::RoundAdopt {
                                at: now,
                                server: self.me,
                                round: self.current_round,
                                clock: clock_now,
                                error_before: own.error(),
                                error_after: clipped.radius(),
                                input_widths: Vec::new(),
                                recovery: !within_own,
                            }
                        });
                        self.apply_reset(
                            now,
                            Reset {
                                new_clock: clipped.midpoint(),
                                new_error: clipped.radius(),
                            },
                        );
                    }
                    None => {
                        self.stats.inconsistencies += 1;
                        self.bus.emit_with(TelemetryKind::RoundReject, || {
                            TelemetryEvent::RoundReject {
                                at: now,
                                server: self.me,
                                round: self.current_round,
                                cause: RejectCause::Inconsistent,
                            }
                        });
                    }
                }
            }
            Strategy::Baseline(kind) => {
                // The cited max/median/mean algorithms compare clock
                // *values*, so stale replies must first be extrapolated
                // to "now": a reply generated roughly half a round-trip
                // after the request has aged by
                // (clock_now − recv) + (recv − send)/2 local seconds.
                // (MM and IM need no such step — their rules absorb the
                // delay into the error instead.) After extrapolation the
                // residual delay uncertainty is only the asymmetric half
                // of the arrival round-trip, which is what inflates the
                // inherited error.
                let extrapolated: Vec<TimedReply> = self
                    .round_replies
                    .iter()
                    .map(|b| {
                        let rtt_arrival = (b.recv_clock - b.send_clock).max(Duration::ZERO);
                        let age =
                            (clock_now - b.recv_clock).max(Duration::ZERO) + rtt_arrival.half();
                        TimedReply::new(
                            TimeEstimate::new(b.estimate.time() + age, b.estimate.error()),
                            rtt_arrival,
                        )
                    })
                    .collect();
                let reset = baseline_round(&own, self.config.drift_bound, &extrapolated, kind);
                self.apply_reset(now, reset);
            }
        }
        self.round_replies.clear();
    }
}

impl Actor for TimeServer {
    type Msg = Message;

    fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
        self.started = true;
        // Global label, not the local node id: in a sharded sub-world
        // this server's telemetry must carry its deployment-wide
        // identity.
        self.me = ctx.label();
        // Make sure the clock has seen time zero.
        let _ = self.clock.read(ctx.now());
        if self.config.join_after == Duration::ZERO {
            self.join(ctx);
        } else {
            ctx.set_timer(self.config.join_after, TIMER_JOIN);
        }
        if let Some(leave) = self.config.leave_after {
            ctx.set_timer(leave, TIMER_LEAVE);
        }
        // A scheduled crash or state corruption becomes a timer: the
        // lifecycle machine (not a per-message check) fires the fault.
        if let Some(fault) = self.config.fault {
            match fault.kind {
                ServerFaultKind::Crash { .. } => {
                    ctx.set_timer((fault.at - ctx.now()).max(Duration::ZERO), TIMER_CRASH);
                }
                ServerFaultKind::CorruptState { .. } => {
                    ctx.set_timer((fault.at - ctx.now()).max(Duration::ZERO), TIMER_CORRUPT);
                }
                _ => {}
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut Context<'_, Message>) {
        if !self.active {
            // Not (or no longer) part of the service: unreachable to
            // requests, deaf to replies.
            return;
        }
        match self.lifecycle {
            Lifecycle::Crashed => {
                // Deaf and mute. The clock keeps ticking, but nobody
                // can read it any more.
                return;
            }
            Lifecycle::Booting => {
                match msg {
                    Message::TimeRequest { request_id, .. } => {
                        // §5 bootstrap refusal: no trustworthy interval
                        // yet, so decline explicitly rather than serve
                        // garbage or stay suspiciously silent.
                        ctx.send(from, Message::Uninitialized { request_id });
                    }
                    Message::TimeReply {
                        request_id,
                        estimate,
                        ..
                    } => {
                        self.handle_boot_reply(from, request_id, estimate, ctx);
                    }
                    // Both sides booting: nothing useful to exchange.
                    Message::Uninitialized { .. } => {}
                }
                return;
            }
            Lifecycle::Active => {}
        }
        let fault = self.fault_kind(ctx.now());
        match msg {
            Message::TimeRequest { request_id, .. } => {
                if let Some(ServerFaultKind::Omit { prob }) = fault {
                    if ctx.rng().random::<f64>() < prob {
                        return;
                    }
                }
                // Rule MM-1: reply with ⟨C_i(t), E_i(t)⟩. Handling is
                // instantaneous here, so T2 = T3 = the same reading.
                let mut estimate = self.current_estimate(ctx.now());
                match fault {
                    Some(ServerFaultKind::Lie {
                        clock_skew,
                        error_shrink,
                    }) => {
                        // The liar reports a skewed clock under a
                        // shrunken error claim — its advertised interval
                        // can exclude true time entirely. Its own
                        // synchronisation is untouched; it lies only to
                        // others.
                        estimate = TimeEstimate::new(
                            estimate.time() + clock_skew,
                            estimate.error() * error_shrink,
                        );
                    }
                    Some(ServerFaultKind::TwoFaced {
                        clock_skew,
                        error_shrink,
                    }) => {
                        // The two-faced liar tells half the service the
                        // clock is fast and the other half it is slow —
                        // the classic Byzantine split that a single
                        // shared lie cannot produce.
                        let signed = if ctx.label_of(from).is_multiple_of(2) {
                            clock_skew
                        } else {
                            -clock_skew
                        };
                        estimate = TimeEstimate::new(
                            estimate.time() + signed,
                            estimate.error() * error_shrink,
                        );
                    }
                    // Colluders stay honest among themselves (their
                    // mutual screens see nothing) and feed everyone
                    // outside the clique the same coordinated lie.
                    Some(ServerFaultKind::Collude {
                        clique,
                        clock_skew,
                        error_shrink,
                    }) if clique & (1u64 << ctx.label_of(from)) == 0 => {
                        estimate = TimeEstimate::new(
                            estimate.time() + clock_skew,
                            estimate.error() * error_shrink,
                        );
                    }
                    Some(ServerFaultKind::AdversarialLie { error_shrink }) => {
                        // Craft the lie against the victim's remembered
                        // `(r, ε)`: place a narrow interval just inside
                        // the upper edge of what the victim currently
                        // believes, so it passes intersection screens
                        // while dragging the victim as far as a single
                        // faulty source can. With nothing remembered
                        // about the victim, answer honestly and wait.
                        let remembered = self.recent_estimates.get(from.index()).copied().flatten();
                        if let Some((victim, seen_clock)) = remembered {
                            let clock_now = self.reading(ctx.now());
                            let age = (clock_now - seen_clock).max(Duration::ZERO);
                            let widen = 2.0 * self.config.drift_bound.as_f64();
                            let victim_time = victim.time() + age;
                            let victim_error = victim.error() + age * widen;
                            let lie_error = estimate.error() * error_shrink;
                            let pull = (victim_error - lie_error) * 0.9;
                            estimate = TimeEstimate::new(victim_time + pull, lie_error);
                        }
                    }
                    _ => {}
                }
                ctx.send(
                    from,
                    Message::TimeReply {
                        request_id,
                        received_at: estimate.time(),
                        estimate,
                    },
                );
            }
            Message::TimeReply {
                request_id,
                estimate,
                ..
            } => {
                self.handle_reply(from, request_id, estimate, ctx);
            }
            Message::Uninitialized { request_id } => {
                self.handle_uninitialized(from, request_id, ctx);
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, Message>) {
        if tag & TIMER_TIMEOUT_FLAG != 0 {
            if self.is_active() {
                self.handle_timeout(tag & !TIMER_TIMEOUT_FLAG, ctx);
            }
            return;
        }
        let base = tag & ((1 << TIMER_EPOCH_SHIFT) - 1);
        let current = (tag >> TIMER_EPOCH_SHIFT) as u32 == self.epoch;
        match base {
            TIMER_RESYNC if current && self.is_active() => self.begin_round(ctx),
            TIMER_ROUND_END if current && self.is_active() => self.close_round(ctx),
            TIMER_BOOT_ROUND if current && self.lifecycle == Lifecycle::Booting => {
                self.close_boot_round(ctx);
            }
            // Departed, crashed, or pre-crash epoch: the chain dies.
            TIMER_RESYNC | TIMER_ROUND_END | TIMER_BOOT_ROUND => {}
            TIMER_JOIN => self.join(ctx),
            TIMER_LEAVE => {
                self.active = false;
                self.pending.clear();
                self.round_replies.clear();
                self.recovering = false;
                self.degraded = false;
                let at = ctx.now();
                self.publish_snapshot(at);
                self.bus
                    .emit_with(TelemetryKind::Leave, || TelemetryEvent::Leave {
                        at,
                        server: self.me,
                    });
            }
            TIMER_CRASH if self.lifecycle != Lifecycle::Crashed => self.crash(ctx),
            TIMER_RESTART if self.lifecycle == Lifecycle::Crashed => self.restart(ctx),
            TIMER_CORRUPT if self.is_active() => self.corrupt_state(ctx),
            TIMER_CRASH | TIMER_RESTART | TIMER_CORRUPT => {}
            other => debug_assert!(false, "unknown timer tag {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_clocks::DriftModel;
    use tempo_core::DriftRate;
    use tempo_net::{DelayModel, NetConfig, Topology, World};

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn dur(s: f64) -> Duration {
        Duration::from_secs(s)
    }

    fn server(drift: f64, config: ServerConfig, seed: u64) -> TimeServer {
        let clock = SimClock::builder()
            .drift(DriftModel::Constant(drift))
            .seed(seed)
            .build();
        TimeServer::new(clock, config)
    }

    fn base_config(strategy: Strategy) -> ServerConfig {
        ServerConfig::new(strategy, DriftRate::new(1e-4))
            .resync_period(dur(10.0))
            .collect_window(dur(0.5))
            .initial_error(dur(0.05))
            .jitter(0.0)
    }

    fn run_service(strategy: Strategy, drifts: &[f64], until: f64, seed: u64) -> World<TimeServer> {
        let servers: Vec<TimeServer> = drifts
            .iter()
            .enumerate()
            .map(|(i, &d)| server(d, base_config(strategy), i as u64))
            .collect();
        let mut world = World::new(
            servers,
            Topology::full_mesh(drifts.len()),
            NetConfig::with_delay(DelayModel::Uniform {
                min: Duration::ZERO,
                max: dur(0.05),
            }),
            seed,
        );
        world.run_until(ts(until));
        world
    }

    #[test]
    fn server_answers_requests_with_mm1_estimate() {
        let mut world = run_service(Strategy::Mm, &[0.0, 0.0], 25.0, 1);
        // Both servers polled each other at least twice.
        for s in world.actors_mut() {
            assert!(s.stats().rounds >= 2);
            assert!(s.stats().replies >= 1);
        }
    }

    /// The in-flight table against the `HashMap<u64, _>` it replaced:
    /// sends, replies (first, duplicate, and for an id a round sweep
    /// already dropped), sweeps by round and landmark rebasing, with
    /// ids handed out by a counter and never reused.
    #[test]
    fn in_flight_table_matches_a_hash_map_model() {
        tempo_check::check("in_flight_table_matches_a_hash_map_model", 256, |g| {
            let mut table: InFlight<(u64, i64)> = Vec::new();
            let mut model: std::collections::HashMap<u64, (u64, i64)> = Default::default();
            let (mut next_id, mut round) = (g.int(0u64..1_000), 0u64);
            for _ in 0..g.int(0usize..300) {
                // Any id ever issued, answered and swept ones included.
                let issued = g.int(0..=next_id);
                let found = in_flight(&table, issued);
                assert_eq!(found.map(|at| table[at].1), model.get(&issued).copied());
                match g.int(0u8..8) {
                    0..=2 => {
                        let value = (round, g.int(-50i64..50));
                        table.push((next_id, value));
                        model.insert(next_id, value);
                        next_id += 1;
                    }
                    // A reply takes its entry out; its duplicate then
                    // finds nothing.
                    3..=5 => {
                        if let Some(at) = found {
                            table.swap_remove(at);
                            model.remove(&issued);
                        }
                        assert_eq!(in_flight(&table, issued), None);
                    }
                    6 => {
                        round += 1;
                        let keep = round - g.int(0u64..=1);
                        table.retain(|(_, v)| v.0 >= keep);
                        model.retain(|_, v| v.0 >= keep);
                    }
                    _ => {
                        let delta = g.int(-5i64..5);
                        table.iter_mut().for_each(|(_, v)| v.1 += delta);
                        model.values_mut().for_each(|v| v.1 += delta);
                    }
                }
                let mut want: Vec<_> = model.iter().map(|(&id, &v)| (id, v)).collect();
                let mut got = table.clone();
                want.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, want);
            }
        });
    }

    #[test]
    fn clock_step_rebases_inflight_marks() {
        // A reply's round-trip is measured as elapsed *own* clock since
        // the request's send mark. If an adoption steps the clock
        // backward mid-flight by more than the remaining flight time,
        // an un-rebased mark makes the measured ξ clamp to zero — and
        // rule MM-2 then adopts with no delay widening (a genuine
        // Theorem 1 break, found by the E17 fuzzer at seed 37).
        let mut s = server(0.0, base_config(Strategy::Mm), 9);
        let t0 = ts(100.0);
        let send_clock = s.reading(t0);
        s.pending.push((
            7,
            Pending {
                peer: NodeId::new(1),
                send_clock,
                round: 1,
                recovery: false,
                attempt: 0,
                deadline_clock: Some(send_clock + dur(1.0)),
            },
        ));
        s.recent_estimates = vec![
            None,
            None,
            Some((TimeEstimate::new(send_clock, dur(0.01)), send_clock)),
        ];
        // 9 ms into the flight an adoption steps the clock back 50 ms.
        let t1 = ts(100.009);
        let target = s.reading(t1) - dur(0.050);
        s.apply_reset(
            t1,
            Reset {
                new_clock: target,
                new_error: dur(0.005),
            },
        );
        let p = s.pending[in_flight(&s.pending, 7).expect("still in flight")].1;
        let rtt = s.reading(t1) - p.send_clock;
        assert!(
            (rtt.as_secs() - 0.009).abs() < 1e-9,
            "measured ξ must survive the step, got {rtt}"
        );
        let deadline = p.deadline_clock.expect("deadline survives");
        assert!(
            ((deadline - send_clock).as_secs() - (1.0 - 0.050)).abs() < 1e-9,
            "deadline moves with the step"
        );
        let (_, seen) = s.recent_estimates[2].expect("record survives");
        assert!(
            ((s.reading(t1) - seen).as_secs() - 0.009).abs() < 1e-9,
            "cached-claim age must survive the step"
        );
    }

    #[test]
    fn mm_service_stays_correct() {
        let drifts = [5e-5, -5e-5, 2e-5, -1e-5];
        let mut world = run_service(Strategy::Mm, &drifts, 300.0, 2);
        let now = world.now();
        for s in world.actors_mut() {
            let sample = s.sample(now);
            assert!(
                sample.correct,
                "MM server incorrect: offset {} error {}",
                sample.true_offset, sample.error
            );
        }
    }

    #[test]
    fn im_service_stays_correct_and_resets() {
        let drifts = [5e-5, -5e-5, 2e-5];
        let mut world = run_service(Strategy::Im, &drifts, 300.0, 3);
        let now = world.now();
        for s in world.actors_mut() {
            assert!(s.stats().resets > 0, "IM must reset each round");
            let sample = s.sample(now);
            assert!(sample.correct, "IM server incorrect");
        }
    }

    #[test]
    fn im_shrinks_error_relative_to_free_running() {
        // A free-running server's error after 300 s at δ=1e-4 is
        // 0.05 + 0.03 = 0.08 s; a synchronized IM server must do much
        // better than the free bound because intersections shrink.
        let drifts = [5e-5, -5e-5, 2e-5, -2e-5, 1e-5];
        let mut world = run_service(Strategy::Im, &drifts, 300.0, 4);
        let now = world.now();
        let worst = world
            .actors_mut()
            .iter_mut()
            .map(|s| s.sample(now).error)
            .fold(Duration::ZERO, Duration::max);
        assert!(
            worst < dur(0.08),
            "IM errors should stay below free-running growth, got {worst}"
        );
    }

    #[test]
    fn marzullo_strategy_survives_one_faulty_server() {
        let mut servers: Vec<TimeServer> = Vec::new();
        for i in 0..4 {
            let mut clock = SimClock::builder()
                .drift(DriftModel::Constant(1e-5))
                .seed(i)
                .build();
            if i == 3 {
                // A wildly wrong clock: jumps 100 s ahead at t = 1.
                clock = SimClock::builder()
                    .drift(DriftModel::Constant(1e-5))
                    .fault(tempo_clocks::Fault::step_at(ts(1.0), dur(100.0)))
                    .seed(i)
                    .build();
            }
            servers.push(TimeServer::new(
                clock,
                base_config(Strategy::MarzulloTolerant { max_faulty: 1 }),
            ));
        }
        let mut world = World::new(
            servers,
            Topology::full_mesh(4),
            NetConfig::with_delay(DelayModel::Constant(dur(0.01))),
            5,
        );
        world.run_until(ts(120.0));
        let now = world.now();
        // The three honest servers stay correct despite the faulty peer.
        for (i, s) in world.actors_mut().iter_mut().enumerate().take(3) {
            let sample = s.sample(now);
            assert!(
                sample.correct,
                "honest server {i} incorrect: offset {} error {}",
                sample.true_offset, sample.error
            );
        }
    }

    #[test]
    fn baseline_max_adopts_fastest_clock() {
        use tempo_core::sync::baseline::BaselineKind;
        let drifts = [1e-3, 0.0, 0.0];
        let mut world = run_service(
            Strategy::Baseline(BaselineKind::LamportMax),
            &drifts,
            100.0,
            6,
        );
        let now = world.now();
        // Everyone converges towards the fast clock: all true offsets
        // positive and similar.
        let offsets: Vec<f64> = world
            .actors_mut()
            .iter_mut()
            .map(|s| s.sample(now).true_offset.as_secs())
            .collect();
        assert!(offsets.iter().all(|&o| o > 0.0), "offsets {offsets:?}");
    }

    #[test]
    fn mm_ignores_inconsistent_replies() {
        // One server is stepped far ahead but claims a tiny error: its
        // replies are inconsistent and must be ignored by MM peers.
        let mut servers: Vec<TimeServer> = Vec::new();
        for i in 0..3 {
            let mut builder = SimClock::builder().drift(DriftModel::Constant(0.0)).seed(i);
            if i == 2 {
                builder = builder.fault(tempo_clocks::Fault::step_at(ts(0.5), dur(500.0)));
            }
            servers.push(TimeServer::new(builder.build(), base_config(Strategy::Mm)));
        }
        let mut world = World::new(
            servers,
            Topology::full_mesh(3),
            NetConfig::with_delay(DelayModel::Constant(dur(0.001))),
            7,
        );
        world.run_until(ts(100.0));
        let now = world.now();
        for (i, s) in world.actors_mut().iter_mut().enumerate().take(2) {
            assert!(
                s.stats().inconsistencies > 0,
                "server {i} must have seen inconsistent replies"
            );
            assert!(s.sample(now).correct, "server {i} stayed correct");
        }
    }

    #[test]
    fn recovery_resets_from_third_server() {
        // The §3 experiment in miniature: a racing clock with an invalid
        // drift claim, recovery via a third server.
        let mut servers: Vec<TimeServer> = Vec::new();
        for i in 0..3 {
            let mut builder = SimClock::builder().seed(i);
            if i == 0 {
                // ~4 % fast, far beyond the claimed 1e-4.
                builder = builder.drift(DriftModel::Constant(0.04));
            }
            servers.push(TimeServer::new(
                builder.build(),
                base_config(Strategy::Mm).recovery(RecoveryPolicy::ThirdServer),
            ));
        }
        let mut world = World::new(
            servers,
            Topology::full_mesh(3),
            NetConfig::with_delay(DelayModel::Constant(dur(0.001))),
            8,
        );
        world.run_until(ts(600.0));
        let stats = world.actors()[0].stats();
        assert!(
            stats.recoveries_started > 0,
            "the racing server must attempt recovery, stats {stats:?}"
        );
        assert!(stats.recoveries_applied > 0);
        // Each recovery snaps the racing clock back near true time.
        let now = world.now();
        let sample = world.actors_mut()[0].sample(now);
        // Between recoveries it drifts at 4 %, so its offset is bounded
        // by drift over one period plus slack.
        assert!(
            sample.true_offset.as_secs() < 0.04 * 10.0 * 2.0 + 1.0,
            "offset {} suggests recovery never happened",
            sample.true_offset
        );
    }

    #[test]
    fn sample_reports_incorrectness_of_bad_claims() {
        // A clock drifting far beyond its claimed bound becomes
        // incorrect when running solo.
        let clock = SimClock::builder()
            .drift(DriftModel::Constant(0.01))
            .build();
        let config = ServerConfig::new(Strategy::Mm, DriftRate::new(1e-6))
            .resync_period(dur(1e6))
            .initial_error(dur(0.001))
            .jitter(0.0);
        let mut server = TimeServer::new(clock, config);
        let sample = server.sample(ts(100.0));
        assert!(!sample.correct);
        assert!(sample.true_offset > dur(0.9));
        assert_eq!(sample.estimate().time(), sample.clock);
    }

    #[test]
    fn stats_accessors() {
        let s = server(0.0, base_config(Strategy::Mm), 0);
        assert_eq!(s.stats(), ServerStats::default());
        assert_eq!(s.config().strategy, Strategy::Mm);
    }

    #[test]
    fn lossless_run_shows_zero_timeouts() {
        // On a clean network whose worst round-trip is well under the
        // timeout, retries must never fire: no false suspicion.
        let servers: Vec<TimeServer> = (0..3)
            .map(|i| {
                server(
                    [5e-5, -5e-5, 1e-5][i as usize],
                    base_config(Strategy::Im).retry(RetryPolicy::Backoff {
                        timeout: dur(0.2),
                        max_retries: 3,
                        multiplier: 2.0,
                        jitter: 0.1,
                    }),
                    i,
                )
            })
            .collect();
        let mut world = World::new(
            servers,
            Topology::full_mesh(3),
            NetConfig::with_delay(DelayModel::Uniform {
                min: Duration::ZERO,
                max: dur(0.05),
            }),
            11,
        );
        world.run_until(ts(200.0));
        for (i, s) in world.actors().iter().enumerate() {
            let stats = s.stats();
            assert_eq!(stats.timeouts, 0, "server {i} falsely timed out: {stats:?}");
            assert_eq!(stats.retries, 0);
            assert_eq!(stats.peers_suspected, 0);
        }
    }

    #[test]
    fn loss_triggers_timeouts_and_retries() {
        let servers: Vec<TimeServer> = (0..4)
            .map(|i| {
                server(
                    [5e-5, -5e-5, 2e-5, -1e-5][i as usize],
                    base_config(Strategy::Im).collect_window(dur(1.0)).retry(
                        RetryPolicy::Backoff {
                            timeout: dur(0.15),
                            max_retries: 3,
                            multiplier: 2.0,
                            jitter: 0.1,
                        },
                    ),
                    i,
                )
            })
            .collect();
        let mut config = NetConfig::with_delay(DelayModel::Uniform {
            min: Duration::ZERO,
            max: dur(0.05),
        });
        config.loss = 0.3;
        let mut world = World::new(servers, Topology::full_mesh(4), config, 12);
        world.run_until(ts(300.0));
        let now = world.now();
        let mut timeouts = 0;
        let mut retries = 0;
        for s in world.actors_mut() {
            timeouts += s.stats().timeouts;
            retries += s.stats().retries;
            assert!(s.sample(now).correct, "lossy-run server went incorrect");
        }
        assert!(timeouts > 0, "30% loss must produce timeouts");
        assert!(retries > 0, "timeouts inside the window must retry");
    }

    #[test]
    fn crashed_peer_is_suspected_then_dead() {
        let mut servers: Vec<TimeServer> = Vec::new();
        for i in 0..3 {
            let mut config = base_config(Strategy::Mm).retry(RetryPolicy::Backoff {
                timeout: dur(0.2),
                max_retries: 1,
                multiplier: 2.0,
                jitter: 0.0,
            });
            if i == 2 {
                config = config.fault(crate::fault::ServerFault::crash_at(ts(15.0)));
            }
            servers.push(server(0.0, config, i));
        }
        let mut world = World::new(
            servers,
            Topology::full_mesh(3),
            NetConfig::with_delay(DelayModel::Constant(dur(0.01))),
            13,
        );
        world.run_until(ts(400.0));
        let crashed = NodeId::new(2);
        for (i, s) in world.actors().iter().enumerate().take(2) {
            assert_eq!(
                s.peer_state(crashed),
                PeerState::Dead,
                "server {i} never buried the crashed peer: {:?}",
                s.stats()
            );
            assert!(s.stats().peers_suspected >= 1);
            assert_eq!(s.peer_state(NodeId::new(1 - i)), PeerState::Healthy);
        }
    }

    #[test]
    fn starved_rounds_degrade_instead_of_resetting() {
        // Two of three servers crash early: the survivor's rounds can
        // no longer meet a quorum of 2, so it must stop resetting and
        // let E_i grow (staying correct) rather than adopt whatever a
        // single straggler reply says.
        let mut servers: Vec<TimeServer> = Vec::new();
        for i in 0..3 {
            let mut config = base_config(Strategy::Im)
                .quorum(2)
                .retry(RetryPolicy::backoff_defaults());
            if i > 0 {
                config = config.fault(crate::fault::ServerFault::crash_at(ts(15.0)));
            }
            servers.push(server(2e-5, config, i));
        }
        let mut world = World::new(
            servers,
            Topology::full_mesh(3),
            NetConfig::with_delay(DelayModel::Constant(dur(0.01))),
            14,
        );
        world.run_until(ts(200.0));
        let now = world.now();
        let survivor = &mut world.actors_mut()[0];
        let stats = survivor.stats();
        assert!(
            stats.degraded_rounds > 0,
            "rounds without quorum must degrade: {stats:?}"
        );
        let sample = survivor.sample(now);
        assert!(sample.correct, "the degraded survivor must stay correct");
        // E_i grew per rule MM-1 since the last good round.
        assert!(sample.error > dur(0.02));
    }

    #[test]
    fn partition_suspects_then_reinstates_peers() {
        let servers: Vec<TimeServer> = (0..4)
            .map(|i| {
                server(
                    [3e-5, -3e-5, 1e-5, -1e-5][i as usize],
                    base_config(Strategy::Im)
                        .retry(RetryPolicy::Backoff {
                            timeout: dur(0.2),
                            max_retries: 1,
                            multiplier: 2.0,
                            jitter: 0.0,
                        })
                        .health(crate::health::HealthConfig {
                            suspect_after: 2,
                            dead_after: 6,
                            probe_every: 3,
                        }),
                    i,
                )
            })
            .collect();
        let mut config = NetConfig::with_delay(DelayModel::Constant(dur(0.01)));
        config.partitions.push(tempo_net::Partition {
            from: ts(30.0),
            until: ts(120.0),
            groups: vec![
                vec![NodeId::new(0), NodeId::new(1)],
                vec![NodeId::new(2), NodeId::new(3)],
            ],
        });
        let mut world = World::new(servers, Topology::full_mesh(4), config, 15);
        world.run_until(ts(400.0));
        let now = world.now();
        for (i, s) in world.actors_mut().iter_mut().enumerate() {
            let stats = s.stats();
            assert!(
                stats.peers_suspected > 0,
                "server {i} never suspected its partitioned peers: {stats:?}"
            );
            assert!(
                stats.peers_reinstated > 0,
                "server {i} never reinstated a peer after healing: {stats:?}"
            );
            assert!(s.sample(now).correct, "server {i} went incorrect");
            // Long after healing, everyone is healthy again.
            for peer in 0..4 {
                if peer != i {
                    assert_eq!(s.peer_state(NodeId::new(peer)), PeerState::Healthy);
                }
            }
        }
    }

    /// A node that answers its own requests honestly but *also* forges a
    /// reply to `request_id + 1` — an id the requester recorded against
    /// a different peer (ids are handed out sequentially within a
    /// round). The runtime peer check must drop the forgery.
    #[derive(Debug)]
    enum ForgeNode {
        Server(Box<TimeServer>),
        Forger,
    }

    impl Actor for ForgeNode {
        type Msg = Message;

        fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
            if let ForgeNode::Server(s) = self {
                s.on_start(ctx);
            }
        }

        fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut Context<'_, Message>) {
            match self {
                ForgeNode::Server(s) => s.on_message(from, msg, ctx),
                ForgeNode::Forger => {
                    if let Message::TimeRequest { request_id, .. } = msg {
                        let estimate =
                            TimeEstimate::new(ctx.now() + Duration::from_secs(30.0), dur(0.001));
                        for id in [request_id, request_id + 1] {
                            ctx.send(
                                from,
                                Message::TimeReply {
                                    request_id: id,
                                    received_at: estimate.time(),
                                    estimate,
                                },
                            );
                        }
                    }
                }
            }
        }

        fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, Message>) {
            if let ForgeNode::Server(s) = self {
                s.on_timer(tag, ctx);
            }
        }
    }

    #[test]
    fn forged_reply_from_wrong_peer_is_dropped() {
        // Node 1 forges answers to ids addressed to node 2. Before the
        // runtime check this was only a debug_assert: in release the
        // forged estimate would be processed under node 2's pending
        // entry, polluting its round-trip measurement and (with
        // screening) node 2's rate record.
        let nodes = vec![
            ForgeNode::Server(Box::new(server(0.0, base_config(Strategy::Mm), 0))),
            ForgeNode::Forger,
            ForgeNode::Server(Box::new(server(0.0, base_config(Strategy::Mm), 2))),
        ];
        let mut world = World::new(
            nodes,
            Topology::full_mesh(3),
            NetConfig::with_delay(DelayModel::Constant(dur(0.01))),
            16,
        );
        world.run_until(ts(100.0));
        let now = world.now();
        let ForgeNode::Server(s) = &mut world.actors_mut()[0] else {
            unreachable!()
        };
        let stats = s.stats();
        assert!(
            stats.mismatched_replies > 0,
            "the forged replies must be counted: {stats:?}"
        );
        assert!(s.sample(now).correct, "the forgery must not be adopted");
    }

    #[test]
    fn recovery_skips_dead_candidates() {
        // Server 0 races at 4 %; the only recovery candidate it is ever
        // offered (server 2, since server 1 is the inconsistent one) has
        // crashed terminally. A health-blind picker would solicit the
        // corpse every round forever; the health-aware one stops once
        // the peer is declared Dead.
        let mut servers: Vec<TimeServer> = Vec::new();
        for i in 0..3 {
            let mut builder = SimClock::builder().seed(i);
            if i == 0 {
                builder = builder.drift(DriftModel::Constant(0.04));
            }
            let mut config = base_config(Strategy::Mm)
                .recovery(RecoveryPolicy::ThirdServer)
                .retry(RetryPolicy::Backoff {
                    timeout: dur(0.2),
                    max_retries: 1,
                    multiplier: 2.0,
                    jitter: 0.0,
                })
                .health(crate::health::HealthConfig {
                    suspect_after: 2,
                    dead_after: 4,
                    probe_every: 8,
                });
            if i == 2 {
                config = config.fault(crate::fault::ServerFault::crash_at(ts(5.0)));
            }
            servers.push(TimeServer::new(builder.build(), config));
        }
        let mut world = World::new(
            servers,
            Topology::full_mesh(3),
            NetConfig::with_delay(DelayModel::Constant(dur(0.001))),
            31,
        );
        world.run_until(ts(600.0));
        let racer = &world.actors()[0];
        let stats = racer.stats();
        assert_eq!(
            racer.peer_state(NodeId::new(2)),
            PeerState::Dead,
            "the crashed candidate must be buried: {stats:?}"
        );
        assert!(stats.timeouts > 0);
        // ~60 rounds each produce an inconsistency; a health-blind
        // picker would have started a doomed recovery in nearly all of
        // them. Health-aware, only the handful before the burial count.
        assert!(
            stats.recoveries_started < 10,
            "recovery kept soliciting a Dead peer: {stats:?}"
        );
    }

    #[test]
    fn lying_recovery_target_is_screened_out() {
        // §3 recovery with a lying third server: before the §5 screen
        // the racing server adopted the 500 s lie outright. The screen
        // compares the rescuer's claim against what the *other*
        // neighbours said recently, so the lie is rejected while honest
        // rescues still land.
        let mut servers: Vec<TimeServer> = Vec::new();
        for i in 0..4 {
            let mut builder = SimClock::builder().seed(i);
            if i == 0 {
                builder = builder.drift(DriftModel::Constant(0.04));
            }
            let mut config = base_config(Strategy::Mm).recovery(RecoveryPolicy::ThirdServer);
            if i == 3 {
                config = config.fault(crate::fault::ServerFault::lie_from(
                    ts(0.0),
                    dur(500.0),
                    0.01,
                ));
            }
            servers.push(TimeServer::new(builder.build(), config));
        }
        let mut world = World::new(
            servers,
            Topology::full_mesh(4),
            NetConfig::with_delay(DelayModel::Constant(dur(0.001))),
            32,
        );
        world.run_until(ts(600.0));
        let now = world.now();
        let racer = &mut world.actors_mut()[0];
        let stats = racer.stats();
        assert!(
            stats.recoveries_rejected > 0,
            "the liar was never screened out: {stats:?}"
        );
        assert!(
            stats.recoveries_applied > 0,
            "honest rescuers must still be adopted: {stats:?}"
        );
        let sample = racer.sample(now);
        assert!(
            sample.true_offset.abs() < dur(10.0),
            "the 500 s lie poisoned the recovering clock: offset {}",
            sample.true_offset
        );
    }

    /// What a peer most recently recorded about `of`, expressed as the
    /// claimed offset from the recorder's own clock at receipt — ≈ 0 for
    /// an honest claim under zero drift and millisecond delays.
    fn recorded_offset(server: &TimeServer, of: usize) -> (Duration, Duration) {
        let (estimate, seen_clock) = server.recent_estimates[of].expect("a record of the peer");
        (estimate.time() - seen_clock, estimate.error())
    }

    #[test]
    fn two_faced_liar_splits_its_story_by_destination() {
        // Server 2 is two-faced: even-indexed requesters are told the
        // clock is 5 s fast, odd-indexed ones 5 s slow. Each victim's
        // freshest record of the liar shows its own half of the split.
        let mut servers: Vec<TimeServer> = Vec::new();
        for i in 0..3 {
            let mut config = base_config(Strategy::Mm);
            if i == 2 {
                config = config.fault(crate::fault::ServerFault::two_faced_from(
                    ts(0.0),
                    dur(5.0),
                    0.1,
                ));
            }
            servers.push(server(0.0, config, i));
        }
        let mut world = World::new(
            servers,
            Topology::full_mesh(3),
            NetConfig::with_delay(DelayModel::Constant(dur(0.001))),
            41,
        );
        world.run_until(ts(35.0));
        let (to_even, err_even) = recorded_offset(&world.actors()[0], 2);
        let (to_odd, err_odd) = recorded_offset(&world.actors()[1], 2);
        assert!(to_even > dur(4.0), "even victim saw {to_even}, not +5 s");
        assert!(to_odd < dur(-4.0), "odd victim saw {to_odd}, not -5 s");
        assert!(err_even < dur(0.02), "the error claim was not shrunk");
        assert!(err_odd < dur(0.02));
    }

    #[test]
    fn colluders_lie_to_victims_but_not_to_the_clique() {
        // Server 3 colludes with server 2 (clique bitmask {2, 3}): its
        // replies to 0 and 1 carry a coordinated 5 s lie, while server 2
        // is told the truth — the clique's mutual screens see nothing.
        let mut servers: Vec<TimeServer> = Vec::new();
        for i in 0..4 {
            let mut config = base_config(Strategy::Mm);
            if i == 3 {
                config = config.fault(crate::fault::ServerFault::collude_from(
                    ts(0.0),
                    0b1100,
                    dur(5.0),
                    0.1,
                ));
            }
            servers.push(server(0.0, config, i));
        }
        let mut world = World::new(
            servers,
            Topology::full_mesh(4),
            NetConfig::with_delay(DelayModel::Constant(dur(0.001))),
            42,
        );
        world.run_until(ts(35.0));
        let (to_victim, _) = recorded_offset(&world.actors()[0], 3);
        let (to_other_victim, _) = recorded_offset(&world.actors()[1], 3);
        let (to_clique, _) = recorded_offset(&world.actors()[2], 3);
        assert!(to_victim > dur(4.0), "victim 0 saw {to_victim}");
        assert!(to_other_victim > dur(4.0), "victim 1 saw {to_other_victim}");
        assert!(
            to_clique.abs() < dur(0.5),
            "the clique member was lied to: {to_clique}"
        );
    }

    #[test]
    fn adversarial_liar_crafts_the_lie_inside_the_victims_interval() {
        // The adversarial liar shapes each reply against the victim's
        // remembered `(r, ε)`: a sharply shrunken error claim placed
        // near the upper edge of the victim's own interval, so it is
        // consistent with what the victim believes yet pulls as hard as
        // one faulty source can.
        let mut servers: Vec<TimeServer> = Vec::new();
        for i in 0..3 {
            // A loose drift bound keeps every interval tens of
            // milliseconds wide, so the crafted pull is well clear of
            // network-delay noise.
            let mut config = ServerConfig::new(Strategy::Mm, DriftRate::new(2e-3))
                .resync_period(dur(10.0))
                .collect_window(dur(0.5))
                .initial_error(dur(0.05))
                .jitter(0.0);
            if i == 2 {
                config = config.fault(crate::fault::ServerFault::adversarial_from(ts(0.0), 0.1));
            }
            servers.push(server(0.0, config, i));
        }
        let mut world = World::new(
            servers,
            Topology::full_mesh(3),
            NetConfig::with_delay(DelayModel::Constant(dur(0.001))),
            43,
        );
        world.run_until(ts(35.0));
        let now = ts(35.0);
        // The victims' clocks drift-free at 0.0, so any displacement
        // from real time is the lie's doing. (The recorded offset of
        // the liar is no pull gauge here: MM steps onto the shrunken
        // claim at receipt, and the mark rebasing then reads the
        // post-adoption residual — exactly zero.)
        let pull = world.actors_mut()[0].reading(now) - now;
        let (_, claimed_error) = recorded_offset(&world.actors()[0], 2);
        // The lie is shifted upward but stays small (within the
        // victim's ~50 ms interval) — nothing like the blatant 5 s of
        // the cruder tiers.
        assert!(
            pull > dur(0.005),
            "the crafted lie did not pull the victim: {pull}"
        );
        assert!(pull < dur(0.5), "the lie overshot the victim's interval");
        assert!(
            claimed_error < dur(0.02),
            "the error claim was not shrunk: {claimed_error}"
        );
    }

    #[test]
    fn corruption_scrambles_state_and_stabilizes_via_the_screen() {
        // Server 3's state is overwritten with seeded garbage at t = 50
        // (clock jumped ≥ 1 s, garbage persisted to stable storage); it
        // keeps serving, and the next Marzullo adoption that agrees with
        // the neighbourhood's recent claims ends the corruption window.
        let mut servers: Vec<TimeServer> = Vec::new();
        for i in 0..4 {
            let mut config = base_config(Strategy::MarzulloTolerant { max_faulty: 1 });
            if i == 3 {
                config = config.fault(crate::fault::ServerFault::corrupt_at(ts(50.0), 9));
            }
            servers.push(server(0.0, config, i));
        }
        let mut world = World::new(
            servers,
            Topology::full_mesh(4),
            NetConfig::with_delay(DelayModel::Constant(dur(0.001))),
            44,
        );
        world.run_until(ts(50.5));
        {
            let now = world.now();
            let victim = &mut world.actors_mut()[3];
            assert_eq!(victim.corrupted_since(), Some(ts(50.0)));
            let sample = victim.sample(now);
            assert!(
                sample.true_offset.abs() > dur(0.9),
                "the garbage clock jump is missing: offset {}",
                sample.true_offset
            );
            let persisted = victim.persisted().expect("store survives corruption");
            assert_eq!(
                persisted.reset_at,
                ts(50.0),
                "the garbage was not persisted"
            );
        }
        world.run_until(ts(300.0));
        let now = world.now();
        let victim = &mut world.actors_mut()[3];
        assert_eq!(
            victim.corrupted_since(),
            None,
            "the server never stabilized: {:?}",
            victim.stats()
        );
        let sample = victim.sample(now);
        assert!(
            sample.true_offset.abs() < dur(0.5),
            "stabilized but still far off: {}",
            sample.true_offset
        );
    }

    #[test]
    fn durable_restart_rehydrates_and_reintegrates() {
        let mut servers: Vec<TimeServer> = Vec::new();
        for i in 0..3 {
            let mut config = base_config(Strategy::Mm)
                .retry(RetryPolicy::Backoff {
                    timeout: dur(0.2),
                    max_retries: 1,
                    multiplier: 2.0,
                    jitter: 0.0,
                })
                .health(crate::health::HealthConfig {
                    suspect_after: 2,
                    dead_after: 4,
                    probe_every: 4,
                });
            if i == 2 {
                config = config.fault(crate::fault::ServerFault::crash_restart(
                    ts(30.0),
                    dur(25.0),
                    false,
                ));
            }
            servers.push(server([2e-5, -2e-5, 3e-5][i as usize], config, i));
        }
        let mut world = World::new(
            servers,
            Topology::full_mesh(3),
            NetConfig::with_delay(DelayModel::Constant(dur(0.01))),
            33,
        );
        world.run_until(ts(200.0));
        let now = world.now();
        {
            let restarted = &mut world.actors_mut()[2];
            let stats = restarted.stats();
            assert_eq!(stats.crashes, 1);
            assert_eq!(stats.restarts, 1);
            assert_eq!(stats.bootstrap_rounds, 0, "durable restarts do not boot");
            assert_eq!(restarted.lifecycle(), Lifecycle::Active);
            assert!(restarted.persisted().is_some());
            let sample = restarted.sample(now);
            assert!(
                sample.correct,
                "rule MM-1 across the downtime must keep the rehydrated \
                 interval correct: offset {} error {}",
                sample.true_offset, sample.error
            );
        }
        // The peers buried or suspected it while it was down, and the
        // probe path reinstated it after the restart.
        for (i, s) in world.actors().iter().enumerate().take(2) {
            assert!(s.stats().peers_suspected >= 1, "server {i} never suspected");
            assert_eq!(
                s.peer_state(NodeId::new(2)),
                PeerState::Healthy,
                "server {i} never reinstated the restarted peer"
            );
        }
    }

    #[test]
    fn amnesia_restart_bootstraps_before_serving() {
        let mut servers: Vec<TimeServer> = Vec::new();
        for i in 0..3 {
            let mut config = base_config(Strategy::Mm);
            if i == 2 {
                config = config.fault(crate::fault::ServerFault::crash_restart(
                    ts(30.0),
                    dur(20.0),
                    true,
                ));
            }
            servers.push(server([2e-5, -2e-5, 3e-5][i as usize], config, i));
        }
        let mut world = World::new(
            servers,
            Topology::full_mesh(3),
            NetConfig::with_delay(DelayModel::Constant(dur(0.01))),
            34,
        );
        world.run_until(ts(200.0));
        let now = world.now();
        let restarted = &mut world.actors_mut()[2];
        let stats = restarted.stats();
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.restarts, 1);
        assert!(
            stats.bootstrap_rounds >= 1,
            "an amnesia restart must re-acquire the time: {stats:?}"
        );
        assert_eq!(restarted.lifecycle(), Lifecycle::Active);
        // The bootstrap adoption re-persisted fresh state.
        assert!(restarted.persisted().is_some());
        let sample = restarted.sample(now);
        assert!(
            sample.correct,
            "the quorum read must hand back a correct interval: offset {} error {}",
            sample.true_offset, sample.error
        );
    }

    #[test]
    fn restart_storm_keeps_reintegrating() {
        let mut servers: Vec<TimeServer> = Vec::new();
        for i in 0..3 {
            let mut config = base_config(Strategy::Mm);
            if i == 2 {
                config = config.fault(crate::fault::ServerFault::restart_storm(
                    ts(20.0),
                    dur(5.0),
                    dur(40.0),
                    false,
                ));
            }
            servers.push(server([2e-5, -2e-5, 3e-5][i as usize], config, i));
        }
        let mut world = World::new(
            servers,
            Topology::full_mesh(3),
            NetConfig::with_delay(DelayModel::Constant(dur(0.01))),
            35,
        );
        world.run_until(ts(300.0));
        let now = world.now();
        let stormed = &mut world.actors_mut()[2];
        let stats = stormed.stats();
        assert!(
            stats.crashes >= 5 && stats.restarts >= 5,
            "the storm must keep cycling: {stats:?}"
        );
        assert_eq!(stormed.lifecycle(), Lifecycle::Active);
        let sample = stormed.sample(now);
        assert!(
            sample.correct,
            "every durable restart must reintegrate correctly: offset {} error {}",
            sample.true_offset, sample.error
        );
        // The survivors never went incorrect either.
        for s in world.actors_mut().iter_mut().take(2) {
            assert!(s.sample(now).correct);
        }
    }

    #[test]
    fn late_replies_are_counted_not_processed() {
        // With a collect window much shorter than the max delay, IM
        // rounds close before slow replies arrive.
        let servers: Vec<TimeServer> = (0..3)
            .map(|i| {
                server(
                    0.0,
                    base_config(Strategy::Im)
                        .resync_period(dur(10.0))
                        .collect_window(dur(0.01)),
                    i,
                )
            })
            .collect();
        let mut world = World::new(
            servers,
            Topology::full_mesh(3),
            NetConfig::with_delay(DelayModel::Constant(dur(5.0))),
            9,
        );
        world.run_until(ts(100.0));
        let total_late: usize = world.actors().iter().map(|s| s.stats().late_replies).sum();
        assert!(total_late > 0, "slow replies must be counted as late");
    }
}

#[cfg(test)]
mod slew_tests {
    use super::*;
    use crate::config::ApplyMode;
    use tempo_clocks::DriftModel;
    use tempo_core::DriftRate;
    use tempo_net::{DelayModel, NetConfig, Topology, World};

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn dur(s: f64) -> Duration {
        Duration::from_secs(s)
    }

    fn slew_config() -> ServerConfig {
        ServerConfig::new(Strategy::Im, DriftRate::new(1e-4))
            .resync_period(dur(10.0))
            .collect_window(dur(0.5))
            .initial_error(dur(0.05))
            .apply(ApplyMode::Slew { max_rate: 5e-3 })
            .jitter(0.0)
    }

    #[test]
    fn slewing_servers_serve_monotonic_time_and_stay_correct() {
        let drifts = [8e-5, -8e-5, 4e-5, -4e-5];
        let servers: Vec<TimeServer> = drifts
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                let clock = SimClock::builder()
                    .drift(DriftModel::Constant(d))
                    .seed(i as u64)
                    .build();
                TimeServer::new(clock, slew_config())
            })
            .collect();
        let mut world = World::new(
            servers,
            Topology::full_mesh(4),
            NetConfig::with_delay(DelayModel::Constant(dur(0.005))),
            21,
        );
        let mut last_readings = [f64::MIN; 4];
        for step in 1..=150 {
            let now = ts(f64::from(step) * 2.0);
            world.run_until(now);
            for (i, s) in world.actors_mut().iter_mut().enumerate() {
                let sample = s.sample(now);
                let reading = sample.clock.as_secs();
                assert!(
                    reading >= last_readings[i],
                    "S{i}'s served clock went backwards: {reading} < {}",
                    last_readings[i]
                );
                last_readings[i] = reading;
                assert!(
                    sample.correct,
                    "S{i} incorrect at {now}: offset {} error {}",
                    sample.true_offset, sample.error
                );
            }
        }
        // Slewing did happen (clocks with ±80 ppm drift must correct).
        let resets: usize = world.actors().iter().map(|s| s.stats().resets).sum();
        assert!(resets > 10);
    }

    #[test]
    fn step_mode_can_go_backwards_slew_mode_cannot() {
        // One fast server synchronising against three accurate ones:
        // in step mode its clock is stepped back; in slew mode it never
        // regresses.
        // Corrections must exceed the sampling stride to be visible:
        // 0.9 % drift over a 10 s period is a ~90 ms step-back, sampled
        // every 40 ms.
        let run = |apply: ApplyMode| -> bool {
            let mut servers: Vec<TimeServer> = Vec::new();
            for i in 0..4 {
                let drift = if i == 0 { 9e-3 } else { 0.0 };
                let clock = SimClock::builder()
                    .drift(DriftModel::Constant(drift))
                    .seed(i)
                    .build();
                let config = ServerConfig::new(Strategy::Im, DriftRate::new(1e-2))
                    .resync_period(dur(10.0))
                    .collect_window(dur(0.5))
                    .initial_error(dur(0.05))
                    .jitter(0.0)
                    .apply(apply);
                servers.push(TimeServer::new(clock, config));
            }
            let mut world = World::new(
                servers,
                Topology::full_mesh(4),
                NetConfig::with_delay(DelayModel::Constant(dur(0.001))),
                22,
            );
            let mut last = f64::MIN;
            let mut regressed = false;
            for step in 1..=2500 {
                let now = ts(f64::from(step) * 0.04);
                world.run_until(now);
                let reading = world.actors_mut()[0].sample(now).clock.as_secs();
                if reading < last {
                    regressed = true;
                }
                last = reading;
            }
            regressed
        };
        assert!(
            run(ApplyMode::Step),
            "a fast stepping clock must occasionally be set backwards"
        );
        assert!(
            !run(ApplyMode::Slew { max_rate: 2e-2 }),
            "a slewing clock must never go backwards"
        );
    }

    #[test]
    fn slew_reset_covers_pending_correction() {
        let clock = SimClock::builder()
            .initial_value(ts(5.0)) // 5 s fast
            .build();
        let mut server = TimeServer::new(clock, slew_config().initial_error(dur(6.0)));
        // Force a reset to true time through the public path: feed the
        // server a reply directly via apply_reset (white-box).
        server.apply_reset(
            ts(0.0),
            Reset {
                new_clock: ts(0.0),
                new_error: dur(0.01),
            },
        );
        // The served clock is still ~5 s fast, but the claimed error
        // covers the full pending correction.
        let est = server.current_estimate(ts(0.0));
        assert!((est.time().as_secs() - 5.0).abs() < 1e-9);
        assert!(est.error().as_secs() >= 5.0);
        assert!(est.is_correct_at(ts(0.0)));
    }
}
