//! The time server actor.
//!
//! A [`TimeServer`] owns a simulated hardware clock and the rule MM-1
//! state `(r_i, ε_i, δ_i)`. It answers time requests with
//! `⟨C_i(t), E_i(t)⟩`, polls its neighbours every `τ`, and synchronises
//! with the configured [`Strategy`]. All protocol timing is measured on
//! the server's *own clock* — the simulator's real time is only ever
//! used to drive that clock, exactly as on real hardware.
//!
//! This file is the shell: timers, messages, telemetry, and
//! `apply_reset` (set the clock, read it back, persist, publish). What
//! a round *decides* is `round.rs`, which requests are in flight and
//! when they expire is `requests.rs`, the crash–restart lifecycle is
//! `lifecycle.rs`, and everything a faulty server does differently is
//! `fault.rs`.

use rand::Rng;

use tempo_clocks::SimClock;
use tempo_core::{Duration, ErrorState, TimeEstimate, Timestamp};
use tempo_net::{Actor, Context, NodeId};
use tempo_telemetry::{
    Bus, EventKind as TelemetryKind, RejectCause, SampleSnapshot, TelemetryEvent,
};

use crate::config::{RecoveryPolicy, RetryPolicy, ServerConfig, Strategy};
use crate::message::Message;
use crate::peers::{PeerState, PeerTable};
use crate::requests::{patience, Claim, Pending, Requests};
use crate::round::{self, BufferedReply, Decision, Reset, TimedReply};
use crate::stats::ServerStats;
use crate::store::{MemoryStore, PersistedState};

#[path = "lifecycle.rs"]
mod lifecycle;
pub use lifecycle::Lifecycle;
use lifecycle::Published;

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
pub(crate) const TIMER_CRASH: u64 = 5;
/// Timer tag: the scheduled restart after a crash.
const TIMER_RESTART: u64 = 6;
/// Timer tag: close the current bootstrap collection round.
const TIMER_BOOT_ROUND: u64 = 7;
/// Timer tag: the armed state-corruption instant
/// (see [`ServerFault::corrupt_at`](crate::ServerFault::corrupt_at)).
pub(crate) const TIMER_CORRUPT: u64 = 8;
/// Round timers carry the lifecycle epoch in their high bits so a resync
/// chain armed before a crash dies instead of doubling up with the chain
/// the restart starts.
const TIMER_EPOCH_SHIFT: u64 = 32;
/// High bit marking a per-request timeout timer; the low bits carry the
/// request id. Request ids are sequential and never reach 2^63.
const TIMER_TIMEOUT_FLAG: u64 = 1 << 63;

/// A time server (see module docs).
///
/// Plain state: telemetry leaves through each callback's [`Context`]
/// and the durable record is a value, so a server can be cloned into an
/// independent copy.
#[derive(Debug, Clone)]
pub struct TimeServer {
    clock: SimClock,
    state: ErrorState,
    config: ServerConfig,
    current_round: u64,
    /// Every request in flight: round polls, retries, §3 recovery
    /// solicitations and §5 bootstrap reads alike.
    requests: Requests,
    /// Replies buffered by the open collection window (a resync round's
    /// or, while [`Lifecycle::Booting`], a bootstrap round's).
    round_replies: Vec<BufferedReply>,
    stats: ServerStats,
    recovering: bool,
    /// Whether the server currently participates in the service
    /// (between its join and leave instants).
    active: bool,
    /// Per peer: the health verdict, fed by reply timeouts (inert under
    /// [`RetryPolicy::Off`] — no timeouts, no signal), the freshest
    /// claim the §5 screens check against, and the §5 rate readings.
    peers: PeerTable,
    /// Own-clock reading when the current round began (bounds retries
    /// to the collection window).
    round_start_clock: Timestamp,
    /// Whether the previous windowed round was quorum-starved, for
    /// degraded-mode enter/exit transition events.
    degraded: bool,
    /// Crash–restart lifecycle stage.
    lifecycle: Lifecycle,
    /// Bumped on every crash; round timers from older epochs are stale.
    epoch: u32,
    /// The durable `(r_i, ε_i)` record, written at every reset and
    /// read back on a durable restart. A plain value: a host that must
    /// survive the *process* mirrors it to disk after each callback
    /// (see [`TimeServer::durable`]).
    durable: MemoryStore,
    /// Bootstrap rounds run since the current restart.
    boot_rounds: u32,
    /// The seqlock-published serving snapshot: every reset/adoption and
    /// every lifecycle transition republishes `(r_i, ε_i, δ_i)` plus an
    /// affine `(base clock, base real)` pair here, so
    /// [`TimeServer::snapshot_reader`] handles answer time requests
    /// without touching this actor (see
    /// `tempo_core::snapshot` and DESIGN.md §Serving path).
    snapshot: Published,
}

impl TimeServer {
    /// Does nothing: a server emits on the bus of the [`Context`] each
    /// callback runs with, which its host owns. Kept because the repo
    /// benchmark still calls it with the bus it hands the world.
    pub fn attach_bus(&mut self, bus: Bus) {
        let _ = bus;
    }

    /// The clock reading the server *serves*: its hardware clock's.
    fn reading(&mut self, now: Timestamp) -> Timestamp {
        self.clock.read(now)
    }

    /// The server's configuration.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Records a datagram that failed wire-codec decoding: the frame
    /// is dropped *audibly* — counted in
    /// [`ServerStats::malformed_frames`] and emitted as a
    /// [`TelemetryKind::MalformedFrame`] event on `ctx` — never handed
    /// to the protocol. Real transports call this from their receive
    /// loop; the simulator delivers typed messages and has no malformed
    /// path.
    pub fn note_malformed_frame<M>(
        &mut self,
        ctx: &Context<'_, M>,
        len: usize,
        error: crate::wire::DecodeError,
    ) {
        self.stats.malformed_frames += 1;
        ctx.emit_with(TelemetryKind::MalformedFrame, || {
            TelemetryEvent::MalformedFrame {
                at: ctx.now(),
                server: ctx.label(),
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

    /// The current estimate `⟨C_i(t), E_i(t)⟩` (rule MM-1), on the
    /// served clock.
    pub fn current_estimate(&mut self, now: Timestamp) -> TimeEstimate {
        let reading = self.reading(now);
        self.state.estimate_at(reading)
    }

    /// Takes a metrics snapshot (simulation-only observability).
    pub fn sample(&mut self, now: Timestamp) -> SampleSnapshot {
        let estimate = self.current_estimate(now);
        SampleSnapshot {
            clock: estimate.time(),
            error: estimate.error(),
            true_offset: estimate.time() - now,
            correct: estimate.is_correct_at(now),
            active: self.is_active(),
        }
    }

    /// The current health verdict on `peer` (always Healthy under
    /// [`RetryPolicy::Off`] — without timeouts there is no signal).
    #[must_use]
    pub fn peer_state(&self, peer: NodeId) -> PeerState {
        self.peers.state(peer)
    }

    /// Tags a round timer with the current lifecycle epoch, so firings
    /// from a pre-crash chain are recognisably stale.
    fn round_tag(&self, base: u64) -> u64 {
        base | (u64::from(self.epoch) << TIMER_EPOCH_SHIFT)
    }

    /// Emits the `RoundAdopt` for a reset about to be applied, with `own`
    /// the estimate the decision was taken against. The Theorem 6
    /// `input_widths` are only computed inside the lazy payload, so
    /// rounds cost nothing extra when no observer wants adoptions.
    fn emit_adopt(
        &self,
        ctx: &Context<'_, Message>,
        round: u64,
        own: &TimeEstimate,
        reset: &Reset,
        recovery: bool,
        input_widths: impl FnOnce() -> Vec<Duration>,
    ) {
        ctx.emit_with(TelemetryKind::RoundAdopt, || TelemetryEvent::RoundAdopt {
            at: ctx.now(),
            server: ctx.label(),
            round,
            clock: own.time(),
            error_before: own.error(),
            error_after: reset.new_error,
            input_widths: input_widths(),
            recovery,
        });
    }

    fn emit_reject(&self, ctx: &Context<'_, Message>, round: u64, cause: RejectCause) {
        ctx.emit_with(TelemetryKind::RoundReject, || TelemetryEvent::RoundReject {
            at: ctx.now(),
            server: ctx.label(),
            round,
            cause,
        });
    }

    /// Feeds `peer`'s health record a reply (`replied`) or an exhausted
    /// timeout, counting and emitting the verdict change if there is one.
    fn note_health(&mut self, peer: NodeId, replied: bool, ctx: &Context<'_, Message>) {
        let before = self.peers.state(peer);
        if replied {
            if self.peers.record_reply(peer) {
                self.stats.peers_reinstated += 1;
            }
        } else if self.peers.record_timeout(peer) {
            self.stats.peers_suspected += 1;
        }
        let after = self.peers.state(peer);
        if before != after {
            ctx.emit_with(TelemetryKind::HealthChanged, || {
                TelemetryEvent::HealthChanged {
                    at: ctx.now(),
                    server: ctx.label(),
                    peer: ctx.label_of(peer),
                    from: before.into(),
                    to: after.into(),
                }
            });
        }
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
        self.requests.rebase(delta);
        for b in &mut self.round_replies {
            b.send_clock += delta;
            b.recv_clock += delta;
        }
        self.peers.rebase(delta);
        self.round_start_clock += delta;
    }

    /// Applies an accepted reset: sets the hardware clock, reads it back
    /// (the read-back is what keeps the MM-1 state honest even when the
    /// clock refuses the set — see `FaultKind::RefuseSet`), and replaces
    /// `(r_i, ε_i)`.
    fn apply_reset(&mut self, reset: Reset, ctx: &Context<'_, Message>) {
        let now = ctx.now();
        let before = self.clock.read(now);
        let _ = self.clock.set(now, reset.new_clock);
        let actual = self.clock.read(now);
        self.state.reset(actual, reset.new_error);
        self.rebase_clock_marks(actual - before);
        ctx.emit_with(TelemetryKind::ClockStep, || TelemetryEvent::ClockStep {
            at: now,
            server: ctx.label(),
            from: before,
            to: actual,
            error: reset.new_error,
        });
        // The serving front sees the adoption as soon as the sync core
        // does: republish before anything else can observe the state.
        self.publish_snapshot(now);
        // Every reset reaches stable storage, so a durable restart can
        // rehydrate the freshest `(r_i, ε_i)` pair.
        self.durable.persist(PersistedState {
            reset_clock: self.state.last_reset(),
            inherited_error: self.state.inherited_error(),
            reset_at: now,
        });
        self.stats.resets += 1;
    }

    fn begin_round(&mut self, ctx: &mut Context<'_, Message>) {
        self.stats.rounds += 1;
        self.current_round += 1;
        self.round_replies.clear();
        // If a recovery request was lost with its round, the latch
        // clears so recovery can retry next time.
        let round = self.current_round;
        self.recovering = self.requests.sweep(round);

        let now = ctx.now();
        self.round_start_clock = self.reading(now);
        // Dead peers are skipped except on probe rounds, so a crashed
        // neighbour costs nothing until it comes back.
        let polled: Vec<NodeId> = ctx
            .neighbors()
            .iter()
            .copied()
            .filter(|&peer| !self.config.retry.is_enabled() || self.peers.should_poll(peer, round))
            .collect();
        ctx.emit_with(TelemetryKind::RoundBegin, || TelemetryEvent::RoundBegin {
            at: now,
            server: ctx.label(),
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

    /// Sends one time request to `peer` and records it in flight. An
    /// active server under [`RetryPolicy::Backoff`] also arms the
    /// request's deadline (see [`patience`]) and its timeout timer; a
    /// booting one retries by whole bootstrap rounds instead.
    fn send_request(
        &mut self,
        peer: NodeId,
        attempt: u32,
        recovery: bool,
        ctx: &mut Context<'_, Message>,
    ) {
        let send_clock = self.reading(ctx.now());
        let wait = match self.lifecycle {
            Lifecycle::Active => patience(self.config.retry, attempt, ctx.rng()),
            _ => None,
        };
        let request_id = self.requests.open(Pending {
            peer,
            send_clock,
            round: self.current_round,
            recovery,
            attempt,
            deadline_clock: wait.map(|wait| send_clock + wait),
        });
        if let Some(wait) = wait {
            ctx.set_timer(wait, TIMER_TIMEOUT_FLAG | request_id);
        }
        ctx.send(
            peer,
            Message::TimeRequest {
                request_id,
                attempt: attempt.min(u32::from(u8::MAX)) as u8,
            },
        );
    }

    /// A request's timeout timer fired. A confirmed loss is retried with
    /// backoff while the round (and its collection window) lasts; when
    /// retries are exhausted the peer's health record takes the hit.
    fn handle_timeout(&mut self, request_id: u64, ctx: &mut Context<'_, Message>) {
        let Some(pending) = self.requests.get(request_id) else {
            // Answered (or swept by round cleanup) before the deadline.
            return;
        };
        let now = ctx.now();
        let clock_now = self.reading(now);
        if let Some(remainder) = pending.rearm_after(clock_now, now) {
            ctx.set_timer(remainder, TIMER_TIMEOUT_FLAG | request_id);
            return;
        }
        self.requests.remove(request_id);
        self.stats.timeouts += 1;
        ctx.emit_with(TelemetryKind::Timeout, || TelemetryEvent::Timeout {
            at: now,
            server: ctx.label(),
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
            ctx.emit_with(TelemetryKind::Retry, || TelemetryEvent::Retry {
                at: now,
                server: ctx.label(),
                peer: ctx.label_of(pending.peer),
                round: pending.round,
                attempt: pending.attempt + 1,
            });
            self.send_request(pending.peer, pending.attempt + 1, false, ctx);
        } else {
            self.note_health(pending.peer, false, ctx);
        }
    }

    /// Takes the request a reply from `from` quotes out of flight,
    /// counting replies that are late or from the wrong peer instead.
    fn claim(&mut self, from: NodeId, request_id: u64) -> Option<Pending> {
        match self.requests.claim(from, request_id) {
            Claim::Matched(pending) => return Some(pending),
            Claim::Late => self.stats.late_replies += 1,
            Claim::Mismatched => self.stats.mismatched_replies += 1,
        }
        None
    }

    fn handle_reply(
        &mut self,
        from: NodeId,
        request_id: u64,
        estimate: TimeEstimate,
        ctx: &mut Context<'_, Message>,
    ) {
        let Some(pending) = self.claim(from, request_id) else {
            return;
        };
        let now = ctx.now();
        if self.lifecycle == Lifecycle::Booting {
            // Buffered for the bootstrap read, with its round-trip marks
            // like any other reply; nothing else is learned from it.
            let recv_clock = self.reading(now);
            self.round_replies.push(BufferedReply {
                peer: from,
                estimate,
                send_clock: pending.send_clock,
                recv_clock,
            });
            return;
        }
        self.stats.replies += 1;
        if self.config.retry.is_enabled() {
            self.note_health(from, true, ctx);
        }
        let clock_now = self.reading(now);
        let rtt = clock_now - pending.send_clock;
        let reply = TimedReply::new(estimate, rtt.max(Duration::ZERO));
        let delta = self.config.drift_bound;

        // §5 screening, when configured: track the neighbour's rate and
        // drop replies from dissonant neighbours before they can
        // influence any strategy.
        self.peers.record_reading(from, clock_now, estimate.time());
        if self.peers.is_dissonant(from, delta) == Some(true) {
            self.stats.screened += 1;
            if pending.recovery {
                // A dissonant third server is no rescuer; allow a future
                // recovery attempt instead.
                self.recovering = false;
            }
            return;
        }

        if pending.recovery {
            self.recovering = false;
            match round::recover(&reply, from, clock_now, delta, &self.peers) {
                Decision::Reset { reset, recovery } => {
                    let own = self.state.estimate_at(clock_now);
                    self.emit_adopt(ctx, pending.round, &own, &reset, recovery, Vec::new);
                    self.apply_reset(reset, ctx);
                    self.stats.recoveries_applied += 1;
                }
                _ => {
                    self.stats.recoveries_rejected += 1;
                    self.emit_reject(ctx, pending.round, RejectCause::Inconsistent);
                }
            }
            return;
        }
        // Remember what this neighbour claimed (and when, on our
        // clock): these records are the §5 screen a later recovery
        // reply must pass.
        self.peers.remember(from, estimate, clock_now);

        if self.config.strategy != Strategy::Mm {
            self.round_replies.push(BufferedReply {
                peer: from,
                estimate,
                send_clock: pending.send_clock,
                recv_clock: clock_now,
            });
            return;
        }
        let own = self.state.estimate_at(clock_now);
        let mut decision = round::mm2(&own, delta, &reply);
        if let (Decision::Keep, Some(fault)) = (decision, self.config.fault) {
            if let Some(reset) = fault.weakened_adoption(now, &own, delta, &reply) {
                decision = Decision::Reset {
                    reset,
                    recovery: false,
                };
            }
        }
        match decision {
            Decision::Reset { reset, recovery } => {
                self.emit_adopt(ctx, pending.round, &own, &reset, recovery, Vec::new);
                self.apply_reset(reset, ctx);
            }
            Decision::Inconsistent => {
                self.stats.inconsistencies += 1;
                self.emit_reject(ctx, pending.round, RejectCause::Inconsistent);
                self.maybe_recover(Some(from), ctx);
            }
            Decision::Keep | Decision::Starved => {}
        }
    }

    /// The §3 recovery rule, health-aware: ask a neighbour other than
    /// the inconsistent one (if any is named), preferring Healthy peers,
    /// falling back to Suspects, and never soliciting a peer already
    /// declared Dead — a recovery request to a buried peer can only time
    /// out, wasting the one in-flight recovery this server allows
    /// itself. The answer, when it arrives, must still pass the §5
    /// consistency screen ([`round::recover`]) before it is adopted.
    fn maybe_recover(&mut self, inconsistent_with: Option<NodeId>, ctx: &mut Context<'_, Message>) {
        if self.config.recovery != RecoveryPolicy::ThirdServer || self.recovering {
            return;
        }
        let of_state = |state: PeerState| -> Vec<NodeId> {
            ctx.neighbors()
                .iter()
                .copied()
                .filter(|&n| Some(n) != inconsistent_with && self.peers.state(n) == state)
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
        ctx.emit_with(TelemetryKind::RecoveryStarted, || {
            TelemetryEvent::RecoveryStarted {
                at,
                server: ctx.label(),
            }
        });
        self.send_request(peer, 0, true, ctx);
        self.recovering = true;
        self.stats.recoveries_started += 1;
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
        let Some(pending) = self.claim(from, request_id) else {
            return;
        };
        if pending.recovery {
            self.recovering = false;
        }
        if self.config.retry.is_enabled() {
            self.note_health(from, true, ctx);
        }
    }

    /// Closes the collection window and acts on what [`round::close`]
    /// decides. A starved round enters degraded mode and §3 recovery (if
    /// configured) looks for help.
    fn close_round(&mut self, ctx: &mut Context<'_, Message>) {
        let now = ctx.now();
        let clock_now = self.reading(now);
        let own = self.state.estimate_at(clock_now);
        let (round, delta) = (self.current_round, self.config.drift_bound);
        let strategy = self.config.strategy;
        let decision = round::close(
            strategy,
            self.config.quorum,
            &own,
            delta,
            &self.round_replies,
        );
        if decision == Decision::Starved {
            self.stats.degraded_rounds += 1;
            self.emit_reject(ctx, round, RejectCause::Starved);
            if !self.degraded {
                self.degraded = true;
                ctx.emit_with(TelemetryKind::DegradedEnter, || {
                    TelemetryEvent::DegradedEnter {
                        at: now,
                        server: ctx.label(),
                        round,
                        replies: self.round_replies.len(),
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
            ctx.emit_with(TelemetryKind::DegradedExit, || {
                TelemetryEvent::DegradedExit {
                    at: now,
                    server: ctx.label(),
                    round,
                }
            });
        }
        match decision {
            Decision::Reset { reset, recovery } => {
                // A baseline is not an MM-2/IM-2 adoption (it may raise
                // E): applied, never announced as one.
                if !matches!(strategy, Strategy::Baseline(_)) {
                    self.emit_adopt(ctx, round, &own, &reset, recovery, || {
                        round::input_widths(strategy, &own, delta, &self.round_replies)
                    });
                }
                self.apply_reset(reset, ctx);
            }
            Decision::Inconsistent => {
                self.stats.inconsistencies += 1;
                self.emit_reject(ctx, round, RejectCause::Inconsistent);
                if strategy == Strategy::Im {
                    let peer = self.round_replies.first().map(|b| b.peer);
                    self.maybe_recover(peer, ctx);
                }
            }
            Decision::Keep | Decision::Starved => {}
        }
        self.round_replies.clear();
    }
}

impl Actor for TimeServer {
    type Msg = Message;

    fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
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
        if let Some((delay, tag)) = self.config.fault.and_then(|f| f.first_timer(ctx.now())) {
            ctx.set_timer(delay, tag);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut Context<'_, Message>) {
        if !self.active || self.lifecycle == Lifecycle::Crashed {
            // Not (or no longer) part of the service, or down: deaf and
            // mute. The clock keeps ticking, but nobody can read it.
            return;
        }
        let booting = self.lifecycle == Lifecycle::Booting;
        match msg {
            // §5 bootstrap refusal: no trustworthy interval yet, so
            // decline explicitly rather than serve garbage or stay
            // suspiciously silent.
            Message::TimeRequest { request_id, .. } if booting => {
                ctx.send(from, Message::Uninitialized { request_id });
            }
            Message::TimeRequest { request_id, .. } => {
                // Rule MM-1: reply with ⟨C_i(t), E_i(t)⟩. Handling is
                // instantaneous here, so T2 = T3 = the same reading.
                let now = ctx.now();
                let mut estimate = self.current_estimate(now);
                if let Some(fault) = self.config.fault {
                    let (requester, remembered) = (ctx.label_of(from), self.peers.claim(from));
                    let delta = self.config.drift_bound;
                    estimate = fault.answer(now, estimate, requester, remembered, delta);
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
            } => self.handle_reply(from, request_id, estimate, ctx),
            // Both sides booting: nothing useful to exchange.
            Message::Uninitialized { .. } if booting => {}
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
        let booting = self.active && self.lifecycle == Lifecycle::Booting;
        match base {
            TIMER_RESYNC if current && self.is_active() => self.begin_round(ctx),
            TIMER_ROUND_END if current && self.is_active() => self.close_round(ctx),
            TIMER_BOOT_ROUND if current && booting => self.close_boot_round(ctx),
            // Departed, crashed, or pre-crash epoch: the chain dies.
            TIMER_RESYNC | TIMER_ROUND_END | TIMER_BOOT_ROUND => {}
            TIMER_JOIN => self.join(ctx),
            TIMER_LEAVE => self.leave(ctx),
            TIMER_CRASH if self.lifecycle != Lifecycle::Crashed => self.crash(ctx),
            // A server outside the service neither restarts nor
            // bootstraps: nobody would hear it, and it would poll for
            // ever.
            TIMER_RESTART if self.active && self.lifecycle == Lifecycle::Crashed => {
                self.restart(ctx);
            }
            TIMER_CORRUPT if self.is_active() => self.corrupt_state(ctx),
            TIMER_CRASH | TIMER_RESTART | TIMER_CORRUPT => {}
            other => debug_assert!(false, "unknown timer tag {other}"),
        }
    }
}

/// Fixtures shared by this crate's world-level server tests.
#[cfg(test)]
pub(crate) mod testkit {
    use super::*;
    use tempo_clocks::DriftModel;
    use tempo_core::DriftRate;

    pub(crate) fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    pub(crate) fn dur(s: f64) -> Duration {
        Duration::from_secs(s)
    }

    pub(crate) fn server(drift: f64, config: ServerConfig, seed: u64) -> TimeServer {
        let clock = SimClock::builder()
            .drift(DriftModel::Constant(drift))
            .seed(seed)
            .build();
        TimeServer::new(clock, config)
    }

    pub(crate) fn base_config(strategy: Strategy) -> ServerConfig {
        ServerConfig::new(strategy, DriftRate::new(1e-4))
            .resync_period(dur(10.0))
            .collect_window(dur(0.5))
            .initial_error(dur(0.05))
            .jitter(0.0)
    }

    /// What `server` most recently recorded about peer `of`, expressed
    /// as the claimed offset from the recorder's own clock at receipt —
    /// ≈ 0 for an honest claim under zero drift and millisecond delays —
    /// and the claimed error.
    pub(crate) fn recorded_offset(server: &TimeServer, of: usize) -> (Duration, Duration) {
        let (estimate, seen_clock) = server
            .peers
            .claim(NodeId::new(of))
            .expect("a record of the peer");
        (estimate.time() - seen_clock, estimate.error())
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::{base_config, dur, server, ts};
    use super::*;
    use crate::config::ScreeningPolicy;
    use tempo_clocks::DriftModel;
    use tempo_core::DriftRate;
    use tempo_net::{DelayModel, NetConfig, Topology, World};

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

    #[test]
    fn apply_reset_rebases_every_landmark() {
        // The shell's half of `clock_step_rebases_inflight_marks`
        // (`requests.rs`): a step applied through `apply_reset` reaches
        // the in-flight table, the remembered claims and, under §5
        // screening, the rate readings alike.
        let config = base_config(Strategy::Mm).screening(ScreeningPolicy::Consonance {
            peer_bound: DriftRate::new(1e-4),
            sample_noise: dur(0.001),
        });
        let mut s = server(0.0, config, 9);
        let t0 = ts(100.0);
        let send_clock = s.reading(t0);
        let id = s.requests.open(Pending {
            peer: NodeId::new(1),
            send_clock,
            round: 1,
            recovery: false,
            attempt: 0,
            deadline_clock: Some(send_clock + dur(1.0)),
        });
        let peer = NodeId::new(2);
        s.peers
            .remember(peer, TimeEstimate::new(send_clock, dur(0.01)), send_clock);
        s.peers
            .record_reading(peer, send_clock - dur(20.0), send_clock - dur(20.0));
        // 9 ms into the flight an adoption steps the clock back 50 ms.
        let t1 = ts(100.009);
        let target = s.reading(t1) - dur(0.050);
        let mut rng = tempo_net::node_rng(9, NodeId::new(0));
        s.apply_reset(
            Reset {
                new_clock: target,
                new_error: dur(0.005),
            },
            &Context::external(t1, NodeId::new(0), &[], &mut rng),
        );
        let Claim::Matched(p) = s.requests.claim(NodeId::new(1), id) else {
            panic!("still in flight");
        };
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
        let (_, seen) = s.peers.claim(peer).expect("record survives");
        assert!(
            ((s.reading(t1) - seen).as_secs() - 0.009).abs() < 1e-9,
            "cached-claim age must survive the step"
        );
        // The peer's clock did not step: it now reads 50 ms ahead of
        // ours, which is no rate at all once the old reading moved too
        // (unmoved, it would be 2.5e-3 over the 20 s baseline).
        let now = s.reading(t1);
        s.peers.record_reading(peer, now, now + dur(0.050));
        assert_eq!(
            s.peers.is_dissonant(peer, DriftRate::new(1e-4)),
            Some(false),
            "rate readings must move with the step"
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
        use crate::round::BaselineKind;
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
                        .health(crate::peers::HealthConfig {
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
                .health(crate::peers::HealthConfig {
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
mod clone_tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use rand::rngs::StdRng;

    use super::testkit::{base_config, dur, server, ts};
    use super::*;
    use tempo_net::{ActorAction, DelayModel, NetConfig, Topology, World};
    use tempo_telemetry::Observer;

    #[derive(Default)]
    struct Tap(Vec<TelemetryEvent>);

    impl Observer for Tap {
        fn observe(&mut self, event: &TelemetryEvent) {
            self.0.push(event.clone());
        }
    }

    /// Drives one server by hand on `Context::external`s with fixed
    /// neighbours and RNG seed, recording what it queues and emits.
    struct Hand {
        rng: StdRng,
        bus: Bus,
        tap: Rc<RefCell<Tap>>,
        actions: Vec<ActorAction<Message>>,
    }

    impl Hand {
        fn new() -> Self {
            let bus = Bus::new();
            let tap = Rc::new(RefCell::new(Tap::default()));
            bus.subscribe(Rc::clone(&tap));
            Hand {
                rng: tempo_net::node_rng(7, NodeId::new(0)),
                bus,
                tap,
                actions: Vec::new(),
            }
        }

        fn call(
            &mut self,
            server: &mut TimeServer,
            at: f64,
            callback: impl FnOnce(&mut TimeServer, &mut Context<'_, Message>),
        ) {
            let peers = [NodeId::new(1), NodeId::new(2)];
            let mut ctx = Context::external(ts(at), NodeId::new(0), &peers, &mut self.rng)
                .emitting(&self.bus);
            callback(server, &mut ctx);
            self.actions.extend(ctx.take_actions());
        }

        fn events(&self) -> Vec<TelemetryEvent> {
            self.tap.borrow().0.clone()
        }
    }

    /// A resync round, an adoption from peer 1's reply, and an answer
    /// to peer 2's request.
    fn replay(server: &mut TimeServer, at: f64) -> Hand {
        let mut hand = Hand::new();
        hand.call(server, at, |s, ctx| s.on_timer(TIMER_RESYNC, ctx));
        let request_id = hand
            .actions
            .iter()
            .find_map(|action| match action {
                ActorAction::Send {
                    to,
                    msg: Message::TimeRequest { request_id, .. },
                } if *to == NodeId::new(1) => Some(*request_id),
                _ => None,
            })
            .expect("the round polls peer 1");
        let estimate = TimeEstimate::new(ts(at + 0.01), dur(1e-6));
        let reply = Message::TimeReply {
            request_id,
            received_at: estimate.time(),
            estimate,
        };
        hand.call(server, at + 0.01, |s, ctx| {
            s.on_message(NodeId::new(1), reply, ctx);
        });
        let request = Message::TimeRequest {
            request_id: 9,
            attempt: 0,
        };
        hand.call(server, at + 0.02, |s, ctx| {
            s.on_message(NodeId::new(2), request, ctx);
        });
        hand
    }

    #[test]
    fn a_clone_is_an_independent_copy() {
        let servers = (0..3)
            .map(|i| server(0.0, base_config(Strategy::Mm), i))
            .collect();
        let net = NetConfig::with_delay(DelayModel::Constant(dur(0.005)));
        let mut world = World::new(servers, Topology::full_mesh(3), net, 3);
        world.run_until(ts(25.0));
        let reader = world.actors()[0].snapshot_reader();
        let published = reader.read();

        let mut copy = world.actors()[0].clone();
        assert_eq!(copy.snapshot_reader().read(), published);
        let resets = copy.stats().resets;
        let on_copy = replay(&mut copy, 25.0);
        assert!(copy.stats().resets > resets, "the replay adopts");
        assert_ne!(copy.snapshot_reader().read(), published);
        assert_eq!(
            reader.read(),
            published,
            "the copy published to the original"
        );

        let original = &mut world.actors_mut()[0];
        let on_original = replay(original, 25.0);
        assert_eq!(on_copy.actions, on_original.actions);
        assert_eq!(on_copy.events(), on_original.events());
        assert!(!on_copy.events().is_empty());
        assert_eq!(copy.durable(), original.durable());
        assert_eq!(copy.stats(), original.stats());
        assert_eq!(
            copy.snapshot_reader().read(),
            original.snapshot_reader().read()
        );
    }
}
