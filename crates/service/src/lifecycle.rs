//! Where a [`TimeServer`] stands, and what it publishes about that:
//! birth (rehydrating a durable record), joining and leaving the
//! service (§1.1 churn), the crash–restart lifecycle with its §5
//! bootstrap, the state-corruption probe, and the serving snapshot each
//! transition republishes. The schedule that drives crashes and
//! corruptions is a [`ServerFault`](crate::ServerFault); the
//! transitions themselves are the honest server's.

use std::sync::Arc;

use rand::Rng;

use tempo_clocks::SimClock;
use tempo_core::{ClockSnapshot, DriftRate, ErrorState, SnapshotCell, SnapshotReader, Timestamp};
use tempo_net::Context;
use tempo_telemetry::{EventKind as TelemetryKind, TelemetryEvent};

use super::{TimeServer, TIMER_BOOT_ROUND, TIMER_CRASH, TIMER_RESTART, TIMER_RESYNC};
use crate::config::ServerConfig;
use crate::message::Message;
use crate::peers::PeerTable;
use crate::requests::Requests;
use crate::round::{self, Decision};
use crate::stats::ServerStats;
use crate::store::{MemoryStore, PersistedState};

/// Where a server stands in the crash–restart lifecycle.
///
/// `Active → Crashed` at a scheduled crash
/// ([`ServerFault::crash_at`](crate::ServerFault::crash_at) and its
/// restarting variants); `Crashed → Active` directly on a durable
/// restart (stable storage rehydrates `(r_i, ε_i)` and rule MM-1 has
/// grown `E_i` across the downtime); `Crashed → Booting → Active` on an
/// amnesia restart, which must first re-acquire the time from a quorum
/// of neighbours (§5).
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

/// The rule MM-1 state a persisted `(r_i, ε_i)` rehydrates to, guarding
/// against a pre-crash step that left the current `reading` behind the
/// persisted reset point (the growth term must stay non-negative).
fn rehydrate(p: &PersistedState, reading: Timestamp, delta: DriftRate) -> ErrorState {
    ErrorState::new(p.reset_clock.min(reading), p.inherited_error, delta)
}

/// The publication point of a server's serving snapshot. A clone gets
/// a fresh cell holding the same published payload: a copy of a server
/// must never publish to the original's serving front.
#[derive(Debug)]
pub(super) struct Published(Arc<SnapshotCell>);

impl Clone for Published {
    fn clone(&self) -> Self {
        let cell = SnapshotCell::new();
        if let Some(snapshot) = self.0.read() {
            cell.publish(&snapshot);
        }
        Published(Arc::new(cell))
    }
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
        Self::with_persisted(clock, config, None)
    }

    /// Creates a server around a simulated clock and the durable record
    /// a previous run left — the real-deployment constructor.
    ///
    /// With a `persisted` record (the process was killed and relaunched
    /// against the same file), the server rehydrates it exactly as a
    /// durable in-process restart does: `(r_i, ε_i)` come from the
    /// record and rule MM-1 re-derives `E = ε + (C − r)·δ`, so the
    /// error keeps growing across the downtime instead of resetting to
    /// the configured initial error. Without one, the initial
    /// `(r_i, ε_i)` is persisted, exactly as [`TimeServer::new`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid
    /// (see [`ServerConfig::validate`]).
    #[must_use]
    pub fn with_persisted(
        mut clock: SimClock,
        config: ServerConfig,
        persisted: Option<PersistedState>,
    ) -> Self {
        config.validate();
        let start_reading = clock.read(clock.last_real());
        // The initial `(r_i, ε_i)` counts as the first reset: a durable
        // restart before any adoption still rehydrates something. A
        // record that survived a previous run is kept as it is — its
        // persisted reset predates this launch and stays the truth
        // until the first post-launch adoption.
        let persisted = persisted.unwrap_or(PersistedState {
            reset_clock: start_reading,
            inherited_error: config.initial_error,
            reset_at: clock.last_real(),
        });
        let mut durable = MemoryStore::new();
        durable.persist(persisted);
        let state = rehydrate(&persisted, start_reading, config.drift_bound);
        let mut server = TimeServer {
            peers: PeerTable::new(&config),
            clock,
            state,
            config,
            current_round: 0,
            requests: Requests::default(),
            round_replies: Vec::new(),
            stats: ServerStats::default(),
            recovering: false,
            active: false,
            round_start_clock: start_reading,
            degraded: false,
            lifecycle: Lifecycle::Active,
            epoch: 0,
            durable,
            boot_rounds: 0,
            snapshot: Published(Arc::new(SnapshotCell::new())),
        };
        // First publication: the payload exists from birth, flagged
        // not-serving until the join.
        let at = server.clock.last_real();
        server.publish_snapshot(at);
        server
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

    /// The durable record as it stands after the last callback (the
    /// amnesia path wipes it): what a host that outlives crashes of the
    /// *process* writes to disk.
    #[must_use]
    pub fn durable(&self) -> MemoryStore {
        self.durable
    }

    /// A cloneable, lock-free handle onto the published serving
    /// snapshot. Reader threads answer `⟨C, E⟩` queries through it
    /// without ever touching this actor — the million-QPS read path.
    #[must_use]
    pub fn snapshot_reader(&self) -> SnapshotReader {
        SnapshotReader::new(Arc::clone(&self.snapshot.0))
    }

    /// Republishes the serving snapshot from the current MM-1 state.
    ///
    /// Called at every site that changes what a read would return:
    /// construction, join/leave, every adopted reset (both apply
    /// modes), state corruption, crash, and post-restart promotion.
    /// `now` anchors the affine `(base clock, base real)` pair that
    /// detached serving threads extrapolate along at rate 1.
    pub(super) fn publish_snapshot(&mut self, now: Timestamp) {
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
        self.snapshot.0.publish(&snapshot);
    }

    /// Arms the first resync round at a random fraction of the period,
    /// so servers that (re-)enter service together do not resync in
    /// lock-step.
    fn start_resync_chain(&mut self, ctx: &mut Context<'_, Message>) {
        let fraction = ctx.rng().random_range(0.05..1.0);
        ctx.set_timer(
            self.config.resync_period * fraction,
            self.round_tag(TIMER_RESYNC),
        );
    }

    /// Enters the service: from here on the server answers requests and
    /// schedules its resync rounds.
    pub(super) fn join(&mut self, ctx: &mut Context<'_, Message>) {
        self.active = true;
        let now = ctx.now();
        self.publish_snapshot(now);
        let clock = self.reading(now);
        ctx.emit_with(TelemetryKind::Join, || TelemetryEvent::Join {
            at: now,
            server: ctx.label(),
            clock,
        });
        self.start_resync_chain(ctx);
    }

    /// Leaves the service: unreachable to requests, deaf to replies, and
    /// — whatever the lifecycle stage — polling nobody from here on.
    pub(super) fn leave(&mut self, ctx: &mut Context<'_, Message>) {
        self.active = false;
        self.requests.clear();
        self.round_replies.clear();
        self.recovering = false;
        self.degraded = false;
        let at = ctx.now();
        self.publish_snapshot(at);
        ctx.emit_with(TelemetryKind::Leave, || TelemetryEvent::Leave {
            at,
            server: ctx.label(),
        });
    }

    /// The scheduled crash: the server goes deaf and mute and loses all
    /// volatile protocol state — only the stable store survives. The
    /// hardware clock keeps running (it is hardware), and the restart,
    /// if one is scheduled, is armed here.
    pub(super) fn crash(&mut self, ctx: &mut Context<'_, Message>) {
        self.lifecycle = Lifecycle::Crashed;
        self.epoch = self.epoch.wrapping_add(1);
        self.requests.clear();
        self.round_replies.clear();
        // Verdicts and rate readings (marked on the hardware clock, which
        // keeps running) survive; the claims go.
        self.peers.forget_claims();
        self.recovering = false;
        self.degraded = false;
        self.stats.crashes += 1;
        let at = ctx.now();
        // Down: the front must refuse on our behalf immediately.
        self.publish_snapshot(at);
        ctx.emit_with(TelemetryKind::ServerCrashed, || {
            TelemetryEvent::ServerCrashed {
                at,
                server: ctx.label(),
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
    pub(super) fn restart(&mut self, ctx: &mut Context<'_, Message>) {
        let schedule = self
            .config
            .fault
            .and_then(|f| f.restart_schedule())
            .expect("restart timer fired without a restart schedule");
        self.stats.restarts += 1;
        let now = ctx.now();
        let amnesia = schedule.amnesia;
        ctx.emit_with(TelemetryKind::ServerRestarted, || {
            TelemetryEvent::ServerRestarted {
                at: now,
                server: ctx.label(),
                amnesia,
            }
        });
        if amnesia {
            self.durable.wipe();
            self.lifecycle = Lifecycle::Booting;
            self.boot_rounds = 0;
            self.begin_boot_round(ctx);
        } else {
            let clock_now = self.reading(now);
            if let Some(p) = self.durable.load() {
                self.state = rehydrate(&p, clock_now, self.config.drift_bound);
                let reset_clock = self.state.last_reset();
                ctx.emit_with(TelemetryKind::StateRehydrated, || {
                    TelemetryEvent::StateRehydrated {
                        at: now,
                        server: ctx.label(),
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
    /// with a fresh resync chain.
    fn promote(&mut self, rounds: u32, ctx: &mut Context<'_, Message>) {
        self.lifecycle = Lifecycle::Active;
        let now = ctx.now();
        // Back in service (rehydrated or bootstrapped state already in
        // place): reopen the serving front under the new epoch.
        self.publish_snapshot(now);
        let clock = self.reading(now);
        ctx.emit_with(TelemetryKind::BootstrapCompleted, || {
            TelemetryEvent::BootstrapCompleted {
                at: now,
                server: ctx.label(),
                rounds,
                clock,
                error: self.state.error_at(clock),
            }
        });
        self.start_resync_chain(ctx);
    }

    /// One §5 bootstrap round: ask every neighbour for the time, collect
    /// replies for one window, then try to intersect them in
    /// [`TimeServer::close_boot_round`]. Whatever the previous round
    /// left in flight is dropped; its replies count as late.
    fn begin_boot_round(&mut self, ctx: &mut Context<'_, Message>) {
        self.round_replies.clear();
        self.requests.clear();
        self.boot_rounds += 1;
        self.stats.bootstrap_rounds += 1;
        for peer in ctx.neighbors().to_vec() {
            self.send_request(peer, 0, false, ctx);
        }
        ctx.set_timer(self.config.collect_window, self.round_tag(TIMER_BOOT_ROUND));
    }

    /// Closes a bootstrap collection window: on [`round::bootstrap`]'s
    /// reset the server adopts the neighbours' intersection and promotes
    /// itself; too few replies, or an empty intersection, and the round
    /// retries.
    pub(super) fn close_boot_round(&mut self, ctx: &mut Context<'_, Message>) {
        let now = ctx.now();
        let clock_now = self.reading(now);
        let (delta, quorum) = (self.config.drift_bound, self.config.quorum);
        let strategy = self.config.strategy;
        match round::bootstrap(strategy, clock_now, delta, &self.round_replies, quorum) {
            Decision::Reset { reset, .. } => {
                self.apply_reset(reset, ctx);
                self.round_replies.clear();
                self.requests.clear();
                self.promote(self.boot_rounds, ctx);
            }
            _ => self.begin_boot_round(ctx),
        }
    }

    /// The scheduled state corruption: a transient fault overwrites the
    /// rule MM-1 state `(r_i, ε_i)`, the stable store, and the health
    /// verdicts with seeded garbage. Unlike a crash the server *keeps
    /// serving* — its replies are garbage until the protocol pulls it
    /// back. The server cannot tell when that is; the oracle, which
    /// knows real time, judges it.
    pub(super) fn corrupt_state(&mut self, ctx: &mut Context<'_, Message>) {
        let peers = ctx.neighbors();
        let Some(garbage) = self.config.fault.and_then(|f| f.garbage(peers.len())) else {
            return;
        };
        let now = ctx.now();
        let raw = self.clock.read(now);
        let _ = self.clock.set(now, raw + garbage.clock_offset);
        let served = self.reading(now);
        self.state.reset(served, garbage.error);
        // The corruption reaches stable storage too: a durable restart
        // inside the window would rehydrate garbage, exactly as a real
        // memory fault that was checkpointed before detection.
        self.durable.persist(PersistedState {
            reset_clock: served,
            inherited_error: garbage.error,
            reset_at: now,
        });
        // Scramble the health verdicts: recovery must claw back from a
        // poisoned view of the neighbourhood as well.
        for (&peer, &burst) in peers.iter().zip(&garbage.phantom_timeouts) {
            for _ in 0..burst {
                let _ = self.peers.record_timeout(peer);
            }
        }
        // The remembered claims are part of the clobbered state.
        // Wiping them also keeps the §5 recovery screen honest: cached
        // estimates age by *own-clock* deltas, so a clock jump would
        // translate every pre-jump record along with the garbage, and
        // the screen would judge peers against the garbage's frame.
        // Only post-corruption records, taken against the jumped
        // clock, are correctly denominated.
        self.peers.forget_claims();
        // In-flight request marks are torn by the jump the same way
        // (a pre-jump `send_clock` against the jumped clock is a
        // garbage round-trip, and rule MM-2 widens by exactly that
        // measurement). Unlike an adoption step the jump is not a
        // known, compensable quantity — the state is arbitrary — so
        // the marks are dropped, and replies to pre-corruption
        // requests count as late.
        self.requests.clear();
        self.round_replies.clear();
        // The front serves whatever the actor would: garbage state is
        // published too, until an adoption republishes a clean one.
        self.publish_snapshot(now);
        ctx.emit_with(TelemetryKind::StateCorrupted, || {
            TelemetryEvent::StateCorrupted {
                at: now,
                server: ctx.label(),
                clock: served,
                error: garbage.error,
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{base_config, dur, server, ts};
    use super::*;
    use crate::config::{RetryPolicy, ScreeningPolicy, Strategy};
    use crate::fault::ServerFault;
    use crate::peers::{HealthConfig, PeerState};
    use tempo_core::TimeEstimate;
    use tempo_net::{DelayModel, NetConfig, NodeId, Topology, World};

    /// A screening server whose table holds every part of a record for
    /// peers 1 and 2: two missed requests each (Suspect on the default
    /// thresholds), a claim, and a racer's rate readings.
    fn with_full_records(config: ServerConfig) -> TimeServer {
        let config = config.screening(ScreeningPolicy::Consonance {
            peer_bound: DriftRate::new(1e-4),
            sample_noise: dur(0.001),
        });
        let mut s = server(0.0, config, 7);
        for peer in [NodeId::new(1), NodeId::new(2)] {
            s.peers.record_timeout(peer);
            s.peers.record_timeout(peer);
            s.peers
                .remember(peer, TimeEstimate::new(ts(1.0), dur(0.01)), ts(1.0));
            for k in 0..4 {
                let t = f64::from(k) * 20.0;
                s.peers.record_reading(peer, ts(t), ts(t * 1.05));
            }
        }
        s
    }

    #[test]
    fn a_crash_forgets_claims_but_keeps_verdicts_and_rates() {
        let mut s = with_full_records(base_config(Strategy::Mm));
        let mut rng = tempo_net::node_rng(7, NodeId::new(0));
        let mut ctx = Context::external(ts(100.0), NodeId::new(0), &[], &mut rng);
        s.crash(&mut ctx);
        for peer in [NodeId::new(1), NodeId::new(2)] {
            assert_eq!(s.peers.claim(peer), None);
            assert_eq!(s.peer_state(peer), PeerState::Suspect);
            assert_eq!(s.peers.is_dissonant(peer, DriftRate::new(1e-4)), Some(true));
        }
    }

    #[test]
    fn a_corruption_scrambles_verdicts_and_forgets_claims() {
        let fault = ServerFault::corrupt_at(ts(50.0), 9);
        let mut s = with_full_records(base_config(Strategy::Mm).fault(fault));
        let peers = [NodeId::new(1), NodeId::new(2)];
        let bursts = fault.garbage(2).expect("garbage").phantom_timeouts;
        let mut rng = tempo_net::node_rng(7, NodeId::new(0));
        let mut ctx = Context::external(ts(50.0), NodeId::new(0), &peers, &mut rng);
        s.corrupt_state(&mut ctx);
        let mut expected = PeerTable::new(s.config());
        for (&peer, &burst) in peers.iter().zip(&bursts) {
            for _ in 0..2 + burst {
                expected.record_timeout(peer);
            }
            assert_eq!(s.peer_state(peer), expected.state(peer), "burst {burst}");
            assert_eq!(s.peers.claim(peer), None);
        }
        assert!(
            peers.iter().any(|&p| s.peer_state(p) == PeerState::Dead),
            "seed 9 buries a peer: {bursts:?}"
        );
    }

    #[test]
    fn corruption_scrambles_state_and_stabilizes() {
        // Server 3's state is overwritten with seeded garbage at t = 50
        // (clock jumped ≥ 1 s, garbage persisted to stable storage); it
        // keeps serving, and the Marzullo rounds pull it back. Judged
        // as the oracle judges it, from real time: its first correct
        // sample ends the window, and every later one stays correct.
        let mut servers: Vec<TimeServer> = Vec::new();
        for i in 0..4 {
            let mut config = base_config(Strategy::MarzulloTolerant { max_faulty: 1 });
            if i == 3 {
                config = config.fault(ServerFault::corrupt_at(ts(50.0), 9));
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
            let sample = victim.sample(now);
            assert!(
                sample.true_offset.abs() > dur(0.9) && !sample.correct,
                "the garbage clock jump is missing: offset {}, error {}",
                sample.true_offset,
                sample.error
            );
            let persisted = victim.durable().load().expect("store survives corruption");
            assert_eq!(
                persisted.reset_at,
                ts(50.0),
                "the garbage was not persisted"
            );
        }
        let mut healed = None;
        for t in 51..=300 {
            world.run_until(ts(f64::from(t)));
            let now = world.now();
            let sample = world.actors_mut()[3].sample(now);
            if healed.is_none() && sample.correct {
                healed = Some(now);
            }
            assert!(
                healed.is_none() || sample.correct,
                "correct from {healed:?}, then off again at {now}: offset {}, error {}",
                sample.true_offset,
                sample.error
            );
        }
        let healed = healed.expect("the server never stabilized");
        let now = world.now();
        let sample = world.actors_mut()[3].sample(now);
        assert!(
            sample.true_offset.abs() < dur(0.5),
            "correct since {healed} but still far off: {}",
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
                .health(HealthConfig {
                    suspect_after: 2,
                    dead_after: 4,
                    probe_every: 4,
                });
            if i == 2 {
                config = config.fault(ServerFault::crash_restart(ts(30.0), dur(25.0), false));
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
            assert!(restarted.durable().load().is_some());
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
                config = config.fault(ServerFault::crash_restart(ts(30.0), dur(20.0), true));
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
        assert!(restarted.durable().load().is_some());
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
                config = config.fault(ServerFault::restart_storm(
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

    /// Server 2 of three, with the other two silenced (terminal crashes)
    /// at `peers_gone` so that every send after that is server 2's.
    fn lone_churner(fault: ServerFault, peers_gone: f64, seed: u64) -> World<TimeServer> {
        let servers = (0..3)
            .map(|i| {
                let config = base_config(Strategy::Mm);
                let config = if i == 2 {
                    config.fault(fault).leave_after(dur(20.0))
                } else {
                    config.fault(ServerFault::crash_at(ts(peers_gone)))
                };
                server(0.0, config, i)
            })
            .collect();
        let net = NetConfig::with_delay(DelayModel::Constant(dur(0.01)));
        World::new(servers, Topology::full_mesh(3), net, seed)
    }

    #[test]
    fn departed_server_neither_restarts_nor_bootstraps() {
        // Down since 10 s, departed at 20 s, amnesia restart due at
        // 25 s. Before the gate it restarted anyway, deaf to every
        // reply, and polled both neighbours once per collect window
        // until the run ended.
        let fault = ServerFault::crash_restart(ts(10.0), dur(15.0), true);
        let mut world = lone_churner(fault, 22.0, 36);
        world.run_until(ts(22.5));
        assert_eq!(world.actors()[2].lifecycle(), Lifecycle::Crashed);
        let sent_at_leave = world.stats().sent;
        world.run_until(ts(120.0));
        let stats = world.actors()[2].stats();
        assert_eq!(stats.restarts, 0, "a departed server stays down");
        assert_eq!(stats.bootstrap_rounds, 0);
        assert_eq!(world.stats().sent, sent_at_leave, "it is still polling");
    }

    #[test]
    fn server_leaving_mid_bootstrap_stops_polling() {
        // Both peers are gone by the amnesia restart at 15 s, so the
        // bootstrap cannot complete; the booting server leaves at 20 s
        // and its round chain must die with it.
        let fault = ServerFault::crash_restart(ts(10.0), dur(5.0), true);
        let mut world = lone_churner(fault, 12.0, 37);
        world.run_until(ts(19.9));
        assert_eq!(world.actors()[2].lifecycle(), Lifecycle::Booting);
        assert!(
            world.actors()[2].stats().bootstrap_rounds >= 5,
            "one bootstrap round per collect window"
        );
        world.run_until(ts(21.0));
        let rounds_at_leave = world.actors()[2].stats().bootstrap_rounds;
        let sent_at_leave = world.stats().sent;
        world.run_until(ts(120.0));
        assert_eq!(world.actors()[2].stats().bootstrap_rounds, rounds_at_leave);
        assert_eq!(world.stats().sent, sent_at_leave, "it is still polling");
    }
}
