//! The cluster-time replica: a lease-gated primary assigning strictly
//! monotonic timestamps from the quorum Marzullo intersection, with a
//! view-change protocol for failover.

use std::collections::VecDeque;

use tempo_core::marzullo::intersect_tolerating;
use tempo_core::{Duration, TimeEstimate, TimeInterval, Timestamp};
use tempo_net::{Actor, Context, NodeId};
use tempo_service::{ClusterState, Lifecycle, MemoryStore, Message, PeerTable, TimeServer};
use tempo_telemetry::{Bus, EventKind, RefusalCause, TelemetryEvent};

use crate::config::ClusterConfig;
use crate::msg::ClusterFrame;

/// The cluster housekeeping timer. Bit 62 keeps the tag disjoint from
/// every tag the embedded server uses (small ordinals, epochs in bits
/// 32–61, the timeout flag in bit 63).
const TICK_TAG: u64 = 1 << 62;

/// Counters a replica accumulates, for experiment tables.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClusterStats {
    /// Views adopted (elections won or learned from peers).
    pub views_adopted: usize,
    /// Elections this replica started (including backoff retries).
    pub elections_started: usize,
    /// Elections this replica won.
    pub elections_won: usize,
    /// Lease grants (transitions from no lease to a valid lease).
    pub leases_granted: usize,
    /// Leases that expired without renewal.
    pub leases_expired: usize,
    /// Timestamps issued (released after quorum replication).
    pub issued: usize,
    /// Requests refused, by cause.
    pub refused_no_lease: usize,
    /// Requests refused because the replication quorum never acked.
    pub refused_no_quorum: usize,
    /// Requests refused while the inner server was booting.
    pub refused_booting: usize,
    /// Requests refused because the next timestamp would overrun the
    /// intersection's leading edge.
    pub refused_ahead: usize,
    /// Requests redirected to the believed primary.
    pub redirects: usize,
    /// Cluster-state rehydrations from stable storage.
    pub rehydrations: usize,
}

impl ClusterStats {
    /// Total refusals across all causes.
    #[must_use]
    pub fn refused(&self) -> usize {
        self.refused_no_lease + self.refused_no_quorum + self.refused_booting + self.refused_ahead
    }
}

/// The quorum intersection backing a granted lease, extrapolated
/// forward when timestamps are assigned between renewals.
#[derive(Debug, Clone, Copy)]
struct LeaseSnapshot {
    at: Timestamp,
    interval: TimeInterval,
}

/// A timestamp assigned but not yet released: the reply is withheld
/// until a quorum acks the replicated high-water mark.
#[derive(Debug, Clone, Copy)]
struct PendingIssue {
    request_id: u64,
    client: NodeId,
    issued_at: Timestamp,
    lo: Timestamp,
    hi: Timestamp,
}

/// A cluster-time replica: an embedded, unmodified [`TimeServer`]
/// (still running its interval resync protocol) plus the lease /
/// view-change / replication machinery that turns quorum intervals
/// into failover-safe monotonic timestamps.
#[derive(Debug, Clone)]
pub struct ClusterReplica {
    server: TimeServer,
    config: ClusterConfig,
    /// The durable `(view, high-water)` record, apart from the inner
    /// server's (see [`ClusterReplica::durable`]).
    durable: MemoryStore,

    view: u64,
    high_water: u64,

    // --- primary role (volatile; cleared on crash or view change) ---
    lease_until: Option<Timestamp>,
    lease_snapshot: Option<LeaseSnapshot>,
    renew_seq: u64,
    renew_acks: Vec<Option<(TimeEstimate, u64)>>,
    last_renew_sent: Option<Timestamp>,
    backup_acked_hw: Vec<u64>,
    /// Keyed by timestamp, which rises with each issue (`high_water + 1`
    /// at least): the front is the oldest.
    pendings: VecDeque<(u64, PendingIssue)>,

    // --- election (volatile) ---
    candidate_view: Option<u64>,
    votes: Vec<bool>,
    vote_hw_max: u64,
    election_attempts: u32,
    election_not_before: Timestamp,
    last_renew_seen: Timestamp,

    health: PeerTable,
    seen_crashes: usize,
    seen_restarts: usize,
    stats: ClusterStats,
}

impl ClusterReplica {
    /// Builds a replica around an embedded server, starting from the
    /// cluster `(view, high-water)` record `store` holds, if any. The
    /// store is read, not kept: the replica's durable record is a value
    /// its host mirrors (see [`ClusterReplica::durable`]).
    ///
    /// `store` is boxed only because the repo benchmark still passes
    /// `Box::new(MemoryStore::new())`.
    #[must_use]
    #[allow(clippy::boxed_local)]
    pub fn new(server: TimeServer, config: ClusterConfig, store: Box<MemoryStore>) -> Self {
        let n = config.replicas.len();
        let mut durable = MemoryStore::new();
        if let Some(record) = store.load_cluster() {
            durable.persist_cluster(record);
        }
        ClusterReplica {
            health: PeerTable::new(server.config()),
            server,
            config,
            durable,
            view: 0,
            high_water: 0,
            lease_until: None,
            lease_snapshot: None,
            renew_seq: 0,
            renew_acks: vec![None; n],
            last_renew_sent: None,
            backup_acked_hw: vec![0; n],
            pendings: VecDeque::new(),
            candidate_view: None,
            votes: vec![false; n],
            vote_hw_max: 0,
            election_attempts: 0,
            election_not_before: Timestamp::ZERO,
            last_renew_seen: Timestamp::ZERO,
            seen_crashes: 0,
            seen_restarts: 0,
            stats: ClusterStats::default(),
        }
    }

    /// Does nothing: a replica (and its inner server) emits on the bus
    /// of the [`Context`] each callback runs with, which its host owns.
    /// Kept because the repo benchmark still calls it with the bus it
    /// hands the world.
    pub fn attach_bus(&mut self, bus: Bus) {
        let _ = bus;
    }

    /// The embedded time server.
    #[must_use]
    pub fn server(&self) -> &TimeServer {
        &self.server
    }

    /// Mutable access to the embedded time server.
    pub fn server_mut(&mut self) -> &mut TimeServer {
        &mut self.server
    }

    /// The durable cluster record as it stands after the last callback:
    /// what a host that outlives crashes of the *process* writes to disk.
    #[must_use]
    pub fn durable(&self) -> MemoryStore {
        self.durable
    }

    /// This replica's accumulated counters.
    #[must_use]
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// The replica's current view.
    #[must_use]
    pub fn view(&self) -> u64 {
        self.view
    }

    /// The replica's in-memory high-water mark.
    #[must_use]
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Whether this replica currently believes it is the lease-holding
    /// primary.
    #[must_use]
    pub fn is_serving_primary(&self) -> bool {
        self.is_primary() && self.lease_snapshot.is_some() && self.lease_until.is_some()
    }

    fn is_primary(&self) -> bool {
        self.config.primary_of(self.view) == self.config.index
    }

    /// Microsecond ticks since the epoch for a timestamp (clamped at
    /// zero: cluster time starts at the epoch).
    fn us_tick(t: Timestamp) -> u64 {
        let s = t.as_secs();
        if s <= 0.0 {
            0
        } else {
            (s * 1e6) as u64
        }
    }

    // ----- actor plumbing -----

    /// Drives an inner-server callback through a derived context and
    /// re-emits its actions in cluster message space, then reconciles
    /// this layer with any lifecycle transition the callback caused.
    fn drive_inner(
        &mut self,
        ctx: &mut Context<'_, ClusterFrame>,
        f: impl FnOnce(&mut TimeServer, &mut Context<'_, Message>),
    ) {
        let mut inner = ctx.map_msg::<Message>();
        f(&mut self.server, &mut inner);
        let actions = inner.take_actions();
        for action in actions {
            match action {
                tempo_net::ActorAction::Send { to, msg } => ctx.send(to, ClusterFrame::Base(msg)),
                tempo_net::ActorAction::Timer { delay, tag } => ctx.set_timer(delay, tag),
            }
        }
        self.sync_lifecycle(ctx);
    }

    /// Detects inner crash/restart transitions (the inner lifecycle
    /// machine runs on its own timers) and applies their cluster-level
    /// consequences: a crash clears every volatile role, a restart
    /// rehydrates the cluster record from stable storage — or, under
    /// amnesia, from nothing.
    fn sync_lifecycle(&mut self, ctx: &mut Context<'_, ClusterFrame>) {
        let stats = self.server.stats();
        if stats.crashes > self.seen_crashes {
            self.seen_crashes = stats.crashes;
            self.clear_primary_role();
            self.clear_candidacy();
            // Volatile memory is gone: view and mark now live only in
            // the store until the restart path reloads them.
            self.view = 0;
            self.high_water = 0;
        }
        if stats.restarts > self.seen_restarts {
            self.seen_restarts = stats.restarts;
            if self.config.amnesia {
                self.durable.wipe();
            }
            // Give the cluster a grace period before electing against
            // whatever view we rejoined in.
            self.rehydrate(self.config.election_timeout, ctx);
        }
    }

    /// Reloads the durable `(view, high-water)` record, if there is one,
    /// and restarts the election clock: no campaign before `grace` has
    /// passed.
    fn rehydrate(&mut self, grace: Duration, ctx: &mut Context<'_, ClusterFrame>) {
        if let Some(cs) = self.durable.load_cluster() {
            self.view = cs.view;
            self.high_water = cs.high_water;
            self.stats.rehydrations += 1;
            ctx.emit_with(EventKind::HwRehydrated, || TelemetryEvent::HwRehydrated {
                at: ctx.now(),
                server: ctx.label(),
                view: self.view,
                high_water: self.high_water,
            });
        }
        self.last_renew_seen = ctx.now();
        self.election_not_before = ctx.now() + grace;
    }

    fn clear_primary_role(&mut self) {
        self.lease_until = None;
        self.lease_snapshot = None;
        self.renew_acks.iter_mut().for_each(|a| *a = None);
        self.last_renew_sent = None;
        self.backup_acked_hw.iter_mut().for_each(|h| *h = 0);
        self.pendings.clear();
    }

    fn clear_candidacy(&mut self) {
        self.candidate_view = None;
        self.votes.iter_mut().for_each(|v| *v = false);
        self.vote_hw_max = 0;
    }

    fn persist_cluster(&mut self) {
        self.durable.persist_cluster(ClusterState {
            view: self.view,
            high_water: self.high_water,
        });
    }

    /// Adopts a strictly higher view learned from a peer, surrendering
    /// any primary role or candidacy for an older view.
    fn learn_view(&mut self, view: u64, ctx: &mut Context<'_, ClusterFrame>) {
        if view <= self.view {
            return;
        }
        if self.candidate_view.is_some_and(|cv| cv <= view) {
            self.clear_candidacy();
        }
        self.last_renew_seen = ctx.now();
        self.enter_view(view, ctx);
    }

    /// Moves to `view` — learned from a peer or won — dropping any
    /// primary role held under the old one, and makes the move durable
    /// before announcing it.
    fn enter_view(&mut self, view: u64, ctx: &mut Context<'_, ClusterFrame>) {
        self.view = view;
        self.clear_primary_role();
        self.persist_cluster();
        self.election_attempts = 0;
        self.stats.views_adopted += 1;
        ctx.emit_with(EventKind::ViewChange, || TelemetryEvent::ViewChange {
            at: ctx.now(),
            server: ctx.label(),
            view,
            high_water: self.high_water,
        });
    }

    fn refuse(
        &mut self,
        request_id: u64,
        cause: RefusalCause,
        client: NodeId,
        ctx: &mut Context<'_, ClusterFrame>,
    ) {
        match cause {
            RefusalCause::NoLease => self.stats.refused_no_lease += 1,
            RefusalCause::NoQuorum => self.stats.refused_no_quorum += 1,
            RefusalCause::Booting => self.stats.refused_booting += 1,
            RefusalCause::Ahead => self.stats.refused_ahead += 1,
        }
        ctx.emit_with(EventKind::TsRefused, || TelemetryEvent::TsRefused {
            at: ctx.now(),
            server: ctx.label(),
            view: self.view,
            cause,
        });
        ctx.send(
            client,
            ClusterFrame::TsRefused {
                request_id,
                view: self.view,
                cause,
            },
        );
    }

    // ----- the lease -----

    fn lease_valid(&self, now: Timestamp) -> bool {
        self.lease_until.is_some_and(|until| now < until) && self.lease_snapshot.is_some()
    }

    /// The lease intersection extrapolated to `now`: shifted by the
    /// elapsed time and widened on both edges by the drift bound, the
    /// same aging rule the paper's E(t) obeys between resets.
    fn extrapolated(&self, now: Timestamp) -> Option<TimeInterval> {
        let snap = self.lease_snapshot?;
        let dt = now - snap.at;
        if dt.is_negative() {
            return Some(snap.interval);
        }
        let widen = dt * self.server.config().drift_bound;
        Some(TimeInterval::new(
            snap.interval.lo() + dt - widen,
            snap.interval.hi() + dt + widen,
        ))
    }

    fn send_renewal(&mut self, ctx: &mut Context<'_, ClusterFrame>) {
        self.renew_seq += 1;
        self.renew_acks.iter_mut().for_each(|a| *a = None);
        self.last_renew_sent = Some(ctx.now());
        let msg = ClusterFrame::LeaseRenew {
            view: self.view,
            seq: self.renew_seq,
        };
        for (_, peer) in self.config.peers() {
            // E16 machinery: Dead peers are skipped except on probe
            // rounds, so a crashed backup costs nothing per renewal.
            if self.health.should_poll(peer, self.renew_seq) {
                ctx.send(peer, msg);
            }
        }
        // A single-replica cluster is its own quorum.
        self.try_grant(ctx);
    }

    /// Grants (or re-extends) the lease once a quorum of renewal acks
    /// is in: intersects the readings tolerating `f` liars, snapshots
    /// the result, and adopts the highest acked mark.
    fn try_grant(&mut self, ctx: &mut Context<'_, ClusterFrame>) {
        let acked = self.renew_acks.iter().flatten().count();
        if acked + 1 < self.config.quorum() {
            return;
        }
        if self.server.lifecycle() != Lifecycle::Active {
            return;
        }
        let now = ctx.now();
        let own = self.server.current_estimate(now);
        let mut intervals = Vec::with_capacity(acked + 1);
        intervals.push(own.interval());
        let mut max_acked_hw = 0;
        for ack in self.renew_acks.iter().flatten() {
            let (est, hw) = *ack;
            intervals.push(TimeInterval::from_center_radius(
                est.time(),
                est.error() + self.config.rtt_slack,
            ));
            max_acked_hw = max_acked_hw.max(hw);
        }
        let Some(interval) = intersect_tolerating(&intervals, self.config.max_faulty) else {
            return;
        };
        let was_valid = self.lease_valid(now);
        self.lease_until = Some(now + self.config.lease_duration);
        self.lease_snapshot = Some(LeaseSnapshot { at: now, interval });
        if max_acked_hw > self.high_water {
            self.high_water = max_acked_hw;
            self.persist_cluster();
        }
        if !was_valid {
            self.stats.leases_granted += 1;
            let until = self.lease_until.expect("just set");
            ctx.emit_with(EventKind::LeaseGranted, || TelemetryEvent::LeaseGranted {
                at: now,
                server: ctx.label(),
                view: self.view,
                until,
            });
        }
    }

    // ----- issuing -----

    fn handle_request(
        &mut self,
        request_id: u64,
        client: NodeId,
        ctx: &mut Context<'_, ClusterFrame>,
    ) {
        if self.server.lifecycle() == Lifecycle::Booting {
            self.refuse(request_id, RefusalCause::Booting, client, ctx);
            return;
        }
        if !self.is_primary() {
            self.stats.redirects += 1;
            ctx.send(
                client,
                ClusterFrame::TsRedirect {
                    request_id,
                    view: self.view,
                    primary: u32::try_from(self.config.primary_of(self.view))
                        .expect("replica index fits a u32"),
                },
            );
            return;
        }
        let now = ctx.now();
        if !self.lease_valid(now) {
            self.refuse(request_id, RefusalCause::NoLease, client, ctx);
            return;
        }
        let interval = self
            .extrapolated(now)
            .expect("lease valid implies snapshot");
        let now_tick = Self::us_tick(interval.midpoint());
        let hi_tick = Self::us_tick(interval.hi());
        let ts = now_tick.max(self.high_water + 1);
        if ts > hi_tick {
            // Issuing would place the timestamp beyond every instant
            // the quorum considers possible — refuse and let real time
            // catch up with the high-water mark.
            self.refuse(request_id, RefusalCause::Ahead, client, ctx);
            return;
        }
        self.high_water = ts;
        if self.config.skips_hw_flush() {
            // In-memory monotonicity still holds — until the first crash.
            self.release(ts, request_id, client, interval.lo(), interval.hi(), ctx);
            return;
        }
        self.persist_cluster();
        debug_assert!(self.pendings.back().is_none_or(|&(last, _)| last < ts));
        let pending = PendingIssue {
            request_id,
            client,
            issued_at: now,
            lo: interval.lo(),
            hi: interval.hi(),
        };
        self.pendings.push_back((ts, pending));
        self.broadcast_hw(ctx);
        self.try_release(ctx);
    }

    fn broadcast_hw(&self, ctx: &mut Context<'_, ClusterFrame>) {
        self.broadcast(
            ClusterFrame::HwUpdate {
                view: self.view,
                high_water: self.high_water,
            },
            ctx,
        );
    }

    fn broadcast(&self, msg: ClusterFrame, ctx: &mut Context<'_, ClusterFrame>) {
        for (_, peer) in self.config.peers() {
            ctx.send(peer, msg);
        }
    }

    fn release(
        &mut self,
        ts: u64,
        request_id: u64,
        client: NodeId,
        lo: Timestamp,
        hi: Timestamp,
        ctx: &mut Context<'_, ClusterFrame>,
    ) {
        self.stats.issued += 1;
        ctx.emit_with(EventKind::TsIssued, || TelemetryEvent::TsIssued {
            at: ctx.now(),
            server: ctx.label(),
            view: self.view,
            timestamp: ts,
            lo,
            hi,
        });
        ctx.send(
            client,
            ClusterFrame::TsReply {
                request_id,
                view: self.view,
                timestamp: ts,
            },
        );
    }

    /// Releases every pending issue whose mark a quorum has durably
    /// acked, in timestamp order (so the released stream is itself
    /// monotonic).
    fn try_release(&mut self, ctx: &mut Context<'_, ClusterFrame>) {
        while let Some(&(ts, pending)) = self.pendings.front() {
            let acked = self
                .config
                .peers()
                .filter(|&(idx, _)| self.backup_acked_hw[idx] >= ts)
                .count();
            if acked + 1 < self.config.quorum() {
                return;
            }
            self.pendings.pop_front();
            self.release(
                ts,
                pending.request_id,
                pending.client,
                pending.lo,
                pending.hi,
                ctx,
            );
        }
    }

    // ----- elections -----

    fn start_election(&mut self, ctx: &mut Context<'_, ClusterFrame>) {
        let n = self.config.n() as u64;
        let base = self.candidate_view.unwrap_or(self.view);
        // The smallest view above `base` whose primary is this replica.
        let mut v = base + 1;
        while self.config.primary_of(v) != self.config.index {
            v += 1;
        }
        debug_assert!(v <= base + n);
        self.clear_candidacy();
        self.candidate_view = Some(v);
        self.vote_hw_max = self.high_water;
        self.stats.elections_started += 1;
        let backoff = 1u32 << self.election_attempts.min(5);
        self.election_not_before = ctx.now() + self.config.request_timeout * f64::from(backoff);
        self.election_attempts += 1;
        self.broadcast(ClusterFrame::ViewChangeReq { view: v }, ctx);
        // A single replica elects itself.
        self.try_win(ctx);
    }

    fn try_win(&mut self, ctx: &mut Context<'_, ClusterFrame>) {
        let Some(v) = self.candidate_view else { return };
        let granted = self.votes.iter().filter(|&&b| b).count();
        if granted + 1 < self.config.quorum() {
            return;
        }
        self.high_water = self.high_water.max(self.vote_hw_max);
        self.clear_candidacy();
        self.stats.elections_won += 1;
        self.enter_view(v, ctx);
        // Serve only once a lease quorum confirms the new reign.
        self.send_renewal(ctx);
    }

    // ----- housekeeping -----

    fn tick(&mut self, ctx: &mut Context<'_, ClusterFrame>) {
        if self.server.lifecycle() == Lifecycle::Crashed {
            return;
        }
        let now = ctx.now();

        // Lease expiry.
        if self.is_primary() && self.lease_until.is_some_and(|until| now >= until) {
            self.lease_until = None;
            self.lease_snapshot = None;
            self.stats.leases_expired += 1;
            ctx.emit_with(EventKind::LeaseExpired, || TelemetryEvent::LeaseExpired {
                at: now,
                server: ctx.label(),
                view: self.view,
            });
        }

        // Renewal cadence (the primary's heartbeat doubles as the
        // backups' liveness signal).
        if self.is_primary()
            && self.server.lifecycle() == Lifecycle::Active
            && self
                .last_renew_sent
                .is_none_or(|at| now - at >= self.config.renew_period)
        {
            // Backups that never acked the previous renewal take a
            // health strike (the E16 state machine demotes them
            // Healthy → Suspect → Dead on consecutive misses).
            if self.last_renew_sent.is_some() {
                for (idx, peer) in self.config.peers() {
                    if self.renew_acks[idx].is_none() {
                        self.health.record_timeout(peer);
                    }
                }
            }
            self.send_renewal(ctx);
        }

        // Pending sweep: replication that cannot reach a quorum within
        // the request timeout is refused, not left to dangle. Issue times
        // rise with the timestamps (`ctx.now()` never decreases), so the
        // expired issues are a prefix, refused oldest first.
        let timeout = self.config.request_timeout;
        let expired = |p: &PendingIssue| now - p.issued_at > timeout;
        while let Some(&(_, pending)) = self.pendings.front().filter(|(_, p)| expired(p)) {
            self.pendings.pop_front();
            self.refuse(
                pending.request_id,
                RefusalCause::NoQuorum,
                pending.client,
                ctx,
            );
        }
        debug_assert!(!self.pendings.iter().any(|(_, p)| expired(p)));
        if !self.pendings.is_empty() {
            // Retransmit the latest mark; acks are cumulative.
            self.broadcast_hw(ctx);
        }

        // Election: a backup whose primary has gone silent past the
        // rank-staggered timeout campaigns for the succession.
        if self.server.lifecycle() == Lifecycle::Active && !self.is_serving_primary() {
            let rank = self.config.rank_behind(self.view) as f64;
            let stagger = self.config.election_timeout * (0.25 * rank);
            let silent = now - self.last_renew_seen > self.config.election_timeout + stagger;
            let may_retry = now >= self.election_not_before;
            let idle_candidate = self.candidate_view.is_none() && !self.is_primary();
            let stalled_candidate = self.candidate_view.is_some();
            if silent && may_retry && (idle_candidate || stalled_candidate) {
                self.start_election(ctx);
            }
        }
    }

    // ----- cluster message dispatch -----

    fn on_cluster_message(
        &mut self,
        from: NodeId,
        msg: ClusterFrame,
        ctx: &mut Context<'_, ClusterFrame>,
    ) {
        match msg {
            ClusterFrame::Base(_) => unreachable!("routed before dispatch"),
            ClusterFrame::TsRequest { request_id, .. } => {
                self.handle_request(request_id, from, ctx)
            }
            ClusterFrame::TsReply { .. }
            | ClusterFrame::TsRefused { .. }
            | ClusterFrame::TsRedirect { .. } => {
                // Client-facing traffic; a replica ignores strays.
            }
            ClusterFrame::LeaseRenew { view, seq } => {
                self.learn_view(view, ctx);
                if view < self.view {
                    // A primary deposed while down would otherwise renew
                    // into the void forever: tell it about the succession.
                    self.nack_stale(from, ctx);
                    return;
                }
                if self.server.lifecycle() != Lifecycle::Active {
                    return;
                }
                self.last_renew_seen = ctx.now();
                self.election_attempts = 0;
                let estimate = self.server.current_estimate(ctx.now());
                ctx.send(
                    from,
                    ClusterFrame::LeaseAck {
                        view,
                        seq,
                        estimate: self.config.reported_estimate(estimate),
                        high_water: self.config.acked_high_water(self.high_water),
                    },
                );
            }
            ClusterFrame::LeaseAck {
                view,
                seq,
                estimate,
                high_water,
            } => {
                if view != self.view || !self.is_primary() || seq != self.renew_seq {
                    return;
                }
                let Some(idx) = self.index_of(from) else {
                    return;
                };
                self.health.record_reply(from);
                self.renew_acks[idx] = Some((estimate, high_water));
                self.try_grant(ctx);
            }
            ClusterFrame::ViewChangeReq { view } => {
                if view > self.view {
                    self.learn_view(view, ctx);
                    ctx.send(
                        from,
                        ClusterFrame::ViewChangeAck {
                            view,
                            ok: true,
                            high_water: self.config.acked_high_water(self.high_water),
                        },
                    );
                } else {
                    self.nack_stale(from, ctx);
                }
            }
            ClusterFrame::ViewChangeAck {
                view,
                ok,
                high_water,
            } => {
                if ok {
                    if self.candidate_view == Some(view) {
                        let Some(idx) = self.index_of(from) else {
                            return;
                        };
                        self.health.record_reply(from);
                        self.votes[idx] = true;
                        self.vote_hw_max = self.vote_hw_max.max(high_water);
                        self.try_win(ctx);
                    }
                } else {
                    self.learn_view(view, ctx);
                }
            }
            ClusterFrame::HwUpdate { view, high_water } => {
                self.learn_view(view, ctx);
                if view < self.view {
                    self.nack_stale(from, ctx);
                    return;
                }
                if high_water > self.high_water {
                    self.high_water = high_water;
                }
                self.persist_cluster();
                ctx.send(
                    from,
                    ClusterFrame::HwAck {
                        view,
                        high_water: self.config.acked_high_water(self.high_water),
                    },
                );
            }
            ClusterFrame::HwAck { view, high_water } => {
                if view != self.view || !self.is_primary() {
                    return;
                }
                let Some(idx) = self.index_of(from) else {
                    return;
                };
                self.health.record_reply(from);
                if high_water > self.backup_acked_hw[idx] {
                    self.backup_acked_hw[idx] = high_water;
                }
                self.try_release(ctx);
            }
        }
    }

    fn index_of(&self, peer: NodeId) -> Option<usize> {
        self.config.replicas.iter().position(|&p| p == peer)
    }

    /// Answers a stale-view sender with a refused view-change ack
    /// carrying our (higher) view — the handler for `ok: false` adopts
    /// it, so a deposed primary catches up instead of renewing forever.
    fn nack_stale(&mut self, to: NodeId, ctx: &mut Context<'_, ClusterFrame>) {
        ctx.send(
            to,
            ClusterFrame::ViewChangeAck {
                view: self.view,
                ok: false,
                high_water: self.high_water,
            },
        );
    }
}

impl Actor for ClusterReplica {
    type Msg = ClusterFrame;

    fn on_start(&mut self, ctx: &mut Context<'_, ClusterFrame>) {
        self.rehydrate(Duration::ZERO, ctx);
        self.drive_inner(ctx, |server, inner| server.on_start(inner));
        ctx.set_timer(self.config.tick, TICK_TAG);
    }

    fn on_message(&mut self, from: NodeId, msg: ClusterFrame, ctx: &mut Context<'_, ClusterFrame>) {
        if let ClusterFrame::Base(base) = msg {
            self.drive_inner(ctx, |server, inner| server.on_message(from, base, inner));
            return;
        }
        // A crashed replica is deaf to the cluster protocol too; the
        // inner lifecycle machine models the deafness for base traffic.
        if self.server.lifecycle() == Lifecycle::Crashed {
            return;
        }
        self.on_cluster_message(from, msg, ctx);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, ClusterFrame>) {
        if tag == TICK_TAG {
            self.tick(ctx);
            // Always re-armed — the housekeeping loop survives crashes
            // so the restart path has a heartbeat to come back on.
            ctx.set_timer(self.config.tick, TICK_TAG);
            return;
        }
        self.drive_inner(ctx, |server, inner| server.on_timer(tag, inner));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{AuditClient, AuditClientConfig};
    use crate::config::ClusterFault;
    use crate::node::ClusterNode;
    use tempo_clocks::SimClock;
    use tempo_core::DriftRate;
    use tempo_net::{DelayModel, NetConfig, Topology, World};
    use tempo_service::{MemoryStore, PeerState, ServerConfig, ServerFault, Strategy};

    fn dur(s: f64) -> tempo_core::Duration {
        tempo_core::Duration::from_secs(s)
    }

    /// Cluster timings fast enough for short test runs.
    fn fast(config: ClusterConfig) -> ClusterConfig {
        config
            .lease_duration(dur(0.4))
            .renew_period(dur(0.1))
            .election_timeout(dur(0.3))
            .request_timeout(dur(0.5))
            .tick(dur(0.05))
    }

    /// A replica whose inner clock starts `offset` seconds off true
    /// time, claiming `error` of initial uncertainty, resyncing so
    /// rarely the offset persists for the whole run.
    fn skewed_replica(
        replicas: Vec<NodeId>,
        index: usize,
        offset: f64,
        error: f64,
        fault: Option<ServerFault>,
    ) -> ClusterReplica {
        let clock = SimClock::builder()
            .seed(index as u64 + 1)
            .initial_value(Timestamp::from_secs(offset))
            .build();
        let mut server_config = ServerConfig::new(Strategy::Im, DriftRate::new(1e-6))
            .resync_period(dur(500.0))
            .collect_window(dur(0.5))
            .initial_error(dur(error))
            .jitter(0.0);
        if let Some(fault) = fault {
            server_config = server_config.fault(fault);
        }
        let server = TimeServer::new(clock, server_config);
        let cluster = fast(ClusterConfig::new(replicas, index));
        ClusterReplica::new(server, cluster, Box::new(MemoryStore::new()))
    }

    fn run_world(nodes: Vec<ClusterNode>, until: f64, seed: u64) -> World<ClusterNode> {
        let n = nodes.len();
        let mut world = World::new(
            nodes,
            Topology::full_mesh(n),
            NetConfig::with_delay(DelayModel::Constant(dur(0.005))),
            seed,
        );
        world.run_until(Timestamp::from_secs(until));
        world
    }

    #[test]
    fn failover_preserves_monotonicity() {
        let replicas: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let nodes: Vec<ClusterNode> = vec![
            skewed_replica(
                replicas.clone(),
                0,
                0.0,
                0.05,
                Some(ServerFault::crash_restart(
                    Timestamp::from_secs(20.0),
                    dur(10.0),
                    false,
                )),
            )
            .into(),
            skewed_replica(replicas.clone(), 1, 0.0, 0.05, None).into(),
            skewed_replica(replicas.clone(), 2, 0.0, 0.05, None).into(),
            AuditClient::new(
                AuditClientConfig::new(replicas)
                    .period(dur(0.1))
                    .request_timeout(dur(0.5)),
            )
            .into(),
        ];
        let world = run_world(nodes, 60.0, 11);
        let actors = world.actors();
        let client = actors[3].as_client().unwrap();
        assert_eq!(client.stats().regressions, 0, "{:?}", client.stats());
        let trail = client.trail();
        for pair in trail.windows(2) {
            assert!(pair[1].timestamp > pair[0].timestamp);
        }
        // The workload survived the crash: issues before and well after.
        assert!(trail.first().unwrap().at < Timestamp::from_secs(20.0));
        assert!(trail.last().unwrap().at > Timestamp::from_secs(40.0));
        // Someone took over.
        let successor = actors[1].as_replica().unwrap();
        assert!(
            successor.stats().elections_won >= 1,
            "{:?}",
            successor.stats()
        );
        assert!(successor.view() >= 1);
    }

    #[test]
    fn quorum_lost_requests_are_refused() {
        let replicas: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let crash = |at: f64| Some(ServerFault::crash_at(Timestamp::from_secs(at)));
        let nodes: Vec<ClusterNode> = vec![
            skewed_replica(replicas.clone(), 0, 0.0, 0.05, None).into(),
            skewed_replica(replicas.clone(), 1, 0.0, 0.05, crash(10.0)).into(),
            skewed_replica(replicas.clone(), 2, 0.0, 0.05, crash(10.0)).into(),
            AuditClient::new(
                AuditClientConfig::new(replicas)
                    .period(dur(0.1))
                    .request_timeout(dur(0.5)),
            )
            .into(),
        ];
        let world = run_world(nodes, 40.0, 13);
        let actors = world.actors();
        let client = actors[3].as_client().unwrap();
        let primary = actors[0].as_replica().unwrap();
        // With both backups dead the lease cannot renew: the primary
        // refuses rather than risk an unreplicated timestamp.
        assert!(primary.stats().leases_expired >= 1, "{:?}", primary.stats());
        assert!(client.stats().refused > 0, "{:?}", client.stats());
        assert_eq!(client.stats().regressions, 0);
        // Nothing was issued after the lease ran out.
        let last = client.trail().last().unwrap();
        assert!(
            last.at < Timestamp::from_secs(11.0),
            "issued at {} after quorum loss",
            last.at
        );
        // The renewal verdicts are the replica's own: its renewals buried
        // both backups, while its inner server, polling them with no
        // timeouts armed, holds them Healthy.
        for backup in [NodeId::new(1), NodeId::new(2)] {
            assert_eq!(primary.health.state(backup), PeerState::Dead);
            assert_eq!(primary.server().peer_state(backup), PeerState::Healthy);
        }
    }

    /// The injected skip-the-flush bug is *observable*: with a fast
    /// primary clock and a quick failover, the successor (which never
    /// saw the unreplicated high-water mark) re-issues lower
    /// timestamps. The same scenario with the bug absent is clean —
    /// this pair of runs is what the fuzzer self-test automates.
    #[test]
    fn skip_hw_flush_causes_regression_after_failover() {
        let run = |inject: bool| {
            let replicas: Vec<NodeId> = (0..3).map(NodeId::new).collect();
            let mut fast_primary = skewed_replica(
                replicas.clone(),
                0,
                2.0, // clock runs 2 s ahead, within its claimed error
                5.0,
                Some(ServerFault::crash_at(Timestamp::from_secs(10.0))),
            );
            if inject {
                fast_primary.config.fault = Some(ClusterFault::SkipHwFlush);
            }
            let nodes: Vec<ClusterNode> = vec![
                fast_primary.into(),
                skewed_replica(replicas.clone(), 1, 0.0, 5.0, None).into(),
                skewed_replica(replicas.clone(), 2, 0.0, 5.0, None).into(),
                AuditClient::new(
                    AuditClientConfig::new(replicas)
                        .period(dur(0.05))
                        .request_timeout(dur(0.3)),
                )
                .into(),
            ];
            let world = run_world(nodes, 25.0, 17);
            let actors = world.actors();
            actors[3].as_client().unwrap().stats()
        };
        let buggy = run(true);
        assert!(buggy.regressions > 0, "bug not observable: {buggy:?}");
        let clean = run(false);
        assert_eq!(clean.regressions, 0, "{clean:?}");
    }

    /// Drives one replica by hand on `Context::external`s with fixed
    /// neighbours and RNG seed, recording what it queues and emits.
    struct Hand {
        rng: rand::rngs::StdRng,
        bus: tempo_telemetry::Bus,
        tap: std::rc::Rc<std::cell::RefCell<Tap>>,
        actions: Vec<tempo_net::ActorAction<ClusterFrame>>,
    }

    #[derive(Default)]
    struct Tap(Vec<TelemetryEvent>);

    impl tempo_telemetry::Observer for Tap {
        fn observe(&mut self, event: &TelemetryEvent) {
            self.0.push(event.clone());
        }
    }

    impl Hand {
        fn new() -> Self {
            let bus = tempo_telemetry::Bus::new();
            let tap = std::rc::Rc::new(std::cell::RefCell::new(Tap::default()));
            bus.subscribe(std::rc::Rc::clone(&tap));
            Hand {
                rng: tempo_net::node_rng(7, NodeId::new(0)),
                bus,
                tap,
                actions: Vec::new(),
            }
        }

        fn call(
            &mut self,
            replica: &mut ClusterReplica,
            at: f64,
            callback: impl FnOnce(&mut ClusterReplica, &mut Context<'_, ClusterFrame>),
        ) {
            let peers: Vec<NodeId> = (1..4).map(NodeId::new).collect();
            let now = Timestamp::from_secs(at);
            let mut ctx =
                Context::external(now, NodeId::new(0), &peers, &mut self.rng).emitting(&self.bus);
            callback(replica, &mut ctx);
            self.actions.extend(ctx.take_actions());
        }

        /// The payload of the last frame of the given shape sent to
        /// `to`.
        fn sent<T>(&self, to: usize, pick: impl Fn(&ClusterFrame) -> Option<T>) -> T {
            self.actions
                .iter()
                .rev()
                .find_map(|action| match action {
                    tempo_net::ActorAction::Send { to: t, msg } if t.index() == to => pick(msg),
                    _ => None,
                })
                .expect("the frame was sent")
        }
    }

    /// An inner interval round (polls, two replies, the close), then a
    /// timestamp request released by one backup's ack, then a tick.
    fn replay(replica: &mut ClusterReplica, at: f64) -> Hand {
        let mut hand = Hand::new();
        hand.call(replica, at, |r, ctx| r.on_timer(1, ctx));
        for peer in [1, 2] {
            let request_id = hand.sent(peer, |frame| match frame {
                ClusterFrame::Base(Message::TimeRequest { request_id, .. }) => Some(*request_id),
                _ => None,
            });
            let estimate = TimeEstimate::new(Timestamp::from_secs(at + 0.01), dur(0.001));
            let reply = ClusterFrame::Base(Message::TimeReply {
                request_id,
                received_at: estimate.time(),
                estimate,
            });
            hand.call(replica, at + 0.01, |r, ctx| {
                r.on_message(NodeId::new(peer), reply, ctx);
            });
        }
        hand.call(replica, at + 0.02, |r, ctx| r.on_timer(2, ctx));
        let request = ClusterFrame::TsRequest {
            request_id: 77,
            attempt: 0,
        };
        hand.call(replica, at + 0.03, |r, ctx| {
            r.on_message(NodeId::new(3), request, ctx);
        });
        let (view, high_water) = hand.sent(1, |frame| match frame {
            ClusterFrame::HwUpdate { view, high_water } => Some((*view, *high_water)),
            _ => None,
        });
        let ack = ClusterFrame::HwAck { view, high_water };
        hand.call(replica, at + 0.04, |r, ctx| {
            r.on_message(NodeId::new(1), ack, ctx);
        });
        hand.call(replica, at + 0.05, |r, ctx| r.on_timer(TICK_TAG, ctx));
        hand
    }

    #[test]
    fn a_clone_is_an_independent_copy() {
        let replicas: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let nodes: Vec<ClusterNode> = vec![
            skewed_replica(replicas.clone(), 0, 0.0, 0.05, None).into(),
            skewed_replica(replicas.clone(), 1, 0.0, 0.05, None).into(),
            skewed_replica(replicas.clone(), 2, 0.0, 0.05, None).into(),
            AuditClient::new(AuditClientConfig::new(replicas).period(dur(0.1))).into(),
        ];
        let mut world = run_world(nodes, 5.0, 19);
        let original = world.actors_mut()[0].as_replica_mut().unwrap();
        assert!(original.is_serving_primary(), "replica 0 holds the lease");
        let reader = original.server().snapshot_reader();
        let published = reader.read();

        let mut copy = original.clone();
        let (issued, resets) = (copy.stats().issued, copy.server().stats().resets);
        let on_copy = replay(&mut copy, 5.0);
        assert!(copy.stats().issued > issued, "the replay issues");
        assert!(copy.server().stats().resets > resets, "the replay adopts");
        assert_eq!(
            reader.read(),
            published,
            "the copy published to the original"
        );

        let on_original = replay(original, 5.0);
        assert_eq!(on_copy.actions, on_original.actions);
        let events = on_copy.tap.borrow().0.clone();
        assert_eq!(events, on_original.tap.borrow().0);
        assert!(events
            .iter()
            .any(|e| matches!(e, TelemetryEvent::RoundAdopt { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TelemetryEvent::TsIssued { .. })));
        assert_eq!(copy.durable(), original.durable());
        assert_eq!(copy.server().durable(), original.server().durable());
        assert_eq!(copy.stats(), original.stats());
        assert_eq!(copy.server().stats(), original.server().stats());
    }

    /// One primary issues while backup 2 is partitioned away and backup
    /// 1's acks come late: pending issues release in timestamp order as
    /// acks arrive, the ones past `request_timeout` (0.5 s) are refused
    /// `NoQuorum` oldest first, and the later ones still release.
    #[test]
    fn pending_issues_release_in_order_and_time_out_oldest_first() {
        let replicas: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let nodes: Vec<ClusterNode> = (0..3)
            .map(|i| skewed_replica(replicas.clone(), i, 0.0, 0.05, None).into())
            .collect();
        let mut world = run_world(nodes, 5.0, 19);
        let primary = world.actors_mut()[0].as_replica_mut().unwrap();
        assert!(primary.is_serving_primary() && primary.pendings.is_empty());
        let client = NodeId::new(3);
        let mut hand = Hand::new();
        let request = |hand: &mut Hand, r: &mut ClusterReplica, at: f64, request_id| {
            let frame = ClusterFrame::TsRequest {
                request_id,
                attempt: 0,
            };
            hand.call(r, at, |r, ctx| r.on_message(client, frame, ctx));
            r.high_water
        };
        let ack = |hand: &mut Hand, r: &mut ClusterReplica, at: f64, high_water| {
            let frame = ClusterFrame::HwAck {
                view: r.view,
                high_water,
            };
            hand.call(r, at, |r, ctx| r.on_message(NodeId::new(1), frame, ctx));
        };
        let t1 = request(&mut hand, primary, 5.00, 1);
        let t2 = request(&mut hand, primary, 5.01, 2);
        let t3 = request(&mut hand, primary, 5.02, 3);
        assert!(t1 < t2 && t2 < t3 && primary.pendings.len() == 3);
        ack(&mut hand, primary, 5.03, t1);
        let t4 = request(&mut hand, primary, 5.04, 4);
        let t5 = request(&mut hand, primary, 5.05, 5);
        // 2 and 3 have waited 0.515 s and 0.505 s; 4 and 5 have not.
        hand.call(primary, 5.525, |r, ctx| r.on_timer(TICK_TAG, ctx));
        let waiting: Vec<u64> = primary.pendings.iter().map(|&(ts, _)| ts).collect();
        assert_eq!(waiting, [t4, t5]);
        ack(&mut hand, primary, 5.53, t5);
        assert!(primary.pendings.is_empty());

        let seen: Vec<ClusterFrame> = hand
            .actions
            .iter()
            .filter_map(|action| match action {
                tempo_net::ActorAction::Send { to, msg } if *to == client => Some(*msg),
                _ => None,
            })
            .collect();
        let view = primary.view;
        let reply = |request_id, timestamp| ClusterFrame::TsReply {
            request_id,
            view,
            timestamp,
        };
        let refused = |request_id| ClusterFrame::TsRefused {
            request_id,
            view,
            cause: RefusalCause::NoQuorum,
        };
        let expected = [
            reply(1, t1),
            refused(2),
            refused(3),
            reply(4, t4),
            reply(5, t5),
        ];
        assert_eq!(seen, expected);
        assert_eq!(primary.stats().refused_no_quorum, 2);
    }
}
