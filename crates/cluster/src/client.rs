//! The audit-trail client: a workload generator that requests cluster
//! timestamps, follows redirects to the current primary, retries
//! refusals, and checks the stream it receives for regressions. It is
//! also the real client: `tempo_transport::UdpClusterClient` hosts this
//! very machine on a UDP socket, so the rules the simulator checks are
//! the rules that ship.

use tempo_core::{Duration, Timestamp};
use tempo_net::{Actor, Context, NodeId};
use tempo_telemetry::RefusalCause;

use crate::msg::ClusterFrame;

const SEND_TAG: u64 = 1;
const TIMEOUT_BASE: u64 = 2;

/// Configuration of an [`AuditClient`].
#[derive(Debug, Clone, PartialEq)]
pub struct AuditClientConfig {
    /// The cluster replicas, in index order (so a
    /// [`ClusterFrame::TsRedirect`] `primary` index can be resolved to a
    /// node).
    pub replicas: Vec<NodeId>,
    /// Delay between a satisfied request and the next one. Zero means
    /// the host paces the client instead: after a reply nothing is sent
    /// until the host starts it again ([`Actor::on_start`]), as
    /// `tempo_transport::UdpClusterClient` does once per call.
    pub period: Duration,
    /// How long to wait for any response before trying the next
    /// replica round-robin.
    pub request_timeout: Duration,
    /// Base delay before retrying a refused request (doubled per
    /// consecutive refusal, capped at 32×).
    pub retry_delay: Duration,
}

impl AuditClientConfig {
    /// A configuration with simulator-scale defaults: 50 ms between
    /// requests, a 0.5 s timeout (as long as a replica waits, see
    /// `ClusterConfig::new`), 100 ms refusal backoff.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty.
    #[must_use]
    pub fn new(replicas: Vec<NodeId>) -> Self {
        assert!(!replicas.is_empty(), "a cluster needs at least one replica");
        AuditClientConfig {
            replicas,
            period: Duration::from_millis(50.0),
            request_timeout: Duration::from_secs(0.5),
            retry_delay: Duration::from_millis(100.0),
        }
    }

    /// Sets the inter-request period.
    #[must_use]
    pub fn period(mut self, d: Duration) -> Self {
        self.period = d;
        self
    }

    /// Sets the per-request timeout.
    #[must_use]
    pub fn request_timeout(mut self, d: Duration) -> Self {
        self.request_timeout = d;
        self
    }

    /// Sets the refusal retry base delay.
    #[must_use]
    pub fn retry_delay(mut self, d: Duration) -> Self {
        self.retry_delay = d;
        self
    }
}

/// Counters an audit client accumulates.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClientStats {
    /// Timestamps obtained.
    pub issued: usize,
    /// Refusals received (each retried after backoff).
    pub refused: usize,
    /// Redirects followed to a different replica.
    pub redirected: usize,
    /// Requests that timed out (each retried round-robin).
    pub timeouts: usize,
    /// Replies whose timestamp did not exceed the previous one — the
    /// client-side view of a `ClusterMonotonic` violation.
    pub regressions: usize,
}

/// One timestamp as the client received it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditRecord {
    /// Real (simulated) time of receipt.
    pub at: Timestamp,
    /// View the timestamp was issued under.
    pub view: u64,
    /// The cluster timestamp.
    pub timestamp: u64,
}

/// A client that maintains an append-only audit trail: every entry must
/// carry a strictly greater cluster timestamp than the one before it,
/// whatever the cluster's primaries were doing at the time.
#[derive(Debug)]
pub struct AuditClient {
    config: AuditClientConfig,
    /// Which replica this client currently believes is primary.
    target: usize,
    counter: u64,
    /// The in-flight request, if any: `(request_id, attempt)`.
    outstanding: Option<(u64, u8)>,
    /// Bumped by every send, reply and refusal. A time-out timer carries
    /// the epoch it was armed in and counts only while that epoch lasts,
    /// so at most one — the latest send's, until it is answered — is live.
    timer_epoch: u64,
    last_ts: Option<u64>,
    consecutive_refusals: u32,
    last_refusal: Option<(u64, RefusalCause)>,
    trail: Vec<AuditRecord>,
    stats: ClientStats,
    me: usize,
}

impl AuditClient {
    /// Creates a client that starts by asking replica 0.
    #[must_use]
    pub fn new(config: AuditClientConfig) -> Self {
        AuditClient {
            config,
            target: 0,
            counter: 0,
            outstanding: None,
            timer_epoch: 0,
            last_ts: None,
            consecutive_refusals: 0,
            last_refusal: None,
            trail: Vec::new(),
            stats: ClientStats::default(),
            me: 0,
        }
    }

    /// The client's accumulated counters.
    #[must_use]
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The audit trail in receipt order.
    #[must_use]
    pub fn trail(&self) -> &[AuditRecord] {
        &self.trail
    }

    /// The last timestamp obtained, if any.
    #[must_use]
    pub fn last_timestamp(&self) -> Option<u64> {
        self.last_ts
    }

    /// The replica (an index into [`AuditClientConfig::replicas`]) the
    /// next send goes to.
    #[must_use]
    pub fn target(&self) -> usize {
        self.target
    }

    /// The view and cause of the last refusal received, if any.
    #[must_use]
    pub fn last_refusal(&self) -> Option<(u64, RefusalCause)> {
        self.last_refusal
    }

    /// Sends the request in flight again — retries keep their
    /// correlation id so a late first reply still matches — or, with
    /// none in flight, a new one.
    fn send_request(&mut self, ctx: &mut Context<'_, ClusterFrame>) {
        let (request_id, attempt) = match self.outstanding {
            Some((id, attempt)) => (id, attempt.saturating_add(1)),
            None => {
                self.counter += 1;
                ((self.me as u64) << 32 | self.counter, 0)
            }
        };
        self.outstanding = Some((request_id, attempt));
        let to = self.config.replicas[self.target % self.config.replicas.len()];
        ctx.send(
            to,
            ClusterFrame::TsRequest {
                request_id,
                attempt,
            },
        );
        // The tag names this send, not just this request: a re-send
        // (retry, redirect, refusal) supersedes the timers armed before
        // it. The wire `attempt` cannot serve, it saturates at 255.
        self.timer_epoch += 1;
        ctx.set_timer(self.config.request_timeout, self.live_timeout_tag());
    }

    fn schedule_next(&mut self, ctx: &mut Context<'_, ClusterFrame>) {
        self.outstanding = None;
        self.timer_epoch += 1;
        if self.config.period > Duration::ZERO {
            ctx.set_timer(self.config.period, SEND_TAG);
        }
    }

    fn live_timeout_tag(&self) -> u64 {
        TIMEOUT_BASE | self.timer_epoch << 8
    }

    /// Whether a frame from `from` answers the request in flight. Only a
    /// configured replica speaks for the cluster: request ids are
    /// predictable, so anyone else could forge the next reply.
    fn answers(&self, from: NodeId, request_id: u64) -> bool {
        self.outstanding.is_some_and(|(id, _)| id == request_id)
            && self.config.replicas.contains(&from)
    }
}

impl Actor for AuditClient {
    type Msg = ClusterFrame;

    fn on_start(&mut self, ctx: &mut Context<'_, ClusterFrame>) {
        self.me = ctx.label();
        // A host-paced client is started once per request: whatever
        // answers a request from before this start was read before it.
        if self.outstanding.take().is_some() {
            self.timer_epoch += 1;
        }
        ctx.set_timer(self.config.period, SEND_TAG);
    }

    fn on_message(&mut self, from: NodeId, msg: ClusterFrame, ctx: &mut Context<'_, ClusterFrame>) {
        match msg {
            ClusterFrame::TsReply {
                request_id,
                view,
                timestamp,
            } if self.answers(from, request_id) => {
                self.stats.issued += 1;
                self.consecutive_refusals = 0;
                if self.last_ts.is_some_and(|prev| timestamp <= prev) {
                    self.stats.regressions += 1;
                }
                self.last_ts = Some(timestamp);
                self.trail.push(AuditRecord {
                    at: ctx.now(),
                    view,
                    timestamp,
                });
                self.schedule_next(ctx);
            }
            ClusterFrame::TsRefused {
                request_id,
                view,
                cause,
            } if self.answers(from, request_id) => {
                self.stats.refused += 1;
                self.last_refusal = Some((view, cause));
                let (_, attempt) = self.outstanding.expect("matched above");
                self.outstanding = Some((request_id, attempt.saturating_add(1)));
                self.timer_epoch += 1;
                let backoff = 1u32 << self.consecutive_refusals.min(5);
                self.consecutive_refusals += 1;
                // Re-sent from the send timer so refused requests pace
                // themselves instead of hammering a degraded cluster.
                ctx.set_timer(self.config.retry_delay * f64::from(backoff), SEND_TAG);
            }
            ClusterFrame::TsRedirect {
                request_id,
                primary,
                ..
            } if self.answers(from, request_id) => {
                self.stats.redirected += 1;
                // The index is the sender's claim: reduce it into range.
                self.target = primary as usize % self.config.replicas.len();
                self.send_request(ctx);
            }
            // Stale or foreign answers, replica-to-replica traffic and
            // base resync messages are not for us; a client ignores them.
            _ => {}
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, ClusterFrame>) {
        if tag == SEND_TAG {
            // The next request, or a refusal retry of the one in flight.
            self.send_request(ctx);
            return;
        }
        // Only the time-out of the latest send of the request still
        // waiting counts; every timer armed before it is stale.
        if tag == self.live_timeout_tag() {
            self.stats.timeouts += 1;
            self.target = (self.target + 1) % self.config.replicas.len();
            self.send_request(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tempo_net::ActorAction;

    use super::*;

    fn ids(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    #[test]
    fn construction_and_accessors() {
        let c = AuditClient::new(AuditClientConfig::new(ids(5)));
        assert_eq!(c.stats(), ClientStats::default());
        assert!(c.trail().is_empty());
        assert_eq!(c.last_timestamp(), None);
    }

    /// The client driven by hand: its armed timers and its sends.
    struct Harness {
        client: AuditClient,
        now: f64,
        timers: Vec<(f64, u64)>,
        sent: Vec<(NodeId, ClusterFrame)>,
        rng: StdRng,
    }

    impl Harness {
        /// A client of replicas 0–2, itself node 3, that times out
        /// after a whole second.
        fn new() -> Self {
            let config = AuditClientConfig::new(ids(3)).request_timeout(Duration::from_secs(1.0));
            Harness::with(config)
        }

        fn with(config: AuditClientConfig) -> Self {
            Harness {
                client: AuditClient::new(config),
                now: 0.0,
                timers: Vec::new(),
                sent: Vec::new(),
                rng: StdRng::seed_from_u64(0),
            }
        }

        fn drive(&mut self, call: impl FnOnce(&mut AuditClient, &mut Context<'_, ClusterFrame>)) {
            let replicas = ids(3);
            let now = Timestamp::from_secs(self.now);
            let mut ctx = Context::external(now, NodeId::new(3), &replicas, &mut self.rng);
            call(&mut self.client, &mut ctx);
            for action in ctx.take_actions() {
                match action {
                    ActorAction::Send { to, msg } => self.sent.push((to, msg)),
                    ActorAction::Timer { delay, tag } => {
                        self.timers.push((self.now + delay.as_secs(), tag));
                    }
                }
            }
            let live = self
                .timers
                .iter()
                .filter(|t| t.1 == self.client.live_timeout_tag());
            assert!(live.count() <= 1, "one live time-out at t = {}", self.now);
        }

        fn fire_next(&mut self) {
            let next = (0..self.timers.len())
                .min_by(|&a, &b| self.timers[a].0.total_cmp(&self.timers[b].0))
                .expect("a timer is armed");
            let (at, tag) = self.timers.remove(next);
            self.now = at;
            self.drive(|client, ctx| client.on_timer(tag, ctx));
        }

        fn deliver(&mut self, msg: ClusterFrame) {
            self.deliver_from(NodeId::new(0), msg);
        }

        fn deliver_from(&mut self, from: NodeId, msg: ClusterFrame) {
            self.drive(|client, ctx| client.on_message(from, msg, ctx));
        }
    }

    #[test]
    fn one_live_timeout_through_redirect_refusal_and_timeouts() {
        let mut h = Harness::new();
        h.drive(|client, ctx| client.on_start(ctx));
        h.fire_next();
        let Some((_, ClusterFrame::TsRequest { request_id, .. })) = h.sent.last().cloned() else {
            panic!("the send timer sends a request");
        };
        h.deliver(ClusterFrame::TsRedirect {
            request_id,
            view: 1,
            primary: 1,
        });
        assert_eq!(h.sent.len(), 2, "a redirect re-sends at once");
        h.deliver(ClusterFrame::TsRefused {
            request_id,
            view: 1,
            cause: RefusalCause::NoLease,
        });
        h.fire_next();
        assert_eq!(h.sent.len(), 3, "a refusal re-sends after the backoff");
        // Nobody answers: the three timers armed so far all come due,
        // and only the last send's may count.
        while h.now < 5.0 {
            h.fire_next();
        }
        let stats = h.client.stats();
        assert_eq!((stats.redirected, stats.refused), (1, 1));
        assert_eq!(stats.timeouts, 5, "at t = 1.15, 2.15, … 5.15 s");
        assert_eq!(h.sent.len(), 3 + 5);
        assert!(h.sent.iter().all(|(_, msg)| matches!(
            msg,
            ClusterFrame::TsRequest { request_id: id, .. } if *id == request_id
        )));
        // Two confused backups bounce the request past the wire
        // attempt's saturation at 255: still one time-out per second.
        for _ in 0..300 {
            h.deliver(ClusterFrame::TsRedirect {
                request_id,
                view: 1,
                primary: 1,
            });
        }
        while h.now < 8.0 {
            h.fire_next();
        }
        assert_eq!(
            h.client.stats().timeouts,
            5 + 3,
            "at t = 6.15, 7.15, 8.15 s"
        );
        assert_eq!(h.sent.len(), 8 + 300 + 3);
        // A confused backup names a primary that does not exist: the
        // client stays aimed at a real replica and still gets served.
        for primary in [u32::MAX, 3] {
            h.deliver(ClusterFrame::TsRedirect {
                request_id,
                view: 1,
                primary,
            });
            let (to, _) = h.sent.last().expect("a redirect re-sends");
            assert!(to.index() < 3, "redirected out of range to {to:?}");
        }
        // A stranger who learned the id forges the answer: nothing moves.
        let before = (h.client.stats(), h.sent.len(), h.timers.len());
        h.deliver_from(
            NodeId::new(7),
            ClusterFrame::TsReply {
                request_id,
                view: 2,
                timestamp: 1,
            },
        );
        assert_eq!((h.client.stats(), h.sent.len(), h.timers.len()), before);
        h.deliver(ClusterFrame::TsReply {
            request_id,
            view: 2,
            timestamp: 7,
        });
        while h.timers.len() > 1 {
            h.fire_next();
        }
        assert_eq!(
            h.client.stats().timeouts,
            8,
            "a satisfied request times out no more"
        );
        assert_eq!(h.client.stats().issued, 1);
    }

    #[test]
    fn a_host_paced_client_sends_only_when_started_and_abandons_what_is_in_flight() {
        let mut h = Harness::with(AuditClientConfig::new(ids(3)).period(Duration::ZERO));
        let start = |h: &mut Harness| {
            h.drive(|client, ctx| client.on_start(ctx));
            h.fire_next();
            let Some((_, ClusterFrame::TsRequest { request_id, .. })) = h.sent.last().cloned()
            else {
                panic!("a start sends a request at once");
            };
            request_id
        };
        let first = start(&mut h);
        h.deliver(ClusterFrame::TsReply {
            request_id: first,
            view: 0,
            timestamp: 5,
        });
        // Only the answered request's time-out is armed, and it is stale.
        h.fire_next();
        assert!(h.timers.is_empty(), "{:?}", h.timers);
        assert_eq!(h.sent.len(), 1, "no request without a start");
        // Started again with `second` unanswered: `second` is abandoned,
        // so its late reply is not taken and its time-out is stale.
        let second = start(&mut h);
        let third = start(&mut h);
        assert!(first < second && second < third);
        let before = h.client.stats();
        h.deliver(ClusterFrame::TsReply {
            request_id: second,
            view: 0,
            timestamp: 6,
        });
        assert_eq!(h.client.stats(), before);
        // Both sends' time-outs come due at t = 2 s.
        h.fire_next();
        h.fire_next();
        assert_eq!(h.client.stats().timeouts, 1, "only the third's time-out");
        h.deliver(ClusterFrame::TsReply {
            request_id: third,
            view: 0,
            timestamp: 7,
        });
        assert_eq!(h.client.trail().len(), 2);
    }

    /// Random interleavings of due timers and answers — genuine, stale
    /// or from strangers — against a model of what the client may do.
    #[test]
    fn audit_client_keeps_its_invariants_under_any_answer_sequence() {
        const CAUSES: [RefusalCause; 4] = [
            RefusalCause::NoLease,
            RefusalCause::NoQuorum,
            RefusalCause::Booting,
            RefusalCause::Ahead,
        ];
        tempo_check::check("audit_client_invariants", 256, |g| {
            let mut h = Harness::new();
            h.drive(|client, ctx| client.on_start(ctx));
            // The model: the id in flight, every id sent, the last
            // accepted timestamp and the regressions among them.
            let (mut live, mut seen) = (None, vec![0]);
            let (mut last_ts, mut regressions) = (None::<u64>, 0);
            for _ in 0..g.int(1..=80usize) {
                let before = (h.client.stats(), h.sent.len(), h.timers.len());
                if g.int(0..3u8) == 0 {
                    h.fire_next();
                } else {
                    let request_id = match g.int(0..3u8) {
                        0 => live.unwrap_or_default(),
                        1 => *g.pick(&seen),
                        _ => g.u64(),
                    };
                    // Nodes 0–2 are the replicas; 3 (the client) and up
                    // are strangers.
                    let from = NodeId::new(g.int(0..6usize));
                    let view = g.u64();
                    let frame = match g.int(0..3u8) {
                        0 => ClusterFrame::TsReply {
                            request_id,
                            view,
                            timestamp: g.int(0..=40u64),
                        },
                        1 => ClusterFrame::TsRefused {
                            request_id,
                            view,
                            cause: *g.pick(&CAUSES),
                        },
                        _ => ClusterFrame::TsRedirect {
                            request_id,
                            view,
                            primary: g.int(0..=u32::MAX),
                        },
                    };
                    h.deliver_from(from, frame);
                    if live != Some(request_id) || from.index() >= 3 {
                        let after = (h.client.stats(), h.sent.len(), h.timers.len());
                        assert_eq!(after, before, "{frame:?} from {from:?} was acted on");
                    } else if let ClusterFrame::TsReply { timestamp, .. } = frame {
                        regressions += usize::from(last_ts.is_some_and(|prev| timestamp <= prev));
                        last_ts = Some(timestamp);
                        live = None;
                    }
                }
                for &(to, msg) in &h.sent[before.1..] {
                    assert!(to.index() < 3, "sent to {to:?}, not a replica");
                    let ClusterFrame::TsRequest { request_id, .. } = msg else {
                        panic!("a client sends requests only, not {msg:?}");
                    };
                    assert_eq!(*live.get_or_insert(request_id), request_id);
                    seen.push(request_id);
                }
                let stats = h.client.stats();
                assert_eq!(stats.issued, h.client.trail().len());
                assert_eq!(stats.regressions, regressions);
            }
        });
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn empty_replica_set_is_rejected() {
        let _ = AuditClientConfig::new(Vec::new());
    }
}
