//! The time-service *client*.
//!
//! §1 of the paper: "the client simply requests the time from any subset
//! of the time servers making up the service, and uses the first reply."
//! §3 adds: "a client … could collect a set of times and use the
//! response with the smallest error rather than the first reply", and §4
//! suggests intersecting everything. [`ClientStrategy`] offers all
//! three.

use std::collections::HashMap;

use tempo_core::filter::{cluster, combine, ClockFilter, FilterSample, PeerEstimate};
use tempo_core::offset::FourTimestamps;
use tempo_core::{DriftRate, Duration, TimeEstimate, Timestamp};
use tempo_net::{Actor, Context, NodeId};

use crate::message::Message;
use crate::round::{im2, Decision, TimedReply};

/// How the client combines server replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientStrategy {
    /// Use the first reply that arrives (the §1 interaction).
    FirstReply,
    /// Wait out the window, use the reply with the smallest adjusted
    /// error `E_j + ξ` (the §3 refinement).
    SmallestError,
    /// Wait out the window and intersect all reply intervals (the §4
    /// synchronization function, applied client-side).
    Intersection,
    /// The NTP-lineage pipeline: per-server clock filters (minimum-
    /// delay sample selection) persisting across query rounds, the
    /// cluster algorithm over the filtered peers, and inverse-error
    /// weighted combining. Improves *precision* sample-by-sample where
    /// [`ClientStrategy::Intersection`] optimises the *bound*.
    Filtered,
}

impl std::fmt::Display for ClientStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ClientStrategy::FirstReply => "first-reply",
            ClientStrategy::SmallestError => "smallest-error",
            ClientStrategy::Intersection => "intersection",
            ClientStrategy::Filtered => "filtered",
        })
    }
}

/// One completed query as recorded by the client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientObservation {
    /// Real (simulated) time at which the client settled on a value.
    pub at: Timestamp,
    /// The time estimate the client obtained.
    pub obtained: TimeEstimate,
    /// How many replies contributed.
    pub replies_used: usize,
}

impl ClientObservation {
    /// Simulation-only: was the obtained estimate correct (contains the
    /// real time at which it was adopted)?
    #[must_use]
    pub fn correct(&self) -> bool {
        self.obtained.is_correct_at(self.at)
    }
}

const TIMER_QUERY: u64 = 10;
const TIMER_WINDOW: u64 = 11;

/// A reply held until the round settles, with the full four-timestamp
/// record of its exchange.
#[derive(Debug, Clone, Copy)]
struct BufferedReply {
    from: NodeId,
    estimate: TimeEstimate,
    /// `T1`: request send (client real time).
    sent: Timestamp,
    /// `T2`: request reception (server clock).
    received_at: Timestamp,
    /// `T4`: reply reception (client real time). `T3` is
    /// `estimate.time()`.
    arrived: Timestamp,
}

/// A client actor that periodically queries every neighbouring time
/// server and records what it obtains.
///
/// The client's round-trip measurement uses the simulator's real time
/// directly (an idealisation: clients care about the value obtained, not
/// about maintaining their own MM-1 state).
#[derive(Debug)]
pub struct TimeClient {
    strategy: ClientStrategy,
    period: Duration,
    window: Duration,
    next_request_id: u64,
    send_times: HashMap<u64, Timestamp>,
    /// Buffered replies with their exchange timestamps.
    round_replies: Vec<BufferedReply>,
    round_open: bool,
    /// Per-server clock filters ([`ClientStrategy::Filtered`] only),
    /// persisting across rounds.
    filters: HashMap<NodeId, ClockFilter>,
    first_taken: bool,
    observations: Vec<ClientObservation>,
}

impl TimeClient {
    /// Creates a client querying every `period`, collecting replies for
    /// `window`.
    ///
    /// # Panics
    ///
    /// Panics if `period` or `window` is non-positive, or the window is
    /// not shorter than the period.
    #[must_use]
    pub fn new(strategy: ClientStrategy, period: Duration, window: Duration) -> Self {
        assert!(period.as_secs() > 0.0, "query period must be positive");
        assert!(window.as_secs() > 0.0, "collect window must be positive");
        assert!(window < period, "window must be shorter than the period");
        TimeClient {
            strategy,
            period,
            window,
            next_request_id: 1_000_000, // distinct from server ids for log readability
            send_times: HashMap::new(),
            round_replies: Vec::new(),
            round_open: false,
            first_taken: false,
            observations: Vec::new(),
            filters: HashMap::new(),
        }
    }

    /// The observations recorded so far.
    #[must_use]
    pub fn observations(&self) -> &[ClientObservation] {
        &self.observations
    }

    /// The client's strategy.
    #[must_use]
    pub fn strategy(&self) -> ClientStrategy {
        self.strategy
    }

    fn record(&mut self, at: Timestamp, obtained: TimeEstimate, replies_used: usize) {
        self.observations.push(ClientObservation {
            at,
            obtained,
            replies_used,
        });
    }

    fn settle_round(&mut self, now: Timestamp) {
        if self.round_replies.is_empty() {
            self.round_open = false;
            return;
        }
        // A reply's value is stale by `now − sent` when the round
        // settles (round trip plus the wait for the window to close);
        // every strategy must absorb that age into the reported error.
        let aged: Vec<TimedReply> = self
            .round_replies
            .iter()
            .map(|b| TimedReply::new(b.estimate, (now - b.sent).max(Duration::ZERO)))
            .collect();
        match self.strategy {
            ClientStrategy::FirstReply => unreachable!("first-reply settles on arrival"),
            ClientStrategy::Filtered => {
                // Feed this round's samples into the per-server filters
                // using the [Mills 81] four-timestamp measurement: the
                // offset is θ = ((T2−T1)+(T3−T4))/2, the sample quality
                // metric is the path delay δ.
                let replies = std::mem::take(&mut self.round_replies);
                for b in &replies {
                    let four =
                        FourTimestamps::new(b.sent, b.received_at, b.estimate.time(), b.arrived);
                    self.filters
                        .entry(b.from)
                        .or_insert_with(|| ClockFilter::new(8))
                        .push(FilterSample::new(
                            four.offset(),
                            four.delay().max(Duration::ZERO),
                            b.arrived,
                        ));
                }
                // Build peer estimates from every filter seen so far.
                let mut peer_errors: HashMap<NodeId, Duration> = HashMap::new();
                for b in &replies {
                    let age = (now - b.sent).max(Duration::ZERO);
                    peer_errors.insert(b.from, b.estimate.error() + age);
                }
                // Deterministic peer order (HashMap iteration order is
                // process-randomised).
                let mut nodes: Vec<NodeId> = self.filters.keys().copied().collect();
                nodes.sort_unstable();
                let mut peers = Vec::new();
                for node in nodes {
                    let filter = &self.filters[&node];
                    let Some(best) = filter.best() else { continue };
                    let error = peer_errors
                        .get(&node)
                        .copied()
                        .unwrap_or(best.delay)
                        .max(Duration::from_micros(1.0));
                    peers.push(PeerEstimate::new(best.offset, filter.jitter(), error));
                }
                if peers.is_empty() {
                    self.round_open = false;
                    return;
                }
                let survivors = cluster(&peers, 1);
                let used = survivors.len();
                if let Some(combined) = combine(&peers, &survivors) {
                    // Conservative bound: the worst survivor's error
                    // plus its filter scatter covers the combined point.
                    let bound = survivors
                        .iter()
                        .map(|&i| peers[i].error + peers[i].jitter)
                        .fold(Duration::ZERO, Duration::max);
                    self.record(now, TimeEstimate::new(now + combined, bound), used);
                }
                self.round_open = false;
                return;
            }
            ClientStrategy::SmallestError => {
                self.record(now, smallest_error(&aged), aged.len());
            }
            ClientStrategy::Intersection => {
                // The client has no own interval, so seed the
                // intersection with the (aged) widest reply.
                let own = aged
                    .iter()
                    .map(absorbed)
                    .max_by_key(TimeEstimate::error)
                    .expect("non-empty");
                let obtained = match im2(&own, DriftRate::ZERO, &aged) {
                    Decision::Reset { reset, .. } => reset.as_estimate(),
                    // Fall back to smallest error on inconsistency.
                    _ => smallest_error(&aged),
                };
                self.record(now, obtained, aged.len());
            }
        }
        self.round_replies.clear();
        self.round_open = false;
    }
}

/// `⟨C_j, E_j + ξ⟩`: a reply with its age absorbed into its error.
fn absorbed(reply: &TimedReply) -> TimeEstimate {
    TimeEstimate::new(
        reply.estimate.time(),
        reply.estimate.error() + reply.round_trip,
    )
}

/// The reply with the smallest adjusted error `E_j + ξ` (the §3
/// refinement), its age absorbed.
fn smallest_error(aged: &[TimedReply]) -> TimeEstimate {
    aged.iter()
        .map(absorbed)
        .min_by_key(TimeEstimate::error)
        .expect("non-empty")
}

impl Actor for TimeClient {
    type Msg = Message;

    fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
        ctx.set_timer(self.period, TIMER_QUERY);
    }

    fn on_message(&mut self, _from: NodeId, msg: Message, ctx: &mut Context<'_, Message>) {
        // (the sender id is needed by the Filtered strategy)
        match msg {
            Message::TimeRequest { request_id, .. } => {
                // Clients do not serve time; politely decline by not
                // responding. (Servers never query clients anyway —
                // requests can only arrive in mixed topologies.)
                let _ = request_id;
            }
            Message::TimeReply {
                request_id,
                received_at,
                estimate,
            } => {
                let Some(sent) = self.send_times.remove(&request_id) else {
                    return;
                };
                if !self.round_open {
                    return;
                }
                let rtt = (ctx.now() - sent).max(Duration::ZERO);
                match self.strategy {
                    ClientStrategy::FirstReply => {
                        if !self.first_taken {
                            self.first_taken = true;
                            let obtained =
                                TimeEstimate::new(estimate.time(), estimate.error() + rtt);
                            let now = ctx.now();
                            self.record(now, obtained, 1);
                            self.round_open = false;
                        }
                    }
                    ClientStrategy::SmallestError
                    | ClientStrategy::Intersection
                    | ClientStrategy::Filtered => {
                        self.round_replies.push(BufferedReply {
                            from: _from,
                            estimate,
                            sent,
                            received_at,
                            arrived: ctx.now(),
                        });
                    }
                }
            }
            Message::Uninitialized { request_id } => {
                // A booting server explicitly declined: it cannot serve
                // the time yet. Forget the solicitation — the reply
                // count simply stays lower this round.
                self.send_times.remove(&request_id);
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, Message>) {
        match tag {
            TIMER_QUERY => {
                self.round_open = true;
                self.first_taken = false;
                self.round_replies.clear();
                self.send_times.clear();
                let now = ctx.now();
                for peer in ctx.neighbors().to_vec() {
                    let id = self.next_request_id;
                    self.next_request_id += 1;
                    self.send_times.insert(id, now);
                    ctx.send(
                        peer,
                        Message::TimeRequest {
                            request_id: id,
                            attempt: 0,
                        },
                    );
                }
                if self.strategy != ClientStrategy::FirstReply {
                    ctx.set_timer(self.window, TIMER_WINDOW);
                }
                // Filtered keeps long-lived per-server filters; other
                // strategies keep no cross-round state.
                ctx.set_timer(self.period, TIMER_QUERY);
            }
            TIMER_WINDOW => {
                let now = ctx.now();
                self.settle_round(now);
            }
            other => debug_assert!(false, "unknown client timer {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let c = TimeClient::new(
            ClientStrategy::FirstReply,
            Duration::from_secs(5.0),
            Duration::from_secs(1.0),
        );
        assert_eq!(c.strategy(), ClientStrategy::FirstReply);
        assert!(c.observations().is_empty());
    }

    #[test]
    #[should_panic(expected = "window must be shorter")]
    fn window_must_be_shorter_than_period() {
        let _ = TimeClient::new(
            ClientStrategy::FirstReply,
            Duration::from_secs(1.0),
            Duration::from_secs(2.0),
        );
    }

    #[test]
    fn strategy_display() {
        assert_eq!(ClientStrategy::FirstReply.to_string(), "first-reply");
        assert_eq!(ClientStrategy::SmallestError.to_string(), "smallest-error");
        assert_eq!(ClientStrategy::Intersection.to_string(), "intersection");
        assert_eq!(ClientStrategy::Filtered.to_string(), "filtered");
    }

    #[test]
    fn disjoint_replies_fall_back_to_the_smallest_error() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let ts = Timestamp::from_secs;
        let mut client = TimeClient::new(
            ClientStrategy::Intersection,
            Duration::from_secs(5.0),
            Duration::from_secs(1.0),
        );
        let peers = [NodeId::new(1), NodeId::new(2)];
        let mut rng = StdRng::seed_from_u64(0);
        // Both requests go out at 0 and carry the ids 1_000_000 and
        // 1_000_001; the window closes at 1, so each reply has aged 1 s.
        client.on_timer(
            TIMER_QUERY,
            &mut Context::external(ts(0.0), NodeId::new(0), &peers, &mut rng),
        );
        let answers = [(1_000_000, ts(10.0), 0.10), (1_000_001, ts(20.0), 0.05)];
        for (peer, (request_id, time, error)) in peers.into_iter().zip(answers) {
            client.on_message(
                peer,
                Message::TimeReply {
                    request_id,
                    received_at: time,
                    estimate: TimeEstimate::new(time, Duration::from_secs(error)),
                },
                &mut Context::external(ts(0.2), NodeId::new(0), &peers, &mut rng),
            );
        }
        client.on_timer(
            TIMER_WINDOW,
            &mut Context::external(ts(1.0), NodeId::new(0), &peers, &mut rng),
        );
        // [8.9, 11.1] and [18.95, 21.05] share no point: IM-2 fails and
        // the client records ⟨20, 0.05 + 1⟩, with both replies used.
        let obtained = TimeEstimate::new(
            ts(20.0),
            Duration::from_secs(0.05) + Duration::from_secs(1.0),
        );
        assert_eq!(
            client.observations(),
            [ClientObservation {
                at: ts(1.0),
                obtained,
                replies_used: 2,
            }]
        );
    }

    #[test]
    fn observation_correctness_check() {
        let obs = ClientObservation {
            at: Timestamp::from_secs(10.0),
            obtained: TimeEstimate::new(Timestamp::from_secs(10.1), Duration::from_secs(0.2)),
            replies_used: 1,
        };
        assert!(obs.correct());
        let bad = ClientObservation {
            at: Timestamp::from_secs(10.0),
            obtained: TimeEstimate::new(Timestamp::from_secs(11.0), Duration::from_secs(0.2)),
            replies_used: 1,
        };
        assert!(!bad.correct());
    }
}
