//! Blocking UDP clients. [`UdpTimeClient`] asks every time server,
//! times the round trip on the local monotonic clock, and returns
//! rtt-adjusted readings — the client half of rule MM-1 over a real
//! network. [`UdpClusterClient`] requests ClusterTime timestamps through
//! the simulator's own `AuditClient`.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration as StdDuration, Instant};

use tempo_cluster::{AuditClient, AuditClientConfig, ClientStats};
use tempo_core::{Duration, TimeEstimate};
use tempo_net::NodeId;
use tempo_service::wire::{decode, encode};
use tempo_service::Message;
use tempo_telemetry::RefusalCause;

use crate::runtime::UdpRuntime;

/// One server's answer to a query round.
#[derive(Debug, Clone, Copy)]
pub struct ServerReading {
    /// The answering server's address.
    pub from: SocketAddr,
    /// The raw `⟨C_j, E_j⟩` as decoded off the wire.
    pub estimate: TimeEstimate,
    /// Local monotonic round trip, request out to reply in.
    pub rtt: StdDuration,
    /// Local monotonic instant the reply arrived, relative to the
    /// round's start; lets readings taken milliseconds apart be
    /// normalised to a common instant.
    pub received_at: StdDuration,
}

impl ServerReading {
    /// The reading adjusted for transmission, per the paper's §2: the
    /// reply aged by half the round trip, the error widened by the
    /// same half — the interval that contains true time if the server
    /// was correct.
    #[must_use]
    pub fn adjusted(&self) -> TimeEstimate {
        let half = Duration::from_secs(self.rtt.as_secs_f64() / 2.0);
        TimeEstimate::new(self.estimate.time() + half, self.estimate.error() + half)
    }

    /// [`ServerReading::adjusted`], further extrapolated to local
    /// instant `at` (same monotonic base as
    /// [`ServerReading::received_at`]). No drift term is added; over
    /// the sub-second spans a query round lasts, drift is far below
    /// the rtt uncertainty already included.
    #[must_use]
    pub fn adjusted_at(&self, at: StdDuration) -> TimeEstimate {
        let adjusted = self.adjusted();
        let age = Duration::from_secs(at.as_secs_f64() - self.received_at.as_secs_f64());
        TimeEstimate::new(adjusted.time() + age, adjusted.error())
    }
}

/// The outcome of one cluster query.
#[derive(Debug, Clone)]
pub struct ClusterReading {
    /// Readings from servers that answered with an estimate.
    pub readings: Vec<ServerReading>,
    /// Servers that answered "booting, no trustworthy interval yet".
    pub uninitialized: Vec<SocketAddr>,
}

/// A blocking client querying a fixed set of servers.
#[derive(Debug)]
pub struct UdpTimeClient {
    socket: UdpSocket,
    servers: Vec<SocketAddr>,
    next_request_id: u64,
    timeout: StdDuration,
}

impl UdpTimeClient {
    /// Binds an ephemeral local socket aimed at `servers`.
    ///
    /// # Errors
    ///
    /// Fails if the local socket cannot be bound.
    pub fn new(servers: Vec<SocketAddr>, timeout: StdDuration) -> io::Result<Self> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        Ok(UdpTimeClient {
            socket,
            servers,
            next_request_id: 1,
            timeout,
        })
    }

    /// Sends a `TimeRequest` to every server and collects replies
    /// until the timeout lapses or every server has answered.
    /// Malformed or stray datagrams are ignored, not errors.
    ///
    /// # Errors
    ///
    /// Fails only on local socket errors; unreachable servers simply
    /// produce no reading.
    pub fn query(&mut self) -> io::Result<ClusterReading> {
        let round_start = Instant::now();
        // One id per server so a straggler from server A cannot be
        // booked against server B's round trip.
        let mut pending: Vec<(u64, SocketAddr, Instant)> = Vec::new();
        for &server in &self.servers {
            let request_id = self.next_request_id;
            self.next_request_id += 1;
            let frame = encode(&Message::TimeRequest {
                request_id,
                attempt: 0,
            });
            let sent_at = Instant::now();
            self.socket.send_to(&frame, server)?;
            pending.push((request_id, server, sent_at));
        }
        let mut readings = Vec::new();
        let mut uninitialized = Vec::new();
        let deadline = Instant::now() + self.timeout;
        let mut buf = [0u8; 512];
        while !pending.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            self.socket.set_read_timeout(Some(deadline - now))?;
            let (len, from) = match self.socket.recv_from(&mut buf) {
                Ok(hit) => hit,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    break;
                }
                Err(e) => return Err(e),
            };
            let received = Instant::now();
            let Ok(msg) = decode(&buf[..len]) else {
                continue;
            };
            let (request_id, estimate) = match msg {
                Message::TimeReply {
                    request_id,
                    estimate,
                    ..
                } => (request_id, Some(estimate)),
                Message::Uninitialized { request_id } => (request_id, None),
                Message::TimeRequest { .. } => continue,
            };
            let Some(slot) = pending
                .iter()
                .position(|&(id, server, _)| id == request_id && server == from)
            else {
                continue;
            };
            let (_, server, sent_at) = pending.swap_remove(slot);
            match estimate {
                Some(estimate) => readings.push(ServerReading {
                    from: server,
                    estimate,
                    rtt: received - sent_at,
                    received_at: received - round_start,
                }),
                None => uninitialized.push(server),
            }
        }
        Ok(ClusterReading {
            readings,
            uninitialized,
        })
    }

    /// The servers this client queries.
    #[must_use]
    pub fn servers(&self) -> &[SocketAddr] {
        &self.servers
    }
}

/// The outcome of one cluster-timestamp request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TsOutcome {
    /// A timestamp was issued (released after quorum replication).
    Issued {
        /// The strictly monotonic cluster timestamp, µs ticks.
        timestamp: u64,
        /// The view it was issued under.
        view: u64,
    },
    /// The attempt budget ran out and a replica refused along the way —
    /// the cluster is degraded (no lease, no quorum, booting) and said
    /// so rather than risk a regression.
    Refused {
        /// The last refusing replica's view.
        view: u64,
        /// The last refusal's cause.
        cause: RefusalCause,
    },
    /// Nobody answered with a timestamp or a refusal within the budget.
    TimedOut,
}

impl TsOutcome {
    /// The issued timestamp, if one was.
    #[must_use]
    pub fn timestamp(&self) -> Option<u64> {
        match self {
            TsOutcome::Issued { timestamp, .. } => Some(*timestamp),
            _ => None,
        }
    }
}

/// A blocking client for the cluster-time service: the simulator's
/// [`AuditClient`] — its redirect, rotate and refusal back-off rules and
/// its sender check — hosted by a [`UdpRuntime`] on an ephemeral socket.
/// The client is host-paced (`period` zero): each call starts one fresh
/// request and abandons any the previous call gave up on, so a returned
/// timestamp always answers a request sent during the call.
#[derive(Debug)]
pub struct UdpClusterClient {
    runtime: UdpRuntime<UdpSocket, AuditClient>,
    timeout: StdDuration,
    /// Re-sends a request may take: three laps of the replica set.
    budget: usize,
}

impl UdpClusterClient {
    /// Binds an ephemeral local socket aimed at `replicas` (indexed in
    /// node-id order, so redirects can name their target). `timeout`
    /// bounds each attempt, not the whole request; a refusal is retried
    /// after `timeout / 4`, doubled per consecutive refusal up to 32×.
    ///
    /// # Errors
    ///
    /// Fails if the local socket cannot be bound.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty.
    pub fn new(replicas: Vec<SocketAddr>, timeout: StdDuration) -> io::Result<Self> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        // The replicas are nodes 0..n, the client itself node n.
        let n = replicas.len();
        let peers = [replicas, vec![socket.local_addr()?]].concat();
        let attempt = Duration::from_secs(timeout.as_secs_f64());
        let config = AuditClientConfig::new((0..n).map(NodeId::new).collect())
            .period(Duration::ZERO)
            .request_timeout(attempt)
            .retry_delay(attempt / 4.0);
        Ok(UdpClusterClient {
            runtime: UdpRuntime::new(AuditClient::new(config), socket, n, peers, 0),
            timeout,
            budget: 3 * n,
        })
    }

    /// Requests one cluster timestamp and returns the first reply — or,
    /// once the request has been re-sent three laps of the replica set,
    /// the last refusal, or [`TsOutcome::TimedOut`] if none came.
    ///
    /// The budget counts re-sends, not time. Silence costs `timeout`
    /// per re-send, a refusal up to 8 × `timeout` (the back-off at its
    /// cap; it resets only on a reply), so against `n` replicas that
    /// all refuse a call can block for (3n − 1) × 8 × `timeout` — about
    /// 45 s for five replicas at 400 ms.
    ///
    /// # Errors
    ///
    /// None: as in `tempod`, a socket error is a lost datagram (logged
    /// to stderr by the runtime).
    pub fn request(&mut self) -> io::Result<TsOutcome> {
        let resends = |s: ClientStats| s.refused + s.redirected + s.timeouts;
        let client = self.runtime.server();
        let (issued, before) = (client.trail().len(), client.stats());
        self.runtime.start();
        loop {
            self.runtime.poll(self.timeout);
            let client = self.runtime.server();
            if let Some(record) = client.trail().get(issued) {
                return Ok(TsOutcome::Issued {
                    timestamp: record.timestamp,
                    view: record.view,
                });
            }
            let now = client.stats();
            if resends(now) - resends(before) >= self.budget {
                let refusal = client
                    .last_refusal()
                    .filter(|_| now.refused > before.refused);
                return Ok(refusal.map_or(TsOutcome::TimedOut, |(view, cause)| {
                    TsOutcome::Refused { view, cause }
                }));
            }
        }
    }

    /// The replica this client currently believes is primary.
    #[must_use]
    pub fn believed_primary(&self) -> usize {
        self.runtime.server().target()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_core::Timestamp;
    use tempo_service::wire::{decode_cluster, encode_cluster, ClusterFrame};

    #[test]
    fn query_collects_replies_and_refusals() {
        // Hand-rolled "servers": raw sockets that answer one request.
        let server_a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let server_b = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addrs = vec![
            server_a.local_addr().unwrap(),
            server_b.local_addr().unwrap(),
        ];
        let mut client = UdpTimeClient::new(addrs.clone(), StdDuration::from_secs(5)).unwrap();
        let answer = std::thread::spawn(move || {
            let mut buf = [0u8; 512];
            let (len, from) = server_a.recv_from(&mut buf).unwrap();
            let Ok(Message::TimeRequest { request_id, .. }) = decode(&buf[..len]) else {
                panic!("expected a request");
            };
            let reply = Message::TimeReply {
                request_id,
                received_at: Timestamp::from_secs(42.0),
                estimate: TimeEstimate::new(Timestamp::from_secs(42.0), Duration::from_millis(3.0)),
            };
            server_a.send_to(&encode(&reply), from).unwrap();
            let (len, from) = server_b.recv_from(&mut buf).unwrap();
            let Ok(Message::TimeRequest { request_id, .. }) = decode(&buf[..len]) else {
                panic!("expected a request");
            };
            server_b
                .send_to(&encode(&Message::Uninitialized { request_id }), from)
                .unwrap();
        });
        let reading = client.query().unwrap();
        answer.join().unwrap();
        assert_eq!(reading.readings.len(), 1);
        assert_eq!(reading.uninitialized, vec![addrs[1]]);
        let r = reading.readings[0];
        assert_eq!(r.from, addrs[0]);
        assert_eq!(r.estimate.time(), Timestamp::from_secs(42.0));
        // Adjustment ages the reading and widens the error by rtt/2.
        let adjusted = r.adjusted();
        assert!(adjusted.time() >= r.estimate.time());
        assert!(adjusted.error() >= r.estimate.error());
    }

    /// Waits for the next timestamp request on a hand-rolled replica:
    /// its id and sender.
    fn next_request(socket: &UdpSocket) -> (u64, SocketAddr) {
        let mut buf = [0u8; 512];
        let (len, from) = socket.recv_from(&mut buf).unwrap();
        let Ok(ClusterFrame::TsRequest { request_id, .. }) = decode_cluster(&buf[..len]) else {
            panic!("expected a timestamp request");
        };
        (request_id, from)
    }

    #[test]
    fn out_of_range_redirects_keep_the_cluster_client_on_real_replicas() {
        // Two hand-rolled "backups", each confused about who is
        // primary: the first names replica `u32::MAX`, the second
        // replica 2 of 2. The client must land on a real replica each
        // time and take the reply the third answer carries.
        let replica_0 = UdpSocket::bind("127.0.0.1:0").unwrap();
        let replica_1 = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addrs = vec![
            replica_0.local_addr().unwrap(),
            replica_1.local_addr().unwrap(),
        ];
        let mut client = UdpClusterClient::new(addrs, StdDuration::from_secs(5)).unwrap();
        let answer = std::thread::spawn(move || {
            let answer_with = |socket: &UdpSocket, reply: fn(u64) -> ClusterFrame| {
                let (request_id, from) = next_request(socket);
                socket
                    .send_to(&encode_cluster(&reply(request_id)), from)
                    .unwrap();
            };
            answer_with(&replica_0, |request_id| ClusterFrame::TsRedirect {
                request_id,
                view: 1,
                primary: u32::MAX,
            });
            // u32::MAX mod 2 = 1.
            answer_with(&replica_1, |request_id| ClusterFrame::TsRedirect {
                request_id,
                view: 1,
                primary: 2,
            });
            answer_with(&replica_0, |request_id| ClusterFrame::TsReply {
                request_id,
                view: 4,
                timestamp: 99,
            });
        });
        let outcome = client.request().unwrap();
        answer.join().unwrap();
        assert_eq!(
            outcome,
            TsOutcome::Issued {
                timestamp: 99,
                view: 4
            }
        );
        assert!(client.believed_primary() < 2);
    }

    #[test]
    fn a_forged_reply_from_a_stranger_is_not_taken() {
        // The replica leaks the request id to a stranger, whose forged
        // reply reaches the client before the genuine one does.
        let replica = UdpSocket::bind("127.0.0.1:0").unwrap();
        let stranger = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addrs = vec![replica.local_addr().unwrap()];
        let mut client = UdpClusterClient::new(addrs, StdDuration::from_secs(5)).unwrap();
        let answer = std::thread::spawn(move || {
            let (request_id, from) = next_request(&replica);
            let reply = |timestamp| {
                encode_cluster(&ClusterFrame::TsReply {
                    request_id,
                    view: 0,
                    timestamp,
                })
            };
            stranger.send_to(&reply(1), from).unwrap();
            replica.send_to(&reply(99), from).unwrap();
        });
        let outcome = client.request().unwrap();
        answer.join().unwrap();
        assert!(
            matches!(outcome, TsOutcome::Issued { timestamp: 99, .. }),
            "{outcome:?}"
        );
    }

    #[test]
    fn each_timestamp_answers_a_request_that_arrived_during_the_call() {
        // The replica issues 1, 2, … and notes when each request came.
        let replica = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addrs = vec![replica.local_addr().unwrap()];
        let mut client = UdpClusterClient::new(addrs, StdDuration::from_secs(5)).unwrap();
        let issuer = std::thread::spawn(move || {
            let mut arrivals = Vec::new();
            for timestamp in 1..=2 {
                let (request_id, from) = next_request(&replica);
                arrivals.push(Instant::now());
                let reply = ClusterFrame::TsReply {
                    request_id,
                    view: 0,
                    timestamp,
                };
                replica.send_to(&encode_cluster(&reply), from).unwrap();
            }
            arrivals
        });
        assert_eq!(client.request().unwrap().timestamp(), Some(1));
        std::thread::sleep(StdDuration::from_millis(100));
        let call = Instant::now();
        let second = client.request().unwrap();
        let arrivals = issuer.join().unwrap();
        assert_eq!(second.timestamp(), Some(2));
        assert!(arrivals[1] >= call, "timestamp 2 was read before the call");
    }

    #[test]
    fn a_request_the_last_call_gave_up_on_does_not_answer_the_next() {
        // The replica sits on a request until the client has given up
        // on it, then answers it late; the next call must not take that.
        let replica = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addrs = vec![replica.local_addr().unwrap()];
        let mut client = UdpClusterClient::new(addrs, StdDuration::from_millis(50)).unwrap();
        let late = std::thread::spawn(move || {
            let reply = |request_id, timestamp| {
                encode_cluster(&ClusterFrame::TsReply {
                    request_id,
                    view: 0,
                    timestamp,
                })
            };
            // The first send and three re-sends after time-outs.
            let (stale, from) = next_request(&replica);
            for _ in 0..3 {
                assert_eq!(next_request(&replica).0, stale);
            }
            std::thread::sleep(StdDuration::from_millis(500));
            replica.send_to(&reply(stale, 5), from).unwrap();
            let (fresh, from) = next_request(&replica);
            replica.send_to(&reply(fresh, 9), from).unwrap();
        });
        assert_eq!(client.request().unwrap(), TsOutcome::TimedOut);
        // Let the late answer land in the client's socket buffer.
        std::thread::sleep(StdDuration::from_secs(1));
        let outcome = client.request().unwrap();
        late.join().unwrap();
        assert_eq!(outcome.timestamp(), Some(9), "{outcome:?}");
    }

    #[test]
    fn refusals_back_off_exponentially() {
        // A replica that refuses everything: the client must pace its
        // retries at timeout / 4 · 2^k, not hammer it at a constant rate.
        let replica = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addrs = vec![replica.local_addr().unwrap()];
        let mut client = UdpClusterClient::new(addrs, StdDuration::from_millis(400)).unwrap();
        let refuser = std::thread::spawn(move || {
            let mut arrivals = Vec::new();
            for _ in 0..3 {
                let (request_id, from) = next_request(&replica);
                arrivals.push(Instant::now());
                let refusal = ClusterFrame::TsRefused {
                    request_id,
                    view: 7,
                    cause: RefusalCause::NoQuorum,
                };
                replica.send_to(&encode_cluster(&refusal), from).unwrap();
            }
            arrivals
        });
        let outcome = client.request().unwrap();
        let arrivals = refuser.join().unwrap();
        assert_eq!(
            outcome,
            TsOutcome::Refused {
                view: 7,
                cause: RefusalCause::NoQuorum
            }
        );
        // Lower bounds only: a slow machine stretches gaps, never
        // shrinks them.
        let gaps = [arrivals[1] - arrivals[0], arrivals[2] - arrivals[1]];
        assert!(gaps[0] >= StdDuration::from_millis(100), "{gaps:?}");
        assert!(gaps[1] >= StdDuration::from_millis(200), "{gaps:?}");
    }

    #[test]
    fn query_times_out_on_silence() {
        let silent = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut client = UdpTimeClient::new(
            vec![silent.local_addr().unwrap()],
            StdDuration::from_millis(50),
        )
        .unwrap();
        let reading = client.query().unwrap();
        assert!(reading.readings.is_empty());
        assert!(reading.uninitialized.is_empty());
    }
}
