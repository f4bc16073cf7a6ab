//! A blocking UDP client for the time service: ask every server,
//! time the round trip on the local monotonic clock, and return
//! rtt-adjusted readings — the client half of rule MM-1 over a real
//! network.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration as StdDuration, Instant};

use tempo_core::{Duration, TimeEstimate};
use tempo_service::wire::{decode, decode_cluster, encode, encode_cluster, ClusterFrame};
use tempo_service::Message;
use tempo_telemetry::RefusalCause;

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
    /// Every attempt was answered with a refusal — the cluster is
    /// degraded (no lease, no quorum, booting) and said so rather
    /// than risk a regression.
    Refused {
        /// The refusing replica's view on the last attempt.
        view: u64,
        /// The last refusal's cause.
        cause: RefusalCause,
    },
    /// Nobody answered within the attempt budget.
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

/// What one attempt at one replica produced.
enum Attempt {
    Reply(TsOutcome),
    Redirect(u32),
    Refusal(u64, RefusalCause),
    Silence,
}

/// A blocking client for the cluster-time service: requests monotonic
/// timestamps from the believed primary, following redirects and
/// rotating through the replica set on silence — the real-socket twin
/// of the simulator's `AuditClient`.
#[derive(Debug)]
pub struct UdpClusterClient {
    socket: UdpSocket,
    replicas: Vec<SocketAddr>,
    believed_primary: usize,
    next_request_id: u64,
    timeout: StdDuration,
}

impl UdpClusterClient {
    /// Binds an ephemeral local socket aimed at `replicas` (indexed in
    /// node-id order, so redirects can name their target). `timeout`
    /// bounds each attempt, not the whole request.
    ///
    /// # Errors
    ///
    /// Fails if the local socket cannot be bound.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty.
    pub fn new(replicas: Vec<SocketAddr>, timeout: StdDuration) -> io::Result<Self> {
        assert!(!replicas.is_empty(), "need at least one replica");
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        Ok(UdpClusterClient {
            socket,
            replicas,
            believed_primary: 0,
            next_request_id: 1,
            timeout,
        })
    }

    /// Requests one cluster timestamp: send to the believed primary,
    /// follow redirects, rotate on silence, and return the first
    /// reply — or the last refusal once the attempt budget (three
    /// laps of the replica set) runs out.
    ///
    /// # Errors
    ///
    /// Fails only on local socket errors; unreachable or refusing
    /// replicas are reported through [`TsOutcome`].
    pub fn request(&mut self) -> io::Result<TsOutcome> {
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        let mut last_refusal = None;
        let budget = self.replicas.len() * 3;
        for attempt in 0..budget {
            let target = self.replicas[self.believed_primary];
            match self.one_attempt(request_id, attempt, target)? {
                Attempt::Reply(outcome) => return Ok(outcome),
                // The index is the sender's claim: reduce it into range.
                Attempt::Redirect(primary) => {
                    self.believed_primary = primary as usize % self.replicas.len();
                }
                Attempt::Refusal(view, cause) => {
                    last_refusal = Some((view, cause));
                    // A refusal is authoritative for this replica right
                    // now; a lease or quorum may be moments away.
                    std::thread::sleep(self.timeout / 4);
                }
                Attempt::Silence => {
                    self.believed_primary = (self.believed_primary + 1) % self.replicas.len();
                }
            }
        }
        Ok(match last_refusal {
            Some((view, cause)) => TsOutcome::Refused { view, cause },
            None => TsOutcome::TimedOut,
        })
    }

    fn one_attempt(
        &mut self,
        request_id: u64,
        attempt: usize,
        target: SocketAddr,
    ) -> io::Result<Attempt> {
        let msg = ClusterFrame::TsRequest {
            request_id,
            attempt: attempt.min(u8::MAX as usize) as u8,
        };
        self.socket.send_to(&encode_cluster(&msg), target)?;
        let deadline = Instant::now() + self.timeout;
        let mut buf = [0u8; 512];
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Ok(Attempt::Silence);
            }
            self.socket.set_read_timeout(Some(deadline - now))?;
            let (len, _) = match self.socket.recv_from(&mut buf) {
                Ok(hit) => hit,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(Attempt::Silence);
                }
                Err(e) => return Err(e),
            };
            let Ok(frame) = decode_cluster(&buf[..len]) else {
                continue;
            };
            match frame {
                ClusterFrame::TsReply {
                    request_id: id,
                    view,
                    timestamp,
                } if id == request_id => {
                    self.believed_primary = (view as usize) % self.replicas.len();
                    return Ok(Attempt::Reply(TsOutcome::Issued { timestamp, view }));
                }
                ClusterFrame::TsRedirect {
                    request_id: id,
                    primary,
                    ..
                } if id == request_id => return Ok(Attempt::Redirect(primary)),
                ClusterFrame::TsRefused {
                    request_id: id,
                    view,
                    cause,
                } if id == request_id => return Ok(Attempt::Refusal(view, cause)),
                // Stale replies to earlier requests, base-protocol
                // traffic, anything else: ignore and keep waiting.
                _ => {}
            }
        }
    }

    /// The replica this client currently believes is primary.
    #[must_use]
    pub fn believed_primary(&self) -> usize {
        self.believed_primary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_core::Timestamp;

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
                let mut buf = [0u8; 512];
                let (len, from) = socket.recv_from(&mut buf).unwrap();
                let Ok(ClusterFrame::TsRequest { request_id, .. }) = decode_cluster(&buf[..len])
                else {
                    panic!("expected a timestamp request");
                };
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
