//! The multi-threaded serving front: the fast half of the
//! sync-core / serving-front split.
//!
//! The paper's read operation is a pure function of the last published
//! `(r, ε)` pair, so it does not need the sync actor at all —
//! [`ServeFront`] spawns N threads that share a dedicated UDP socket
//! (each thread owns a `try_clone`d handle), answer `TimeRequest`s
//! straight from the actor's seqlock-published
//! [`tempo_core::ClockSnapshot`], and never touch the protocol event
//! loop. The sync runtime keeps its own socket: serving threads can
//! never steal a peer's protocol datagram.
//!
//! Each thread drains the socket: one `recvmmsg` waits for a datagram
//! and takes up to 16 already queued, and one `sendmmsg` sends every
//! reply back to the address the kernel reported for its request (one
//! datagram per call off Linux). The drain shares one reading: one
//! clock reading, and one snapshot read at its first request that
//! needs an answer, which answers every request of the drain (rule
//! MM-1's `⟨C, E⟩` is a pure function of the two). Every datagram is
//! still admitted, decoded and counted on its own.
//!
//! Clients may send single request frames (answered with single reply
//! frames) or batch frames of up to 255 requests (answered with one
//! batch frame of replies — see `tempo_service::wire`'s batch layout).
//! A datagram longer than the largest request batch is malformed.
//! Requests are decoded into, and replies encoded into, reusable
//! per-thread buffers, so the steady-state path allocates nothing.
//!
//! An optional admission tier — [`tempo_service::AdmissionControl`],
//! one token bucket per thread with a `1/N` share of the global rate —
//! shaves overload *before* any decode work happens, keeping the tier
//! itself off the shared path.

use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tempo_core::{SnapshotReader, TimeEstimate, Timestamp};
use tempo_service::wire::{
    decode, decode_batch_into, encode_batch_into, encode_into, is_batch_frame, MAX_BATCH,
};
use tempo_service::{AdmissionControl, Message};

use crate::mmsg::Drain;

/// How the serving front is shaped.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Reader threads sharing the serve socket.
    pub threads: usize,
    /// Optional admission tier: global `(rate, burst)` in requests/s
    /// and requests, split evenly across the threads.
    pub admission: Option<(f64, f64)>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            threads: 1,
            admission: None,
        }
    }
}

/// Shared live counters, aggregated across the reader threads.
#[derive(Debug, Default)]
struct Counters {
    served: AtomicU64,
    refused: AtomicU64,
    rejected: AtomicU64,
    malformed: AtomicU64,
    batches: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ServeStats {
        ServeStats {
            served: self.served.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time view of the front's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered with a `TimeReply`.
    pub served: u64,
    /// Requests answered with `Uninitialized` (publisher not serving).
    pub refused: u64,
    /// Requests dropped by the admission tier.
    pub rejected: u64,
    /// Datagrams that failed the wire codec.
    pub malformed: u64,
    /// Batch frames processed.
    pub batches: u64,
}

/// Handle to a running serving front; dropping it without
/// [`ServeFront::stop`] detaches the threads (they stop at the next
/// timeout tick once the handle's stop flag drops to them — `stop` is
/// the orderly way out).
#[derive(Debug)]
pub struct ServeFront {
    threads: Vec<std::thread::JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    local_addr: std::net::SocketAddr,
}

impl ServeFront {
    /// Spawns the reader threads on `socket`.
    ///
    /// * `reader` — the sync core's published snapshot (see
    ///   `TimeServer::snapshot_reader`).
    /// * `epoch` — the instant the *publisher's* real-time axis calls
    ///   zero (the runtime's construction instant, see
    ///   `UdpRuntime::clock_epoch`): serving threads measure "now" on
    ///   the same axis the snapshot's affine base was published on.
    ///
    /// # Errors
    ///
    /// Returns the socket error if cloning or configuring the shared
    /// socket fails.
    ///
    /// # Panics
    ///
    /// Panics when `options.threads` is zero.
    pub fn spawn(
        socket: UdpSocket,
        reader: SnapshotReader,
        epoch: Instant,
        options: &ServeOptions,
    ) -> std::io::Result<ServeFront> {
        assert!(options.threads > 0, "a serving front needs a thread");
        let local_addr = socket.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let mut threads = Vec::with_capacity(options.threads);
        for i in 0..options.threads {
            // Each thread owns a cloned handle onto the same bound
            // socket; concurrent drains race for datagrams, which is
            // exactly the fan-out we want.
            let socket = socket.try_clone()?;
            socket.set_read_timeout(Some(std::time::Duration::from_millis(5)))?;
            let reader = reader.clone();
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            let admission = options.admission.map(|(rate, burst)| {
                let share = options.threads as f64;
                AdmissionControl::new(rate / share, (burst / share).max(1.0))
            });
            threads.push(
                std::thread::Builder::new()
                    .name(format!("tempo-serve-{i}"))
                    .spawn(move || serve_loop(&socket, &reader, epoch, &stop, &counters, admission))
                    .expect("spawn serving thread"),
            );
        }
        Ok(ServeFront {
            threads,
            stop,
            counters,
            local_addr,
        })
    }

    /// The serve socket's bound address (clients dial this, not the
    /// sync runtime's protocol port).
    #[must_use]
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Live counters (monotone; callable while the front runs).
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        self.counters.snapshot()
    }

    /// Stops the reader threads and returns the final counters.
    pub fn stop(self) -> ServeStats {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads {
            let _ = t.join();
        }
        self.counters.snapshot()
    }
}

/// One request answered from the drain's snapshot read: a `TimeReply`
/// when the publisher serves, an `Uninitialized` refusal otherwise —
/// mirroring the actor's own behaviour in those lifecycle states.
fn respond(estimate: Option<TimeEstimate>, request_id: u64) -> Message {
    match estimate {
        Some(estimate) => Message::TimeReply {
            request_id,
            // The actor replies with its reading at receipt; the
            // snapshot's estimate time *is* that reading.
            received_at: estimate.time(),
            estimate,
        },
        None => Message::Uninitialized { request_id },
    }
}

/// The per-thread receive/answer loop.
fn serve_loop(
    socket: &UdpSocket,
    reader: &SnapshotReader,
    epoch: Instant,
    stop: &AtomicBool,
    counters: &Counters,
    mut admission: Option<AdmissionControl>,
) {
    let mut drain = Drain::new();
    let mut requests: Vec<Message> = Vec::with_capacity(MAX_BATCH);
    let mut replies: Vec<Message> = Vec::with_capacity(MAX_BATCH);
    while !stop.load(Ordering::Relaxed) {
        // A quiet socket times out after 5 ms; any receive error just
        // sends the thread back to check its stop flag.
        let Ok(datagrams) = drain.recv(socket) else {
            continue;
        };
        // One reading for the whole drain, clock and snapshot. Every
        // datagram in it was received before this instant, so each still
        // gets a reading taken after it arrived, as a reading per
        // datagram would. The snapshot is read at the first request that
        // needs an answer, so a drain shed or malformed whole reads none.
        let now = Timestamp::from_secs(epoch.elapsed().as_secs_f64());
        let mut snapshot: Option<Option<TimeEstimate>> = None;
        for (datagram, out) in datagrams {
            if let Some(a) = admission.as_mut() {
                if !a.admit(now) {
                    counters.rejected.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            }
            let batch = is_batch_frame(datagram);
            requests.clear();
            let decoded = if batch {
                decode_batch_into(datagram, &mut requests)
            } else {
                decode(datagram).map(|msg| requests.push(msg))
            };
            if decoded.is_err() {
                counters.malformed.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            replies.clear();
            for msg in &requests {
                // Replies/refusals aimed at a serve port are nonsense;
                // drop them silently like any UDP service would.
                if let Message::TimeRequest { request_id, .. } = *msg {
                    let estimate = *snapshot.get_or_insert_with(|| reader.serve(now));
                    replies.push(respond(estimate, request_id));
                }
            }
            if replies.is_empty() {
                continue;
            }
            // One read answers them all: every one a reply, or a refusal.
            let answered = match snapshot {
                Some(Some(_)) => &counters.served,
                _ => &counters.refused,
            };
            answered.fetch_add(replies.len() as u64, Ordering::Relaxed);
            if batch {
                counters.batches.fetch_add(1, Ordering::Relaxed);
                encode_batch_into(&replies, out);
            } else {
                encode_into(&replies[0], out);
            }
        }
        drain.send(socket);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_service::wire::decode_batch;

    use tempo_core::{ClockSnapshot, DriftRate, Duration, SnapshotCell};

    fn published_reader(serving: bool) -> SnapshotReader {
        let cell = SnapshotCell::new();
        cell.publish(&ClockSnapshot {
            reset_clock: Timestamp::from_secs(100.0),
            inherited_error: Duration::from_secs(0.01),
            drift_bound: DriftRate::new(1e-4),
            base_clock: Timestamp::from_secs(100.0),
            base_real: Timestamp::from_secs(0.0),
            epoch: 0,
            serving,
        });
        SnapshotReader::new(Arc::new(cell))
    }

    fn front(serving: bool, options: &ServeOptions) -> (ServeFront, UdpSocket) {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let front =
            ServeFront::spawn(socket, published_reader(serving), Instant::now(), options).unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client
            .set_read_timeout(Some(std::time::Duration::from_millis(100)))
            .unwrap();
        (front, client)
    }

    fn request(id: u64) -> Message {
        Message::TimeRequest {
            request_id: id,
            attempt: 0,
        }
    }

    #[test]
    fn single_request_gets_a_snapshot_reply() {
        let (front, client) = front(true, &ServeOptions::default());
        let addr = front.local_addr();
        let mut buf = [0u8; 512];
        client
            .send_to(&tempo_service::wire::encode(&request(7)), addr)
            .unwrap();
        let (len, _) = client.recv_from(&mut buf).expect("reply");
        match decode(&buf[..len]).unwrap() {
            Message::TimeReply {
                request_id,
                received_at,
                estimate,
            } => {
                assert_eq!(request_id, 7);
                assert_eq!(received_at, estimate.time());
                // The published base is C=100 at real 0; the reply is
                // moments later.
                assert!(estimate.time() >= Timestamp::from_secs(100.0));
                assert!(estimate.time() < Timestamp::from_secs(101.0));
            }
            other => panic!("unexpected reply {other:?}"),
        }
        let stats = front.stop();
        assert_eq!(stats.served, 1);
        assert_eq!(stats.malformed, 0);
    }

    #[test]
    fn not_serving_publisher_refuses() {
        let (front, client) = front(false, &ServeOptions::default());
        let addr = front.local_addr();
        let mut buf = [0u8; 512];
        client
            .send_to(&tempo_service::wire::encode(&request(9)), addr)
            .unwrap();
        let (len, _) = client.recv_from(&mut buf).expect("refusal");
        assert_eq!(
            decode(&buf[..len]).unwrap(),
            Message::Uninitialized { request_id: 9 }
        );
        let stats = front.stop();
        assert_eq!(stats.refused, 1);
        assert_eq!(stats.served, 0);
    }

    #[test]
    fn batch_of_requests_gets_one_batch_of_replies() {
        let (front, client) = front(true, &ServeOptions::default());
        let addr = front.local_addr();
        let requests: Vec<Message> = (0..5).map(request).collect();
        client
            .send_to(&tempo_service::wire::encode_batch(&requests), addr)
            .unwrap();
        let mut buf = [0u8; 4096];
        let (len, _) = client.recv_from(&mut buf).expect("batch reply");
        let replies = decode_batch(&buf[..len]).expect("well-formed batch");
        assert_eq!(replies.len(), 5);
        for (i, r) in replies.iter().enumerate() {
            match r {
                Message::TimeReply { request_id, .. } => assert_eq!(*request_id, i as u64),
                other => panic!("unexpected {other:?}"),
            }
        }
        let stats = front.stop();
        assert_eq!(stats.served, 5);
        assert_eq!(stats.batches, 1);
    }

    #[test]
    fn garbage_is_counted_and_dropped() {
        let (front, client) = front(true, &ServeOptions::default());
        let addr = front.local_addr();
        client.send_to(&[0xFF; 32], addr).unwrap();
        client.send_to(&[0x7E, 0x30, 4, 1, 0], addr).unwrap(); // truncated batch
        client
            .send_to(&tempo_service::wire::encode(&request(1)), addr)
            .unwrap();
        let mut buf = [0u8; 512];
        let _ = client
            .recv_from(&mut buf)
            .expect("the valid request still served");
        let stats = front.stop();
        assert_eq!(stats.malformed, 2);
        assert_eq!(stats.served, 1);
    }

    fn full_batch(first_id: u64) -> Vec<u8> {
        let requests: Vec<Message> = (first_id..)
            .take(tempo_service::wire::MAX_BATCH)
            .map(request)
            .collect();
        tempo_service::wire::encode_batch(&requests)
    }

    #[test]
    fn a_full_request_batch_gets_a_full_batch_of_replies() {
        let (front, client) = front(true, &ServeOptions::default());
        client.send_to(&full_batch(0), front.local_addr()).unwrap();
        let mut buf = [0u8; 16 * 1024];
        let (len, _) = client.recv_from(&mut buf).expect("batch reply");
        let replies = decode_batch(&buf[..len]).expect("well-formed batch");
        assert_eq!(replies.len(), 255);
        let stats = front.stop();
        assert_eq!((stats.served, stats.batches, stats.malformed), (255, 1, 0));
    }

    #[test]
    fn a_datagram_one_byte_over_the_slot_is_malformed_and_unanswered() {
        let (front, client) = front(true, &ServeOptions::default());
        let addr = front.local_addr();
        // Cut to the slot, this would be a valid full batch.
        let mut over = full_batch(0);
        over.push(0);
        assert_eq!(over.len(), tempo_service::wire::MAX_REQUEST_BATCH_LEN + 1);
        client.send_to(&over, addr).unwrap();
        client
            .send_to(&tempo_service::wire::encode(&request(900)), addr)
            .unwrap();
        let mut buf = [0u8; 16 * 1024];
        let (len, _) = client.recv_from(&mut buf).expect("the single reply");
        assert!(matches!(
            decode(&buf[..len]),
            Ok(Message::TimeReply {
                request_id: 900,
                ..
            })
        ));
        assert!(client.recv_from(&mut buf).is_err(), "nothing else answered");
        let stats = front.stop();
        assert_eq!((stats.served, stats.batches, stats.malformed), (1, 0, 1));
    }

    /// Three clients queue singles, batches and garbage (21 datagrams,
    /// more than one drain takes) before the front's thread starts; each
    /// gets exactly its own replies, and the counters are the sums of
    /// what each datagram alone would count.
    fn drains_keep_per_datagram_semantics(host: &str) {
        let Ok(socket) = UdpSocket::bind((host, 0)) else {
            println!("skipped: cannot bind {host}");
            return;
        };
        let addr = socket.local_addr().unwrap();
        let clients: Vec<UdpSocket> = (0..3)
            .map(|_| {
                let client = UdpSocket::bind((host, 0)).unwrap();
                client
                    .set_read_timeout(Some(std::time::Duration::from_millis(200)))
                    .unwrap();
                client
            })
            .collect();
        for (c, client) in clients.iter().enumerate() {
            let id = |k: u64| 1000 * c as u64 + k;
            for k in 0..3 {
                client
                    .send_to(&tempo_service::wire::encode(&request(id(k))), addr)
                    .unwrap();
                let batch: Vec<Message> =
                    (10 * k + 10..10 * k + 13).map(|k| request(id(k))).collect();
                client
                    .send_to(&tempo_service::wire::encode_batch(&batch), addr)
                    .unwrap();
            }
            client.send_to(&[0xFF; 20], addr).unwrap();
        }
        let front = ServeFront::spawn(
            socket,
            published_reader(true),
            Instant::now(),
            &ServeOptions::default(),
        )
        .unwrap();
        let mut buf = [0u8; 4096];
        for (c, client) in clients.iter().enumerate() {
            let mut ids = Vec::new();
            while let Ok((len, _)) = client.recv_from(&mut buf) {
                let replies = if is_batch_frame(&buf[..len]) {
                    decode_batch(&buf[..len]).unwrap()
                } else {
                    vec![decode(&buf[..len]).unwrap()]
                };
                for reply in replies {
                    let Message::TimeReply { request_id, .. } = reply else {
                        panic!("unexpected {reply:?}");
                    };
                    ids.push(request_id);
                }
            }
            ids.sort_unstable();
            let base = 1000 * c as u64;
            let want: Vec<u64> = [0, 1, 2, 10, 11, 12, 20, 21, 22, 30, 31, 32]
                .iter()
                .map(|k| base + k)
                .collect();
            assert_eq!(ids, want, "client {c} gets exactly its own replies");
        }
        let stats = front.stop();
        assert_eq!(
            (stats.served, stats.batches, stats.malformed),
            (3 * 12, 3 * 3, 3)
        );
    }

    #[test]
    fn drains_keep_per_datagram_semantics_v4() {
        drains_keep_per_datagram_semantics("127.0.0.1");
    }

    #[test]
    fn drains_keep_per_datagram_semantics_v6() {
        drains_keep_per_datagram_semantics("::1");
    }

    /// Binds a front-to-be and `n` clients without starting the front,
    /// so that datagrams the clients send queue for its first drain.
    fn queued(n: usize) -> (UdpSocket, std::net::SocketAddr, Vec<UdpSocket>) {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr = socket.local_addr().unwrap();
        let clients = (0..n)
            .map(|_| {
                let client = UdpSocket::bind("127.0.0.1:0").unwrap();
                client
                    .set_read_timeout(Some(std::time::Duration::from_millis(200)))
                    .unwrap();
                client
            })
            .collect();
        (socket, addr, clients)
    }

    fn batch_of(ids: std::ops::Range<u64>) -> Vec<u8> {
        tempo_service::wire::encode_batch(&ids.map(request).collect::<Vec<_>>())
    }

    /// Three clients' batch frames and one garbage datagram, queued
    /// before the front's thread starts: every reply carries the one
    /// `(received_at, C, E)` that one `SnapshotReader::serve` gives at
    /// one reading, or every request is refused; each client gets
    /// exactly its own ids; the counters are the per-datagram sums.
    fn a_drain_answers_from_one_read(serving: bool) {
        let (socket, addr, clients) = queued(3);
        for (c, client) in clients.iter().enumerate() {
            let first = 100 * c as u64;
            client.send_to(&batch_of(first..first + 4), addr).unwrap();
        }
        clients[1].send_to(&[0xFF; 20], addr).unwrap();
        let reader = published_reader(serving);
        let epoch = Instant::now();
        let options = ServeOptions::default();
        let front = ServeFront::spawn(socket, reader.clone(), epoch, &options).unwrap();
        let mut buf = [0u8; 4096];
        let mut readings = Vec::new();
        for (c, client) in clients.iter().enumerate() {
            let (len, _) = client.recv_from(&mut buf).expect("a batch reply");
            let mut ids = Vec::new();
            for reply in decode_batch(&buf[..len]).unwrap() {
                match reply {
                    Message::TimeReply {
                        request_id,
                        received_at,
                        estimate,
                    } if serving => {
                        ids.push(request_id);
                        readings.push((received_at, estimate));
                    }
                    Message::Uninitialized { request_id } if !serving => ids.push(request_id),
                    other => panic!("unexpected {other:?}"),
                }
            }
            let first = 100 * c as u64;
            assert_eq!(ids, (first..first + 4).collect::<Vec<_>>(), "client {c}");
            assert!(client.recv_from(&mut buf).is_err(), "one reply per batch");
        }
        let read_by = epoch.elapsed().as_secs_f64();
        let stats = front.stop();
        let (served, refused) = if serving { (12, 0) } else { (0, 12) };
        let want = ServeStats {
            served,
            refused,
            rejected: 0,
            malformed: 1,
            batches: 3,
        };
        assert_eq!(stats, want);
        if !serving {
            return;
        }
        // Every datagram of a drain shares its read; off the `recvmmsg`
        // arm a drain is one datagram, so only a batch's replies do.
        let one_drain = cfg!(all(
            target_os = "linux",
            target_env = "gnu",
            target_pointer_width = "64"
        ));
        let shared = if one_drain {
            &readings[..]
        } else {
            &readings[..4]
        };
        assert!(shared.iter().all(|r| *r == readings[0]), "{readings:?}");
        // The published clock is `100 + real`, so `C − 100` is the real
        // reading (exact: the two are within a factor of two).
        let (received_at, estimate) = readings[0];
        let real = estimate.time().as_secs() - 100.0;
        assert!(
            (0.0..=read_by).contains(&real),
            "{real} s after {read_by} s"
        );
        assert_eq!(received_at, estimate.time());
        assert_eq!(reader.serve(Timestamp::from_secs(real)), Some(estimate));
    }

    #[test]
    fn a_drain_answers_every_request_from_one_read() {
        a_drain_answers_from_one_read(true);
    }

    #[test]
    fn a_drain_of_a_publisher_not_serving_refuses_every_request() {
        a_drain_answers_from_one_read(false);
    }

    /// A batch whose last inner frame is corrupt, between two good ones:
    /// the frames decoded before the defect leak into no reply.
    #[test]
    fn a_malformed_batch_leaks_no_request_id() {
        let (socket, addr, clients) = queued(1);
        let mut bad = batch_of(50..56);
        let last = bad.len() - 3;
        bad[last] ^= 0x5A;
        for datagram in [batch_of(1..5), bad, batch_of(7..10)] {
            clients[0].send_to(&datagram, addr).unwrap();
        }
        let options = ServeOptions::default();
        let front =
            ServeFront::spawn(socket, published_reader(true), Instant::now(), &options).unwrap();
        let mut buf = [0u8; 4096];
        for want in [1..5, 7..10] {
            let (len, _) = clients[0].recv_from(&mut buf).expect("a batch reply");
            let ids: Vec<u64> = decode_batch(&buf[..len])
                .unwrap()
                .iter()
                .map(|reply| match *reply {
                    Message::TimeReply { request_id, .. } => request_id,
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
            assert_eq!(ids, want.collect::<Vec<_>>());
        }
        assert!(
            clients[0].recv_from(&mut buf).is_err(),
            "nothing else answered"
        );
        let stats = front.stop();
        assert_eq!((stats.served, stats.batches, stats.malformed), (7, 2, 1));
    }

    #[test]
    fn admission_tier_shaves_a_burst() {
        let options = ServeOptions {
            threads: 1,
            admission: Some((50.0, 5.0)),
        };
        let (front, client) = front(true, &options);
        let addr = front.local_addr();
        let frame = tempo_service::wire::encode(&request(1));
        for _ in 0..60 {
            client.send_to(&frame, addr).unwrap();
        }
        // Collect replies until the socket drains.
        let mut buf = [0u8; 512];
        let mut answered = 0u64;
        while client.recv_from(&mut buf).is_ok() {
            answered += 1;
        }
        let stats = front.stop();
        assert_eq!(stats.served, answered);
        assert!(stats.rejected > 0, "the burst must overflow the bucket");
        assert_eq!(stats.served + stats.rejected, 60);
        assert!(
            stats.served >= 5,
            "the burst allowance admits at least the bucket"
        );
    }

    #[test]
    fn four_threads_share_one_socket() {
        let options = ServeOptions {
            threads: 4,
            admission: None,
        };
        let (front, client) = front(true, &options);
        let addr = front.local_addr();
        let frame = tempo_service::wire::encode(&request(3));
        let total = 200u64;
        let mut buf = [0u8; 512];
        let mut answered = 0u64;
        for _ in 0..total {
            client.send_to(&frame, addr).unwrap();
            if client.recv_from(&mut buf).is_ok() {
                answered += 1;
            }
        }
        let stats = front.stop();
        assert_eq!(stats.served, answered);
        // Closed loop: every request is answered (UDP on loopback with
        // one frame in flight does not drop).
        assert_eq!(answered, total);
    }
}
