//! An in-process mirror of the daemon's request paths, built from the
//! same public functions and fed the same generated datagrams, so the
//! traced run can time each step from the outside:
//!
//! * the serving front (`tempo_transport::serve`): recv → `decode` or
//!   `decode_batch` → `SnapshotReader::serve` → `encode_into` or
//!   `encode_batch_into` → send;
//! * the sync actor's request path (`tempo_transport::runtime`): recv →
//!   `decode` → `TimeServer::on_message` through `Context::external` →
//!   `encode` → send.
//!
//! It mirrors the pipeline, not the process: nothing republishes the
//! snapshot under the reader and no sync round runs beside it. What
//! that leaves out shows in `bench.attribution.unexplained_share`.

use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use tempo_core::{SnapshotReader, Timestamp};
use tempo_service::wire::{
    decode, decode_batch, encode, encode_batch_into, encode_into, is_batch_frame,
};
use tempo_service::Message;

use crate::loadgen::Truth;
use crate::seams::{actor_reply, daemon_rng, daemon_server};
use crate::trace::Tracer;

/// One datagram in this many is traced: enough spans for steady means,
/// few enough to keep in memory and write out.
const TRACE_ONE_IN: u64 = 16;

/// What a stopped mirror hands back.
pub struct MirrorReport {
    /// Spans of the sampled datagrams (empty for an untraced mirror).
    pub tracer: Tracer,
    /// Datagrams answered and the time from each one's receipt to the
    /// end of its send, summed.
    pub datagrams: u64,
    pub busy_ns: u64,
}

/// A running mirror thread.
pub struct Mirror {
    pub serve: SocketAddr,
    pub actor: SocketAddr,
    pub truth: Truth,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Result<MirrorReport, String>>,
}

fn respond(reader: &SnapshotReader, request_id: u64, now: Timestamp) -> Message {
    match reader.serve(now) {
        Some(estimate) => Message::TimeReply {
            request_id,
            received_at: estimate.time(),
            estimate,
        },
        None => Message::Uninitialized { request_id },
    }
}

/// Brackets `body` in a span when `parent` names a traced datagram.
fn step<R>(
    tracer: &mut Tracer,
    parent: Option<(u64, u64)>,
    name: &'static str,
    body: impl FnOnce() -> R,
) -> R {
    match parent {
        None => body(),
        Some((parent, request)) => {
            let start = tracer.now();
            let result = body();
            let end = tracer.now();
            tracer.record(name, parent, request, start, end);
            result
        }
    }
}

impl Mirror {
    /// Starts the mirror on two fresh loopback sockets. The thread
    /// inherits the caller's core; like the generator it never sleeps,
    /// it yields.
    pub fn start(traced: bool) -> Result<Mirror, String> {
        let bind = || -> Result<UdpSocket, String> {
            let socket = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
            socket
                .set_nonblocking(true)
                .map_err(|e| format!("set_nonblocking: {e}"))?;
            Ok(socket)
        };
        let (serve_socket, actor_socket) = (bind()?, bind()?);
        let serve = serve_socket.local_addr().map_err(|e| e.to_string())?;
        let actor = actor_socket.local_addr().map_err(|e| e.to_string())?;
        let epoch = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let stopping = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("tempo-mirror".into())
            .spawn(move || run(&serve_socket, &actor_socket, epoch, traced, &stopping))
            .map_err(|e| format!("spawn: {e}"))?;
        Ok(Mirror {
            serve,
            actor,
            truth: Truth {
                clock_at_t0: 0.0,
                t0: epoch,
            },
            stop,
            thread,
        })
    }

    pub fn stop(self) -> Result<MirrorReport, String> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread
            .join()
            .map_err(|_| "the mirror thread panicked".to_string())?
    }
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

fn run(
    serve_socket: &UdpSocket,
    actor_socket: &UdpSocket,
    epoch: Instant,
    traced: bool,
    stop: &AtomicBool,
) -> Result<MirrorReport, String> {
    // The server is built on this thread (it is not `Send`) and, as in
    // the daemon, its clock reads zero at the runtime's epoch.
    let mut rng = daemon_rng();
    let mut server = daemon_server(0.0, &mut rng);
    let reader = server.snapshot_reader();
    let mut tracer = Tracer::new();
    let mut buf = [0u8; 16 * 1024];
    let mut out: Vec<u8> = Vec::with_capacity(4 + 255 * 38 + 2);
    let mut replies: Vec<Message> = Vec::with_capacity(64);
    let mut datagrams = 0u64;
    let mut busy_ns = 0u64;
    let now = |epoch: Instant| Timestamp::from_secs(epoch.elapsed().as_secs_f64());

    while !stop.load(Ordering::Relaxed) {
        let mut idle = true;

        // The serving front's loop body.
        let recv_start = if traced { tracer.now() } else { 0 };
        match serve_socket.recv_from(&mut buf) {
            Ok((len, from)) => {
                let received = Instant::now();
                idle = false;
                datagrams += 1;
                let request = datagrams;
                let span = (traced && request.is_multiple_of(TRACE_ONE_IN)).then(|| {
                    let root = tracer.open("transport.serve.datagram", 0, request);
                    // The successful receive began before the span could.
                    let end = tracer.now();
                    tracer.record("transport.serve.recv", root, request, recv_start, end);
                    (root, request)
                });
                let at = now(epoch);
                out.clear();
                if is_batch_frame(&buf[..len]) {
                    let msgs = step(&mut tracer, span, "service.wire.decode_batch", || {
                        decode_batch(&buf[..len])
                    })
                    .map_err(|e| format!("mirror: request frame does not decode: {e}"))?;
                    step(&mut tracer, span, "core.snapshot.serve", || {
                        replies.clear();
                        for msg in msgs {
                            if let Message::TimeRequest { request_id, .. } = msg {
                                replies.push(respond(&reader, request_id, at));
                            }
                        }
                    });
                    step(&mut tracer, span, "service.wire.encode_batch", || {
                        encode_batch_into(&replies, &mut out);
                    });
                } else {
                    let msg = step(&mut tracer, span, "service.wire.decode", || {
                        decode(&buf[..len])
                    })
                    .map_err(|e| format!("mirror: request does not decode: {e}"))?;
                    let Message::TimeRequest { request_id, .. } = msg else {
                        return Err(
                            "mirror: the serve port got something other than a request".into()
                        );
                    };
                    let reply = step(&mut tracer, span, "core.snapshot.serve", || {
                        respond(&reader, request_id, at)
                    });
                    step(&mut tracer, span, "service.wire.encode", || {
                        encode_into(&reply, &mut out)
                    });
                }
                step(&mut tracer, span, "transport.serve.send", || {
                    serve_socket.send_to(&out, from)
                })
                .map_err(|e| format!("mirror: send: {e}"))?;
                if let Some((root, _)) = span {
                    tracer.close(root);
                }
                busy_ns += received.elapsed().as_nanos() as u64;
            }
            Err(e) if would_block(&e) => {}
            Err(e) => return Err(format!("mirror: recv: {e}")),
        }

        // The sync actor's request path.
        let recv_start = if traced { tracer.now() } else { 0 };
        match actor_socket.recv_from(&mut buf) {
            Ok((len, from)) => {
                let received = Instant::now();
                idle = false;
                datagrams += 1;
                let request = datagrams;
                let span = (traced && request.is_multiple_of(TRACE_ONE_IN)).then(|| {
                    let root = tracer.open("transport.runtime.datagram", 0, request);
                    let end = tracer.now();
                    tracer.record("transport.runtime.recv", root, request, recv_start, end);
                    (root, request)
                });
                let at = now(epoch);
                let msg = step(&mut tracer, span, "service.wire.decode", || {
                    decode(&buf[..len])
                })
                .map_err(|e| format!("mirror: request does not decode: {e}"))?;
                let reply = step(&mut tracer, span, "service.server.on_request", || {
                    actor_reply(&mut server, &mut rng, at, msg)
                })
                .ok_or("mirror: the actor queued no reply")?;
                let frame = step(&mut tracer, span, "service.wire.encode", || encode(&reply));
                step(&mut tracer, span, "transport.runtime.send", || {
                    actor_socket.send_to(&frame, from)
                })
                .map_err(|e| format!("mirror: send: {e}"))?;
                if let Some((root, _)) = span {
                    tracer.close(root);
                }
                busy_ns += received.elapsed().as_nanos() as u64;
            }
            Err(e) if would_block(&e) => {}
            Err(e) => return Err(format!("mirror: recv: {e}")),
        }

        if idle {
            std::thread::yield_now();
        }
    }
    Ok(MirrorReport {
        tracer,
        datagrams,
        busy_ns,
    })
}
