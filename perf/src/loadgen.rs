//! The load generators: one thread, one socket, every reply checked.
//!
//! [`closed_loop`] keeps a fixed number of batch frames in flight (a
//! slow server receives less load); [`open_loop`] sends single requests
//! on a precomputed schedule whatever the server does, and times each
//! from the instant it was *due*. Both can be pointed at a `tempod`
//! child or at the in-process mirror the traced run uses, and both
//! share a core with what they load: they never sleep in a receive,
//! they poll and yield, so the server runs the moment it has work and
//! no wake-up of a halted core is ever on the measured path.

use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use tempo_core::TimeEstimate;
use tempo_service::wire::{decode, decode_batch, encode_batch_into, encode_into};
use tempo_service::Message;

use crate::schedule::Arrival;

/// Frames the closed loop keeps in flight.
pub const IN_FLIGHT: usize = 4;
/// Requests per batch frame.
pub const BATCH: usize = 8;
/// A request unanswered for this long has failed. Generous on purpose:
/// the calibration machine stalls a virtual CPU for 40–140 ms a few
/// times a minute, and a limit inside that range made `ok_share` a
/// coin-flip. A stall shows in the latency distribution instead.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(1);
/// Requests the open loop lets be outstanding at once. A daemon socket
/// holds about 270 small datagrams (`rmem_default` over the kernel's
/// per-datagram bookkeeping); past that loopback drops. Holding a due
/// request back while this many are unanswered keeps a stalled daemon
/// from turning into lost datagrams, and because a request's wait is
/// counted from its due time, the hold shows up as latency.
pub const MAX_OUTSTANDING: usize = 128;
/// Latency samples are filed in slices of the window this long, and a
/// latency metric is read from one of the best slices (see
/// `serve::best_quantile`). 50 ms hold 1,000 requests of the paced load,
/// 50 of them beyond its p95, and 6,000 frames of the closed loop, and
/// are short enough that some slices of a run escape the machine's slow
/// stretches: with whole seconds for slices the p95 spread over ten
/// runs was 0.10 to 0.14 (0.3 to 0.4 on the driver's machine), with a
/// quarter of a second 0.12, with these 0.02 to 0.07 (CALIBRATION.md).
/// Not shorter: for 10 to 20 ms at a time the closed loop falls into a
/// rhythm in which a frame waits 25 µs instead of 32, slices of 8 ms
/// caught it whole in two runs of 37, and the median then read a fifth
/// lower.
pub const SLICE: Duration = Duration::from_millis(50);
/// The caller samples the system under test this often.
pub const INTERVAL: Duration = Duration::from_millis(250);
/// Replies from the two ports of one node taken this close together
/// are checked for pairwise consistency.
const PAIR_WINDOW: Duration = Duration::from_millis(1);

/// The generator's own reading of the served clock: the value the
/// server's clock had at `t0`, advanced on the generator's monotonic
/// clock. With `tempod --epoch-unix E` that value is `wall(t0) − E`.
#[derive(Debug, Clone, Copy)]
pub struct Truth {
    pub clock_at_t0: f64,
    pub t0: Instant,
}

impl Truth {
    fn clock_at(&self, at: Instant) -> f64 {
        self.clock_at_t0 + at.duration_since(self.t0).as_secs_f64()
    }

    /// §2's client-side condition: the served interval, widened by the
    /// round trip, contains the generator's reading at receipt.
    fn check(
        &self,
        estimate: &TimeEstimate,
        received_at_field: f64,
        sent: Instant,
        recv: Instant,
    ) -> Result<(), String> {
        let time = estimate.time().as_secs();
        if received_at_field != time {
            return Err(format!(
                "reply has received_at {received_at_field} but estimate time {time}"
            ));
        }
        let slack = estimate.error().as_secs() + recv.duration_since(sent).as_secs_f64();
        let mine = self.clock_at(recv);
        if (time - mine).abs() > slack {
            return Err(format!(
                "served interval {time} ± {slack} (error + round trip) excludes the generator's reading {mine}"
            ));
        }
        Ok(())
    }
}

/// The instants the caller samples the system under test at: the
/// window's two ends and every [`INTERVAL`] in between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    WindowOpens,
    IntervalEnds,
    WindowCloses,
}

/// What one generator run measured inside its window.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Wall time from the window's opening to the last reply (or
    /// time-out) of a request sent in it.
    pub window: Duration,
    /// Requests sent in the window.
    pub attempted: u64,
    /// Of those, answered by a valid `TimeReply` within the time-out.
    pub ok: u64,
    /// The wait per frame (closed loop) or per request from its due
    /// time (open loop), nanoseconds, one list per [`SLICE`] of the
    /// window (by send time, closed loop; by due time, open loop).
    pub latency_ns: Vec<Vec<u32>>,
    /// When each `WindowOpens` and `IntervalEnds` mark was taken, and
    /// `ok` as it stood then: what the caller's readings at those marks
    /// are to be divided by. A mark is taken when the generator notices
    /// the interval has passed, which a stalled virtual CPU can make a
    /// tenth of a second late.
    pub marks: Vec<(Instant, u64)>,
    /// Send-to-receive time of serve-port requests, nanoseconds.
    pub serve_rtt_ns: Vec<u32>,
    /// Send-to-receive time of protocol-port requests, nanoseconds.
    pub actor_rtt_ns: Vec<u32>,
    /// How late after its due time each open-loop request left.
    pub late_ns: Vec<u32>,
    /// Serve-port/protocol-port reply pairs checked for consistency.
    pub pairs_checked: u64,
}

fn ns(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

fn bind_loopback() -> Result<UdpSocket, String> {
    UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

struct Frame {
    first_id: u64,
    sent: Instant,
    /// How far into the window it was sent, if it was sent in it.
    at: Option<Duration>,
}

impl LoadReport {
    /// Files one latency sample under the slice that lies `at` into the
    /// window.
    fn file(&mut self, at: Duration, latency: u32) {
        let slice = (at.as_nanos() / SLICE.as_nanos()) as usize;
        if self.latency_ns.len() <= slice {
            self.latency_ns.resize_with(slice + 1, Vec::new);
        }
        self.latency_ns[slice].push(latency);
    }

    /// Opens the window: calls `mark(WindowOpens)` and returns the
    /// instant after it.
    fn open(
        &mut self,
        mark: &mut dyn FnMut(Boundary) -> Result<(), String>,
    ) -> Result<Instant, String> {
        mark(Boundary::WindowOpens)?;
        let opened = Instant::now();
        self.marks.push((opened, self.ok));
        Ok(opened)
    }

    /// Calls `mark(IntervalEnds)` once for every [`INTERVAL`] of the
    /// window that has passed since the last call.
    fn mark_intervals(
        &mut self,
        opened_at: Option<Instant>,
        now: Instant,
        mark: &mut dyn FnMut(Boundary) -> Result<(), String>,
    ) -> Result<(), String> {
        if let Some(opened) = opened_at {
            // One mark is the opening's; the rest are intervals ended.
            while now.duration_since(opened) >= INTERVAL * self.marks.len() as u32 {
                mark(Boundary::IntervalEnds)?;
                self.marks.push((Instant::now(), self.ok));
            }
        }
        Ok(())
    }
}

/// Closed loop: [`IN_FLIGHT`] frames of [`BATCH`] requests in flight at
/// `target` through `warmup`, then through `window`; the in-flight
/// frames are drained before the window closes.
pub fn closed_loop(
    target: SocketAddr,
    truth: &Truth,
    warmup: Duration,
    window: Duration,
    mark: &mut dyn FnMut(Boundary) -> Result<(), String>,
) -> Result<LoadReport, String> {
    let socket = bind_loopback()?;
    socket
        .connect(target)
        .map_err(|e| format!("connect: {e}"))?;
    // Non-blocking: see the module docs.
    socket
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking: {e}"))?;

    let mut report = LoadReport::default();

    let mut next_id = 0u64;
    let mut requests = [Message::TimeRequest {
        request_id: 0,
        attempt: 0,
    }; BATCH];
    let mut out = Vec::with_capacity(256);
    let mut buf = [0u8; 2048];
    let mut in_flight: VecDeque<Frame> = VecDeque::with_capacity(IN_FLIGHT);

    let start = Instant::now();
    let opens_at = start + warmup;
    let closes_at = opens_at + window;
    let mut opened_at: Option<Instant> = None;
    let mut silent_rounds = 0;

    loop {
        let now = Instant::now();
        if opened_at.is_none() && now >= opens_at {
            opened_at = Some(report.open(mark)?);
        }
        report.mark_intervals(opened_at, now, mark)?;
        while in_flight.len() < IN_FLIGHT && Instant::now() < closes_at {
            for (k, slot) in requests.iter_mut().enumerate() {
                *slot = Message::TimeRequest {
                    request_id: next_id + k as u64,
                    attempt: 0,
                };
            }
            out.clear();
            encode_batch_into(&requests, &mut out);
            let sent = Instant::now();
            socket.send(&out).map_err(|e| format!("send: {e}"))?;
            let at = opened_at.map(|o| sent.duration_since(o));
            if at.is_some() {
                report.attempted += BATCH as u64;
            }
            in_flight.push_back(Frame {
                first_id: next_id,
                sent,
                at,
            });
            next_id += BATCH as u64;
        }
        if in_flight.is_empty() {
            break;
        }
        let len = match socket.recv(&mut buf) {
            Ok(len) => len,
            Err(e) if is_timeout(&e) => {
                std::thread::yield_now();
                // Nothing within the time-out: what is in flight has failed.
                if in_flight
                    .front()
                    .is_some_and(|f| f.sent.elapsed() > REPLY_TIMEOUT)
                {
                    in_flight.clear();
                    silent_rounds += 1;
                    if silent_rounds == 3 {
                        return Err(format!("{target} stopped answering"));
                    }
                }
                continue;
            }
            Err(e) => return Err(format!("recv: {e}")),
        };
        let recv = Instant::now();
        silent_rounds = 0;
        let replies =
            decode_batch(&buf[..len]).map_err(|e| format!("reply does not decode: {e}"))?;
        let first_id = match replies.first() {
            Some(Message::TimeReply { request_id, .. } | Message::Uninitialized { request_id }) => {
                *request_id
            }
            other => return Err(format!("unexpected first reply {other:?}")),
        };
        let Some(pos) = in_flight.iter().position(|f| f.first_id == first_id) else {
            return Err(format!(
                "reply for frame {first_id}, which is not in flight"
            ));
        };
        let frame = in_flight.remove(pos).expect("position is in range");
        if replies.len() != BATCH {
            return Err(format!("{} replies to a frame of {BATCH}", replies.len()));
        }
        let mut served = 0u64;
        for (k, reply) in replies.iter().enumerate() {
            let want = frame.first_id + k as u64;
            match reply {
                Message::TimeReply {
                    request_id,
                    received_at,
                    estimate,
                } if *request_id == want => {
                    truth.check(estimate, received_at.as_secs(), frame.sent, recv)?;
                    served += 1;
                }
                Message::Uninitialized { request_id } if *request_id == want => {}
                other => return Err(format!("reply {k} of frame {first_id} is {other:?}")),
            }
        }
        if let Some(at) = frame.at {
            report.ok += served;
            let rtt = ns(recv.duration_since(frame.sent));
            report.file(at, rtt);
            report.serve_rtt_ns.push(rtt);
        }
    }
    let closed_at = Instant::now();
    mark(Boundary::WindowCloses)?;
    let opened_at = opened_at.ok_or("the window never opened")?;
    report.window = closed_at.duration_since(opened_at);
    Ok(report)
}

/// The latest reply seen from one port, for the pairwise check.
#[derive(Clone, Copy)]
struct Seen {
    recv: Instant,
    rtt: Duration,
    estimate: TimeEstimate,
}

/// Two replies from one node's two ports, taken `apart` from each
/// other: their intervals must overlap once widened by the time that
/// passed between the two readings.
fn check_pair(a: &Seen, b: &Seen) -> Result<(), String> {
    let apart = if a.recv > b.recv {
        a.recv.duration_since(b.recv)
    } else {
        b.recv.duration_since(a.recv)
    };
    let slack = a.estimate.error().as_secs()
        + b.estimate.error().as_secs()
        + (apart + a.rtt + b.rtt).as_secs_f64();
    let gap = (a.estimate.time().as_secs() - b.estimate.time().as_secs()).abs();
    if gap > slack {
        return Err(format!(
            "serve-port and protocol-port replies {apart:?} apart are inconsistent: {} vs {}",
            a.estimate, b.estimate
        ));
    }
    Ok(())
}

/// Open loop: request `i` leaves for the serve port (or the actor's
/// protocol port) when `arrivals[i]` falls due, whatever has or has not
/// come back. Arrivals due before `warmup` are sent and checked but not
/// measured; the window opens at `warmup` and closes when every request
/// due in it has been answered or has timed out.
pub fn open_loop(
    serve: SocketAddr,
    actor: SocketAddr,
    arrivals: &[Arrival],
    warmup: Duration,
    truth: &Truth,
    mark: &mut dyn FnMut(Boundary) -> Result<(), String>,
) -> Result<LoadReport, String> {
    let socket = bind_loopback()?;
    socket
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking: {e}"))?;

    let n = arrivals.len();
    let warmup_ns = warmup.as_nanos() as u64;
    let measured = arrivals.iter().filter(|a| a.due_ns >= warmup_ns).count();
    let mut report = LoadReport {
        attempted: measured as u64,
        ..LoadReport::default()
    };
    report.late_ns.reserve(measured);

    // Per request: when it actually left, and whether it is resolved.
    let mut sent_at: Vec<Option<Instant>> = vec![None; n];
    let mut done = vec![false; n];
    let mut resolved = 0usize;
    let mut next = 0usize;
    let mut out = Vec::with_capacity(32);
    let mut buf = [0u8; 512];
    let mut last_serve: Option<Seen> = None;
    let mut last_actor: Option<Seen> = None;
    // Oldest request not yet known resolved, for the time-out sweep.
    let mut oldest = 0usize;
    let mut timeouts_in_a_row = 0usize;

    let start = Instant::now();
    let opens_at = start + warmup;
    let mut opened_at: Option<Instant> = None;

    while resolved < n {
        let mut idle = true;
        let now = Instant::now();
        if opened_at.is_none() && now >= opens_at {
            opened_at = Some(report.open(mark)?);
        }
        report.mark_intervals(opened_at, now, mark)?;
        // One send per turn, so a burst cannot starve the receive side.
        if next < n && next - resolved < MAX_OUTSTANDING {
            let due = start + Duration::from_nanos(arrivals[next].due_ns);
            if now >= due {
                out.clear();
                encode_into(
                    &Message::TimeRequest {
                        request_id: next as u64,
                        attempt: 0,
                    },
                    &mut out,
                );
                let to = if arrivals[next].to_actor {
                    actor
                } else {
                    serve
                };
                // Stamped before the call: on a shared core the reply is
                // often queued by the time `send_to` returns.
                let sending = Instant::now();
                match socket.send_to(&out, to) {
                    Ok(_) => {
                        idle = false;
                        sent_at[next] = Some(sending);
                        if arrivals[next].due_ns >= warmup_ns {
                            report.late_ns.push(ns(now.duration_since(due)));
                        }
                        next += 1;
                    }
                    Err(e) if is_timeout(&e) => {}
                    Err(e) => return Err(format!("send: {e}")),
                }
            }
        }
        for _ in 0..8 {
            let (len, from) = match socket.recv_from(&mut buf) {
                Ok(hit) => hit,
                Err(e) if is_timeout(&e) => break,
                Err(e) => return Err(format!("recv: {e}")),
            };
            let recv = Instant::now();
            idle = false;
            timeouts_in_a_row = 0;
            let reply = decode(&buf[..len]).map_err(|e| format!("reply does not decode: {e}"))?;
            let (id, served) = match reply {
                Message::TimeReply {
                    request_id,
                    received_at,
                    estimate,
                } => (request_id, Some((received_at, estimate))),
                Message::Uninitialized { request_id } => (request_id, None),
                Message::TimeRequest { .. } => return Err("a request came back".into()),
            };
            let i = usize::try_from(id).ok().filter(|&i| i < next);
            let Some(i) = i else {
                return Err(format!("reply for request {id}, which was never sent"));
            };
            if done[i] {
                // Either a duplicate or a reply that outlived its
                // time-out; the request is already accounted for.
                if sent_at[i].is_some_and(|s| recv.duration_since(s) <= REPLY_TIMEOUT) {
                    return Err(format!("request {id} answered twice"));
                }
                continue;
            }
            let sent = sent_at[i].expect("replies only follow sends");
            if arrivals[i].to_actor != (from == actor) {
                return Err(format!("request {id} answered from the wrong port {from}"));
            }
            done[i] = true;
            resolved += 1;
            let rtt = recv.duration_since(sent);
            let in_window = arrivals[i].due_ns >= warmup_ns;
            if let Some((received_at, estimate)) = served {
                truth.check(&estimate, received_at.as_secs(), sent, recv)?;
                let seen = Seen {
                    recv,
                    rtt,
                    estimate,
                };
                let other = if arrivals[i].to_actor {
                    last_actor = Some(seen);
                    last_serve
                } else {
                    last_serve = Some(seen);
                    last_actor
                };
                if let Some(other) = other.filter(|o| recv.duration_since(o.recv) <= PAIR_WINDOW) {
                    check_pair(&seen, &other)?;
                    report.pairs_checked += 1;
                }
                let due = start + Duration::from_nanos(arrivals[i].due_ns);
                let waited = recv.duration_since(due);
                if in_window && waited <= REPLY_TIMEOUT {
                    report.ok += 1;
                    let at = Duration::from_nanos(arrivals[i].due_ns - warmup_ns);
                    report.file(at, ns(waited));
                    let rtts = if arrivals[i].to_actor {
                        &mut report.actor_rtt_ns
                    } else {
                        &mut report.serve_rtt_ns
                    };
                    rtts.push(ns(rtt));
                }
            }
        }
        if idle {
            std::thread::yield_now();
        }
        // Give up on requests whose time-out has passed.
        while oldest < next {
            if done[oldest] {
                oldest += 1;
            } else if sent_at[oldest].is_some_and(|s| now.duration_since(s) > REPLY_TIMEOUT) {
                done[oldest] = true;
                resolved += 1;
                oldest += 1;
                timeouts_in_a_row += 1;
                if timeouts_in_a_row == MAX_OUTSTANDING {
                    return Err("the server stopped answering".into());
                }
            } else {
                break;
            }
        }
    }
    let closed_at = Instant::now();

    mark(Boundary::WindowCloses)?;
    let opened_at = opened_at.ok_or("the window never opened")?;
    report.window = closed_at.duration_since(opened_at);
    Ok(report)
}

/// Sends single requests to `target` until a `TimeReply` comes back:
/// the first serving snapshot is published.
pub fn wait_until_serving(target: SocketAddr, patience: Duration) -> Result<(), String> {
    let socket = bind_loopback()?;
    socket
        .set_read_timeout(Some(Duration::from_millis(5)))
        .map_err(|e| format!("set_read_timeout: {e}"))?;
    let probe = tempo_service::wire::encode(&Message::TimeRequest {
        request_id: u64::MAX,
        attempt: 0,
    });
    let deadline = Instant::now() + patience;
    let mut buf = [0u8; 512];
    while Instant::now() < deadline {
        socket
            .send_to(&probe, target)
            .map_err(|e| format!("send: {e}"))?;
        match socket.recv(&mut buf) {
            Ok(len) => {
                if let Ok(Message::TimeReply { .. }) = decode(&buf[..len]) {
                    return Ok(());
                }
            }
            // A port nobody has bound yet answers with ICMP, which
            // surfaces here as a refused receive: keep knocking.
            Err(e) if is_timeout(&e) || e.kind() == ErrorKind::ConnectionRefused => {}
            Err(e) => return Err(format!("recv: {e}")),
        }
    }
    Err(format!("{target} did not serve within {patience:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_core::{Duration as Span, Timestamp};

    fn estimate(time: f64, error: f64) -> TimeEstimate {
        TimeEstimate::new(Timestamp::from_secs(time), Span::from_secs(error))
    }

    #[test]
    fn the_served_interval_must_contain_the_generators_reading() {
        let t0 = Instant::now();
        let truth = Truth {
            clock_at_t0: 100.0,
            t0,
        };
        let sent = t0 + Duration::from_millis(10);
        let recv = t0 + Duration::from_millis(12);
        // The generator reads 100.012 at receipt; the round trip was 2 ms.
        assert!(truth
            .check(&estimate(100.011, 0.005), 100.011, sent, recv)
            .is_ok());
        // 9 ms away with 5 + 2 ms of slack: excluded.
        assert!(truth
            .check(&estimate(100.021, 0.005), 100.021, sent, recv)
            .is_err());
        // received_at must be the estimate's own reading.
        assert!(truth
            .check(&estimate(100.011, 0.005), 100.010, sent, recv)
            .is_err());
    }

    #[test]
    fn reply_pairs_must_overlap_once_widened_by_the_time_between_them() {
        let t0 = Instant::now();
        let seen = |at_ms: u64, time: f64, error: f64| Seen {
            recv: t0 + Duration::from_millis(at_ms),
            rtt: Duration::from_micros(100),
            estimate: estimate(time, error),
        };
        assert!(check_pair(&seen(0, 5.000, 0.001), &seen(1, 5.002, 0.001)).is_ok());
        assert!(check_pair(&seen(0, 5.000, 0.001), &seen(1, 5.010, 0.001)).is_err());
    }
}
