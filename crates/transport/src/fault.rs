//! Socket-level fault injection: the simulator's loss/duplication/
//! delay knobs, re-created on *real* datagrams.
//!
//! The simulator proves the protocol tolerates the paper's §2 network
//! model; [`FaultyTransport`] proves the *deployment* does, by making
//! a real UDP socket misbehave the same way. It decorates any
//! [`DatagramSocket`] and perturbs outgoing datagrams: dropping them,
//! sending them twice, holding them back (which reorders them past
//! later sends), cutting them short, or replacing their bytes with
//! garbage. Injection is send-side so one faulty node degrades the
//! paths *from* it — the same convention as `NetConfig::loss` in the
//! simulator — and so the receive path exercises its malformed-frame
//! handling against genuinely corrupt frames.

use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tempo_core::Timestamp;
use tempo_net::EventQueue;

use crate::socket::DatagramSocket;

/// What to do to outgoing datagrams, as independent per-datagram
/// probabilities. Faults compose in a fixed order: loss first (a lost
/// datagram suffers nothing else), then duplication, then payload
/// corruption (truncate/garbage, mutually exclusive per copy), then
/// delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability a datagram is silently dropped.
    pub loss: f64,
    /// Probability a datagram is sent twice.
    pub duplicate: f64,
    /// Probability a datagram is cut to a strictly shorter prefix.
    pub truncate: f64,
    /// Probability a datagram's payload is replaced with random bytes
    /// of the same length (checksum-breaking garbage).
    pub garbage: f64,
    /// Probability a datagram is held back before transmission.
    pub delay: f64,
    /// Hold-back interval bounds, uniform within, for delayed
    /// datagrams. A held datagram overtaken by a later immediate send
    /// arrives reordered.
    pub delay_range: (Duration, Duration),
}

impl FaultPlan {
    /// The identity plan: every datagram passes through untouched.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan {
            loss: 0.0,
            duplicate: 0.0,
            truncate: 0.0,
            garbage: 0.0,
            delay: 0.0,
            delay_range: (Duration::ZERO, Duration::ZERO),
        }
    }

    /// Whether this plan can ever perturb a datagram.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.loss > 0.0
            || self.duplicate > 0.0
            || self.truncate > 0.0
            || self.garbage > 0.0
            || self.delay > 0.0
    }

    /// Parses the `tempod --fault` syntax: comma-separated
    /// `key=value` pairs, e.g. `loss=0.2,dup=0.1,delay=0.3:0.01:0.05`
    /// (probability, then min and max hold-back seconds),
    /// `truncate=0.05`, `garbage=0.05`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed pair.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::none();
        for pair in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{pair}` is not key=value"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("fault `{key}`: bad probability `{v}`"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("fault `{key}`: probability {p} outside [0, 1]"));
                }
                Ok(p)
            };
            match key {
                "loss" => plan.loss = prob(value)?,
                "dup" | "duplicate" => plan.duplicate = prob(value)?,
                "truncate" => plan.truncate = prob(value)?,
                "garbage" => plan.garbage = prob(value)?,
                "delay" => {
                    let mut parts = value.split(':');
                    plan.delay = prob(parts.next().unwrap_or_default())?;
                    let min: f64 = parts
                        .next()
                        .unwrap_or("0.01")
                        .parse()
                        .map_err(|_| format!("fault `delay`: bad min seconds in `{value}`"))?;
                    let max: f64 = parts
                        .next()
                        .unwrap_or(&min.to_string())
                        .parse()
                        .map_err(|_| format!("fault `delay`: bad max seconds in `{value}`"))?;
                    if min < 0.0 || max < min {
                        return Err(format!(
                            "fault `delay`: need 0 <= min <= max, got {min}:{max}"
                        ));
                    }
                    plan.delay_range = (Duration::from_secs_f64(min), Duration::from_secs_f64(max));
                }
                other => return Err(format!("unknown fault key `{other}`")),
            }
        }
        Ok(plan)
    }
}

/// Held datagrams, parked in the shared [`EventQueue`] timing wheel
/// (which orders by due time with an insertion-sequence tiebreak) on a
/// [`Timestamp`] axis anchored at `epoch`.
struct FlusherState {
    queue: EventQueue<(Vec<u8>, SocketAddr)>,
    epoch: Instant,
    shutdown: bool,
}

impl FlusherState {
    fn due_key(&self, due: Instant) -> Timestamp {
        Timestamp::from_secs(due.saturating_duration_since(self.epoch).as_secs_f64())
    }

    fn pop_due(&mut self, now: Instant) -> Option<(Vec<u8>, SocketAddr)> {
        let due = self.queue.peek_time()?;
        if due > self.due_key(now) {
            return None;
        }
        self.queue.pop().map(|(_, held)| held)
    }

    fn next_due(&mut self) -> Option<Instant> {
        self.queue
            .peek_time()
            .map(|t| self.epoch + Duration::from_secs_f64(t.as_secs()))
    }
}

/// A [`DatagramSocket`] decorator that injects a [`FaultPlan`] into
/// outgoing datagrams.
///
/// Delayed datagrams are parked on a background flusher thread and
/// transmitted through the *inner* socket when due, so `send_to` never
/// blocks the protocol loop. Dropping the decorator stops the flusher;
/// datagrams still parked at that point are lost, which is exactly
/// what a fault injector should do on teardown.
pub struct FaultyTransport<S: DatagramSocket> {
    inner: Arc<S>,
    plan: FaultPlan,
    rng: Mutex<StdRng>,
    state: Arc<(Mutex<FlusherState>, Condvar)>,
    flusher: Option<JoinHandle<()>>,
}

impl<S: DatagramSocket> std::fmt::Debug for FaultyTransport<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyTransport")
            .field("inner", &self.inner)
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

impl<S: DatagramSocket> FaultyTransport<S> {
    /// Wraps `inner`, perturbing its sends per `plan`. `seed` makes
    /// the fault schedule reproducible for a fixed send sequence.
    pub fn new(inner: S, plan: FaultPlan, seed: u64) -> Self {
        let inner = Arc::new(inner);
        let state = Arc::new((
            Mutex::new(FlusherState {
                queue: EventQueue::new(),
                epoch: Instant::now(),
                shutdown: false,
            }),
            Condvar::new(),
        ));
        let flusher = if plan.delay > 0.0 {
            let socket = Arc::clone(&inner);
            let shared = Arc::clone(&state);
            Some(std::thread::spawn(move || flusher_loop(&socket, &shared)))
        } else {
            None
        };
        FaultyTransport {
            inner,
            plan,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            state,
            flusher,
        }
    }

    /// The active fault plan.
    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Applies per-copy payload corruption (truncate/garbage).
    fn corrupt(&self, rng: &mut StdRng, payload: &[u8]) -> Vec<u8> {
        if self.plan.truncate > 0.0 && rng.random::<f64>() < self.plan.truncate {
            // Strictly shorter, possibly empty: every prefix length
            // must die in the receiver's codec, not in the protocol.
            let cut = rng.random_range(0..payload.len().max(1));
            return payload[..cut].to_vec();
        }
        if self.plan.garbage > 0.0 && rng.random::<f64>() < self.plan.garbage {
            return (0..payload.len()).map(|_| rng.random::<u8>()).collect();
        }
        payload.to_vec()
    }

    /// Ships one (possibly corrupted) copy: immediately, or parked on
    /// the flusher when the delay fault fires.
    fn ship(&self, rng: &mut StdRng, payload: Vec<u8>, addr: SocketAddr) -> io::Result<()> {
        if self.flusher.is_some() && self.plan.delay > 0.0 && rng.random::<f64>() < self.plan.delay
        {
            let (min, max) = self.plan.delay_range;
            let span = max.saturating_sub(min);
            let extra = if span.is_zero() {
                Duration::ZERO
            } else {
                span.mul_f64(rng.random::<f64>())
            };
            let due = Instant::now() + min + extra;
            let (lock, cvar) = &*self.state;
            let mut state = lock.lock().unwrap();
            let key = state.due_key(due);
            state.queue.push(key, (payload, addr));
            cvar.notify_one();
            return Ok(());
        }
        self.inner.send_to(&payload, addr).map(|_| ())
    }
}

fn flusher_loop<S: DatagramSocket>(socket: &Arc<S>, shared: &Arc<(Mutex<FlusherState>, Condvar)>) {
    let (lock, cvar) = &**shared;
    let mut state = lock.lock().unwrap();
    loop {
        if state.shutdown {
            return;
        }
        let now = Instant::now();
        while let Some((payload, addr)) = state.pop_due(now) {
            // Send without the lock so a slow send can't stall
            // `send_to` callers parking new datagrams.
            drop(state);
            let _ = socket.send_to(&payload, addr);
            state = lock.lock().unwrap();
            if state.shutdown {
                return;
            }
        }
        state = match state.next_due() {
            Some(due) => {
                let wait = due.saturating_duration_since(Instant::now());
                cvar.wait_timeout(state, wait).unwrap().0
            }
            None => cvar.wait(state).unwrap(),
        };
    }
}

impl<S: DatagramSocket> Drop for FaultyTransport<S> {
    fn drop(&mut self) {
        if let Some(handle) = self.flusher.take() {
            let (lock, cvar) = &*self.state;
            lock.lock().unwrap().shutdown = true;
            cvar.notify_all();
            let _ = handle.join();
        }
    }
}

impl<S: DatagramSocket> DatagramSocket for FaultyTransport<S> {
    fn send_to(&self, buf: &[u8], addr: SocketAddr) -> io::Result<usize> {
        let mut rng = self.rng.lock().unwrap();
        if self.plan.loss > 0.0 && rng.random::<f64>() < self.plan.loss {
            // Lost on the wire: the caller believes it sent.
            return Ok(buf.len());
        }
        let copies = if self.plan.duplicate > 0.0 && rng.random::<f64>() < self.plan.duplicate {
            2
        } else {
            1
        };
        for _ in 0..copies {
            let payload = self.corrupt(&mut rng, buf);
            self.ship(&mut rng, payload, addr)?;
        }
        Ok(buf.len())
    }

    fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        self.inner.recv_from(buf)
    }

    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    fn configure_read_timeout(&self, wait: std::time::Duration) {
        self.inner.configure_read_timeout(wait);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records sends; never receives.
    #[derive(Debug, Default)]
    struct RecordingSocket {
        sent: Mutex<Vec<(Vec<u8>, SocketAddr)>>,
    }

    impl RecordingSocket {
        fn sent(&self) -> Vec<(Vec<u8>, SocketAddr)> {
            self.sent.lock().unwrap().clone()
        }
    }

    impl DatagramSocket for RecordingSocket {
        fn send_to(&self, buf: &[u8], addr: SocketAddr) -> io::Result<usize> {
            self.sent.lock().unwrap().push((buf.to_vec(), addr));
            Ok(buf.len())
        }

        fn recv_from(&self, _buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
            Err(io::Error::new(io::ErrorKind::WouldBlock, "no traffic"))
        }

        fn local_addr(&self) -> io::Result<SocketAddr> {
            Ok(addr())
        }
    }

    fn addr() -> SocketAddr {
        "127.0.0.1:9".parse().unwrap()
    }

    fn faulty(plan: FaultPlan) -> FaultyTransport<RecordingSocket> {
        FaultyTransport::new(RecordingSocket::default(), plan, 7)
    }

    #[test]
    fn identity_plan_passes_datagrams_through() {
        let t = faulty(FaultPlan::none());
        t.send_to(b"hello", addr()).unwrap();
        assert_eq!(t.inner.sent(), vec![(b"hello".to_vec(), addr())]);
    }

    #[test]
    fn certain_loss_drops_everything_but_reports_success() {
        let t = faulty(FaultPlan {
            loss: 1.0,
            ..FaultPlan::none()
        });
        assert_eq!(t.send_to(b"hello", addr()).unwrap(), 5);
        assert!(t.inner.sent().is_empty());
    }

    #[test]
    fn certain_duplication_sends_twice() {
        let t = faulty(FaultPlan {
            duplicate: 1.0,
            ..FaultPlan::none()
        });
        t.send_to(b"hello", addr()).unwrap();
        let sent = t.inner.sent();
        assert_eq!(sent.len(), 2);
        assert!(sent.iter().all(|(p, _)| p == b"hello"));
    }

    #[test]
    fn certain_truncation_strictly_shortens() {
        let t = faulty(FaultPlan {
            truncate: 1.0,
            ..FaultPlan::none()
        });
        for _ in 0..32 {
            t.send_to(b"0123456789", addr()).unwrap();
        }
        let sent = t.inner.sent();
        assert_eq!(sent.len(), 32);
        assert!(sent.iter().all(|(p, _)| p.len() < 10));
        assert!(sent.iter().all(|(p, _)| *p == b"0123456789"[..p.len()]));
    }

    #[test]
    fn certain_garbage_keeps_length_but_scrambles_some_payloads() {
        let t = faulty(FaultPlan {
            garbage: 1.0,
            ..FaultPlan::none()
        });
        for _ in 0..16 {
            t.send_to(b"0123456789", addr()).unwrap();
        }
        let sent = t.inner.sent();
        assert!(sent.iter().all(|(p, _)| p.len() == 10));
        // Random bytes could coincide once, not sixteen times.
        assert!(sent.iter().any(|(p, _)| p != b"0123456789"));
    }

    #[test]
    fn delayed_datagrams_arrive_after_the_hold_back() {
        let t = faulty(FaultPlan {
            delay: 1.0,
            delay_range: (Duration::from_millis(30), Duration::from_millis(60)),
            ..FaultPlan::none()
        });
        t.send_to(b"late", addr()).unwrap();
        assert!(t.inner.sent().is_empty(), "datagram left too early");
        let deadline = Instant::now() + Duration::from_secs(5);
        while t.inner.sent().is_empty() {
            assert!(Instant::now() < deadline, "datagram never flushed");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(t.inner.sent(), vec![(b"late".to_vec(), addr())]);
    }

    #[test]
    fn delay_reorders_past_immediate_sends() {
        // Deterministic reordering: park one datagram on the flusher,
        // then bypass the decorator for the second. The parked one
        // must land after the bypassing one.
        let t = faulty(FaultPlan {
            delay: 1.0,
            delay_range: (Duration::from_millis(40), Duration::from_millis(40)),
            ..FaultPlan::none()
        });
        t.send_to(b"first", addr()).unwrap();
        t.inner.send_to(b"second", addr()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while t.inner.sent().len() < 2 {
            assert!(Instant::now() < deadline, "delayed datagram never flushed");
            std::thread::sleep(Duration::from_millis(5));
        }
        let order: Vec<Vec<u8>> = t.inner.sent().into_iter().map(|(p, _)| p).collect();
        assert_eq!(order, vec![b"second".to_vec(), b"first".to_vec()]);
    }

    #[test]
    fn fault_spec_parses() {
        let plan = FaultPlan::parse("loss=0.2,dup=0.1,delay=0.3:0.01:0.05,truncate=0.05").unwrap();
        assert_eq!(plan.loss, 0.2);
        assert_eq!(plan.duplicate, 0.1);
        assert_eq!(plan.delay, 0.3);
        assert_eq!(
            plan.delay_range,
            (Duration::from_millis(10), Duration::from_millis(50))
        );
        assert_eq!(plan.truncate, 0.05);
        assert_eq!(plan.garbage, 0.0);
        assert!(plan.is_active());
        assert!(!FaultPlan::none().is_active());
    }

    #[test]
    fn fault_spec_rejects_nonsense() {
        assert!(FaultPlan::parse("loss=1.5").is_err());
        assert!(FaultPlan::parse("warp=0.1").is_err());
        assert!(FaultPlan::parse("loss").is_err());
        assert!(FaultPlan::parse("delay=0.5:0.2:0.1").is_err());
    }
}
