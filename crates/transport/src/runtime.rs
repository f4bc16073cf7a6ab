//! The UDP runtime: one sans-io actor — a [`TimeServer`], a
//! [`ClusterReplica`] or an [`AuditClient`] — one socket, wall-clock
//! timers: the real-network twin of `tempo_net::World`.
//!
//! The state machine is untouched: the runtime merely plays the
//! [`Transport`] role that the simulator plays in tests. Simulated
//! time becomes "seconds since process start" (a monotonic
//! [`Instant`] base), `Context::set_timer` becomes a wall-clock
//! [`EventQueue`] — the same timing wheel the simulator schedules
//! with, so FIFO tie-breaking among simultaneous timers matches the
//! simulator exactly — drained between socket read timeouts, and
//! `Context::send` becomes `encode` + `send_to`. Datagrams that fail
//! the wire codec never reach the protocol: a server drops them
//! *audibly* via [`TimeServer::note_malformed_frame`], a client
//! silently.
//!
//! The runtime owns the host concerns the actor does not: the [`Bus`]
//! its contexts emit on, and the [`FileStore`] its durable record is
//! mirrored to after every callback — *before* that callback's
//! datagrams leave, so a reply never precedes the record it depends on.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Instant;

use rand::rngs::StdRng;

use tempo_cluster::{AuditClient, ClusterReplica};
use tempo_core::{Duration, Timestamp};
use tempo_net::{node_rng, Actor, Context, EventQueue, NodeId, Transport};
use tempo_service::wire::{
    decode, decode_cluster, encode, encode_cluster, ClusterFrame, DecodeError,
};
use tempo_service::{MemoryStore, Message, TimeServer};
use tempo_telemetry::Bus;

use crate::signal;
use crate::socket::DatagramSocket;
use crate::store::FileStore;

/// What the runtime needs beyond [`Actor`] to drive a protocol state
/// machine over a real datagram socket: a wire codec for its message
/// space, malformed-frame accounting, and the durable record to mirror.
pub trait WireActor: Actor {
    /// Encodes one message into a datagram.
    fn encode_msg(msg: &Self::Msg) -> Vec<u8>;

    /// Decodes one datagram into a message.
    ///
    /// # Errors
    ///
    /// Returns the codec error for frames that fail validation; the
    /// runtime counts them via [`WireActor::note_malformed`] and never
    /// hands them to the protocol.
    fn decode_msg(bytes: &[u8]) -> Result<Self::Msg, DecodeError>;

    /// Notes a datagram that failed the codec, emitting on `ctx`.
    fn note_malformed(&mut self, ctx: &Context<'_, Self::Msg>, len: usize, err: DecodeError);

    /// The durable record as it stands after the last callback (by
    /// default none: the actor keeps nothing durable).
    fn durable(&self) -> MemoryStore {
        MemoryStore::new()
    }

    /// Whether this actor replies to clients *after* the callback that
    /// received their request has returned. If true, every minted
    /// transient id stays in the neighbour set of every callback so a
    /// deferred reply can route — the cluster primary answers a
    /// timestamp request only once a quorum acks the high-water mark.
    fn replies_later() -> bool {
        false
    }
}

impl WireActor for TimeServer {
    fn encode_msg(msg: &Message) -> Vec<u8> {
        encode(msg)
    }

    fn decode_msg(bytes: &[u8]) -> Result<Message, DecodeError> {
        decode(bytes)
    }

    fn note_malformed(&mut self, ctx: &Context<'_, Message>, len: usize, err: DecodeError) {
        self.note_malformed_frame(ctx, len, err);
    }

    fn durable(&self) -> MemoryStore {
        TimeServer::durable(self)
    }
}

impl WireActor for ClusterReplica {
    fn encode_msg(msg: &ClusterFrame) -> Vec<u8> {
        encode_cluster(msg)
    }

    fn decode_msg(bytes: &[u8]) -> Result<ClusterFrame, DecodeError> {
        decode_cluster(bytes)
    }

    fn note_malformed(&mut self, ctx: &Context<'_, ClusterFrame>, len: usize, err: DecodeError) {
        self.server_mut().note_malformed_frame(ctx, len, err);
    }

    /// The cluster record only: the embedded server rebuilds its
    /// estimate from peers after a restart.
    fn durable(&self) -> MemoryStore {
        ClusterReplica::durable(self)
    }

    fn replies_later() -> bool {
        true
    }
}

impl WireActor for AuditClient {
    fn encode_msg(msg: &ClusterFrame) -> Vec<u8> {
        encode_cluster(msg)
    }

    fn decode_msg(bytes: &[u8]) -> Result<ClusterFrame, DecodeError> {
        decode_cluster(bytes)
    }

    // A client drops what it cannot decode and keeps nothing durable.
    fn note_malformed(&mut self, _: &Context<'_, ClusterFrame>, _: usize, _: DecodeError) {}
}

/// Drives a [`WireActor`] — a [`TimeServer`] by default, a
/// [`ClusterReplica`] in `tempod --cluster`, or the [`AuditClient`]
/// inside [`crate::UdpClusterClient`] — over a real datagram socket.
///
/// The runtime is single-threaded by design — the actor model already
/// serialises the protocol, so the loop is: fire due timers, block on
/// the socket for at most the gap to the next timer, dispatch one
/// datagram, repeat. Peers occupy [`NodeId`]s `0..cluster_size`;
/// client addresses get transient ids above that range so replies can
/// route back without the protocol knowing about "clients" at all.
pub struct UdpRuntime<S: DatagramSocket, A: WireActor = TimeServer> {
    server: A,
    socket: S,
    me: NodeId,
    /// Cluster peer addresses, indexed by `NodeId::index`. The entry
    /// at `me` is this process's own bind address (never dialed).
    peers: Vec<SocketAddr>,
    addr_to_node: HashMap<SocketAddr, NodeId>,
    /// Transient (client) address table: id = cluster_size + slot.
    transients: Vec<SocketAddr>,
    /// Pending wall-clock timers: due time → actor tag.
    timers: EventQueue<u64>,
    started_at: Instant,
    rng: StdRng,
    /// The bus every callback's context emits on.
    bus: Bus,
    /// The file the actor's durable record is mirrored to, if any.
    store: Option<FileStore>,
    recv_buf: [u8; 512],
}

impl<S: DatagramSocket, A: WireActor> std::fmt::Debug for UdpRuntime<S, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdpRuntime")
            .field("me", &self.me)
            .field("peers", &self.peers)
            .field("socket", &self.socket)
            .field("pending_timers", &self.timers.len())
            .finish_non_exhaustive()
    }
}

impl<S: DatagramSocket, A: WireActor> UdpRuntime<S, A> {
    /// Builds a runtime for node `me` of a cluster whose members live
    /// at `peers` (indexed by node id, including `me`'s own address).
    /// `seed` derives the per-node protocol RNG exactly as the
    /// simulator does, so jitter behaves identically.
    ///
    /// # Panics
    ///
    /// Panics if `me` is outside `peers`.
    pub fn new(server: A, socket: S, me: usize, peers: Vec<SocketAddr>, seed: u64) -> Self {
        assert!(
            me < peers.len(),
            "node {me} outside cluster of {}",
            peers.len()
        );
        let addr_to_node = peers
            .iter()
            .enumerate()
            .map(|(i, &addr)| (addr, NodeId::new(i)))
            .collect();
        UdpRuntime {
            server,
            socket,
            me: NodeId::new(me),
            peers,
            addr_to_node,
            transients: Vec::new(),
            timers: EventQueue::new(),
            started_at: Instant::now(),
            rng: node_rng(seed, NodeId::new(me)),
            bus: Bus::disabled(),
            store: None,
            recv_buf: [0u8; 512],
        }
    }

    /// Emits the actor's telemetry on `bus`.
    #[must_use]
    pub fn emitting(mut self, bus: Bus) -> Self {
        self.bus = bus;
        self
    }

    /// Mirrors the actor's durable record to `store` (none: kept in
    /// memory only), writing it now if it differs from what the file
    /// holds — a first launch persists the initial record.
    #[must_use]
    pub fn persisting(mut self, store: Option<FileStore>) -> Self {
        self.store = store;
        self.mirror();
        self
    }

    /// The driven actor (counters, samples, lifecycle).
    #[must_use]
    pub fn server(&self) -> &A {
        &self.server
    }

    /// Mutable access to the driven actor.
    pub fn server_mut(&mut self) -> &mut A {
        &mut self.server
    }

    /// Seconds since the runtime was built, as the actor's
    /// wall-clock-backed "real time".
    #[must_use]
    pub fn elapsed(&self) -> Timestamp {
        Timestamp::from_secs(self.started_at.elapsed().as_secs_f64())
    }

    /// The instant this runtime's real-time axis calls zero. A
    /// [`crate::ServeFront`] measuring "now" against this instant is
    /// on the same axis as the snapshots the driven server publishes.
    #[must_use]
    pub fn clock_epoch(&self) -> Instant {
        self.started_at
    }

    fn addr_of(&self, node: NodeId) -> Option<SocketAddr> {
        let i = node.index();
        if i < self.peers.len() {
            Some(self.peers[i])
        } else {
            self.transients.get(i - self.peers.len()).copied()
        }
    }

    /// The node id for a datagram's source address, minting a
    /// transient id for unknown (client) sources.
    fn node_for(&mut self, addr: SocketAddr) -> NodeId {
        if let Some(&node) = self.addr_to_node.get(&addr) {
            return node;
        }
        let node = NodeId::new(self.peers.len() + self.transients.len());
        self.transients.push(addr);
        self.addr_to_node.insert(addr, node);
        node
    }

    /// Neighbour set for a callback: every *other* cluster member,
    /// plus (for message callbacks) the sender — so replies to
    /// transient clients pass `Context::send`'s neighbour check while
    /// timer-driven polls only ever target real peers. Actors that
    /// reply out of band ([`WireActor::replies_later`]) keep every
    /// known transient in scope instead.
    fn neighbor_ids(&self, include: Option<NodeId>) -> Vec<NodeId> {
        let span = if A::replies_later() {
            self.peers.len() + self.transients.len()
        } else {
            self.peers.len()
        };
        let mut ids: Vec<NodeId> = (0..span)
            .map(NodeId::new)
            .filter(|&n| n != self.me)
            .collect();
        if let Some(extra) = include {
            if extra != self.me && !ids.contains(&extra) {
                ids.push(extra);
            }
        }
        ids
    }

    /// Runs the actor's `on_start` (join timers, first poll). A server
    /// calls it once before [`UdpRuntime::poll`]; the host-paced
    /// [`AuditClient`] in [`crate::UdpClusterClient`] once per request.
    pub fn start(&mut self) {
        let now = self.elapsed();
        self.dispatch(now, None, |actor, ctx| actor.on_start(ctx));
    }

    /// Runs one actor callback on a context over this runtime's clock
    /// reading, RNG and bus, then mirrors the durable record and only
    /// then sends what the callback queued: the promise a reply carries
    /// is on disk before the reply leaves. `include` joins a message's
    /// sender to the neighbour set (see [`UdpRuntime::neighbor_ids`]).
    fn dispatch(
        &mut self,
        now: Timestamp,
        include: Option<NodeId>,
        callback: impl FnOnce(&mut A, &mut Context<'_, A::Msg>),
    ) {
        let neighbors = self.neighbor_ids(include);
        let mut ctx =
            Context::external(now, self.me, &neighbors, &mut self.rng).emitting(&self.bus);
        callback(&mut self.server, &mut ctx);
        let actions = ctx.take_actions();
        self.mirror();
        self.apply(self.me, actions);
    }

    /// Writes the actor's durable record through to the state file if
    /// it changed. Several persists in one callback become one write:
    /// nothing the callback queued has left yet.
    fn mirror(&mut self) {
        if let Some(store) = &mut self.store {
            let record = self.server.durable();
            if record != store.record() {
                store.write(record);
            }
        }
    }

    /// Fires every due timer, then waits for one datagram for at most
    /// `max_wait`, dispatching it if one arrives. Returns whether a
    /// datagram was processed. This is one turn of the event loop.
    pub fn poll(&mut self, max_wait: std::time::Duration) -> bool {
        self.fire_due_timers();
        let wait = match self.timers.peek_time() {
            Some(due) => {
                let gap = (due - self.elapsed()).as_secs().max(0.0);
                std::time::Duration::from_secs_f64(gap).min(max_wait)
            }
            None => max_wait,
        };
        let got = self.recv_one(wait);
        self.fire_due_timers();
        got
    }

    /// Runs the full serve loop: `on_start`, then poll until `until`
    /// returns true or a shutdown signal is latched, then a graceful
    /// stop — the state file is flushed so the persisted
    /// `(r_i, ε_i)` survives the process (§5's recoverable departure).
    pub fn run(&mut self, mut until: impl FnMut(&Self) -> bool) {
        self.start();
        while !signal::shutdown_requested() && !until(self) {
            self.poll(std::time::Duration::from_millis(10));
        }
        if let Some(store) = &mut self.store {
            store.flush();
        }
    }

    fn fire_due_timers(&mut self) {
        loop {
            let now = self.elapsed();
            let Some(due) = self.timers.peek_time() else {
                return;
            };
            if due > now {
                return;
            }
            let (_, tag) = self.timers.pop().expect("peeked timer exists");
            self.dispatch(now, None, |actor, ctx| actor.on_timer(tag, ctx));
        }
    }

    /// Receives and dispatches at most one datagram, waiting up to
    /// `wait`. Malformed frames are counted and dropped; the protocol
    /// only ever sees codec-clean messages.
    fn recv_one(&mut self, wait: std::time::Duration) -> bool {
        self.set_socket_timeout(wait);
        let (len, from_addr) = match self.socket.recv_from(&mut self.recv_buf) {
            Ok(hit) => hit,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return false;
            }
            Err(e) => {
                // Transient socket errors (e.g. ICMP-induced
                // ECONNREFUSED on Linux) must not kill the server.
                eprintln!("tempod: recv error (ignored): {e}");
                return false;
            }
        };
        let now = self.elapsed();
        match A::decode_msg(&self.recv_buf[..len]) {
            Ok(msg) => {
                let from = self.node_for(from_addr);
                self.dispatch(now, Some(from), |actor, ctx| {
                    actor.on_message(from, msg, ctx);
                });
            }
            Err(e) => self.dispatch(now, None, |actor, ctx| actor.note_malformed(ctx, len, e)),
        }
        true
    }

    fn set_socket_timeout(&self, wait: std::time::Duration) {
        // A zero timeout means "block forever" to the OS; clamp up.
        let wait = wait.max(std::time::Duration::from_millis(1));
        // The seam trait has no set_read_timeout (mocks don't need
        // one); the real socket path goes through this downcast-free
        // hook instead.
        self.socket.configure_read_timeout(wait);
    }
}

impl<S: DatagramSocket, A: WireActor> Transport<A::Msg> for UdpRuntime<S, A> {
    fn now(&self) -> Timestamp {
        self.elapsed()
    }

    fn send(&mut self, from: NodeId, to: NodeId, msg: A::Msg) {
        debug_assert_eq!(from, self.me, "UdpRuntime hosts exactly one actor");
        let Some(addr) = self.addr_of(to) else {
            return;
        };
        let frame = A::encode_msg(&msg);
        if let Err(e) = self.socket.send_to(&frame, addr) {
            // Unreliable delivery is part of the model; a failed send
            // is a lost message, not a crash.
            eprintln!("tempod: send to {addr} failed (dropped): {e}");
        }
    }

    fn set_timer(&mut self, node: NodeId, delay: Duration, tag: u64) {
        debug_assert_eq!(node, self.me, "UdpRuntime hosts exactly one actor");
        let due = self.elapsed() + delay.max(Duration::ZERO);
        self.timers.push(due, tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::UdpSocket;

    use std::path::PathBuf;
    use std::sync::{Arc, Mutex};

    use tempo_clocks::{DriftModel, SimClock};
    use tempo_cluster::ClusterConfig;
    use tempo_core::DriftRate;
    use tempo_service::{ServerConfig, Strategy};

    fn server(offset: f64, initial_error: f64) -> TimeServer {
        TimeServer::new(
            SimClock::builder()
                .initial_value(Timestamp::from_secs(offset))
                .drift(DriftModel::Constant(0.0))
                .build(),
            config(initial_error),
        )
    }

    fn config(initial_error: f64) -> ServerConfig {
        ServerConfig::new(Strategy::Mm, DriftRate::new(1e-4))
            .resync_period(Duration::from_secs(0.1))
            .collect_window(Duration::from_secs(0.05))
            .initial_error(Duration::from_secs(initial_error))
            .quorum(1)
    }

    fn loopback_pair() -> (UdpSocket, UdpSocket, Vec<std::net::SocketAddr>) {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addrs = vec![a.local_addr().unwrap(), b.local_addr().unwrap()];
        (a, b, addrs)
    }

    #[test]
    fn two_runtimes_synchronise_over_loopback() {
        // `a` is the good clock (tight error); `b` starts 20 ms off
        // with a loose error, inside MM consistency, so rule MM-2
        // makes `b` adopt from `a` — the asymmetry MM needs, since it
        // only ever adopts a strictly better estimate.
        let (sock_a, sock_b, addrs) = loopback_pair();
        let mut a = UdpRuntime::new(server(0.00, 0.005), sock_a, 0, addrs.clone(), 1);
        let mut b = UdpRuntime::new(server(0.02, 0.05), sock_b, 1, addrs, 1);
        a.start();
        b.start();
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        loop {
            // Alternate the two event loops in one thread; short waits
            // keep either side from starving the other.
            a.poll(std::time::Duration::from_millis(2));
            b.poll(std::time::Duration::from_millis(2));
            if a.server().is_active()
                && b.server().is_active()
                && a.server().stats().replies > 0
                && b.server().stats().resets > 0
            {
                break;
            }
            assert!(Instant::now() < deadline, "pair never synchronised");
        }
        // Both servers' intervals must contain a common instant: with
        // zero drift and symmetric offsets, their estimates differ by
        // at most the two claimed errors (plus in-flight rtt, bounded
        // here by loopback latencies well under a millisecond).
        let now_a = a.elapsed();
        let est_a = a.server_mut().current_estimate(now_a);
        let now_b = b.elapsed();
        let est_b = b.server_mut().current_estimate(now_b);
        let skew =
            (est_a.time().as_secs() - now_a.as_secs()) - (est_b.time().as_secs() - now_b.as_secs());
        let budget = est_a.error().as_secs() + est_b.error().as_secs() + 0.005;
        assert!(
            skew.abs() <= budget,
            "skew {skew} exceeds error budget {budget}"
        );
    }

    /// A fresh state-file path for one test.
    fn state_path(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("tempo-runtime-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// What a [`FileWitness`] saw: each datagram sent, beside the
    /// record the state file held at that instant.
    type Witnessed = Arc<Mutex<Vec<(Vec<u8>, MemoryStore)>>>;

    /// A loopback socket that reads the state file at every send.
    #[derive(Debug)]
    struct FileWitness {
        socket: UdpSocket,
        path: PathBuf,
        seen: Witnessed,
    }

    impl FileWitness {
        fn new(socket: UdpSocket, path: &std::path::Path) -> (Self, Witnessed) {
            let seen = Witnessed::default();
            let witness = FileWitness {
                socket,
                path: path.to_path_buf(),
                seen: Arc::clone(&seen),
            };
            (witness, seen)
        }
    }

    impl DatagramSocket for FileWitness {
        fn send_to(&self, buf: &[u8], addr: SocketAddr) -> std::io::Result<usize> {
            let on_disk = FileStore::open(&self.path).expect("a readable state file");
            self.seen
                .lock()
                .unwrap()
                .push((buf.to_vec(), on_disk.record()));
            self.socket.send_to(buf, addr)
        }

        fn recv_from(&self, buf: &mut [u8]) -> std::io::Result<(usize, SocketAddr)> {
            self.socket.recv_from(buf)
        }

        fn local_addr(&self) -> std::io::Result<SocketAddr> {
            self.socket.local_addr()
        }

        fn configure_read_timeout(&self, wait: std::time::Duration) {
            let _ = self.socket.set_read_timeout(Some(wait));
        }
    }

    #[test]
    fn replies_leave_only_after_the_reset_they_carry_is_on_disk() {
        // `b` adopts from `a` (as in the loopback sync test above) and
        // answers `a`'s polls; every answer is rule MM-1 over the
        // `(r, ε)` the state file held when the answer left.
        let path = state_path("reset");
        let (sock_a, sock_b, addrs) = loopback_pair();
        let (witness, seen) = FileWitness::new(sock_b, &path);
        let mut a = UdpRuntime::new(server(0.00, 0.005), sock_a, 0, addrs.clone(), 1);
        let mut b = UdpRuntime::new(server(0.02, 0.05), witness, 1, addrs, 1)
            .persisting(Some(FileStore::open(&path).unwrap()));
        let launched = b.server().durable();
        a.start();
        b.start();
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        let answered_after_reset = || {
            seen.lock().unwrap().iter().any(|(frame, on_disk)| {
                *on_disk != launched && matches!(decode(frame), Ok(Message::TimeReply { .. }))
            })
        };
        while !answered_after_reset() {
            a.poll(std::time::Duration::from_millis(2));
            b.poll(std::time::Duration::from_millis(2));
            assert!(Instant::now() < deadline, "b never answered after a reset");
        }
        for (frame, on_disk) in seen.lock().unwrap().iter() {
            let Ok(Message::TimeReply { estimate, .. }) = decode(frame) else {
                continue;
            };
            let record = on_disk.load().expect("a record on disk");
            let grown = (estimate.time() - record.reset_clock) * DriftRate::new(1e-4);
            let drift = (estimate.error() - (record.inherited_error + grown)).abs();
            assert!(
                drift < Duration::from_secs(1e-9),
                "reply {estimate:?} is not MM-1 over the record on disk, {record:?}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_timestamp_leaves_only_after_its_high_water_is_on_disk() {
        // A one-replica cluster is its own quorum: the callback that
        // raises the high-water mark also releases the timestamp, so
        // only mirroring before the send keeps the promise on disk.
        let path = state_path("issue");
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addrs = vec![socket.local_addr().unwrap()];
        let (witness, seen) = FileWitness::new(socket, &path);
        let replica = ClusterReplica::new(
            server(0.0, 0.01),
            ClusterConfig::new(vec![NodeId::new(0)], 0),
            Box::new(MemoryStore::new()),
        );
        let mut rt = UdpRuntime::new(replica, witness, 0, addrs.clone(), 1)
            .persisting(Some(FileStore::open(&path).unwrap()));
        rt.start();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        let mut request_id = 0;
        while rt.server().stats().issued < 5 {
            request_id += 1;
            let frame = encode_cluster(&ClusterFrame::TsRequest {
                request_id,
                attempt: 0,
            });
            client.send_to(&frame, addrs[0]).unwrap();
            rt.poll(std::time::Duration::from_millis(10));
            assert!(Instant::now() < deadline, "the replica never issued");
        }
        let mut replies = 0;
        for (frame, on_disk) in seen.lock().unwrap().iter() {
            let Ok(ClusterFrame::TsReply { timestamp, .. }) = decode_cluster(frame) else {
                continue;
            };
            replies += 1;
            let high_water = on_disk.load_cluster().map_or(0, |c| c.high_water);
            assert!(
                high_water >= timestamp,
                "timestamp {timestamp} left with high-water {high_water} on disk"
            );
        }
        assert!(replies >= 5, "only {replies} timestamps sent");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_exits_gracefully_on_shutdown_signal_and_flushes_the_store() {
        crate::signal::reset();
        let path = state_path("shutdown");
        let server = TimeServer::new(
            SimClock::builder().drift(DriftModel::Constant(0.0)).build(),
            config(0.01),
        );
        let (sock, _other, addrs) = loopback_pair();
        let mut rt = UdpRuntime::new(server, sock, 0, addrs, 1)
            .persisting(Some(FileStore::open(&path).unwrap()));
        // Attaching the file wrote the initial record; lose the file so
        // only the shutdown flush can bring it back (a lone server
        // never resets, so no callback rewrites it).
        assert!(FileStore::open(&path).unwrap().record().load().is_some());
        std::fs::remove_file(&path).unwrap();
        let stopper = std::thread::spawn(|| {
            std::thread::sleep(std::time::Duration::from_millis(50));
            crate::signal::request_shutdown();
        });
        let started = Instant::now();
        rt.run(|_| false);
        stopper.join().unwrap();
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "run did not stop on the signal"
        );
        assert!(
            FileStore::open(&path).unwrap().record().load().is_some(),
            "graceful shutdown did not flush the persisted state"
        );
        let _ = std::fs::remove_file(&path);
        crate::signal::reset();
    }

    #[test]
    fn malformed_datagrams_are_counted_not_crashing() {
        let (sock, attacker, addrs) = loopback_pair();
        let target = addrs[0];
        let mut rt = UdpRuntime::new(server(0.0, 0.01), sock, 0, addrs, 1);
        rt.start();
        // Garbage of several shapes: empty-ish, truncated header,
        // right magic wrong checksum, pure noise.
        attacker.send_to(&[0x7e], target).unwrap();
        attacker.send_to(&[0x7e, 0x30, 0x01], target).unwrap();
        attacker.send_to(&[0xff; 64], target).unwrap();
        attacker
            .send_to(&[0x7e, 0x30, 0x01, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], target)
            .unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while rt.server().stats().malformed_frames < 4 {
            rt.poll(std::time::Duration::from_millis(5));
            assert!(
                Instant::now() < deadline,
                "saw only {} malformed frames",
                rt.server().stats().malformed_frames
            );
        }
    }

    #[test]
    fn transient_client_addresses_get_stable_ids_and_replies() {
        let (sock, client, addrs) = loopback_pair();
        let target = addrs[0];
        let mut rt = UdpRuntime::new(server(0.0, 0.01), sock, 0, addrs, 1);
        rt.start();
        let frame = encode(&Message::TimeRequest {
            request_id: 99,
            attempt: 0,
        });
        client.send_to(&frame, target).unwrap();
        client
            .set_read_timeout(Some(std::time::Duration::from_millis(20)))
            .unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        let mut buf = [0u8; 512];
        loop {
            rt.poll(std::time::Duration::from_millis(5));
            if let Ok((len, _)) = client.recv_from(&mut buf) {
                let msg = decode(&buf[..len]).expect("well-formed reply");
                match msg {
                    Message::TimeReply { request_id, .. }
                    | Message::Uninitialized { request_id } => assert_eq!(request_id, 99),
                    Message::TimeRequest { .. } => panic!("server should not request from clients"),
                }
                break;
            }
            assert!(Instant::now() < deadline, "no reply to the client request");
        }
    }
}
