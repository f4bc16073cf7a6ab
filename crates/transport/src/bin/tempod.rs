//! `tempod` — one time-service node on a real UDP socket.
//!
//! The daemon form of the paper's server: the same `TimeServer` state
//! machine the simulator runs, pointed at a bound socket and a list of
//! peer addresses. A five-node localhost cluster:
//!
//! ```text
//! for i in 0 1 2 3 4; do
//!   tempod --id $i --listen 127.0.0.1:900$i \
//!          --peer 127.0.0.1:9000 --peer 127.0.0.1:9001 \
//!          --peer 127.0.0.1:9002 --peer 127.0.0.1:9003 \
//!          --peer 127.0.0.1:9004 \
//!          --offset 0.0$i --state /tmp/tempo-$i.state &
//! done
//! ```
//!
//! SIGTERM/SIGINT trigger a graceful stop: the state file is
//! flushed and the socket closed. SIGKILL does not — which is the
//! point of the store: relaunching with the same `--state` rehydrates
//! `(r_i, ε_i)` and re-derives the error grown across the downtime.

use std::cell::RefCell;
use std::io::Write;
use std::net::{SocketAddr, UdpSocket};
use std::process::ExitCode;
use std::rc::Rc;

use tempo_clocks::{DriftModel, SimClock};
use tempo_cluster::{ClusterConfig, ClusterReplica};
use tempo_core::{DriftRate, Duration, SnapshotReader, Timestamp};
use tempo_net::NodeId;
use tempo_service::{MemoryStore, PersistedState, RetryPolicy, ServerConfig, Strategy, TimeServer};
use tempo_telemetry::json::write_event;
use tempo_telemetry::{Bus, EventKind, Observer, TelemetryEvent};
use tempo_transport::{
    signal, DatagramSocket, FaultPlan, FaultyTransport, FileStore, ServeFront, ServeOptions,
    UdpRuntime, WireActor,
};

const USAGE: &str = "\
tempod — one node of the tempo time service over UDP

USAGE:
    tempod --id N --listen ADDR --peer ADDR [--peer ADDR ...] [OPTIONS]

REQUIRED:
    --id N              this node's index into the --peer list
    --listen ADDR       UDP address to bind (must equal peer[N])
    --peer ADDR         cluster member address, repeated in node-id order

OPTIONS:
    --offset SECS       initial clock offset from true time   [0]
    --epoch-unix SECS   cluster epoch as a unix timestamp: the clock
                        boots at (wall time - epoch) + offset, so the
                        OS clock plays the hardware clock that keeps
                        running across a SIGKILL. Omit: boots at offset.
    --drift RATE        constant drift rate, e.g. 2e-5        [0]
    --drift-bound RATE  assumed drift bound delta             [1e-4]
    --initial-error S   initial error epsilon                 [0.01]
    --period SECS       resync period tau                     [1.0]
    --window SECS       reply-collection window               [0.25]
    --strategy NAME     mm | im | tolerant:F | max | median | mean  [mm]
    --quorum N          §5 bootstrap quorum                   [1]
    --seed N            protocol rng seed                     [0]
    --state PATH        durable state file (omit: in-memory)
    --fault SPEC        outgoing-datagram faults, e.g.
                        loss=0.2,dup=0.1,delay=0.3:0.01:0.05,truncate=0.05,garbage=0.05
    --fault-seed N      fault schedule seed                   [1]
    --telemetry-out P   write telemetry JSONL to P
    --duration SECS     exit (gracefully) after SECS; omit to run until signalled
    --report            print a final sample line to stdout on exit

CLUSTER MODE (lease-gated monotonic cluster timestamps):
    --cluster           run as one ClusterTime replica: the node above
                        becomes the embedded resync server, and the
                        process additionally speaks the lease/election/
                        timestamp protocol. --state then persists the
                        cluster record (view, high-water) — the durable
                        promise behind strict monotonicity — while the
                        embedded server rebuilds its estimate from peers.
                        Timings: 0.4 s lease renewed every 0.1 s, 0.3 s
                        election timeout, 0.5 s per-issue timeout.
    --max-faulty F      fault budget f (sizes the quorum)     [0]

SERVING FRONT (the lock-free read path):
    --serve ADDR        also bind ADDR and answer time requests from the
                        seqlock snapshot, off the sync actor's socket
    --serve-threads N   reader threads on the serve socket        [1]
    --serve-admit R:B   admission token bucket: R req/s sustained,
                        bursts of B (omit: admit everything)
";

#[derive(Debug)]
struct Options {
    id: usize,
    listen: SocketAddr,
    peers: Vec<SocketAddr>,
    offset: f64,
    epoch_unix: Option<f64>,
    drift: f64,
    drift_bound: f64,
    initial_error: f64,
    period: f64,
    window: f64,
    strategy: Strategy,
    quorum: usize,
    seed: u64,
    state: Option<String>,
    fault: Option<FaultPlan>,
    fault_seed: u64,
    telemetry_out: Option<String>,
    duration: Option<f64>,
    report: bool,
    serve: Option<SocketAddr>,
    serve_threads: usize,
    serve_admit: Option<(f64, f64)>,
    cluster: bool,
    max_faulty: usize,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut id = None;
    let mut listen = None;
    let mut peers = Vec::new();
    let mut opts = Options {
        id: 0,
        listen: "0.0.0.0:0".parse().unwrap(),
        peers: Vec::new(),
        offset: 0.0,
        epoch_unix: None,
        drift: 0.0,
        drift_bound: 1e-4,
        initial_error: 0.01,
        period: 1.0,
        window: 0.25,
        strategy: Strategy::Mm,
        quorum: 1,
        seed: 0,
        state: None,
        fault: None,
        fault_seed: 1,
        telemetry_out: None,
        duration: None,
        report: false,
        serve: None,
        serve_threads: 1,
        serve_admit: None,
        cluster: false,
        max_faulty: 0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--report" {
            opts.report = true;
            continue;
        }
        if flag == "--cluster" {
            opts.cluster = true;
            continue;
        }
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--id" => id = Some(parse(&value()?, "--id")?),
            "--listen" => listen = Some(parse_addr(&value()?)?),
            "--peer" => peers.push(parse_addr(&value()?)?),
            "--offset" => opts.offset = parse(&value()?, "--offset")?,
            "--epoch-unix" => opts.epoch_unix = Some(parse(&value()?, "--epoch-unix")?),
            "--drift" => opts.drift = parse(&value()?, "--drift")?,
            "--drift-bound" => opts.drift_bound = parse(&value()?, "--drift-bound")?,
            "--initial-error" => opts.initial_error = parse(&value()?, "--initial-error")?,
            "--period" => opts.period = parse(&value()?, "--period")?,
            "--window" => opts.window = parse(&value()?, "--window")?,
            "--strategy" => opts.strategy = value()?.parse()?,
            "--quorum" => opts.quorum = parse(&value()?, "--quorum")?,
            "--seed" => opts.seed = parse(&value()?, "--seed")?,
            "--state" => opts.state = Some(value()?),
            "--fault" => opts.fault = Some(FaultPlan::parse(&value()?)?),
            "--fault-seed" => opts.fault_seed = parse(&value()?, "--fault-seed")?,
            "--telemetry-out" => opts.telemetry_out = Some(value()?),
            "--duration" => opts.duration = Some(parse(&value()?, "--duration")?),
            "--max-faulty" => opts.max_faulty = parse(&value()?, "--max-faulty")?,
            "--serve" => opts.serve = Some(parse_addr(&value()?)?),
            "--serve-threads" => opts.serve_threads = parse(&value()?, "--serve-threads")?,
            "--serve-admit" => opts.serve_admit = Some(parse_admit(&value()?)?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if opts.serve_threads == 0 {
        return Err("--serve-threads must be at least 1".into());
    }
    opts.id = id.ok_or("--id is required")?;
    opts.listen = listen.ok_or("--listen is required")?;
    opts.peers = peers;
    if opts.peers.len() < 2 {
        return Err("need at least two --peer addresses".into());
    }
    if opts.id >= opts.peers.len() {
        return Err(format!(
            "--id {} outside the {}-node --peer list",
            opts.id,
            opts.peers.len()
        ));
    }
    if opts.peers[opts.id] != opts.listen {
        return Err(format!(
            "--listen {} does not match peer[{}] = {}",
            opts.listen, opts.id, opts.peers[opts.id]
        ));
    }
    if opts.cluster {
        let n = opts.peers.len();
        let quorum = (n + opts.max_faulty) / 2 + 1;
        if n - opts.max_faulty < quorum {
            return Err(format!(
                "--max-faulty {}: quorum {quorum} unreachable with {n} replicas",
                opts.max_faulty
            ));
        }
    }
    Ok(opts)
}

fn parse<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse `{value}`"))
}

fn parse_addr(value: &str) -> Result<SocketAddr, String> {
    value
        .parse()
        .map_err(|_| format!("bad socket address `{value}`"))
}

fn parse_admit(value: &str) -> Result<(f64, f64), String> {
    let (rate, burst) = value
        .split_once(':')
        .ok_or_else(|| format!("--serve-admit wants RATE:BURST, got `{value}`"))?;
    let rate: f64 = parse(rate, "--serve-admit rate")?;
    let burst: f64 = parse(burst, "--serve-admit burst")?;
    if !rate.is_finite() || rate <= 0.0 || !burst.is_finite() || burst < 1.0 {
        return Err("--serve-admit needs rate > 0 and burst >= 1".into());
    }
    Ok((rate, burst))
}

/// Telemetry sink: every event is one JSON line and one `write` to
/// the file, so the stream can be followed while the daemon runs.
struct JsonlSink {
    out: std::fs::File,
    line: Vec<u8>,
}

impl Observer for JsonlSink {
    fn enabled(&self, _kind: EventKind) -> bool {
        true
    }

    fn observe(&mut self, event: &TelemetryEvent) {
        self.line.clear();
        write_event(&mut self.line, event);
        self.line.push(b'\n');
        let _ = self.out.write_all(&self.line);
    }
}

/// The simulated clock's boot value. With an epoch, the OS wall clock
/// plays the hardware clock: it keeps running while the process is
/// dead, so a relaunch against the same `--state` rehydrates into a
/// *continued* clock and the MM-1 error grows across the downtime
/// instead of resetting.
fn boot_value(opts: &Options) -> Result<f64, String> {
    Ok(match opts.epoch_unix {
        Some(epoch) => {
            let wall = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_err(|e| e.to_string())?
                .as_secs_f64();
            wall - epoch + opts.offset
        }
        None => opts.offset,
    })
}

/// The embedded resync server, configured from the base flags and
/// rehydrated from `persisted` when a previous run left a record.
fn build_server(opts: &Options, persisted: Option<PersistedState>) -> Result<TimeServer, String> {
    let clock = SimClock::builder()
        .initial_value(Timestamp::from_secs(boot_value(opts)?))
        .drift(DriftModel::Constant(opts.drift))
        .seed(opts.seed)
        .build();
    let config = ServerConfig::new(opts.strategy, DriftRate::new(opts.drift_bound))
        .resync_period(Duration::from_secs(opts.period))
        .collect_window(Duration::from_secs(opts.window))
        .initial_error(Duration::from_secs(opts.initial_error))
        .retry(RetryPolicy::backoff_defaults())
        .quorum(opts.quorum);
    Ok(TimeServer::with_persisted(clock, config, persisted))
}

/// The bus the runtime's contexts emit on: a JSONL writer under
/// `--telemetry-out`, disabled otherwise.
fn telemetry_bus(opts: &Options) -> Result<Bus, String> {
    let Some(path) = &opts.telemetry_out else {
        return Ok(Bus::disabled());
    };
    let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
    let bus = Bus::new();
    bus.subscribe(Rc::new(RefCell::new(JsonlSink {
        out: file,
        line: Vec::new(),
    })));
    Ok(bus)
}

/// The banner's note of the injected socket faults, if any.
fn fault_note(opts: &Options) -> String {
    match &opts.fault {
        Some(plan) => format!(", faults {plan:?}"),
        None => String::new(),
    }
}

fn run(opts: Options) -> Result<(), String> {
    // The `--state` file, opened once: the actor is built from the
    // record it held at launch, and the runtime mirrors to it after.
    let file = opts.state.as_ref().map(FileStore::open).transpose();
    let file = file.map_err(|e| e.to_string())?;
    if opts.cluster {
        return run_cluster(&opts, file);
    }
    let server = build_server(&opts, file.as_ref().and_then(|f| f.record().load()))?;
    let reader = server.snapshot_reader();
    let banner = format!(
        "node {} serving on {} ({} peers{})",
        opts.id,
        opts.listen,
        opts.peers.len() - 1,
        fault_note(&opts)
    );
    serve(&opts, server, reader, file, &banner, report)
}

/// `--cluster`: run one ClusterTime replica over the same socket. The
/// embedded resync server keeps its record in memory only — the
/// durable promise of cluster mode is the *cluster record* (view,
/// high-water mark), which the replica exposes and `--state` mirrors.
/// The embedded estimate rebuilds from peers after a restart; until it
/// does, the replica refuses timestamp requests with `booting`.
fn run_cluster(opts: &Options, file: Option<FileStore>) -> Result<(), String> {
    let server = build_server(opts, None)?;
    let reader = server.snapshot_reader();
    let record = file
        .as_ref()
        .map_or_else(MemoryStore::new, FileStore::record);
    let replicas: Vec<NodeId> = (0..opts.peers.len()).map(NodeId::new).collect();
    let config = ClusterConfig::new(replicas, opts.id).max_faulty(opts.max_faulty);
    let replica = ClusterReplica::new(server, config, Box::new(record));
    let banner = format!(
        "cluster replica {} on {} ({} peers, f={}{})",
        opts.id,
        opts.listen,
        opts.peers.len() - 1,
        opts.max_faulty,
        fault_note(opts)
    );
    serve(opts, replica, reader, file, &banner, cluster_report)
}

/// Binds the node's socket and runs `actor` on it — through the fault
/// decorator under `--fault` — with its telemetry on the
/// `--telemetry-out` bus and its durable record mirrored to `file`.
fn serve<A: WireActor>(
    opts: &Options,
    actor: A,
    reader: SnapshotReader,
    file: Option<FileStore>,
    banner: &str,
    report: fn(&Options, &mut A, Timestamp),
) -> Result<(), String> {
    let bus = telemetry_bus(opts)?;
    let socket = UdpSocket::bind(opts.listen).map_err(|e| e.to_string())?;
    signal::install();
    eprintln!("tempod: {banner}");
    let (id, peers, seed) = (opts.id, opts.peers.clone(), opts.seed);
    // Faulty and clean paths instantiate the runtime at different
    // socket types; each arm runs its own monomorphisation.
    match opts.fault.filter(FaultPlan::is_active) {
        Some(plan) => {
            let faulty = FaultyTransport::new(socket, plan, opts.fault_seed);
            let rt = UdpRuntime::new(actor, faulty, id, peers, seed);
            drive(opts, rt.emitting(bus).persisting(file), reader, report)
        }
        None => {
            let rt = UdpRuntime::new(actor, socket, id, peers, seed);
            drive(opts, rt.emitting(bus).persisting(file), reader, report)
        }
    }
}

/// Runs the event loop until `--duration` or a signal, with the serving
/// front beside it when `--serve` asks, then reports under `--report`.
fn drive<S: DatagramSocket, A: WireActor>(
    opts: &Options,
    mut rt: UdpRuntime<S, A>,
    reader: SnapshotReader,
    report: fn(&Options, &mut A, Timestamp),
) -> Result<(), String> {
    let front = spawn_front(opts, reader, rt.clock_epoch())?;
    let deadline = opts.duration.map(Duration::from_secs);
    rt.run(|rt| deadline.is_some_and(|d| rt.elapsed() >= Timestamp::ZERO + d));
    stop_front(front);
    if opts.report {
        let now = rt.elapsed();
        report(opts, rt.server_mut(), now);
    }
    Ok(())
}

/// Bind and start the lock-free serving front when `--serve` was given.
fn spawn_front(
    opts: &Options,
    reader: SnapshotReader,
    epoch: std::time::Instant,
) -> Result<Option<ServeFront>, String> {
    let Some(addr) = opts.serve else {
        return Ok(None);
    };
    let socket = UdpSocket::bind(addr).map_err(|e| e.to_string())?;
    let front = ServeFront::spawn(
        socket,
        reader,
        epoch,
        &ServeOptions {
            threads: opts.serve_threads,
            admission: opts.serve_admit,
        },
    )
    .map_err(|e| e.to_string())?;
    eprintln!(
        "tempod: serving front on {} ({} thread{})",
        front.local_addr(),
        opts.serve_threads,
        if opts.serve_threads == 1 { "" } else { "s" },
    );
    Ok(Some(front))
}

fn stop_front(front: Option<ServeFront>) {
    if let Some(front) = front {
        let stats = front.stop();
        eprintln!(
            "tempod: front served {} (refused {}, rejected {}, malformed {}, batches {})",
            stats.served, stats.refused, stats.rejected, stats.malformed, stats.batches,
        );
    }
}

fn cluster_report(opts: &Options, replica: &mut ClusterReplica, _: Timestamp) {
    let stats = replica.stats();
    println!(
        "{{\"node\":{},\"view\":{},\"primary\":{},\"high_water\":{},\"issued\":{},\"refused\":{},\"redirects\":{},\"elections_won\":{},\"rehydrations\":{}}}",
        opts.id,
        replica.view(),
        replica.is_serving_primary(),
        replica.high_water(),
        stats.issued,
        stats.refused(),
        stats.redirects,
        stats.elections_won,
        stats.rehydrations,
    );
}

fn report(opts: &Options, server: &mut TimeServer, now: Timestamp) {
    let stats = server.stats();
    let active = server.is_active();
    let estimate = server.current_estimate(now);
    println!(
        "{{\"node\":{},\"active\":{},\"time\":{},\"error\":{},\"rounds\":{},\"resets\":{},\"malformed\":{}}}",
        opts.id,
        active,
        estimate.time().as_secs(),
        estimate.error().as_secs(),
        stats.rounds,
        stats.resets,
        stats.malformed_frames,
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(opts) => match run(opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("tempod: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            if e.is_empty() {
                print!("{USAGE}");
                ExitCode::SUCCESS
            } else {
                eprintln!("tempod: {e}\n\n{USAGE}");
                ExitCode::FAILURE
            }
        }
    }
}
