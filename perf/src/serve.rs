//! The two socket workloads: `tempod` children on loopback, driven by
//! the generators of [`crate::loadgen`].

use std::net::{SocketAddr, UdpSocket};
use std::path::Path;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::child::{build_tempod, free_ports, ExitLines, Tempod};
use crate::loadgen::{
    closed_loop, open_loop, wait_until_serving, Boundary, LoadReport, Truth, SLICE,
};
use crate::outcome::{EndToEndRow, Outcome};
use crate::schedule;
use crate::spec;
use crate::stats::{percentile, tail_is_supported};
use crate::sys;

/// Load before the measured window, part of set-up.
pub const WARMUP: Duration = Duration::from_secs(2);
/// The open loop's fixed offered rate, requests per second. Chosen so
/// ten consecutive calibration runs lost no request (CALIBRATION.md).
pub const PACED_RATE: f64 = 20_000.0;
/// The tail the socket workloads report: the highest percentile whose
/// spread over ten runs stayed within a third of its bound on the
/// calibration machine (p99 moved by 9 to 19 % on `serve_paced`).
const TAIL: f64 = 0.95;

/// Which of a run's slices, fastest first, a latency metric is read
/// from; see [`best_quantile`].
const BEST_RANK: usize = 3;

/// CPU time of the children at the window's opening and at the end of
/// each [`INTERVAL`](crate::loadgen::INTERVAL) of it, and their peak
/// memory at its close.
struct Sampler {
    pids: Vec<u32>,
    clock: sys::CpuClock,
    cpu_marks: Vec<Duration>,
    peak_rss_mib: f64,
    opened_at: Option<Instant>,
}

impl Sampler {
    fn new(pids: Vec<u32>) -> Result<Sampler, String> {
        Ok(Sampler {
            clock: sys::CpuClock::of(&pids)?,
            pids,
            cpu_marks: Vec::new(),
            peak_rss_mib: 0.0,
            opened_at: None,
        })
    }

    fn mark(&mut self, boundary: Boundary) -> Result<(), String> {
        match boundary {
            Boundary::WindowOpens => {
                self.cpu_marks.push(self.clock.read()?);
                self.opened_at = Some(Instant::now());
            }
            Boundary::IntervalEnds => self.cpu_marks.push(self.clock.read()?),
            Boundary::WindowCloses => {
                self.clock.check_threads()?;
                for &pid in &self.pids {
                    self.peak_rss_mib = self.peak_rss_mib.max(sys::peak_rss_mib(pid)?);
                }
            }
        }
        Ok(())
    }
}

/// A launched deployment: the daemons, the addresses to aim at, and the
/// generator's reading of their clock.
pub struct Deployment {
    pub nodes: Vec<Tempod>,
    pub serve: SocketAddr,
    pub actor: SocketAddr,
    pub truth: Truth,
    /// Holds the silent second peer's port on `serve_batch`.
    _mute_peer: Option<UdpSocket>,
}

fn unix_now() -> Result<f64, String> {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .map_err(|e| format!("system clock before 1970: {e}"))
}

fn node_args(id: usize, peers: &[SocketAddr], epoch_unix: f64, extra: &[&str]) -> Vec<String> {
    let mut args = vec![
        "--id".to_string(),
        id.to_string(),
        "--listen".to_string(),
        peers[id].to_string(),
    ];
    for peer in peers {
        args.push("--peer".into());
        args.push(peer.to_string());
    }
    args.push("--epoch-unix".into());
    args.push(format!("{epoch_unix:.6}"));
    args.push("--report".into());
    // A backstop only: the benchmark stops its children itself.
    args.push("--duration".into());
    args.push("600".into());
    args.extend(extra.iter().map(|s| (*s).to_string()));
    args
}

/// `serve_batch`'s deployment: one node whose only peer is a bound but
/// silent socket, so its sync rounds find nobody and the snapshot is
/// (almost) never republished.
pub fn launch_single(exe: &Path, dir: &Path) -> Result<Deployment, String> {
    let ports = free_ports(2)?;
    let (listen, serve) = (ports[0], ports[1]);
    let mute = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let peers = [listen, mute.local_addr().map_err(|e| e.to_string())?];
    let t0 = Instant::now();
    let epoch_unix = unix_now()?;
    let serve_arg = serve.to_string();
    let args = node_args(
        0,
        &peers,
        epoch_unix,
        &["--serve", &serve_arg, "--serve-threads", "1"],
    );
    let node = Tempod::spawn(exe, &args, dir, "node0")?;
    Ok(Deployment {
        nodes: vec![node],
        serve,
        actor: listen,
        truth: Truth {
            clock_at_t0: 0.0,
            t0,
        },
        _mute_peer: Some(mute),
    })
}

/// `serve_paced`'s deployment: two nodes 2 ms apart running
/// intersection rounds twenty times a second, so node 0 republishes its
/// snapshot under the readers.
pub fn launch_pair(exe: &Path, dir: &Path) -> Result<Deployment, String> {
    let ports = free_ports(3)?;
    let peers = [ports[0], ports[1]];
    let serve = ports[2];
    let t0 = Instant::now();
    let epoch_unix = unix_now()?;
    let sync = ["--strategy", "im", "--period", "0.05", "--window", "0.02"];
    let serve_arg = serve.to_string();
    let mut first: Vec<&str> = sync.to_vec();
    first.extend(["--serve", &serve_arg, "--serve-threads", "1"]);
    let mut second: Vec<&str> = sync.to_vec();
    second.extend(["--offset", "0.002"]);
    let node0 = Tempod::spawn(exe, &node_args(0, &peers, epoch_unix, &first), dir, "node0")?;
    let node1 = Tempod::spawn(
        exe,
        &node_args(1, &peers, epoch_unix, &second),
        dir,
        "node1",
    )?;
    Ok(Deployment {
        nodes: vec![node0, node1],
        serve,
        actor: peers[0],
        truth: Truth {
            clock_at_t0: 0.0,
            t0,
        },
        _mute_peer: None,
    })
}

impl Deployment {
    pub fn pids(&self) -> Vec<u32> {
        self.nodes.iter().map(Tempod::pid).collect()
    }

    pub fn wait_until_serving(&self) -> Result<(), String> {
        let patience = Duration::from_secs(10);
        wait_until_serving(self.serve, patience)?;
        wait_until_serving(self.actor, patience)
    }

    /// Stops every node; node 0's exit lines come first.
    pub fn stop(self) -> Result<Vec<ExitLines>, String> {
        self.nodes.into_iter().map(Tempod::stop).collect()
    }
}

/// What happened between one mark of the generator and the next.
pub struct Interval {
    pub wall: Duration,
    /// Daemon CPU time.
    pub cpu: Duration,
    /// Requests answered.
    pub ok: u64,
}

/// What a socket workload measured, before it is turned into metrics.
pub struct ServeRun {
    pub load: LoadReport,
    pub setup: Duration,
    pub intervals: Vec<Interval>,
    pub peak_rss_mib: f64,
    pub exits: Vec<ExitLines>,
}

impl ServeRun {
    /// Ok requests per second in the best interval of the window. The
    /// best, not the median: see [`crate::jobs::STRETCH`].
    pub fn best_throughput(&self) -> Result<f64, String> {
        self.intervals
            .iter()
            .map(|i| i.ok as f64 / i.wall.as_secs_f64())
            .max_by(f64::total_cmp)
            .ok_or_else(|| "the window has no whole interval".to_string())
    }

    /// Daemon CPU microseconds per ok request in the best interval of
    /// the window.
    pub fn best_cpu_us_per_op(&self) -> Result<f64, String> {
        self.intervals
            .iter()
            .map(|i| i.cpu.as_secs_f64() * 1e6 / i.ok as f64)
            .filter(|v| v.is_finite())
            .min_by(f64::total_cmp)
            .ok_or_else(|| "no whole interval of the window answered a request".to_string())
    }
}

/// Runs one socket workload end to end: launch, wait for the first
/// serving snapshot, warm up, measure, stop.
pub fn run(name: &str, seed: u64, window: Duration, warmup: Duration) -> Result<ServeRun, String> {
    let exe = build_tempod()?;
    let dir = sys::out_dir(name)?;
    // Generator and daemons share one core, the last this process may
    // use, and the generator yields whenever it has nothing to do. On
    // two cores every request wakes a halted virtual CPU through the
    // hypervisor, and the run measures that (medians moved by a third
    // between batches of runs); on one core a request costs two context
    // switches and the numbers repeat. The other core is left to
    // whatever else the machine runs. Children inherit the affinity in
    // force when they are spawned.
    let cpus = sys::allowed_cpus()?;
    let core = *cpus.last().ok_or("no CPU to run on")?;
    sys::pin_to(&[core])?;
    let started = Instant::now();
    let deployment = match name {
        spec::SERVE_BATCH => launch_single(&exe, &dir)?,
        _ => launch_pair(&exe, &dir)?,
    };
    deployment.wait_until_serving()?;
    let mut sampler = Sampler::new(deployment.pids())?;
    let mut mark = |b| sampler.mark(b);
    let load = match name {
        spec::SERVE_BATCH => closed_loop(
            deployment.serve,
            &deployment.truth,
            warmup,
            window,
            &mut mark,
        )?,
        _ => {
            let span = (warmup + window).as_secs_f64();
            let arrivals = schedule::lognormal(seed, PACED_RATE, span);
            open_loop(
                deployment.serve,
                deployment.actor,
                &arrivals,
                warmup,
                &deployment.truth,
                &mut mark,
            )?
        }
    };
    let exits = deployment.stop()?;
    let opened_at = sampler.opened_at.ok_or("the window never opened")?;
    let intervals = load
        .marks
        .windows(2)
        .zip(sampler.cpu_marks.windows(2))
        .map(|(at, cpu)| Interval {
            wall: at[1].0.duration_since(at[0].0),
            cpu: cpu[1].saturating_sub(cpu[0]),
            ok: at[1].1 - at[0].1,
        })
        .collect();
    Ok(ServeRun {
        load,
        setup: opened_at.duration_since(started),
        intervals,
        peak_rss_mib: sampler.peak_rss_mib,
        exits,
    })
}

/// Output checks on what the daemons said on the way out.
pub fn check_exits(run: &ServeRun) -> Result<(), String> {
    let front = run.exits[0]
        .front
        .ok_or_else(|| format!("node 0 printed no front line: {}", run.exits[0].stderr))?;
    if front.malformed != 0 || front.rejected != 0 {
        return Err(format!(
            "the front saw malformed or rejected datagrams: {front:?}"
        ));
    }
    for (i, exit) in run.exits.iter().enumerate() {
        let report = exit
            .report
            .ok_or_else(|| format!("node {i} printed no --report line"))?;
        if report.malformed != 0.0 {
            return Err(format!("node {i}'s actor saw malformed frames: {report:?}"));
        }
    }
    Ok(())
}

pub fn sorted(mut samples: Vec<u32>) -> Vec<u32> {
    samples.sort_unstable();
    samples
}

/// The `q`-quantile of each [`SLICE`] of the window (each slice
/// sorted), then the third smallest of those: the latency of a slice
/// the machine left alone. Not the smallest, because among several
/// hundred slices the best is also the luckiest draw of the arrival
/// schedule: over 36 runs of `serve_paced` the smallest p95 spread by
/// 0.07 and reached 15 % below its median, the third smallest by 0.03
/// and 6 % (CALIBRATION.md).
pub fn best_quantile(sorted_slices: &[Vec<u32>], q: f64) -> Result<f64, String> {
    let mut per_slice: Vec<f64> = sorted_slices
        .iter()
        .filter(|s| tail_is_supported(s.len(), q.max(1.0 - q)))
        .map(|s| f64::from(percentile(s, q)) / 1e3)
        .collect();
    if per_slice.is_empty() {
        return Err(format!(
            "no slice of the window has enough samples for p{}",
            q * 100.0
        ));
    }
    per_slice.sort_by(f64::total_cmp);
    Ok(per_slice[BEST_RANK.min(per_slice.len()) - 1])
}

/// The untraced run of a socket workload: the seven end-to-end metrics.
pub fn bench(name: &str, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let run = run(name, seed, Duration::from_secs(seconds), WARMUP)?;
    check_exits(&run)?;
    let load = &run.load;
    if load.ok == 0 {
        return Err("no request was answered".into());
    }
    let ok = load.ok as f64;
    let latency: Vec<Vec<u32>> = load.latency_ns.iter().cloned().map(sorted).collect();
    let mut outcome = Outcome::new(load.attempted, load.attempted - load.ok);
    outcome.end_to_end = Some(EndToEndRow {
        setup_s: run.setup.as_secs_f64(),
        // An open loop's throughput is its offered rate unless the
        // daemons fall behind, which only the whole window shows.
        throughput_ops_s: if name == spec::SERVE_PACED {
            ok / load.window.as_secs_f64()
        } else {
            run.best_throughput()?
        },
        latency_p50_us: best_quantile(&latency, 0.5)?,
        latency_tail_us: best_quantile(&latency, TAIL)?,
        ok_share: ok / load.attempted as f64,
        cpu_us_per_op: run.best_cpu_us_per_op()?,
        peak_rss_mb: run.peak_rss_mib,
    });
    outcome.note(
        "latency_samples",
        latency.iter().map(Vec::len).sum::<usize>() as f64,
    );
    outcome.note("latency_tail_quantile", TAIL);
    outcome.note("latency_slice_s", SLICE.as_secs_f64());
    outcome.note("latency_slice_rank", BEST_RANK as f64);
    for (key, q) in [
        ("latency_p90_us", 0.9),
        ("latency_p95_us", 0.95),
        ("latency_p99_us", 0.99),
    ] {
        outcome.note(key, best_quantile(&latency, q)?);
    }
    outcome.note("window_s", load.window.as_secs_f64());
    outcome.note("warmup_s", WARMUP.as_secs_f64());
    outcome.note("generator_threads", 1.0);
    outcome.note("serve_threads", 1.0);
    outcome.note("daemons", run.exits.len() as f64);
    if name == spec::SERVE_PACED {
        outcome.note("rate_req_s", PACED_RATE);
        outcome.note("pairs_checked", load.pairs_checked as f64);
        let late = sorted(load.late_ns.clone());
        outcome.note(
            "generator_late_p99_us",
            f64::from(percentile(&late, 0.99)) / 1e3,
        );
    } else {
        outcome.note("frames_in_flight", crate::loadgen::IN_FLIGHT as f64);
        outcome.note("requests_per_frame", crate::loadgen::BATCH as f64);
    }
    Ok(outcome)
}
