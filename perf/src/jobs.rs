//! The three simulated-time workloads: a fixed number of seeded jobs,
//! each one `run()` of a deployment built from the public scenario
//! builders, timed on the host clock and checked against the oracle.

use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tempo_core::{Duration as SimDuration, Timestamp};
use tempo_net::{DelayModel, Topology};
use tempo_service::{HealthConfig, RetryPolicy, ServerFault, Strategy};
use tempo_sim::{
    ClusterRunResult, ClusterScenario, OracleConfig, ReplicaSpec, RunResult, Scenario, ServerSpec,
};
use tempo_telemetry::json::validate_stream;

use crate::json::{as_f64, parse};
use crate::outcome::{EndToEndRow, Outcome};
use crate::spec;
use crate::stats::{percentile, tail_is_supported};
use crate::sys;

/// Jobs per second of `--seconds`, fixed so the driver's 24 s run lasts
/// 15–25 s on the two-core calibration machine (CALIBRATION.md). The
/// count, not the clock, ends a job workload: that is what lets every
/// *exact* counter repeat under a seed.
fn jobs_per_second(workload: &str) -> f64 {
    match workload {
        spec::CLUSTER_FAILOVER => 20.0,
        spec::SIM_BARE => 16.0,
        _ => 20.0,
    }
}

/// Fewer jobs than this cannot carry a p90 with ten samples beyond it.
const MIN_JOBS: usize = 100;
/// The tail the job workloads report.
pub const TAIL: f64 = 0.9;

pub fn job_count(workload: &str, seconds: u64) -> usize {
    ((jobs_per_second(workload) * seconds as f64).round() as usize).max(MIN_JOBS)
}

/// Untimed jobs run before the window, as part of set-up, until this
/// much time has passed.
pub const WARMUP: Duration = Duration::from_secs(1);

// --- the E20 deployment, rebuilt from the public `Scenario` API -----------

/// Servers per clique.
pub const CLIQUE: usize = 20;
/// Index within each clique of the crash–restart server.
pub const CRASHER: usize = 1;
/// Index within each clique of the liar.
pub const LIAR: usize = 7;
const TAU: f64 = 10.0;
pub const SIM_SECONDS: f64 = 60.0;

/// Whether server `i` is expected to stay correct.
pub fn is_honest(i: usize) -> bool {
    !matches!(i % CLIQUE, CRASHER | LIAR)
}

/// E20's fault-laden deployment (`crates/sim/src/experiments/scale10k.rs`
/// keeps its builder private): `n / 20` disjoint cliques of 20 under a
/// uniform 0–20 ms delay, 5 % loss and 1 % duplication, one
/// crash–restart server (odd cliques lose their state) and one liar per
/// clique, `MarzulloTolerant{1}`, 60 simulated seconds sampled every 5.
///
/// One departure: E20 alternates the sign of the drift from server to
/// server, and here every clock runs fast. A server whose clock runs
/// slow can livelock the simulator — `TimeServer::handle_timeout`
/// re-arms a request's time-out with the own-clock remainder, which
/// shrinks below the resolution of simulated time without reaching
/// zero, and the timer then fires for ever at one instant (seed 25 at
/// n = 1,000 does it at t = 32.0003 s). About one seed in a hundred
/// hangs that way, and a workload of a hundred seeds cannot have that.
pub fn e20(n: usize, seed: u64) -> Scenario {
    assert!(
        n.is_multiple_of(CLIQUE),
        "deployment size must be a multiple of {CLIQUE}"
    );
    let mut scenario = Scenario::new(Strategy::MarzulloTolerant { max_faulty: 1 })
        .topology(Topology::disjoint_cliques(n / CLIQUE, CLIQUE))
        .delay(DelayModel::Uniform {
            min: SimDuration::ZERO,
            max: SimDuration::from_millis(20.0),
        })
        .loss(0.05)
        .duplication(0.01)
        .resync_period(SimDuration::from_secs(TAU))
        .collect_window(SimDuration::from_secs(1.0))
        .retry(RetryPolicy::Backoff {
            timeout: SimDuration::from_millis(100.0),
            max_retries: 3,
            multiplier: 2.0,
            jitter: 0.1,
        })
        .health(HealthConfig {
            suspect_after: 2,
            dead_after: 6,
            probe_every: 3,
        })
        .quorum(3)
        .duration(SimDuration::from_secs(SIM_SECONDS))
        .sample_interval(SimDuration::from_secs(TAU / 2.0))
        .seed(seed);
    for i in 0..n {
        let frac = 0.2 + 0.8 * ((i % CLIQUE) as f64) / CLIQUE as f64;
        let mut server = ServerSpec::honest(frac * 1e-5, 1e-4);
        match i % CLIQUE {
            CRASHER => {
                server = server.server_fault(ServerFault::crash_restart(
                    Timestamp::from_secs(25.0),
                    SimDuration::from_secs(10.0),
                    (i / CLIQUE) % 2 == 1,
                ));
            }
            LIAR => {
                server = server.server_fault(ServerFault::lie_from(
                    Timestamp::from_secs(15.0),
                    SimDuration::from_secs(2.0),
                    0.1,
                ));
            }
            _ => {}
        }
        scenario = scenario.server(server);
    }
    scenario
}

/// `sim_bare`: no oracle, no export, two shard threads. Half of E20's
/// n = 1,000: a job of 88 ms made a stretch of ten last 0.9 s, and in a
/// bad quarter of an hour the machine leaves no 0.9 s undisturbed (the
/// p90 spread over ten runs was 0.18, against 0.03 on the two
/// workloads whose jobs take 40 ms); 25 cliques are a job of 43 ms.
pub const BARE_N: usize = 500;
/// `sim_audit`: n = 100, the size E20 arms the oracle at.
pub const AUDIT_N: usize = 100;
pub const SHARD_THREADS: usize = 2;

pub fn bare(seed: u64) -> Scenario {
    e20(BARE_N, seed).sharded(SHARD_THREADS)
}

/// The oracle E20 arms — safety — with a bootstrap allowance that never
/// binds. E20 allows 16 rounds because a quorum-3 bootstrap under 5 %
/// loss can need more than `safety()`'s 8; over hundreds of seeds it
/// sometimes needs more than 16 too (seed 1320 takes 17), and that is
/// slow luck, not a broken theorem. The restart comes at t = 35 s and a
/// round lasts a second, so at most 25 fit before the run ends.
pub fn audit_oracle() -> OracleConfig {
    let mut config = OracleConfig::safety();
    config.max_bootstrap_rounds = 32;
    config
}

pub fn audit(seed: u64, export: &Path) -> Scenario {
    e20(AUDIT_N, seed)
        .oracle(audit_oracle())
        .telemetry_out(export)
        .sharded(SHARD_THREADS)
}

// --- the ClusterTime failover deployment ------------------------------------

pub const CLUSTERS: usize = 8;
pub const REPLICAS: usize = 3;
pub const CLIENTS: usize = 2;
pub const CLIENT_PERIOD_MS: f64 = 20.0;
/// The one-way delay every link has. Stated because with instant
/// delivery a timestamp's latency would be processor time only.
pub const LINK_DELAY_MS: f64 = 5.0;

/// Eight disjoint three-replica clusters (`f = 0`), two audit clients
/// each asking every 20 ms, and E21's durable crash storm on the view-0
/// primary of every cluster: down 5 s, up 10 s, from t = 10 s. Clients
/// keep to their schedule while no primary exists, so refusals and
/// time-outs are counted.
pub fn failover(seed: u64) -> ClusterScenario {
    let honest = ReplicaSpec::honest(1e-5, 1e-4);
    let storm = ServerFault::restart_storm(
        Timestamp::from_secs(10.0),
        SimDuration::from_secs(5.0),
        SimDuration::from_secs(10.0),
        false,
    );
    ClusterScenario::new()
        .replica(honest.clone().server_fault(storm))
        .replicas(REPLICAS - 1, &honest)
        .clients(CLIENTS)
        .clusters(CLUSTERS)
        .max_faulty(0)
        .client_period(SimDuration::from_millis(CLIENT_PERIOD_MS))
        .delay(DelayModel::Constant(SimDuration::from_millis(
            LINK_DELAY_MS,
        )))
        .duration(SimDuration::from_secs(SIM_SECONDS))
        .oracle(true)
        .seed(seed)
}

// --- per-job accounting --------------------------------------------------------

/// Counters that merge across jobs by maximum; the rest add.
const MERGE_BY_MAX: [&str; 2] = [
    "cluster.replica.highest_view",
    "sim.metrics.max_asynchronism_ms",
];

/// What one checked job contributes.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Ok operations, in `throughput_ops_s`'s unit.
    pub ops: u64,
    /// Attempted and failed operations, in `ok_share`'s unit.
    pub attempted: u64,
    pub failed: u64,
    /// *Exact* counters, in a fixed order.
    pub counters: Vec<(&'static str, f64)>,
}

impl Tally {
    pub fn merge(&mut self, other: &Tally) {
        self.ops += other.ops;
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.counters.is_empty() {
            self.counters.clone_from(&other.counters);
            return;
        }
        for (mine, theirs) in self.counters.iter_mut().zip(&other.counters) {
            debug_assert_eq!(mine.0, theirs.0);
            mine.1 = if MERGE_BY_MAX.contains(&mine.0) {
                mine.1.max(theirs.1)
            } else {
                mine.1 + theirs.1
            };
        }
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0.0, |&(_, v)| v)
    }

    /// The merged counters with the per-job means and ratios derived.
    pub fn finished(mut self, jobs: usize) -> Tally {
        let sent = self.counter("net.world.sent");
        let issued = self.counter("cluster.replica.issued");
        for (name, value) in &mut self.counters {
            match *name {
                "sim.metrics.mean_error_ms" | "sim.engine.components" => *value /= jobs as f64,
                "cluster.replica.msgs_per_ts" => *value = sent / issued,
                _ => {}
            }
        }
        self
    }
}

fn net_counters(net: &tempo_net::NetStats, counters: &mut Vec<(&'static str, f64)>) {
    counters.push((
        "net.world.events",
        (net.delivered + net.timers_fired) as f64,
    ));
    counters.push(("net.world.sent", net.sent as f64));
    counters.push(("net.world.lost", net.lost as f64));
    counters.push(("net.world.duplicated", net.duplicated as f64));
}

/// The largest clock separation `max |C_i − C_j|` any sample saw, as
/// `RunResult::max_asynchronism` defines it, found from each row's
/// extremes instead of from every pair: at n = 1,000 the pairwise scan
/// costs a fifth of the job it checks.
fn max_asynchronism_ms(result: &RunResult) -> f64 {
    let mut worst = 0.0f64;
    for row in &result.samples {
        let clocks = row.per_server.iter().map(|s| s.clock.as_secs());
        let (lo, hi) = clocks.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), c| {
            (lo.min(c), hi.max(c))
        });
        worst = worst.max(hi - lo);
    }
    worst * 1e3
}

/// Checks one finished E20 job and counts it. An operation is one
/// simulated event; `ok_share` counts honest server-samples.
pub fn tally_sim(result: &RunResult, audited: bool) -> Result<Tally, String> {
    let n = result.final_stats.len();
    let honest = (0..n).filter(|&i| is_honest(i)).count();
    let wrong: usize = result
        .violations_per_server()
        .iter()
        .enumerate()
        .filter(|&(i, _)| is_honest(i))
        .map(|(_, &v)| v)
        .sum();
    if wrong != 0 {
        return Err(format!("{wrong} honest server-samples were incorrect"));
    }
    let mut counters = Vec::with_capacity(16);
    net_counters(&result.net, &mut counters);
    let rounds: usize = result.final_stats.iter().map(|s| s.rounds).sum();
    let resets: usize = result.final_stats.iter().map(|s| s.resets).sum();
    counters.push(("service.server.rounds", rounds as f64));
    counters.push(("service.server.resets", resets as f64));
    counters.push(("telemetry.bus.dropped_events", result.dropped_events as f64));
    counters.push(("sim.engine.components", (n / CLIQUE) as f64));
    counters.push((
        "sim.metrics.mean_error_ms",
        result.last().mean_error().as_secs() * 1e3,
    ));
    counters.push((
        "sim.metrics.max_asynchronism_ms",
        max_asynchronism_ms(result),
    ));
    if audited {
        let report = result.oracle.as_ref().ok_or("the oracle was not armed")?;
        if !report.is_clean() {
            return Err(format!("the oracle reported violations:\n{report}"));
        }
        counters.push(("oracle.samples_checked", report.samples_checked as f64));
        counters.push(("oracle.rounds_checked", report.rounds_checked as f64));
        counters.push(("oracle.violations", report.total_violations as f64));
    }
    let events = (result.net.delivered + result.net.timers_fired) as u64;
    Ok(Tally {
        ops: events,
        attempted: (honest * result.samples.len()) as u64,
        failed: 0,
        counters,
    })
}

/// The `summary` footer of a JSONL export and the file's length: how
/// many events the bus emitted, how many its ring dropped, how many
/// bytes the encoder wrote. Reads the tail only; the whole stream is
/// validated once per run, outside the window.
pub fn export_footer(path: &Path) -> Result<[(&'static str, f64); 2], String> {
    let fail = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut file = std::fs::File::open(path).map_err(fail)?;
    let len = file.metadata().map_err(fail)?.len();
    file.seek(SeekFrom::Start(len.saturating_sub(512)))
        .map_err(fail)?;
    let mut tail = String::new();
    file.read_to_string(&mut tail).map_err(fail)?;
    let last = tail.lines().last().ok_or("empty export")?;
    let summary = parse(last).map_err(|e| format!("export footer: {e}"))?;
    let events = summary
        .get("events")
        .and_then(as_f64)
        .ok_or("export footer has no event count")?;
    Ok([
        ("telemetry.bus.events_emitted", events),
        ("telemetry.json.bytes_written", len as f64),
    ])
}

/// Checks one finished failover job and counts it. An operation is one
/// timestamp an audit client obtained.
pub fn tally_cluster(result: &ClusterRunResult) -> Result<Tally, String> {
    if !result.oracle_clean() {
        return Err(format!(
            "the cluster oracle reported {} violations",
            result.oracle_violations()
        ));
    }
    if result.client_regressions() != 0 {
        return Err(format!(
            "clients saw {} timestamp regressions",
            result.client_regressions()
        ));
    }
    let sum = |f: &dyn Fn(&tempo_sim::ReplicaOutcome) -> usize| -> f64 {
        result.replicas().map(f).sum::<usize>() as f64
    };
    let client =
        |f: &dyn Fn(&tempo_sim::ClientOutcome) -> usize| -> usize { result.clients().map(f).sum() };
    let issued = client(&|c| c.stats.issued);
    let refused = client(&|c| c.stats.refused);
    let timeouts = client(&|c| c.stats.timeouts);
    let reports = result
        .oracle
        .as_ref()
        .ok_or("the cluster oracle was not armed")?;
    let mut counters = Vec::with_capacity(20);
    net_counters(&result.net, &mut counters);
    counters.push(("service.server.rounds", sum(&|r| r.server.rounds)));
    counters.push(("service.server.resets", sum(&|r| r.server.resets)));
    counters.push(("telemetry.bus.dropped_events", result.dropped_events as f64));
    counters.push(("cluster.replica.issued", result.issued() as f64));
    counters.push(("cluster.replica.refused", result.refused() as f64));
    counters.push((
        "cluster.replica.elections_won",
        result.elections_won() as f64,
    ));
    counters.push((
        "cluster.replica.leases_expired",
        sum(&|r| r.stats.leases_expired),
    ));
    counters.push(("cluster.replica.highest_view", result.highest_view() as f64));
    counters.push(("cluster.replica.msgs_per_ts", 0.0));
    counters.push(("cluster.client.timeouts", timeouts as f64));
    counters.push(("cluster.client.refused", refused as f64));
    counters.push((
        "cluster.client.redirected",
        client(&|c| c.stats.redirected) as f64,
    ));
    counters.push((
        "oracle.cluster.issues_checked",
        reports.iter().map(|r| r.issues_checked).sum::<usize>() as f64,
    ));
    counters.push((
        "oracle.cluster.violations",
        reports.iter().map(|r| r.total_violations).sum::<usize>() as f64,
    ));
    Ok(Tally {
        ops: issued as u64,
        attempted: (issued + refused + timeouts) as u64,
        failed: (refused + timeouts) as u64,
        counters,
    })
}

// --- the job loop ------------------------------------------------------------------

/// One seeded job: runs the deployment, returns the host time `run()`
/// took and the checked tally.
pub type Job = Box<dyn Fn() -> Result<(Duration, Tally), String>>;

pub fn timed<R>(run: impl FnOnce() -> R) -> (Duration, R) {
    let started = Instant::now();
    let result = run();
    (started.elapsed(), result)
}

pub fn export_path(workload: &str) -> Result<PathBuf, String> {
    Ok(sys::out_dir(workload)?.join("job.jsonl"))
}

/// Builds job `i` of `workload` for master seed `seed`: the spec is
/// built here (set-up), the returned closure only runs and checks it.
pub fn build_job(workload: &str, seed: u64, i: usize) -> Result<Job, String> {
    let seed = seed.wrapping_add(i as u64);
    Ok(match workload {
        spec::CLUSTER_FAILOVER => {
            let scenario = failover(seed);
            Box::new(move || {
                let (wall, result) = timed(|| scenario.run());
                Ok((wall, tally_cluster(&result)?))
            })
        }
        spec::SIM_BARE => {
            let scenario = bare(seed);
            Box::new(move || {
                let (wall, result) = timed(|| scenario.run());
                Ok((wall, tally_sim(&result, false)?))
            })
        }
        spec::SIM_AUDIT => {
            let export = export_path(workload)?;
            let scenario = audit(seed, &export);
            Box::new(move || {
                let (wall, result) = timed(|| scenario.run());
                let mut tally = tally_sim(&result, true)?;
                tally.counters.extend(export_footer(&export)?);
                Ok((wall, tally))
            })
        }
        other => return Err(format!("{other} is not a job workload")),
    })
}

/// Every timing metric is that of the best stretch of this many
/// consecutive jobs, every stretch of the run being a candidate (job 0
/// to 9, 1 to 10, and so on). The calibration machine drops into a
/// slower gear for a few tenths of a second to a few seconds at a time
/// (jobs of 87 ms took 100 to 180, with no steal time recorded), in a
/// bad quarter of an hour for half of a run, so neither the whole
/// window nor the median stretch repeats; the fastest stretch does,
/// because interference only ever slows a job down. Ten jobs are 0.4 s
/// of work: short enough that a run in a bad quarter of an hour still
/// holds one undisturbed stretch, long enough for a p90 that is not the
/// stretch's slowest job. Every stretch, not disjoint groups: a quiet
/// stretch need not start where a group does, and with groups the p90's
/// spread over ten runs was 0.13 to 0.16 where this left 0.04
/// (CALIBRATION.md).
pub const STRETCH: usize = 10;

/// What the measured jobs of one run add up to.
pub struct JobsRun {
    pub setup: Duration,
    pub warmup_jobs: usize,
    pub window: Duration,
    pub peak_rss_mib: f64,
    /// Host time of each job's `run()`, nanoseconds, in run order.
    pub job_ns: Vec<u64>,
    /// Ok operations of each job.
    pub job_ops: Vec<u64>,
    /// The host clock and this process's CPU time before each job and
    /// after the last: one entry more than there are jobs. A job's
    /// checks fall between its `run()` and the next mark.
    pub marks: Vec<(Instant, Duration)>,
    pub tally: Tally,
}

/// One stretch of [`STRETCH`] consecutive jobs.
pub struct Stretch {
    pub wall: Duration,
    pub cpu: Duration,
    pub ops: u64,
    /// Host time of each job's `run()`, nanoseconds, ascending.
    pub job_ns: Vec<u64>,
}

impl JobsRun {
    /// Every stretch of `len` consecutive jobs, or the whole run when it
    /// is shorter than that.
    pub fn stretches(&self, len: usize) -> impl Iterator<Item = Stretch> + '_ {
        let jobs = self.job_ns.len();
        let len = len.min(jobs);
        (0..=jobs - len).map(move |i| {
            let (from, to) = (self.marks[i], self.marks[i + len]);
            let mut job_ns = self.job_ns[i..i + len].to_vec();
            job_ns.sort_unstable();
            Stretch {
                wall: to.0.duration_since(from.0),
                cpu: to.1.saturating_sub(from.1),
                ops: self.job_ops[i..i + len].iter().sum(),
                job_ns,
            }
        })
    }
}

/// Set-up (build every measured job's spec, then run warm-up jobs until
/// [`WARMUP`] has passed), then the window: `jobs` jobs back to back,
/// seeds `seed..seed + jobs`; warm-up jobs use the seeds after those. The whole process is held to one core (the
/// last it may use), shard threads included: with two threads racing
/// for two cores that something else also wants, a job's length swung
/// by a quarter from run to run, and on one core it repeats. The
/// sharded engine's set-up and merge are exercised all the same.
pub fn run(workload: &str, seed: u64, jobs: usize) -> Result<JobsRun, String> {
    let core = *sys::allowed_cpus()?.last().ok_or("no CPU to run on")?;
    sys::pin_to(&[core])?;
    let started = Instant::now();
    let measured: Vec<Job> = (0..jobs)
        .map(|i| build_job(workload, seed, i))
        .collect::<Result<_, _>>()?;
    let warming = Instant::now();
    let mut warmup_jobs = 0;
    while warming.elapsed() < WARMUP {
        build_job(workload, seed, jobs + warmup_jobs)?()?;
        warmup_jobs += 1;
    }
    let me = std::process::id();
    let opened = Instant::now();
    let setup = opened.duration_since(started);
    let mut job_ns = Vec::with_capacity(jobs);
    let mut job_ops = Vec::with_capacity(jobs);
    let mut marks = Vec::with_capacity(jobs + 1);
    let mut tally = Tally::default();
    for job in &measured {
        marks.push((Instant::now(), sys::own_cpu_time()?));
        let (wall, one) = job()?;
        job_ns.push(wall.as_nanos() as u64);
        job_ops.push(one.ops);
        tally.merge(&one);
    }
    marks.push((Instant::now(), sys::own_cpu_time()?));
    let window = opened.elapsed();
    let peak_rss_mib = sys::peak_rss_mib(me)?;
    if workload == spec::SIM_AUDIT {
        // The export of the last job is still on disk; every job
        // truncates the one before it.
        let path = export_path(workload)?;
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        validate_stream(&text).map_err(|e| format!("JSONL export fails its schema: {e}"))?;
    }
    Ok(JobsRun {
        setup,
        warmup_jobs,
        window,
        peak_rss_mib,
        job_ns,
        job_ops,
        marks,
        tally: tally.finished(jobs),
    })
}

/// The untraced run of a job workload: the seven end-to-end metrics
/// and every *exact* counter.
pub fn bench(workload: &str, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let jobs = job_count(workload, seconds);
    let run = run(workload, seed, jobs)?;
    if !tail_is_supported(jobs, TAIL) {
        return Err(format!("{jobs} jobs cannot carry a p90"));
    }
    if run.job_ops.contains(&0) {
        return Err("a job completed no operation".into());
    }
    let stretches: Vec<Stretch> = run.stretches(STRETCH).collect();
    let least =
        |value: &dyn Fn(&Stretch) -> f64| stretches.iter().map(value).fold(f64::INFINITY, f64::min);
    let mut outcome = Outcome::new(run.tally.attempted, run.tally.failed);
    outcome.end_to_end = Some(EndToEndRow {
        setup_s: run.setup.as_secs_f64(),
        throughput_ops_s: 1.0 / least(&|s| s.wall.as_secs_f64() / s.ops as f64),
        latency_p50_us: least(&|s| percentile(&s.job_ns, 0.5) as f64 / 1e3),
        latency_tail_us: least(&|s| percentile(&s.job_ns, TAIL) as f64 / 1e3),
        ok_share: (run.tally.attempted - run.tally.failed) as f64 / run.tally.attempted as f64,
        cpu_us_per_op: least(&|s| s.cpu.as_secs_f64() * 1e6 / s.ops as f64),
        peak_rss_mb: run.peak_rss_mib,
    });
    outcome.exact = run.tally.counters;
    outcome.note("jobs", jobs as f64);
    outcome.note("jobs_per_stretch", STRETCH as f64);
    outcome.note("warmup_jobs", run.warmup_jobs as f64);
    outcome.note("latency_samples", jobs as f64);
    outcome.note("latency_tail_quantile", TAIL);
    outcome.note("window_s", run.window.as_secs_f64());
    outcome.note("simulated_s_per_job", SIM_SECONDS);
    outcome.note(
        "shard_threads",
        if workload == spec::CLUSTER_FAILOVER {
            0.0
        } else {
            SHARD_THREADS as f64
        },
    );
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One small audited job: a single clique for 20 simulated seconds.
    fn tiny_audit(seed: u64, tag: &str) -> Tally {
        let export = sys::out_dir("test")
            .unwrap()
            .join(format!("tiny-audit-{tag}.jsonl"));
        let scenario = e20(CLIQUE, seed)
            .duration(SimDuration::from_secs(20.0))
            .oracle(audit_oracle())
            .telemetry_out(&export)
            .sharded(SHARD_THREADS);
        let mut tally = tally_sim(&scenario.run(), true).unwrap();
        tally.counters.extend(export_footer(&export).unwrap());
        let text = std::fs::read_to_string(&export).unwrap();
        validate_stream(&text).unwrap();
        std::fs::remove_file(&export).unwrap();
        tally.finished(1)
    }

    #[test]
    fn two_runs_of_one_tiny_audit_job_give_identical_exact_counters() {
        let first = tiny_audit(42, "a");
        let second = tiny_audit(42, "b");
        assert!(first.ops > 0 && first.attempted > 0);
        assert_eq!(first.counters.len(), second.counters.len());
        for (a, b) in first.counters.iter().zip(&second.counters) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "{} differs", a.0);
        }
        // Every counter `check` demands of sim_audit is there.
        for name in spec::exact_counters(spec::SIM_AUDIT) {
            assert!(
                first.counters.iter().any(|(k, _)| *k == name),
                "{name} missing"
            );
        }
        // And a different seed is a different run.
        let other = tiny_audit(43, "c");
        assert_ne!(first.counters, other.counters);
    }

    #[test]
    fn tallies_merge_by_sum_and_by_maximum() {
        let one = Tally {
            ops: 10,
            attempted: 12,
            failed: 2,
            counters: vec![
                ("net.world.sent", 5.0),
                ("cluster.replica.highest_view", 2.0),
            ],
        };
        let two = Tally {
            ops: 1,
            attempted: 1,
            failed: 0,
            counters: vec![
                ("net.world.sent", 7.0),
                ("cluster.replica.highest_view", 1.0),
            ],
        };
        let mut total = Tally::default();
        total.merge(&one);
        total.merge(&two);
        assert_eq!((total.ops, total.attempted, total.failed), (11, 13, 2));
        assert_eq!(
            total.counters,
            vec![
                ("net.world.sent", 12.0),
                ("cluster.replica.highest_view", 2.0)
            ]
        );
    }

    #[test]
    fn job_counts_keep_a_p90_reportable() {
        for w in [spec::CLUSTER_FAILOVER, spec::SIM_BARE, spec::SIM_AUDIT] {
            assert!(tail_is_supported(job_count(w, 1), TAIL));
            assert!(job_count(w, 20) >= job_count(w, 10));
        }
    }

    #[test]
    fn the_failover_deployment_fails_over_and_stays_clean() {
        let result = failover(9).duration(SimDuration::from_secs(20.0)).run();
        let tally = tally_cluster(&result).unwrap();
        assert!(tally.ops > 0);
        assert!(
            result.elections_won() > 0,
            "the storm must force an election"
        );
        assert!(
            tally.failed > 0,
            "requests due while no primary exists are counted"
        );
        for name in spec::exact_counters(spec::CLUSTER_FAILOVER) {
            assert!(
                tally.counters.iter().any(|(k, _)| *k == name),
                "{name} missing"
            );
        }
    }
}
