//! A sampling profiler for a box with neither `perf` nor `valgrind`: on
//! every `ITIMER_PROF` tick SIGPROF records the interrupted `RIP` and a
//! short frame-pointer walk while E20 or ClusterTime deployments run.
//!
//! ```text
//! RUSTFLAGS="-C force-frame-pointers=yes" cargo build --release --example sim_profile
//! taskset -c 1 target/release/examples/sim_profile 500 400 sharded > pcs.txt
//! taskset -c 1 target/release/examples/sim_profile audit 480 > pcs.txt
//! taskset -c 1 target/release/examples/sim_profile cluster 60 > pcs.txt
//! ```
//!
//! Arguments: servers, jobs, `sharded` (two workers, as `sim_bare`) or
//! `single`; `audit` and jobs, for `sim_audit`'s deployment; or
//! `cluster` and jobs, for `cluster_failover`'s.
//! Prints the load base, then one sample a line, innermost frame first;
//! on stderr, the run's CPU time per simulated event (deliveries plus
//! timers fired), the figure an A/B of two builds compares. DESIGN.md
//! § Observability has the rest of the recipe.

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod linux {
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    use tempo::core::{Duration, Timestamp};
    use tempo::net::{DelayModel, NetStats, Topology};
    use tempo::service::{HealthConfig, RetryPolicy, ServerFault, Strategy};
    use tempo::sim::{ClusterScenario, OracleConfig, ReplicaSpec, Scenario, ServerSpec};

    const DEPTH: usize = 8;
    const MAX_SAMPLES: usize = 1 << 16;
    /// A frame further than this above the one below it ends the walk.
    const MAX_FRAME: usize = 1 << 16;
    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    const SA_SIGINFO_RESTART: i32 = 4 | 0x1000_0000;
    /// Words into `ucontext_t` of the saved `rbp`, `rsp` and `rip`
    /// (`uc_mcontext.gregs` starts 40 bytes in).
    const RBP_RSP_RIP: [usize; 3] = [5 + 10, 5 + 15, 5 + 16];

    static TAKEN: AtomicUsize = AtomicUsize::new(0);
    static PCS: [AtomicUsize; MAX_SAMPLES * DEPTH] =
        [const { AtomicUsize::new(0) }; MAX_SAMPLES * DEPTH];

    /// glibc's `struct sigaction` on x86-64: handler, mask, flags, restorer.
    #[repr(C)]
    struct SigAction(usize, [u64; 16], i32, usize);

    extern "C" {
        fn sigaction(signum: i32, act: *const SigAction, old: *mut SigAction) -> i32;
        /// `[interval.sec, interval.usec, value.sec, value.usec]`
        fn setitimer(which: i32, new: *const [i64; 4], old: *mut [i64; 4]) -> i32;
        /// `[tv_sec, tv_nsec]`
        fn clock_gettime(clock: i32, now: *mut [i64; 2]) -> i32;
    }

    /// The CPU time this process has used so far, in nanoseconds.
    fn cpu_ns() -> i64 {
        let mut now = [0; 2];
        // SAFETY: `struct timespec` is two `i64`s on x86-64 Linux.
        let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
        assert_eq!(status, 0, "clock_gettime failed");
        now[0] * 1_000_000_000 + now[1]
    }

    extern "C" fn on_tick(_signum: i32, _info: *const u8, context: *const usize) {
        let slot = TAKEN.fetch_add(1, Relaxed);
        if slot >= MAX_SAMPLES {
            return;
        }
        // SAFETY: the kernel hands an SA_SIGINFO handler a valid
        // `ucontext_t`; the saved registers sit at the offsets above.
        let [mut rbp, mut below, rip] = RBP_RSP_RIP.map(|at| unsafe { *context.add(at) });
        PCS[slot * DEPTH].store(rip, Relaxed);
        for depth in 1..DEPTH {
            // With frame pointers forced `rbp` chains up the stack:
            // aligned, above the frame below, not far above. A leaf that
            // uses `rbp` as a plain register ends the walk here.
            if rbp < below || rbp - below > MAX_FRAME || !rbp.is_multiple_of(8) {
                break;
            }
            // SAFETY: `rbp` is at most MAX_FRAME above a live address of
            // the interrupted thread's stack, which is mapped memory.
            let (next, ret) = unsafe { (*(rbp as *const usize), *((rbp + 8) as *const usize)) };
            PCS[slot * DEPTH + depth].store(ret, Relaxed);
            (below, rbp) = (rbp + 16, next);
        }
    }

    /// E20's deployment as the benchmark's `sim_bare` builds it (every
    /// drift non-negative): cliques of 20 on lossy duplicating links,
    /// one crash–restart server and one liar in each.
    fn e20(n: usize, seed: u64) -> Scenario {
        let (secs, at) = (Duration::from_secs, Timestamp::from_secs);
        let delay = DelayModel::Uniform {
            min: Duration::ZERO,
            max: secs(0.02),
        };
        let health = HealthConfig {
            probe_every: 3,
            ..HealthConfig::default()
        };
        let mut scenario = Scenario::new(Strategy::MarzulloTolerant { max_faulty: 1 })
            .topology(Topology::disjoint_cliques(n / 20, 20))
            .delay(delay)
            .loss(0.05)
            .duplication(0.01)
            .resync_period(secs(10.0))
            .collect_window(secs(1.0))
            .retry(RetryPolicy::backoff_defaults())
            .health(health)
            .quorum(3)
            .duration(secs(60.0))
            .sample_interval(secs(5.0))
            .seed(seed);
        for i in 0..n {
            let spec = ServerSpec::honest((0.2 + 0.04 * (i % 20) as f64) * 1e-5, 1e-4);
            scenario = scenario.server(match i % 20 {
                1 => spec.server_fault(ServerFault::crash_restart(
                    at(25.0),
                    secs(10.0),
                    (i / 20) % 2 == 1,
                )),
                7 => spec.server_fault(ServerFault::lie_from(at(15.0), secs(2.0), 0.1)),
                _ => spec,
            });
        }
        scenario
    }

    /// `sim_audit`'s deployment as the benchmark builds it: E20 at
    /// n = 100 with the safety oracle (a bootstrap allowance of 32
    /// rounds, which never binds) and the JSONL export, two workers.
    fn audit(seed: u64, export: &std::path::Path) -> Scenario {
        let mut oracle = OracleConfig::safety();
        oracle.max_bootstrap_rounds = 32;
        e20(100, seed)
            .oracle(oracle)
            .telemetry_out(export)
            .sharded(2)
    }

    /// `cluster_failover`'s deployment as the benchmark builds it: eight
    /// three-replica clusters in one unsharded world, two clients each
    /// asking every 20 ms, a durable crash storm on every cluster's
    /// replica 0 (down 5 s, up 10 s, from t = 10 s), 5 ms links, and the
    /// cluster oracle armed.
    fn failover(seed: u64) -> ClusterScenario {
        let (secs, at) = (Duration::from_secs, Timestamp::from_secs);
        let honest = ReplicaSpec::honest(1e-5, 1e-4);
        let storm = ServerFault::restart_storm(at(10.0), secs(5.0), secs(10.0), false);
        ClusterScenario::new()
            .replica(honest.clone().server_fault(storm))
            .replicas(2, &honest)
            .clients(2)
            .clusters(8)
            .max_faulty(0)
            .client_period(Duration::from_millis(20.0))
            .delay(DelayModel::Constant(Duration::from_millis(5.0)))
            .duration(secs(60.0))
            .oracle(true)
            .seed(seed)
    }

    pub fn run() {
        const USAGE: &str = "usage: sim_profile <servers> <jobs> sharded|single, \
             sim_profile audit <jobs>, or sim_profile cluster <jobs>";
        let args: Vec<String> = std::env::args().skip(1).collect();
        let arg = |i: usize| args.get(i).map(String::as_str).expect(USAGE);
        let jobs: u64 = arg(1).parse().expect(USAGE);
        let export = std::env::temp_dir().join(format!("sim_profile-{}.jsonl", std::process::id()));
        let events = |net: NetStats| (net.delivered + net.timers_fired) as u64;
        let job: Box<dyn Fn(u64) -> u64> = match arg(0) {
            "cluster" => Box::new(|seed| events(failover(seed).run().net)),
            "audit" => Box::new(|seed| events(audit(seed, &export).run().net)),
            servers => {
                // E20's size and two shard threads or none (0 runs the
                // one-world engine).
                let n: usize = servers.parse().expect(USAGE);
                let threads = 2 * usize::from(arg(2) == "sharded");
                Box::new(move |seed| events(e20(n, seed).sharded(threads).run().net))
            }
        };
        let handler = on_tick as *const () as usize;
        let action = SigAction(handler, [0; 16], SA_SIGINFO_RESTART, 0);
        // Asks for 1 kHz; the kernel rounds the period up to its tick.
        let tick = [0, 1_000, 0, 1_000];
        // SAFETY: both structures match the C library's layout, and the
        // handler touches only atomics and the interrupted stack.
        let armed = unsafe {
            sigaction(SIGPROF, &action, std::ptr::null_mut()) == 0
                && setitimer(ITIMER_PROF, &tick, std::ptr::null_mut()) == 0
        };
        assert!(armed, "could not arm the profiling timer");
        let cpu = cpu_ns();
        let simulated: u64 = (1_000..1_000 + jobs).map(&job).sum();
        let cpu = cpu_ns() - cpu;
        assert!(simulated > 0, "the jobs simulated nothing");
        // SAFETY: a zero interval and value disarm the timer.
        unsafe { setitimer(ITIMER_PROF, &[0; 4], std::ptr::null_mut()) };
        let _ = std::fs::remove_file(&export);
        let per_event = cpu as f64 / simulated as f64;
        eprintln!("{simulated} simulated events, {per_event:.1} CPU ns each");
        let maps = std::fs::read_to_string("/proc/self/maps").expect("procfs");
        println!("base 0x{}", maps.split('-').next().expect("a mapping"));
        for sample in PCS.chunks(DEPTH).take(TAKEN.load(Relaxed)) {
            let pcs = sample.iter().map(|pc| pc.load(Relaxed));
            let frames = pcs.take_while(|&pc| pc != 0).map(|pc| format!("{pc:#x} "));
            println!("{}", frames.collect::<String>());
        }
    }
}

fn main() {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    linux::run();
}
