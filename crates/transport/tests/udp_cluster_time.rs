//! The ClusterTime acceptance test on real sockets: five
//! `tempod --cluster` processes on localhost UDP, a client pulling a
//! strictly monotonic timestamp stream, a SIGKILL of the serving
//! primary mid-stream, and a durable rejoin.
//!
//! What `experiments cluster` proves under the simulator's failover
//! storms, this proves by deployment: the stream never regresses —
//! not across the election, not across the restart, not under
//! injected datagram loss — because no timestamp is released before a
//! quorum has the high-water mark on stable storage.

use std::net::{SocketAddr, UdpSocket};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use tempo_transport::{TsOutcome, UdpClusterClient};

const CLUSTER: usize = 5;
/// Fast inner resync so replicas leave `booting` in under a second.
const PERIOD: &str = "0.2";
const WINDOW: &str = "0.1";
/// Per-node boot clock offsets (seconds). The claimed initial error
/// below must cover them — the paper's correctness precondition; a
/// primary whose interval excludes true time finds the quorum
/// intersection empty and (correctly) never acquires a lease.
const OFFSETS: [f64; CLUSTER] = [0.0, 0.05, -0.04, 0.03, -0.02];
const INITIAL_ERROR: &str = "0.1";

/// Kills every child on drop so a failing assertion never leaks
/// daemons into the test host.
struct Cluster {
    children: Vec<Option<Child>>,
    addrs: Vec<SocketAddr>,
    states: Vec<PathBuf>,
    epoch: f64,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for child in self.children.iter_mut().flatten() {
            let _ = child.kill();
            let _ = child.wait();
        }
        for state in &self.states {
            let _ = std::fs::remove_file(state);
        }
    }
}

fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let sockets: Vec<UdpSocket> = (0..n)
        .map(|_| UdpSocket::bind("127.0.0.1:0").unwrap())
        .collect();
    sockets.iter().map(|s| s.local_addr().unwrap()).collect()
}

/// Keyed by the node's port, not its index: the tests of this file run
/// in parallel in one process, and each deletes its state files.
fn state_path(port: u16) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "tempo-clustertime-{}-{port}.state",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

fn spawn_node(cluster: &Cluster, id: usize) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tempod"));
    cmd.arg("--cluster")
        .arg("--id")
        .arg(id.to_string())
        .arg("--listen")
        .arg(cluster.addrs[id].to_string())
        .arg("--offset")
        .arg(OFFSETS[id].to_string())
        .arg("--initial-error")
        .arg(INITIAL_ERROR)
        .arg("--epoch-unix")
        .arg(cluster.epoch.to_string())
        .arg("--period")
        .arg(PERIOD)
        .arg("--window")
        .arg(WINDOW)
        .arg("--seed")
        .arg(id.to_string())
        .arg("--state")
        .arg(&cluster.states[id])
        .arg("--duration")
        .arg("120")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for addr in &cluster.addrs {
        cmd.arg("--peer").arg(addr.to_string());
    }
    // One backup mistreats its outgoing datagrams: lost acks force the
    // primary through its retransmission/refusal machinery while the
    // three clean backups keep the release quorum reachable.
    if id == 3 {
        cmd.arg("--fault").arg("loss=0.2,dup=0.1");
    }
    cmd.spawn().expect("spawn tempod --cluster")
}

fn start_cluster() -> Cluster {
    let addrs = free_addrs(CLUSTER);
    let epoch = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .as_secs_f64();
    let mut cluster = Cluster {
        children: Vec::new(),
        states: addrs.iter().map(|a| state_path(a.port())).collect(),
        addrs,
        epoch,
    };
    for id in 0..CLUSTER {
        let child = spawn_node(&cluster, id);
        cluster.children.push(Some(child));
    }
    cluster
}

/// Pulls `want` issued timestamps, asserting each strictly exceeds the
/// running floor. Refusals and timeouts are tolerated (booting,
/// elections in flight); never answering is not. Returns the new floor
/// and the view of the last issue.
fn issue_monotonic(
    client: &mut UdpClusterClient,
    want: usize,
    mut floor: u64,
    what: &str,
) -> (u64, u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut got = 0;
    let mut last_view = 0;
    while got < want {
        assert!(
            Instant::now() < deadline,
            "{what}: only {got} of {want} timestamps issued"
        );
        match client.request().expect("client socket") {
            TsOutcome::Issued { timestamp, view } => {
                assert!(
                    timestamp > floor,
                    "{what}: timestamp {timestamp} regressed past {floor} (view {view})"
                );
                floor = timestamp;
                last_view = view;
                got += 1;
            }
            outcome @ (TsOutcome::Refused { .. } | TsOutcome::TimedOut) => {
                // Captured output: visible only when the test fails,
                // where the refusal pattern is the diagnosis.
                eprintln!(
                    "{what}: {outcome:?} (believed primary {})",
                    client.believed_primary()
                );
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
    (floor, last_view)
}

#[test]
fn cluster_timestamps_stay_monotonic_across_primary_sigkill_and_rejoin() {
    let mut cluster = start_cluster();
    let mut client =
        UdpClusterClient::new(cluster.addrs.clone(), Duration::from_millis(400)).unwrap();

    // Phase 1 — a working stream: the view-0 primary issues strictly
    // increasing timestamps once its embedded server leaves `booting`.
    let (floor, view) = issue_monotonic(&mut client, 40, 0, "initial stream");
    let primary = (view as usize) % CLUSTER;

    // Phase 2 — SIGKILL the serving primary mid-stream. The lease must
    // expire, a backup must win the election, and the stream must
    // continue above the old floor: the high-water mark was on a
    // quorum's disks before any of those timestamps reached us.
    let mut victim = cluster.children[primary].take().unwrap();
    victim.kill().unwrap();
    victim.wait().unwrap();
    let (floor, new_view) = issue_monotonic(&mut client, 40, floor, "post-failover stream");
    assert!(
        new_view > view,
        "failover did not advance the view ({view} -> {new_view})"
    );
    assert_ne!(
        (new_view as usize) % CLUSTER,
        primary,
        "the killed primary cannot be serving"
    );

    // Phase 3 — durable rejoin: relaunch the corpse against the same
    // state file, then kill the *second* primary too. The rejoined
    // replica participates in the next election quorum, and the stream
    // still never regresses.
    assert!(
        cluster.states[primary].exists(),
        "cluster state file should survive the kill"
    );
    cluster.children[primary] = Some(spawn_node(&cluster, primary));
    std::thread::sleep(Duration::from_secs(2));
    let second = (new_view as usize) % CLUSTER;
    let mut victim = cluster.children[second].take().unwrap();
    victim.kill().unwrap();
    victim.wait().unwrap();
    let (_, final_view) = issue_monotonic(&mut client, 40, floor, "post-rejoin stream");
    assert!(
        final_view > new_view,
        "second failover did not advance the view ({new_view} -> {final_view})"
    );
    assert_ne!(
        (final_view as usize) % CLUSTER,
        second,
        "the second killed primary cannot be serving"
    );
}

#[test]
fn exactly_one_replica_issues_the_rest_redirect_or_refuse() {
    let cluster = start_cluster();
    let mut client =
        UdpClusterClient::new(cluster.addrs.clone(), Duration::from_millis(400)).unwrap();
    let (_, _) = issue_monotonic(&mut client, 10, 0, "warmup stream");
    // Probe each replica alone: a single-address client cannot follow
    // redirects, so only the lease holder can answer with a timestamp —
    // backups redirect (reported as a timeout here) or refuse. Retry
    // the scan a few times in case an in-flight reply is lost.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let mut repliers = 0;
        for &addr in &cluster.addrs {
            let mut one = UdpClusterClient::new(vec![addr], Duration::from_millis(400)).unwrap();
            if matches!(
                one.request().expect("client socket"),
                TsOutcome::Issued { .. }
            ) {
                repliers += 1;
            }
        }
        if repliers == 1 {
            return;
        }
        assert!(
            repliers <= 1,
            "{repliers} replicas issued timestamps at once — the lease gate failed"
        );
        assert!(
            Instant::now() < deadline,
            "no replica ever answered the per-node probe"
        );
        std::thread::sleep(Duration::from_millis(200));
    }
}
