//! The real-network acceptance test: five `tempod` processes on
//! localhost UDP, with socket-level fault injection, a SIGKILL +
//! durable restart, and a garbage-datagram blast.
//!
//! What the simulator proves by construction, this proves by
//! deployment: pairwise consistency (every two servers' intervals
//! share an instant) holds under real loss/duplication/delay, a
//! killed server rehydrates `(r_i, ε_i)` from its `--state` file and
//! rejoins with its error grown — not reset — and malformed datagrams
//! die in the codec without taking a server down.

use std::net::{SocketAddr, UdpSocket};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use tempo_core::TimeEstimate;
use tempo_oracle::rules::consistency;
use tempo_transport::{ClusterReading, ServerReading, UdpTimeClient};

const CLUSTER: usize = 5;
/// Fast rounds so the cluster converges in a couple of seconds.
const PERIOD: &str = "0.2";
const WINDOW: &str = "0.1";
/// Per-node boot clock offsets (seconds): node 0 is the good clock.
const OFFSETS: [f64; CLUSTER] = [0.0, 0.15, -0.12, 0.08, -0.05];
/// Node 0 claims a tight error; the rest boot loose and adopt.
const ERRORS: [f64; CLUSTER] = [0.02, 0.5, 0.5, 0.5, 0.5];

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
    // Bind ephemeral ports, record them, release. A race with another
    // process is possible but vanishingly unlikely on loopback.
    let sockets: Vec<UdpSocket> = (0..n)
        .map(|_| UdpSocket::bind("127.0.0.1:0").unwrap())
        .collect();
    sockets.iter().map(|s| s.local_addr().unwrap()).collect()
}

fn state_path(tag: &str, id: usize) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "tempo-cluster-{tag}-{}-{id}.state",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// The per-node fault plans: nodes 1 and 2 mistreat their outgoing
/// datagrams; everyone's receive path faces the consequences.
fn fault_for(id: usize) -> Option<&'static str> {
    match id {
        1 => Some("loss=0.25,dup=0.15"),
        2 => Some("delay=0.3:0.005:0.03,truncate=0.1,garbage=0.05"),
        _ => None,
    }
}

fn spawn_node(cluster: &Cluster, id: usize) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tempod"));
    cmd.arg("--id")
        .arg(id.to_string())
        .arg("--listen")
        .arg(cluster.addrs[id].to_string())
        .arg("--offset")
        .arg(OFFSETS[id].to_string())
        .arg("--epoch-unix")
        .arg(cluster.epoch.to_string())
        .arg("--initial-error")
        .arg(ERRORS[id].to_string())
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
    if let Some(fault) = fault_for(id) {
        cmd.arg("--fault").arg(fault);
    }
    cmd.spawn().expect("spawn tempod")
}

fn start_cluster(tag: &str) -> Cluster {
    let addrs = free_addrs(CLUSTER);
    let epoch = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .as_secs_f64();
    let mut cluster = Cluster {
        children: Vec::new(),
        addrs,
        states: (0..CLUSTER).map(|i| state_path(tag, i)).collect(),
        epoch,
    };
    for id in 0..CLUSTER {
        let child = spawn_node(&cluster, id);
        cluster.children.push(Some(child));
    }
    cluster
}

/// Queries until at least `want` servers answer, retrying through
/// injected loss; panics if the cluster never gets there.
fn query_at_least(client: &mut UdpTimeClient, want: usize, what: &str) -> ClusterReading {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let reading = client.query().expect("client socket");
        if reading.readings.len() >= want {
            return reading;
        }
        assert!(
            Instant::now() < deadline,
            "{what}: only {} of {want} servers answered",
            reading.readings.len()
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Pairwise consistency: every two adjusted intervals, normalised to
/// a common local instant, must overlap — the oracle's §5 row, with
/// half of `slack` added to each side's error. `slack` absorbs what the
/// readings cannot see — scheduling hiccups between the two receive
/// instants and in-flight clock slew.
fn assert_pairwise_consistent(readings: &[ServerReading], slack: f64, what: &str) {
    let reference = readings
        .iter()
        .map(|r| r.received_at)
        .max()
        .expect("nonempty readings");
    let widened = |r: &ServerReading| {
        let e = r.adjusted_at(reference);
        TimeEstimate::new(
            e.time(),
            e.error() + tempo_core::Duration::from_secs(slack / 2.0),
        )
    };
    for (i, a) in readings.iter().enumerate() {
        for (j, b) in readings.iter().enumerate().skip(i + 1) {
            let check = consistency((i, j), widened(a), widened(b));
            if let Some(breach) = check.breach {
                panic!(
                    "{what}: servers {} and {} inconsistent: gap {:.6}s > budget {:.6}s",
                    a.from, b.from, breach.observed, breach.bound
                );
            }
        }
    }
}

#[test]
fn five_node_cluster_survives_loss_sigkill_and_garbage() {
    let mut cluster = start_cluster("main");
    let mut client = UdpTimeClient::new(cluster.addrs.clone(), Duration::from_millis(500)).unwrap();

    // Phase 1 — convergence under injected loss/dup/delay/garbage.
    // Several rounds at 200 ms each, plus retry backoff headroom.
    std::thread::sleep(Duration::from_secs(3));
    let reading = query_at_least(&mut client, CLUSTER, "converged cluster");
    assert_pairwise_consistent(&reading.readings, 0.05, "converged cluster");
    // The loose-booted nodes must actually have synchronised: nobody
    // still claims their boot-time half-second error.
    for r in &reading.readings {
        assert!(
            r.estimate.error().as_secs() < 0.4,
            "server {} never tightened its error ({})",
            r.from,
            r.estimate.error()
        );
    }

    // Phase 2 — SIGKILL node 4, relaunch against the same state file.
    let mut victim = cluster.children[4].take().unwrap();
    victim.kill().unwrap();
    victim.wait().unwrap();
    assert!(
        cluster.states[4].exists(),
        "state file should survive the kill"
    );
    std::thread::sleep(Duration::from_millis(300));
    cluster.children[4] = Some(spawn_node(&cluster, 4));
    std::thread::sleep(Duration::from_secs(2));
    let reading = query_at_least(&mut client, CLUSTER, "restarted cluster");
    let revived = reading
        .readings
        .iter()
        .find(|r| r.from == cluster.addrs[4])
        .expect("restarted server answers");
    // Rehydration, not amnesia: the relaunched server's error derives
    // from the persisted post-sync epsilon (grown across downtime),
    // nowhere near the 0.5 s a fresh boot would claim.
    assert!(
        revived.estimate.error().as_secs() < 0.4,
        "restarted server error {} looks like a fresh boot, not rehydration",
        revived.estimate.error()
    );
    assert_pairwise_consistent(&reading.readings, 0.05, "restarted cluster");

    // Phase 3 — garbage blast: hundreds of malformed datagrams at
    // every server, from truncated headers to checksum-valid-length
    // noise. Nobody may crash; everybody must keep serving.
    let attacker = UdpSocket::bind("127.0.0.1:0").unwrap();
    let mut noise = 0x9e3779b97f4a7c15u64;
    for round in 0..60 {
        for &addr in &cluster.addrs {
            let mut frame = [0u8; 40];
            for byte in frame.iter_mut() {
                noise = noise.wrapping_mul(6364136223846793005).wrapping_add(round);
                *byte = (noise >> 33) as u8;
            }
            // Cycle shapes: pure noise, magic-prefixed noise, and
            // truncated-at-every-length frames.
            let shape = (round as usize) % 3;
            if shape == 1 {
                frame[0] = 0x7e;
                frame[1] = 0x30;
            }
            let len = if shape == 2 {
                (round as usize) % 38
            } else {
                40
            };
            attacker.send_to(&frame[..len.max(1)], addr).unwrap();
        }
    }
    std::thread::sleep(Duration::from_millis(700));
    for (id, slot) in cluster.children.iter_mut().enumerate() {
        let child = slot.as_mut().unwrap();
        assert!(
            child.try_wait().unwrap().is_none(),
            "server {id} died during the garbage blast"
        );
    }
    let reading = query_at_least(&mut client, CLUSTER, "post-garbage cluster");
    assert_pairwise_consistent(&reading.readings, 0.05, "post-garbage cluster");
}

#[test]
fn tempod_duration_exit_is_graceful_and_reports() {
    let addrs = free_addrs(2);
    let epoch = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .as_secs_f64();
    let mut telemetry = std::env::temp_dir();
    telemetry.push(format!("tempo-cluster-report-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&telemetry);
    let spawn = |id: usize, with_telemetry: bool| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_tempod"));
        cmd.arg("--id")
            .arg(id.to_string())
            .arg("--listen")
            .arg(addrs[id].to_string())
            .arg("--peer")
            .arg(addrs[0].to_string())
            .arg("--peer")
            .arg(addrs[1].to_string())
            .arg("--epoch-unix")
            .arg(epoch.to_string())
            .arg("--period")
            .arg(PERIOD)
            .arg("--window")
            .arg(WINDOW)
            .arg("--duration")
            .arg("1.5")
            .arg("--report")
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if with_telemetry {
            cmd.arg("--telemetry-out").arg(&telemetry);
        }
        cmd.spawn().expect("spawn tempod")
    };
    let a = spawn(0, true);
    let b = spawn(1, false);
    let out_a = a.wait_with_output().unwrap();
    let out_b = b.wait_with_output().unwrap();
    assert!(out_a.status.success(), "node 0 exited {}", out_a.status);
    assert!(out_b.status.success(), "node 1 exited {}", out_b.status);
    let report = String::from_utf8(out_a.stdout).unwrap();
    assert!(
        report.contains("\"node\":0") && report.contains("\"active\":true"),
        "unexpected report: {report}"
    );
    let jsonl = std::fs::read_to_string(&telemetry).expect("telemetry file written");
    assert!(
        jsonl.lines().count() > 0 && jsonl.contains("\"type\":"),
        "telemetry stream looks empty or malformed: {jsonl:.200}"
    );
    let _ = std::fs::remove_file(&telemetry);
}
