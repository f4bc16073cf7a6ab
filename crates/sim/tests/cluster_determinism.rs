//! Single-threaded vs sharded determinism for ClusterTime
//! deployments.
//!
//! ClusterTime traffic — lease renewals, high-water replication,
//! client requests — is strictly intra-component, so a multi-cluster
//! world must shard exactly like the plain time service: an unobserved
//! run shards one sub-world per cluster, one with the oracle or an
//! export runs as one world, and for any seed a run with `sharded` set
//! matches the single-threaded run — its JSONL telemetry export byte
//! for byte, and every final counter.

use std::path::PathBuf;

use tempo_core::{Duration, Timestamp};
use tempo_net::{NodeId, Partition};
use tempo_service::ServerFault;
use tempo_sim::{ClusterScenario, ReplicaSpec};

/// Three independent clusters of 3 replicas + 1 client; the first
/// cluster's primary crash-restarts mid-run so the streams carry the
/// full failover vocabulary (view changes, elections, refusals,
/// rehydrations), not just the quiet lease cadence.
fn deployment(seed: u64) -> ClusterScenario {
    let honest = ReplicaSpec::honest(1e-5, 1e-4);
    ClusterScenario::new()
        .replica(honest.clone().server_fault(ServerFault::crash_restart(
            Timestamp::from_secs(8.0),
            Duration::from_secs(4.0),
            false,
        )))
        .replicas(2, &honest)
        .clusters(3)
        .duration(Duration::from_secs(25.0))
        .seed(seed)
}

fn run_pair(seed: u64, threads: usize) -> (Vec<u8>, Vec<u8>) {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let single_path: PathBuf = dir.join(format!("tempo-cluster-det-{pid}-{seed}-single.jsonl"));
    let sharded_path: PathBuf = dir.join(format!("tempo-cluster-det-{pid}-{seed}-sharded.jsonl"));

    let single = deployment(seed).telemetry_out(single_path.clone()).run();
    let sharded = deployment(seed)
        .telemetry_out(sharded_path.clone())
        .sharded(threads)
        .run();

    assert_eq!(single.outcomes, sharded.outcomes, "seed {seed}");
    assert_eq!(single.oracle, sharded.oracle, "seed {seed}");
    assert_eq!(single.net, sharded.net, "seed {seed}");
    assert_eq!(single.dropped_events, sharded.dropped_events, "seed {seed}");
    assert!(single.oracle_clean(), "seed {seed}: {:?}", single.oracle);
    assert!(single.client_issued() > 0, "seed {seed}: clients starved");
    assert!(
        single.elections_won() >= 1,
        "seed {seed}: the crashed primary must fail over"
    );

    let single_bytes = std::fs::read(&single_path).expect("single export written");
    let sharded_bytes = std::fs::read(&sharded_path).expect("sharded export written");
    // On failure the exports are left behind for inspection.
    if single_bytes == sharded_bytes {
        let _ = std::fs::remove_file(&single_path);
        let _ = std::fs::remove_file(&sharded_path);
    }
    (single_bytes, sharded_bytes)
}

#[test]
fn cluster_jsonl_is_byte_identical_across_seeds() {
    for seed in [3, 14, 62] {
        for threads in [2, 3] {
            let (single, sharded) = run_pair(seed, threads);
            assert!(
                single == sharded,
                "seed {seed}, {threads} threads: telemetry streams diverge \
                 ({} vs {} bytes)",
                single.len(),
                sharded.len(),
            );
            assert!(!single.is_empty());
            let text = String::from_utf8(single).expect("utf-8 stream");
            let events = tempo_telemetry::json::validate_stream(&text).expect("stream validates");
            assert!(events > 0, "seed {seed}: stream carries events");
        }
    }
}

/// A partition names nodes by global label in every world, so a
/// sub-world must be handed the deployment's partitions unmapped.
/// Cluster 0 is listed whole (it is not "outside every group");
/// cluster 1 is split `{4, 7}` / `{5, 6}`: its primary keeps the
/// client, loses both backups.
#[test]
fn partitioned_cluster_shards_like_the_combined_world() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let run = |threads: usize| {
        let path: PathBuf = dir.join(format!("tempo-cluster-det-{pid}-partition-{threads}.jsonl"));
        let ids = |nodes: &[usize]| nodes.iter().copied().map(NodeId::new).collect();
        let result = ClusterScenario::new()
            .replicas(3, &ReplicaSpec::honest(1e-5, 1e-4))
            .clusters(2)
            .partition(Partition {
                from: Timestamp::from_secs(5.0),
                until: Timestamp::from_secs(10.0),
                groups: vec![ids(&[0, 1, 2, 3]), ids(&[4, 7]), ids(&[5, 6])],
            })
            .duration(Duration::from_secs(20.0))
            .seed(9)
            .telemetry_out(path.clone())
            .sharded(threads)
            .run();
        let bytes = std::fs::read(&path).expect("export written");
        let _ = std::fs::remove_file(&path);
        (result, bytes)
    };
    let (single, single_bytes) = run(0);
    let (sharded, sharded_bytes) = run(2);
    assert!(single.net.partitioned > 0, "the partition must bite");
    assert_eq!(single.net, sharded.net);
    assert_eq!(single.outcomes, sharded.outcomes);
    assert_eq!(single.oracle, sharded.oracle);
    assert_eq!(single.dropped_events, sharded.dropped_events);
    assert!(single_bytes == sharded_bytes, "telemetry streams diverge");
}

/// With no oracle and no export nothing consumes the full stream, so
/// the sharded path records samples only — of which a cluster stream
/// has none — and reconstructs the ring-drop count from the shard
/// buses' offered counts alone.
#[test]
fn unobserved_cluster_run_shards_with_the_same_drop_count() {
    let run = |threads: usize| {
        ClusterScenario::new()
            .replicas(3, &ReplicaSpec::honest(1e-5, 1e-4))
            .clusters(3)
            .oracle(false)
            .duration(Duration::from_secs(15.0))
            .seed(9)
            .sharded(threads)
            .run()
    };
    let single = run(0);
    let sharded = run(2);
    assert!(single.oracle.is_none() && sharded.oracle.is_none());
    assert!(single.dropped_events > 0, "the ring must overflow");
    assert_eq!(single.dropped_events, sharded.dropped_events);
    assert_eq!(single.net, sharded.net);
    assert_eq!(single.outcomes, sharded.outcomes);
}

/// The partitioned case on the path that shards: with no oracle and no
/// export each cluster is a sub-world, handed the deployment's
/// partitions unmapped.
#[test]
fn partitioned_unobserved_cluster_shards_like_the_combined_world() {
    let ids = |nodes: &[usize]| nodes.iter().copied().map(NodeId::new).collect();
    let run = |threads: usize| {
        ClusterScenario::new()
            .replicas(3, &ReplicaSpec::honest(1e-5, 1e-4))
            .clusters(2)
            .partition(Partition {
                from: Timestamp::from_secs(5.0),
                until: Timestamp::from_secs(10.0),
                groups: vec![ids(&[0, 1, 2, 3]), ids(&[4, 7]), ids(&[5, 6])],
            })
            .oracle(false)
            .duration(Duration::from_secs(20.0))
            .seed(9)
            .sharded(threads)
            .run()
    };
    let single = run(0);
    let sharded = run(2);
    assert!(single.net.partitioned > 0, "the partition must bite");
    assert_eq!(single.net, sharded.net);
    assert_eq!(single.outcomes, sharded.outcomes);
    assert_eq!(single.dropped_events, sharded.dropped_events);
}
