//! Single-threaded vs component-sharded engine equivalence.
//!
//! [`tempo_sim::Scenario::sharded`] never changes an output. The
//! sample-only path is the one that shards: with no oracle and no JSONL
//! export, each connected component runs as an independent sub-world on
//! worker threads, their per-tick samples are stitched into
//! deployment-wide ones, and the ring-drop count is rebuilt from the
//! shard buses' counts of events offered. A run with an oracle or an
//! export reads the full event stream and runs as the one combined
//! world, `sharded` or not. These tests pin the contract that makes
//! `sharded` safe to set anywhere: for any seed and thread count, every
//! observable output — the JSONL telemetry export byte for byte, the
//! sample rows, the per-server counters, the network statistics, the
//! oracle report, the ring drops, the ξ witness — is identical to the
//! single-threaded run.

use tempo_core::{Duration, Timestamp};
use tempo_net::{DelayModel, Topology};
use tempo_service::{RetryPolicy, ServerFault, Strategy};
use tempo_sim::{OracleConfig, RunResult, Scenario, ServerSpec};

/// A fault-laden multi-component deployment: three cliques of four,
/// lossy duplicating links, a crash–restart, and a Byzantine liar.
fn fault_laden(seed: u64) -> Scenario {
    let mut scenario = Scenario::new(Strategy::Mm)
        .topology(Topology::disjoint_cliques(3, 4))
        .loss(0.1)
        .duplication(0.05)
        .retry(RetryPolicy::backoff_defaults())
        .quorum(2)
        .duration(Duration::from_secs(90.0))
        .seed(seed);
    for i in 0..12 {
        let mut spec = ServerSpec::honest(1e-5 * (i as f64 + 1.0) / 6.0, 1e-4);
        if i == 1 {
            spec = spec.server_fault(ServerFault::crash_restart(
                Timestamp::from_secs(30.0),
                Duration::from_secs(15.0),
                false,
            ));
        }
        if i == 5 {
            spec = spec.server_fault(ServerFault::lie_from(
                Timestamp::from_secs(20.0),
                Duration::from_secs(0.5),
                0.5,
            ));
        }
        scenario = scenario.server(spec);
    }
    scenario
}

/// Runs `scenario` single-threaded and sharded on `threads` workers,
/// exporting both telemetry streams, and asserts every observable
/// output matches — the JSONL export byte for byte.
fn assert_equivalent(scenario: &Scenario, threads: usize, tag: &str) {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let single_path = dir.join(format!("tempo-equiv-{pid}-{tag}-single.jsonl"));
    let sharded_path = dir.join(format!("tempo-equiv-{pid}-{tag}-sharded.jsonl"));

    let single = scenario.clone().telemetry_out(&single_path).run();
    let sharded = scenario
        .clone()
        .telemetry_out(&sharded_path)
        .sharded(threads)
        .run();

    let single_bytes = std::fs::read(&single_path).expect("single export written");
    let sharded_bytes = std::fs::read(&sharded_path).expect("sharded export written");
    // On failure the exports are left behind for inspection.
    assert!(
        single_bytes == sharded_bytes,
        "telemetry streams diverge ({tag}, {threads} threads): \
         single {} bytes vs sharded {} bytes \
         ({} and {})",
        single_bytes.len(),
        sharded_bytes.len(),
        single_path.display(),
        sharded_path.display(),
    );
    let _ = std::fs::remove_file(&single_path);
    let _ = std::fs::remove_file(&sharded_path);
    assert_same(&single, &sharded);
}

fn assert_same(a: &RunResult, b: &RunResult) {
    assert_eq!(a.samples, b.samples, "sample rows diverge");
    assert_eq!(a.final_stats, b.final_stats, "server counters diverge");
    assert_eq!(a.net, b.net, "network statistics diverge");
    assert_eq!(a.oracle, b.oracle, "oracle reports diverge");
    assert_eq!(a.dropped_events, b.dropped_events, "ring drops diverge");
    assert_eq!(a.xi_witness, b.xi_witness, "xi witness diverges");
}

#[test]
fn sharded_run_is_byte_identical_across_seeds() {
    for seed in [11, 47, 203] {
        assert_equivalent(&fault_laden(seed), 2, &format!("seed{seed}"));
    }
}

#[test]
fn thread_count_does_not_leak_into_results() {
    // More workers than components, and exactly one worker, must both
    // reproduce the canonical stream — thread scheduling is invisible.
    let scenario = fault_laden(7);
    assert_equivalent(&scenario, 1, "one-thread");
    assert_equivalent(&scenario, 16, "many-threads");
}

#[test]
fn constant_delay_tie_breaks_merge_identically() {
    // A constant delay makes every component's deliveries land on the
    // same instants, so the export's order rests on the same-time
    // ordering rule (component rank) on essentially every event.
    let scenario = Scenario::new(Strategy::Im)
        .topology(Topology::disjoint_cliques(4, 3))
        .servers(12, &ServerSpec::honest(1e-5, 1e-4))
        .delay(DelayModel::Constant(Duration::from_millis(5.0)))
        .jitter(0.0)
        .duration(Duration::from_secs(60.0))
        .seed(42);
    assert_equivalent(&scenario, 4, "const-delay");
}

#[test]
fn oracle_report_survives_sharding() {
    let scenario = Scenario::new(Strategy::Mm)
        .topology(Topology::disjoint_cliques(2, 4))
        .servers(8, &ServerSpec::honest(1e-5, 1e-4))
        .oracle(OracleConfig::safety())
        .duration(Duration::from_secs(60.0))
        .seed(13);
    assert_equivalent(&scenario, 2, "oracle");
    let report = scenario.sharded(2).run().oracle.expect("oracle armed");
    assert!(report.is_clean(), "{report}");
    assert!(report.samples_checked > 0);
}

#[test]
fn fast_path_without_sinks_matches_single() {
    // With no JSONL export and no oracle the run shards: it keeps only
    // the samples and reconstructs the ring-drop count arithmetically —
    // every RunResult field must still match, including dropped_events.
    let scenario = fault_laden(3);
    let plain = scenario.clone().run();
    let sharded = scenario.sharded(4).run();
    assert_same(&plain, &sharded);

    // Long enough that the ring overflows and the drop count is
    // nonzero — the arithmetic reconstruction must agree exactly.
    let scenario = fault_laden(99).duration(Duration::from_secs(900.0));
    let plain = scenario.clone().run();
    let sharded = scenario.sharded(4).run();
    assert!(
        plain.dropped_events > 0,
        "run large enough to overflow the ring"
    );
    assert_same(&plain, &sharded);

    // The drop count is the shard buses' tally of events *offered*, so
    // an emission that is skipped when nobody subscribed to its kind
    // goes missing from it. A late joiner, a durable and an amnesiac
    // crash–restart put the rare lifecycle kinds (`join`,
    // `state_rehydrated`, `bootstrap_completed`) in the stream.
    let mut scenario = fault_laden(17).duration(Duration::from_secs(900.0));
    scenario.servers[2] = scenario.servers[2]
        .clone()
        .join_after(Duration::from_secs(12.0));
    scenario.servers[9] = scenario.servers[9]
        .clone()
        .server_fault(ServerFault::crash_restart(
            Timestamp::from_secs(40.0),
            Duration::from_secs(10.0),
            true,
        ));
    let plain = scenario.clone().run();
    let sharded = scenario.sharded(4).run();
    assert!(plain.dropped_events > 0, "the ring overflowed");
    assert!(
        plain.final_stats[9].bootstrap_rounds > 0 && plain.final_stats[1].restarts > 0,
        "both restarts happened"
    );
    assert_same(&plain, &sharded);
}

#[test]
fn connected_topology_falls_back_to_single_threaded() {
    // One component: sharding must be a no-op, not a different engine.
    let scenario = Scenario::new(Strategy::Im)
        .servers(4, &ServerSpec::honest(1e-5, 1e-4))
        .duration(Duration::from_secs(30.0))
        .seed(5);
    let plain = scenario.clone().run();
    let sharded = scenario.sharded(8).run();
    assert_same(&plain, &sharded);
}
