//! The benchmark's catalogue: workloads, end-to-end metrics with their
//! bounds, and per-layer metrics. `BENCHMARK.json` at the repository
//! root carries the same names, units, directions and bounds; a unit
//! test keeps the two in step.

/// Which way is better for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One of the five workloads.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists, as `BENCHMARK.json` states it.
    pub why: &'static str,
}

pub const SERVE_BATCH: &str = "serve_batch";
pub const SERVE_PACED: &str = "serve_paced";
pub const CLUSTER_FAILOVER: &str = "cluster_failover";
pub const SIM_BARE: &str = "sim_bare";
pub const SIM_AUDIT: &str = "sim_audit";

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: SERVE_BATCH,
        why: "closed loop, 4 batch frames of 8 requests in flight at one tempod front thread: peak capacity of the lock-free read path (syscalls, batch codec, snapshot read)",
    },
    Workload {
        name: SERVE_PACED,
        why: "open loop, 20000 single requests/s on a seeded log-normal schedule at a syncing tempod pair, 1 in 10 to the sync actor: latency below saturation, reads racing republishes",
    },
    Workload {
        name: CLUSTER_FAILOVER,
        why: "simulated time: 8 three-replica ClusterTime clusters under a primary crash storm, 5 ms links, oracle armed: replica, cluster oracle and net.world carry it, transport does nothing",
    },
    Workload {
        name: SIM_BARE,
        why: "simulated time: the E20 deployment at n=500, sharded(2), no oracle or export: queue, world, server and marzullo dominate, sinks see samples only, so a sink change must not move it",
    },
    Workload {
        name: SIM_AUDIT,
        why: "simulated time: the E20 deployment at n=100 with the safety oracle and JSONL export, sharded(2): telemetry bus, JSON encoder, oracle and the full-stream merge dominate",
    },
];

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen.
    pub bound: f64,
}

pub const SETUP_S: &str = "setup_s";
pub const THROUGHPUT: &str = "throughput_ops_s";
pub const LATENCY_P50: &str = "latency_p50_us";
pub const LATENCY_TAIL: &str = "latency_tail_us";
pub const OK_SHARE: &str = "ok_share";
pub const CPU_PER_OP: &str = "cpu_us_per_op";
pub const PEAK_RSS: &str = "peak_rss_mb";

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: THROUGHPUT,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: LATENCY_P50,
        unit: "us",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: LATENCY_TAIL,
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: OK_SHARE,
        unit: "share",
        better: Better::Higher,
        bound: 0.0005,
    },
    EndToEnd {
        name: CPU_PER_OP,
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: PEAK_RSS,
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric, reported by the traced run. `exact` counters
/// repeat bit-for-bit under a seed.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn count(name: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Every per-layer metric, layer = crate.module. A metric whose layer
/// does no work on a workload reads 0 there. For an *exact* counter
/// the direction only says which way a protocol change would be
/// welcome; an engine change must leave it where it is.
pub const PER_LAYER: [PerLayer; 56] = [
    timing("transport.serve.cpu_us_per_req", "us"),
    count("transport.serve.served", Higher),
    count("transport.serve.batches", Higher),
    count("transport.serve.refused", Lower),
    count("transport.serve.rejected", Lower),
    count("transport.serve.malformed", Lower),
    timing("transport.serve.recv_ns_per_dgram", "ns"),
    timing("transport.serve.send_ns_per_dgram", "ns"),
    timing("transport.serve.rtt_p50_us", "us"),
    timing("transport.runtime.rtt_p50_us", "us"),
    timing("transport.runtime.rtt_p99_us", "us"),
    timing("service.server.on_request_ns_per_req", "ns"),
    exact("service.server.rounds", "count", Higher),
    exact("service.server.resets", "count", Higher),
    timing("service.wire.decode_batch_ns_per_req", "ns"),
    timing("service.wire.encode_batch_ns_per_req", "ns"),
    timing("service.wire.decode_ns_per_req", "ns"),
    timing("service.wire.encode_ns_per_req", "ns"),
    timing("core.snapshot.serve_ns_per_req", "ns"),
    PerLayer {
        name: "core.snapshot.republish_per_s",
        unit: "1/s",
        better: Higher,
        exact: false,
    },
    exact("net.world.events", "count", Lower),
    exact("net.world.sent", "count", Lower),
    exact("net.world.lost", "count", Lower),
    exact("net.world.duplicated", "count", Lower),
    timing("net.world.step_ns_per_event", "ns"),
    timing("net.queue.churn_ns_per_event", "ns"),
    timing("core.marzullo.intersect_ns_per_call", "ns"),
    exact("telemetry.bus.events_emitted", "count", Lower),
    exact("telemetry.bus.dropped_events", "count", Lower),
    timing("telemetry.json.busy_s", "s"),
    exact("telemetry.json.bytes_written", "count", Lower),
    timing("oracle.busy_s", "s"),
    exact("oracle.samples_checked", "count", Higher),
    exact("oracle.rounds_checked", "count", Higher),
    exact("oracle.violations", "count", Lower),
    timing("sim.sinks.metrics_busy_s", "s"),
    timing("sim.engine.shard_overhead_s", "s"),
    exact("sim.engine.components", "count", Higher),
    exact("sim.metrics.mean_error_ms", "ms", Lower),
    exact("sim.metrics.max_asynchronism_ms", "ms", Lower),
    exact("cluster.replica.issued", "count", Higher),
    exact("cluster.replica.refused", "count", Lower),
    exact("cluster.replica.elections_won", "count", Lower),
    exact("cluster.replica.leases_expired", "count", Lower),
    exact("cluster.replica.highest_view", "count", Lower),
    exact("cluster.replica.msgs_per_ts", "count", Lower),
    exact("cluster.replica.failover_gap_sim_ms_p50", "ms", Lower),
    exact("cluster.replica.failover_gap_sim_ms_max", "ms", Lower),
    exact("cluster.client.timeouts", "count", Lower),
    exact("cluster.client.refused", "count", Lower),
    exact("cluster.client.redirected", "count", Lower),
    exact("oracle.cluster.issues_checked", "count", Higher),
    exact("oracle.cluster.violations", "count", Lower),
    timing("bench.loadgen.late_p99_us", "us"),
    timing("bench.trace.overhead_share", "share"),
    timing("bench.attribution.unexplained_share", "share"),
];

const NET_COUNTERS: [&str; 7] = [
    "net.world.events",
    "net.world.sent",
    "net.world.lost",
    "net.world.duplicated",
    "service.server.rounds",
    "service.server.resets",
    "telemetry.bus.dropped_events",
];

/// The *exact* counters an untraced run of `workload` must carry. The
/// socket workloads run on real time and have none.
pub fn exact_counters(workload: &str) -> Vec<&'static str> {
    let mut names = Vec::new();
    match workload {
        CLUSTER_FAILOVER => {
            names.extend(NET_COUNTERS);
            names.extend(
                PER_LAYER
                    .iter()
                    .map(|m| m.name)
                    .filter(|n| n.starts_with("cluster.") || n.starts_with("oracle.cluster."))
                    // The failover gap needs the JSONL pass of the traced run.
                    .filter(|n| !n.contains("failover_gap")),
            );
        }
        SIM_BARE | SIM_AUDIT => {
            names.extend(NET_COUNTERS);
            names.extend([
                "sim.engine.components",
                "sim.metrics.mean_error_ms",
                "sim.metrics.max_asynchronism_ms",
            ]);
            if workload == SIM_AUDIT {
                names.extend([
                    "oracle.samples_checked",
                    "oracle.rounds_checked",
                    "oracle.violations",
                    "telemetry.bus.events_emitted",
                    "telemetry.json.bytes_written",
                ]);
            }
        }
        _ => {}
    }
    names
}

/// Whether `name` uses only the characters the benchmark contract
/// allows in a metric or workload name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_telemetry::json::{parse, Json};

    fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
        obj.get(key).unwrap_or_else(|| panic!("missing {key}"))
    }

    fn text(obj: &Json, key: &str) -> String {
        match field(obj, key) {
            Json::Str(s) => s.clone(),
            other => panic!("{key} is not a string: {other:?}"),
        }
    }

    fn items<'a>(obj: &'a Json, key: &str) -> &'a [Json] {
        match field(obj, key) {
            Json::Arr(items) => items,
            other => panic!("{key} is not an array: {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");

        let listed = items(&doc, "workloads");
        assert_eq!(listed.len(), WORKLOADS.len());
        for (w, j) in WORKLOADS.iter().zip(listed) {
            assert_eq!(text(j, "name"), w.name);
            assert_eq!(text(j, "why"), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }

        let listed = items(&doc, "end_to_end");
        assert_eq!(listed.len(), END_TO_END.len());
        for (m, j) in END_TO_END.iter().zip(listed) {
            assert_eq!(text(j, "name"), m.name);
            assert_eq!(text(j, "unit"), m.unit);
            assert_eq!(text(j, "better"), m.better.label());
            assert_eq!(field(j, "bound"), &Json::Num(m.bound), "{}", m.name);
            assert!(m.bound <= 0.25);
        }

        let listed = items(&doc, "per_layer");
        assert_eq!(listed.len(), PER_LAYER.len());
        for (m, j) in PER_LAYER.iter().zip(listed) {
            assert_eq!(text(j, "name"), m.name);
            assert_eq!(text(j, "unit"), m.unit);
            assert_eq!(text(j, "better"), m.better.label());
        }
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(!valid_name("has space") && !valid_name(".lead") && !valid_name(""));
    }
}
