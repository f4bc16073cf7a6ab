//! The traced run: a quarter-length variant of each workload that
//! yields the per-layer metrics. End-to-end numbers never come from
//! here.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::jobs::{self, timed, Tally};
use crate::loadgen::{closed_loop, open_loop, Boundary, LoadReport, BATCH};
use crate::mirror::{Mirror, MirrorReport};
use crate::outcome::Outcome;
use crate::schedule;
use crate::seams::{intersect_ns, mirror_cluster, mirror_sim, queue_churn_ns, Layer, Profile};
use crate::serve::{self, sorted, PACED_RATE};
use crate::spec;
use crate::stats::{median, percentile};
use crate::sys;
use crate::trace::{self_times, Tracer};

fn trace_path(workload: &str) -> Result<std::path::PathBuf, String> {
    Ok(sys::out_dir("trace")?.join(format!("{workload}.jsonl")))
}

fn p(samples: &[u32], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    f64::from(percentile(&sorted(samples.to_vec()), q)) / 1e3
}

// --- socket workloads ------------------------------------------------------------------

/// Drives the generator at a mirror for `window` after `warmup`.
fn load_mirror(
    name: &str,
    seed: u64,
    traced: bool,
    warmup: Duration,
    window: Duration,
) -> Result<(LoadReport, MirrorReport), String> {
    let mirror = Mirror::start(traced)?;
    let mut mark = |_: Boundary| Ok(());
    let load = match name {
        spec::SERVE_BATCH => closed_loop(mirror.serve, &mirror.truth, warmup, window, &mut mark),
        _ => {
            let arrivals = schedule::lognormal(seed, PACED_RATE, (warmup + window).as_secs_f64());
            open_loop(
                mirror.serve,
                mirror.actor,
                &arrivals,
                warmup,
                &mirror.truth,
                &mut mark,
            )
        }
    };
    // Stop the thread before looking at the load, so an error on either
    // side leaves nothing running.
    let report = mirror.stop();
    Ok((load?, report?))
}

/// The traced run of a socket workload.
pub fn serve(name: &str, seed: u64, seconds: u64) -> Result<Outcome, String> {
    // At least two whole seconds: CPU per request is that of the best one.
    let quarter = Duration::from_secs_f64(seconds as f64 / 4.0).max(Duration::from_secs(2));
    let eighth = quarter / 2;
    let warmup = Duration::from_millis(500);

    // A quarter-length run against the real daemons: what only the
    // processes themselves can tell.
    let lifetime = Instant::now();
    let real = serve::run(name, seed, quarter, warmup)?;
    let lifetime = lifetime.elapsed();
    serve::check_exits(&real)?;
    let front = real.exits[0].front.ok_or("node 0 printed no front line")?;
    let report = real.exits[0]
        .report
        .ok_or("node 0 printed no --report line")?;
    if real.load.ok == 0 {
        return Err("no request was answered".into());
    }
    let cpu_us_per_req = real.best_cpu_us_per_op()?;

    // The same generator at the in-process mirror, untraced then
    // traced. Both share the generator's core, as the daemons did.
    let (plain_load, plain) = load_mirror(name, seed, false, warmup / 2, eighth)?;
    let (traced_load, traced) = load_mirror(name, seed, true, warmup / 2, eighth)?;
    traced.tracer.write_jsonl(&trace_path(name)?)?;
    let busy = |r: &MirrorReport| r.busy_ns as f64 / r.datagrams.max(1) as f64;
    let overhead = 1.0 - busy(&plain) / busy(&traced);

    let times = self_times(traced.tracer.spans());
    let mean = |span: &str, per: f64| -> f64 {
        times
            .get(span)
            .filter(|(_, count)| *count > 0)
            .map_or(0.0, |&(ns, count)| ns as f64 / (count as f64 * per))
    };
    let batch = BATCH as f64;
    // Self time of every span of the traced datagrams, per request.
    let per_datagram = if name == spec::SERVE_BATCH {
        batch
    } else {
        1.0
    };
    let traced_datagrams: u64 = times
        .iter()
        .filter(|(span, _)| span.ends_with(".datagram"))
        .map(|(_, &(_, count))| count)
        .sum();
    let explained_ns = times.values().map(|&(ns, _)| ns as f64).sum::<f64>()
        / (traced_datagrams.max(1) as f64 * per_datagram);
    let unexplained = 1.0 - explained_ns / (cpu_us_per_req * 1e3);

    let mut outcome = Outcome::new(real.load.attempted, real.load.attempted - real.load.ok);
    outcome.layer("transport.serve.cpu_us_per_req", cpu_us_per_req);
    outcome.layer("transport.serve.served", front.served as f64);
    outcome.layer("transport.serve.batches", front.batches as f64);
    outcome.layer("transport.serve.refused", front.refused as f64);
    outcome.layer("transport.serve.rejected", front.rejected as f64);
    outcome.layer("transport.serve.malformed", front.malformed as f64);
    outcome.layer(
        "transport.serve.recv_ns_per_dgram",
        mean("transport.serve.recv", 1.0),
    );
    outcome.layer(
        "transport.serve.send_ns_per_dgram",
        mean("transport.serve.send", 1.0),
    );
    outcome.layer(
        "transport.serve.rtt_p50_us",
        p(&real.load.serve_rtt_ns, 0.5),
    );
    outcome.layer(
        "transport.runtime.rtt_p50_us",
        p(&real.load.actor_rtt_ns, 0.5),
    );
    outcome.layer(
        "transport.runtime.rtt_p99_us",
        p(&real.load.actor_rtt_ns, 0.99),
    );
    outcome.layer(
        "service.server.on_request_ns_per_req",
        mean("service.server.on_request", 1.0),
    );
    outcome.layer("service.server.rounds", 0.0);
    outcome.layer(
        "service.wire.decode_batch_ns_per_req",
        mean("service.wire.decode_batch", batch),
    );
    outcome.layer(
        "service.wire.encode_batch_ns_per_req",
        mean("service.wire.encode_batch", batch),
    );
    outcome.layer(
        "service.wire.decode_ns_per_req",
        mean("service.wire.decode", 1.0),
    );
    outcome.layer(
        "service.wire.encode_ns_per_req",
        mean("service.wire.encode", 1.0),
    );
    outcome.layer(
        "core.snapshot.serve_ns_per_req",
        mean("core.snapshot.serve", per_datagram),
    );
    outcome.layer(
        "core.snapshot.republish_per_s",
        report.resets / lifetime.as_secs_f64(),
    );
    outcome.layer("bench.loadgen.late_p99_us", p(&real.load.late_ns, 0.99));
    outcome.layer("bench.trace.overhead_share", overhead);
    outcome.layer("bench.attribution.unexplained_share", unexplained);
    outcome.note("real_window_s", real.load.window.as_secs_f64());
    outcome.note("mirror_window_s", traced_load.window.as_secs_f64());
    outcome.note("mirror_datagrams_untraced", plain.datagrams as f64);
    outcome.note("mirror_datagrams_traced", traced.datagrams as f64);
    outcome.note("mirror_busy_ns_per_dgram_untraced", busy(&plain));
    outcome.note("mirror_busy_ns_per_dgram_traced", busy(&traced));
    outcome.note("mirror_ok_untraced", plain_load.ok as f64);
    outcome.note("spans_written", traced.tracer.spans().len() as f64);
    outcome.note("daemon_rounds", report.rounds);
    outcome.note("daemon_resets", report.resets);
    Ok(outcome)
}

// --- job workloads -----------------------------------------------------------------------

/// Failover gaps in a ClusterTime JSONL export: for each cluster, the
/// simulated time from the last `ts_issued` of one view to the first of
/// a later view, milliseconds.
fn failover_gaps_ms(export: &Path, nodes_per_cluster: usize) -> Result<Vec<f64>, String> {
    use crate::json::{as_f64, parse};
    let text = std::fs::read_to_string(export).map_err(|e| format!("{}: {e}", export.display()))?;
    let mut last: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
    let mut gaps = Vec::new();
    for line in text
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"ts_issued\""))
    {
        let event = parse(line).map_err(|e| format!("export: {e}"))?;
        let field = |key: &str| {
            event
                .get(key)
                .and_then(as_f64)
                .ok_or_else(|| format!("ts_issued without {key}"))
        };
        let (t, server, view) = (field("t")?, field("server")?, field("view")?);
        let cluster = server as usize / nodes_per_cluster;
        if let Some(&(last_view, last_t)) = last.get(&cluster) {
            if view > last_view {
                gaps.push((t - last_t) * 1e3);
            }
        }
        last.insert(cluster, (view, t));
    }
    Ok(gaps)
}

/// What the mirrored jobs of a traced run add up to.
#[derive(Default)]
struct MirrorTotals {
    plain_s: f64,
    traced_s: f64,
    events: u64,
    events_emitted: u64,
    shard_overhead_s: Vec<f64>,
    gaps_ms: Vec<f64>,
    /// Self time per layer over the traced mirror jobs, nanoseconds,
    /// indexed by `Layer`.
    self_ns: [u64; 5],
    actor_calls: u64,
}

impl MirrorTotals {
    fn add_profile(&mut self, profile: &Profile) {
        for layer in [Layer::Actor, Layer::Metrics, Layer::Oracle, Layer::Jsonl] {
            self.self_ns[layer as usize] += profile.self_ns(layer);
        }
        self.actor_calls += profile.calls(Layer::Actor);
    }
}

/// The traced run of a job workload.
pub fn jobs(name: &str, seed: u64, seconds: u64) -> Result<Outcome, String> {
    // A quarter of the jobs through the public runner: the *exact*
    // counters, and the untraced cost per operation.
    let quarter = (jobs::job_count(name, seconds) / 4).max(8);
    let reference = jobs::run(name, seed, quarter)?;
    let tally: &Tally = &reference.tally;

    // A few of the same seeds through the world wired up in `seams`,
    // untraced then traced, and through the public runner unsharded
    // and on one shard thread.
    let mirrored = (quarter / 8).clamp(3, 8);
    let export = sys::out_dir(name)?.join("mirror.jsonl");
    let mut tracer = Tracer::new();
    let mut totals = MirrorTotals::default();
    for i in 0..mirrored {
        let (job_seed, request) = (seed.wrapping_add(i as u64), i as u64);
        // One profile per job: its totals become that job's spans.
        let profile = Profile::new(true);
        let unprofiled = Profile::new(false);
        // The same job four ways: public unsharded, public on one shard
        // thread, mirrored untraced, mirrored traced. `public` is what
        // the mirror must reproduce: (net, dropped events, progress).
        let (unsharded, one_shard, public, plain, traced);
        if name == spec::CLUSTER_FAILOVER {
            let scenario = jobs::failover(job_seed);
            let (t, result) = timed(|| scenario.run());
            (unsharded, public) = (t, (result.net, result.dropped_events, result.issued()));
            one_shard = timed(|| scenario.clone().sharded(1).run()).0;
            plain = timed(|| {
                mirror_cluster(job_seed, &export, &unprofiled, &mut Tracer::new(), request)
            });
            traced = timed(|| mirror_cluster(job_seed, &export, &profile, &mut tracer, request));
            let per_cluster = jobs::REPLICAS + jobs::CLIENTS;
            totals
                .gaps_ms
                .extend(failover_gaps_ms(&export, per_cluster)?);
        } else {
            let audited = name == spec::SIM_AUDIT;
            let mut scenario =
                jobs::e20(if audited { jobs::AUDIT_N } else { jobs::BARE_N }, job_seed);
            if audited {
                scenario = scenario.oracle(jobs::audit_oracle());
            }
            let sink = audited.then_some(export.as_path());
            let exporting = match sink {
                Some(path) => scenario.clone().telemetry_out(path),
                None => scenario.clone(),
            };
            let (t, result) = timed(|| exporting.run());
            let rounds = result.final_stats.iter().map(|s| s.rounds).sum();
            (unsharded, public) = (t, (result.net, result.dropped_events, rounds));
            one_shard = timed(|| exporting.clone().sharded(1).run()).0;
            plain = timed(|| mirror_sim(&scenario, sink, &unprofiled, &mut Tracer::new(), request));
            traced = timed(|| mirror_sim(&scenario, sink, &profile, &mut tracer, request));
        }
        let ((plain_time, plain), (traced_time, traced)) = (plain, traced);
        let (plain, traced) = (plain?, traced?);
        if plain != traced
            || (traced.net, traced.dropped_events, traced.progress) != public
            || !traced.oracle_clean
        {
            return Err(format!(
                "the mirrored world does not reproduce the public runner for seed {job_seed}: {traced:?} against {public:?}"
            ));
        }
        totals
            .shard_overhead_s
            .push(one_shard.as_secs_f64() - unsharded.as_secs_f64());
        totals.plain_s += plain_time.as_secs_f64();
        totals.traced_s += traced_time.as_secs_f64();
        totals.events += traced.events();
        totals.events_emitted += traced.events_emitted;
        totals.add_profile(&profile);
    }
    tracer.write_jsonl(&trace_path(name)?)?;

    let per_job = |ns: u64| ns as f64 / 1e9 / mirrored as f64;
    let times = self_times(tracer.spans());
    let world_self_ns = times.get("net.world.run").map_or(0, |v| v.0);
    let queue_ns = queue_churn_ns(1_000, 2_000_000);
    let layer_ns = |layer: Layer| totals.self_ns[layer as usize];
    let explained_ns = totals.self_ns.iter().sum::<u64>() as f64 + queue_ns * totals.events as f64;
    // Self times add up to the duration of the roots, the `job` spans.
    let measured_ns: f64 = times.values().map(|v| v.0 as f64).sum();

    let mut outcome = Outcome::new(tally.attempted, tally.failed);
    for &(counter, value) in &tally.counters {
        outcome.layer(counter, value);
    }
    outcome.exact.clone_from(&tally.counters);
    outcome.layer(
        "net.world.step_ns_per_event",
        world_self_ns as f64 / totals.events as f64,
    );
    outcome.layer("net.queue.churn_ns_per_event", queue_ns);
    outcome.layer(
        "core.marzullo.intersect_ns_per_call",
        intersect_ns(seed, 200_000),
    );
    outcome.layer("telemetry.json.busy_s", per_job(layer_ns(Layer::Jsonl)));
    outcome.layer("oracle.busy_s", per_job(layer_ns(Layer::Oracle)));
    outcome.layer(
        "sim.sinks.metrics_busy_s",
        per_job(layer_ns(Layer::Metrics)),
    );
    outcome.layer(
        "sim.engine.shard_overhead_s",
        median(&totals.shard_overhead_s),
    );
    if name == spec::CLUSTER_FAILOVER {
        let mut gaps = totals.gaps_ms.clone();
        gaps.sort_by(f64::total_cmp);
        if gaps.is_empty() {
            return Err("the crash storm produced no failover".into());
        }
        outcome.layer(
            "cluster.replica.failover_gap_sim_ms_p50",
            percentile(&gaps, 0.5),
        );
        outcome.layer(
            "cluster.replica.failover_gap_sim_ms_max",
            percentile(&gaps, 1.0),
        );
        outcome.layer("sim.engine.components", jobs::CLUSTERS as f64);
    }
    outcome.layer(
        "bench.trace.overhead_share",
        1.0 - totals.plain_s / totals.traced_s,
    );
    outcome.layer(
        "bench.attribution.unexplained_share",
        1.0 - explained_ns / measured_ns,
    );
    outcome.note("reference_jobs", quarter as f64);
    outcome.note("mirrored_jobs", mirrored as f64);
    outcome.note("mirror_events_emitted", totals.events_emitted as f64);
    outcome.note(
        "mirror_actor_self_s_per_job",
        per_job(layer_ns(Layer::Actor)),
    );
    outcome.note("mirror_actor_calls", totals.actor_calls as f64);
    outcome.note("mirror_world_self_s_per_job", per_job(world_self_ns));
    outcome.note("mirror_job_s_untraced", totals.plain_s / mirrored as f64);
    outcome.note("mirror_job_s_traced", totals.traced_s / mirrored as f64);
    outcome.note(
        "reference_us_per_op",
        reference.window.as_secs_f64() * 1e6 / tally.ops as f64,
    );
    outcome.note(
        "mirror_us_per_op_untraced",
        totals.plain_s * 1e6 / totals.events as f64,
    );
    outcome.note("spans_written", tracer.spans().len() as f64);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_gaps_are_read_per_cluster_from_the_export() {
        let dir = sys::out_dir("test").unwrap();
        let path = dir.join("gaps.jsonl");
        let issued = |t: f64, server: u64, view: u64| {
            format!("{{\"type\":\"ts_issued\",\"t\":{t},\"server\":{server},\"view\":{view},\"timestamp\":1,\"lo\":0,\"hi\":1}}")
        };
        let lines = [
            "{\"type\":\"run_start\",\"seed\":1}".to_string(),
            issued(1.0, 0, 0),
            issued(1.5, 0, 0),
            // Cluster 1 (servers 5..10) fails over on its own clock.
            issued(1.6, 5, 0),
            issued(2.25, 1, 1), // cluster 0: 1.5 -> 2.25
            issued(2.5, 1, 1),
            issued(3.6, 6, 2), // cluster 1: 1.6 -> 3.6
        ];
        std::fs::write(&path, lines.join("\n")).unwrap();
        let gaps = failover_gaps_ms(&path, 5).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(gaps, vec![750.0, 2000.0]);
    }

    #[test]
    fn both_generators_run_clean_against_the_mirror() {
        let short = Duration::from_millis(300);
        let warm = Duration::from_millis(50);
        for name in [spec::SERVE_BATCH, spec::SERVE_PACED] {
            let (load, report) = load_mirror(name, 1, true, warm, short).unwrap();
            assert!(load.attempted > 0, "{name}");
            assert_eq!(load.ok, load.attempted, "{name}: every request answered");
            assert!(report.datagrams > 0 && report.busy_ns > 0);
            let times = self_times(report.tracer.spans());
            assert!(times.contains_key("transport.serve.datagram"), "{name}");
            assert!(times.contains_key("core.snapshot.serve"), "{name}");
            if name == spec::SERVE_PACED {
                assert!(times.contains_key("service.server.on_request"));
                assert!(
                    load.pairs_checked > 0,
                    "serve- and protocol-port replies were paired"
                );
            }
        }
    }
}
