//! Telemetry sinks: how bus events become metrics rows, oracle
//! verdicts, and JSONL export lines.
//!
//! [`crate::Scenario::run`] is a pure wiring layer: it subscribes one
//! [`MetricsSink`] (always), one [`OracleSink`] (when an oracle is
//! armed), and one [`JsonlSink`] (when an export path is configured)
//! to a shared [`tempo_telemetry::Bus`], then lets the world run.
//! Everything the run reports afterwards is reconstructed from the
//! event stream — there is no side channel. The oracles are
//! [`Observer`]s of their own and read the events directly; the two
//! oracle sinks only hold them until their reports are taken, and
//! [`ClusterOracleSink`] routes each event to its cluster's oracle.

use std::cell::RefCell;
use std::io::Write;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Mutex;

use tempo_core::Duration;
use tempo_net::NetStats;
use tempo_oracle::cluster::{ClusterOracle, ClusterReport};
use tempo_oracle::{Oracle, OracleReport};
use tempo_telemetry::json::write_event;
use tempo_telemetry::{json_record, EventKind, Observer, TelemetryEvent};

use crate::metrics::SampleRow;

/// Collects [`TelemetryEvent::Sample`] events into the
/// [`SampleRow`]s that [`crate::RunResult`] is built from.
///
/// Every server appears in every row, active or not — departed
/// servers free-run and stay auditable (see E13).
#[derive(Debug, Default)]
pub struct MetricsSink {
    rows: Vec<SampleRow>,
}

impl MetricsSink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        MetricsSink::default()
    }

    /// Drains the collected rows.
    pub fn take_rows(&mut self) -> Vec<SampleRow> {
        std::mem::take(&mut self.rows)
    }
}

impl Observer for MetricsSink {
    fn enabled(&self, kind: EventKind) -> bool {
        kind == EventKind::Sample
    }

    fn observe(&mut self, event: &TelemetryEvent) {
        if let TelemetryEvent::Sample { at, servers } = event {
            self.rows.push(SampleRow {
                t: *at,
                per_server: servers.clone(),
            });
        }
    }
}

/// Holds the theorem oracle a run is armed with. The [`Oracle`] reads
/// the bus itself; the sink forwards its events and hands back the
/// report once.
#[derive(Debug)]
pub struct OracleSink {
    // `Oracle::finish` consumes the oracle, so it lives in an Option
    // that `finish` takes.
    oracle: Option<Oracle>,
}

impl OracleSink {
    /// Wraps an armed oracle.
    #[must_use]
    pub fn new(oracle: Oracle) -> Self {
        OracleSink {
            oracle: Some(oracle),
        }
    }

    /// Closes the oracle and returns its report. `None` if already
    /// finished.
    pub fn finish(&mut self) -> Option<OracleReport> {
        self.oracle.take().map(Oracle::finish)
    }
}

impl Observer for OracleSink {
    fn enabled(&self, kind: EventKind) -> bool {
        self.oracle
            .as_ref()
            .is_some_and(|oracle| oracle.enabled(kind))
    }

    fn observe(&mut self, event: &TelemetryEvent) {
        if let Some(oracle) = self.oracle.as_mut() {
            oracle.observe(event);
        }
    }
}

/// Holds one ClusterTime oracle per cluster and routes each event to
/// the oracle of the replica it comes from
/// ([`ClusterOracle::replica`]).
///
/// ClusterTime's monotonicity invariant is *per cluster* — a world
/// hosting several independent clusters (disjoint topology components)
/// makes no cross-cluster promise — so one oracle per cluster sees only
/// its own replicas' events.
#[derive(Debug)]
pub struct ClusterOracleSink {
    /// `node index → cluster index`. Nodes outside any cluster
    /// (clients) never emit the routed events.
    cluster_of: Vec<usize>,
    oracles: Vec<Option<ClusterOracle>>,
}

impl ClusterOracleSink {
    /// Wraps one armed oracle per cluster. `cluster_of[i]` names the
    /// cluster node `i` belongs to.
    ///
    /// # Panics
    ///
    /// Panics if any entry of `cluster_of` names a missing oracle.
    #[must_use]
    pub fn new(oracles: Vec<ClusterOracle>, cluster_of: Vec<usize>) -> Self {
        assert!(
            cluster_of.iter().all(|&g| g < oracles.len()),
            "cluster_of entries must index into the oracle list"
        );
        ClusterOracleSink {
            cluster_of,
            oracles: oracles.into_iter().map(Some).collect(),
        }
    }

    /// Closes every per-cluster oracle and returns the reports, in
    /// cluster order. `None` if already finished.
    pub fn finish(&mut self) -> Option<Vec<ClusterReport>> {
        if self.oracles.iter().any(Option::is_none) {
            return None;
        }
        Some(
            self.oracles
                .iter_mut()
                .map(|slot| slot.take().expect("checked above").finish())
                .collect(),
        )
    }
}

impl Observer for ClusterOracleSink {
    fn enabled(&self, kind: EventKind) -> bool {
        // Every cluster's oracle checks the same kinds.
        let mut live = self.oracles.iter().flatten();
        live.next().is_some_and(|oracle| oracle.enabled(kind))
    }

    fn observe(&mut self, event: &TelemetryEvent) {
        let cluster = ClusterOracle::replica(event).and_then(|node| self.cluster_of.get(node));
        if let Some(oracle) = cluster.and_then(|&c| self.oracles[c].as_mut()) {
            oracle.observe(event);
        }
    }
}

/// Streams every event to a writer as one JSON object per line, in
/// the schema documented in EXPERIMENTS.md and enforced by
/// [`tempo_telemetry::json::validate_stream`].
///
/// The stream is framed by a `run_start` header and a `summary`
/// footer, written by [`JsonlSink::run_start`] and
/// [`JsonlSink::finish`] around the run.
///
/// Lines are encoded into one reused buffer and handed to the writer
/// 64 KiB or more at a time, then once more on `finish`; a sink dropped without `finish` (a run that panicked)
/// still writes out what it holds, so a post-mortem export keeps its
/// tail.
pub struct JsonlSink {
    out: Box<dyn Write>,
    buf: Vec<u8>,
    events: u64,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("events", &self.events)
            .finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// The writer sees no write shorter than this, the last excepted.
    const CHUNK: usize = 64 * 1024;

    /// Wraps a writer. The sink does its own buffering: hand it the
    /// file or socket itself.
    #[must_use]
    pub fn new(out: Box<dyn Write>) -> Self {
        JsonlSink {
            out,
            buf: Vec::with_capacity(Self::CHUNK + Self::CHUNK / 4),
            events: 0,
        }
    }

    /// Number of event lines written so far (header and footer are
    /// framing, not events, and are excluded).
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Ends the line just encoded and hands the buffer on once a
    /// chunk's worth has gathered.
    fn end_line(&mut self) {
        self.buf.push(b'\n');
        if self.buf.len() >= Self::CHUNK {
            self.write_out().expect("telemetry export failed");
        }
    }

    fn write_out(&mut self) -> std::io::Result<()> {
        let written = self.out.write_all(&self.buf);
        self.buf.clear();
        written
    }

    /// Writes the `run_start` header line.
    ///
    /// # Panics
    ///
    /// Panics when the underlying writer fails.
    pub fn run_start(
        &mut self,
        seed: u64,
        servers: usize,
        strategy: &str,
        xi: Duration,
        tau: Duration,
    ) {
        json_record!(&mut self.buf, "run_start",
            "seed": seed, "servers": servers, "strategy": strategy, "xi": xi, "tau": tau);
        self.end_line();
    }

    /// Writes the `summary` footer line and flushes. `xi_witness` is
    /// the empirical round-trip witness — twice the worst one-way
    /// delay the network delivered — directly comparable to the
    /// configured `ξ`.
    ///
    /// # Panics
    ///
    /// Panics when the underlying writer fails.
    pub fn finish(&mut self, dropped: u64, xi_witness: Duration, net: &NetStats) {
        json_record!(&mut self.buf, "summary",
            "events": self.events, "dropped": dropped, "xi_witness": xi_witness,
            "sent": net.sent, "delivered": net.delivered, "lost": net.lost,
            "duplicated": net.duplicated, "partitioned": net.partitioned,
            "timers": net.timers_fired);
        self.buf.push(b'\n');
        self.write_out()
            .and_then(|()| self.out.flush())
            .expect("telemetry export failed");
    }
}

impl Observer for JsonlSink {
    fn observe(&mut self, event: &TelemetryEvent) {
        self.events += 1;
        write_event(&mut self.buf, event);
        self.end_line();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        // Best effort, and only what `finish` has not already written:
        // a destructor must not panic over a failed write.
        if !self.buf.is_empty() {
            let _ = self.write_out().and_then(|()| self.out.flush());
        }
    }
}

/// Opens the JSONL export sink a scenario asked for, if any: the
/// scenario's own path truncates, the process-wide default appends
/// (the experiments CLI truncates it once at startup and then
/// concatenates every run).
///
/// # Panics
///
/// Panics when the export file cannot be opened.
pub(crate) fn open_jsonl(telemetry_out: Option<&PathBuf>) -> Option<Rc<RefCell<JsonlSink>>> {
    let (path, append) = match telemetry_out {
        Some(path) => (path.clone(), false),
        None => (default_telemetry_out()?, true),
    };
    let file = if append {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
    } else {
        std::fs::File::create(&path)
    }
    .unwrap_or_else(|e| panic!("cannot open telemetry export {}: {e}", path.display()));
    Some(Rc::new(RefCell::new(JsonlSink::new(Box::new(file)))))
}

/// Process-wide default telemetry export path, consulted by
/// [`crate::Scenario::run`] when the scenario itself sets none. The
/// experiments CLI sets this once from `--telemetry-out` so every
/// scenario an experiment builds internally appends its stream to
/// the same file.
static DEFAULT_TELEMETRY_OUT: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Sets (or clears) the process-wide default telemetry export path.
/// Runs append to the file; truncate it first if you want a fresh
/// capture.
///
/// # Panics
///
/// Panics if the path registry mutex is poisoned.
pub fn set_default_telemetry_out(path: Option<PathBuf>) {
    *DEFAULT_TELEMETRY_OUT
        .lock()
        .expect("telemetry path registry poisoned") = path;
}

/// The current process-wide default telemetry export path.
///
/// # Panics
///
/// Panics if the path registry mutex is poisoned.
#[must_use]
pub fn default_telemetry_out() -> Option<PathBuf> {
    DEFAULT_TELEMETRY_OUT
        .lock()
        .expect("telemetry path registry poisoned")
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_core::Timestamp;
    use tempo_telemetry::SampleSnapshot;

    fn sample_event() -> TelemetryEvent {
        TelemetryEvent::Sample {
            at: Timestamp::from_secs(1.0),
            servers: vec![
                SampleSnapshot {
                    clock: Timestamp::from_secs(1.001),
                    error: Duration::from_millis(5.0),
                    true_offset: Duration::from_millis(1.0),
                    correct: true,
                    active: true,
                },
                SampleSnapshot {
                    clock: Timestamp::from_secs(0.8),
                    error: Duration::from_millis(9.0),
                    true_offset: Duration::from_millis(-200.0),
                    correct: false,
                    active: false,
                },
            ],
        }
    }

    #[test]
    fn metrics_sink_keeps_every_server_active_or_not() {
        let mut sink = MetricsSink::new();
        sink.observe(&sample_event());
        let rows = sink.take_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].per_server.len(), 2);
        assert!(!rows[0].per_server[1].correct, "inactive server kept");
        assert!(sink.take_rows().is_empty(), "drained");
    }

    #[test]
    fn metrics_sink_only_wants_samples() {
        let sink = MetricsSink::new();
        assert!(sink.enabled(EventKind::Sample));
        assert!(!sink.enabled(EventKind::MsgSend));
        assert!(!sink.enabled(EventKind::RoundAdopt));
    }

    /// Stands in for the output file: keeps the bytes and the size of
    /// every write it was handed.
    #[derive(Clone, Default)]
    struct Recorder {
        bytes: Rc<RefCell<Vec<u8>>>,
        writes: Rc<RefCell<Vec<usize>>>,
    }

    impl Recorder {
        fn text(&self) -> String {
            String::from_utf8(self.bytes.borrow().clone()).expect("the export is UTF-8")
        }
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.bytes.borrow_mut().extend_from_slice(buf);
            self.writes.borrow_mut().push(buf.len());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn started_sink(out: &Recorder) -> JsonlSink {
        let mut sink = JsonlSink::new(Box::new(out.clone()));
        sink.run_start(
            7,
            3,
            "IM",
            Duration::from_millis(20.0),
            Duration::from_secs(10.0),
        );
        sink
    }

    fn send_at(millis: u32) -> TelemetryEvent {
        TelemetryEvent::MsgSend {
            at: Timestamp::from_secs(f64::from(millis) / 1000.0),
            from: 0,
            to: 1,
        }
    }

    #[test]
    fn jsonl_sink_frames_and_counts() {
        let out = Recorder::default();
        let mut sink = started_sink(&out);
        sink.observe(&sample_event());
        assert_eq!(sink.events(), 1);
        sink.finish(0, Duration::from_millis(8.0), &NetStats::default());

        let text = out.text();
        let n = tempo_telemetry::json::validate_stream(&text).expect("stream validates");
        assert_eq!(n, 3);
        assert!(text.contains("\"xi_witness\":0.008"));
        // The inactive server exports as null.
        assert!(text.contains("null"));
    }

    #[test]
    fn jsonl_sink_hands_over_whole_chunks_in_order() {
        let out = Recorder::default();
        let mut sink = started_sink(&out);
        let events: Vec<TelemetryEvent> = (0..6000).map(send_at).collect();
        let mut expected = String::new();
        for event in &events {
            sink.observe(event);
            expected.push_str(&tempo_telemetry::json::event_line(event));
            expected.push('\n');
        }
        assert!(
            out.writes.borrow().len() >= 3,
            "a few hundred KB should have gone out already"
        );
        sink.finish(0, Duration::from_millis(8.0), &NetStats::default());

        let writes = out.writes.borrow().clone();
        let (last, full) = writes.split_last().expect("something was written");
        assert!(
            full.iter().all(|&len| len >= JsonlSink::CHUNK),
            "{writes:?}"
        );
        assert!(*last > 0);
        let text = out.text();
        assert_eq!(
            tempo_telemetry::json::validate_stream(&text),
            Ok(events.len() + 2)
        );
        let (header, rest) = text.split_once('\n').expect("a header line");
        assert!(header.starts_with("{\"type\":\"run_start\""), "{header}");
        assert!(rest.starts_with(&expected), "events in emission order");
        assert!(rest[expected.len()..].starts_with("{\"type\":\"summary\",\"events\":6000,"));
    }

    #[test]
    fn jsonl_sink_dropped_without_finish_keeps_its_tail() {
        let out = Recorder::default();
        let mut sink = started_sink(&out);
        for millis in 0..10 {
            sink.observe(&send_at(millis));
        }
        assert!(out.bytes.borrow().is_empty(), "still below one chunk");
        drop(sink);
        let text = out.text();
        assert_eq!(text.lines().count(), 11, "header and ten events");
        assert!(
            text.ends_with("\"t\":0.009,\"from\":0,\"to\":1}\n"),
            "{text}"
        );
    }

    #[test]
    fn oracle_sink_screens_inactive_servers_and_reports_once() {
        use tempo_core::DriftRate;
        use tempo_oracle::{OracleConfig, ServerView};

        let views = vec![
            ServerView {
                drift_bound: DriftRate::new(1e-4),
                trusted: true,
            },
            ServerView {
                drift_bound: DriftRate::new(1e-4),
                trusted: true,
            },
        ];
        let mut sink = OracleSink::new(Oracle::new(3, OracleConfig::safety(), views));
        assert!(sink.enabled(EventKind::Sample));
        assert!(sink.enabled(EventKind::RoundAdopt));
        assert!(!sink.enabled(EventKind::MsgSend));

        // The second server is inactive *and* wildly wrong — screening
        // it out is what keeps the report clean.
        sink.observe(&sample_event());
        sink.observe(&TelemetryEvent::RoundAdopt {
            at: Timestamp::from_secs(1.5),
            server: 0,
            round: 1,
            clock: Timestamp::from_secs(1.5),
            error_before: Duration::from_millis(12.0),
            error_after: Duration::from_millis(6.0),
            input_widths: vec![Duration::from_millis(24.0), Duration::from_millis(12.0)],
            recovery: false,
        });
        let report = sink.finish().expect("first finish yields a report");
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.samples_checked, 1);
        assert_eq!(report.rounds_checked, 1);
        assert!(sink.finish().is_none(), "oracle is consumed");
    }

    #[test]
    fn default_path_round_trips() {
        // Other tests never touch the registry, so this is safe even
        // under the parallel test runner.
        set_default_telemetry_out(Some(PathBuf::from("/tmp/t.jsonl")));
        assert_eq!(default_telemetry_out(), Some(PathBuf::from("/tmp/t.jsonl")));
        set_default_telemetry_out(None);
        assert_eq!(default_telemetry_out(), None);
    }
}
