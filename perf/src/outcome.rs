//! What one workload run hands back, and how it is printed.

use crate::json::{metric, num, obj, Json};
use crate::spec;

/// The seven end-to-end metrics of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEndRow {
    pub setup_s: f64,
    pub throughput_ops_s: f64,
    pub latency_p50_us: f64,
    pub latency_tail_us: f64,
    pub ok_share: f64,
    pub cpu_us_per_op: f64,
    pub peak_rss_mb: f64,
}

impl EndToEndRow {
    /// The values in [`spec::END_TO_END`] order.
    pub fn values(&self) -> [f64; 7] {
        [
            self.setup_s,
            self.throughput_ops_s,
            self.latency_p50_us,
            self.latency_tail_us,
            self.ok_share,
            self.cpu_us_per_op,
            self.peak_rss_mb,
        ]
    }
}

/// One finished run of one workload. Every output check has passed by
/// the time this exists; a failed check is an `Err` and a non-zero exit.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted and failed, in `ok_share`'s unit.
    pub attempted: u64,
    pub failed: u64,
    /// Set by the untraced run.
    pub end_to_end: Option<EndToEndRow>,
    /// Set by the traced run: per-layer metrics the workload exercises
    /// (the rest read 0).
    pub per_layer: Vec<(&'static str, f64)>,
    /// Counters that repeat bit-for-bit under a seed.
    pub exact: Vec<(&'static str, f64)>,
    /// Sample counts, sizes and settings worth recording.
    pub notes: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Outcome {
        Outcome {
            attempted,
            failed,
            ..Outcome::default()
        }
    }

    pub fn note(&mut self, key: &'static str, value: f64) {
        self.notes.push((key, value));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            spec::PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not in the catalogue"
        );
        self.per_layer.push((name, value));
    }

    /// The `metrics` object: every end-to-end metric for an untraced
    /// run, every per-layer metric for a traced one.
    pub fn metrics_json(&self) -> Json {
        let fields = match &self.end_to_end {
            Some(row) => spec::END_TO_END
                .iter()
                .zip(row.values())
                .map(|(m, v)| (m.name.to_string(), metric(v, m.unit)))
                .collect(),
            None => spec::PER_LAYER
                .iter()
                .map(|m| {
                    let value = self
                        .per_layer
                        .iter()
                        .find(|(name, _)| *name == m.name)
                        .map_or(0.0, |&(_, v)| v);
                    (m.name.to_string(), metric(value, m.unit))
                })
                .collect(),
        };
        Json::Obj(fields)
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> Json {
        obj(vec![
            ("correct", Json::Bool(true)),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
    }

    /// The line before it, for `run` and `trace`: exact counters and
    /// notes.
    pub fn detail_line(&self) -> Json {
        let pairs = |items: &[(&'static str, f64)]| {
            Json::Obj(
                items
                    .iter()
                    .map(|&(k, v)| (k.to_string(), num(v)))
                    .collect(),
            )
        };
        obj(vec![(
            "detail",
            obj(vec![
                ("exact", pairs(&self.exact)),
                ("notes", pairs(&self.notes)),
            ]),
        )])
    }
}
