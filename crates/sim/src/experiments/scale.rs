//! Experiment E14 (extension) — scaling study.
//!
//! The paper's service ran on "hundreds" of public machines across the
//! Xerox internet; its theorems are per-pair and say nothing about how
//! cost and quality move with service size or topology. This study
//! measures both: asynchronism, claimed error, and message cost as the
//! service grows, and the same service on the paper's connected-graph
//! generalisation (ring/star) instead of the fully-connected analysis
//! case.

use std::fmt;

use tempo_core::{Duration, Timestamp};
use tempo_net::{DelayModel, Topology};
use tempo_service::Strategy;

use super::Verdict;
use crate::report::{secs, Table};
use crate::scenario::{Scenario, ServerSpec};

/// One configuration of the scaling sweep.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Strategy.
    pub strategy: String,
    /// Topology name.
    pub topology: String,
    /// Servers.
    pub n: usize,
    /// Worst asynchronism after warm-up (seconds).
    pub asynchronism: f64,
    /// Mean claimed error at the end (seconds).
    pub mean_error: f64,
    /// Messages sent per server per resync period.
    pub msgs_per_server_period: f64,
    /// Correctness violations (must be zero).
    pub violations: usize,
}

/// Results of E14.
#[derive(Debug, Clone)]
pub struct Scale {
    /// One row per configuration.
    pub rows: Vec<ScaleRow>,
}

fn run_scale(strategy: Strategy, topology_name: &str, n: usize, seed: u64) -> ScaleRow {
    let tau = 10.0;
    let duration = tau * 20.0;
    let topology = match topology_name {
        "mesh" => Topology::full_mesh(n),
        "ring" => Topology::ring(n),
        "star" => Topology::star(n),
        other => unreachable!("unknown topology {other}"),
    };
    let mut scenario = Scenario::new(strategy)
        .topology(topology)
        .delay(DelayModel::Uniform {
            min: Duration::ZERO,
            max: Duration::from_millis(5.0),
        })
        .resync_period(Duration::from_secs(tau))
        .collect_window(Duration::from_secs(0.5))
        .duration(Duration::from_secs(duration))
        .sample_interval(Duration::from_secs(tau / 2.0))
        .seed(seed);
    for i in 0..n {
        let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
        let frac = 0.8 * (1.0 - i as f64 / (2.0 * n as f64));
        scenario = scenario.server(ServerSpec::honest(sign * frac * 1e-4, 1e-4));
    }
    let result = scenario.run();
    let periods = duration / tau;
    ScaleRow {
        strategy: strategy.name().to_string(),
        topology: topology_name.to_string(),
        n,
        asynchronism: result
            .max_asynchronism_after(Timestamp::from_secs(3.0 * tau))
            .as_secs(),
        mean_error: result.last().mean_error().as_secs(),
        msgs_per_server_period: result.net.sent as f64 / (n as f64 * periods),
        violations: result.correctness_violations(),
    }
}

/// Runs E14: MM and IM over mesh sizes 4–32 and over ring/star at
/// n = 16.
#[must_use]
pub fn scale() -> Scale {
    let mut rows = Vec::new();
    for (k, strategy) in [Strategy::Mm, Strategy::Im].into_iter().enumerate() {
        for (j, n) in [4usize, 8, 16, 32].into_iter().enumerate() {
            rows.push(run_scale(
                strategy,
                "mesh",
                n,
                1000 + 10 * k as u64 + j as u64,
            ));
        }
        for topo in ["ring", "star"] {
            rows.push(run_scale(strategy, topo, 16, 1100 + k as u64));
        }
    }
    Scale { rows }
}

impl Verdict for Scale {
    /// Safety holds everywhere, message cost in a mesh grows linearly
    /// with `n` per server (broadcast), and sparse topologies stay
    /// correct at a fraction of the cost.
    fn reproduces_shape(&self) -> bool {
        let safe = self.rows.iter().all(|r| r.violations == 0);
        let mesh_cost_grows = {
            let cost = |n: usize| {
                self.rows
                    .iter()
                    .find(|r| r.topology == "mesh" && r.n == n && r.strategy == "IM")
                    .map(|r| r.msgs_per_server_period)
            };
            match (cost(4), cost(32)) {
                (Some(small), Some(large)) => large > small * 4.0,
                _ => false,
            }
        };
        let ring_cheaper = {
            let find = |topo: &str| {
                self.rows
                    .iter()
                    .find(|r| r.topology == topo && r.n == 16 && r.strategy == "IM")
                    .map(|r| r.msgs_per_server_period)
            };
            match (find("ring"), find("mesh")) {
                (Some(ring), Some(mesh)) => ring < mesh / 2.0,
                _ => false,
            }
        };
        safe && mesh_cost_grows && ring_cheaper
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E14 — scaling: size and topology")?;
        let mut table = Table::new(vec![
            "strategy",
            "topology",
            "n",
            "asynch",
            "mean E",
            "msgs/server/tau",
            "viol",
        ]);
        for r in &self.rows {
            table.row(vec![
                r.strategy.clone(),
                r.topology.clone(),
                r.n.to_string(),
                secs(r.asynchronism),
                secs(r.mean_error),
                format!("{:.1}", r.msgs_per_server_period),
                r.violations.to_string(),
            ]);
        }
        write!(f, "{table}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_rows_are_safe() {
        for strategy in [Strategy::Mm, Strategy::Im] {
            let row = run_scale(strategy, "mesh", 6, 77);
            assert_eq!(row.violations, 0, "{row:?}");
            assert!(row.asynchronism < 0.5);
        }
    }

    #[test]
    fn sparse_topologies_stay_safe() {
        for topo in ["ring", "star"] {
            let row = run_scale(Strategy::Im, topo, 8, 78);
            assert_eq!(row.violations, 0, "{row:?}");
        }
    }

    #[test]
    fn mesh_message_cost_scales_with_n() {
        let small = run_scale(Strategy::Im, "mesh", 4, 79);
        let large = run_scale(Strategy::Im, "mesh", 16, 79);
        assert!(
            large.msgs_per_server_period > small.msgs_per_server_period * 2.0,
            "broadcast cost must grow with n: {} vs {}",
            small.msgs_per_server_period,
            large.msgs_per_server_period
        );
    }
}
