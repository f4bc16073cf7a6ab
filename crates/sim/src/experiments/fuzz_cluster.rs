//! E17's cluster arm — fuzzing ClusterTime failover schedules.
//!
//! The plain fuzzer ([`super::fuzz()`]) searches deployments of the time
//! *service*; this arm searches deployments of the *cluster* layer on
//! top of it, where the dangerous degrees of freedom are temporal:
//! when the primary crashes relative to its lease, whether the heir
//! crashes right as it is elected (a view-change race), whether the
//! restart is durable or amnesiac, and whether a Byzantine replica is
//! lying in its lease acks while all of that happens. Every generated
//! case runs with the ClusterTime oracle armed; a violation shrinks to
//! a minimal reproducer the same way the time-service fuzzer shrinks —
//! chaos first, then faults, then the horizon, then nodes.
//!
//! Generation and replay are fully determined by `(seed, horizon)`.

use std::fmt;
use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tempo_cluster::ClusterFault;
use tempo_core::{Duration, Timestamp};
use tempo_net::{NodeId, Partition};
use tempo_oracle::{Tightness, Violation};
use tempo_service::ServerFault;

use super::fuzz::{Fuzz, FuzzTarget};
use crate::cluster::{ClusterScenario, ReplicaSpec};

/// A generated crash on one replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterCrash {
    /// Crash instant as a fraction of the horizon.
    pub at: f64,
    /// Downtime before the restart, seconds.
    pub down: f64,
    /// Whether the replica comes back at all.
    pub restarts: bool,
}

/// How a Byzantine replica lies inside the cluster protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusterLie {
    /// Lease acks report an interval shifted by this many seconds.
    ShiftedAcks(f64),
    /// Every ack claims a zero high-water mark.
    UnderstatedHw,
}

/// One generated replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterFuzzReplica {
    /// Actual constant drift (within `bound` — honest hardware).
    pub drift: f64,
    /// Claimed drift bound.
    pub bound: f64,
    /// Initial inherited error, seconds.
    pub initial_error: f64,
    /// Initial offset, seconds (within the initial error).
    pub initial_offset: f64,
    /// The crash schedule, if any.
    pub crash: Option<ClusterCrash>,
    /// Whether restarts wipe the cluster store (amnesia).
    pub amnesia: bool,
    /// The Byzantine lie, if any (within the `f` budget only).
    pub lie: Option<ClusterLie>,
    /// Whether this replica's primary path skips the high-water flush
    /// (the bug-injection probe; never generated, armed by tests).
    pub skip_hw_flush: bool,
}

/// One generated cluster scenario, reproducible from its seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterFuzzCase {
    /// The generation seed (also the scenario's master seed).
    pub seed: u64,
    /// The generated replicas; index 0 is the view-0 primary.
    pub replicas: Vec<ClusterFuzzReplica>,
    /// Audit clients hammering the cluster.
    pub clients: usize,
    /// The tolerated Byzantine budget `f`.
    pub max_faulty: usize,
    /// Message loss probability.
    pub loss: f64,
    /// Whether a mid-run partition severs the primary from everyone.
    pub sever_primary: bool,
    /// The inner time-sync resynchronisation period `τ`, seconds. A
    /// period longer than the horizon leaves every replica coasting on
    /// its inherited offset — the regime where high-water durability
    /// carries the whole monotonicity promise.
    pub resync: f64,
    /// Run length, seconds.
    pub horizon: f64,
}

impl FuzzTarget for ClusterFuzzCase {
    const TITLE: &'static str = "E17 (cluster arm) — failover-schedule fuzz";

    fn from_seed(seed: u64, horizon: f64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let n = rng.random_range(3..=5usize);
        // f = 1 needs at least four replicas for a reachable quorum.
        let max_faulty = if n >= 4 && rng.random::<bool>() { 1 } else { 0 };
        let clients = rng.random_range(1..=2usize);
        let mut replicas: Vec<ClusterFuzzReplica> = (0..n)
            .map(|_| {
                let bound = 10f64.powf(rng.random_range(-5.0..-3.0));
                let drift = rng.random_range(-1.0..1.0) * bound;
                // Log-uniform inherited error in [10 ms, 2 s]: wide
                // enough that an ahead-of-time primary is common, which
                // is exactly what makes high-water durability load-bearing.
                let initial_error = 10f64.powf(rng.random_range(-2.0..0.3));
                let initial_offset = rng.random_range(-0.8..0.8) * initial_error;
                ClusterFuzzReplica {
                    drift,
                    bound,
                    initial_error,
                    initial_offset,
                    crash: None,
                    amnesia: false,
                    lie: None,
                    skip_hw_flush: false,
                }
            })
            .collect();
        // The heart of the fuzzer: when the primary dies relative to
        // its lease, and whether it comes back with its store intact.
        if rng.random::<f64>() < 0.75 {
            replicas[0].crash = Some(ClusterCrash {
                at: rng.random_range(0.2..0.6),
                down: rng.random_range(2.0..6.0),
                restarts: rng.random::<bool>(),
            });
            replicas[0].amnesia = rng.random::<f64>() < 0.4;
            // A view-change race: the heir crashes right around the
            // moment its own election would succeed.
            if n >= 4 && rng.random::<f64>() < 0.35 {
                let primary = replicas[0].crash.expect("just set");
                let race: f64 = rng.random_range(0.0..0.05);
                replicas[1].crash = Some(ClusterCrash {
                    at: (primary.at + race).min(0.9),
                    down: rng.random_range(2.0..6.0),
                    restarts: true,
                });
            }
        }
        // A Byzantine backup, only where the budget tolerates it.
        if max_faulty >= 1 && rng.random::<f64>() < 0.4 {
            let idx = rng.random_range(2..n);
            replicas[idx].lie = Some(if rng.random::<bool>() {
                ClusterLie::ShiftedAcks(rng.random_range(-0.5..0.5))
            } else {
                ClusterLie::UnderstatedHw
            });
        }
        let loss = if rng.random::<bool>() {
            0.0
        } else {
            rng.random_range(0.0..0.10)
        };
        let sever_primary = rng.random::<f64>() < 0.25;
        // One case in four coasts: the inner sync never fires, so the
        // cluster layer alone must keep the released stream monotonic.
        let resync = if rng.random::<f64>() < 0.25 {
            10.0 * horizon
        } else {
            rng.random_range(5.0..12.0)
        };
        ClusterFuzzCase {
            seed,
            replicas,
            clients,
            max_faulty,
            loss,
            sever_primary,
            resync,
            horizon,
        }
    }

    /// The ClusterTime rows measure no margin, so a clean case returns
    /// an empty [`Tightness`].
    fn check(&self) -> Result<Tightness, Violation> {
        let result = self.scenario().run();
        let reports = result
            .oracle
            .expect("cluster fuzz cases always arm the oracle");
        let first = reports.into_iter().flat_map(|r| r.violations).next();
        first.map_or(Ok(Tightness::default()), Err)
    }

    /// Order: calm the network, drop the lies, drop amnesia, drop
    /// crashes one at a time, halve the horizon, drop a client, drop
    /// replicas from the end.
    fn simpler(&self) -> Vec<Self> {
        let mut candidates = Vec::new();
        if self.has_chaos() {
            let mut calm = self.clone();
            calm.loss = 0.0;
            calm.sever_primary = false;
            candidates.push(calm);
        }
        if self.has_lie() {
            let mut honest = self.clone();
            for r in &mut honest.replicas {
                r.lie = None;
            }
            candidates.push(honest);
        }
        if self.replicas.iter().any(|r| r.amnesia) {
            let mut durable = self.clone();
            for r in &mut durable.replicas {
                r.amnesia = false;
            }
            candidates.push(durable);
        }
        for idx in (0..self.replicas.len()).rev() {
            if self.replicas[idx].crash.is_some() {
                let mut steady = self.clone();
                steady.replicas[idx].crash = None;
                candidates.push(steady);
            }
        }
        if self.horizon > 16.0 {
            let mut shorter = self.clone();
            shorter.horizon /= 2.0;
            candidates.push(shorter);
        }
        if self.clients > 1 {
            let mut fewer = self.clone();
            fewer.clients -= 1;
            candidates.push(fewer);
        }
        if self.replicas.len() > 3 {
            for drop_idx in (0..self.replicas.len()).rev() {
                let mut fewer = self.clone();
                fewer.replicas.remove(drop_idx);
                if fewer.replicas.len() < 4 {
                    fewer.max_faulty = 0;
                }
                candidates.push(fewer);
            }
        }
        candidates
    }
}

impl ClusterFuzzCase {
    /// Whether the network misbehaves at all.
    #[must_use]
    pub fn has_chaos(&self) -> bool {
        self.loss > 0.0 || self.sever_primary
    }

    /// Whether any replica lies in the cluster protocol.
    #[must_use]
    pub fn has_lie(&self) -> bool {
        self.replicas.iter().any(|r| r.lie.is_some())
    }

    /// The runnable scenario this case describes (oracle armed).
    #[must_use]
    pub fn scenario(&self) -> ClusterScenario {
        let n = self.replicas.len();
        let mut scenario = ClusterScenario::new();
        for r in &self.replicas {
            let mut spec = ReplicaSpec::honest(r.drift, r.bound)
                .initial_error(Duration::from_secs(r.initial_error))
                .initial_offset(Duration::from_secs(r.initial_offset))
                .amnesia(r.amnesia);
            if let Some(crash) = r.crash {
                let at = Timestamp::from_secs(self.horizon * crash.at);
                spec = spec.server_fault(if crash.restarts {
                    ServerFault::crash_restart(at, Duration::from_secs(crash.down), r.amnesia)
                } else {
                    ServerFault::crash_at(at)
                });
            }
            if r.skip_hw_flush {
                spec = spec.cluster_fault(ClusterFault::SkipHwFlush);
            } else if let Some(lie) = r.lie {
                spec = spec.cluster_fault(match lie {
                    ClusterLie::ShiftedAcks(shift) => ClusterFault::LieEstimate {
                        shift: Duration::from_secs(shift),
                    },
                    ClusterLie::UnderstatedHw => ClusterFault::UnderstateHw,
                });
            }
            scenario = scenario.replica(spec);
        }
        scenario = scenario
            .clients(self.clients)
            .max_faulty(self.max_faulty)
            .loss(self.loss)
            .resync_period(Duration::from_secs(self.resync))
            .duration(Duration::from_secs(self.horizon))
            .seed(self.seed);
        if self.sever_primary {
            scenario = scenario.partition(Partition {
                from: Timestamp::from_secs(self.horizon * 0.3),
                until: Timestamp::from_secs(self.horizon * 0.5),
                groups: vec![
                    vec![NodeId::new(0)],
                    (1..n + self.clients).map(NodeId::new).collect(),
                ],
            });
        }
        scenario
    }
}

impl fmt::Display for ClusterFuzzCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed {} n={} f={} clients={} loss={:.2} sever-primary={} τ={:.0}s horizon={:.0}s",
            self.seed,
            self.replicas.len(),
            self.max_faulty,
            self.clients,
            self.loss,
            self.sever_primary,
            self.resync,
            self.horizon,
        )?;
        for (i, r) in self.replicas.iter().enumerate() {
            write!(
                f,
                "\n    replica {i}: ε₀={:.0}ms offset₀={:+.0}ms",
                r.initial_error * 1e3,
                r.initial_offset * 1e3,
            )?;
            if let Some(crash) = r.crash {
                write!(
                    f,
                    " CRASH@{:.1}s{}",
                    self.horizon * crash.at,
                    if crash.restarts {
                        if r.amnesia {
                            " (amnesia restart)"
                        } else {
                            " (durable restart)"
                        }
                    } else {
                        " (for good)"
                    },
                )?;
            }
            match r.lie {
                Some(ClusterLie::ShiftedAcks(shift)) => {
                    write!(f, " LIAR(acks {:+.0}ms)", shift * 1e3)?;
                }
                Some(ClusterLie::UnderstatedHw) => write!(f, " LIAR(hw=0)")?,
                None => {}
            }
            if r.skip_hw_flush {
                write!(f, " SKIP-HW-FLUSH")?;
            }
        }
        Ok(())
    }
}

/// Runs the cluster fuzzer over a seed range, shrinking every failure.
#[must_use]
pub fn cluster_fuzz(seeds: Range<u64>, horizon: f64) -> Fuzz<ClusterFuzzCase> {
    Fuzz::sweep(seeds, horizon)
}

#[cfg(test)]
mod tests {
    use super::super::fuzz::shrink;
    use super::super::Verdict;
    use super::*;
    use tempo_oracle::TheoremId;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(
            ClusterFuzzCase::from_seed(7, 40.0),
            ClusterFuzzCase::from_seed(7, 40.0)
        );
        assert_ne!(
            ClusterFuzzCase::from_seed(7, 40.0),
            ClusterFuzzCase::from_seed(8, 40.0)
        );
    }

    #[test]
    fn generated_cases_respect_their_own_constraints() {
        let mut crashes = 0usize;
        let mut races = 0usize;
        let mut lies = 0usize;
        let mut amnesias = 0usize;
        for seed in 0..120 {
            let case = ClusterFuzzCase::from_seed(seed, 40.0);
            let n = case.replicas.len();
            assert!((3..=5).contains(&n));
            assert!(
                case.max_faulty == 0 || n >= 4,
                "seed {seed}: f = 1 needs a reachable quorum"
            );
            let liars = case.replicas.iter().filter(|r| r.lie.is_some()).count();
            assert!(liars <= case.max_faulty, "seed {seed}: lies within budget");
            for r in &case.replicas {
                assert!(r.drift.abs() <= r.bound, "honest hardware");
                assert!(r.initial_offset.abs() < r.initial_error, "correct at t = 0");
                assert!(!r.skip_hw_flush, "the probe is never generated");
                if let Some(crash) = r.crash {
                    assert!(crash.at < 1.0, "crash inside the horizon");
                    crashes += 1;
                }
            }
            races += usize::from(
                case.replicas[0].crash.is_some() && n > 1 && {
                    let heir = &case.replicas[1];
                    heir.crash.is_some()
                },
            );
            lies += liars;
            amnesias += case.replicas.iter().filter(|r| r.amnesia).count();
            // The scenario must build and validate.
            let _ = case.scenario();
        }
        assert!(crashes > 0, "primary crashes are generated");
        assert!(races > 0, "view-change races are generated");
        assert!(lies > 0, "Byzantine acks are generated");
        assert!(amnesias > 0, "amnesiac restarts are generated");
    }

    #[test]
    fn small_cluster_fuzz_sweep_is_clean() {
        let outcome = cluster_fuzz(0..6, 30.0);
        assert_eq!(outcome.cases_run, 6);
        assert!(outcome.reproduces_shape(), "{outcome}");
    }

    #[test]
    fn skipped_hw_flush_is_caught_and_shrunk() {
        // The acceptance probe: a primary whose clock runs 2 s ahead
        // (within its claimed 5 s error) releases timestamps without
        // persisting or replicating its high-water mark, then crashes;
        // the successor, never having seen the mark, re-issues lower
        // timestamps. The bug is buried under loss, a bystander
        // replica, and a second client; the oracle must catch it and
        // shrinking must strip the camouflage while keeping the bug.
        let honest = ClusterFuzzReplica {
            drift: 1e-6,
            bound: 1e-4,
            initial_error: 5.0,
            initial_offset: 0.0,
            crash: None,
            amnesia: false,
            lie: None,
            skip_hw_flush: false,
        };
        let mut case = ClusterFuzzCase::from_seed(16, 25.0);
        case.max_faulty = 0;
        case.clients = 2;
        case.loss = 0.05;
        case.sever_primary = false;
        // The primary coasts on its inherited skew: the inner sync
        // never fires, so only the high-water mark protects the stream.
        case.resync = 500.0;
        case.replicas = vec![
            ClusterFuzzReplica {
                initial_offset: 2.0,
                crash: Some(ClusterCrash {
                    at: 0.4,
                    down: 5.0,
                    restarts: false,
                }),
                skip_hw_flush: true,
                ..honest
            },
            honest,
            honest,
            honest,
        ];

        let violation = case.check().expect_err("the skipped flush must violate");
        assert_eq!(violation.theorem, TheoremId::ClusterMonotonic);

        let minimal = shrink(case);
        assert!(!minimal.has_chaos(), "chaos must shrink away");
        assert!(
            minimal.replicas.len() <= 3,
            "bystanders must shrink away, got {}",
            minimal.replicas.len()
        );
        assert!(
            minimal.replicas.iter().any(|r| r.skip_hw_flush),
            "the buggy replica must survive shrinking"
        );
        let v = minimal.check().expect_err("still violating");
        assert_eq!(v.theorem, TheoremId::ClusterMonotonic);
        assert_eq!(v.seed, minimal.seed, "reproducer carries its seed");
    }

    #[test]
    fn cluster_fuzz_report_renders() {
        let outcome = cluster_fuzz(0..2, 20.0);
        let text = outcome.to_string();
        assert!(text.contains("cluster arm"), "{text}");
        assert!(text.contains("2 cases"), "{text}");
    }
}
