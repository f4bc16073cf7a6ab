//! E17 — the oracle-gated scenario fuzzer.
//!
//! Every experiment so far checks the theorems at hand-picked
//! configurations. The fuzzer closes the gap: from a seed it generates a
//! random deployment — topology size, drifts, initial offsets, delays,
//! loss, duplication, partitions, liars, synchronisation algorithm —
//! runs it with the theorem oracle armed (gated to the predicates the
//! theorems actually guarantee in that deployment), and on a violation
//! *shrinks* the scenario to a minimal reproducer: network chaos first,
//! then faults, then the horizon, then servers, until nothing more can
//! be removed without losing the violation.
//!
//! Generation and replay are fully determined by `(seed, horizon)`, so a
//! failure report is reproducible from its numbers alone.

use std::fmt;
use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tempo_core::{Duration, Timestamp};
use tempo_net::{DelayModel, NodeId, Partition};
use tempo_oracle::{EnvelopeKind, EnvelopeParams, OracleConfig, Violation};
use tempo_service::{ServerFault, Strategy};

use super::Verdict;
use crate::scenario::{Scenario, ServerSpec};

/// The Byzantine tier of a generated liar: how sophisticated its lie
/// is. Tiers are only drawn where the strategy claims to tolerate them
/// (Marzullo with `f ≥ 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiarTier {
    /// A fixed skewed clock under a shrunken error, told to everyone.
    Simple,
    /// Per-destination sign flips: half the service is told "fast",
    /// the other half "slow".
    TwoFaced,
    /// A lie crafted online against each victim's remembered `(r, ε)`,
    /// placed inside the victim's own interval to evade screens.
    Adversarial,
}

/// One generated server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FuzzServer {
    /// Actual constant drift (within `bound` — honest hardware).
    pub drift: f64,
    /// Claimed drift bound `δ_i`.
    pub bound: f64,
    /// Initial inherited error, seconds.
    pub initial_error: f64,
    /// Initial offset, seconds (within the initial error, so Theorem 1
    /// holds at `t = 0`).
    pub initial_offset: f64,
    /// Whether this server lies to its peers (Marzullo cases only).
    pub liar: bool,
    /// How the server lies, when it does.
    pub tier: LiarTier,
    /// Whether a transient fault overwrites this server's state with
    /// garbage mid-run (Marzullo cases with spare fault budget only).
    pub corrupt: bool,
    /// Whether this server's MM-2 adoption guard is weakened (the
    /// bug-injection probe; never generated, armed by tests/CLI).
    pub weakened: bool,
}

/// One generated scenario, reproducible from its seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// The generation seed (also the scenario's master seed).
    pub seed: u64,
    /// The synchronisation algorithm under test.
    pub strategy: Strategy,
    /// The generated servers.
    pub servers: Vec<FuzzServer>,
    /// Maximum one-way delay, seconds.
    pub max_delay: f64,
    /// Message loss probability.
    pub loss: f64,
    /// Message duplication probability.
    pub duplication: f64,
    /// Whether a mid-run partition splits the service in two.
    pub partition: bool,
    /// Resync period `τ`, seconds.
    pub resync: f64,
    /// Run length, seconds.
    pub horizon: f64,
}

impl FuzzTarget for FuzzCase {
    const TITLE: &'static str = "E17 — oracle-gated fuzz";

    fn from_seed(seed: u64, horizon: f64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let n = rng.random_range(3..=6usize);
        // The tolerated fault budget is drawn too: Marzullo with f = 0
        // degenerates to the plain intersection, f = 2 doubles the
        // lies a deployment must absorb.
        let max_faulty = rng.random_range(0..=2usize);
        let strategy = match rng.random_range(0..3u32) {
            0 => Strategy::Mm,
            1 => Strategy::Im,
            _ => Strategy::MarzulloTolerant { max_faulty },
        };
        // Liars are only generated where the algorithm claims to
        // tolerate them: at most `f` of them, and never more than the
        // honest majority can pin down (at least two more honest
        // servers than liars), so the max-coverage region still
        // contains real time and the sweep must come back clean.
        let budget = match strategy {
            Strategy::MarzulloTolerant { max_faulty } => max_faulty,
            _ => 0,
        };
        let max_liars = budget.min(n.saturating_sub(2) / 2);
        let liars = if max_liars > 0 && rng.random::<f64>() < 0.4 {
            rng.random_range(1..=max_liars)
        } else {
            0
        };
        // A transient state corruption consumes one unit of the same
        // budget (a corrupted server is one more arbitrary source per
        // round until it stabilizes).
        let corrupt = budget > liars && n >= 4 && rng.random::<f64>() < 0.25;
        let servers = (0..n)
            .map(|i| {
                // Log-uniform bound in [1e-5, 1e-3].
                let bound = 10f64.powf(rng.random_range(-5.0..-3.0));
                let drift = rng.random_range(-1.0..1.0) * bound;
                let initial_error = rng.random_range(0.005..0.020);
                let initial_offset = rng.random_range(-0.4..0.4) * initial_error;
                let tier = match rng.random_range(0..3u32) {
                    0 => LiarTier::Simple,
                    1 => LiarTier::TwoFaced,
                    _ => LiarTier::Adversarial,
                };
                FuzzServer {
                    drift,
                    bound,
                    initial_error,
                    initial_offset,
                    liar: i >= n - liars,
                    tier,
                    // Liars sit at the tail, the corruption victim at
                    // the head: a server is never both.
                    corrupt: corrupt && i == 0,
                    weakened: false,
                }
            })
            .collect();
        let max_delay = rng.random_range(0.001..0.008);
        let loss = if rng.random::<bool>() {
            0.0
        } else {
            rng.random_range(0.0..0.2)
        };
        let duplication = if rng.random::<f64>() < 0.2 {
            rng.random_range(0.0..0.05)
        } else {
            0.0
        };
        let partition = rng.random::<f64>() < 0.25;
        let resync = rng.random_range(5.0..12.0);
        FuzzCase {
            seed,
            strategy,
            servers,
            max_delay,
            loss,
            duplication,
            partition,
            resync,
            horizon,
        }
    }

    fn check(&self) -> Option<Violation> {
        let result = self.scenario().run();
        let report = result.oracle.expect("fuzz cases always arm the oracle");
        report.violations.into_iter().next()
    }

    /// Order: drop network chaos, drop liars, drop the corruption,
    /// halve the horizon, drop servers from the end.
    fn simpler(&self) -> Vec<Self> {
        let mut candidates = Vec::new();
        if self.has_chaos() {
            let mut calm = self.clone();
            calm.loss = 0.0;
            calm.duplication = 0.0;
            calm.partition = false;
            candidates.push(calm);
        }
        if self.has_liar() {
            let mut honest = self.clone();
            for s in &mut honest.servers {
                s.liar = false;
            }
            candidates.push(honest);
        }
        if self.has_corrupt() {
            let mut intact = self.clone();
            for s in &mut intact.servers {
                s.corrupt = false;
            }
            candidates.push(intact);
        }
        if self.horizon > 4.0 * self.resync {
            // A shorter run also drops the corruption: halving could
            // otherwise leave too little room for stabilization and
            // manufacture a *new* violation instead of preserving the
            // original one.
            let mut shorter = self.clone();
            shorter.horizon /= 2.0;
            for s in &mut shorter.servers {
                s.corrupt = false;
            }
            candidates.push(shorter);
        }
        if self.servers.len() > 2 {
            for drop_idx in (0..self.servers.len()).rev() {
                let mut fewer = self.clone();
                fewer.servers.remove(drop_idx);
                candidates.push(fewer);
            }
        }
        candidates
    }
}

impl FuzzCase {
    /// Whether any server lies.
    #[must_use]
    pub fn has_liar(&self) -> bool {
        self.servers.iter().any(|s| s.liar)
    }

    /// Whether any server suffers a mid-run state corruption.
    #[must_use]
    pub fn has_corrupt(&self) -> bool {
        self.servers.iter().any(|s| s.corrupt)
    }

    /// Whether the network misbehaves at all.
    #[must_use]
    pub fn has_chaos(&self) -> bool {
        self.loss > 0.0 || self.duplication > 0.0 || self.partition
    }

    /// The round-trip bound `ξ` implied by the delay model.
    #[must_use]
    pub fn xi(&self) -> f64 {
        2.0 * self.max_delay
    }

    /// The oracle gating this case is *sound* under:
    ///
    /// * the adoption guard always applies;
    /// * the trust checks — correctness, error growth and consistency —
    ///   apply unless a liar can corrupt an honest server's estimate
    ///   (Marzullo's max-coverage region is not guaranteed to contain
    ///   real time when a liar is present, and its disjoint-fallback
    ///   adoption may raise `E` on an honest server);
    /// * the Theorem 6 intersection check applies wherever IM rounds are
    ///   traced;
    /// * for Marzullo cases the §4 f-tolerance predicate is armed:
    ///   every adoption by an honest, stabilized server must still
    ///   contain real time, since at most `f` of its round inputs are
    ///   arbitrary by construction;
    /// * when a state corruption is drawn, the self-stabilization bound
    ///   is armed at `8τ` — a handful of rounds is ample for the §5
    ///   screen to re-converge even through loss or a partition;
    /// * the steady-state envelope theorems (2/3 for MM, 7 for IM) apply
    ///   only to clean deployments: no loss, duplication, partitions, or
    ///   liars, and a warm-up of `3τ`.
    #[must_use]
    pub fn oracle_config(&self) -> OracleConfig {
        let mut config = OracleConfig::safety();
        if self.has_liar() {
            config = config.without_trust_checks();
        }
        if matches!(self.strategy, Strategy::MarzulloTolerant { .. }) {
            config = config.f_tolerant();
        }
        if self.has_corrupt() {
            config = config.stabilization(Duration::from_secs(8.0 * self.resync));
        }
        let envelope_kind = match self.strategy {
            Strategy::Mm => Some(EnvelopeKind::Mm),
            Strategy::Im => Some(EnvelopeKind::Im),
            _ => None,
        };
        if let Some(kind) = envelope_kind {
            if !self.has_chaos() && !self.has_liar() {
                let xi = self.xi();
                // Effective inter-reset spacing: period + 10 % jitter +
                // the collection window (cf. experiment E8).
                let tau_eff = self.resync * 1.1 + self.collect_window();
                config = config.envelope(EnvelopeParams {
                    kind,
                    xi: Duration::from_secs(xi),
                    tau: Duration::from_secs(tau_eff),
                    warmup: Timestamp::from_secs(3.0 * self.resync),
                    slack: Duration::from_secs(xi),
                });
            }
        }
        config
    }

    fn collect_window(&self) -> f64 {
        (self.max_delay * 4.0).min(self.resync / 2.0)
    }

    /// The runnable scenario this case describes.
    #[must_use]
    pub fn scenario(&self) -> Scenario {
        let n = self.servers.len();
        let mut scenario = Scenario::new(self.strategy)
            .delay(DelayModel::Uniform {
                min: Duration::ZERO,
                max: Duration::from_secs(self.max_delay),
            })
            .loss(self.loss)
            .duplication(self.duplication)
            .resync_period(Duration::from_secs(self.resync))
            .collect_window(Duration::from_secs(self.collect_window()))
            .duration(Duration::from_secs(self.horizon))
            .sample_interval(Duration::from_secs(1.0))
            .seed(self.seed)
            .oracle(self.oracle_config());
        if self.partition {
            let half = n / 2;
            scenario = scenario.partition(Partition {
                from: Timestamp::from_secs(self.horizon * 0.3),
                until: Timestamp::from_secs(self.horizon * 0.5),
                groups: vec![
                    (0..half).map(NodeId::new).collect(),
                    (half..n).map(NodeId::new).collect(),
                ],
            });
        }
        for server in &self.servers {
            let mut spec = ServerSpec::honest(server.drift, server.bound)
                .initial_error(Duration::from_secs(server.initial_error))
                .initial_offset(Duration::from_secs(server.initial_offset));
            if server.liar {
                let from = Timestamp::from_secs(self.horizon * 0.2);
                spec = spec.server_fault(match server.tier {
                    LiarTier::Simple => ServerFault::lie_from(from, Duration::from_secs(0.5), 0.1),
                    LiarTier::TwoFaced => {
                        ServerFault::two_faced_from(from, Duration::from_secs(0.5), 0.1)
                    }
                    LiarTier::Adversarial => ServerFault::adversarial_from(from, 0.1),
                });
            }
            if server.corrupt {
                spec = spec.server_fault(ServerFault::corrupt_at(
                    Timestamp::from_secs(self.horizon * 0.25),
                    self.seed ^ 0xC0FF_EE00,
                ));
            }
            if server.weakened {
                spec = spec.server_fault(ServerFault::weaken_adoption_from(
                    Timestamp::ZERO,
                    Duration::from_secs(0.050),
                ));
            }
            scenario = scenario.server(spec);
        }
        scenario
    }
}

impl fmt::Display for FuzzCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed {} {} n={} delay≤{:.1}ms loss={:.2} dup={:.2} partition={} τ={:.1}s horizon={:.0}s",
            self.seed,
            self.strategy,
            self.servers.len(),
            self.max_delay * 1e3,
            self.loss,
            self.duplication,
            self.partition,
            self.resync,
            self.horizon,
        )?;
        for (i, s) in self.servers.iter().enumerate() {
            write!(
                f,
                "\n    server {i}: drift={:+.2e} bound={:.0e} ε₀={:.1}ms offset₀={:+.1}ms{}{}{}",
                s.drift,
                s.bound,
                s.initial_error * 1e3,
                s.initial_offset * 1e3,
                match (s.liar, s.tier) {
                    (false, _) => "",
                    (true, LiarTier::Simple) => " LIAR",
                    (true, LiarTier::TwoFaced) => " LIAR(two-faced)",
                    (true, LiarTier::Adversarial) => " LIAR(adversarial)",
                },
                if s.corrupt { " CORRUPT" } else { "" },
                if s.weakened { " WEAKENED-GUARD" } else { "" },
            )?;
        }
        Ok(())
    }
}

/// One arm of the fuzzer: a deployment description that can be
/// generated from a seed, run against its oracle, and simplified.
/// [`fuzz`]'s sweep, [`shrink`] and the [`Fuzz`] report are written
/// once over this trait; an arm supplies its generator, its candidate
/// order and its report's headline.
pub trait FuzzTarget: Clone + fmt::Display {
    /// The report's headline, before `: N cases, M violating`.
    const TITLE: &'static str;

    /// Generates a case from a seed. The same `(seed, horizon)` always
    /// yields the same case.
    #[must_use]
    fn from_seed(seed: u64, horizon: f64) -> Self;

    /// Runs the case and returns the first violation, if any.
    #[must_use]
    fn check(&self) -> Option<Violation>;

    /// The cases one simplification away from this one, cheapest
    /// first.
    #[must_use]
    fn simpler(&self) -> Vec<Self>;
}

/// Shrinks a failing case to a minimal reproducer: repeatedly takes the
/// first of [`FuzzTarget::simpler`] that still violates, to a fixpoint.
#[must_use]
pub fn shrink<C: FuzzTarget>(mut case: C) -> C {
    while let Some(simpler) = case.simpler().into_iter().find(|c| c.check().is_some()) {
        case = simpler;
    }
    case
}

/// One confirmed violation with its minimal reproducer.
#[derive(Debug, Clone)]
pub struct FuzzFailure<C> {
    /// The seed that produced the original failing case.
    pub seed: u64,
    /// The shrunk case.
    pub minimal: C,
    /// The first violation the minimal case produces.
    pub violation: Violation,
}

/// Results of a fuzz run.
#[derive(Debug, Clone)]
pub struct Fuzz<C> {
    /// How many seeds were generated and run.
    pub cases_run: usize,
    /// The failures, one per violating seed, each shrunk.
    pub failures: Vec<FuzzFailure<C>>,
}

impl<C: FuzzTarget> Fuzz<C> {
    /// Runs the arm over a seed range, shrinking every failure.
    pub(super) fn sweep(seeds: Range<u64>, horizon: f64) -> Self {
        let mut failures = Vec::new();
        let mut cases_run = 0;
        for seed in seeds {
            cases_run += 1;
            let case = C::from_seed(seed, horizon);
            if case.check().is_some() {
                let minimal = shrink(case);
                let violation = minimal.check().expect("shrinking preserves the violation");
                failures.push(FuzzFailure {
                    seed,
                    minimal,
                    violation,
                });
            }
        }
        Fuzz {
            cases_run,
            failures,
        }
    }
}

impl<C: FuzzTarget> Verdict for Fuzz<C> {
    /// No generated case violated any gated predicate.
    fn reproduces_shape(&self) -> bool {
        self.failures.is_empty()
    }
}

impl<C: FuzzTarget> fmt::Display for Fuzz<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} cases, {} violating",
            C::TITLE,
            self.cases_run,
            self.failures.len()
        )?;
        for failure in &self.failures {
            writeln!(f, "FAIL seed {}:", failure.seed)?;
            writeln!(f, "  {}", failure.violation)?;
            writeln!(f, "  minimal reproducer: {}", failure.minimal)?;
        }
        Ok(())
    }
}

/// Runs the time-service fuzzer over a seed range, shrinking every
/// failure.
#[must_use]
pub fn fuzz(seeds: Range<u64>, horizon: f64) -> Fuzz<FuzzCase> {
    Fuzz::sweep(seeds, horizon)
}

/// The E17 catalogue report: the time-service sweep and the cluster
/// failover-schedule sweep, side by side.
#[derive(Debug, Clone)]
pub struct FuzzSmoke {
    /// The time-service arm (this module).
    pub time: Fuzz<FuzzCase>,
    /// The cluster arm ([`super::fuzz_cluster`]).
    pub cluster: Fuzz<super::fuzz_cluster::ClusterFuzzCase>,
}

impl Verdict for FuzzSmoke {
    /// Both arms came back clean.
    fn reproduces_shape(&self) -> bool {
        self.time.reproduces_shape() && self.cluster.reproduces_shape()
    }
}

impl fmt::Display for FuzzSmoke {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.time, self.cluster)
    }
}

/// The catalogue entry: a fixed smoke sweep — time-service seeds 0..32
/// at a 60 s horizon, cluster seeds 0..16 at a 40 s horizon.
#[must_use]
pub fn fuzz_smoke() -> FuzzSmoke {
    FuzzSmoke {
        time: fuzz(0..32, 60.0),
        cluster: super::fuzz_cluster::cluster_fuzz(0..16, 40.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_oracle::TheoremId;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(FuzzCase::from_seed(7, 60.0), FuzzCase::from_seed(7, 60.0));
        assert_ne!(FuzzCase::from_seed(7, 60.0), FuzzCase::from_seed(8, 60.0));
    }

    #[test]
    fn generated_cases_respect_their_own_constraints() {
        let mut budgets = [0usize; 3];
        let mut tiers_seen = 0usize;
        let mut corruptions = 0usize;
        for seed in 0..120 {
            let case = FuzzCase::from_seed(seed, 60.0);
            let n = case.servers.len();
            assert!((3..=6).contains(&n));
            let budget = match case.strategy {
                Strategy::MarzulloTolerant { max_faulty } => {
                    assert!(max_faulty <= 2, "budget drawn from 0..=2");
                    budgets[max_faulty] += 1;
                    max_faulty
                }
                _ => 0,
            };
            let liars = case.servers.iter().filter(|s| s.liar).count();
            let corrupt = case.servers.iter().filter(|s| s.corrupt).count();
            assert!(
                liars + corrupt <= budget,
                "seed {seed}: {liars} liars + {corrupt} corrupt exceed f = {budget}"
            );
            assert!(liars <= n.saturating_sub(2) / 2, "honest majority margin");
            for s in &case.servers {
                assert!(s.drift.abs() <= s.bound, "honest hardware");
                assert!(s.initial_offset.abs() < s.initial_error, "correct at t = 0");
                assert!(!(s.liar && s.corrupt), "one fault per server");
                if s.liar {
                    assert!(
                        matches!(case.strategy, Strategy::MarzulloTolerant { .. }),
                        "liars only where tolerated"
                    );
                    assert!(n >= 4);
                    if s.tier != LiarTier::Simple {
                        tiers_seen += 1;
                    }
                }
            }
            corruptions += corrupt;
            assert!(case.collect_window() < case.resync);
            // The scenario must build and validate.
            let _ = case.scenario();
        }
        assert!(
            budgets.iter().all(|&b| b > 0),
            "every budget in 0..=2 is generated: {budgets:?}"
        );
        assert!(tiers_seen > 0, "higher Byzantine tiers are generated");
        assert!(corruptions > 0, "corruption events are generated");
    }

    #[test]
    fn small_fuzz_sweep_is_clean() {
        let outcome = fuzz(0..8, 45.0);
        assert_eq!(outcome.cases_run, 8);
        assert!(outcome.reproduces_shape(), "{outcome}");
    }

    #[test]
    fn backward_step_mid_flight_stays_correct() {
        // Regression pin for a genuine Theorem 1 break this fuzzer
        // found (seed 52 reproduces it under the in-tree generator:
        // with `apply_reset`'s mark rebasing removed this case fails
        // `Correctness`): an honest, fault-free MM deployment where
        // one adoption steps the clock backward while a second request
        // is still in flight. Un-rebased, the late reply's measured
        // round-trip clamps to zero and MM-2 adopts it with no delay
        // widening — an interval that excludes real time. The shrunk
        // reproducer (chaos stripped) must now run clean.
        let mut case = FuzzCase::from_seed(52, 60.0);
        assert!(matches!(case.strategy, Strategy::Mm), "reproducer shape");
        assert!(!case.has_liar() && !case.has_corrupt(), "fault-free");
        case.loss = 0.0;
        case.duplication = 0.0;
        case.partition = false;
        assert_eq!(case.check(), None, "rebased marks keep MM correct");
    }

    #[test]
    fn weakened_adoption_guard_is_caught_and_shrunk() {
        // The acceptance probe: an MM deployment whose server 1 runs a
        // weakened MM-2 guard, buried under network chaos and extra
        // servers. The oracle must catch it and shrinking must strip
        // the camouflage while keeping the bug.
        let mut case = FuzzCase::from_seed(1234, 120.0);
        case.strategy = Strategy::Mm;
        for s in &mut case.servers {
            s.liar = false;
        }
        while case.servers.len() < 5 {
            case.servers.push(case.servers[0]);
        }
        case.loss = 0.1;
        case.duplication = 0.02;
        case.partition = true;
        case.servers[1].weakened = true;

        let violation = case.check().expect("the weakened guard must violate");
        assert!(matches!(
            violation.theorem,
            TheoremId::AdoptionGuard | TheoremId::ErrorGrowth
        ));

        let minimal = shrink(case);
        assert!(!minimal.has_chaos(), "chaos must shrink away");
        assert!(
            minimal.servers.len() <= 3,
            "server count must shrink, got {}",
            minimal.servers.len()
        );
        assert!(
            minimal.servers.iter().any(|s| s.weakened),
            "the buggy server must survive shrinking"
        );
        let v = minimal.check().expect("still violating");
        assert_eq!(v.seed, minimal.seed, "reproducer carries its seed");
    }

    #[test]
    fn byzantine_clique_beyond_budget_is_caught_and_shrunk() {
        // The §4 acceptance probe: two adversarial liars against a
        // budget of f = 1, buried under network chaos. Their crafted
        // lies sit inside each victim's own interval, so they pass
        // every screen — but two of them against f = 1 capture the
        // max-coverage region and drag honest adoptions off real
        // time. The oracle must flag it and shrinking must strip the
        // camouflage while keeping the clique.
        let mut case = FuzzCase::from_seed(4321, 120.0);
        case.strategy = Strategy::MarzulloTolerant { max_faulty: 1 };
        while case.servers.len() < 5 {
            case.servers.push(case.servers[0]);
        }
        for s in &mut case.servers {
            s.liar = false;
            s.corrupt = false;
        }
        let n = case.servers.len();
        for s in &mut case.servers[n - 2..] {
            s.liar = true;
            s.tier = LiarTier::Adversarial;
        }
        case.loss = 0.1;
        case.duplication = 0.02;
        case.partition = true;

        let violation = case
            .check()
            .expect("two crafted liars against f = 1 violate");
        assert!(
            matches!(
                violation.theorem,
                TheoremId::FTolerant | TheoremId::Correctness | TheoremId::Consistency
            ),
            "the capture shows up as an f-tolerance (or downstream) break, got {:?}",
            violation.theorem
        );

        let minimal = shrink(case);
        assert!(!minimal.has_chaos(), "chaos must shrink away");
        assert!(
            minimal.servers.iter().filter(|s| s.liar).count() >= 2,
            "the clique must survive shrinking — one liar is within budget"
        );
        assert!(
            minimal.servers.len() < 5,
            "bystanders must shrink away, got {}",
            minimal.servers.len()
        );
        let v = minimal.check().expect("still violating");
        assert_eq!(v.seed, minimal.seed, "reproducer carries its seed");
    }

    #[test]
    fn fuzz_report_renders() {
        let outcome = fuzz(0..2, 30.0);
        let text = outcome.to_string();
        assert!(text.contains("E17"), "{text}");
        assert!(text.contains("2 cases"), "{text}");
    }
}
