//! Server configuration: synchronization strategy, drift claim, timing.

use tempo_core::{DriftRate, Duration};

use crate::fault::ServerFault;
use crate::peers::HealthConfig;
use crate::round::BaselineKind;

/// Per-request timeout and retry behaviour, measured on the server's
/// *own* clock (no other clock is trustworthy by assumption).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetryPolicy {
    /// No per-request timeouts: a lost reply sits in the pending map
    /// until the next round's cleanup (the original protocol).
    Off,
    /// Detect lost replies and re-solicit them with exponential backoff
    /// inside the collection window.
    Backoff {
        /// Base per-request timeout on the server's clock. Must exceed
        /// the worst honest round-trip or healthy peers get falsely
        /// suspected.
        timeout: Duration,
        /// Retries after the initial attempt (0 = time out once, never
        /// re-send).
        max_retries: u32,
        /// Timeout multiplier per retry (`timeout · multiplier^attempt`).
        multiplier: f64,
        /// Random fraction in `[0, 1)` added to each backoff so retries
        /// from different servers don't synchronise.
        jitter: f64,
    },
}

impl RetryPolicy {
    /// Conservative retrying defaults: 100 ms timeout, 3 retries,
    /// doubling backoff, 10 % jitter.
    #[must_use]
    pub fn backoff_defaults() -> Self {
        RetryPolicy::Backoff {
            timeout: Duration::from_millis(100.0),
            max_retries: 3,
            multiplier: 2.0,
            jitter: 0.1,
        }
    }

    /// Whether timeouts are armed at all.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        !matches!(self, RetryPolicy::Off)
    }
}

/// How a server realises an accepted reset on its hardware clock: it
/// sets the clock outright (the paper's rules MM-2/IM-2: clocks "may be
/// freely set backward as well as forward"). A client that needs
/// monotonic time derives it with `tempo_clocks::MonotonicClock`.
/// Kept, with [`ServerConfig::apply`], because the repo benchmark still
/// passes one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ApplyMode {
    /// Set the clock outright.
    Step,
}

/// Protocol-level consonance screening (§5): estimate each neighbour's
/// clock rate from its replies and exclude *dissonant* neighbours —
/// those whose rate cannot be explained by the claimed drift bounds —
/// from synchronization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScreeningPolicy {
    /// No rate screening (the paper's base algorithms).
    Off,
    /// Screen neighbours by consonance.
    Consonance {
        /// The drift bound assumed for peers (the service-wide claim;
        /// replies do not carry δ_j).
        peer_bound: DriftRate,
        /// Worst-case error of a single paired reading — the round-trip
        /// bound `ξ` is the honest choice.
        sample_noise: Duration,
    },
}

/// Which synchronization function the server runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Algorithm MM (§3): each reply is evaluated on arrival against
    /// rule MM-2.
    Mm,
    /// Algorithm IM (§4): replies are collected for the round window and
    /// intersected.
    Im,
    /// The [Marzullo 83] generalisation: intersect tolerating up to
    /// `max_faulty` faulty intervals (clamped to the round's reply
    /// count). With `max_faulty == 0` this behaves like IM evaluated at
    /// round end.
    MarzulloTolerant {
        /// The fault budget `f`.
        max_faulty: usize,
    },
    /// A baseline synchronization function applied at round end
    /// (ablation A2).
    Baseline(BaselineKind),
}

impl Strategy {
    /// Whether the strategy defers its decision to the end of a
    /// collection round (everything except MM).
    #[must_use]
    pub fn uses_round_window(&self) -> bool {
        !matches!(self, Strategy::Mm)
    }

    /// A short human-readable name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Mm => "MM",
            Strategy::Im => "IM",
            Strategy::MarzulloTolerant { .. } => "Marzullo",
            Strategy::Baseline(BaselineKind::LamportMax) => "max",
            Strategy::Baseline(BaselineKind::Median) => "median",
            Strategy::Baseline(BaselineKind::Mean) => "mean",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The command-line spelling shared by `experiments simulate` and
/// `tempod`: `mm`, `im`, `tolerant:F` (Marzullo with fault budget `F`),
/// `max`, `median` or `mean`. [`Display`](std::fmt::Display) is the
/// report label instead, which exported runs and goldens pin.
impl std::str::FromStr for Strategy {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, String> {
        Ok(match name {
            "mm" => Strategy::Mm,
            "im" => Strategy::Im,
            "max" => Strategy::Baseline(BaselineKind::LamportMax),
            "median" => Strategy::Baseline(BaselineKind::Median),
            "mean" => Strategy::Baseline(BaselineKind::Mean),
            _ => match name.strip_prefix("tolerant:").map(str::parse) {
                Some(Ok(max_faulty)) => Strategy::MarzulloTolerant { max_faulty },
                _ => {
                    return Err(format!(
                        "unknown strategy '{name}' (mm, im, tolerant:F, max, median, mean)"
                    ))
                }
            },
        })
    }
}

/// What a server does when it receives a reply inconsistent with its
/// own interval (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Ignore inconsistent replies (bare rule MM-2).
    Ignore,
    /// The §3 recovery algorithm: "when a server finds itself
    /// inconsistent with another server … the original server resets to
    /// the value of any third server." The server picks a random
    /// neighbour other than the inconsistent one and adopts its reply
    /// unconditionally.
    ThirdServer,
}

/// Per-server configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// The synchronization function.
    pub strategy: Strategy,
    /// The *claimed* drift bound `δ_i`. The simulated clock's actual
    /// drift may violate it — that mismatch is the §3/§5 failure mode.
    pub drift_bound: DriftRate,
    /// `τ`: servers request the time from their neighbours at least
    /// this often (measured in real time by the scheduler; the
    /// difference from clock time is `O(δτ)` and is absorbed into the
    /// paper's bounds).
    pub resync_period: Duration,
    /// How long a round waits for replies before synthesising
    /// (round-window strategies only). Must cover the worst round-trip.
    pub collect_window: Duration,
    /// The error inherited at start (`ε_i(0)`).
    pub initial_error: Duration,
    /// Reaction to inconsistent replies.
    pub recovery: RecoveryPolicy,
    /// Fraction of the resync period randomised per server to avoid
    /// lock-step rounds (`0.0` = fire exactly every `τ`).
    pub jitter: f64,
    /// §5 rate screening of neighbours.
    pub screening: ScreeningPolicy,
    /// How long after the world starts this server joins the service
    /// (§1.1: the set of servers "is not stable"). Before joining it
    /// neither answers requests nor polls.
    pub join_after: Duration,
    /// When (after start) the server leaves the service for good, if
    /// ever. A departed server goes silent.
    pub leave_after: Option<Duration>,
    /// Per-request timeout/retry behaviour.
    pub retry: RetryPolicy,
    /// Peer health thresholds (consulted only when `retry` is enabled —
    /// without timeouts there is no failure signal to track).
    pub health: HealthConfig,
    /// Minimum replies a round must gather before its synthesis is
    /// trusted (round-window strategies only). A round with fewer
    /// replies is *degraded*: the reset is skipped, `E_i` grows per rule
    /// MM-1, and §3 recovery fires if configured. `0` disables the
    /// check.
    pub quorum: usize,
    /// An injected server-process fault, if any (simulation only).
    pub fault: Option<ServerFault>,
}

impl ServerConfig {
    /// A configuration with the given strategy and drift claim, and
    /// conservative defaults elsewhere: `τ = 60 s`, a 1 s collect
    /// window, 10 ms initial error, no recovery, 10 % jitter.
    ///
    /// # Panics
    ///
    /// Never panics itself, but [`validate`](Self::validate) enforces
    /// invariants when the server is built.
    #[must_use]
    pub fn new(strategy: Strategy, drift_bound: DriftRate) -> Self {
        ServerConfig {
            strategy,
            drift_bound,
            resync_period: Duration::from_secs(60.0),
            collect_window: Duration::from_secs(1.0),
            initial_error: Duration::from_millis(10.0),
            recovery: RecoveryPolicy::Ignore,
            jitter: 0.1,
            screening: ScreeningPolicy::Off,
            join_after: Duration::ZERO,
            leave_after: None,
            retry: RetryPolicy::Off,
            health: HealthConfig::default(),
            quorum: 0,
            fault: None,
        }
    }

    /// Sets the resync period `τ`.
    #[must_use]
    pub fn resync_period(mut self, period: Duration) -> Self {
        self.resync_period = period;
        self
    }

    /// Sets the round collection window.
    #[must_use]
    pub fn collect_window(mut self, window: Duration) -> Self {
        self.collect_window = window;
        self
    }

    /// Sets the initial inherited error.
    #[must_use]
    pub fn initial_error(mut self, error: Duration) -> Self {
        self.initial_error = error;
        self
    }

    /// Sets the recovery policy.
    #[must_use]
    pub fn recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Sets the period jitter fraction.
    #[must_use]
    pub fn jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter;
        self
    }

    /// Enables §5 rate screening.
    #[must_use]
    pub fn screening(mut self, screening: ScreeningPolicy) -> Self {
        self.screening = screening;
        self
    }

    /// Does nothing: every server steps its clock (see [`ApplyMode`]).
    /// Kept because the repo benchmark still calls it.
    #[must_use]
    pub fn apply(self, apply: ApplyMode) -> Self {
        let _ = apply;
        self
    }

    /// Delays this server's entry into the service.
    #[must_use]
    pub fn join_after(mut self, delay: Duration) -> Self {
        self.join_after = delay;
        self
    }

    /// Schedules this server's departure.
    #[must_use]
    pub fn leave_after(mut self, at: Duration) -> Self {
        self.leave_after = Some(at);
        self
    }

    /// Sets the per-request timeout/retry policy.
    #[must_use]
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the peer health thresholds.
    #[must_use]
    pub fn health(mut self, health: HealthConfig) -> Self {
        self.health = health;
        self
    }

    /// Sets the round quorum (`0` disables degraded-mode detection).
    #[must_use]
    pub fn quorum(mut self, quorum: usize) -> Self {
        self.quorum = quorum;
        self
    }

    /// Arms a server-process fault.
    #[must_use]
    pub fn fault(mut self, fault: ServerFault) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Checks the configuration invariants.
    ///
    /// # Panics
    ///
    /// Panics when a field is out of range (non-positive period, window
    /// not shorter than the period, negative initial error, jitter
    /// outside `[0, 1)`, health thresholds out of order).
    pub fn validate(&self) {
        assert!(
            self.resync_period.as_secs() > 0.0,
            "resync period must be positive"
        );
        assert!(
            self.collect_window.as_secs() > 0.0,
            "collect window must be positive"
        );
        assert!(
            self.collect_window < self.resync_period,
            "collect window {} must be shorter than the resync period {}",
            self.collect_window,
            self.resync_period
        );
        assert!(
            !self.initial_error.is_negative(),
            "initial error must be non-negative"
        );
        assert!(
            self.jitter.is_finite() && (0.0..1.0).contains(&self.jitter),
            "jitter must be in [0, 1), got {}",
            self.jitter
        );
        assert!(
            !self.join_after.is_negative(),
            "join delay must be non-negative"
        );
        if let Some(leave) = self.leave_after {
            assert!(
                leave > self.join_after,
                "a server must join ({}) before it leaves ({leave})",
                self.join_after
            );
        }
        if let ScreeningPolicy::Consonance { sample_noise, .. } = self.screening {
            assert!(
                !sample_noise.is_negative(),
                "sample noise must be non-negative"
            );
        }
        if let RetryPolicy::Backoff {
            timeout,
            multiplier,
            jitter,
            ..
        } = self.retry
        {
            assert!(
                timeout.as_secs() > 0.0,
                "retry timeout must be positive, got {timeout}"
            );
            assert!(
                multiplier.is_finite() && multiplier >= 1.0,
                "backoff multiplier must be >= 1, got {multiplier}"
            );
            assert!(
                jitter.is_finite() && (0.0..1.0).contains(&jitter),
                "retry jitter must be in [0, 1), got {jitter}"
            );
        }
        self.health.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_round_window_usage() {
        assert!(!Strategy::Mm.uses_round_window());
        assert!(Strategy::Im.uses_round_window());
        assert!(Strategy::MarzulloTolerant { max_faulty: 1 }.uses_round_window());
        assert!(Strategy::Baseline(BaselineKind::Mean).uses_round_window());
    }

    #[test]
    fn strategy_names() {
        assert_eq!(Strategy::Mm.to_string(), "MM");
        assert_eq!(Strategy::Im.to_string(), "IM");
        assert_eq!(
            Strategy::MarzulloTolerant { max_faulty: 2 }.to_string(),
            "Marzullo"
        );
        assert_eq!(Strategy::Baseline(BaselineKind::Median).name(), "median");
    }

    #[test]
    fn every_strategy_spelling_parses() {
        for (name, expected) in [
            ("mm", Strategy::Mm),
            ("im", Strategy::Im),
            ("tolerant:0", Strategy::MarzulloTolerant { max_faulty: 0 }),
            ("tolerant:1", Strategy::MarzulloTolerant { max_faulty: 1 }),
            ("tolerant:3", Strategy::MarzulloTolerant { max_faulty: 3 }),
            ("max", Strategy::Baseline(BaselineKind::LamportMax)),
            ("median", Strategy::Baseline(BaselineKind::Median)),
            ("mean", Strategy::Baseline(BaselineKind::Mean)),
        ] {
            assert_eq!(name.parse::<Strategy>(), Ok(expected), "{name}");
        }
    }

    #[test]
    fn unknown_strategy_spellings_are_refused_with_the_list() {
        for name in ["marzullo", "tolerant:", "tolerant:x", "ntp", ""] {
            let err = name.parse::<Strategy>().unwrap_err();
            assert_eq!(
                err,
                format!("unknown strategy '{name}' (mm, im, tolerant:F, max, median, mean)")
            );
        }
    }

    #[test]
    fn config_defaults_validate() {
        let c = ServerConfig::new(Strategy::Mm, DriftRate::new(1e-5));
        c.validate();
        assert_eq!(c.recovery, RecoveryPolicy::Ignore);
    }

    #[test]
    fn config_builder_chain() {
        let c = ServerConfig::new(Strategy::Im, DriftRate::new(1e-5))
            .resync_period(Duration::from_secs(10.0))
            .collect_window(Duration::from_secs(0.5))
            .initial_error(Duration::from_secs(0.2))
            .recovery(RecoveryPolicy::ThirdServer)
            .jitter(0.0);
        c.validate();
        assert_eq!(c.resync_period, Duration::from_secs(10.0));
        assert_eq!(c.collect_window, Duration::from_secs(0.5));
        assert_eq!(c.initial_error, Duration::from_secs(0.2));
        assert_eq!(c.recovery, RecoveryPolicy::ThirdServer);
        assert_eq!(c.jitter, 0.0);
    }

    #[test]
    #[should_panic(expected = "must be shorter than the resync period")]
    fn window_longer_than_period_rejected() {
        ServerConfig::new(Strategy::Im, DriftRate::ZERO)
            .resync_period(Duration::from_secs(1.0))
            .collect_window(Duration::from_secs(2.0))
            .validate();
    }

    #[test]
    #[should_panic(expected = "sample noise must be non-negative")]
    fn negative_sample_noise_rejected() {
        ServerConfig::new(Strategy::Im, DriftRate::ZERO)
            .screening(ScreeningPolicy::Consonance {
                peer_bound: DriftRate::new(1e-4),
                sample_noise: Duration::from_secs(-0.01),
            })
            .validate();
    }

    #[test]
    #[should_panic(expected = "jitter must be in")]
    fn bad_jitter_rejected() {
        ServerConfig::new(Strategy::Mm, DriftRate::ZERO)
            .jitter(1.5)
            .validate();
    }

    #[test]
    fn retry_defaults_validate() {
        assert!(!RetryPolicy::Off.is_enabled());
        let retry = RetryPolicy::backoff_defaults();
        assert!(retry.is_enabled());
        let c = ServerConfig::new(Strategy::Im, DriftRate::new(1e-5))
            .retry(retry)
            .quorum(2)
            .fault(crate::fault::ServerFault::crash_at(
                tempo_core::Timestamp::from_secs(5.0),
            ));
        c.validate();
        assert_eq!(c.quorum, 2);
        assert!(c.fault.is_some());
    }

    #[test]
    #[should_panic(expected = "backoff multiplier must be >= 1")]
    fn bad_backoff_multiplier_rejected() {
        ServerConfig::new(Strategy::Im, DriftRate::ZERO)
            .retry(RetryPolicy::Backoff {
                timeout: Duration::from_millis(100.0),
                max_retries: 1,
                multiplier: 0.5,
                jitter: 0.0,
            })
            .validate();
    }

    #[test]
    #[should_panic(expected = "retry timeout must be positive")]
    fn zero_retry_timeout_rejected() {
        ServerConfig::new(Strategy::Im, DriftRate::ZERO)
            .retry(RetryPolicy::Backoff {
                timeout: Duration::ZERO,
                max_retries: 1,
                multiplier: 2.0,
                jitter: 0.0,
            })
            .validate();
    }
}
