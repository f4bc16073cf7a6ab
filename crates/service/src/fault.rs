//! Server-level fault injection.
//!
//! The clock layer can already stop, race, step, or refuse resets
//! (`tempo_clocks::Fault`); a [`ServerFault`] makes the *server process*
//! itself misbehave, orthogonally to its clock: it may crash (terminally
//! or with a scheduled restart — possibly a repeating restart storm),
//! omit replies probabilistically, or lie in its answers — the
//! Byzantine-adjacent behaviours the paper's §5 screening and the
//! Marzullo-tolerant intersection are meant to survive. The fault arms
//! at a chosen real time; the server behaves perfectly before it.
//!
//! This is the only file that knows what a fault kind *does*. The
//! server is the honest node of the paper and reaches the adversary
//! through four seams: [`ServerFault::answer`] on an outgoing reply,
//! [`ServerFault::weakened_adoption`] on an MM-2 `Keep`, the schedule
//! ([`ServerFault::first_timer`], [`ServerFault::restart_schedule`])
//! and [`ServerFault::garbage`] when a corruption strikes.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tempo_core::bounds::mm2_adjusted_error;
use tempo_core::sync::{Reset, TimedReply};
use tempo_core::{DriftRate, Duration, TimeEstimate, Timestamp};

use crate::round::aged;
use crate::server::{TIMER_CORRUPT, TIMER_CRASH};

/// A crash's restart schedule: how long the server stays down, whether
/// it comes back with its stable storage intact, and whether the
/// crash repeats (a restart storm).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestartSchedule {
    /// Downtime: the server restarts this long after it crashed.
    pub after: Duration,
    /// When set, the crash repeats: after each restart the server runs
    /// for this long and then crashes again — a restart storm.
    pub every: Option<Duration>,
    /// Whether the restart loses stable storage: an amnesia restart
    /// rehydrates nothing, treats its error as unbounded, and must
    /// re-acquire the time from a quorum (§5) before serving it.
    pub amnesia: bool,
}

/// The server-process failure catalogue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServerFaultKind {
    /// The server crashes: from the trigger on it neither answers
    /// requests, processes replies, nor starts rounds. Its clock keeps
    /// running, but nobody can read it. With `restart: None` the crash
    /// is terminal — the server is silent for the rest of the run; with
    /// a [`RestartSchedule`] it comes back after the scheduled
    /// downtime, rehydrating from stable storage (or not, on an
    /// amnesia restart) and re-entering the service through the §5
    /// bootstrap path.
    Crash {
        /// Optional restart schedule; `None` means the crash is final.
        restart: Option<RestartSchedule>,
    },
    /// The server omits replies: each incoming time request is dropped
    /// with probability `prob` (it still synchronises its own clock).
    Omit {
        /// Per-request drop probability in `[0, 1]`.
        prob: f64,
    },
    /// The server lies: replies report a clock skewed by `clock_skew`
    /// while the claimed error is multiplied by `error_shrink`, so the
    /// advertised interval can exclude true time entirely. The liar's
    /// own synchronisation is untouched — it lies only to others.
    Lie {
        /// Signed skew added to the reported clock reading.
        clock_skew: Duration,
        /// Factor in `[0, 1]` applied to the reported error (`0.0` =
        /// claim perfection, `1.0` = honest error, skewed clock only).
        error_shrink: f64,
    },
    /// A two-faced liar: the lie's *sign* depends on who is asking, so
    /// different peers receive inconsistent intervals from the same
    /// round. Peers with even node index are told a clock ahead by
    /// `clock_skew`, odd-index peers one behind, and both see the error
    /// shrunk by `error_shrink`. This is the classic Byzantine
    /// behaviour that symmetric-lie models miss: no single corrected
    /// interval describes what the liar said.
    TwoFaced {
        /// Magnitude of the skew; its sign flips per recipient.
        clock_skew: Duration,
        /// Factor in `[0, 1]` applied to the reported error.
        error_shrink: f64,
    },
    /// A colluding liar: servers sharing the same `clique` bitmask
    /// coordinate a *uniform* lie (same skew, same shrunk error)
    /// against everyone outside the clique, while answering fellow
    /// clique members honestly. A clique of size `> f` presents the
    /// victim's Marzullo sweep with a coherent false cluster that can
    /// outvote the honest sources — the attack the `f`-tolerant
    /// intersection is provably unable to survive once its fault
    /// budget is exceeded.
    Collude {
        /// Bitmask over node indices naming the colluders.
        clique: u64,
        /// Skew all colluders apply towards outsiders.
        clock_skew: Duration,
        /// Factor in `[0, 1]` applied to the reported error.
        error_shrink: f64,
    },
    /// An adaptive liar: the lie is crafted *online* against the
    /// requesting victim's current `(r, ε)`, as remembered from the
    /// victim's last exchange with this server. The reply claims a
    /// confident interval (own error times `error_shrink`) positioned
    /// just inside the far edge of the victim's aged interval — the
    /// most displaced claim that remains individually plausible to the
    /// victim, maximally shifting the Marzullo hull it enters. With no
    /// recorded estimate for the victim the server answers honestly.
    AdversarialLie {
        /// Factor in `[0, 1]` applied to the reported error.
        error_shrink: f64,
    },
    /// A transient state corruption (the self-stabilization probe): at
    /// the trigger time the server's `(r, ε, reset-t)` and peer-health
    /// tables are overwritten with seeded garbage — no crash, no
    /// bootstrap, the server keeps serving and synchronising from the
    /// corrupted state. The §5 machinery (consistency screening plus
    /// the next MM/Marzullo round) is what must pull it back; the
    /// oracle's `Stabilization` check measures how long that takes.
    CorruptState {
        /// Seed for the garbage generator, so corruption storms are
        /// reproducible.
        seed: u64,
    },
    /// An injected *implementation bug*, not a Byzantine behaviour: the
    /// server's rule MM-2 adoption guard is weakened so that it adopts a
    /// consistent peer estimate whose adjusted error exceeds its own by
    /// up to `slack`, writing the inflated error. The theorems still
    /// apply to such a server — which is the point: the theorem oracle
    /// must catch the broken guard (rules MM-2/IM-2 say a reset never
    /// increases `E`).
    WeakenAdoption {
        /// How much worse than its own error an adopted error may be.
        slack: Duration,
    },
}

impl fmt::Display for ServerFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerFaultKind::Crash { restart: None } => write!(f, "crash (terminal)"),
            ServerFaultKind::Crash {
                restart: Some(schedule),
            } => {
                let store = if schedule.amnesia {
                    "amnesia"
                } else {
                    "durable"
                };
                match schedule.every {
                    Some(every) => write!(
                        f,
                        "crash (restart after {} every {}, {store})",
                        schedule.after, every
                    ),
                    None => write!(f, "crash (restart after {}, {store})", schedule.after),
                }
            }
            ServerFaultKind::Omit { prob } => write!(f, "omit (p={prob})"),
            ServerFaultKind::Lie {
                clock_skew,
                error_shrink,
            } => write!(f, "lie (skew {clock_skew}, error x{error_shrink})"),
            ServerFaultKind::TwoFaced {
                clock_skew,
                error_shrink,
            } => write!(f, "two-faced (±{clock_skew}, error x{error_shrink})"),
            ServerFaultKind::Collude {
                clique,
                clock_skew,
                error_shrink,
            } => write!(
                f,
                "collude (clique {clique:#b}, skew {clock_skew}, error x{error_shrink})"
            ),
            ServerFaultKind::AdversarialLie { error_shrink } => {
                write!(f, "adversarial lie (error x{error_shrink})")
            }
            ServerFaultKind::CorruptState { seed } => {
                write!(f, "corrupt state (seed {seed})")
            }
            ServerFaultKind::WeakenAdoption { slack } => {
                write!(f, "weakened adoption (slack {slack})")
            }
        }
    }
}

/// What a state corruption overwrites a server with — an arbitrary state
/// in the self-stabilization sense, not merely a large one.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Garbage {
    /// The hardware clock jumps 1–50 s either way.
    pub clock_offset: Duration,
    /// The claimed error shrinks or balloons to anywhere in
    /// [1 ms, 10 s].
    pub error: Duration,
    /// Per neighbour, a burst of phantom timeouts for the health table:
    /// enough to bury perfectly healthy peers.
    pub phantom_timeouts: Vec<u32>,
}

fn assert_shrink(error_shrink: f64) {
    assert!(
        error_shrink.is_finite() && (0.0..=1.0).contains(&error_shrink),
        "error shrink must be in [0, 1], got {error_shrink}"
    );
}

/// A server fault armed to trigger at a given real time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerFault {
    /// Real time at which the failure begins.
    pub at: Timestamp,
    /// Which failure mode triggers.
    pub kind: ServerFaultKind,
}

impl fmt::Display for ServerFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.kind, self.at)
    }
}

impl ServerFault {
    /// The server crashes terminally at real time `at`.
    #[must_use]
    pub fn crash_at(at: Timestamp) -> Self {
        ServerFault {
            at,
            kind: ServerFaultKind::Crash { restart: None },
        }
    }

    /// The server crashes at `at` and restarts once after `downtime`,
    /// rehydrating its interval from stable storage (a durable
    /// restart) or, with `amnesia`, coming back with nothing and
    /// bootstrapping from a quorum per §5.
    ///
    /// # Panics
    ///
    /// Panics if `downtime` is not positive.
    #[must_use]
    pub fn crash_restart(at: Timestamp, downtime: Duration, amnesia: bool) -> Self {
        assert!(
            downtime.as_secs() > 0.0,
            "restart downtime must be positive, got {downtime}"
        );
        ServerFault {
            at,
            kind: ServerFaultKind::Crash {
                restart: Some(RestartSchedule {
                    after: downtime,
                    every: None,
                    amnesia,
                }),
            },
        }
    }

    /// A restart storm: the server crashes at `at`, restarts after
    /// `downtime`, runs for `uptime`, crashes again, and so on for the
    /// rest of the run.
    ///
    /// # Panics
    ///
    /// Panics if `downtime` or `uptime` is not positive.
    #[must_use]
    pub fn restart_storm(
        at: Timestamp,
        downtime: Duration,
        uptime: Duration,
        amnesia: bool,
    ) -> Self {
        assert!(
            downtime.as_secs() > 0.0,
            "restart downtime must be positive, got {downtime}"
        );
        assert!(
            uptime.as_secs() > 0.0,
            "storm uptime must be positive, got {uptime}"
        );
        ServerFault {
            at,
            kind: ServerFaultKind::Crash {
                restart: Some(RestartSchedule {
                    after: downtime,
                    every: Some(uptime),
                    amnesia,
                }),
            },
        }
    }

    /// The server drops each request with probability `prob` from `at`.
    ///
    /// # Panics
    ///
    /// Panics unless `prob` is in `[0, 1]`.
    #[must_use]
    pub fn omit_from(at: Timestamp, prob: f64) -> Self {
        assert!(
            prob.is_finite() && (0.0..=1.0).contains(&prob),
            "omission probability must be in [0, 1], got {prob}"
        );
        ServerFault {
            at,
            kind: ServerFaultKind::Omit { prob },
        }
    }

    /// The server starts lying at `at`: replies are skewed by
    /// `clock_skew` and their error shrunk by `error_shrink`.
    ///
    /// # Panics
    ///
    /// Panics unless `error_shrink` is in `[0, 1]`.
    #[must_use]
    pub fn lie_from(at: Timestamp, clock_skew: Duration, error_shrink: f64) -> Self {
        assert_shrink(error_shrink);
        ServerFault {
            at,
            kind: ServerFaultKind::Lie {
                clock_skew,
                error_shrink,
            },
        }
    }

    /// The server turns two-faced at `at`: even-index peers are told a
    /// clock ahead by `clock_skew`, odd-index peers one behind, both
    /// with the error shrunk by `error_shrink`.
    ///
    /// # Panics
    ///
    /// Panics unless `error_shrink` is in `[0, 1]` or if `clock_skew`
    /// is negative (the sign is per-recipient; pass the magnitude).
    #[must_use]
    pub fn two_faced_from(at: Timestamp, clock_skew: Duration, error_shrink: f64) -> Self {
        assert_shrink(error_shrink);
        assert!(
            !clock_skew.is_negative(),
            "two-faced skew is a magnitude and must be non-negative, got {clock_skew}"
        );
        ServerFault {
            at,
            kind: ServerFaultKind::TwoFaced {
                clock_skew,
                error_shrink,
            },
        }
    }

    /// The server joins a colluding clique at `at`: the node indices
    /// set in `clique` answer each other honestly and tell everyone
    /// else the same coordinated lie (`clock_skew`, `error_shrink`).
    /// Give every colluder the same `clique` mask.
    ///
    /// # Panics
    ///
    /// Panics unless `error_shrink` is in `[0, 1]` or if the clique
    /// mask is empty.
    #[must_use]
    pub fn collude_from(
        at: Timestamp,
        clique: u64,
        clock_skew: Duration,
        error_shrink: f64,
    ) -> Self {
        assert_shrink(error_shrink);
        assert!(clique != 0, "a colluding clique needs at least one member");
        ServerFault {
            at,
            kind: ServerFaultKind::Collude {
                clique,
                clock_skew,
                error_shrink,
            },
        }
    }

    /// The server starts crafting adaptive lies at `at`: each reply is
    /// positioned against the requester's last-known `(r, ε)` to be
    /// maximally displaced yet individually plausible, claiming an
    /// error shrunk by `error_shrink`.
    ///
    /// # Panics
    ///
    /// Panics unless `error_shrink` is in `[0, 1]`.
    #[must_use]
    pub fn adversarial_from(at: Timestamp, error_shrink: f64) -> Self {
        assert_shrink(error_shrink);
        ServerFault {
            at,
            kind: ServerFaultKind::AdversarialLie { error_shrink },
        }
    }

    /// The server's state is overwritten with garbage drawn from
    /// `seed` at real time `at` — a transient fault with no crash: the
    /// server keeps serving from the corrupted `(r, ε, reset-t)` and
    /// health tables until the protocol pulls it back.
    #[must_use]
    pub fn corrupt_at(at: Timestamp, seed: u64) -> Self {
        ServerFault {
            at,
            kind: ServerFaultKind::CorruptState { seed },
        }
    }

    /// The server's MM-2 adoption guard is weakened by `slack` from
    /// real time `at` (a bug-injection probe for the theorem oracle).
    ///
    /// # Panics
    ///
    /// Panics if `slack` is negative.
    #[must_use]
    pub fn weaken_adoption_from(at: Timestamp, slack: Duration) -> Self {
        assert!(
            !slack.is_negative(),
            "adoption slack must be non-negative, got {slack}"
        );
        ServerFault {
            at,
            kind: ServerFaultKind::WeakenAdoption { slack },
        }
    }

    /// Whether the fault is active at real time `now`.
    #[must_use]
    pub fn active_at(&self, now: Timestamp) -> bool {
        now >= self.at
    }

    /// The crash's restart schedule, if this fault is a crash that
    /// restarts.
    #[must_use]
    pub fn restart_schedule(&self) -> Option<RestartSchedule> {
        match self.kind {
            ServerFaultKind::Crash { restart } => restart,
            _ => None,
        }
    }

    /// The timer the server arms at start for a scheduled fault — the
    /// delay until it strikes and the tag it fires under — or `None` for
    /// the kinds that act on messages instead of on a schedule.
    pub(crate) fn first_timer(&self, now: Timestamp) -> Option<(Duration, u64)> {
        let tag = match self.kind {
            ServerFaultKind::Crash { .. } => TIMER_CRASH,
            ServerFaultKind::CorruptState { .. } => TIMER_CORRUPT,
            _ => return None,
        };
        Some(((self.at - now).max(Duration::ZERO), tag))
    }

    /// What goes out in answer to a time request at real time `now`:
    /// the `honest` estimate (only evaluated when a reply goes out), a
    /// forgery built from it, or nothing. `requester` is the asking
    /// node's deployment-wide label and `remembered` what this server
    /// last recorded of it (the claim, and the own clock at receipt).
    pub(crate) fn answer(
        &self,
        now: Timestamp,
        honest: impl FnOnce() -> TimeEstimate,
        requester: usize,
        remembered: Option<(TimeEstimate, Timestamp)>,
        delta: DriftRate,
        rng: &mut impl Rng,
    ) -> Option<TimeEstimate> {
        if !self.active_at(now) {
            return Some(honest());
        }
        if let ServerFaultKind::Omit { prob } = self.kind {
            if rng.random::<f64>() < prob {
                return None;
            }
        }
        let honest = honest();
        let lie = |skew: Duration, shrink: f64| {
            TimeEstimate::new(honest.time() + skew, honest.error() * shrink)
        };
        Some(match self.kind {
            ServerFaultKind::Lie {
                clock_skew,
                error_shrink,
            } => lie(clock_skew, error_shrink),
            ServerFaultKind::TwoFaced {
                clock_skew,
                error_shrink,
            } => {
                let even = requester.is_multiple_of(2);
                lie(if even { clock_skew } else { -clock_skew }, error_shrink)
            }
            // A label the 64-bit mask cannot name is an outsider.
            ServerFaultKind::Collude {
                clique,
                clock_skew,
                error_shrink,
            } if requester >= 64 || clique & (1u64 << requester) == 0 => {
                lie(clock_skew, error_shrink)
            }
            // Just inside the upper edge of the victim's interval, aged
            // to now (the honest reading).
            ServerFaultKind::AdversarialLie { error_shrink } => match remembered {
                Some(record) => {
                    let victim = aged(record, honest.time(), delta);
                    let lie_error = honest.error() * error_shrink;
                    let pull = (victim.error() - lie_error) * 0.9;
                    TimeEstimate::new(victim.time() + pull, lie_error)
                }
                None => honest,
            },
            _ => honest,
        })
    }

    /// The planted bug, once rule MM-2 has said `Keep` (`reply` is
    /// consistent with `own` but no better): the reset the weakened
    /// guard makes anyway. `None` for every other fault.
    pub(crate) fn weakened_adoption(
        &self,
        now: Timestamp,
        own: &TimeEstimate,
        delta: DriftRate,
        reply: &TimedReply,
    ) -> Option<Reset> {
        let ServerFaultKind::WeakenAdoption { slack } = self.kind else {
            return None;
        };
        let adjusted = mm2_adjusted_error(reply.estimate.error(), reply.round_trip, delta);
        (self.active_at(now) && adjusted <= own.error() + slack).then_some(Reset {
            new_clock: reply.estimate.time(),
            new_error: adjusted,
        })
    }

    /// The seeded garbage a state corruption installs on a server with
    /// `peers` neighbours; `None` unless this fault is one.
    pub(crate) fn garbage(&self, peers: usize) -> Option<Garbage> {
        let ServerFaultKind::CorruptState { seed } = self.kind else {
            return None;
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let magnitude = Duration::from_secs(rng.random_range(1.0..50.0));
        let clock_offset = if rng.random_bool(0.5) {
            magnitude
        } else {
            -magnitude
        };
        let error = Duration::from_secs(rng.random_range(0.001..10.0));
        let phantom_timeouts = (0..peers).map(|_| rng.random_range(0..8u32)).collect();
        Some(Garbage {
            clock_offset,
            error,
            phantom_timeouts,
        })
    }

    /// Whether this fault breaks the theorems' *assumptions* (terminal
    /// crash, omission, lying in any tier — simple, two-faced,
    /// colluding, or adaptive). Three kinds do not:
    /// [`ServerFaultKind::WeakenAdoption`] is a bug in the
    /// synchronisation logic of an otherwise honest server, exactly
    /// what an invariant checker exists to catch; a crash *with a
    /// restart schedule* is fail-recovery — the server is silent while
    /// down and rejoins through stable storage (rule MM-1 holds across
    /// the downtime) or the §5 bootstrap, so the theorems should hold
    /// for it whenever it serves the time; and
    /// [`ServerFaultKind::CorruptState`] is a *transient* fault in the
    /// self-stabilization sense — the server never lies deliberately,
    /// and once the protocol has pulled it back to a legitimate state
    /// the theorems must hold again (the oracle exempts it only for
    /// the corruption window).
    #[must_use]
    pub fn is_byzantine(&self) -> bool {
        !matches!(
            self.kind,
            ServerFaultKind::WeakenAdoption { .. }
                | ServerFaultKind::Crash { restart: Some(_) }
                | ServerFaultKind::CorruptState { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ServerConfig, Strategy};
    use crate::server::testkit::{base_config, dur, recorded_offset, server, ts};
    use crate::server::TimeServer;
    use tempo_net::{DelayModel, NetConfig, Topology, World};

    #[test]
    fn constructors_set_kind() {
        assert_eq!(
            ServerFault::crash_at(ts(5.0)).kind,
            ServerFaultKind::Crash { restart: None }
        );
        assert_eq!(
            ServerFault::omit_from(ts(5.0), 0.3).kind,
            ServerFaultKind::Omit { prob: 0.3 }
        );
        assert_eq!(
            ServerFault::lie_from(ts(5.0), Duration::from_secs(2.0), 0.1).kind,
            ServerFaultKind::Lie {
                clock_skew: Duration::from_secs(2.0),
                error_shrink: 0.1
            }
        );
    }

    #[test]
    fn restart_constructors_set_schedule() {
        let once = ServerFault::crash_restart(ts(5.0), Duration::from_secs(30.0), false);
        assert_eq!(
            once.restart_schedule(),
            Some(RestartSchedule {
                after: Duration::from_secs(30.0),
                every: None,
                amnesia: false,
            })
        );
        let storm = ServerFault::restart_storm(
            ts(5.0),
            Duration::from_secs(20.0),
            Duration::from_secs(40.0),
            true,
        );
        assert_eq!(
            storm.restart_schedule(),
            Some(RestartSchedule {
                after: Duration::from_secs(20.0),
                every: Some(Duration::from_secs(40.0)),
                amnesia: true,
            })
        );
        assert_eq!(ServerFault::crash_at(ts(1.0)).restart_schedule(), None);
        assert_eq!(
            ServerFault::omit_from(ts(1.0), 0.5).restart_schedule(),
            None
        );
    }

    #[test]
    fn terminal_crash_is_byzantine_but_restarting_crash_is_not() {
        assert!(ServerFault::crash_at(ts(1.0)).is_byzantine());
        assert!(ServerFault::omit_from(ts(1.0), 0.5).is_byzantine());
        assert!(
            !ServerFault::crash_restart(ts(1.0), Duration::from_secs(10.0), false).is_byzantine()
        );
        assert!(!ServerFault::restart_storm(
            ts(1.0),
            Duration::from_secs(10.0),
            Duration::from_secs(10.0),
            true
        )
        .is_byzantine());
        assert!(!ServerFault::weaken_adoption_from(ts(1.0), Duration::ZERO).is_byzantine());
    }

    #[test]
    fn display_names_the_failure_modes() {
        assert_eq!(
            ServerFault::crash_at(ts(10.0)).kind.to_string(),
            "crash (terminal)"
        );
        let once = ServerFault::crash_restart(ts(10.0), Duration::from_secs(30.0), false);
        assert!(once.kind.to_string().contains("durable"));
        let storm = ServerFault::restart_storm(
            ts(10.0),
            Duration::from_secs(20.0),
            Duration::from_secs(40.0),
            true,
        );
        let text = storm.kind.to_string();
        assert!(text.contains("every") && text.contains("amnesia"), "{text}");
        assert!(storm.to_string().ends_with("at 10s") || storm.to_string().contains("at 10"));
    }

    #[test]
    fn activation_boundary_is_inclusive() {
        let f = ServerFault::crash_at(ts(10.0));
        assert!(!f.active_at(ts(9.999)));
        assert!(f.active_at(ts(10.0)));
        assert!(f.active_at(ts(11.0)));
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn bad_omit_probability_rejected() {
        let _ = ServerFault::omit_from(ts(0.0), 1.5);
    }

    #[test]
    #[should_panic(expected = "downtime must be positive")]
    fn zero_downtime_rejected() {
        let _ = ServerFault::crash_restart(ts(0.0), Duration::ZERO, false);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn bad_error_shrink_rejected() {
        let _ = ServerFault::lie_from(ts(0.0), Duration::ZERO, -0.1);
    }

    #[test]
    fn byzantine_tier_constructors_set_kind() {
        assert_eq!(
            ServerFault::two_faced_from(ts(5.0), Duration::from_secs(0.02), 0.5).kind,
            ServerFaultKind::TwoFaced {
                clock_skew: Duration::from_secs(0.02),
                error_shrink: 0.5
            }
        );
        assert_eq!(
            ServerFault::collude_from(ts(5.0), 0b1100, Duration::from_secs(0.02), 0.1).kind,
            ServerFaultKind::Collude {
                clique: 0b1100,
                clock_skew: Duration::from_secs(0.02),
                error_shrink: 0.1
            }
        );
        assert_eq!(
            ServerFault::adversarial_from(ts(5.0), 0.2).kind,
            ServerFaultKind::AdversarialLie { error_shrink: 0.2 }
        );
        assert_eq!(
            ServerFault::corrupt_at(ts(5.0), 42).kind,
            ServerFaultKind::CorruptState { seed: 42 }
        );
    }

    #[test]
    fn lie_tiers_are_byzantine_but_corruption_is_not() {
        assert!(ServerFault::two_faced_from(ts(1.0), Duration::ZERO, 1.0).is_byzantine());
        assert!(ServerFault::collude_from(ts(1.0), 0b1, Duration::ZERO, 1.0).is_byzantine());
        assert!(ServerFault::adversarial_from(ts(1.0), 0.5).is_byzantine());
        assert!(!ServerFault::corrupt_at(ts(1.0), 7).is_byzantine());
    }

    #[test]
    fn byzantine_tier_display_names_the_modes() {
        let two = ServerFault::two_faced_from(ts(1.0), Duration::from_secs(0.02), 0.5);
        assert!(two.kind.to_string().contains("two-faced"));
        let col = ServerFault::collude_from(ts(1.0), 0b110, Duration::from_secs(0.02), 0.1);
        let text = col.kind.to_string();
        assert!(text.contains("collude") && text.contains("0b110"), "{text}");
        assert!(ServerFault::adversarial_from(ts(1.0), 0.2)
            .kind
            .to_string()
            .contains("adversarial"));
        let corrupt = ServerFault::corrupt_at(ts(1.0), 42).kind.to_string();
        assert!(
            corrupt.contains("corrupt") && corrupt.contains("42"),
            "{corrupt}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_clique_rejected() {
        let _ = ServerFault::collude_from(ts(0.0), 0, Duration::ZERO, 0.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_two_faced_skew_rejected() {
        let _ = ServerFault::two_faced_from(ts(0.0), Duration::from_secs(-1.0), 0.5);
    }

    fn delta() -> DriftRate {
        DriftRate::new(1e-4)
    }

    /// What `fault` sends `requester` at t = 10 s, the honest estimate
    /// being `⟨100, 0.5⟩`.
    fn answer_to(fault: ServerFault, requester: usize) -> Option<TimeEstimate> {
        let honest = || TimeEstimate::new(ts(100.0), dur(0.5));
        let mut rng = StdRng::seed_from_u64(7);
        fault.answer(ts(10.0), honest, requester, None, delta(), &mut rng)
    }

    #[test]
    fn collude_treats_labels_beyond_the_mask_as_outsiders() {
        // Bits 0 and 63 are the clique. Labels the 64-bit mask cannot
        // name used to shift out of range: a panic in debug, label k
        // aliased onto k mod 64 in release — 64 and 70 would have been
        // taken for members 0 and 6.
        let fault = ServerFault::collude_from(ts(0.0), 1 | 1 << 63 | 1 << 6, dur(5.0), 0.1);
        let honest = TimeEstimate::new(ts(100.0), dur(0.5));
        let lie = TimeEstimate::new(ts(105.0), dur(0.5) * 0.1);
        assert_eq!(answer_to(fault, 0), Some(honest));
        assert_eq!(answer_to(fault, 63), Some(honest));
        assert_eq!(answer_to(fault, 1), Some(lie));
        assert_eq!(answer_to(fault, 64), Some(lie));
        assert_eq!(answer_to(fault, 70), Some(lie));
        assert_eq!(answer_to(fault, usize::MAX), Some(lie));
    }

    #[test]
    fn answers_are_honest_until_the_fault_arms() {
        let fault = ServerFault::lie_from(ts(10.5), dur(5.0), 0.1);
        assert_eq!(
            answer_to(fault, 1),
            Some(TimeEstimate::new(ts(100.0), dur(0.5)))
        );
        // Schedule-driven and bug-injection kinds never touch a reply.
        for fault in [
            ServerFault::crash_at(ts(0.0)),
            ServerFault::corrupt_at(ts(0.0), 1),
            ServerFault::weaken_adoption_from(ts(0.0), dur(1.0)),
        ] {
            assert_eq!(
                answer_to(fault, 1),
                Some(TimeEstimate::new(ts(100.0), dur(0.5)))
            );
        }
    }

    #[test]
    fn omission_draws_before_the_clock_is_read() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut read = 0;
        let mut sent = 0;
        let fault = ServerFault::omit_from(ts(0.0), 0.5);
        for _ in 0..200 {
            let honest = || {
                read += 1;
                TimeEstimate::new(ts(100.0), dur(0.5))
            };
            sent += usize::from(
                fault
                    .answer(ts(1.0), honest, 0, None, delta(), &mut rng)
                    .is_some(),
            );
        }
        assert_eq!(read, sent, "an omitted request must not read the clock");
        assert!((60..140).contains(&sent), "p = 0.5 sent {sent} of 200");
    }

    #[test]
    fn adversary_answers_honestly_until_it_remembers_the_victim() {
        let fault = ServerFault::adversarial_from(ts(0.0), 0.1);
        let honest = TimeEstimate::new(ts(100.0), dur(0.5));
        assert_eq!(answer_to(fault, 1), Some(honest));
        // The victim said ⟨99, 0.2⟩ when our clock read 98: aged to 100
        // that is ⟨101, 0.2 + 2·2δ⟩, and the lie sits 90 % of the way
        // from its centre to where a 0.05-wide claim would poke out.
        let remembered = Some((TimeEstimate::new(ts(99.0), dur(0.2)), ts(98.0)));
        let mut rng = StdRng::seed_from_u64(7);
        let lie = fault
            .answer(ts(10.0), || honest, 1, remembered, delta(), &mut rng)
            .expect("a liar always answers");
        let victim_error = dur(0.2) + dur(2.0) * (2.0 * 1e-4);
        assert_eq!(lie.error(), dur(0.5) * 0.1);
        assert_eq!(lie.time(), ts(101.0) + (victim_error - lie.error()) * 0.9);
        assert!(lie.is_consistent_with(&TimeEstimate::new(ts(101.0), victim_error)));
    }

    #[test]
    fn weakened_guard_adopts_within_slack_and_only_when_armed() {
        let own = TimeEstimate::new(ts(100.0), dur(0.10));
        let reply = TimedReply::new(TimeEstimate::new(ts(100.01), dur(0.12)), dur(0.01));
        let adjusted = mm2_adjusted_error(dur(0.12), dur(0.01), delta());
        let weak = |at, slack| ServerFault::weaken_adoption_from(ts(at), dur(slack));
        assert_eq!(
            weak(0.0, 0.05).weakened_adoption(ts(1.0), &own, delta(), &reply),
            Some(Reset {
                new_clock: ts(100.01),
                new_error: adjusted,
            }),
            "an error larger than E_i is written"
        );
        assert!(adjusted > own.error());
        assert_eq!(
            weak(0.0, 0.01).weakened_adoption(ts(1.0), &own, delta(), &reply),
            None,
            "beyond the slack the guard still holds"
        );
        assert_eq!(
            weak(2.0, 0.05).weakened_adoption(ts(1.0), &own, delta(), &reply),
            None,
            "not armed yet"
        );
        let liar = ServerFault::lie_from(ts(0.0), dur(5.0), 0.1);
        assert_eq!(liar.weakened_adoption(ts(1.0), &own, delta(), &reply), None);
    }

    #[test]
    fn schedule_arms_one_timer_for_crash_and_corruption_only() {
        assert_eq!(
            ServerFault::crash_at(ts(15.0)).first_timer(ts(5.0)),
            Some((dur(10.0), TIMER_CRASH))
        );
        assert_eq!(
            ServerFault::corrupt_at(ts(3.0), 9).first_timer(ts(5.0)),
            Some((Duration::ZERO, TIMER_CORRUPT)),
            "a past instant fires at once"
        );
        assert_eq!(
            ServerFault::omit_from(ts(1.0), 0.5).first_timer(ts(0.0)),
            None
        );
    }

    #[test]
    fn garbage_is_a_function_of_the_seed() {
        let garbage = |seed, peers| {
            ServerFault::corrupt_at(ts(1.0), seed)
                .garbage(peers)
                .expect("a corruption fault")
        };
        assert_eq!(garbage(9, 3), garbage(9, 3));
        assert_ne!(garbage(9, 3), garbage(10, 3));
        for seed in 0..64 {
            let g = garbage(seed, 5);
            let jump = g.clock_offset.abs();
            assert!(jump >= dur(1.0) && jump < dur(50.0), "jump {jump}");
            assert!(g.error >= dur(0.001) && g.error < dur(10.0));
            assert_eq!(g.phantom_timeouts.len(), 5);
            assert!(g.phantom_timeouts.iter().all(|&burst| burst < 8));
        }
        assert_eq!(ServerFault::crash_at(ts(1.0)).garbage(3), None);
    }

    #[test]
    fn two_faced_liar_splits_its_story_by_destination() {
        // Server 2 is two-faced: even-indexed requesters are told the
        // clock is 5 s fast, odd-indexed ones 5 s slow. Each victim's
        // freshest record of the liar shows its own half of the split.
        let mut servers: Vec<TimeServer> = Vec::new();
        for i in 0..3 {
            let mut config = base_config(Strategy::Mm);
            if i == 2 {
                config = config.fault(ServerFault::two_faced_from(ts(0.0), dur(5.0), 0.1));
            }
            servers.push(server(0.0, config, i));
        }
        let mut world = World::new(
            servers,
            Topology::full_mesh(3),
            NetConfig::with_delay(DelayModel::Constant(dur(0.001))),
            41,
        );
        world.run_until(ts(35.0));
        let (to_even, err_even) = recorded_offset(&world.actors()[0], 2);
        let (to_odd, err_odd) = recorded_offset(&world.actors()[1], 2);
        assert!(to_even > dur(4.0), "even victim saw {to_even}, not +5 s");
        assert!(to_odd < dur(-4.0), "odd victim saw {to_odd}, not -5 s");
        assert!(err_even < dur(0.02), "the error claim was not shrunk");
        assert!(err_odd < dur(0.02));
    }

    #[test]
    fn colluders_lie_to_victims_but_not_to_the_clique() {
        // Server 3 colludes with server 2 (clique bitmask {2, 3}): its
        // replies to 0 and 1 carry a coordinated 5 s lie, while server 2
        // is told the truth — the clique's mutual screens see nothing.
        let mut servers: Vec<TimeServer> = Vec::new();
        for i in 0..4 {
            let mut config = base_config(Strategy::Mm);
            if i == 3 {
                config = config.fault(ServerFault::collude_from(ts(0.0), 0b1100, dur(5.0), 0.1));
            }
            servers.push(server(0.0, config, i));
        }
        let mut world = World::new(
            servers,
            Topology::full_mesh(4),
            NetConfig::with_delay(DelayModel::Constant(dur(0.001))),
            42,
        );
        world.run_until(ts(35.0));
        let (to_victim, _) = recorded_offset(&world.actors()[0], 3);
        let (to_other_victim, _) = recorded_offset(&world.actors()[1], 3);
        let (to_clique, _) = recorded_offset(&world.actors()[2], 3);
        assert!(to_victim > dur(4.0), "victim 0 saw {to_victim}");
        assert!(to_other_victim > dur(4.0), "victim 1 saw {to_other_victim}");
        assert!(
            to_clique.abs() < dur(0.5),
            "the clique member was lied to: {to_clique}"
        );
    }

    #[test]
    fn adversarial_liar_crafts_the_lie_inside_the_victims_interval() {
        // The adversarial liar shapes each reply against the victim's
        // remembered `(r, ε)`: a sharply shrunken error claim placed
        // near the upper edge of the victim's own interval, so it is
        // consistent with what the victim believes yet pulls as hard as
        // one faulty source can.
        let mut servers: Vec<TimeServer> = Vec::new();
        for i in 0..3 {
            // A loose drift bound keeps every interval tens of
            // milliseconds wide, so the crafted pull is well clear of
            // network-delay noise.
            let mut config = ServerConfig::new(Strategy::Mm, DriftRate::new(2e-3))
                .resync_period(dur(10.0))
                .collect_window(dur(0.5))
                .initial_error(dur(0.05))
                .jitter(0.0);
            if i == 2 {
                config = config.fault(ServerFault::adversarial_from(ts(0.0), 0.1));
            }
            servers.push(server(0.0, config, i));
        }
        let mut world = World::new(
            servers,
            Topology::full_mesh(3),
            NetConfig::with_delay(DelayModel::Constant(dur(0.001))),
            43,
        );
        world.run_until(ts(35.0));
        let now = ts(35.0);
        // The victims' clocks drift-free at 0.0, so any displacement
        // from real time is the lie's doing. (The recorded offset of
        // the liar is no pull gauge here: MM steps onto the shrunken
        // claim at receipt, and the mark rebasing then reads the
        // post-adoption residual — exactly zero.)
        let pull = world.actors_mut()[0].sample(now).true_offset;
        let (_, claimed_error) = recorded_offset(&world.actors()[0], 2);
        // The lie is shifted upward but stays small (within the
        // victim's ~50 ms interval) — nothing like the blatant 5 s of
        // the cruder tiers.
        assert!(
            pull > dur(0.005),
            "the crafted lie did not pull the victim: {pull}"
        );
        assert!(pull < dur(0.5), "the lie overshot the victim's interval");
        assert!(
            claimed_error < dur(0.02),
            "the error claim was not shrunk: {claimed_error}"
        );
    }
}
