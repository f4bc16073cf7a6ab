//! The in-flight request table.
//!
//! Every time request a server sends — a round's poll, a retry, a §3
//! recovery solicitation, a §5 bootstrap read — sits here from its send
//! until a reply claims it, its deadline expires or a round sweep drops
//! it. Every mark is a reading of the server's *own* clock: the
//! round-trip `ξ^i_j` that rule MM-2 widens an adopted error by is
//! `now − send_clock` on that clock, and a deadline is a reading the
//! clock must actually reach, so a slow clock never shortens the
//! patience it promised.

use rand::Rng;
use tempo_core::{Duration, Timestamp};
use tempo_net::NodeId;

use crate::config::RetryPolicy;

/// Why a request was sent, remembered until its reply arrives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Pending {
    pub peer: NodeId,
    /// `C_i` at the moment the request was sent — the basis of the
    /// locally measured round-trip `ξ^i_j`.
    pub send_clock: Timestamp,
    pub round: u64,
    pub recovery: bool,
    /// How many times this solicitation has already been retried.
    pub attempt: u32,
    /// The own-clock reading at which the request counts as lost
    /// (armed only under [`RetryPolicy::Backoff`]).
    pub deadline_clock: Option<Timestamp>,
}

impl Pending {
    /// The request's timeout timer fired at real time `now`, the own
    /// clock reading `clock_now`: how long to re-arm it for, or `None`
    /// once the request has expired.
    ///
    /// The timer runs on real time but the deadline is an own-clock
    /// reading, so on a slow clock the timer waits out the remainder —
    /// which shrinks geometrically. Once `f64` absorbs it at `now` a
    /// re-armed timer would fire for ever at this instant (Zeno), so a
    /// remainder that no longer advances real time counts as expired.
    pub(crate) fn rearm_after(&self, clock_now: Timestamp, now: Timestamp) -> Option<Duration> {
        let remainder = self.deadline_clock? - clock_now;
        (now + remainder > now).then_some(remainder)
    }
}

/// What a reply's request id turned out to name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Claim {
    /// Nothing in flight: answered already, timed out, or swept when
    /// its round closed.
    Late,
    /// In flight, but addressed to another peer (misrouted, forged, or
    /// a duplicate id collision). Processing it would attribute its
    /// round trip and screening record to the wrong neighbour, so the
    /// request stays open for the real peer.
    Mismatched,
    /// The reply to this request, now taken out of the table.
    Matched(Pending),
}

/// How long a request's `attempt`-th try waits for its reply:
/// `timeout · multiplier^attempt · (1 + jitter·r)`, or `None` when
/// requests carry no deadline. Draws `r` only when jitter is on.
pub(crate) fn patience(policy: RetryPolicy, attempt: u32, rng: &mut impl Rng) -> Option<Duration> {
    let RetryPolicy::Backoff {
        timeout,
        multiplier,
        jitter,
        ..
    } = policy
    else {
        return None;
    };
    let mut wait = timeout * multiplier.powi(attempt.min(i32::MAX as u32) as i32);
    if jitter > 0.0 {
        wait = wait * (1.0 + jitter * rng.random::<f64>());
    }
    Some(wait)
}

/// Requests in flight, keyed by a sequential id that is never reused. A
/// round has at most neighbours × (1 + retries) of them open and
/// [`Requests::sweep`] drops the rest, so a short vector searched from
/// the newest entry beats hashing the id.
#[derive(Debug, Default, Clone)]
pub(crate) struct Requests {
    next_id: u64,
    open: Vec<(u64, Pending)>,
}

impl Requests {
    fn position(&self, id: u64) -> Option<usize> {
        self.open.iter().rposition(|&(key, _)| key == id)
    }

    /// Records a request about to be sent and hands out its id.
    pub(crate) fn open(&mut self, pending: Pending) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.open.push((id, pending));
        id
    }

    /// Request `id`, while it is in flight.
    pub(crate) fn get(&self, id: u64) -> Option<Pending> {
        self.position(id).map(|at| self.open[at].1)
    }

    /// Takes request `id` out of flight (its deadline expired).
    pub(crate) fn remove(&mut self, id: u64) {
        if let Some(at) = self.position(id) {
            self.open.swap_remove(at);
        }
    }

    /// Classifies a reply from `from` quoting request `id`, taking the
    /// request out of the table when the two match.
    pub(crate) fn claim(&mut self, from: NodeId, id: u64) -> Claim {
        let Some(at) = self.position(id) else {
            return Claim::Late;
        };
        if self.open[at].1.peer != from {
            return Claim::Mismatched;
        }
        Claim::Matched(self.open.swap_remove(at).1)
    }

    /// A new round begins: requests from other rounds are dropped (their
    /// replies, if still in flight, will count as late). Returns whether
    /// a recovery request survives the sweep.
    pub(crate) fn sweep(&mut self, round: u64) -> bool {
        self.open.retain(|(_, p)| p.round == round);
        self.open.iter().any(|(_, p)| p.recovery)
    }

    /// Moves every mark by `delta` after the own clock was stepped by
    /// that much, so elapsed-time measurements survive the step.
    pub(crate) fn rebase(&mut self, delta: Duration) {
        for (_, p) in &mut self.open {
            p.send_clock += delta;
            if let Some(deadline) = p.deadline_clock.as_mut() {
                *deadline += delta;
            }
        }
    }

    /// Forgets every open request; late replies find nothing.
    pub(crate) fn clear(&mut self) {
        self.open.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn dur(s: f64) -> Duration {
        Duration::from_secs(s)
    }

    fn pending(peer: usize, round: u64, send_clock: Timestamp) -> Pending {
        Pending {
            peer: NodeId::new(peer),
            send_clock,
            round,
            recovery: false,
            attempt: 0,
            deadline_clock: None,
        }
    }

    /// The in-flight table against the `HashMap<u64, _>` it replaced:
    /// sends, replies (first, duplicate, and for an id a round sweep
    /// already dropped), sweeps by round and landmark rebasing, with
    /// ids handed out by a counter and never reused.
    #[test]
    fn in_flight_table_matches_a_hash_map_model() {
        tempo_check::check("in_flight_table_matches_a_hash_map_model", 256, |g| {
            let mut table = Requests {
                next_id: g.int(0u64..1_000),
                open: Vec::new(),
            };
            let mut model: std::collections::HashMap<u64, Pending> = Default::default();
            let mut round = 0u64;
            for _ in 0..g.int(0usize..300) {
                // Any id ever issued, answered and swept ones included.
                let issued = g.int(0..=table.next_id);
                let found = model.get(&issued).copied();
                assert_eq!(table.get(issued), found);
                match g.int(0u8..8) {
                    0..=2 => {
                        let value = pending(g.int(0usize..4), round, ts(g.int(-50i64..50) as f64));
                        let id = table.open(value);
                        assert!(model.insert(id, value).is_none(), "id {id} reused");
                    }
                    // A reply takes its entry out; its duplicate — and
                    // one from the wrong peer — then find nothing.
                    3..=5 => {
                        let from = found.map_or(NodeId::new(0), |p| p.peer);
                        let wrong = NodeId::new(from.index() + 1);
                        match found {
                            Some(p) => {
                                assert_eq!(table.claim(wrong, issued), Claim::Mismatched);
                                assert_eq!(table.claim(from, issued), Claim::Matched(p));
                                model.remove(&issued);
                            }
                            None => assert_eq!(table.claim(from, issued), Claim::Late),
                        }
                        assert_eq!(table.claim(from, issued), Claim::Late);
                    }
                    6 => {
                        round += 1;
                        let keep = round - g.int(0u64..=1);
                        table.sweep(keep);
                        model.retain(|_, p| p.round == keep);
                    }
                    _ => {
                        let delta = dur(g.int(-5i64..5) as f64);
                        table.rebase(delta);
                        model.values_mut().for_each(|p| p.send_clock += delta);
                    }
                }
                let mut want: Vec<_> = model.iter().map(|(&id, &p)| (id, p)).collect();
                let mut got = table.open.clone();
                want.sort_unstable_by_key(|&(id, _)| id);
                got.sort_unstable_by_key(|&(id, _)| id);
                assert_eq!(got, want);
            }
        });
    }

    #[test]
    fn clock_step_rebases_inflight_marks() {
        // A reply's round-trip is measured as elapsed *own* clock since
        // the request's send mark. If an adoption steps the clock
        // backward mid-flight by more than the remaining flight time,
        // an un-rebased mark makes the measured ξ clamp to zero — and
        // rule MM-2 then adopts with no delay widening (a genuine
        // Theorem 1 break, found by the E17 fuzzer at seed 37).
        let mut table = Requests::default();
        let send_clock = ts(100.0);
        let id = table.open(Pending {
            deadline_clock: Some(send_clock + dur(1.0)),
            ..pending(1, 1, send_clock)
        });
        // 9 ms into the flight an adoption steps the clock back 50 ms.
        let clock_now = ts(100.009) - dur(0.050);
        table.rebase(dur(-0.050));
        let Claim::Matched(p) = table.claim(NodeId::new(1), id) else {
            panic!("still in flight");
        };
        let rtt = clock_now - p.send_clock;
        assert!(
            (rtt.as_secs() - 0.009).abs() < 1e-9,
            "measured ξ must survive the step, got {rtt}"
        );
        let deadline = p.deadline_clock.expect("deadline survives");
        assert!(
            ((deadline - send_clock).as_secs() - (1.0 - 0.050)).abs() < 1e-9,
            "deadline moves with the step"
        );
    }

    #[test]
    fn sweep_reports_a_surviving_recovery_request() {
        let mut table = Requests::default();
        table.open(pending(1, 1, ts(0.0)));
        let recovery = table.open(Pending {
            recovery: true,
            ..pending(2, 2, ts(1.0))
        });
        assert!(table.sweep(2), "the round-2 recovery request survives");
        assert!(table.get(recovery).is_some() && table.get(0).is_none());
        assert!(!table.sweep(3), "and is swept with its round");
    }

    #[test]
    fn slow_clock_rearms_until_the_remainder_is_absorbed() {
        let due = |deadline| Pending {
            deadline_clock: Some(deadline),
            ..pending(1, 1, ts(0.0))
        };
        // The timer fired on real time, the slow clock is 10 ms short.
        assert_eq!(
            due(ts(1.0)).rearm_after(ts(0.99), ts(1.0)),
            Some(ts(1.0) - ts(0.99))
        );
        // The Zeno rule: just past a power of two of real time, with
        // the slow clock one unit in the last place short of a deadline
        // in the binade below, the remainder is half a unit of real
        // time — `now + remainder == now`. Re-arming would fire for
        // ever at this instant, so the request expires instead.
        let now = ts(128.0);
        let deadline = ts(128.0 - f64::EPSILON * 64.0);
        let clock_now = ts(deadline.as_secs() - f64::EPSILON * 64.0);
        let remainder = deadline - clock_now;
        assert!(remainder > Duration::ZERO && now + remainder == now);
        assert_eq!(due(deadline).rearm_after(clock_now, now), None);
        // Reached deadlines and requests without one expire outright.
        assert_eq!(due(ts(1.0)).rearm_after(ts(1.0), ts(1.01)), None);
        assert_eq!(pending(1, 1, ts(0.0)).rearm_after(ts(0.0), ts(0.0)), None);
    }

    #[test]
    fn an_expired_request_leaves_the_table() {
        let mut table = Requests::default();
        let (first, second) = (
            table.open(pending(1, 1, ts(0.0))),
            table.open(pending(2, 1, ts(0.0))),
        );
        table.remove(first);
        table.remove(first);
        assert_eq!(table.get(first), None);
        assert_eq!(table.claim(NodeId::new(1), first), Claim::Late);
        assert_eq!(table.get(second), Some(pending(2, 1, ts(0.0))));
    }

    #[test]
    fn patience_backs_off_and_draws_only_for_jitter() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        let untouched = rng.clone().random::<u64>();
        assert_eq!(patience(RetryPolicy::Off, 0, &mut rng), None);
        let plain = RetryPolicy::Backoff {
            timeout: dur(0.1),
            max_retries: 3,
            multiplier: 2.0,
            jitter: 0.0,
        };
        assert_eq!(patience(plain, 0, &mut rng), Some(dur(0.1)));
        assert_eq!(patience(plain, 2, &mut rng), Some(dur(0.1) * 4.0));
        assert_eq!(rng.clone().random::<u64>(), untouched, "no draw yet");
        let jittered = RetryPolicy::Backoff {
            timeout: dur(0.1),
            max_retries: 3,
            multiplier: 2.0,
            jitter: 0.5,
        };
        let wait = patience(jittered, 1, &mut rng).expect("deadline armed");
        assert!(wait >= dur(0.2) && wait < dur(0.3), "got {wait}");
        assert_ne!(rng.clone().random::<u64>(), untouched, "one draw taken");
    }
}
