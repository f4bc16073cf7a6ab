//! The round engine: the paper's synchronization rules as pure
//! functions from what a server knows to what it should do.
//!
//! Inputs are the server's own estimate `⟨C_i, E_i⟩` at a reading of
//! its clock (rule MM-1 has already grown `E_i` to that reading), the
//! replies it holds, its drift bound `δ_i` and the configured
//! [`Strategy`]; the output is a [`Decision`]. Nothing here sends,
//! persists, publishes or reads a clock, so every function can be
//! checked against PAPER.md on fixed values — and explored
//! exhaustively.

use tempo_core::sync::baseline::{baseline_round, BaselineKind};
use tempo_core::sync::im::{im_round, ImOutcome};
use tempo_core::sync::mm::{mm_decide, MmOutcome};
use tempo_core::sync::{Reset, TimedReply};
use tempo_core::{marzullo, DriftRate, Duration, TimeEstimate, Timestamp};
use tempo_net::NodeId;

use crate::config::Strategy;
use crate::peers::PeerTable;

/// What a round (or, under MM, a single reply) tells the server to do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Decision {
    /// Set the clock and replace `(r_i, ε_i)`. `recovery` marks an
    /// unconditional adoption — one that may *raise* `E_i` (§3
    /// recovery, Marzullo's disjoint fallback) — which rules MM-2 and
    /// IM-2 proper never produce.
    Reset { reset: Reset, recovery: bool },
    /// Consistent, but no better than what the server already has.
    Keep,
    /// The intervals do not intersect: somebody is incorrect (§3).
    Inconsistent,
    /// Fewer replies than the quorum; rule MM-1 keeps growing `E_i`.
    Starved,
}

/// A reply buffered during a collection window.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BufferedReply {
    pub peer: NodeId,
    pub estimate: TimeEstimate,
    pub send_clock: Timestamp,
    /// `C_i` when the reply arrived (basis of the baselines'
    /// symmetric-delay extrapolation).
    pub recv_clock: Timestamp,
}

/// Ages replies buffered during a collection window to `clock_now`.
///
/// Two sound adjustments keep an aged claim sharp:
///
/// * trailing edge: since receipt, at least `age/(1+δ)` real seconds
///   have passed (our clock runs at most (1+δ)), so the whole claim may
///   be advanced by that much;
/// * leading edge: it must still absorb the full inflated send-to-now
///   span `(1+δ)·ξ_total` (rule IM-2), so the residual round-trip passed
///   on is `ξ_total − m/(1+δ)`.
fn age_buffered(
    buffered: &[BufferedReply],
    clock_now: Timestamp,
    inflation: f64,
) -> Vec<TimedReply> {
    buffered
        .iter()
        .map(|b| {
            let age = (clock_now - b.recv_clock).max(Duration::ZERO);
            let advance = age / inflation;
            let xi_total = (clock_now - b.send_clock).max(Duration::ZERO);
            let residual = (xi_total - advance / inflation).max(Duration::ZERO);
            TimedReply::new(
                TimeEstimate::new(b.estimate.time() + advance, b.estimate.error()),
                residual,
            )
        })
        .collect()
}

/// Rule MM-2, on one reply as it arrives: adopt `⟨C_j, E_j + (1+δ_i)ξ⟩`
/// iff the reply is consistent with `own` and that adjusted error does
/// not exceed `E_i`.
pub(crate) fn mm2(own: &TimeEstimate, delta: DriftRate, reply: &TimedReply) -> Decision {
    match mm_decide(own, delta, reply) {
        MmOutcome::Reset(reset) => Decision::Reset {
            reset,
            recovery: false,
        },
        MmOutcome::Keep => Decision::Keep,
        MmOutcome::Inconsistent => Decision::Inconsistent,
    }
}

/// Rule IM-2, on a closed round: intersect `own` with every reply
/// widened on its leading edge by `(1+δ_i)ξ`, and adopt the
/// intersection's midpoint and radius.
fn im2(own: &TimeEstimate, delta: DriftRate, replies: &[TimedReply]) -> Decision {
    match im_round(own, delta, replies) {
        ImOutcome::Reset(reset) => Decision::Reset {
            reset,
            recovery: false,
        },
        ImOutcome::Inconsistent => Decision::Inconsistent,
    }
}

/// Marzullo(f): the region covered by all but at most `max_faulty` of
/// the IM-2 intervals, clipped to the server's own.
fn marzullo_f(
    own: &TimeEstimate,
    delta: DriftRate,
    replies: &[TimedReply],
    max_faulty: usize,
) -> Decision {
    let mut intervals = vec![own.interval()];
    for r in replies {
        intervals.push(
            r.estimate
                .interval()
                .extend_leading(r.round_trip * delta.inflation()),
        );
    }
    let f = max_faulty.min(intervals.len() - 1);
    let Some(best) = marzullo::intersect_tolerating(&intervals, f) else {
        return Decision::Inconsistent;
    };
    // Guard: never narrow to an interval disjoint from our own (we
    // would be provably incorrect if we were previously correct). The
    // disjoint fallback is an unconditional adoption (it may raise E),
    // so it is flagged like a recovery.
    let (clipped, within_own) = match best.intersect(&own.interval()) {
        Some(c) => (c, true),
        None => (best, false),
    };
    Decision::Reset {
        reset: Reset {
            new_clock: clipped.midpoint(),
            new_error: clipped.radius(),
        },
        recovery: !within_own,
    }
}

/// The cited max/median/mean algorithms compare clock *values*, so
/// stale replies must first be extrapolated to "now": a reply generated
/// roughly half a round-trip after the request has aged by
/// (clock_now − recv) + (recv − send)/2 local seconds. (MM and IM need
/// no such step — their rules absorb the delay into the error instead.)
/// After extrapolation the residual delay uncertainty is only the
/// asymmetric half of the arrival round-trip, which is what inflates
/// the inherited error.
fn baseline(
    own: &TimeEstimate,
    delta: DriftRate,
    buffered: &[BufferedReply],
    kind: BaselineKind,
) -> Decision {
    let extrapolated: Vec<TimedReply> = buffered
        .iter()
        .map(|b| {
            let rtt_arrival = (b.recv_clock - b.send_clock).max(Duration::ZERO);
            let age = (own.time() - b.recv_clock).max(Duration::ZERO) + rtt_arrival.half();
            TimedReply::new(
                TimeEstimate::new(b.estimate.time() + age, b.estimate.error()),
                rtt_arrival,
            )
        })
        .collect();
    Decision::Reset {
        reset: baseline_round(own, delta, &extrapolated, kind),
        recovery: false,
    }
}

/// Closes a collection window: `own` is the server's estimate at its
/// clock's reading now, `buffered` what the round gathered.
///
/// A starved round (fewer replies than the quorum) is not allowed to
/// reset the clock — a partition or mass crash could otherwise hand the
/// synthesis to whatever minority happens to answer. Skipping the reset
/// is always safe: rule MM-1 keeps growing `E_i`, so correctness is
/// preserved at the price of a wider interval.
pub(crate) fn close(
    strategy: Strategy,
    quorum: usize,
    own: &TimeEstimate,
    delta: DriftRate,
    buffered: &[BufferedReply],
) -> Decision {
    if quorum > 0 && buffered.len() < quorum {
        return Decision::Starved;
    }
    let aged = || age_buffered(buffered, own.time(), delta.inflation());
    match strategy {
        Strategy::Mm => unreachable!("MM does not use round windows"),
        Strategy::Im => im2(own, delta, &aged()),
        Strategy::MarzulloTolerant { max_faulty } => marzullo_f(own, delta, &aged(), max_faulty),
        Strategy::Baseline(kind) => baseline(own, delta, buffered, kind),
    }
}

/// The Theorem 6 inputs of the round [`close`] just decided: under
/// plain IM-2 the own interval's width, then each aged reply's widened
/// by its round-trip allowance. With f > 0 the max-coverage region may
/// exclude some inputs, so Theorem 6 does not apply: no widths.
pub(crate) fn input_widths(
    strategy: Strategy,
    own: &TimeEstimate,
    delta: DriftRate,
    buffered: &[BufferedReply],
) -> Vec<Duration> {
    if strategy != Strategy::Im {
        return Vec::new();
    }
    let mut widths = vec![own.error() + own.error()];
    for r in age_buffered(buffered, own.time(), delta.inflation()) {
        widths.push(r.estimate.error() + r.estimate.error() + r.round_trip * delta.inflation());
    }
    widths
}

/// The §5 bootstrap read of a server restarted without stable state:
/// with at least a quorum (and at least one) reply, a read whose own
/// interval is a stand-in wider than anything a peer will say — a year
/// of claimed error — so only the peers constrain the result. It closes
/// under the fault budget the server's own rounds trust: Marzullo
/// tolerating `max_faulty` when that is the strategy, IM-2 otherwise. A
/// rejoining node must tolerate its `f` faulty inputs (Khanchandani and
/// Lenzen, "Self-stabilizing Byzantine Clock Synchronization with
/// Optimal Precision"): under IM-2 one liar empties the intersection of
/// every round and keeps the server out of service.
pub(crate) fn bootstrap(
    strategy: Strategy,
    clock_now: Timestamp,
    delta: DriftRate,
    buffered: &[BufferedReply],
    quorum: usize,
) -> Decision {
    let wide = TimeEstimate::new(clock_now, Duration::from_secs(3.2e7));
    let strategy = match strategy {
        Strategy::MarzulloTolerant { .. } => strategy,
        _ => Strategy::Im,
    };
    close(strategy, quorum.max(1), &wide, delta, buffered)
}

/// One remembered claim aged to `clock_now`: its time advanced by the
/// elapsed own-clock span, its error widened by `2δ` of it (both clocks
/// drift at most `δ`).
pub(crate) fn aged(
    (estimate, seen_clock): (TimeEstimate, Timestamp),
    clock_now: Timestamp,
    delta: DriftRate,
) -> TimeEstimate {
    let age = (clock_now - seen_clock).max(Duration::ZERO);
    TimeEstimate::new(
        estimate.time() + age,
        estimate.error() + age * (2.0 * delta.as_f64()),
    )
}

/// The §5 screen: does `proposal`, which came from `from`, intersect at
/// least half of the claims `peers` remembers of the *other* servers,
/// each [`aged`] to `clock_now`? With nothing on record there is nothing
/// to disagree with.
pub(crate) fn consistent_with_recent(
    peers: &PeerTable,
    from: NodeId,
    proposal: &TimeEstimate,
    clock_now: Timestamp,
    delta: DriftRate,
) -> bool {
    let mut consistent = 0usize;
    let mut total = 0usize;
    for (peer, record) in peers.claims() {
        if peer == from {
            continue;
        }
        total += 1;
        if proposal.is_consistent_with(&aged(record, clock_now, delta)) {
            consistent += 1;
        }
    }
    total == 0 || consistent * 2 >= total
}

/// §3 recovery with a §5 screen: the third server's reply is adopted
/// unconditionally (error `E_j + (1+δ_i)ξ`, whatever `E_i` was) —
/// provided it still intersects what the *remaining* neighbours said
/// recently. Without the screen a lying third server poisons the
/// recovering clock; with no other peer on record the reply is taken on
/// faith, exactly as in §3.
pub(crate) fn recover(
    reply: &TimedReply,
    from: NodeId,
    clock_now: Timestamp,
    delta: DriftRate,
    peers: &PeerTable,
) -> Decision {
    let new_error = reply.estimate.error() + reply.round_trip * delta.inflation();
    let proposal = TimeEstimate::new(reply.estimate.time(), new_error);
    if !consistent_with_recent(peers, from, &proposal, clock_now, delta) {
        return Decision::Inconsistent;
    }
    Decision::Reset {
        reset: Reset {
            new_clock: proposal.time(),
            new_error,
        },
        recovery: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn dur(s: f64) -> Duration {
        Duration::from_secs(s)
    }

    fn est(time: f64, error: f64) -> TimeEstimate {
        TimeEstimate::new(ts(time), dur(error))
    }

    fn delta() -> DriftRate {
        DriftRate::new(1e-4)
    }

    /// A reply that arrived at own-clock `recv` to a request sent at
    /// `recv − rtt`.
    fn buffered(peer: usize, estimate: TimeEstimate, recv: f64, rtt: f64) -> BufferedReply {
        BufferedReply {
            peer: NodeId::new(peer),
            estimate,
            send_clock: ts(recv - rtt),
            recv_clock: ts(recv),
        }
    }

    fn reset_of(decision: Decision) -> (Reset, bool) {
        match decision {
            Decision::Reset { reset, recovery } => (reset, recovery),
            other => panic!("expected a reset, got {other:?}"),
        }
    }

    #[test]
    fn mm2_adopts_only_a_consistent_reply_with_a_smaller_adjusted_error() {
        let own = est(100.0, 0.10);
        let rtt = dur(0.01);
        let widened = |e: f64| dur(e) + rtt * delta().inflation();
        // (reply, expected): E_j + (1+δ)ξ ≤ E_i decides between Reset
        // and Keep; an interval that misses ours is Inconsistent.
        let table = [
            (est(100.02, 0.05), Some(widened(0.05))),
            (est(99.95, 0.0), Some(widened(0.0))),
            (est(100.02, 0.0899), Some(widened(0.0899))),
            (est(100.02, 0.09), None),
            (est(100.02, 0.10), None),
            (est(100.15, 0.30), None),
        ];
        for (reply, adopted) in table {
            let decision = mm2(&own, delta(), &TimedReply::new(reply, rtt));
            match adopted {
                Some(new_error) => {
                    let (reset, recovery) = reset_of(decision);
                    assert_eq!(reset.new_clock, reply.time());
                    assert_eq!(reset.new_error, new_error);
                    assert!(reset.new_error <= own.error(), "MM-2 never raises E");
                    assert!(!recovery);
                }
                // Consistent but no better: the rule itself never
                // resets here — only the planted fault override does.
                None => assert_eq!(decision, Decision::Keep, "reply {reply}"),
            }
        }
        for reply in [est(100.21, 0.10), est(99.0, 0.5), est(103.0, 0.0)] {
            let decision = mm2(&own, delta(), &TimedReply::new(reply, rtt));
            assert_eq!(decision, Decision::Inconsistent, "reply {reply}");
        }
    }

    #[test]
    fn every_window_strategy_starves_below_the_quorum() {
        use tempo_core::sync::baseline::BaselineKind;
        let own = est(100.0, 0.10);
        let one = [buffered(1, est(100.0, 0.05), 99.9, 0.01)];
        for strategy in [
            Strategy::Im,
            Strategy::MarzulloTolerant { max_faulty: 1 },
            Strategy::Baseline(BaselineKind::LamportMax),
        ] {
            assert_eq!(close(strategy, 2, &own, delta(), &one), Decision::Starved);
            assert_eq!(close(strategy, 1, &own, delta(), &[]), Decision::Starved);
            assert_ne!(close(strategy, 1, &own, delta(), &one), Decision::Starved);
            // Quorum 0 is the original protocol: never starved, an empty
            // round just re-adopts the own interval.
            assert_ne!(close(strategy, 0, &own, delta(), &[]), Decision::Starved);
        }
        for strategy in [Strategy::Im, Strategy::MarzulloTolerant { max_faulty: 1 }] {
            assert_eq!(
                bootstrap(strategy, ts(100.0), delta(), &[], 0),
                Decision::Starved
            );
            assert_eq!(
                bootstrap(strategy, ts(100.0), delta(), &one, 2),
                Decision::Starved
            );
        }
    }

    #[test]
    fn im2_intersects_the_aged_replies_with_own() {
        let own = est(100.0, 0.10);
        // Both replies arrived at the closing instant, so ageing is the
        // identity and the leading edge widens by (1+δ)ξ alone.
        let replies = [
            buffered(1, est(100.05, 0.08), 100.0, 0.01),
            buffered(2, est(99.98, 0.06), 100.0, 0.02),
        ];
        let (reset, recovery) = reset_of(close(Strategy::Im, 0, &own, delta(), &replies));
        let lo = 100.05 - 0.08;
        let hi = 99.98 + 0.06 + 0.02 * delta().inflation();
        assert!((reset.new_clock.as_secs() - (lo + hi) / 2.0).abs() < 1e-12);
        assert!((reset.new_error.as_secs() - (hi - lo) / 2.0).abs() < 1e-12);
        assert!(reset.new_error <= own.error(), "IM-2 never raises E");
        assert!(!recovery);
        let widths = input_widths(Strategy::Im, &own, delta(), &replies);
        let marzullo = Strategy::MarzulloTolerant { max_faulty: 1 };
        assert!(input_widths(marzullo, &own, delta(), &replies).is_empty());
        let want = [
            0.20,
            0.16 + 0.01 * delta().inflation(),
            0.12 + 0.02 * delta().inflation(),
        ];
        assert_eq!(widths.len(), want.len(), "own first, then one per reply");
        for (got, want) in widths.iter().zip(want) {
            assert!((got.as_secs() - want).abs() < 1e-12, "{got} vs {want}");
        }
        // One reply off on its own: no common point.
        let split = [replies[0], buffered(3, est(100.5, 0.05), 100.0, 0.01)];
        assert_eq!(
            close(Strategy::Im, 0, &own, delta(), &split),
            Decision::Inconsistent
        );
    }

    #[test]
    fn a_reply_ages_while_its_round_stays_open() {
        // Received 0.4 own-seconds before the close with ξ = 0.02: the
        // claim advances by age/(1+δ) and the residual round-trip is
        // what of (age + ξ) that advance does not cover.
        let inflation = delta().inflation();
        let aged = age_buffered(
            &[buffered(1, est(50.0, 0.01), 99.6, 0.02)],
            ts(100.0),
            inflation,
        );
        let advance = (ts(100.0) - ts(99.6)) / inflation;
        assert_eq!(
            aged[0].estimate,
            TimeEstimate::new(ts(50.0) + advance, dur(0.01))
        );
        assert_eq!(
            aged[0].round_trip,
            (ts(100.0) - ts(99.6 - 0.02)) - advance / inflation
        );
        // A mark ahead of the closing reading (a torn step) clamps.
        let torn = age_buffered(
            &[buffered(1, est(50.0, 0.01), 100.5, 0.02)],
            ts(100.0),
            inflation,
        );
        assert_eq!(torn[0].estimate, est(50.0, 0.01));
        assert_eq!(torn[0].round_trip, Duration::ZERO);
    }

    #[test]
    fn marzullo_outvotes_f_liars_and_flags_the_disjoint_fallback() {
        let marzullo = Strategy::MarzulloTolerant { max_faulty: 1 };
        let own = est(100.0, 0.10);
        let honest = [
            buffered(1, est(100.02, 0.05), 100.0, 0.0),
            buffered(2, est(99.99, 0.04), 100.0, 0.0),
        ];
        // One wild liar among three sources is outvoted; the result is
        // the honest overlap, inside our own interval.
        let mut with_liar = honest.to_vec();
        with_liar.push(buffered(3, est(500.0, 0.01), 100.0, 0.0));
        let (reset, recovery) = reset_of(close(marzullo, 0, &own, delta(), &with_liar));
        assert!(!recovery, "clipped to own: an ordinary adoption");
        assert!((reset.new_clock.as_secs() - 100.0).abs() < 0.03);
        assert!(reset.new_error <= dur(0.04));
        // Everyone else agrees with each other and not with us: the
        // best region is disjoint from our interval, so it is adopted
        // whole — E may rise — and flagged like a recovery.
        let elsewhere = [
            buffered(1, est(103.0, 0.5), 100.0, 0.0),
            buffered(2, est(103.1, 0.5), 100.0, 0.0),
        ];
        let (reset, recovery) = reset_of(close(marzullo, 0, &own, delta(), &elsewhere));
        assert!(recovery, "a reset onto a region disjoint from own");
        assert!((reset.new_clock.as_secs() - 103.05).abs() < 1e-9);
        assert!(reset.new_error > own.error());
        // With f = 0 the same round has no common point at all.
        let strict = Strategy::MarzulloTolerant { max_faulty: 0 };
        assert_eq!(
            close(strict, 0, &own, delta(), &elsewhere),
            Decision::Inconsistent
        );
    }

    #[test]
    fn baselines_extrapolate_by_age_plus_half_the_round_trip() {
        use tempo_core::sync::baseline::BaselineKind;
        // One reply, received 1 s before the close after a 0.2 s round
        // trip, claiming 105: by now that clock reads ~106.1, ahead of
        // ours, so Lamport's max adopts it.
        let own = est(100.0, 0.10);
        let reply = [buffered(1, est(105.0, 0.01), 99.0, 0.2)];
        let max = Strategy::Baseline(BaselineKind::LamportMax);
        let (reset, recovery) = reset_of(close(max, 0, &own, delta(), &reply));
        assert!((reset.new_clock.as_secs() - 106.1).abs() < 1e-9);
        assert!(!recovery);
    }

    #[test]
    fn bootstrap_takes_the_neighbours_intersection_whatever_own_was() {
        let replies = [
            buffered(1, est(500.0, 0.05), 7.0, 0.0),
            buffered(2, est(500.04, 0.05), 7.0, 0.0),
        ];
        let (reset, _) = reset_of(bootstrap(Strategy::Im, ts(7.0), delta(), &replies, 2));
        assert!((reset.new_clock.as_secs() - 500.02).abs() < 1e-9);
        assert!((reset.new_error.as_secs() - 0.03).abs() < 1e-9);
        let split = [replies[0], buffered(2, est(600.0, 0.05), 7.0, 0.0)];
        assert_eq!(
            bootstrap(Strategy::Im, ts(7.0), delta(), &split, 2),
            Decision::Inconsistent
        );
    }

    #[test]
    fn bootstrap_tolerates_the_configured_liars() {
        // Three honest neighbours around 500 and one far away: IM-2 finds
        // no common instant, Marzullo with f = 1 outvotes the liar.
        let replies = [
            buffered(1, est(500.0, 0.05), 7.0, 0.0),
            buffered(2, est(500.04, 0.05), 7.0, 0.0),
            buffered(3, est(500.02, 0.05), 7.0, 0.0),
            buffered(4, est(600.0, 0.05), 7.0, 0.0),
        ];
        assert_eq!(
            bootstrap(Strategy::Im, ts(7.0), delta(), &replies, 3),
            Decision::Inconsistent
        );
        let tolerant = Strategy::MarzulloTolerant { max_faulty: 1 };
        let (reset, recovery) = reset_of(bootstrap(tolerant, ts(7.0), delta(), &replies, 3));
        assert!((reset.new_clock.as_secs() - 500.02).abs() < 1e-9);
        assert!((reset.new_error.as_secs() - 0.03).abs() < 1e-9);
        assert!(!recovery);
        // Any other strategy bootstraps as IM-2 does.
        let max = Strategy::Baseline(tempo_core::sync::baseline::BaselineKind::LamportMax);
        assert_eq!(
            bootstrap(max, ts(7.0), delta(), &replies, 3),
            Decision::Inconsistent
        );
    }

    #[test]
    fn recovery_is_unconditional_but_screened() {
        let reply = TimedReply::new(est(200.0, 0.05), dur(0.02));
        let new_error = dur(0.05) + dur(0.02) * delta().inflation();
        let adopted = Decision::Reset {
            reset: Reset {
                new_clock: ts(200.0),
                new_error,
            },
            recovery: true,
        };
        let rescuer = NodeId::new(3);
        let said = |peer, time, at| (NodeId::new(peer), est(time, 0.1), ts(at));
        let verdict = |recent: &[(NodeId, TimeEstimate, Timestamp)]| {
            let mut peers = PeerTable::new(&ServerConfig::new(Strategy::Im, delta()));
            for &(peer, claim, at) in recent {
                peers.remember(peer, claim, at);
            }
            recover(&reply, rescuer, ts(100.0), delta(), &peers)
        };
        // Nothing on record — or only the rescuer's own word — and the
        // reply is taken on faith, as in §3.
        assert_eq!(verdict(&[]), adopted);
        assert_eq!(verdict(&[said(3, 0.0, 100.0)]), adopted);
        // Two neighbours on record, 10 own-seconds old: aged, they say
        // ~⟨200, 0.1⟩ and ~⟨300, 0.1⟩. Agreeing with one of two passes;
        // a third dissenter tips the screen.
        let mut recent = vec![
            said(1, 190.0, 90.0),
            said(2, 290.0, 90.0),
            said(3, 0.0, 100.0),
        ];
        assert_eq!(verdict(&recent), adopted);
        recent.push(said(4, 290.0, 90.0));
        assert_eq!(verdict(&recent), Decision::Inconsistent);
    }

    #[test]
    fn cached_claims_age_on_the_own_clock() {
        // Heard ⟨100, 0.01⟩ when our clock read 99.991; 9 ms later the
        // claim has moved with us and widened by 2δ of the span.
        let claim = aged((est(100.0, 0.01), ts(99.991)), ts(100.0), delta());
        assert!((claim.time().as_secs() - 100.009).abs() < 1e-9);
        assert!((claim.error().as_secs() - (0.01 + 0.009 * 2e-4)).abs() < 1e-12);
        // A receipt mark ahead of the reading (a torn step) clamps.
        let torn = aged((est(100.0, 0.01), ts(101.0)), ts(100.0), delta());
        assert_eq!(torn, est(100.0, 0.01));
    }
}
