//! The round engine: the paper's synchronization rules as pure
//! functions from what a server knows to what it should do, each rule
//! written once.
//!
//! The paper characterises synchronization as each server `i`
//! independently computing `C_i(t) ← F(C_{i1}(t), …, C_{ik}(t))` over a
//! distributed set of data (§1.2); the synchronization function `F` is
//! what tells the algorithms apart: [`mm2`] (§3), [`im2`] (§4),
//! [`marzullo_f`] (the fault-tolerant generalisation of IM) and
//! [`baseline`] (the max / median / mean of the prior work).
//!
//! Inputs are the server's own estimate `⟨C_i, E_i⟩` at a reading of
//! its clock (rule MM-1 has already grown `E_i` to that reading), the
//! replies it holds, its drift bound `δ_i` and the configured
//! [`Strategy`]; the output is a [`Decision`]. Nothing here sends,
//! persists, publishes or reads a clock, so every function can be
//! checked against PAPER.md on fixed values — and explored
//! exhaustively. Every `(1+δ_i)ξ` allowance is computed by
//! `tempo_core::bounds`.

use tempo_core::bounds::{im2_leading_allowance, mm2_adjusted_error};
use tempo_core::{marzullo, DriftRate, Duration, TimeEstimate, Timestamp};
use tempo_net::NodeId;

use crate::config::Strategy;
use crate::peers::PeerTable;

/// A remote reply `⟨C_j, E_j⟩` paired with the round-trip `ξ^i_j`
/// measured on the requesting server's own clock `C_i`.
///
/// Measuring `ξ` locally (rather than in real time) is what introduces
/// the `(1 + δ_i)` inflation factors in rules MM-2 and IM-2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TimedReply {
    /// The remote server's reported estimate.
    pub estimate: TimeEstimate,
    /// The round-trip `ξ^i_j` as measured by the local clock.
    pub round_trip: Duration,
}

impl TimedReply {
    /// Pairs a reply with its locally measured round-trip.
    ///
    /// # Panics
    ///
    /// Panics if `round_trip` is negative (clock readings between resets
    /// are monotonic, so a locally measured round-trip cannot be
    /// negative).
    pub(crate) fn new(estimate: TimeEstimate, round_trip: Duration) -> Self {
        assert!(
            !round_trip.is_negative(),
            "round-trip must be non-negative, got {round_trip}"
        );
        TimedReply {
            estimate,
            round_trip,
        }
    }
}

/// The decision to reset the local clock: `C_i ← new_clock`,
/// `ε_i ← new_error`, `r_i ← new_clock` (rules MM-2 / IM-2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Reset {
    /// The value the clock is set to.
    pub new_clock: Timestamp,
    /// The inherited error after the reset.
    pub new_error: Duration,
}

impl Reset {
    /// The estimate a server holds immediately after applying this reset.
    pub(crate) fn as_estimate(&self) -> TimeEstimate {
        TimeEstimate::new(self.new_clock, self.new_error)
    }
}

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

impl Decision {
    /// An ordinary adoption (MM-2, IM-2, a baseline): never a recovery.
    fn adopt(new_clock: Timestamp, new_error: Duration) -> Self {
        Decision::Reset {
            reset: Reset {
                new_clock,
                new_error,
            },
            recovery: false,
        }
    }
}

/// Which baseline synchronization function [`Strategy::Baseline`]
/// applies (ablation A2): the functions of the prior work the paper
/// positions MM and IM against (§1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineKind {
    /// Adopt the maximum clock value among self and all replies
    /// (Lamport's monotonicity-preserving rule, [Lamport 78]).
    LamportMax,
    /// Adopt the median clock value (lower median for even counts), as
    /// in fault-tolerant synchronization ([Lamport 82]).
    Median,
    /// Adopt the mean clock value.
    Mean,
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

/// Rule MM-2 (§3), on one reply as it arrives: evaluate
///
/// ```text
/// E_j + (1 + δ_i) · ξ^i_j  ≤  E_i
/// ```
///
/// and, if the predicate holds, reset: `ε_i ← E_j + (1+δ_i)ξ^i_j`,
/// `C_i ← C_j`, `r_i ← C_j`. `own` is `⟨C_i, E_i⟩` at the reply's
/// reception (per rule MM-1 the error grew while the request was in
/// flight). An inconsistent reply is ignored by the rule and surfaced
/// as [`Decision::Inconsistent`], since §3's recovery keys off it.
///
/// MM is a *selection* function: the clock value always comes from a
/// single server, so the service is never more accurate than its most
/// accurate clock — and, because different servers may select
/// different sources, its synchronization is limited by consistency
/// (Theorem 3) rather than by the round-trip bound.
pub(crate) fn mm2(own: &TimeEstimate, delta: DriftRate, reply: &TimedReply) -> Decision {
    if !own.is_consistent_with(&reply.estimate) {
        return Decision::Inconsistent;
    }
    let adjusted = mm2_adjusted_error(reply.estimate.error(), reply.round_trip, delta);
    if adjusted <= own.error() {
        Decision::adopt(reply.estimate.time(), adjusted)
    } else {
        Decision::Keep
    }
}

/// Rule IM-2 (§4), on a closed round: transform each reply into an
/// interval relative to the local reading `C_i`,
///
/// ```text
/// T_j ← C_j − E_j − C_i
/// L_j ← C_j + E_j + (1 + δ_i)·ξ^i_j − C_i
/// ```
///
/// (only the leading edge is widened: while the reply was in flight
/// real time can only have advanced). With `a = max T_j` and
/// `b = min L_j`, a non-empty `[a .. b]` resets the clock to its
/// midpoint: `ε_i ← (b−a)/2`, `C_i ← C_i + (a+b)/2`, `r_i ← C_i`.
///
/// The local interval `[−E_i .. +E_i]` is always part of the
/// intersection, as in the Theorem 5 proof (a server only moves its
/// clock *within* its own interval), so callers add no self-reply.
/// Because the adopted interval is *derived* rather than selected,
/// Theorem 6 keeps it no wider than the narrowest input, and Theorem 8
/// shows its expected width need not grow with the number of servers.
pub(crate) fn im2(own: &TimeEstimate, delta: DriftRate, replies: &[TimedReply]) -> Decision {
    let mut a = -own.error();
    let mut b = own.error();
    for reply in replies {
        let offset = reply.estimate.time() - own.time();
        a = a.max(offset - reply.estimate.error());
        b = b.min(offset + reply.estimate.error() + im2_leading_allowance(reply.round_trip, delta));
    }
    // The paper states the condition as b > a; with closed intervals a
    // single shared point (b == a) is still a consistent — if degenerate —
    // intersection, matching the ≤ in the §2.3 consistency predicate.
    if b >= a {
        Decision::adopt(own.time() + (a + b).half(), (b - a).half())
    } else {
        Decision::Inconsistent
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
                .extend_leading(im2_leading_allowance(r.round_trip, delta)),
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

/// The cited max / median / mean functions (§1.2), over `own` and the
/// buffered replies. They compare clock *values*, so stale replies must
/// first be extrapolated to "now": a reply generated roughly half a
/// round-trip after the request has aged by
/// (clock_now − recv) + (recv − send)/2 local seconds. (MM and IM need
/// no such step — their rules absorb the delay into the error instead.)
/// Unlike MM, the baselines never reject an inconsistent reply: the
/// cited algorithms have no notion of consistency.
///
/// They assume *accurate* clocks and carry no error accounting, so they
/// can silently go incorrect under drift — the comparison ablation A2
/// runs. The inherited error is our addition, so a baseline can live in
/// an MM-1-reporting server. After extrapolation the residual delay
/// uncertainty is only the asymmetric half of the arrival round-trip,
/// which inflates each reply's error per MM-2; max and median then
/// inherit the adopted source's error, mean the mean of all errors (a
/// mean of intervals is centred on the mean of centres with the mean
/// radius only if radii align, so it can under-cover — the known
/// weakness being measured).
fn baseline(
    own: &TimeEstimate,
    delta: DriftRate,
    buffered: &[BufferedReply],
    kind: BaselineKind,
) -> Decision {
    // Participants: (clock value, adjusted error), own first.
    let mut participants: Vec<(Timestamp, Duration)> = Vec::with_capacity(buffered.len() + 1);
    participants.push((own.time(), own.error()));
    for b in buffered {
        let rtt_arrival = (b.recv_clock - b.send_clock).max(Duration::ZERO);
        let age = (own.time() - b.recv_clock).max(Duration::ZERO) + rtt_arrival.half();
        participants.push((
            b.estimate.time() + age,
            mm2_adjusted_error(b.estimate.error(), rtt_arrival, delta),
        ));
    }
    let (new_clock, new_error) = match kind {
        BaselineKind::LamportMax => *participants
            .iter()
            .max_by_key(|(c, _)| *c)
            .expect("participants is non-empty"),
        BaselineKind::Median => {
            participants.sort_by_key(|(c, _)| *c);
            participants[(participants.len() - 1) / 2]
        }
        BaselineKind::Mean => {
            let n = participants.len() as f64;
            let mean_secs = participants.iter().map(|(c, _)| c.as_secs()).sum::<f64>() / n;
            let mean_error = participants.iter().map(|(_, e)| *e).sum::<Duration>() / n;
            (Timestamp::from_secs(mean_secs), mean_error)
        }
    };
    Decision::adopt(new_clock, new_error)
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
        widths.push(
            r.estimate.error() + r.estimate.error() + im2_leading_allowance(r.round_trip, delta),
        );
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
    let new_error = mm2_adjusted_error(reply.estimate.error(), reply.round_trip, delta);
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
    use tempo_check::{check, Gen};

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
        let max = Strategy::Baseline(BaselineKind::LamportMax);
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

    fn reply(c: f64, e: f64, rtt: f64) -> TimedReply {
        TimedReply::new(est(c, e), dur(rtt))
    }

    #[test]
    fn timed_reply_construction() {
        let e = est(1.0, 0.1);
        let r = TimedReply::new(e, dur(0.05));
        assert_eq!(r.estimate, e);
        assert_eq!(r.round_trip, dur(0.05));
    }

    #[test]
    #[should_panic(expected = "round-trip must be non-negative")]
    fn timed_reply_rejects_negative_rtt() {
        let _ = TimedReply::new(est(1.0, 0.0), dur(-0.01));
    }

    #[test]
    fn reset_as_estimate() {
        let reset = Reset {
            new_clock: ts(5.0),
            new_error: dur(0.2),
        };
        assert_eq!(reset.as_estimate(), est(5.0, 0.2));
    }

    #[test]
    fn boundary_equal_adjusted_error_is_adopted() {
        // The predicate is ≤, so an exactly-equal adjusted error resets.
        let own = est(100.0, 0.5);
        assert!(matches!(
            mm2(&own, DriftRate::ZERO, &reply(100.0, 0.5, 0.0)),
            Decision::Reset { .. }
        ));
    }

    #[test]
    fn self_reply_always_satisfies_predicate() {
        // The Theorem 2 proof's device: a self-reply (the server
        // answering its own request) has ξ = 0 and E_j = E_i, so it
        // satisfies MM-2 without changing anything.
        let own = est(42.0, 0.7);
        let self_reply = TimedReply::new(own, Duration::ZERO);
        let (reset, recovery) = reset_of(mm2(&own, DriftRate::new(0.1), &self_reply));
        assert_eq!(reset.as_estimate(), own);
        assert!(!recovery);
    }

    #[test]
    fn transform_matches_rule_im2() {
        // T = 100.3 − 0.2 − 100.0 = 0.1 and L = 100.3 + 0.2 + 1.01·0.1 −
        // 100.0 = 0.601; own [−5, 5] contains both, so IM-2 adopts
        // [T .. L] itself.
        let (reset, recovery) = reset_of(im2(
            &est(100.0, 5.0),
            DriftRate::new(0.01),
            &[reply(100.3, 0.2, 0.1)],
        ));
        assert!((reset.new_clock.as_secs() - 100.3505).abs() < 1e-12);
        assert!((reset.new_error.as_secs() - 0.2505).abs() < 1e-12);
        assert!(!recovery);
        // Only the leading edge widens: T = −1, L = 1.0 + 1.5·2.0 = 4.0.
        let (reset, _) = reset_of(im2(
            &est(0.0, 10.0),
            DriftRate::new(0.5),
            &[reply(0.0, 1.0, 2.0)],
        ));
        assert_eq!(reset.as_estimate(), est(1.5, 2.5));
    }

    #[test]
    fn round_with_no_replies_recentres_on_own_interval() {
        let (reset, _) = reset_of(im2(&est(10.0, 0.5), DriftRate::ZERO, &[]));
        assert_eq!(reset.as_estimate(), est(10.0, 0.5));
    }

    #[test]
    fn intersection_shrinks_error_below_narrowest_input() {
        // Right side of Figure 2: offset intervals whose intersection is
        // narrower than either input.
        let own = est(100.0, 1.0); // [99, 101]
        let r = reply(101.5, 1.0, 0.0); // [100.5, 102.5]
        let (reset, _) = reset_of(im2(&own, DriftRate::ZERO, &[r]));
        // intersection [100.5, 101.0] → C = 100.75, E = 0.25
        assert_eq!(reset.as_estimate(), est(100.75, 0.25));
        assert!(reset.new_error < own.error());
        assert!(reset.new_error < r.estimate.error());
    }

    #[test]
    fn subset_case_yields_inner_interval() {
        // Left side of Figure 2: the narrow interval lies inside the wide
        // one; the intersection is the narrow interval itself.
        let own = est(100.0, 2.0); // [98, 102]
        let r = reply(100.5, 0.3, 0.0); // [100.2, 100.8]
        let (reset, _) = reset_of(im2(&own, DriftRate::ZERO, &[r]));
        assert!((reset.new_clock.as_secs() - 100.5).abs() < 1e-12);
        assert!((reset.new_error.as_secs() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn pairwise_consistent_but_jointly_empty_is_inconsistent() {
        // Three intervals, each pair intersects, but no common point —
        // consistency is not transitive, and IM detects the emptiness.
        let own = est(0.0, 1.0); // [-1, 1]
        let r1 = reply(1.8, 1.0, 0.0); // [0.8, 2.8]
        let r2 = reply(-1.8, 1.0, 0.0); // [-2.8, -0.8]
        assert!(own.is_consistent_with(&r1.estimate));
        assert!(own.is_consistent_with(&r2.estimate));
        assert_eq!(
            im2(&own, DriftRate::ZERO, &[r1, r2]),
            Decision::Inconsistent
        );
    }

    #[test]
    fn touching_intervals_intersect_in_a_point() {
        let own = est(0.0, 1.0); // [-1, 1]
        let r = reply(2.0, 1.0, 0.0); // [1, 3]
        let (reset, _) = reset_of(im2(&own, DriftRate::ZERO, &[r]));
        assert_eq!(reset.as_estimate(), est(1.0, 0.0));
    }

    #[test]
    fn result_is_exact_interval_intersection() {
        // Cross-check im2 against TimeInterval::intersect_all on the
        // same (already-widened) intervals.
        use tempo_core::TimeInterval;
        let own = est(100.0, 1.3);
        let delta = DriftRate::new(0.001);
        let replies = [
            reply(100.4, 0.9, 0.03),
            reply(99.8, 1.1, 0.01),
            reply(100.1, 0.6, 0.05),
        ];
        let (reset, _) = reset_of(im2(&own, delta, &replies));
        let mut intervals = vec![own.interval()];
        for r in &replies {
            intervals.push(
                r.estimate
                    .interval()
                    .extend_leading(r.round_trip * delta.inflation()),
            );
        }
        let expected = TimeInterval::intersect_all(&intervals).unwrap();
        assert!((reset.new_clock.as_secs() - expected.midpoint().as_secs()).abs() < 1e-12);
        assert!((reset.new_error.as_secs() - expected.radius().as_secs()).abs() < 1e-12);
    }

    #[test]
    fn theorem6_never_wider_than_narrowest() {
        let own = est(100.0, 2.0);
        let replies = [reply(100.2, 1.5, 0.0), reply(99.9, 0.7, 0.0)];
        let (reset, _) = reset_of(im2(&own, DriftRate::ZERO, &replies));
        let narrowest = replies
            .iter()
            .map(|r| r.estimate.error())
            .fold(own.error(), Duration::min);
        assert!(reset.new_error <= narrowest);
    }

    /// A baseline round over `(C_j, E_j, ξ)` replies that arrived at the
    /// closing reading, so only half of `ξ` extrapolates them.
    fn baseline_of(
        kind: BaselineKind,
        own: TimeEstimate,
        delta: DriftRate,
        replies: &[(f64, f64, f64)],
    ) -> Reset {
        let at = own.time().as_secs();
        let buffered: Vec<BufferedReply> = replies
            .iter()
            .enumerate()
            .map(|(i, &(c, e, rtt))| buffered(i + 1, est(c, e), at, rtt))
            .collect();
        let (reset, recovery) = reset_of(baseline(&own, delta, &buffered, kind));
        assert!(!recovery);
        reset
    }

    #[test]
    fn max_adopts_fastest_clock() {
        let replies = [(9.0, 0.2, 0.0), (12.0, 0.3, 0.0)];
        let reset = baseline_of(
            BaselineKind::LamportMax,
            est(10.0, 0.1),
            DriftRate::ZERO,
            &replies,
        );
        assert_eq!(reset.as_estimate(), est(12.0, 0.3));
    }

    #[test]
    fn max_includes_own_clock() {
        let replies = [(9.0, 0.2, 0.0)];
        let reset = baseline_of(
            BaselineKind::LamportMax,
            est(20.0, 0.1),
            DriftRate::ZERO,
            &replies,
        );
        assert_eq!(reset.as_estimate(), est(20.0, 0.1));
    }

    #[test]
    fn max_never_moves_clock_backwards() {
        // Monotonicity: the max over a set including own clock is ≥ own.
        let own = est(100.0, 0.5);
        let replies = [(95.0, 0.1, 0.0), (98.0, 0.1, 0.0)];
        let reset = baseline_of(BaselineKind::LamportMax, own, DriftRate::ZERO, &replies);
        assert!(reset.new_clock >= own.time());
    }

    #[test]
    fn median_odd_count() {
        let replies = [(30.0, 0.2, 0.0), (20.0, 0.3, 0.0)];
        let reset = baseline_of(
            BaselineKind::Median,
            est(10.0, 0.1),
            DriftRate::ZERO,
            &replies,
        );
        assert_eq!(reset.as_estimate(), est(20.0, 0.3));
    }

    #[test]
    fn median_even_count_takes_lower_median() {
        let replies = [(20.0, 0.2, 0.0), (30.0, 0.3, 0.0), (40.0, 0.4, 0.0)];
        let reset = baseline_of(
            BaselineKind::Median,
            est(10.0, 0.1),
            DriftRate::ZERO,
            &replies,
        );
        assert_eq!(reset.new_clock, ts(20.0));
    }

    #[test]
    fn median_tolerates_one_wild_clock() {
        let replies = [(100.2, 0.1, 0.0), (9999.0, 0.1, 0.0)];
        let own = est(100.0, 0.1);
        let reset = baseline_of(BaselineKind::Median, own, DriftRate::ZERO, &replies);
        assert_eq!(reset.new_clock, ts(100.2));
    }

    #[test]
    fn mean_averages_clocks_and_errors() {
        let replies = [(20.0, 0.6, 0.0)];
        let reset = baseline_of(
            BaselineKind::Mean,
            est(10.0, 0.3),
            DriftRate::ZERO,
            &replies,
        );
        assert_eq!(reset.new_clock, ts(15.0));
        assert!((reset.new_error.as_secs() - 0.45).abs() < 1e-12);
    }

    #[test]
    fn mean_is_pulled_by_outliers() {
        // The known weakness: one wild clock drags the mean.
        let replies = [(100.0, 0.1, 0.0), (400.0, 0.1, 0.0)];
        let reset = baseline_of(
            BaselineKind::Mean,
            est(100.0, 0.1),
            DriftRate::ZERO,
            &replies,
        );
        assert_eq!(reset.new_clock, ts(200.0));
    }

    #[test]
    fn round_trip_inflates_reply_errors() {
        // ξ = 2 moves the reply's clock on by ξ/2 and inflates its
        // error per MM-2: 1.0 + 1.5·2.0 = 4.0.
        let replies = [(5.0, 1.0, 2.0)];
        let own = est(0.0, 10.0);
        let reset = baseline_of(BaselineKind::LamportMax, own, DriftRate::new(0.5), &replies);
        assert_eq!(reset.as_estimate(), est(6.0, 4.0));
    }

    #[test]
    fn no_replies_keeps_own_values() {
        use BaselineKind::{LamportMax, Mean, Median};
        for kind in [LamportMax, Median, Mean] {
            let reset = baseline_of(kind, est(7.0, 0.7), DriftRate::ZERO, &[]);
            assert_eq!(reset.as_estimate(), est(7.0, 0.7), "{kind:?}");
        }
    }

    fn drift_rate(g: &mut Gen) -> DriftRate {
        DriftRate::new(g.f64(0.0..0.1))
    }

    /// Theorem 1 shape: if the requester's estimate is correct at the
    /// reception instant and the replier's estimate was correct at the
    /// moment it answered, then an MM reset yields an estimate that is
    /// correct at the reception instant.
    #[test]
    fn mm_reset_preserves_correctness() {
        check("mm_reset_preserves_correctness", 256, |g| {
            let t0 = g.f64(0.0..1e6);
            let sigma_frac = g.f64(0.0..1.0);
            let xi = g.f64(0.0..2.0);
            let delta = drift_rate(g);
            // Local-clock measurement distortion within [1-δ, 1+δ].
            let meas_frac = g.f64(-1.0..1.0);
            let own_seed = g.f64(0.0..1.0);
            let own_err = g.f64(0.0..10.0);
            let reply_seed = g.f64(-1.0..1.0);
            let reply_err = g.f64(0.0..10.0);
            let sigma = sigma_frac * xi; // request delay σ ≤ ξ
            let reply_time = t0 + sigma; // replier answers at t0+σ
            let recv_time = t0 + xi; // requester receives at t0+ξ

            // Correct reply at its send instant.
            let reply_est = TimeEstimate::new(
                Timestamp::from_secs(reply_time + reply_seed * reply_err),
                Duration::from_secs(reply_err),
            );
            // Correct own estimate at the reception instant.
            let own = TimeEstimate::new(
                Timestamp::from_secs(recv_time + (own_seed * 2.0 - 1.0) * own_err),
                Duration::from_secs(own_err),
            );
            // Round-trip measured on the local clock: within (1±δ)·ξ.
            let measured = xi * (1.0 + meas_frac * delta.as_f64());
            let reply = TimedReply::new(reply_est, Duration::from_secs(measured));

            if let Decision::Reset { reset, .. } = mm2(&own, delta, &reply) {
                // The adopted clock is C_j from time t0+σ; by reception the
                // true time advanced by ρ = ξ − σ, so the adopted interval
                // must contain recv_time:
                // C_j ± (E_j + (1+δ)ξ^i) must cover t0+ξ given C_j ± E_j
                // covered t0+σ and ξ^i ≥ (1−δ)ξ ≥ ξ − σ... (Theorem 1).
                let adopted = reset.as_estimate();
                assert!(
                    adopted.is_correct_at(Timestamp::from_secs(recv_time)),
                    "adopted {adopted} not correct at {recv_time}"
                );
            }
        });
    }

    /// Theorem 5 shape: the same setup under IM keeps correctness.
    #[test]
    fn im_reset_preserves_correctness() {
        check("im_reset_preserves_correctness", 256, |g| {
            let t0 = g.f64(0.0..1e6);
            let sigma_fracs = g.vec(1..6, |g| g.f64(0.0..1.0));
            let xi = g.f64(0.0001..2.0);
            let delta = drift_rate(g);
            let own_seed = g.f64(0.0..1.0);
            let own_err = g.f64(0.0..10.0);
            let reply_seeds = g.vec(1..6, |g| (g.f64(-1.0..1.0), g.f64(0.0..10.0)));
            let recv_time = t0 + xi;
            let own = TimeEstimate::new(
                Timestamp::from_secs(recv_time + (own_seed * 2.0 - 1.0) * own_err),
                Duration::from_secs(own_err),
            );
            let n = sigma_fracs.len().min(reply_seeds.len());
            let mut replies = Vec::new();
            for k in 0..n {
                let sigma = sigma_fracs[k] * xi;
                let (seed, err) = reply_seeds[k];
                let reply_est = TimeEstimate::new(
                    Timestamp::from_secs(t0 + sigma + seed * err),
                    Duration::from_secs(err),
                );
                // Conservative local measurement: exactly (1+δ)-safe ξ.
                replies.push(TimedReply::new(reply_est, Duration::from_secs(xi)));
            }
            if let Decision::Reset { reset, .. } = im2(&own, delta, &replies) {
                let adopted = reset.as_estimate();
                assert!(
                    adopted.is_correct_at(Timestamp::from_secs(recv_time)),
                    "IM adopted {adopted} not correct at {recv_time}"
                );
            }
        });
    }

    /// Theorem 6: the IM intersection is never wider than the narrowest
    /// participating interval.
    #[test]
    fn im_never_wider_than_narrowest() {
        check("im_never_wider_than_narrowest", 256, |g| {
            let own_c = g.f64(0.0..100.0);
            let own_e = g.f64(0.0..10.0);
            let reply_data = g.vec(0..8, |g| {
                (g.f64(0.0..100.0), g.f64(0.0..10.0), g.f64(0.0..0.5))
            });
            let delta = drift_rate(g);
            let own = TimeEstimate::new(Timestamp::from_secs(own_c), Duration::from_secs(own_e));
            let replies: Vec<TimedReply> = reply_data
                .iter()
                .map(|&(c, e, rtt)| {
                    TimedReply::new(
                        TimeEstimate::new(Timestamp::from_secs(c), Duration::from_secs(e)),
                        Duration::from_secs(rtt),
                    )
                })
                .collect();
            if let Decision::Reset { reset, .. } = im2(&own, delta, &replies) {
                // Narrowest input radius, replies widened by rtt allowance.
                let mut narrowest = own.error();
                for r in &replies {
                    let widened = r.estimate.error() + (r.round_trip * delta.inflation()).half();
                    narrowest = narrowest.min(widened);
                }
                assert!(
                    reset.new_error.as_secs() <= narrowest.as_secs() + 1e-9,
                    "IM produced {} wider than narrowest {}",
                    reset.new_error,
                    narrowest
                );
            }
        });
    }
}
