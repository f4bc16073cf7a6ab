//! Property-based tests for the theorem-backed invariants of tempo-core.
//!
//! Each property corresponds to a claim proven in the paper; the
//! generators produce arbitrary-but-legal configurations (correct
//! estimates, valid drift bounds, bounded delays) and the assertions are
//! the theorem statements themselves.

use tempo_check::{check, Gen};

use tempo_core::consistency::{consistency_groups, ConsistencyGraph};
use tempo_core::marzullo::{best_intersection, intersect_tolerating};
use tempo_core::ntp::select;
use tempo_core::sync::im::{im_round, ImOutcome};
use tempo_core::sync::mm::{mm_decide, MmOutcome};
use tempo_core::sync::TimedReply;
use tempo_core::{DriftRate, Duration, ErrorState, TimeEstimate, TimeInterval, Timestamp};

/// A correct estimate at real time `t`: the claimed interval contains `t`.
fn correct_estimate(g: &mut Gen, t: f64) -> TimeEstimate {
    // error in [0, 10]s, offset within ±error.
    let error = g.f64(0.0..10.0);
    let offset = g.f64(-1.0..1.0) * error;
    TimeEstimate::new(Timestamp::from_secs(t + offset), Duration::from_secs(error))
}

fn drift_rate(g: &mut Gen) -> DriftRate {
    DriftRate::new(g.f64(0.0..0.1))
}

fn arb_interval(g: &mut Gen) -> TimeInterval {
    let (lo, w) = (g.f64(0.0..100.0), g.f64(0.0..30.0));
    TimeInterval::new(Timestamp::from_secs(lo), Timestamp::from_secs(lo + w))
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

        if let MmOutcome::Reset(reset) = mm_decide(&own, delta, &reply) {
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
        if let ImOutcome::Reset(reset) = im_round(&own, delta, &replies) {
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
        if let ImOutcome::Reset(reset) = im_round(&own, delta, &replies) {
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

/// Two correct servers are always consistent (§2.3): inconsistency
/// proves incorrectness.
#[test]
fn correct_servers_are_consistent() {
    check("correct_servers_are_consistent", 256, |g| {
        let t = g.f64(0.0..1e6);
        let a = correct_estimate(g, 0.0);
        let b = correct_estimate(g, 0.0);
        // Shift both to be correct at the same real time t.
        let shift = Duration::from_secs(t);
        let a = TimeEstimate::new(a.time() + shift, a.error());
        let b = TimeEstimate::new(b.time() + shift, b.error());
        assert!(a.is_correct_at(Timestamp::from_secs(t)));
        assert!(b.is_correct_at(Timestamp::from_secs(t)));
        assert!(a.is_consistent_with(&b));
    });
}

/// MM-1 / Lemma 1: error growth is monotone and linear between
/// resets.
#[test]
fn error_state_growth_monotone() {
    check("error_state_growth_monotone", 256, |g| {
        let r = g.f64(0.0..1e3);
        let eps = g.f64(0.0..10.0);
        let delta = drift_rate(g);
        let d1 = g.f64(0.0..1e4);
        let d2 = g.f64(0.0..1e4);
        let state = ErrorState::new(Timestamp::from_secs(r), Duration::from_secs(eps), delta);
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let e_lo = state.error_at(Timestamp::from_secs(r + lo));
        let e_hi = state.error_at(Timestamp::from_secs(r + hi));
        assert!(e_lo <= e_hi);
        // Linearity: E(r + d) − ε = d·δ.
        let expected = eps + hi * delta.as_f64();
        assert!((e_hi.as_secs() - expected).abs() < 1e-9 * (1.0 + expected));
    });
}

/// Interval algebra: intersection is commutative, contained in both
/// inputs, and no wider than either input.
#[test]
fn interval_intersection_algebra() {
    check("interval_intersection_algebra", 256, |g| {
        let a = arb_interval(g);
        let b = arb_interval(g);
        let ab = a.intersect(&b);
        let ba = b.intersect(&a);
        assert_eq!(ab, ba);
        if let Some(i) = ab {
            assert!(a.contains_interval(&i));
            assert!(b.contains_interval(&i));
            assert!(i.width() <= a.width().min(b.width()));
        } else {
            assert!(!a.intersects(&b));
        }
        // Hull contains both.
        let h = a.hull(&b);
        assert!(h.contains_interval(&a));
        assert!(h.contains_interval(&b));
    });
}

/// Marzullo sweep: the reported maximum coverage is achieved on every
/// best region, never exceeded anywhere, and if true time is covered
/// by the maximum number of intervals it lies in a best region.
#[test]
fn marzullo_coverage_invariants() {
    check("marzullo_coverage_invariants", 256, |g| {
        let intervals = g.vec(1..24, arb_interval);
        let probe = g.f64(0.0..130.0);
        let result = best_intersection(&intervals).unwrap();
        let cover_at = |t: Timestamp| intervals.iter().filter(|iv| iv.contains(t)).count();
        for region in &result.regions {
            assert_eq!(cover_at(region.interval.midpoint()), result.coverage);
            assert_eq!(region.members.len(), result.coverage);
        }
        let p = Timestamp::from_secs(probe);
        assert!(cover_at(p) <= result.coverage);
        if cover_at(p) == result.coverage {
            assert!(result.regions.iter().any(|r| r.interval.contains(p)));
        }
    });
}

/// Fault tolerance: if at least `n − f` intervals contain the true
/// time, the tolerant intersection exists (it may be a different
/// region when the service is ambiguous, but it exists).
#[test]
fn marzullo_tolerance_exists_when_quorum_correct() {
    check("marzullo_tolerance_exists_when_quorum_correct", 256, |g| {
        let t = g.f64(20.0..80.0);
        let correct_count = g.int(2usize..10);
        let faulty_count = g.int(0usize..5);
        let widths = g.vec(16..=16, |g| g.f64(0.1..20.0));
        let offsets = g.vec(16..=16, |g| g.f64(-1.0..1.0));
        let mut intervals = Vec::new();
        for i in 0..correct_count {
            let w = widths[i % widths.len()];
            let off = offsets[i % offsets.len()] * w;
            intervals.push(TimeInterval::from_center_radius(
                Timestamp::from_secs(t + off),
                Duration::from_secs(w),
            ));
        }
        for i in 0..faulty_count {
            // Far away from t.
            let w = widths[(i + correct_count) % widths.len()];
            intervals.push(TimeInterval::from_center_radius(
                Timestamp::from_secs(t + 1000.0 + 50.0 * i as f64),
                Duration::from_secs(w),
            ));
        }
        let f = faulty_count;
        assert!(f < intervals.len());
        let res = intersect_tolerating(&intervals, f);
        assert!(
            res.is_some(),
            "quorum of {correct_count} correct intervals must intersect"
        );
    });
}

/// Consistency groups: members witness a common point, groups are
/// mutually non-nested, and every interval appears in some group.
#[test]
fn consistency_groups_partition() {
    check("consistency_groups_partition", 256, |g| {
        let intervals = g.vec(1..16, arb_interval);
        let groups = consistency_groups(&intervals);
        assert!(!groups.is_empty());
        let mut seen = vec![false; intervals.len()];
        for g in &groups {
            // Common intersection is genuinely common.
            for &m in &g.members {
                assert!(intervals[m].contains_interval(&g.intersection));
                seen[m] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every interval belongs to a group");
        // Maximality: no group's member set is a subset of another's.
        for (i, a) in groups.iter().enumerate() {
            for (j, b) in groups.iter().enumerate() {
                if i != j {
                    let subset = a.members.iter().all(|m| b.members.contains(m));
                    assert!(!subset, "group {i} nested in group {j}");
                }
            }
        }
    });
}

/// The consistency graph agrees with pairwise interval intersection.
#[test]
fn consistency_graph_matches_intervals() {
    check("consistency_graph_matches_intervals", 256, |g| {
        let estimates = g.vec(0..12, |g| (g.f64(0.0..50.0), g.f64(0.0..10.0)));
        let ests: Vec<TimeEstimate> = estimates
            .iter()
            .map(|&(c, e)| TimeEstimate::new(Timestamp::from_secs(c), Duration::from_secs(e)))
            .collect();
        let g = ConsistencyGraph::new(&ests);
        for i in 0..ests.len() {
            for j in 0..ests.len() {
                let expected = ests[i].interval().intersects(&ests[j].interval());
                assert_eq!(g.consistent(i, j), expected);
            }
        }
    });
}

/// NTP selection: on success, truechimers and falsetickers partition
/// the sources and every truechimer overlaps the accepted region.
#[test]
fn ntp_selection_partitions_sources() {
    check("ntp_selection_partitions_sources", 256, |g| {
        let intervals = g.vec(1..16, arb_interval);
        if let Some(sel) = select(&intervals) {
            let mut all: Vec<usize> = sel
                .truechimers
                .iter()
                .chain(sel.falsetickers.iter())
                .copied()
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..intervals.len()).collect::<Vec<_>>());
            let region = sel.interval();
            for &i in &sel.truechimers {
                assert!(intervals[i].intersects(&region));
            }
            for &i in &sel.falsetickers {
                assert!(!intervals[i].intersects(&region));
            }
            // Majority of midpoints inside the region.
            let inside = intervals
                .iter()
                .filter(|iv| region.contains(iv.midpoint()))
                .count();
            assert!(inside + sel.assumed_falsetickers >= intervals.len());
        }
    });
}

mod filter_props {
    use tempo_check::{check, Gen};
    use tempo_core::filter::{cluster, combine, ClockFilter, FilterSample, PeerEstimate};
    use tempo_core::{Duration, Timestamp};

    fn arb_samples(g: &mut Gen) -> Vec<(f64, f64)> {
        g.vec(1..20, |g| (g.f64(-1.0..1.0), g.f64(0.0..0.5)))
    }

    /// The filter's best sample is exactly the minimum-delay one
    /// among the retained window.
    #[test]
    fn best_is_min_delay() {
        check("best_is_min_delay", 256, |g| {
            let samples = arb_samples(g);
            let mut f = ClockFilter::new(8);
            for (i, &(off, d)) in samples.iter().enumerate() {
                f.push(FilterSample::new(
                    Duration::from_secs(off),
                    Duration::from_secs(d),
                    Timestamp::from_secs(i as f64),
                ));
            }
            let best = f.best().unwrap();
            for s in f.iter() {
                assert!(best.delay <= s.delay);
            }
            // Window cap respected.
            assert!(f.len() <= 8);
            assert_eq!(f.len(), samples.len().min(8));
        });
    }

    /// Cluster survivors are a subset of the peers, respect the
    /// floor, and never lose the whole ensemble.
    #[test]
    fn cluster_survivors_wellformed() {
        check("cluster_survivors_wellformed", 256, |g| {
            let offsets = g.vec(1..12, |g| g.f64(-1.0..1.0));
            let jitter = g.f64(0.0001..0.1);
            let min_survivors_seed = g.int(0..=usize::MAX);
            let peers: Vec<PeerEstimate> = offsets
                .iter()
                .map(|&o| {
                    PeerEstimate::new(
                        Duration::from_secs(o),
                        Duration::from_secs(jitter),
                        Duration::from_secs(0.01),
                    )
                })
                .collect();
            let floor = 1 + min_survivors_seed % peers.len();
            let survivors = cluster(&peers, floor);
            assert!(survivors.len() >= floor.min(peers.len()));
            assert!(survivors.len() <= peers.len());
            let mut sorted = survivors.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), survivors.len(), "duplicates");
            assert!(survivors.iter().all(|&i| i < peers.len()));
        });
    }

    /// The combined offset lies within the survivors' offset range.
    #[test]
    fn combine_within_survivor_hull() {
        check("combine_within_survivor_hull", 256, |g| {
            let offsets = g.vec(1..12, |g| g.f64(-1.0..1.0));
            let errors = g.vec(12..=12, |g| g.f64(0.001..0.5));
            let peers: Vec<PeerEstimate> = offsets
                .iter()
                .enumerate()
                .map(|(i, &o)| {
                    PeerEstimate::new(
                        Duration::from_secs(o),
                        Duration::ZERO,
                        Duration::from_secs(errors[i % errors.len()]),
                    )
                })
                .collect();
            let survivors: Vec<usize> = (0..peers.len()).collect();
            let combined = combine(&peers, &survivors).unwrap().as_secs();
            let lo = offsets.iter().cloned().fold(f64::MAX, f64::min);
            let hi = offsets.iter().cloned().fold(f64::MIN, f64::max);
            assert!(combined >= lo - 1e-12 && combined <= hi + 1e-12);
        });
    }
}
