//! Online checking of the ClusterTime invariants.
//!
//! The cluster layer (crate `tempo-cluster`) extends the paper's
//! service with strictly monotonic cluster-wide timestamps. Two
//! invariants define it, and the simulator can check both mechanically
//! from the telemetry stream:
//!
//! * [`TheoremId::ClusterMonotonic`] — released timestamps strictly
//!   increase, globally: across primaries, view changes, crashes, and
//!   amnesia restarts. Checked in release order over the whole run.
//! * [`TheoremId::ClusterBounded`] — every released timestamp lies
//!   within the Marzullo intersection of the issuing quorum's interval
//!   readings (converted to the cluster's microsecond ticks), so
//!   cluster time is never fiction: some instant the quorum considered
//!   possible carries each label.

use std::fmt;

use tempo_telemetry::{EventKind, Observer, TelemetryEvent};

use crate::{rules, write_violations, Findings, TheoremId, Violation};

/// The ClusterTime checker. Subscribe it to the cluster's bus (released
/// timestamps arrive in release order, the order `TsIssued` events are
/// emitted), then [`finish`](ClusterOracle::finish).
#[derive(Debug)]
pub struct ClusterOracle {
    /// The last released timestamp's issuer, view and ticks.
    last: Option<(usize, u64, u64)>,
    issues_checked: usize,
    view_changes: usize,
    highest_view: u64,
    findings: Findings,
}

impl ClusterOracle {
    /// Creates a checker for a run with the given master seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        ClusterOracle {
            last: None,
            issues_checked: 0,
            view_changes: 0,
            highest_view: 0,
            findings: Findings::new(seed),
        }
    }

    /// The replica a checked event comes from: the issuer of a `TsIssued`,
    /// the adopter of a `ViewChange`. A world hosting several clusters
    /// routes each event to its cluster's checker by it.
    #[must_use]
    pub fn replica(event: &TelemetryEvent) -> Option<usize> {
        match *event {
            TelemetryEvent::TsIssued { server, .. } | TelemetryEvent::ViewChange { server, .. } => {
                Some(server)
            }
            _ => None,
        }
    }

    /// Consumes the checker and returns its findings.
    #[must_use]
    pub fn finish(self) -> ClusterReport {
        ClusterReport {
            violations: self.findings.stored,
            total_violations: self.findings.total,
            issues_checked: self.issues_checked,
            view_changes: self.view_changes,
            highest_view: self.highest_view,
        }
    }
}

impl Observer for ClusterOracle {
    fn enabled(&self, kind: EventKind) -> bool {
        matches!(kind, EventKind::TsIssued | EventKind::ViewChange)
    }

    fn observe(&mut self, event: &TelemetryEvent) {
        match *event {
            TelemetryEvent::TsIssued {
                server,
                view,
                timestamp,
                lo,
                hi,
                ..
            } => {
                let event = self.issues_checked;
                self.issues_checked += 1;
                let monotonic = rules::cluster_monotonic(self.last, view, timestamp);
                self.findings
                    .flag(event, server, TheoremId::ClusterMonotonic, monotonic);
                self.last = Some((server, view, timestamp));
                let bounded = rules::cluster_bounded(timestamp, lo, hi);
                self.findings
                    .flag(event, server, TheoremId::ClusterBounded, bounded);
            }
            // Context for violation messages and the report's failover
            // count.
            TelemetryEvent::ViewChange { view, .. } => {
                self.view_changes += 1;
                self.highest_view = self.highest_view.max(view);
            }
            _ => {}
        }
    }
}

/// The structured outcome of a ClusterTime-checked run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// The first `MAX_STORED_VIOLATIONS` violations, in release order.
    pub violations: Vec<Violation>,
    /// The total number of violations (may exceed `violations.len()`).
    pub total_violations: usize,
    /// Released timestamps checked.
    pub issues_checked: usize,
    /// View-change adoptions observed (each failover produces several —
    /// one per adopting replica).
    pub view_changes: usize,
    /// The highest view any replica reached.
    pub highest_view: u64,
}

impl ClusterReport {
    /// True when no invariant was ever violated.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }

    /// The first violation, if any (the natural minimal witness).
    #[must_use]
    pub fn first(&self) -> Option<&Violation> {
        self.violations.first()
    }
}

impl fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cluster oracle: {} issues checked across {} view changes \
             (highest view {}), violations: {}",
            self.issues_checked, self.view_changes, self.highest_view, self.total_violations
        )?;
        write_violations(f, &self.violations, self.total_violations)
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use crate::findings::MAX_STORED_VIOLATIONS;
    use tempo_core::Timestamp;
    use tempo_telemetry::Bus;

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    /// A `TsIssued` by `server` under `view`, backed by `[lo, hi]`.
    fn issue(server: usize, view: u64, timestamp: u64, lo: f64, hi: f64) -> TelemetryEvent {
        TelemetryEvent::TsIssued {
            at: ts(lo),
            server,
            view,
            timestamp,
            lo: ts(lo),
            hi: ts(hi),
        }
    }

    /// A `ViewChange` to `view` by replica 1.
    fn view_change(view: u64) -> TelemetryEvent {
        TelemetryEvent::ViewChange {
            at: ts(0.0),
            server: 1,
            view,
            high_water: 0,
        }
    }

    #[test]
    fn clean_monotonic_stream_is_clean() {
        let mut o = ClusterOracle::new(7);
        o.observe(&issue(0, 0, 10_000_000, 9.9, 10.2));
        o.observe(&issue(0, 0, 10_050_000, 9.95, 10.25));
        o.observe(&view_change(1));
        o.observe(&issue(1, 1, 10_500_000, 10.4, 10.7));
        let report = o.finish();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.issues_checked, 3);
        assert_eq!(report.view_changes, 1);
        assert_eq!(report.highest_view, 1);
    }

    #[test]
    fn regression_across_failover_is_flagged() {
        let mut o = ClusterOracle::new(42);
        o.observe(&issue(0, 0, 11_000_000, 10.0, 12.0));
        o.observe(&view_change(1));
        // The successor reissues a lower timestamp — the exact breach
        // the skip-the-flush bug produces.
        o.observe(&issue(1, 1, 10_500_000, 10.0, 12.0));
        let report = o.finish();
        let v = report.first().expect("violation");
        assert_eq!(v.theorem, TheoremId::ClusterMonotonic);
        assert_eq!(v.seed, 42);
        assert_eq!(v.event, 1);
        assert_eq!(v.server, 1);
        assert!(v.detail.contains("view 1"), "{}", v.detail);
    }

    #[test]
    fn equal_timestamps_are_a_regression() {
        let mut o = ClusterOracle::new(0);
        o.observe(&issue(0, 0, 10_000_000, 9.0, 11.0));
        o.observe(&issue(0, 0, 10_000_000, 9.0, 11.0));
        assert!(!o.finish().is_clean());
    }

    #[test]
    fn timestamp_outside_intersection_is_flagged() {
        let mut o = ClusterOracle::new(5);
        // 13 s ticks against an intersection ending at 12 s.
        o.observe(&issue(0, 0, 13_000_000, 10.0, 12.0));
        let report = o.finish();
        let v = report.first().expect("violation");
        assert_eq!(v.theorem, TheoremId::ClusterBounded);
        assert!(v.detail.contains("outside"), "{}", v.detail);
        // Below the lower edge fires too.
        let mut o = ClusterOracle::new(5);
        o.observe(&issue(0, 0, 9_000_000, 10.0, 12.0));
        assert!(!o.finish().is_clean());
    }

    #[test]
    fn truncation_tolerance_is_honoured() {
        let mut o = ClusterOracle::new(0);
        // Exactly the floor of the upper edge: inside with tolerance.
        o.observe(&issue(0, 0, 11_999_999, 10.0, 12.0));
        assert!(o.finish().is_clean());
    }

    #[test]
    fn violation_overflow_is_counted_not_stored() {
        let mut o = ClusterOracle::new(0);
        o.observe(&issue(0, 0, u64::MAX, 0.0, f64::MAX));
        for _ in 0..(MAX_STORED_VIOLATIONS + 10) {
            o.observe(&issue(0, 0, 1, 0.0, 10.0));
        }
        let report = o.finish();
        assert_eq!(report.violations.len(), MAX_STORED_VIOLATIONS);
        assert!(report.total_violations > MAX_STORED_VIOLATIONS);
        let text = report.to_string();
        assert!(text.contains("more"), "{text}");
    }

    #[test]
    fn a_bus_delivers_issues_and_view_changes_and_builds_no_other() {
        let bus = Bus::new();
        let oracle = Rc::new(RefCell::new(ClusterOracle::new(0)));
        bus.subscribe(Rc::clone(&oracle));
        for kind in EventKind::ALL {
            let checked = matches!(kind, EventKind::TsIssued | EventKind::ViewChange);
            assert_eq!(bus.enabled(kind), checked, "{kind:?}");
        }
        bus.emit(issue(0, 0, 10_000_000, 9.9, 10.2));
        bus.emit(view_change(1));
        // A kind the oracle does not check never reaches the mask, so
        // the bus does not even build it for `observe`.
        assert!(!bus.enabled(EventKind::LeaseGranted));
        bus.emit_with(EventKind::LeaseGranted, || {
            unreachable!("a lease_granted was built")
        });
        drop(bus);
        let report = Rc::try_unwrap(oracle)
            .expect("the bus held the only other handle")
            .into_inner()
            .finish();
        assert!(report.is_clean(), "{report}");
        assert_eq!((report.issues_checked, report.view_changes), (1, 1));
        assert_eq!(report.highest_view, 1);
    }

    #[test]
    fn events_route_by_the_replica_they_come_from() {
        assert_eq!(ClusterOracle::replica(&issue(2, 0, 1, 0.0, 1.0)), Some(2));
        assert_eq!(ClusterOracle::replica(&view_change(3)), Some(1));
        let expiry = TelemetryEvent::LeaseExpired {
            at: ts(0.0),
            server: 4,
            view: 0,
        };
        assert_eq!(ClusterOracle::replica(&expiry), None);
    }
}
