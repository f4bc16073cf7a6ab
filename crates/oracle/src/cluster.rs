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

use tempo_core::Timestamp;

use crate::{rules, write_violations, Findings, TheoremId, Violation};

/// One released cluster timestamp, as reported by telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IssueObservation {
    /// The replica that released it.
    pub server: usize,
    /// The view it was issued under.
    pub view: u64,
    /// The cluster timestamp, in microsecond ticks.
    pub timestamp: u64,
    /// Lower edge of the quorum intersection backing the issue.
    pub lo: Timestamp,
    /// Upper edge of the quorum intersection backing the issue.
    pub hi: Timestamp,
}

/// The ClusterTime checker. Feed it released timestamps (in release
/// order) and view changes, then [`finish`](ClusterOracle::finish).
#[derive(Debug)]
pub struct ClusterOracle {
    /// The last released timestamp.
    last: Option<IssueObservation>,
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

    /// Checks one released timestamp. Call in release order (the order
    /// `TsIssued` telemetry events were emitted).
    pub fn observe_issue(&mut self, obs: &IssueObservation) {
        let event = self.issues_checked;
        self.issues_checked += 1;
        let monotonic = rules::cluster_monotonic(self.last.as_ref(), obs);
        self.findings
            .flag(event, obs.server, TheoremId::ClusterMonotonic, monotonic);
        self.last = Some(*obs);
        let bounded = rules::cluster_bounded(obs);
        self.findings
            .flag(event, obs.server, TheoremId::ClusterBounded, bounded);
    }

    /// Records a view change (context for violation messages and the
    /// report's failover count).
    pub fn observe_view_change(&mut self, view: u64) {
        self.view_changes += 1;
        self.highest_view = self.highest_view.max(view);
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

/// The structured outcome of a ClusterTime-checked run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// The first [`MAX_STORED_VIOLATIONS`](crate::MAX_STORED_VIOLATIONS)
    /// violations, in release order.
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
    use super::*;
    use crate::MAX_STORED_VIOLATIONS;

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn issue(server: usize, view: u64, timestamp: u64, lo: f64, hi: f64) -> IssueObservation {
        IssueObservation {
            server,
            view,
            timestamp,
            lo: ts(lo),
            hi: ts(hi),
        }
    }

    #[test]
    fn clean_monotonic_stream_is_clean() {
        let mut o = ClusterOracle::new(7);
        o.observe_issue(&issue(0, 0, 10_000_000, 9.9, 10.2));
        o.observe_issue(&issue(0, 0, 10_050_000, 9.95, 10.25));
        o.observe_view_change(1);
        o.observe_issue(&issue(1, 1, 10_500_000, 10.4, 10.7));
        let report = o.finish();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.issues_checked, 3);
        assert_eq!(report.view_changes, 1);
        assert_eq!(report.highest_view, 1);
    }

    #[test]
    fn regression_across_failover_is_flagged() {
        let mut o = ClusterOracle::new(42);
        o.observe_issue(&issue(0, 0, 11_000_000, 10.0, 12.0));
        o.observe_view_change(1);
        // The successor reissues a lower timestamp — the exact breach
        // the skip-the-flush bug produces.
        o.observe_issue(&issue(1, 1, 10_500_000, 10.0, 12.0));
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
        o.observe_issue(&issue(0, 0, 10_000_000, 9.0, 11.0));
        o.observe_issue(&issue(0, 0, 10_000_000, 9.0, 11.0));
        assert!(!o.finish().is_clean());
    }

    #[test]
    fn timestamp_outside_intersection_is_flagged() {
        let mut o = ClusterOracle::new(5);
        // 13 s ticks against an intersection ending at 12 s.
        o.observe_issue(&issue(0, 0, 13_000_000, 10.0, 12.0));
        let report = o.finish();
        let v = report.first().expect("violation");
        assert_eq!(v.theorem, TheoremId::ClusterBounded);
        assert!(v.detail.contains("outside"), "{}", v.detail);
        // Below the lower edge fires too.
        let mut o = ClusterOracle::new(5);
        o.observe_issue(&issue(0, 0, 9_000_000, 10.0, 12.0));
        assert!(!o.finish().is_clean());
    }

    #[test]
    fn truncation_tolerance_is_honoured() {
        let mut o = ClusterOracle::new(0);
        // Exactly the floor of the upper edge: inside with tolerance.
        o.observe_issue(&issue(0, 0, 11_999_999, 10.0, 12.0));
        assert!(o.finish().is_clean());
    }

    #[test]
    fn violation_overflow_is_counted_not_stored() {
        let mut o = ClusterOracle::new(0);
        o.observe_issue(&issue(0, 0, u64::MAX, 0.0, f64::MAX));
        for _ in 0..(MAX_STORED_VIOLATIONS + 10) {
            o.observe_issue(&issue(0, 0, 1, 0.0, 10.0));
        }
        let report = o.finish();
        assert_eq!(report.violations.len(), MAX_STORED_VIOLATIONS);
        assert!(report.total_violations > MAX_STORED_VIOLATIONS);
        let text = report.to_string();
        assert!(text.contains("more"), "{text}");
    }
}
