//! Deployment configuration for a cluster-time replica.
//!
//! This is the only file that knows what a [`ClusterFault`] *does*: the
//! replica is honest and reaches the adversary through three seams —
//! [`ClusterConfig::acked_high_water`] on every ack it sends,
//! [`ClusterConfig::reported_estimate`] on a lease ack, and
//! [`ClusterConfig::skips_hw_flush`] before a release.

use tempo_core::{Duration, TimeEstimate};
use tempo_net::NodeId;

/// A cluster-level fault or injected bug carried by one replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusterFault {
    /// Byzantine: this backup shifts the interval reading it reports in
    /// lease acks by `shift` — a lie the primary's `f`-tolerant
    /// intersection must absorb (or, beyond budget, that widens the
    /// intersection it poisons).
    LieEstimate {
        /// Signed shift applied to the reported clock reading.
        shift: Duration,
    },
    /// Byzantine: this backup reports `high_water = 0` in every ack
    /// (lease, view-change, and hw acks), trying to trick a new primary
    /// into reissuing old timestamps. Quorum sizing (`⌈(n+f+1)/2⌉`)
    /// defeats it: any election quorum intersects any release quorum in
    /// more than `f` replicas, so an honest mark always survives.
    UnderstateHw,
    /// **Injected bug, not a fault model**: the primary releases
    /// timestamps *without* persisting or replicating the high-water
    /// mark first. Monotonicity then silently depends on the primary
    /// never crashing — exactly the regression the `ClusterMonotonic`
    /// oracle and the fuzzer's self-test exist to catch.
    SkipHwFlush,
}

/// Static configuration of one [`crate::ClusterReplica`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Every replica of this cluster, in index order (index `i` is the
    /// primary of views `v ≡ i mod n`). Must include this replica.
    pub replicas: Vec<NodeId>,
    /// This replica's index in [`ClusterConfig::replicas`].
    pub index: usize,
    /// Replicas that may be faulty (crash or lie) at once. Sizes the
    /// quorum and parameterises the tolerant intersection.
    pub max_faulty: usize,
    /// How long a granted lease lasts without a successful renewal.
    pub lease_duration: Duration,
    /// How often the primary sends renewal heartbeats.
    pub renew_period: Duration,
    /// Renewal silence after which a backup starts an election
    /// (staggered by succession rank so backups don't collide).
    pub election_timeout: Duration,
    /// Per-request timeout: how long a pending issue may wait for its
    /// replication quorum before being refused, and the base of the
    /// election retry's exponential backoff.
    pub request_timeout: Duration,
    /// The housekeeping timer period (renewals, expiry checks, pending
    /// sweeps, election checks all run on this cadence).
    pub tick: Duration,
    /// Widening applied to collected backup readings to cover their
    /// transit time (the ξ of the cluster layer).
    pub rtt_slack: Duration,
    /// If `true`, an inner-server restart also wipes the *cluster*
    /// store (modelling a lost disk): the replica comes back with no
    /// memory of its view or high-water mark and must catch up from a
    /// quorum.
    pub amnesia: bool,
    /// Fault injected at this replica, if any.
    pub fault: Option<ClusterFault>,
}

impl ClusterConfig {
    /// A configuration with defaults tuned for the simulator's
    /// second-scale experiments.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or the quorum cannot be
    /// satisfied by the honest majority (`n − f < ⌈(n+f+1)/2⌉`).
    #[must_use]
    pub fn new(replicas: Vec<NodeId>, index: usize) -> Self {
        let config = ClusterConfig {
            replicas,
            index,
            max_faulty: 0,
            lease_duration: Duration::from_secs(1.5),
            renew_period: Duration::from_secs(0.5),
            election_timeout: Duration::from_secs(2.0),
            request_timeout: Duration::from_secs(1.0),
            tick: Duration::from_secs(0.1),
            rtt_slack: Duration::from_millis(20.0),
            amnesia: false,
            fault: None,
        };
        config.validate();
        config
    }

    /// Sets the fault budget `f`.
    #[must_use]
    pub fn max_faulty(mut self, f: usize) -> Self {
        self.max_faulty = f;
        self.validate();
        self
    }

    /// Sets the lease duration.
    #[must_use]
    pub fn lease_duration(mut self, d: Duration) -> Self {
        self.lease_duration = d;
        self
    }

    /// Sets the renewal period.
    #[must_use]
    pub fn renew_period(mut self, d: Duration) -> Self {
        self.renew_period = d;
        self
    }

    /// Sets the election timeout.
    #[must_use]
    pub fn election_timeout(mut self, d: Duration) -> Self {
        self.election_timeout = d;
        self
    }

    /// Sets the per-request timeout.
    #[must_use]
    pub fn request_timeout(mut self, d: Duration) -> Self {
        self.request_timeout = d;
        self
    }

    /// Sets the housekeeping tick.
    #[must_use]
    pub fn tick(mut self, d: Duration) -> Self {
        self.tick = d;
        self
    }

    /// Sets the transit-slack widening.
    #[must_use]
    pub fn rtt_slack(mut self, d: Duration) -> Self {
        self.rtt_slack = d;
        self
    }

    /// Marks restarts of this replica as amnesiac (cluster store wiped).
    #[must_use]
    pub fn amnesia(mut self, yes: bool) -> Self {
        self.amnesia = yes;
        self
    }

    /// Injects a cluster fault at this replica.
    #[must_use]
    pub fn fault(mut self, fault: ClusterFault) -> Self {
        self.fault = Some(fault);
        self
    }

    /// The number of replicas.
    #[must_use]
    pub fn n(&self) -> usize {
        self.replicas.len()
    }

    /// The quorum size `⌈(n+f+1)/2⌉`: any two quorums intersect in at
    /// least `f + 1` replicas, so no `f` liars can hide an
    /// acknowledged high-water mark from a later election.
    #[must_use]
    pub fn quorum(&self) -> usize {
        (self.n() + self.max_faulty) / 2 + 1
    }

    /// The primary index of view `v`.
    #[must_use]
    pub fn primary_of(&self, view: u64) -> usize {
        (view % self.n() as u64) as usize
    }

    /// This replica's succession rank behind the primary of `view` —
    /// 0 for the next in line. Election timers are staggered by rank so
    /// the heir apparent usually wins uncontested.
    #[must_use]
    pub fn rank_behind(&self, view: u64) -> usize {
        let n = self.n();
        let heir = (self.primary_of(view) + 1) % n;
        (self.index + n - heir) % n
    }

    /// Every *other* replica with its index, in index order — the one
    /// loop behind every broadcast, so each send keeps its place in the
    /// event stream.
    pub(crate) fn peers(&self) -> impl Iterator<Item = (usize, NodeId)> + '_ {
        self.replicas
            .iter()
            .copied()
            .enumerate()
            .filter(move |&(idx, _)| idx != self.index)
    }

    /// The high-water mark this replica reports in an ack (lease,
    /// view-change and hw acks alike) when it holds `honest`.
    pub(crate) fn acked_high_water(&self, honest: u64) -> u64 {
        if self.fault == Some(ClusterFault::UnderstateHw) {
            0
        } else {
            honest
        }
    }

    /// The clock reading this replica reports in a lease ack.
    pub(crate) fn reported_estimate(&self, honest: TimeEstimate) -> TimeEstimate {
        match self.fault {
            Some(ClusterFault::LieEstimate { shift }) => {
                TimeEstimate::new(honest.time() + shift, honest.error())
            }
            _ => honest,
        }
    }

    /// Whether the primary releases a timestamp with its mark neither
    /// persisted nor replicated — the planted bug.
    pub(crate) fn skips_hw_flush(&self) -> bool {
        self.fault == Some(ClusterFault::SkipHwFlush)
    }

    fn validate(&self) {
        assert!(
            self.index < self.replicas.len(),
            "replica index {} out of range for {} replicas",
            self.index,
            self.replicas.len()
        );
        assert!(
            self.n() - self.max_faulty >= self.quorum(),
            "quorum {} unreachable with {} of {} replicas possibly faulty",
            self.quorum(),
            self.max_faulty,
            self.n()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    #[test]
    fn quorum_sizing() {
        assert_eq!(ClusterConfig::new(ids(5), 0).quorum(), 3);
        assert_eq!(ClusterConfig::new(ids(5), 0).max_faulty(1).quorum(), 4);
        assert_eq!(ClusterConfig::new(ids(3), 0).quorum(), 2);
        assert_eq!(ClusterConfig::new(ids(1), 0).quorum(), 1);
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn overdrawn_fault_budget_is_rejected() {
        let _ = ClusterConfig::new(ids(3), 0).max_faulty(1);
    }

    #[test]
    fn primary_rotation_and_rank() {
        let c = ClusterConfig::new(ids(5), 2);
        assert_eq!(c.primary_of(0), 0);
        assert_eq!(c.primary_of(7), 2);
        // After view 0's primary (index 0), index 1 is heir (rank 0),
        // index 2 is rank 1.
        assert_eq!(c.rank_behind(0), 1);
        let heir = ClusterConfig::new(ids(5), 1);
        assert_eq!(heir.rank_behind(0), 0);
    }
}
