//! Consistency of a time service (§2.3 and §5).
//!
//! Two servers are *consistent* when their intervals intersect; the
//! service as a whole is consistent when **all** intervals share a common
//! point. Consistency is the only property a running service can check —
//! correctness would require a perfect clock.
//!
//! Crucially, consistency is **not transitive** (the reason the paper
//! dismisses majority voting in §3). An inconsistent service partitions
//! into *consistency groups*: maximal sets of servers whose intervals
//! share a common point. Figure 4 of the paper shows a six-server
//! service with three such groups; [`consistency_groups`] recovers
//! exactly that decomposition.

use std::fmt;

use crate::interval::TimeInterval;
use crate::TimeEstimate;

/// A maximal set of mutually consistent servers (their intervals share a
/// common point), together with that shared intersection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsistencyGroup {
    /// Indices (into the input slice) of the group's members, ascending.
    pub members: Vec<usize>,
    /// The common intersection of the members' intervals.
    pub intersection: TimeInterval,
}

impl fmt::Display for ConsistencyGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{:?}}} ∩ = {}", self.members, self.intersection)
    }
}

/// The pairwise-consistency graph of a set of estimates.
///
/// Nodes are servers; an edge connects `i` and `j` when
/// `|C_i − C_j| ≤ E_i + E_j`. The graph's connected components are the
/// coarsest partition a recovery procedure can distinguish; its
/// [`consistency_groups`] (computed from the same intervals) are the
/// finest.
#[derive(Debug, Clone)]
pub struct ConsistencyGraph {
    n: usize,
    adjacency: Vec<bool>, // row-major n×n
}

impl ConsistencyGraph {
    /// Builds the graph from a set of reported estimates.
    #[must_use]
    pub fn new(estimates: &[TimeEstimate]) -> Self {
        let n = estimates.len();
        let mut adjacency = vec![false; n * n];
        for i in 0..n {
            for j in 0..n {
                adjacency[i * n + j] = estimates[i].is_consistent_with(&estimates[j]);
            }
        }
        ConsistencyGraph { n, adjacency }
    }

    /// Number of servers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the graph has no servers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether servers `i` and `j` are pairwise consistent.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    #[must_use]
    pub fn consistent(&self, i: usize, j: usize) -> bool {
        assert!(i < self.n && j < self.n, "server index out of range");
        self.adjacency[i * self.n + j]
    }

    /// Connected components of the graph, each sorted ascending; the
    /// components themselves are ordered by their smallest member.
    #[must_use]
    pub fn components(&self) -> Vec<Vec<usize>> {
        let mut seen = vec![false; self.n];
        let mut components = Vec::new();
        for start in 0..self.n {
            if seen[start] {
                continue;
            }
            let mut component = Vec::new();
            let mut stack = vec![start];
            seen[start] = true;
            while let Some(i) = stack.pop() {
                component.push(i);
                for (j, seen_j) in seen.iter_mut().enumerate() {
                    if !*seen_j && self.consistent(i, j) {
                        *seen_j = true;
                        stack.push(j);
                    }
                }
            }
            component.sort_unstable();
            components.push(component);
        }
        components
    }
}

/// Whether the whole service is consistent: all intervals share at least
/// one common point (§2.3's definition applied service-wide).
#[must_use]
pub fn service_consistent(intervals: &[TimeInterval]) -> bool {
    TimeInterval::intersect_all(intervals).is_some()
}

/// Decomposes a (possibly inconsistent) service into its consistency
/// groups: every maximal set of intervals with a non-empty common
/// intersection.
///
/// Groups are returned ordered by the lower edge of their intersection.
/// A consistent service yields exactly one group containing every
/// server. Figure 4's six-server service yields three groups.
///
/// ```
/// use tempo_core::{TimeInterval, Timestamp};
/// use tempo_core::consistency::consistency_groups;
///
/// let ts = Timestamp::from_secs;
/// // Two cliques of two servers each, far apart.
/// let intervals = [
///     TimeInterval::new(ts(0.0), ts(2.0)),
///     TimeInterval::new(ts(1.0), ts(3.0)),
///     TimeInterval::new(ts(10.0), ts(12.0)),
///     TimeInterval::new(ts(11.0), ts(13.0)),
/// ];
/// let groups = consistency_groups(&intervals);
/// assert_eq!(groups.len(), 2);
/// assert_eq!(groups[0].members, vec![0, 1]);
/// assert_eq!(groups[1].members, vec![2, 3]);
/// ```
#[must_use]
pub fn consistency_groups(intervals: &[TimeInterval]) -> Vec<ConsistencyGroup> {
    if intervals.is_empty() {
        return Vec::new();
    }

    // Candidate points: every endpoint and the midpoint of every gap
    // between consecutive endpoints. The membership set is constant
    // between endpoints, so these candidates witness every distinct
    // membership set.
    let mut points: Vec<crate::Timestamp> = Vec::with_capacity(intervals.len() * 4);
    let mut endpoints: Vec<crate::Timestamp> =
        intervals.iter().flat_map(|iv| [iv.lo(), iv.hi()]).collect();
    endpoints.sort_unstable();
    endpoints.dedup();
    for pair in endpoints.windows(2) {
        points.push(pair[0]);
        points.push(pair[0].midpoint(pair[1]));
    }
    if let Some(&last) = endpoints.last() {
        points.push(last);
    }

    // Membership set at each candidate point.
    let mut sets: Vec<Vec<usize>> = Vec::new();
    for &p in &points {
        let members: Vec<usize> = intervals
            .iter()
            .enumerate()
            .filter(|(_, iv)| iv.contains(p))
            .map(|(i, _)| i)
            .collect();
        if !members.is_empty() && !sets.contains(&members) {
            sets.push(members);
        }
    }

    // Keep only the maximal sets (not a subset of any other set).
    let is_subset = |a: &[usize], b: &[usize]| a.iter().all(|x| b.contains(x));
    let mut groups: Vec<ConsistencyGroup> = sets
        .iter()
        .filter(|a| !sets.iter().any(|b| b.len() > a.len() && is_subset(a, b)))
        .map(|members| {
            let selected: Vec<TimeInterval> = members.iter().map(|&i| intervals[i]).collect();
            let intersection = TimeInterval::intersect_all(&selected)
                .expect("members share a witness point by construction");
            ConsistencyGroup {
                members: members.clone(),
                intersection,
            }
        })
        .collect();
    groups.sort_by_key(|g| g.intersection.lo());
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{Duration, Timestamp};

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn iv(lo: f64, hi: f64) -> TimeInterval {
        TimeInterval::new(ts(lo), ts(hi))
    }

    fn est(c: f64, e: f64) -> TimeEstimate {
        TimeEstimate::new(ts(c), Duration::from_secs(e))
    }

    #[test]
    fn graph_basic_adjacency() {
        let estimates = [est(0.0, 1.0), est(1.5, 1.0), est(10.0, 1.0)];
        let g = ConsistencyGraph::new(&estimates);
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
        assert!(g.consistent(0, 1));
        assert!(g.consistent(1, 0));
        assert!(!g.consistent(0, 2));
        assert!(g.consistent(2, 2));
    }

    #[test]
    fn graph_empty() {
        let g = ConsistencyGraph::new(&[]);
        assert!(g.is_empty());
        assert!(g.components().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn graph_index_out_of_range() {
        let g = ConsistencyGraph::new(&[est(0.0, 1.0)]);
        let _ = g.consistent(0, 1);
    }

    #[test]
    fn components_partition_the_service() {
        let estimates = [
            est(0.0, 1.0),
            est(1.5, 1.0),  // consistent with 0
            est(10.0, 1.0), // isolated from the first two
            est(11.0, 1.0), // consistent with 2
        ];
        let g = ConsistencyGraph::new(&estimates);
        assert_eq!(g.components(), vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn chain_is_one_component_but_not_all_pairs() {
        // a~b, b~c, but a!~c: one component, yet not all-pairs consistent
        // (the non-transitivity the paper warns about).
        let estimates = [est(0.0, 1.0), est(1.8, 1.0), est(3.6, 1.0)];
        let g = ConsistencyGraph::new(&estimates);
        assert_eq!(g.components(), vec![vec![0, 1, 2]]);
        assert!(g.consistent(0, 1) && g.consistent(1, 2));
        assert!(!g.consistent(0, 2));
    }

    #[test]
    fn service_consistency_requires_common_point() {
        assert!(service_consistent(&[iv(0.0, 2.0), iv(1.0, 3.0)]));
        // Pairwise chain without a common point is NOT a consistent
        // service.
        assert!(!service_consistent(&[
            iv(0.0, 2.0),
            iv(1.5, 3.5),
            iv(3.0, 5.0)
        ]));
        assert!(!service_consistent(&[]));
    }

    #[test]
    fn single_group_when_consistent() {
        let intervals = [iv(0.0, 4.0), iv(1.0, 5.0), iv(2.0, 6.0)];
        let groups = consistency_groups(&intervals);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].members, vec![0, 1, 2]);
        assert_eq!(groups[0].intersection, iv(2.0, 4.0));
    }

    #[test]
    fn figure4_like_six_server_service() {
        // Six servers forming three overlapping consistency groups, in
        // the spirit of the paper's Figure 4: no common point overall,
        // three maximal subsets each with a non-empty intersection.
        let intervals = [
            iv(0.0, 3.0), // S1
            iv(2.0, 5.0), // S2 — overlaps S1 and S3
            iv(4.0, 7.0), // S3 — overlaps S2 and S4
            iv(6.0, 9.0), // S4
            iv(0.5, 2.5), // S5 — strengthens group {S1, S2, S5}
            iv(6.5, 8.0), // S6 — strengthens group {S3?, S4, S6}
        ];
        assert!(!service_consistent(&intervals));
        let groups = consistency_groups(&intervals);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].members, vec![0, 1, 4]); // around t≈2–2.5
        assert_eq!(groups[1].members, vec![1, 2]); // around t≈4–5
        assert_eq!(groups[2].members, vec![2, 3, 5]); // around t≈6.5–7
    }

    #[test]
    fn chain_yields_pairwise_groups() {
        let intervals = [iv(0.0, 2.0), iv(1.5, 3.5), iv(3.0, 5.0)];
        let groups = consistency_groups(&intervals);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].members, vec![0, 1]);
        assert_eq!(groups[1].members, vec![1, 2]);
    }

    #[test]
    fn disjoint_singletons() {
        let intervals = [iv(0.0, 1.0), iv(5.0, 6.0)];
        let groups = consistency_groups(&intervals);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].members, vec![0]);
        assert_eq!(groups[0].intersection, iv(0.0, 1.0));
        assert_eq!(groups[1].members, vec![1]);
    }

    #[test]
    fn empty_input_yields_no_groups() {
        assert!(consistency_groups(&[]).is_empty());
    }

    #[test]
    fn touching_intervals_form_one_group() {
        let intervals = [iv(0.0, 2.0), iv(2.0, 4.0)];
        let groups = consistency_groups(&intervals);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].members, vec![0, 1]);
        assert_eq!(groups[0].intersection, TimeInterval::point(ts(2.0)));
    }

    #[test]
    fn nested_intervals_one_group() {
        let intervals = [iv(0.0, 10.0), iv(2.0, 8.0), iv(4.0, 6.0)];
        let groups = consistency_groups(&intervals);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].members, vec![0, 1, 2]);
        assert_eq!(groups[0].intersection, iv(4.0, 6.0));
    }

    #[test]
    fn group_display() {
        let groups = consistency_groups(&[iv(0.0, 1.0)]);
        assert!(groups[0].to_string().contains('∩'));
    }

    #[test]
    fn groups_agree_with_marzullo_max_coverage() {
        // The biggest consistency group has exactly the coverage the
        // Marzullo sweep reports.
        let intervals = [iv(0.0, 3.0), iv(2.0, 5.0), iv(4.0, 7.0), iv(2.5, 4.5)];
        let groups = consistency_groups(&intervals);
        let best = crate::marzullo::best_intersection(&intervals).unwrap();
        let max_group = groups.iter().map(|g| g.members.len()).max().unwrap();
        assert_eq!(max_group, best.coverage);
    }
}
