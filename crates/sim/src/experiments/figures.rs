//! Reproductions of the paper's Figures 1–4 (experiments E1–E4).

use std::fmt;

use tempo_clocks::{DriftModel, SimClock};
use tempo_core::consistency::{consistency_groups, ConsistencyGroup};
use tempo_core::{DriftRate, Duration, ErrorState, TimeEstimate, TimeInterval, Timestamp};

use super::Verdict;
use crate::report::{secs, Table};

/// One server's interval at one instant of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig1Cell {
    /// Trailing edge `C − E` minus true time.
    pub trailing: f64,
    /// Clock offset `C − t`.
    pub center: f64,
    /// Leading edge `C + E` minus true time.
    pub leading: f64,
}

/// Experiment E1 — Figure 1, *Growth of Maximum Errors*.
///
/// Three initially correct servers free-run (no synchronization); their
/// intervals grow (at the claimed rate `δ`) and shift (at the actual
/// drift) relative to true time, which stays inside every interval.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// Sampling instants (seconds).
    pub times: Vec<f64>,
    /// `cells[k][i]` is server `i` at `times[k]`, relative to true time.
    pub cells: Vec<Vec<Fig1Cell>>,
    /// The actual drifts used.
    pub drifts: Vec<f64>,
    /// The claimed bound.
    pub claimed: f64,
}

/// Runs E1.
#[must_use]
pub fn figure1() -> Fig1 {
    // Exaggerated drifts so the shift is visible at the 100 s scale, as
    // in the paper's schematic; the claimed bound covers all of them.
    let drifts = vec![2.0e-3, -1.5e-3, 0.5e-3];
    let claimed = 3.0e-3;
    let e0 = Duration::from_secs(0.25);
    let times = vec![0.0, 50.0, 100.0];

    let mut clocks: Vec<SimClock> = drifts
        .iter()
        .map(|&d| SimClock::builder().drift(DriftModel::Constant(d)).build())
        .collect();
    let states: Vec<ErrorState> = clocks
        .iter_mut()
        .map(|c| ErrorState::new(c.read(Timestamp::ZERO), e0, DriftRate::new(claimed)))
        .collect();

    let mut cells = Vec::new();
    for &t in &times {
        let now = Timestamp::from_secs(t);
        let mut row = Vec::new();
        for (clock, state) in clocks.iter_mut().zip(&states) {
            let estimate = state.estimate_at(clock.read(now));
            let iv = estimate.interval();
            row.push(Fig1Cell {
                trailing: (iv.lo() - now).as_secs(),
                center: (estimate.time() - now).as_secs(),
                leading: (iv.hi() - now).as_secs(),
            });
        }
        cells.push(row);
    }
    Fig1 {
        times,
        cells,
        drifts,
        claimed,
    }
}

impl Verdict for Fig1 {
    /// True time is inside every interval at every instant (the figure
    /// shows all three servers correct).
    fn reproduces_shape(&self) -> bool {
        self.cells
            .iter()
            .all(|row| row.iter().all(|c| c.trailing <= 0.0 && 0.0 <= c.leading))
    }
}

impl fmt::Display for Fig1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 1 — growth of maximum errors (offsets relative to true time)"
        )?;
        let mut table = Table::new(vec!["t", "server", "drift", "C-E", "C", "C+E"]);
        for (k, &t) in self.times.iter().enumerate() {
            for (i, cell) in self.cells[k].iter().enumerate() {
                table.row(vec![
                    format!("{t:.0}s"),
                    format!("S{}", i + 1),
                    format!("{:+.1e}", self.drifts[i]),
                    secs(cell.trailing),
                    secs(cell.center),
                    secs(cell.leading),
                ]);
            }
        }
        write!(f, "{table}")?;
        // The figure itself: one bar per server per instant, on a shared
        // offset axis; `|` marks true time, `*` the clock value.
        let span = self
            .cells
            .iter()
            .flatten()
            .fold(0.0f64, |m, c| m.max(c.leading.abs()).max(c.trailing.abs()));
        let width = 61usize; // odd, so true time has a centre column
        let col = |x: f64| -> usize {
            let frac = (x / span).clamp(-1.0, 1.0);
            ((frac + 1.0) / 2.0 * (width - 1) as f64).round() as usize
        };
        for (k, &t) in self.times.iter().enumerate() {
            writeln!(f, "t = {t:>3.0}s")?;
            for (i, cell) in self.cells[k].iter().enumerate() {
                let mut row = vec![b' '; width];
                for c in row
                    .iter_mut()
                    .take(col(cell.leading) + 1)
                    .skip(col(cell.trailing))
                {
                    *c = b'-';
                }
                row[col(cell.trailing)] = b'[';
                row[col(cell.leading)] = b']';
                row[col(cell.center)] = b'*';
                row[width / 2] = b'|';
                writeln!(
                    f,
                    "  S{} {}",
                    i + 1,
                    String::from_utf8(row).expect("ascii row")
                )?;
            }
        }
        Ok(())
    }
}

/// One of Figure 2's two intersection cases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig2Case {
    /// The two input intervals.
    pub inputs: [TimeInterval; 2],
    /// Their intersection.
    pub intersection: TimeInterval,
    /// Whether both edges of the intersection come from the same input
    /// (the subset case, which reduces to algorithm MM).
    pub single_source: bool,
}

/// Experiment E2 — Figure 2, *Intersections of Maximum Errors*, plus the
/// Theorem 6 check.
#[derive(Debug, Clone, Copy)]
pub struct Fig2 {
    /// Left side: one interval inside the other.
    pub subset_case: Fig2Case,
    /// Right side: offset intervals, intersection narrower than both.
    pub offset_case: Fig2Case,
}

/// Runs E2.
#[must_use]
pub fn figure2() -> Fig2 {
    let ts = Timestamp::from_secs;
    let subset = [
        TimeInterval::new(ts(0.0), ts(10.0)),
        TimeInterval::new(ts(4.0), ts(6.0)),
    ];
    let offset = [
        TimeInterval::new(ts(0.0), ts(6.0)),
        TimeInterval::new(ts(4.0), ts(9.0)),
    ];
    let make_case = |inputs: [TimeInterval; 2]| {
        let intersection = inputs[0].intersect(&inputs[1]).expect("cases overlap");
        let single_source = inputs
            .iter()
            .any(|iv| iv.lo() == intersection.lo() && iv.hi() == intersection.hi());
        Fig2Case {
            inputs,
            intersection,
            single_source,
        }
    };
    Fig2 {
        subset_case: make_case(subset),
        offset_case: make_case(offset),
    }
}

impl Verdict for Fig2 {
    /// Theorem 6: each intersection is at most as wide as the narrowest
    /// input.
    fn reproduces_shape(&self) -> bool {
        [self.subset_case, self.offset_case].iter().all(|case| {
            let narrowest = case.inputs[0].width().min(case.inputs[1].width());
            case.intersection.width() <= narrowest
        })
    }
}

impl fmt::Display for Fig2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 2 — intersections of maximum errors")?;
        for (name, case) in [
            ("subset (reduces to MM)", &self.subset_case),
            ("offset (narrower than both)", &self.offset_case),
        ] {
            writeln!(
                f,
                "  {name}: {} ∩ {} = {} (single-source: {})",
                case.inputs[0], case.inputs[1], case.intersection, case.single_source
            )?;
        }
        Ok(())
    }
}

/// Experiment E3 — Figure 3: a consistent-but-partially-incorrect state
/// where MM recovers correctness and IM does not.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// The true time of the scenario.
    pub true_time: Timestamp,
    /// The three server estimates (S2 is incorrect).
    pub servers: Vec<TimeEstimate>,
    /// Index of the server a client using MM (smallest error) selects.
    pub mm_choice: usize,
    /// Whether the MM choice is correct.
    pub mm_correct: bool,
    /// The interval IM derives (the intersection of all three).
    pub im_interval: TimeInterval,
    /// Whether the IM interval contains true time.
    pub im_correct: bool,
}

/// Runs E3.
#[must_use]
pub fn figure3() -> Fig3 {
    let true_time = Timestamp::from_secs(10.0);
    // S1 and S3 are correct; S2 is consistent with both yet incorrect
    // (its interval misses the dashed line).
    let servers = vec![
        TimeEstimate::new(Timestamp::from_secs(10.5), Duration::from_secs(1.0)), // S1 [9.5, 11.5]
        TimeEstimate::new(Timestamp::from_secs(8.0), Duration::from_secs(1.5)),  // S2 [6.5, 9.5]
        TimeEstimate::new(Timestamp::from_secs(9.8), Duration::from_secs(0.5)),  // S3 [9.3, 10.3]
    ];
    let mm_choice = servers
        .iter()
        .enumerate()
        .min_by_key(|(_, e)| e.error())
        .map(|(i, _)| i)
        .expect("non-empty");
    let mm_correct = servers[mm_choice].is_correct_at(true_time);
    let intervals: Vec<TimeInterval> = servers.iter().map(|e| e.interval()).collect();
    let im_interval =
        TimeInterval::intersect_all(&intervals).expect("Figure 3's intervals share a point");
    let im_correct = im_interval.contains(true_time);
    Fig3 {
        true_time,
        servers,
        mm_choice,
        mm_correct,
        im_interval,
        im_correct,
    }
}

impl Verdict for Fig3 {
    /// The figure's conclusion: MM's choice is correct, IM's derived
    /// interval is not.
    fn reproduces_shape(&self) -> bool {
        self.mm_correct && !self.im_correct
    }
}

impl fmt::Display for Fig3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 3 — a consistent state where MM recovers and IM does not (true time {})",
            self.true_time
        )?;
        for (i, e) in self.servers.iter().enumerate() {
            writeln!(
                f,
                "  S{}: {} — correct: {}",
                i + 1,
                e.interval(),
                e.is_correct_at(self.true_time)
            )?;
        }
        writeln!(
            f,
            "  MM selects S{} (smallest error): correct = {}",
            self.mm_choice + 1,
            self.mm_correct
        )?;
        writeln!(
            f,
            "  IM derives {}: correct = {}",
            self.im_interval, self.im_correct
        )
    }
}

/// Experiment E4 — Figure 4: an inconsistent six-server service and its
/// consistency groups.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// The six server intervals.
    pub intervals: Vec<TimeInterval>,
    /// The maximal consistency groups (the figure's shaded areas).
    pub groups: Vec<ConsistencyGroup>,
}

/// Runs E4.
#[must_use]
pub fn figure4() -> Fig4 {
    let iv =
        |lo: f64, hi: f64| TimeInterval::new(Timestamp::from_secs(lo), Timestamp::from_secs(hi));
    // Six servers, three overlapping consistency groups, no common point
    // — the shape of the paper's Figure 4.
    let intervals = vec![
        iv(0.0, 3.0),
        iv(2.0, 5.0),
        iv(4.0, 7.0),
        iv(6.0, 9.0),
        iv(0.5, 2.5),
        iv(6.5, 8.0),
    ];
    let groups = consistency_groups(&intervals);
    Fig4 { intervals, groups }
}

impl Fig4 {
    /// The service as a whole is inconsistent (no common point).
    #[must_use]
    pub fn service_inconsistent(&self) -> bool {
        TimeInterval::intersect_all(&self.intervals).is_none()
    }
}

impl Verdict for Fig4 {
    /// Group detection finds the figure's three shaded groups.
    fn reproduces_shape(&self) -> bool {
        self.groups.len() == 3
    }
}

impl fmt::Display for Fig4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 4 — an inconsistent six-server time service")?;
        for (i, iv) in self.intervals.iter().enumerate() {
            writeln!(f, "  S{}: {}", i + 1, iv)?;
        }
        writeln!(
            f,
            "service-wide intersection empty: {}",
            self.service_inconsistent()
        )?;
        writeln!(f, "consistency groups ({}):", self.groups.len())?;
        for g in &self.groups {
            let members: Vec<String> = g.members.iter().map(|m| format!("S{}", m + 1)).collect();
            writeln!(f, "  {{{}}} ∩ = {}", members.join(", "), g.intersection)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_intervals_grow_and_stay_correct() {
        let fig = figure1();
        assert!(fig.reproduces_shape());
        // Widths grow with time.
        for i in 0..3 {
            let w0 = fig.cells[0][i].leading - fig.cells[0][i].trailing;
            let w2 = fig.cells[2][i].leading - fig.cells[2][i].trailing;
            assert!(w2 > w0, "server {i}: width must grow ({w0} → {w2})");
        }
        // Centers shift in the direction of the actual drift.
        assert!(fig.cells[2][0].center > 0.0);
        assert!(fig.cells[2][1].center < 0.0);
        assert!(!fig.to_string().is_empty());
    }

    #[test]
    fn fig2_cases_have_expected_shape() {
        let fig = figure2();
        assert!(fig.subset_case.single_source);
        assert!(!fig.offset_case.single_source);
        assert!(fig.reproduces_shape());
        // Offset case is strictly narrower than both inputs.
        let c = fig.offset_case;
        assert!(c.intersection.width() < c.inputs[0].width());
        assert!(c.intersection.width() < c.inputs[1].width());
        assert!(fig.to_string().contains("single-source"));
    }

    #[test]
    fn fig3_mm_recovers_im_does_not() {
        let fig = figure3();
        // The premises of the figure hold:
        assert!(fig.servers[0].is_correct_at(fig.true_time));
        assert!(!fig.servers[1].is_correct_at(fig.true_time));
        assert!(fig.servers[2].is_correct_at(fig.true_time));
        assert!(fig.servers[1].is_consistent_with(&fig.servers[2]));
        // The paper's conclusion:
        assert_eq!(fig.mm_choice, 2); // S3 has the smallest error
        assert!(fig.mm_correct);
        assert!(!fig.im_correct);
        assert!(fig.to_string().contains("IM derives"));
    }

    #[test]
    fn fig4_three_groups_no_common_point() {
        let fig = figure4();
        assert!(fig.service_inconsistent());
        assert_eq!(fig.groups.len(), 3);
        assert_eq!(fig.groups[0].members, vec![0, 1, 4]);
        assert_eq!(fig.groups[1].members, vec![1, 2]);
        assert_eq!(fig.groups[2].members, vec![2, 3, 5]);
        assert!(fig.to_string().contains("consistency groups"));
    }
}
