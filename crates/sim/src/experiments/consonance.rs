//! Experiment E12 — §5: consonance, the interval machinery applied to
//! clock *rates*.
//!
//! "There is not enough information in the static arrangement of the
//! time server intervals to determine why the system is inconsistent.
//! Instead, the rates of the servers must be examined."

use std::fmt;

use tempo_clocks::{DriftModel, SimClock};
use tempo_core::consonance::{
    are_consonant, find_dissonant, rate_intersection, separation_rate, RateInterval,
    RateObservation,
};
use tempo_core::{DriftRate, Timestamp};

use super::Verdict;
use crate::report::Table;

/// The outcome of the consonance experiment.
#[derive(Debug, Clone)]
pub struct Consonance {
    /// Actual drifts of the clocks.
    pub actual_drifts: Vec<f64>,
    /// Claimed bounds.
    pub claimed: Vec<f64>,
    /// Pairwise consonance matrix (row i, column j).
    pub matrix: Vec<Vec<bool>>,
    /// Indices flagged dissonant (observed rate incompatible with the
    /// claimed bound).
    pub dissonant: Vec<usize>,
    /// The consensus rate interval of the consonant majority.
    pub consensus: Option<RateInterval>,
}

/// Runs E12: three clocks claim "one second per day"; one actually
/// races at ~4 % (the §3 anecdote's clock). Rates are measured pairwise
/// over a baseline, the consonance matrix is formed, and the Marzullo
/// sweep over rate intervals isolates the dissonant server.
#[must_use]
pub fn consonance() -> Consonance {
    let actual_drifts = vec![5.0e-6, -4.0e-6, 0.042];
    // Every clock — including the racer — claims "one second per day".
    let claimed: Vec<DriftRate> = vec![DriftRate::per_day(1.0); 3];

    let mut clocks: Vec<SimClock> = actual_drifts
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            SimClock::builder()
                .drift(DriftModel::Constant(d))
                .seed(i as u64)
                .build()
        })
        .collect();

    // Two paired readings, 1000 s apart.
    let t0 = Timestamp::from_secs(0.0);
    let t1 = Timestamp::from_secs(1_000.0);
    let read_all = |clocks: &mut Vec<SimClock>, t: Timestamp| -> Vec<Timestamp> {
        clocks.iter_mut().map(|c| c.read(t)).collect()
    };
    let r0 = read_all(&mut clocks, t0);
    let r1 = read_all(&mut clocks, t1);

    // Pairwise separation rates and the consonance matrix.
    let n = actual_drifts.len();
    let mut matrix = vec![vec![true; n]; n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let rate = separation_rate((r0[i], r0[j]), (r1[i], r1[j]));
            matrix[i][j] = are_consonant(rate, claimed[i], claimed[j]);
        }
    }

    // Per-clock observed rate against the *reference pair* of mutually
    // consonant clocks (0 and 1 play the role of the trusted majority a
    // real diagnosis would bootstrap from): measure each clock against
    // clock 0, attributing the reference's own claimed bound to the
    // measurement uncertainty.
    let observations: Vec<RateObservation> = (0..n)
        .map(|i| {
            if i == 0 {
                // Clock 0 measured against clock 1.
                let rate = separation_rate((r0[0], r0[1]), (r1[0], r1[1]));
                RateObservation::new(rate, claimed[1].as_f64() + 1e-7)
            } else {
                let rate = separation_rate((r0[i], r0[0]), (r1[i], r1[0]));
                RateObservation::new(rate, claimed[0].as_f64() + 1e-7)
            }
        })
        .collect();
    let dissonant = find_dissonant(&observations, &claimed);

    // The consensus rate interval over observed rates.
    let rate_claims: Vec<RateInterval> = observations.iter().map(|o| o.interval()).collect();
    let consensus = rate_intersection(&rate_claims).map(|(best, _)| best);

    Consonance {
        actual_drifts,
        claimed: claimed.iter().map(|c| c.as_f64()).collect(),
        matrix,
        dissonant,
        consensus,
    }
}

impl Verdict for Consonance {
    /// The racing clock (index 2) — and only it — is identified.
    fn reproduces_shape(&self) -> bool {
        self.dissonant == vec![2]
    }
}

impl fmt::Display for Consonance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "§5 consonance — diagnosing the inconsistent server by rate"
        )?;
        let mut table = Table::new(vec!["clock", "actual drift", "claimed", "consonant with"]);
        for (i, drift) in self.actual_drifts.iter().enumerate() {
            let partners: Vec<String> = self.matrix[i]
                .iter()
                .enumerate()
                .filter(|&(j, &c)| j != i && c)
                .map(|(j, _)| format!("S{}", j + 1))
                .collect();
            table.row(vec![
                format!("S{}", i + 1),
                format!("{drift:+.2e}"),
                format!("{:.2e}", self.claimed[i]),
                if partners.is_empty() {
                    "-".to_string()
                } else {
                    partners.join(",")
                },
            ]);
        }
        write!(f, "{table}")?;
        let names: Vec<String> = self
            .dissonant
            .iter()
            .map(|i| format!("S{}", i + 1))
            .collect();
        writeln!(
            f,
            "dissonant (invalid drift bound): {{{}}}",
            names.join(", ")
        )?;
        if let Some(c) = &self.consensus {
            writeln!(f, "consensus rate interval of the majority: {c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn racer_is_dissonant_with_everyone() {
        let c = consonance();
        assert!(c.reproduces_shape());
        // Matrix: S1 and S2 consonant with each other; S3 with nobody.
        assert!(c.matrix[0][1] && c.matrix[1][0]);
        assert!(!c.matrix[0][2] && !c.matrix[2][0]);
        assert!(!c.matrix[1][2] && !c.matrix[2][1]);
    }

    #[test]
    fn consensus_rate_matches_honest_clocks() {
        let c = consonance();
        let consensus = c.consensus.expect("two honest clocks agree");
        // The honest clocks' relative rates are ~1e-5; the consensus
        // interval must sit far below the racer's 4e-2.
        assert!(consensus.hi() < 1e-3, "consensus {consensus}");
        assert!(consensus.lo() > -1e-3);
    }

    #[test]
    fn display_renders() {
        assert!(consonance().to_string().contains("dissonant"));
    }
}
