//! The experiment catalogue behind the `experiments` binary.

use std::fmt::Display;

/// One runnable experiment.
pub struct Experiment {
    /// Command-line name.
    pub name: &'static str,
    /// The paper artifact it regenerates.
    pub artifact: &'static str,
    /// Runs the experiment and returns its printable report.
    pub run: fn() -> Box<dyn Display>,
}

/// Every experiment, in DESIGN.md index order.
#[must_use]
pub fn all() -> Vec<Experiment> {
    use tempo_sim::experiments as ex;
    vec![
        Experiment {
            name: "fig1",
            artifact: "Figure 1 — growth of maximum errors",
            run: || Box::new(ex::figure1()),
        },
        Experiment {
            name: "fig2",
            artifact: "Figure 2 — intersections of maximum errors (+ Theorem 6)",
            run: || Box::new(ex::figure2()),
        },
        Experiment {
            name: "fig3",
            artifact: "Figure 3 — consistent state where MM recovers, IM does not",
            run: || Box::new(ex::figure3()),
        },
        Experiment {
            name: "fig4",
            artifact: "Figure 4 — inconsistent six-server service",
            run: || Box::new(ex::figure4()),
        },
        Experiment {
            name: "thm2",
            artifact: "Theorems 2 & 3 — MM error-gap and asynchronism bounds",
            run: || Box::new(ex::mm_bounds()),
        },
        Experiment {
            name: "thm4",
            artifact: "Theorem 4 — convergence to the most accurate clock",
            run: || Box::new(ex::convergence()),
        },
        Experiment {
            name: "thm7",
            artifact: "Theorem 7 — IM asynchronism bound",
            run: || Box::new(ex::im_bounds()),
        },
        Experiment {
            name: "thm8",
            artifact: "Theorem 8 — E(e) → e0 as n grows",
            run: || Box::new(ex::thm8_error_vs_n(&[2, 4, 8, 16, 32, 64, 128], 200)),
        },
        Experiment {
            name: "recovery",
            artifact: "§3 anecdote — invalid drift bound, third-server recovery",
            run: || Box::new(ex::recovery()),
        },
        Experiment {
            name: "tenx",
            artifact: "§4 anecdote — IM error grows ~10x slower than MM",
            run: || Box::new(ex::ten_x()),
        },
        Experiment {
            name: "consonance",
            artifact: "§5 — consonance diagnoses the invalid drift bound",
            run: || Box::new(ex::consonance()),
        },
        Experiment {
            name: "ablation-marzullo",
            artifact: "A1 — plain ∩ vs Marzullo(f) vs NTP select under faults",
            run: || Box::new(ex::marzullo_ablation()),
        },
        Experiment {
            name: "ablation-baselines",
            artifact: "A2 — MM/IM/Marzullo vs max/median/mean",
            run: || Box::new(ex::strategy_comparison()),
        },
        Experiment {
            name: "ablation-mindelay",
            artifact: "A3 — nonzero minimum message delay",
            run: || Box::new(ex::min_delay_ablation()),
        },
        Experiment {
            name: "ablation-screening",
            artifact: "A4 — §5 rate screening vs the §4 subtle-drift attacker",
            run: || Box::new(ex::screening_ablation()),
        },
        Experiment {
            name: "churn",
            artifact: "E13 — §1.1 membership churn (join/leave)",
            run: || {
                struct Both(Vec<ex::Churn>);
                impl std::fmt::Display for Both {
                    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                        for c in &self.0 {
                            write!(f, "{c}")?;
                        }
                        Ok(())
                    }
                }
                Box::new(Both(ex::churn()))
            },
        },
        Experiment {
            name: "scale",
            artifact: "E14 — scaling with service size and topology",
            run: || Box::new(ex::scale()),
        },
        Experiment {
            name: "loss",
            artifact: "E15 — message-loss robustness",
            run: || Box::new(ex::loss_sweep()),
        },
        Experiment {
            name: "chaos",
            artifact: "E16 — loss + partition + crashed + lying servers at once",
            run: || Box::new(ex::chaos()),
        },
        Experiment {
            name: "fuzz",
            artifact: "E17 — oracle-gated scenario fuzzer (Theorems 1–7 online)",
            run: || Box::new(ex::fuzz_smoke()),
        },
        Experiment {
            name: "restart",
            artifact: "E18 — crash–restart lifecycle: durable vs amnesia, restart storms",
            run: || Box::new(ex::restart()),
        },
        Experiment {
            name: "byzantine",
            artifact: "E19 — Byzantine tiers + self-stabilization, f-tolerance oracle",
            run: || Box::new(ex::byzantine()),
        },
        Experiment {
            name: "scale10k",
            artifact: "E20 — 10,000-server deployments on the sharded engine",
            run: || Box::new(ex::scale10k()),
        },
        Experiment {
            name: "cluster",
            artifact: "E21 — ClusterTime failover storms: crash storms, partitions, \
                       Byzantine acks, quorum loss",
            run: || Box::new(ex::cluster()),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_complete_and_unique() {
        let experiments = all();
        assert_eq!(experiments.len(), 24);
        let mut names: Vec<&str> = experiments.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 24, "names must be unique");
    }

    #[test]
    fn fast_experiments_render() {
        for e in all() {
            if ["fig1", "fig2", "fig3", "fig4", "consonance"].contains(&e.name) {
                let report = (e.run)().to_string();
                assert!(!report.is_empty(), "{} produced no report", e.name);
            }
        }
    }
}
