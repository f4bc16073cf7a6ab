//! Theorem-level integration tests: every row of the experiment
//! catalogue reproduces the paper's claim, judged exactly as
//! `experiments <row>` judges it, plus the premises and numbers a
//! verdict does not pin.

use tempo::sim::experiments::{self as ex, Verdict, CATALOGUE};

/// Runs catalogue row `name` exactly as `experiments <name>` does and
/// asserts its verdict.
fn judge(name: &str) {
    let row = CATALOGUE
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("no catalogue row '{name}'"));
    let report = (row.run)();
    assert!(report.reproduces_shape(), "{name}:\n{report}");
}

/// One test per catalogue row, in catalogue order: `test: "row"`,
/// optionally followed by a block of further assertions.
/// `every_catalogue_row_is_judged` holds the list to `CATALOGUE`, so a
/// new row cannot go unjudged.
macro_rules! judged_rows {
    ($($test:ident: $row:literal $(=> $extra:block)?,)*) => {
        $(
            #[test]
            fn $test() {
                judge($row);
                $($extra)?
            }
        )*

        #[test]
        fn every_catalogue_row_is_judged() {
            let rows: Vec<&str> = CATALOGUE.iter().map(|e| e.name).collect();
            assert_eq!(rows, [$($row),*]);
        }
    };
}

judged_rows! {
    e1_figure1_intervals_grow_and_shift: "fig1" => {
        // Interval widths at the last instant exceed the first.
        let fig = ex::figure1();
        for i in 0..3 {
            assert!(
                fig.cells[2][i].leading - fig.cells[2][i].trailing
                    > fig.cells[0][i].leading - fig.cells[0][i].trailing
            );
        }
    },
    e2_figure2_theorem6: "fig2" => {
        let fig = ex::figure2();
        assert!(fig.subset_case.single_source);
        assert!(!fig.offset_case.single_source);
    },
    e3_figure3_mm_recovers_im_does_not: "fig3" => {
        // The premises: S2 is incorrect yet consistent with the correct S3.
        let fig = ex::figure3();
        assert!(fig.servers[0].is_correct_at(fig.true_time));
        assert!(!fig.servers[1].is_correct_at(fig.true_time));
        assert!(fig.servers[2].is_correct_at(fig.true_time));
        assert!(fig.servers[1].is_consistent_with(&fig.servers[2]));
    },
    e4_figure4_three_consistency_groups: "fig4" => {
        // The premise: no point is common to all six servers.
        assert!(ex::figure4().service_inconsistent());
    },
    e5_e6_theorems_2_and_3_bounds_hold: "thm2",
    e7_theorem4_convergence: "thm4",
    e8_theorem7_bound_holds: "thm7",
    e9_theorem8_error_returns_to_e0: "thm8" => {
        // Monotone trend along a coarser curve (allowing sampling noise
        // of a few percent between adjacent points).
        let t = ex::thm8_error_vs_n(&[2, 8, 32, 128], 60);
        assert!(t.reproduces_shape(), "{t}");
        for pair in t.rows.windows(2) {
            assert!(
                pair[1].ratio <= pair[0].ratio * 1.05,
                "ratio should fall with n: {:?}",
                t.rows
            );
        }
    },
    e10_recovery_anecdote: "recovery",
    e11_ten_times_slower: "tenx" => {
        let t = ex::ten_x();
        assert!(
            (8.0..=12.5).contains(&t.speedup),
            "expected ≈10x, got {:.2}x",
            t.speedup
        );
    },
    e12_consonance_identifies_racer: "consonance",
    a1_marzullo_ablation: "ablation-marzullo",
    a2_strategy_comparison: "ablation-baselines",
    a3_min_delay_ablation: "ablation-mindelay",
    a4_screening_ablation: "ablation-screening",
    e13_churn_converges: "churn",
    e14_scale_shape: "scale",
    e15_loss_is_safe: "loss",
    e16_chaos_keeps_honest_servers_correct: "chaos",
    e17_fuzz_smoke_is_clean: "fuzz" => {
        // A second oracle-gated sweep at a shorter horizon: every
        // generated deployment must satisfy every theorem its
        // configuration is entitled to.
        let f = ex::fuzz(0..16, 45.0);
        assert_eq!(f.cases_run, 16);
        assert!(f.reproduces_shape(), "{f}");
    },
    e18_restarts_rehydrate_or_bootstrap: "restart",
    e19_byzantine_tiers_within_budget_are_clean: "byzantine",
    e20_sharded_engine_is_exact_at_scale: "scale10k",
    e21_cluster_timestamps_never_regress: "cluster",
}
