//! A command-line driver for one-off time-service simulations.
//!
//! ```text
//! simulate [options]
//!   --servers N        number of servers            (default 5)
//!   --strategy S       mm | im | marzullo | max | median | mean (default im)
//!   --tau SECS         resync period τ              (default 10)
//!   --bound DRIFT      claimed drift bound δ        (default 1e-4)
//!   --spread FRAC      actual drift = ±FRAC·δ alternating (default 0.5)
//!   --delay-max SECS   max one-way delay            (default 0.01)
//!   --loss P           loss probability             (default 0)
//!   --duration SECS    simulated time               (default 600)
//!   --seed N           master seed                  (default 0)
//!   --screening        enable §5 rate screening
//!   --chart            print ASCII charts
//!   --csv              print the per-sample series as CSV
//!   --telemetry-out F  export the telemetry stream as JSONL to F
//! ```

use std::process::ExitCode;

use tempo_core::{DriftRate, Duration};
use tempo_net::DelayModel;
use tempo_service::ScreeningPolicy;
use tempo_sim::plot::{ascii_chart, to_csv};
use tempo_sim::{Scenario, ServerSpec};

use tempo_bench::cli::parse;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(msg) => {
            if msg != "help" {
                eprintln!("error: {msg}\n");
            }
            eprintln!("usage: simulate [--servers N] [--strategy mm|im|marzullo|max|median|mean]");
            eprintln!("                [--tau S] [--bound D] [--spread F] [--delay-max S]");
            eprintln!("                [--loss P] [--duration S] [--seed N]");
            eprintln!("                [--screening] [--chart] [--csv] [--telemetry-out FILE]");
            return if msg == "help" {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
    };

    let mut scenario = Scenario::new(opts.strategy)
        .delay(DelayModel::Uniform {
            min: Duration::ZERO,
            max: Duration::from_secs(opts.delay_max),
        })
        .loss(opts.loss)
        .resync_period(Duration::from_secs(opts.tau))
        .collect_window(Duration::from_secs(
            (opts.delay_max * 4.0).min(opts.tau / 3.0),
        ))
        .duration(Duration::from_secs(opts.duration))
        .sample_interval(Duration::from_secs((opts.duration / 200.0).max(0.5)))
        .seed(opts.seed);
    if opts.screening {
        scenario = scenario.screening(ScreeningPolicy::Consonance {
            peer_bound: DriftRate::new(opts.bound),
            sample_noise: Duration::from_secs(2.0 * opts.delay_max),
        });
    }
    if let Some(path) = &opts.telemetry_out {
        scenario = scenario.telemetry_out(path);
    }
    for i in 0..opts.servers {
        let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
        let frac = opts.spread * (1.0 - i as f64 / (2.0 * opts.servers as f64));
        scenario = scenario.server(ServerSpec::honest(sign * frac * opts.bound, opts.bound));
    }
    let result = scenario.run();

    println!(
        "{} servers, {} for {:.0}s (τ={:.0}s, ξ={:.0}ms, loss={:.0}%)",
        opts.servers,
        opts.strategy,
        opts.duration,
        opts.tau,
        2.0 * opts.delay_max * 1e3,
        opts.loss * 100.0
    );
    println!(
        "  messages: {} sent / {} delivered / {} lost",
        result.net.sent, result.net.delivered, result.net.lost
    );
    println!(
        "  correctness violations: {}",
        result.correctness_violations()
    );
    println!("  worst asynchronism:     {}", result.max_asynchronism());
    println!(
        "  xi witness (worst rtt): {} of {} claimed",
        result.xi_witness,
        Duration::from_secs(2.0 * opts.delay_max)
    );
    if result.dropped_events > 0 {
        println!(
            "  telemetry stream ran {} events past a 4096-event ring (sinks saw all)",
            result.dropped_events
        );
    }
    let last = result.last();
    println!(
        "  final errors: min {}, mean {}, max {}",
        last.min_error(),
        last.mean_error(),
        last.max_error()
    );
    let screened: usize = result.final_stats.iter().map(|s| s.screened).sum();
    if opts.screening {
        println!("  replies screened by consonance: {screened}");
    }

    if opts.chart {
        println!();
        print!(
            "{}",
            ascii_chart(
                &result.mean_error_series(),
                64,
                10,
                "mean claimed error (s)"
            )
        );
        let asynch: Vec<(f64, f64)> = result
            .samples
            .iter()
            .map(|r| (r.t.as_secs(), r.asynchronism().as_secs()))
            .collect();
        print!("{}", ascii_chart(&asynch, 64, 10, "asynchronism (s)"));
    }

    if opts.csv {
        let mean = result.mean_error_series();
        let asynch: Vec<(f64, f64)> = result
            .samples
            .iter()
            .map(|r| (r.t.as_secs(), r.asynchronism().as_secs()))
            .collect();
        let offsets: Vec<Vec<(f64, f64)>> =
            (0..opts.servers).map(|i| result.offset_series(i)).collect();
        let mut columns: Vec<(&str, &[(f64, f64)])> =
            vec![("mean_error", &mean), ("asynchronism", &asynch)];
        let names: Vec<String> = (0..opts.servers).map(|i| format!("offset_s{i}")).collect();
        for (name, series) in names.iter().zip(&offsets) {
            columns.push((name, series));
        }
        println!();
        print!("{}", to_csv(&columns));
    }
    ExitCode::SUCCESS
}
