//! Regenerates the paper's figures and measurements.
//!
//! ```text
//! experiments                                # run everything
//! experiments --list                         # show the catalogue
//! experiments fig3 thm8                      # run selected experiments
//! experiments fuzz --seeds 0..64 \
//!             --horizon-secs 60              # oracle-gated fuzz sweep
//! experiments scale10k --n 100,1000,10000   # sharded-engine scale sweep
//! experiments --telemetry-out runs.jsonl …   # export every run's telemetry
//! experiments validate-telemetry runs.jsonl  # schema-check an export
//! experiments simulate [options]             # one ad-hoc simulation
//! ```
//!
//! Every report ends with `reproduces the expected shape: true|false`,
//! its [`Verdict`]. The exit status is that verdict: 1, with the broken
//! experiments named on stderr, when any shape breaks (a `fuzz` sweep
//! breaks on any violation of a gated theorem). `--telemetry-out`
//! truncates the file, then every scenario the selected experiments
//! run appends its framed JSONL stream (schema in EXPERIMENTS.md);
//! `validate-telemetry` checks such a file line by line and exits
//! non-zero on the first schema violation.
//!
//! `simulate` runs one honest deployment built from its flags:
//!
//! ```text
//!   --servers N        number of servers            (default 5)
//!   --strategy S       mm | im | tolerant:F | max | median | mean (default im)
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

#![forbid(unsafe_code)]

mod cli;

use std::ops::Range;
use std::process::ExitCode;

use tempo_core::{DriftRate, Duration};
use tempo_net::DelayModel;
use tempo_service::ScreeningPolicy;
use tempo_sim::experiments::{Experiment, Verdict, CATALOGUE};
use tempo_sim::plot::{ascii_chart, to_csv};
use tempo_sim::{Scenario, ServerSpec};

/// Prints a report and its verdict line; returns the verdict.
fn print_judged(report: &dyn Verdict) -> bool {
    let shape = report.reproduces_shape();
    println!("{report}reproduces the expected shape: {shape}\n");
    shape
}

/// Runs `experiments` in order, each under its header, and returns the
/// names of those whose shape broke.
fn run(experiments: &[&Experiment]) -> Vec<&'static str> {
    let mut broken = Vec::new();
    for (i, e) in experiments.iter().enumerate() {
        if i > 0 {
            println!();
        }
        println!("=== {} — {} ===", e.name, e.artifact);
        if !print_judged(&*(e.run)()) {
            broken.push(e.name);
        }
    }
    broken
}

/// The exit status of a run whose `broken` experiments failed their
/// shape: success when there are none, else failure naming them.
fn status(broken: &[&str]) -> ExitCode {
    if broken.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("shape broken: {}", broken.join(", "));
    ExitCode::FAILURE
}

/// Parses `fuzz` subcommand flags. Defaults: seeds `0..32`, 60 s.
fn parse_fuzz_args(args: &[String]) -> Result<(Range<u64>, f64), String> {
    let mut seeds = 0..32u64;
    let mut horizon = 60.0f64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seeds" => {
                let (lo, hi) = value
                    .split_once("..")
                    .ok_or_else(|| format!("--seeds wants START..END, got '{value}'"))?;
                let lo: u64 = lo
                    .parse()
                    .map_err(|e| format!("bad seed start '{lo}': {e}"))?;
                let hi: u64 = hi
                    .parse()
                    .map_err(|e| format!("bad seed end '{hi}': {e}"))?;
                if lo >= hi {
                    return Err(format!("--seeds range '{value}' is empty"));
                }
                seeds = lo..hi;
            }
            "--horizon-secs" => {
                horizon = value
                    .parse()
                    .map_err(|e| format!("bad horizon '{value}': {e}"))?;
                if !horizon.is_finite() || horizon <= 0.0 {
                    return Err(format!("horizon must be positive, got {horizon}"));
                }
            }
            other => return Err(format!("unknown fuzz flag '{other}'")),
        }
    }
    Ok((seeds, horizon))
}

fn run_fuzz(args: &[String]) -> ExitCode {
    let (seeds, horizon) = match parse_fuzz_args(args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("fuzz: {message}");
            eprintln!("usage: experiments fuzz [--seeds START..END] [--horizon-secs SECS]");
            return ExitCode::FAILURE;
        }
    };
    let shape = print_judged(&tempo_sim::experiments::fuzz(seeds, horizon));
    status(if shape { &[] } else { &["fuzz"] })
}

/// Parses `scale10k` subcommand flags. Defaults: the full
/// 100/1,000/10,000 sweep.
fn parse_scale10k_args(args: &[String]) -> Result<Vec<usize>, String> {
    let mut sizes = vec![100, 1_000, 10_000];
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--n" => {
                sizes = value
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .map_err(|e| format!("bad size '{s}': {e}"))
                    })
                    .collect::<Result<_, _>>()?;
                if sizes.is_empty() || sizes.iter().any(|n| !n.is_multiple_of(20)) {
                    return Err(format!(
                        "--n wants comma-separated multiples of 20, got '{value}'"
                    ));
                }
            }
            other => return Err(format!("unknown scale10k flag '{other}'")),
        }
    }
    Ok(sizes)
}

fn run_scale10k(args: &[String]) -> ExitCode {
    let sizes = match parse_scale10k_args(args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("scale10k: {message}");
            eprintln!("usage: experiments scale10k [--n N,N,...]");
            return ExitCode::FAILURE;
        }
    };
    let shape = print_judged(&tempo_sim::experiments::scale10k_sized(&sizes));
    status(if shape { &[] } else { &["scale10k"] })
}

fn run_validate(args: &[String]) -> ExitCode {
    let [path] = args else {
        eprintln!("usage: experiments validate-telemetry FILE");
        return ExitCode::FAILURE;
    };
    match std::fs::read_to_string(path) {
        Err(e) => {
            eprintln!("validate-telemetry: cannot read {path}: {e}");
            ExitCode::FAILURE
        }
        Ok(text) => match tempo_telemetry::json::validate_stream(&text) {
            Ok(lines) => {
                println!("{path}: {lines} lines, schema OK");
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("{path}: {message}");
                ExitCode::FAILURE
            }
        },
    }
}

const SIMULATE_USAGE: &str = "\
usage: experiments simulate [--servers N] [--strategy S] [--tau S] [--bound D]
                            [--spread F] [--delay-max S] [--loss P] [--duration S]
                            [--seed N] [--screening] [--chart] [--csv]
                            [--telemetry-out FILE]
       S is one of mm | im | tolerant:F | max | median | mean";

fn run_simulate(args: &[String]) -> ExitCode {
    let opts = match cli::parse(args) {
        Ok(o) => o,
        Err(msg) => {
            if msg != "help" {
                eprintln!("simulate: {msg}\n");
            }
            eprintln!("{SIMULATE_USAGE}");
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

    let asynch = || -> Vec<(f64, f64)> {
        result
            .samples
            .iter()
            .map(|r| (r.t.as_secs(), r.asynchronism().as_secs()))
            .collect()
    };
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
        print!("{}", ascii_chart(&asynch(), 64, 10, "asynchronism (s)"));
    }

    if opts.csv {
        let mean = result.mean_error_series();
        let asynch = asynch();
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

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();

    if args.first().is_some_and(|a| a == "validate-telemetry") {
        return run_validate(&args[1..]);
    }

    // `simulate` parses its own flags, `--telemetry-out` included, so
    // it is dispatched before the global flag is taken.
    if args.first().is_some_and(|a| a == "simulate") {
        return run_simulate(&args[1..]);
    }

    // A global flag: every scenario any experiment runs appends its
    // telemetry stream to this file (truncated once, here).
    if let Some(pos) = args.iter().position(|a| a == "--telemetry-out") {
        if pos + 1 >= args.len() {
            eprintln!("--telemetry-out needs a value");
            return ExitCode::FAILURE;
        }
        let path = args.remove(pos + 1);
        args.remove(pos);
        if let Err(e) = std::fs::File::create(&path) {
            eprintln!("cannot create telemetry export {path}: {e}");
            return ExitCode::FAILURE;
        }
        tempo_sim::set_default_telemetry_out(Some(std::path::PathBuf::from(path)));
    }

    if args.iter().any(|a| a == "--list" || a == "-l") {
        println!("available experiments:");
        for e in CATALOGUE {
            println!("  {:<20} {}", e.name, e.artifact);
        }
        return ExitCode::SUCCESS;
    }

    // `fuzz` takes its own flags, so it is a subcommand rather than a
    // catalogue selection (the bare name still works via the catalogue).
    if args.first().is_some_and(|a| a == "fuzz") && args.len() > 1 {
        return run_fuzz(&args[1..]);
    }

    // Likewise `scale10k`: flags make it a subcommand, the bare name
    // still selects the catalogue's full sweep.
    if args.first().is_some_and(|a| a == "scale10k") && args.len() > 1 {
        return run_scale10k(&args[1..]);
    }

    let selected: Vec<&Experiment> = if args.is_empty() {
        CATALOGUE.iter().collect()
    } else {
        let mut picked = Vec::new();
        for arg in &args {
            match CATALOGUE.iter().find(|e| e.name == *arg) {
                Some(e) => picked.push(e),
                None => {
                    eprintln!("unknown experiment '{arg}' (try --list)");
                    return ExitCode::FAILURE;
                }
            }
        }
        picked
    };
    status(&run(&selected))
}

#[cfg(test)]
mod tests {
    use std::fmt;

    use super::*;

    /// A report whose verdict is fixed.
    struct Stub(bool);

    impl fmt::Display for Stub {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            writeln!(f, "stub report")
        }
    }

    impl Verdict for Stub {
        fn reproduces_shape(&self) -> bool {
            self.0
        }
    }

    #[test]
    fn a_broken_shape_fails_the_run_and_is_named() {
        let good = Experiment {
            name: "good",
            artifact: "a shape that holds",
            run: || Box::new(Stub(true)),
        };
        let bad = Experiment {
            name: "bad",
            artifact: "a shape that breaks",
            run: || Box::new(Stub(false)),
        };
        assert_eq!(run(&[&good, &bad, &good]), ["bad"]);
        assert_eq!(status(&["bad"]), ExitCode::FAILURE);
        assert!(run(&[&good]).is_empty());
        assert_eq!(status(&[]), ExitCode::SUCCESS);
    }

    #[test]
    fn catalogue_is_complete_and_unique() {
        assert_eq!(CATALOGUE.len(), 24);
        let mut names: Vec<&str> = CATALOGUE.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 24, "names must be unique");
    }

    #[test]
    fn fast_experiments_render() {
        for e in CATALOGUE {
            if ["fig1", "fig2", "fig3", "fig4", "consonance"].contains(&e.name) {
                let report = (e.run)().to_string();
                assert!(!report.is_empty(), "{} produced no report", e.name);
            }
        }
    }
}
