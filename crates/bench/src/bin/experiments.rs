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
//! ```
//!
//! `fuzz` exits non-zero when any generated scenario violates a gated
//! theorem, so CI can run it as a smoke gate. `--telemetry-out`
//! truncates the file, then every scenario the selected experiments
//! run appends its framed JSONL stream (schema in EXPERIMENTS.md);
//! `validate-telemetry` checks such a file line by line and exits
//! non-zero on the first schema violation.

use std::ops::Range;
use std::process::ExitCode;

use tempo_bench::catalog;

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
    let outcome = tempo_sim::experiments::fuzz(seeds, horizon);
    println!("{outcome}");
    if outcome.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
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
    let outcome = tempo_sim::experiments::scale10k_sized(&sizes);
    println!("{outcome}");
    if outcome.reproduces_shape() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
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

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let experiments = catalog::all();

    if args.first().is_some_and(|a| a == "validate-telemetry") {
        return run_validate(&args[1..]);
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
        for e in &experiments {
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

    let selected: Vec<&catalog::Experiment> = if args.is_empty() {
        experiments.iter().collect()
    } else {
        let mut picked = Vec::new();
        for arg in &args {
            match experiments.iter().find(|e| e.name == *arg) {
                Some(e) => picked.push(e),
                None => {
                    eprintln!("unknown experiment '{arg}' (try --list)");
                    return ExitCode::FAILURE;
                }
            }
        }
        picked
    };

    for (i, e) in selected.iter().enumerate() {
        if i > 0 {
            println!();
        }
        println!("=== {} — {} ===", e.name, e.artifact);
        println!("{}", (e.run)());
    }
    ExitCode::SUCCESS
}
