//! `tempo-perf` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perf/Cargo.toml -- <command>
//!
//!   bench   --workload W --seed S --seconds N --trace 0|1
//!           one workload in this process; the last line of output is
//!           {"correct", "attempted", "failed", "metrics"}
//!   run     --seed S [--workload W] [--seconds N] [--out FILE]
//!           every workload, each in its own process; appends one run
//!           to FILE and checks it
//!   trace   --seed S [--workload W] [--seconds N] [--out FILE]
//!           the same with the traced, quarter-length variant that
//!           yields the per-layer metrics
//!   compare A.json B.json
//!   check   FILE
//! ```

mod child;
mod jobs;
mod json;
mod loadgen;
mod mirror;
mod outcome;
mod report;
mod schedule;
mod seams;
mod serve;
mod spec;
mod stats;
mod sys;
mod trace;
mod traced;

use std::process::ExitCode;

use outcome::Outcome;

/// The window the driver asks for; `run` and `trace` use it unless told
/// otherwise.
const DEFAULT_SECONDS: u64 = 24;

/// `--flag value` pairs after the command word.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    fn parse(args: &'a [String], known: &[&str]) -> Result<Flags<'a>, String> {
        if !args.len().is_multiple_of(2) {
            return Err(format!("`{}` needs a value", args[args.len() - 1]));
        }
        for pair in args.chunks(2) {
            if !known.contains(&pair[0].as_str()) {
                return Err(format!("unknown flag `{}`", pair[0]));
            }
        }
        Ok(Flags { args })
    }

    fn get(&self, flag: &str) -> Option<&'a str> {
        self.args
            .chunks(2)
            .find(|pair| pair[0] == flag)
            .map(|pair| pair[1].as_str())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|v| v.parse().map_err(|_| format!("{flag}: cannot parse `{v}`")))
            .transpose()
    }

    fn required<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        self.number(flag)?
            .ok_or_else(|| format!("{flag} is required"))
    }
}

fn run_workload(name: &str, seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    if spec::workload(name).is_none() {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload `{name}` (one of {})",
            names.join(", ")
        ));
    }
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=60"));
    }
    let socket = matches!(name, spec::SERVE_BATCH | spec::SERVE_PACED);
    match (traced, socket) {
        (false, true) => serve::bench(name, seed, seconds),
        (false, false) => jobs::bench(name, seed, seconds),
        (true, true) => traced::serve(name, seed, seconds),
        (true, false) => traced::jobs(name, seed, seconds),
    }
}

fn bench(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let name = flags.get("--workload").ok_or("--workload is required")?;
    let seed: u64 = flags.required("--seed")?;
    let seconds: u64 = flags.required("--seconds")?;
    let traced = match flags.required::<u8>("--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other}: want 0 or 1")),
    };
    let outcome = run_workload(name, seed, seconds, traced)?;
    println!("{}", json::to_line(&outcome.detail_line()));
    println!("{}", json::to_line(&outcome.result_line()));
    Ok(())
}

fn suite(args: &[String], traced: bool) -> Result<(), String> {
    let flags = Flags::parse(args, &["--workload", "--seed", "--seconds", "--out"])?;
    let seed: u64 = flags.required("--seed")?;
    let seconds = flags.number("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    report::run_suite(
        flags.get("--workload"),
        seed,
        seconds,
        traced,
        flags.get("--out"),
    )
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("missing command: bench, run, trace, compare or check".into());
    };
    match (command.as_str(), rest) {
        ("bench", _) => bench(rest),
        ("run", _) => suite(rest, false),
        ("trace", _) => suite(rest, true),
        ("compare", [a, b]) => report::compare(a, b),
        ("compare", _) => Err("compare wants two result files".into()),
        ("check", [file]) => report::check(file),
        ("check", _) => Err("check wants one result file".into()),
        (other, _) => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tempo-perf: {e}");
            ExitCode::FAILURE
        }
    }
}
