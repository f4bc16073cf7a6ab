//! Argument parsing for `experiments simulate`, split out so it can be
//! unit-tested.

use tempo_service::Strategy;

/// Parsed `simulate` options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Number of servers.
    pub servers: usize,
    /// Synchronization strategy.
    pub strategy: Strategy,
    /// Resync period `τ` in seconds.
    pub tau: f64,
    /// Claimed drift bound `δ`.
    pub bound: f64,
    /// Actual drift spread as a fraction of `δ`.
    pub spread: f64,
    /// Maximum one-way delay in seconds.
    pub delay_max: f64,
    /// Loss probability.
    pub loss: f64,
    /// Simulated duration in seconds.
    pub duration: f64,
    /// Master seed.
    pub seed: u64,
    /// Enable §5 rate screening.
    pub screening: bool,
    /// Print ASCII charts.
    pub chart: bool,
    /// Print CSV series.
    pub csv: bool,
    /// Export the run's telemetry stream as JSONL to this path.
    pub telemetry_out: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            servers: 5,
            strategy: Strategy::Im,
            tau: 10.0,
            bound: 1e-4,
            spread: 0.5,
            delay_max: 0.01,
            loss: 0.0,
            duration: 600.0,
            seed: 0,
            screening: false,
            chart: false,
            csv: false,
            telemetry_out: None,
        }
    }
}

/// Parses the `simulate` argument list.
///
/// # Errors
///
/// Returns a human-readable message on an unknown flag, a missing or
/// malformed value, or out-of-range options; returns the sentinel
/// `"help"` for `--help`/`-h`.
pub fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--servers" => {
                opts.servers = value("--servers")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--strategy" => opts.strategy = value("--strategy")?.parse()?,
            "--tau" => opts.tau = value("--tau")?.parse().map_err(|e| format!("{e}"))?,
            "--bound" => opts.bound = value("--bound")?.parse().map_err(|e| format!("{e}"))?,
            "--spread" => {
                opts.spread = value("--spread")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--delay-max" => {
                opts.delay_max = value("--delay-max")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--loss" => opts.loss = value("--loss")?.parse().map_err(|e| format!("{e}"))?,
            "--duration" => {
                opts.duration = value("--duration")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--seed" => opts.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--screening" => opts.screening = true,
            "--chart" => opts.chart = true,
            "--csv" => opts.csv = true,
            "--telemetry-out" => opts.telemetry_out = Some(value("--telemetry-out")?),
            "--help" | "-h" => return Err("help".to_string()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if opts.servers == 0 {
        return Err("--servers must be positive".to_string());
    }
    if !(0.0..=1.0).contains(&opts.spread) {
        return Err("--spread must be in [0, 1]".to_string());
    }
    // The remaining ranges would otherwise surface as panics deep in the
    // type constructors (`DriftRate`, `Duration`, the scenario builder);
    // a CLI typo deserves a message, not a backtrace.
    if !opts.tau.is_finite() || opts.tau <= 0.0 {
        return Err("--tau must be a positive number of seconds".to_string());
    }
    if !opts.bound.is_finite() || !(0.0..1.0).contains(&opts.bound) {
        return Err("--bound must satisfy 0 <= bound < 1".to_string());
    }
    if !opts.delay_max.is_finite() || opts.delay_max <= 0.0 {
        return Err("--delay-max must be a positive number of seconds".to_string());
    }
    if !(0.0..=1.0).contains(&opts.loss) {
        return Err("--loss must be a probability in [0, 1]".to_string());
    }
    if !opts.duration.is_finite() || opts.duration <= 0.0 {
        return Err("--duration must be a positive number of seconds".to_string());
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_on_empty() {
        assert_eq!(parse(&[]).unwrap(), Options::default());
    }

    #[test]
    fn full_flag_set() {
        let opts = parse(&args(&[
            "--servers",
            "8",
            "--strategy",
            "tolerant:1",
            "--tau",
            "30",
            "--bound",
            "2e-4",
            "--spread",
            "0.9",
            "--delay-max",
            "0.02",
            "--loss",
            "0.1",
            "--duration",
            "1200",
            "--seed",
            "7",
            "--screening",
            "--chart",
            "--csv",
            "--telemetry-out",
            "/tmp/run.jsonl",
        ]))
        .unwrap();
        assert_eq!(opts.servers, 8);
        assert_eq!(opts.strategy, Strategy::MarzulloTolerant { max_faulty: 1 });
        assert_eq!(opts.tau, 30.0);
        assert_eq!(opts.bound, 2e-4);
        assert_eq!(opts.spread, 0.9);
        assert_eq!(opts.delay_max, 0.02);
        assert_eq!(opts.loss, 0.1);
        assert_eq!(opts.duration, 1200.0);
        assert_eq!(opts.seed, 7);
        assert!(opts.screening && opts.chart && opts.csv);
        assert_eq!(opts.telemetry_out.as_deref(), Some("/tmp/run.jsonl"));
    }

    #[test]
    fn telemetry_out_needs_a_value() {
        let err = parse(&args(&["--telemetry-out"])).unwrap_err();
        assert!(err.contains("needs a value"));
    }

    #[test]
    fn unknown_strategy_rejected() {
        let err = parse(&args(&["--strategy", "marzullo"])).unwrap_err();
        assert!(err.contains("unknown strategy 'marzullo'"), "{err}");
    }

    #[test]
    fn unknown_flag_rejected() {
        let err = parse(&args(&["--bogus"])).unwrap_err();
        assert!(err.contains("unknown flag"));
    }

    #[test]
    fn missing_value_rejected() {
        let err = parse(&args(&["--servers"])).unwrap_err();
        assert!(err.contains("needs a value"));
    }

    #[test]
    fn malformed_value_rejected() {
        assert!(parse(&args(&["--servers", "three"])).is_err());
        assert!(parse(&args(&["--tau", "ten"])).is_err());
    }

    #[test]
    fn range_checks() {
        assert!(parse(&args(&["--servers", "0"])).is_err());
        assert!(parse(&args(&["--spread", "1.5"])).is_err());
        assert!(parse(&args(&["--tau", "-5"])).is_err());
        assert!(parse(&args(&["--tau", "0"])).is_err());
        assert!(parse(&args(&["--bound", "-1e-4"])).is_err());
        assert!(parse(&args(&["--bound", "1.0"])).is_err());
        assert!(parse(&args(&["--delay-max", "-0.01"])).is_err());
        assert!(parse(&args(&["--loss", "1.5"])).is_err());
        assert!(parse(&args(&["--duration", "inf"])).is_err());
    }

    #[test]
    fn help_sentinel() {
        assert_eq!(parse(&args(&["--help"])).unwrap_err(), "help");
        assert_eq!(parse(&args(&["-h"])).unwrap_err(), "help");
    }
}
