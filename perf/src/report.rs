//! Result files: `run` and `trace` append to them, `check` vets them,
//! `compare` sets two of them side by side.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::{as_arr, as_f64, as_obj, as_str, num, obj, parse, text, to_line, Json};
use crate::spec::{self, Better};
use crate::stats::quartiles;
use crate::sys;

const SCHEMA: &str = "tempo-perf/1";
/// Recorded in every result: the socket workloads never leave the host.
const LOOPBACK: &str = "traffic crossed the host's loopback interface";

// --- running ----------------------------------------------------------------------------

/// Runs `workload` in a process of its own and returns its detail and
/// result lines.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["bench", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    let detail = lines
        .next()
        .ok_or_else(|| format!("{workload} printed no detail line"))?;
    Ok((
        parse(detail).map_err(|e| format!("{workload} detail line: {e}"))?,
        parse(result).map_err(|e| format!("{workload} result line: {e}"))?,
    ))
}

fn default_out(traced: bool) -> PathBuf {
    sys::package_dir()
        .join("out")
        .join(if traced { "trace.json" } else { "run.json" })
}

fn read_file(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("schema").and_then(as_str) != Some(SCHEMA) {
        return Err(format!("{} is not a {SCHEMA} result file", path.display()));
    }
    Ok(doc)
}

fn runs_of(doc: &Json) -> Result<&[Json], String> {
    doc.get("runs")
        .and_then(as_arr)
        .ok_or_else(|| "result file has no runs".to_string())
}

/// `run` and `trace`: every workload (or the one named), each in its
/// own process; prints each metric by name with its unit, appends the
/// run to the result file and checks what it appended.
pub fn run_suite(
    only: Option<&str>,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: Option<&str>,
) -> Result<(), String> {
    if sys::nproc() < 2 {
        return Err(format!(
            "{} core: the benchmark is sized for two and refuses to measure on fewer",
            sys::nproc()
        ));
    }
    let names: Vec<&str> = match only {
        Some(name) => vec![
            spec::workload(name)
                .ok_or_else(|| format!("unknown workload `{name}`"))?
                .name,
        ],
        None => spec::WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let machine = sys::Machine::describe();
    let mut workloads = Vec::new();
    for name in &names {
        eprintln!(
            "tempo-perf: {name} ({}, seed {seed}, {seconds} s)",
            if traced { "traced" } else { "untraced" }
        );
        let (detail, result) = run_child(name, seed, seconds, traced)?;
        println!("{name} — {}", spec::workload(name).map_or("", |w| w.why));
        for (metric, value) in result.get("metrics").and_then(as_obj).unwrap_or(&[]) {
            let v = value.get("value").and_then(as_f64).unwrap_or(f64::NAN);
            let unit = value.get("unit").and_then(as_str).unwrap_or("?");
            let tag = match spec::PER_LAYER.iter().find(|m| m.name == metric) {
                Some(m) if m.exact => "  (exact)".to_string(),
                Some(m) => format!("  ({} is better)", m.better.label()),
                None => String::new(),
            };
            // A traced run lists every layer; the ones idle on this
            // workload read 0 and are left out of the printout.
            if !traced || v != 0.0 {
                println!("  {metric:<44} {v:>18.6} {unit}{tag}");
            }
        }
        let mut fields = as_obj(&result).map(<[_]>::to_vec).unwrap_or_default();
        if let Some(inner) = detail.get("detail").and_then(as_obj) {
            fields.extend(inner.iter().cloned());
        }
        workloads.push(((*name).to_string(), Json::Obj(fields)));
    }
    let run = obj(vec![
        ("traced", Json::Bool(traced)),
        ("seed", num(seed as f64)),
        ("seconds", num(seconds as f64)),
        (
            "machine",
            obj(vec![
                ("git_sha", text(machine.git_sha)),
                ("nproc", num(machine.nproc as f64)),
                ("cpu_model", text(machine.cpu_model)),
                ("kernel", text(machine.kernel)),
                ("rustc", text(machine.rustc)),
            ]),
        ),
        ("note", text(LOOPBACK)),
        ("workloads", Json::Obj(workloads)),
    ]);
    check_run(&run, &names)?;

    let path = out.map_or_else(|| default_out(traced), PathBuf::from);
    let mut runs = if path.exists() {
        runs_of(&read_file(&path)?)?.to_vec()
    } else {
        Vec::new()
    };
    runs.push(run);
    let doc = obj(vec![("schema", text(SCHEMA)), ("runs", Json::Arr(runs))]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, to_line(&doc) + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("tempo-perf: appended to {}", path.display());
    Ok(())
}

// --- checking -----------------------------------------------------------------------------

fn check_metric(workload: &str, metrics: &Json, name: &str, unit: &str) -> Result<f64, String> {
    let metric = metrics
        .get(name)
        .ok_or_else(|| format!("{workload} does not report {name}"))?;
    let value = metric
        .get("value")
        .and_then(as_f64)
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("{workload} {name} has no finite value"))?;
    match metric.get("unit").and_then(as_str) {
        Some(found) if found == unit => Ok(value),
        found => Err(format!("{workload} {name} has unit {found:?}, not {unit}")),
    }
}

/// One run: each of `required` reports every metric of its kind with a
/// finite value and the catalogue's unit, under a valid name; passed
/// its output checks; and, untraced, carries every *exact* counter.
fn check_run(run: &Json, required: &[&str]) -> Result<(), String> {
    let traced = matches!(run.get("traced"), Some(Json::Bool(true)));
    for key in ["seed", "seconds", "machine", "note"] {
        run.get(key)
            .ok_or_else(|| format!("run records no {key}"))?;
    }
    let workloads = run.get("workloads").ok_or("run has no workloads")?;
    for &name in required {
        let w = workloads
            .get(name)
            .ok_or_else(|| format!("workload {name} is missing"))?;
        if w.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!("{name} did not pass its output checks"));
        }
        let metrics = w
            .get("metrics")
            .ok_or_else(|| format!("{name} has no metrics"))?;
        for (metric, _) in as_obj(metrics).unwrap_or(&[]) {
            if !spec::valid_name(metric) {
                return Err(format!("{name} reports a metric named `{metric}`"));
            }
        }
        if traced {
            for m in &spec::PER_LAYER {
                check_metric(name, metrics, m.name, m.unit)?;
            }
        } else {
            for m in &spec::END_TO_END {
                let value = check_metric(name, metrics, m.name, m.unit)?;
                if value == 0.0 {
                    return Err(format!("{name} {} is zero", m.name));
                }
            }
            let exact = w
                .get("exact")
                .ok_or_else(|| format!("{name} has no exact counters"))?;
            for counter in spec::exact_counters(name) {
                exact
                    .get(counter)
                    .and_then(as_f64)
                    .ok_or_else(|| format!("{name} is missing the exact counter {counter}"))?;
            }
        }
    }
    Ok(())
}

/// `check FILE`: every run in the file must cover all five workloads.
pub fn check(file: &str) -> Result<(), String> {
    let doc = read_file(Path::new(file))?;
    let runs = runs_of(&doc)?;
    if runs.is_empty() {
        return Err("result file holds no run".into());
    }
    let all: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    for (i, run) in runs.iter().enumerate() {
        check_run(run, &all).map_err(|e| format!("run {i}: {e}"))?;
    }
    println!(
        "{file}: {} run(s), all five workloads, every metric present",
        runs.len()
    );
    Ok(())
}

// --- comparing ------------------------------------------------------------------------------

/// Values of end-to-end `metric` on `workload` over the untraced runs.
fn values(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.get("traced") == Some(&Json::Bool(false)))
        .filter_map(|r| {
            r.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")
        })
        .filter_map(as_f64)
        .collect()
}

/// Median and quartiles; a single value stands for all three.
fn summary(values: &[f64]) -> [f64; 3] {
    match values {
        [one] => [*one; 3],
        _ => quartiles(values),
    }
}

#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Within,
    Worse,
    Unresolved,
}

/// B against A for one metric: *unresolved* when either side's own
/// quartile spread exceeds the bound, *worse* when B's median is worse
/// than A's by more than the bound, *within* otherwise.
fn verdict(a: [f64; 3], b: [f64; 3], better: Better, bound: f64) -> Verdict {
    let spread = |s: [f64; 3]| {
        if s[1] == 0.0 {
            0.0
        } else {
            (s[2] - s[0]) / s[1].abs()
        }
    };
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    let worsening = match better {
        Better::Lower => b[1] - a[1],
        Better::Higher => a[1] - b[1],
    };
    if worsening > bound * a[1].abs() {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

/// Exact counters per (workload, seed, seconds, counter) over the
/// untraced runs of both files: every group must hold one value.
fn exact_disagreements(runs: &[&Json]) -> (usize, Vec<String>) {
    let mut seen: BTreeMap<(String, u64, u64, String), Vec<f64>> = BTreeMap::new();
    for run in runs
        .iter()
        .filter(|r| r.get("traced") == Some(&Json::Bool(false)))
    {
        let key = |k: &str| run.get(k).and_then(as_f64).unwrap_or(0.0) as u64;
        let (seed, seconds) = (key("seed"), key("seconds"));
        for (workload, w) in run.get("workloads").and_then(as_obj).unwrap_or(&[]) {
            for (counter, value) in w.get("exact").and_then(as_obj).unwrap_or(&[]) {
                if let Some(v) = as_f64(value) {
                    seen.entry((workload.clone(), seed, seconds, counter.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    let compared = seen.values().filter(|v| v.len() > 1).count();
    let differing = seen
        .iter()
        .filter(|(_, v)| v.iter().any(|x| x.to_bits() != v[0].to_bits()))
        .map(|((w, seed, _, c), v)| format!("{w} {c} (seed {seed}): {v:?}"))
        .collect();
    (compared, differing)
}

/// `compare A.json B.json`.
pub fn compare(a_path: &str, b_path: &str) -> Result<(), String> {
    let (a_doc, b_doc) = (read_file(Path::new(a_path))?, read_file(Path::new(b_path))?);
    let (a_runs, b_runs) = (runs_of(&a_doc)?, runs_of(&b_doc)?);
    println!(
        "A = {a_path} ({} runs)   B = {b_path} ({} runs)",
        a_runs.len(),
        b_runs.len()
    );
    println!("each side: median [first quartile, third quartile]; ratio = B median / A median");
    let mut worse = 0;
    let mut unresolved = 0;
    for w in &spec::WORKLOADS {
        println!("{}", w.name);
        for m in &spec::END_TO_END {
            let (a, b) = (
                values(a_runs, w.name, m.name),
                values(b_runs, w.name, m.name),
            );
            if a.is_empty() || b.is_empty() {
                println!("  {:<18} missing on one side", m.name);
                unresolved += 1;
                continue;
            }
            let (sa, sb) = (summary(&a), summary(&b));
            let v = verdict(sa, sb, m.better, m.bound);
            match v {
                Verdict::Worse => worse += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Within => {}
            }
            println!(
                "  {:<18} ({} is better) A {:>14.4} [{:.4}, {:.4}] n={}  B {:>14.4} [{:.4}, {:.4}] n={}  ratio {:.4} of {:.4} {}  bound {:.4}  {}",
                m.name,
                m.better.label(),
                sa[1], sa[0], sa[2], a.len(),
                sb[1], sb[0], sb[2], b.len(),
                sb[1] / sa[1], sa[1], m.unit,
                m.bound,
                match v {
                    Verdict::Within => "within bound",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved (spread exceeds bound)",
                },
            );
        }
    }
    let both: Vec<&Json> = a_runs.iter().chain(b_runs).collect();
    let (compared, differing) = exact_disagreements(&both);
    if differing.is_empty() {
        println!("exact counters: {compared} compared across runs of equal seed and length, all identical");
    } else {
        println!("exact counters that differ between runs of equal seed and length:");
        for line in &differing {
            println!("  {line}");
        }
    }
    println!("{worse} worse, {unresolved} unresolved");
    if worse > 0 || !differing.is_empty() {
        return Err("B is worse than A, or an exact counter moved".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let tight = |m: f64| [m * 0.99, m, m * 1.01];
        // Lower is better, bound 5 %: 4 % up is within, 6 % up is worse,
        // any improvement is within.
        assert_eq!(
            verdict(tight(100.0), tight(104.0), Better::Lower, 0.05),
            Verdict::Within
        );
        assert_eq!(
            verdict(tight(100.0), tight(106.0), Better::Lower, 0.05),
            Verdict::Worse
        );
        assert_eq!(
            verdict(tight(100.0), tight(50.0), Better::Lower, 0.05),
            Verdict::Within
        );
        // Higher is better: a drop is what counts.
        assert_eq!(
            verdict(tight(100.0), tight(94.0), Better::Higher, 0.05),
            Verdict::Worse
        );
        assert_eq!(
            verdict(tight(100.0), tight(106.0), Better::Higher, 0.05),
            Verdict::Within
        );
        // A side whose own spread exceeds the bound resolves nothing.
        let loose = [90.0, 100.0, 110.0];
        assert_eq!(
            verdict(loose, tight(120.0), Better::Lower, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(tight(100.0), loose, Better::Lower, 0.05),
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_single_run_summarises_to_itself() {
        assert_eq!(summary(&[3.5]), [3.5, 3.5, 3.5]);
        assert_eq!(summary(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }
}
