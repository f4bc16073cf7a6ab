//! `tempod` as a child process: building it, launching it, stopping it
//! gracefully and reading the lines it prints on the way out.

use std::fs::File;
use std::net::{SocketAddr, UdpSocket};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::json::{as_f64, parse};
use crate::sys;

/// Builds the release `tempod` with the toolchain that built this
/// runner and returns its path. `cargo run` builds only the binary it
/// runs, so the daemon is built here, from this package's manifest and
/// into the same target directory; when it is fresh this costs a
/// fraction of a second. Building is a precondition of a run, not part
/// of its set-up time.
pub fn build_tempod() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "tempod",
        ])
        .arg("--manifest-path")
        .arg(sys::package_dir().join("Cargo.toml"))
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo to build tempod: {e}"))?;
    if !status.success() {
        return Err(format!("building tempod failed ({status})"));
    }
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = me.with_file_name("tempod");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} is missing after the build: run the benchmark through cargo so both share a target directory",
            path.display()
        ))
    }
}

/// Reserves `n` distinct loopback UDP ports by binding and releasing
/// them. Another process could take one in between; the child then
/// fails to bind and the run fails loudly.
pub fn free_ports(n: usize) -> Result<Vec<SocketAddr>, String> {
    let sockets: Vec<UdpSocket> = (0..n)
        .map(|_| UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}")))
        .collect::<Result<_, _>>()?;
    sockets
        .iter()
        .map(|s| s.local_addr().map_err(|e| format!("local_addr: {e}")))
        .collect()
}

/// The serving front's exit line:
/// `tempod: front served N (refused N, rejected N, malformed N, batches N)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontLine {
    pub served: u64,
    pub refused: u64,
    pub rejected: u64,
    pub malformed: u64,
    pub batches: u64,
}

/// The `--report` line: the sync actor's final counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReportLine {
    pub rounds: f64,
    pub resets: f64,
    pub malformed: f64,
}

pub fn parse_front_line(stderr: &str) -> Option<FrontLine> {
    let line = stderr
        .lines()
        .find_map(|l| l.strip_prefix("tempod: front served "))?;
    let mut numbers = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<u64>().ok());
    Some(FrontLine {
        served: numbers.next()??,
        refused: numbers.next()??,
        rejected: numbers.next()??,
        malformed: numbers.next()??,
        batches: numbers.next()??,
    })
}

pub fn parse_report_line(stdout: &str) -> Option<ReportLine> {
    let doc = stdout.lines().find_map(|l| parse(l).ok())?;
    Some(ReportLine {
        rounds: as_f64(doc.get("rounds")?)?,
        resets: as_f64(doc.get("resets")?)?,
        malformed: as_f64(doc.get("malformed")?)?,
    })
}

/// What a stopped daemon left behind.
#[derive(Debug)]
pub struct ExitLines {
    pub front: Option<FrontLine>,
    pub report: Option<ReportLine>,
    pub stderr: String,
}

/// A running `tempod`. Dropping it without [`Tempod::stop`] kills it,
/// so an error path never leaves a daemon behind.
#[derive(Debug)]
pub struct Tempod {
    child: Option<Child>,
    stdout: PathBuf,
    stderr: PathBuf,
}

impl Tempod {
    /// Launches `exe` with `args`, its output going to
    /// `<dir>/<name>.stdout` and `.stderr`.
    pub fn spawn(exe: &Path, args: &[String], dir: &Path, name: &str) -> Result<Tempod, String> {
        let stdout = dir.join(format!("{name}.stdout"));
        let stderr = dir.join(format!("{name}.stderr"));
        let create = |p: &Path| File::create(p).map_err(|e| format!("{}: {e}", p.display()));
        let child = Command::new(exe)
            .args(args)
            .stdin(Stdio::null())
            .stdout(create(&stdout)?)
            .stderr(create(&stderr)?)
            .spawn()
            .map_err(|e| format!("cannot launch {}: {e}", exe.display()))?;
        Ok(Tempod {
            child: Some(child),
            stdout,
            stderr,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("running until stopped").id()
    }

    /// SIGTERM, wait for the graceful exit, read the exit lines.
    pub fn stop(mut self) -> Result<ExitLines, String> {
        // The child stays in `self` until it has been waited for, so
        // every early return below leaves it to `Drop` to kill and reap.
        let child = self.child.as_mut().expect("running until stopped");
        sys::terminate(child.id())?;
        let deadline = Instant::now() + Duration::from_secs(5);
        let status = loop {
            match child.try_wait().map_err(|e| format!("wait: {e}"))? {
                Some(status) => break status,
                None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
                None => return Err("tempod ignored SIGTERM for 5 s".into()),
            }
        };
        self.child = None;
        let read =
            |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
        let stderr = read(&self.stderr)?;
        if !status.success() {
            return Err(format!("tempod exited with {status}: {stderr}"));
        }
        Ok(ExitLines {
            front: parse_front_line(&stderr),
            report: parse_report_line(&read(&self.stdout)?),
            stderr,
        })
    }
}

impl Drop for Tempod {
    fn drop(&mut self) {
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_lines_parse() {
        let stderr = "tempod: node 0 serving on 127.0.0.1:1 (1 peers)\n\
                      tempod: serving front on 127.0.0.1:2 (1 thread)\n\
                      tempod: front served 120 (refused 3, rejected 0, malformed 1, batches 15)\n";
        assert_eq!(
            parse_front_line(stderr),
            Some(FrontLine {
                served: 120,
                refused: 3,
                rejected: 0,
                malformed: 1,
                batches: 15
            })
        );
        assert_eq!(parse_front_line("tempod: node 0 serving"), None);
        let stdout = "{\"node\":0,\"active\":true,\"time\":1.5,\"error\":0.01,\"rounds\":400,\"resets\":380,\"malformed\":0}\n";
        assert_eq!(
            parse_report_line(stdout),
            Some(ReportLine {
                rounds: 400.0,
                resets: 380.0,
                malformed: 0.0
            })
        );
    }
}
