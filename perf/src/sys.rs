//! What the benchmark reads from the operating system: process CPU
//! time and peak memory from `/proc`, the machine description every
//! result file records, and the one signal it sends.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

fn read_proc(pid: u32, file: &str) -> Result<String, String> {
    let path = format!("/proc/{pid}/{file}");
    std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))
}

/// CPU time of other processes, to the nanosecond. `/proc/<pid>/stat`
/// gives `utime + stime` in 10 ms ticks, a twentieth of what a daemon
/// uses in a second of the paced load; the scheduler's own count of the
/// same thing, the first field of `/proc/<pid>/task/<tid>/schedstat`,
/// is exact, but per thread and only for threads still alive. The
/// threads are listed once, when the clock is made, and checked not to
/// have changed when it is dropped from use: `tempod` starts all of its
/// threads before it serves and keeps them until it exits.
pub struct CpuClock {
    pids: Vec<u32>,
    files: Vec<PathBuf>,
}

fn thread_files(pids: &[u32]) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for pid in pids {
        let dir = format!("/proc/{pid}/task");
        for entry in std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))? {
            let entry = entry.map_err(|e| format!("{dir}: {e}"))?;
            files.push(entry.path().join("schedstat"));
        }
    }
    files.sort();
    Ok(files)
}

impl CpuClock {
    pub fn of(pids: &[u32]) -> Result<CpuClock, String> {
        Ok(CpuClock {
            pids: pids.to_vec(),
            files: thread_files(pids)?,
        })
    }

    /// `utime + stime` of every thread listed, summed.
    pub fn read(&self) -> Result<Duration, String> {
        let mut total = 0u64;
        for file in &self.files {
            let text =
                std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
            total += text
                .split_ascii_whitespace()
                .next()
                .and_then(|ns| ns.parse::<u64>().ok())
                .ok_or_else(|| format!("{}: no run time", file.display()))?;
        }
        Ok(Duration::from_nanos(total))
    }

    /// Fails if a thread has started or ended since the clock was made:
    /// its readings would then not add up to the processes' CPU time.
    pub fn check_threads(&self) -> Result<(), String> {
        if thread_files(&self.pids)? == self.files {
            Ok(())
        } else {
            Err(format!(
                "the threads of {:?} changed while their CPU time was being read",
                self.pids
            ))
        }
    }
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` of `<time.h>` on Linux.
const PROCESS_CPU_CLOCK: i32 = 2;

/// `utime + stime` of this process, to the nanosecond, every thread it
/// ever had included (the shard threads of a job are gone by the time
/// it is read, which [`CpuClock`] could not cope with).
pub fn own_cpu_time() -> Result<Duration, String> {
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `time` is a valid, writable `timespec` (two 64-bit fields
    // on every 64-bit Linux target) for the duration of the call.
    if unsafe { clock_gettime(PROCESS_CPU_CLOCK, &mut time) } != 0 {
        return Err(format!(
            "clock_gettime: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(Duration::new(time.sec as u64, time.nsec as u32))
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let status = read_proc(pid, "status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("/proc/{pid}/status: no VmHWM line"))
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// Asks process `pid` to stop gracefully (tempod flushes its store and
/// prints its exit lines on SIGTERM).
pub fn terminate(pid: u32) -> Result<(), String> {
    let pid = i32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    // SAFETY: kill(2) takes two integers and touches no memory of this
    // process; `pid` is a child this process spawned and has not yet
    // waited for, so the id cannot have been reused.
    let rc = unsafe { kill(pid, SIGTERM) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "kill({pid}, SIGTERM): {}",
            std::io::Error::last_os_error()
        ))
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

/// The CPUs this thread may run on, ascending.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is 128 writable bytes and that is the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok((0..1024)
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Restricts the calling thread — and every process or thread it
/// starts afterwards — to `cpus`.
pub fn pin_to(cpus: &[usize]) -> Result<(), String> {
    let mut set: CpuSet = [0; 16];
    for &cpu in cpus {
        let word = set
            .get_mut(cpu / 64)
            .ok_or_else(|| format!("cpu {cpu} outside a cpu_set_t"))?;
        *word |= 1 << (cpu % 64);
    }
    // SAFETY: `set` is 128 readable bytes and that is the size passed;
    // the call only reads it. pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity({cpus:?}): {}",
            std::io::Error::last_os_error()
        ))
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The directory this package lives in (the checkout's `perf/`).
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where the benchmark writes: `perf/out/<sub>`, created on demand.
pub fn out_dir(sub: &str) -> Result<PathBuf, String> {
    let dir = package_dir().join("out").join(sub);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn first_line_of(mut command: Command) -> Option<String> {
    let output = command.output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// The machine and toolchain a result came from.
#[derive(Debug, Clone)]
pub struct Machine {
    pub git_sha: String,
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
}

impl Machine {
    pub fn describe() -> Machine {
        let unknown = || "unknown".to_string();
        let mut git = Command::new("git");
        git.args(["rev-parse", "HEAD"]).current_dir(package_dir());
        let mut rustc = Command::new("rustc");
        rustc.arg("--version");
        Machine {
            git_sha: first_line_of(git).unwrap_or_else(unknown),
            nproc: nproc(),
            cpu_model: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|text| {
                    text.lines()
                        .find(|l| l.starts_with("model name"))
                        .and_then(|l| l.split_once(':'))
                        .map(|(_, v)| v.trim().to_string())
                })
                .unwrap_or_else(unknown),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| unknown()),
            rustc: first_line_of(rustc).unwrap_or_else(unknown),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(time: Duration) {
        let mut x = 0u64;
        let started = std::time::Instant::now();
        while started.elapsed() < time {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
    }

    #[test]
    fn reads_its_own_cpu_time_and_peak_rss() {
        let before = own_cpu_time().unwrap();
        spin(Duration::from_millis(60));
        let used = own_cpu_time().unwrap() - before;
        assert!(used >= Duration::from_millis(20), "{used:?}");
        assert!(peak_rss_mib(std::process::id()).unwrap() > 0.5);
        assert!(peak_rss_mib(u32::MAX).is_err());
    }

    #[test]
    fn reads_a_childs_cpu_time_thread_by_thread() {
        let mut child = Command::new("sh")
            .args(["-c", "while :; do :; done"])
            .spawn()
            .unwrap();
        let clock = CpuClock::of(&[child.id()]).unwrap();
        let before = clock.read().unwrap();
        std::thread::sleep(Duration::from_millis(40));
        let after = clock.read().unwrap();
        let same_threads = clock.check_threads();
        child.kill().unwrap();
        child.wait().unwrap();
        assert!(after > before, "{before:?} -> {after:?}");
        assert!(same_threads.is_ok(), "{same_threads:?}");
        // Its one thread is gone with it.
        assert!(clock.check_threads().is_err());
        assert!(CpuClock::of(&[u32::MAX]).is_err());
    }
}
