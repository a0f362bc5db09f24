//! Host facts and noise diagnostics.
//!
//! None of these is gated. They are printed with every run so that a
//! disagreement between two sets of runs can be checked against the host:
//! how many CPUs the process may use, which compiler built it, which
//! revision it measured, how much CPU time the hypervisor stole while it
//! ran, and how long a fixed ALU loop took (a loop that touches no memory,
//! so it moves only with CPU contention, not with the memory system).

use std::process::Command;
use std::time::Instant;

/// Static facts about the host and the build.
#[derive(Debug, Clone)]
pub struct Facts {
    /// CPUs this process may run on.
    pub nproc: usize,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the working directory, or `unknown` (a
    /// plain checkout is not a git repository).
    pub git_rev: String,
}

impl Facts {
    /// Collects the facts; each external command is waited for.
    pub fn collect() -> Facts {
        Facts {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            rustc: command_line("rustc", &["--version"]),
            git_rev: command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host-wide stolen CPU time so far, in seconds (`steal` column of the
/// aggregate `cpu` line of `/proc/stat`, in USER_HZ = 100 ticks/s).
/// `None` where `/proc/stat` is unavailable.
pub fn steal_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: u64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks as f64 / 100.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Wall time in milliseconds of a fixed register-only loop.
pub fn alu_reference_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15_u64);
    for _ in 0..std::hint::black_box(40_000_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}
