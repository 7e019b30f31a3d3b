//! What the harness reads from `/proc` and the one thing it asks of the
//! scheduler: per-thread CPU time (`schedstat`, nanoseconds — `stat`'s
//! `utime + stime` ticks alias with the brokers' millisecond bursts),
//! context switches and resident set (`status`), and core pinning through
//! `taskset`, which needs no unsafe code and is inherited by every thread
//! a pinned thread spawns.

use std::process::{Command, Stdio};

/// Run-nanoseconds from a `/proc/<pid>/task/<tid>/schedstat` line
/// (`run_ns wait_ns timeslices`).
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// The fields of a `/proc/.../status` text the harness uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Status {
    /// `voluntary_ctxt_switches + nonvoluntary_ctxt_switches`.
    pub ctx_switches: u64,
    /// `VmRSS` in kB (process-wide; 0 when absent).
    pub rss_kb: u64,
}

/// Parses the lines of a `status` file; missing fields stay 0.
pub fn parse_status(text: &str) -> Status {
    let mut s = Status::default();
    for line in text.lines() {
        let Some((key, rest)) = line.split_once(':') else {
            continue;
        };
        let number = || -> u64 {
            rest.split_whitespace()
                .next()
                .and_then(|w| w.parse().ok())
                .unwrap_or(0)
        };
        match key {
            "voluntary_ctxt_switches" | "nonvoluntary_ctxt_switches" => s.ctx_switches += number(),
            "VmRSS" => s.rss_kb = number(),
            _ => {}
        }
    }
    s
}

/// The calling thread's kernel thread id, from `/proc/thread-self`
/// (`<pid>/task/<tid>`).
pub fn current_tid() -> Option<u32> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// Kernel thread ids of every live thread of this process.
pub fn thread_ids() -> Vec<u32> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .collect()
}

/// Reads `/proc/self/task/<tid>/<file>` of every live thread. A thread
/// that exits between two calls takes its counters with it; the measured
/// phases start after the thread set has settled.
fn per_thread(file: &str) -> impl Iterator<Item = (u32, String)> + '_ {
    thread_ids().into_iter().filter_map(move |tid| {
        let text = std::fs::read_to_string(format!("/proc/self/task/{tid}/{file}")).ok()?;
        Some((tid, text))
    })
}

/// Σ run-ns of the threads for which `is_gen(tid)` does not hold, and of
/// those for which it does: `(system under test, generator)`.
pub fn cpu_ns_split(is_gen: impl Fn(u32) -> bool) -> (u64, u64) {
    let mut split = (0, 0);
    for (tid, text) in per_thread("schedstat") {
        let ns = parse_schedstat(&text).unwrap_or(0);
        if is_gen(tid) {
            split.1 += ns;
        } else {
            split.0 += ns;
        }
    }
    split
}

/// Σ context switches over the threads for which `include(tid)` holds.
pub fn ctx_switches(include: impl Fn(u32) -> bool) -> u64 {
    per_thread("status")
        .filter(|(tid, _)| include(*tid))
        .map(|(_, text)| parse_status(&text).ctx_switches)
        .sum()
}

/// Resident set of the whole process in MiB.
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .map(|t| parse_status(&t).rss_kb as f64 / 1024.0)
        .unwrap_or(0.0)
}

/// Pins the calling thread to `core` with `taskset -pc`. Threads it
/// spawns afterwards inherit the mask. Returns whether it took effect.
pub fn pin_current_thread(core: usize) -> bool {
    let Some(tid) = current_tid() else {
        return false;
    };
    Command::new("taskset")
        .args(["-pc", &core.to_string(), &tid.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

/// 1-minute load average, or a negative value when unreadable.
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next()?.parse().ok())
        .unwrap_or(-1.0)
}

/// Kernel release string.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_fixture() {
        assert_eq!(parse_schedstat("445682 79342 1\n"), Some(445_682));
        assert_eq!(parse_schedstat("0 0 0"), Some(0));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("abc 1 2"), None);
    }

    #[test]
    fn status_fixture() {
        let text = "Name:\tchainbench\nVmPeak:\t  999 kB\nVmRSS:\t   20480 kB\n\
                    Threads:\t31\nvoluntary_ctxt_switches:\t120\n\
                    nonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(
            parse_status(text),
            Status {
                ctx_switches: 127,
                rss_kb: 20_480
            }
        );
        assert_eq!(parse_status("garbage\n\n"), Status::default());
    }

    #[test]
    fn own_thread_is_listed() {
        // Skipped silently where /proc is not Linux's.
        if let Some(tid) = current_tid() {
            assert!(thread_ids().contains(&tid));
        }
    }
}
