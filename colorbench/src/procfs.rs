//! Process counters read from `/proc/self`: CPU time, minor faults,
//! voluntary context switches and peak resident set size.

use std::fs;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// reports these in `USER_HZ`, which is 100 on every architecture it
/// exports to user space.
const USER_HZ: f64 = 100.0;

/// A snapshot of the counters the benchmark differences around a call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Snapshot {
    /// User + system CPU time of the whole process, in seconds. Threads
    /// that already exited stay counted.
    pub cpu_s: f64,
    /// Minor page faults of the whole process, exited threads included.
    pub minflt: u64,
    /// Voluntary context switches summed over the live threads. A thread
    /// that exits takes its count with it, so a pool spawned and joined
    /// inside the measured call is not seen.
    pub nvcsw: u64,
}

impl Snapshot {
    pub fn take() -> Snapshot {
        let (cpu_s, minflt) = stat().unwrap_or((0.0, 0));
        Snapshot {
            cpu_s,
            minflt,
            nvcsw: voluntary_switches(),
        }
    }

    /// Counter growth from `self` to `later`.
    pub fn delta(&self, later: &Snapshot) -> Snapshot {
        Snapshot {
            cpu_s: (later.cpu_s - self.cpu_s).max(0.0),
            minflt: later.minflt.saturating_sub(self.minflt),
            nvcsw: later.nvcsw.saturating_sub(self.nvcsw),
        }
    }
}

/// `(utime + stime in seconds, minflt)` from `/proc/self/stat`.
fn stat() -> Option<(f64, u64)> {
    let text = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state(0) ppid pgrp session tty tpgid flags minflt(7)
    // cminflt majflt cmajflt utime(11) stime(12).
    let num = |i: usize| fields.get(i).and_then(|s| s.parse::<u64>().ok());
    let ticks = num(11)? + num(12)?;
    Some((ticks as f64 / USER_HZ, num(7)?))
}

fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

fn voluntary_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .filter_map(|s| status_field(&s, "voluntary_ctxt_switches:"))
        .sum()
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmHWM:"))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_readable_and_monotone() {
        let a = Snapshot::take();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let b = Snapshot::take();
        assert!(a.minflt > 0);
        assert!(b.cpu_s >= a.cpu_s);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn status_field_parses_kib() {
        let s = "Name:\tx\nVmHWM:\t  2048 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(s, "VmHWM:"), Some(2048));
        assert_eq!(status_field(s, "voluntary_ctxt_switches:"), Some(7));
    }
}
