//! Readers for the process's own `/proc` files: peak resident set size,
//! CPU time, and context switches summed over live threads.
//!
//! The parsers take the file text so they can be tested on fixed input;
//! the readers return `None` where `/proc` is unavailable.

use std::fs;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, fixed at 100 by the
/// kernel ABI on every mainstream architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// The value of a `Key:   N kB` line in a `/proc/*/status` file, in kB.
pub fn status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// Voluntary plus involuntary context switches from a `/proc/*/status`
/// file.
pub fn status_ctx_switches(status: &str) -> Option<u64> {
    let field = |key: &str| {
        status.lines().find_map(|line| {
            line.strip_prefix(key)?
                .strip_prefix(':')?
                .trim()
                .parse::<u64>()
                .ok()
        })
    };
    Some(field("voluntary_ctxt_switches")? + field("nonvoluntary_ctxt_switches")?)
}

/// `(utime, stime)` in ticks from a `/proc/*/stat` line. The command
/// name (field 2) may contain spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn stat_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // Fields after the name start at field 3 (state); utime and stime
    // are fields 14 and 15.
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime = fields.next()?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    Some(status_kb(&status, "VmHWM")? as f64 / 1024.0)
}

/// User plus system CPU seconds this process has used.
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    let (utime, stime) = stat_cpu_ticks(&stat)?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// Context switches summed over this process's live threads. Threads
/// that already exited are not counted, so take both readings of a
/// difference while the threads of interest are running.
pub fn ctx_switches() -> Option<u64> {
    let mut total = 0;
    for task in fs::read_dir("/proc/self/task").ok()?.flatten() {
        // A thread that exits between the listing and the read is gone
        // from both readings alike; skip it.
        if let Ok(status) = fs::read_to_string(task.path().join("status")) {
            total += status_ctx_switches(&status)?;
        }
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tperfbench\nVmPeak:\t  20480 kB\nVmHWM:\t   10496 kB\n\
                          VmRSS:\t    9000 kB\nThreads:\t3\n\
                          voluntary_ctxt_switches:\t42\nnonvoluntary_ctxt_switches:\t8\n";

    #[test]
    fn status_fields_parse() {
        assert_eq!(status_kb(STATUS, "VmHWM"), Some(10_496));
        assert_eq!(status_kb(STATUS, "VmRSS"), Some(9_000));
        assert_eq!(status_kb(STATUS, "VmSwap"), None);
        // A key must match whole, not as a prefix of a longer key.
        assert_eq!(status_kb(STATUS, "Vm"), None);
        assert_eq!(status_ctx_switches(STATUS), Some(50));
        assert_eq!(status_ctx_switches("Name:\tx\n"), None);
    }

    #[test]
    fn stat_skips_a_command_name_with_spaces_and_parens() {
        let stat = "1234 (perf (bench) x) R 1 1234 1234 0 -1 4194304 100 0 0 0 \
                    250 17 0 0 20 0 3 0 100 1000 200";
        assert_eq!(stat_cpu_ticks(stat), Some((250, 17)));
        assert_eq!(stat_cpu_ticks("1234 (x) R 1"), None);
        assert_eq!(stat_cpu_ticks("no parens"), None);
    }

    #[test]
    fn live_readers_work_on_this_process() {
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        assert!(cpu_seconds().expect("utime+stime") >= 0.0);
        assert!(ctx_switches().is_some());
    }
}
