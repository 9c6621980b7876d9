//! What the operating system says about this process: CPU time, peak
//! resident memory and context switches, read from `/proc/self`. Every
//! reader returns `None` where `/proc` is absent; the benchmark then fails
//! the run rather than report a made-up number.

use std::fs;

/// `/proc/self/stat` counts CPU time in clock ticks; Linux fixes the
/// user-visible tick at 100 Hz on every architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds of the whole process, exited threads included.
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces and parentheses; fields are
    // counted after the last ')'. utime and stime are fields 14 and 15 of
    // the line, so 12 and 13 of what follows the state field.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Voluntary + involuntary context switches summed over the live threads.
pub fn context_switches() -> Option<u64> {
    let mut total = 0u64;
    for task in fs::read_dir("/proc/self/task").ok()? {
        let Ok(status) = fs::read_to_string(task.ok()?.path().join("status")) else {
            continue; // the thread exited between the listing and the read
        };
        for line in status.lines() {
            if let Some(count) = line
                .strip_prefix("voluntary_ctxt_switches:")
                .or_else(|| line.strip_prefix("nonvoluntary_ctxt_switches:"))
            {
                total += count.trim().parse::<u64>().ok()?;
            }
        }
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_report_plausible_values_on_linux() {
        if !std::path::Path::new("/proc/self/stat").exists() {
            return;
        }
        assert!(cpu_seconds().expect("cpu") >= 0.0);
        assert!(peak_rss_mb().expect("rss") > 1.0);
        assert!(context_switches().is_some());
    }
}
