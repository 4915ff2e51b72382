//! Process memory counters read from `/proc/self` (no libc binding is
//! available offline, so the text files are parsed directly).

use std::fs;

/// Parses the `VmHWM` (peak resident set) line of `/proc/<pid>/status`,
/// in kB.
///
/// # Errors
///
/// Returns a message when the line is missing or malformed.
pub fn parse_vm_hwm_kb(status: &str) -> Result<u64, String> {
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in status")?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next().ok_or("VmHWM has no value")?;
    match fields.next() {
        Some("kB") => {}
        other => return Err(format!("VmHWM unit is {other:?}, expected kB")),
    }
    value
        .parse()
        .map_err(|_| format!("VmHWM value {value:?} is not a number"))
}

/// Parses the minor page-fault count (`minflt`, field 10) of
/// `/proc/<pid>/stat`. The command name (field 2) may hold spaces and
/// parentheses, so fields are counted after its last `)`.
///
/// # Errors
///
/// Returns a message when the line is truncated or malformed.
pub fn parse_minflt(stat: &str) -> Result<u64, String> {
    let rest = stat
        .rfind(')')
        .map(|i| &stat[i + 1..])
        .ok_or("no ')' closing the command name")?;
    // After the command name: state(3) ppid(4) pgrp(5) session(6)
    // tty_nr(7) tpgid(8) flags(9) minflt(10).
    let field = rest
        .split_whitespace()
        .nth(7)
        .ok_or("stat line too short for minflt")?;
    field
        .parse()
        .map_err(|_| format!("minflt {field:?} is not a number"))
}

/// Peak resident set of this process, in MB (10⁶ bytes).
///
/// # Errors
///
/// Returns a message when `/proc/self/status` is unreadable or malformed.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    Ok(parse_vm_hwm_kb(&status)? as f64 * 1024.0 / 1e6)
}

/// Minor page faults of this process so far.
///
/// # Errors
///
/// Returns a message when `/proc/self/stat` is unreadable or malformed.
pub fn minor_faults() -> Result<u64, String> {
    let stat = fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    parse_minflt(&stat)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    7188 kB\nVmRSS:\t 7000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Ok(7188));
    }

    #[test]
    fn malformed_status_is_an_error() {
        for bad in [
            "",
            "VmRSS:\t 7000 kB\n",
            "VmHWM:\n",
            "VmHWM:\t 12x kB\n",
            "VmHWM:\t 12 MB\n",
            "VmHWM:\t 12\n",
            "VmHWM:\t -5 kB\n",
        ] {
            assert!(parse_vm_hwm_kb(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn reads_minflt_after_odd_command_names() {
        let stat = "4242 (a) b (c)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 5 3";
        assert_eq!(parse_minflt(stat), Ok(1234));
    }

    #[test]
    fn malformed_stat_is_an_error() {
        for bad in [
            "",
            "4242 no parenthesis S 1 2 3 4 5 6 7",
            "4242 (x) S 1 2",
            "4242 (x) S 1 2 3 4 5 6 -7",
            "4242 (x) S 1 2 3 4 5 6 seven",
        ] {
            assert!(parse_minflt(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn live_counters_are_readable() {
        assert!(peak_rss_mb().expect("status") > 0.0);
        minor_faults().expect("stat");
    }
}
