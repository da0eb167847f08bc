//! Readers for the few `/proc` figures the benchmark reports: a process's
//! CPU time and peak resident set, and the host's steal time.

use std::fs;

/// Clock ticks per second of `/proc` CPU counters (`getconf CLK_TCK`; 100
/// on every Linux target Rust supports).
pub const TICKS_PER_SEC: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name may hold spaces or parentheses, so fields are counted
/// from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After `)`: state is field 3 of the file; utime is 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// CPU time `pid` has used so far, in clock ticks.
pub fn cpu_ticks(pid: u32) -> Option<u64> {
    parse_cpu_ticks(&fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Peak resident set (`VmHWM`) in KiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line["VmHWM:".len()..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set of `pid` in KiB.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    parse_vm_hwm_kib(&fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// Host-wide steal ticks from the text of `/proc/stat` (the eighth
/// counter of the aggregate `cpu` line).
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Host-wide steal ticks so far (0 where the kernel does not report them).
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal_ticks(&s))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_from_stat_line() {
        let line = "7944 (cat) R 7899 7944 7899 0 -1 4194304 110 0 0 0 17 5 0 0 20 0 1 0 \
                    159574 2703360 283 18446744073709551615";
        assert_eq!(parse_cpu_ticks(line), Some(22));
        // A command name with spaces and a parenthesis.
        let odd = "12 (a) b (c) S 1 12 12 0 -1 0 0 0 0 0 300 45 0 0 20 0 1 0 1 1 1";
        assert_eq!(parse_cpu_ticks(odd), Some(345));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn cpu_ticks_of_this_process_grow() {
        let pid = std::process::id();
        let before = cpu_ticks(pid).expect("own stat");
        let t0 = std::time::Instant::now();
        let mut x = 0u64;
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_ticks(pid).expect("own stat") > before);
    }

    #[test]
    fn vm_hwm_from_status() {
        let status = "Name:\tcat\nVmPeak:\t  2640 kB\nVmHWM:\t    1684 kB\nVmRSS:\t 1684 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(1684));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
        assert!(vm_hwm_kib(std::process::id()).expect("own status") > 0);
    }

    #[test]
    fn steal_from_proc_stat() {
        let stat = "cpu  56626 0 10114 244576 384 0 2884 9211 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_ticks(stat), Some(9211));
        assert_eq!(parse_steal_ticks("intr 1 2\n"), None);
    }
}
