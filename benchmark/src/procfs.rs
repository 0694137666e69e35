//! What the kernel says this process cost: peak resident memory and CPU
//! time, read from `/proc/self`.

/// Kernel clock ticks per second. `sysconf(_SC_CLK_TCK)` is 100 on every
/// Linux the benchmark runs on; reading it would need libc.
const CLK_TCK: f64 = 100.0;

/// `VmHWM` (peak resident set) in MiB from the text of
/// `/proc/self/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb / 1024.0)
}

/// `(user, system)` CPU seconds from the text of `/proc/self/stat`. The
/// second field is the command name in parentheses and may itself hold
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<(f64, f64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / CLK_TCK, stime / CLK_TCK))
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_mb(&status).expect("VmHWM line in /proc/self/status")
}

/// `(user, system)` CPU seconds of this process so far.
pub fn cpu_seconds() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_cpu_seconds(&stat).expect("utime and stime in /proc/self/stat")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status =
            "Name:\tcb-benchmark\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(20.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t12 pages\n"), None);
    }

    #[test]
    fn cpu_times_survive_a_hostile_command_name() {
        // comm = "a) b (c": spaces and parentheses inside the name.
        let stat =
            "1234 (a) b (c) S 1 1234 1234 0 -1 4194304 500 0 0 0 250 75 0 0 20 0 3 0 100 0 0";
        assert_eq!(parse_cpu_seconds(stat), Some((2.5, 0.75)));
        assert_eq!(parse_cpu_seconds("1234 (x) S 1 2"), None);
        assert_eq!(parse_cpu_seconds("no parenthesis"), None);
    }

    #[test]
    fn this_process_has_memory_and_cpu_time() {
        assert!(peak_rss_mb() > 0.0);
        let (user, sys) = cpu_seconds();
        assert!(user >= 0.0 && sys >= 0.0);
    }
}
