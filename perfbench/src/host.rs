//! Host diagnostics read from `/proc`: CPU steal over a run, and the
//! process's peak resident set (VmHWM) behind `peak_rss_mb`.

/// Where `peak_rss_mb` comes from.
pub const RSS_SOURCE: &str = "/proc/self/status:VmHWM";

/// Aggregate CPU time counters (in clock ticks) from `/proc/stat`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuTimes {
    /// Time stolen by the hypervisor.
    pub steal: u64,
    /// Sum of user, nice, system, idle, iowait, irq, softirq and steal.
    pub total: u64,
}

/// Parses the aggregate `cpu` line of `/proc/stat`.
pub fn parse_proc_stat(text: &str) -> Option<CpuTimes> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if fields.len() < 8 {
        return None;
    }
    Some(CpuTimes {
        steal: fields[7],
        total: fields.iter().sum(),
    })
}

/// Share of CPU time stolen between two readings (0 when no time
/// passed).
pub fn steal_fraction(before: CpuTimes, after: CpuTimes) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        0.0
    } else {
        after.steal.saturating_sub(before.steal) as f64 / total as f64
    }
}

/// Parses `VmHWM` (in KiB) from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kib = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(kib)
}

/// Current CPU counters, if `/proc/stat` is readable.
pub fn cpu_times() -> Option<CpuTimes> {
    parse_proc_stat(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// This process's peak resident set in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read {RSS_SOURCE}: {e}"))?;
    parse_vm_hwm_kib(&status)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in {RSS_SOURCE}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_aggregate_cpu_line() {
        let text = "cpu  100 5 50 800 10 1 2 30 0 0\ncpu0 50 2 25 400 5 0 1 15 0 0\nintr 1\n";
        let t = parse_proc_stat(text).unwrap();
        assert_eq!(
            t,
            CpuTimes {
                steal: 30,
                total: 998
            }
        );
        assert_eq!(parse_proc_stat("cpu0 1 2 3\n"), None);
        assert_eq!(parse_proc_stat("cpu  1 2 3\n"), None);
        assert_eq!(parse_proc_stat("cpu  1 2 x 4 5 6 7 8\n"), None);
    }

    #[test]
    fn steal_fraction_is_a_share_of_elapsed_ticks() {
        let a = CpuTimes {
            steal: 10,
            total: 1000,
        };
        let b = CpuTimes {
            steal: 30,
            total: 1400,
        };
        assert_eq!(steal_fraction(a, b), 0.05);
        assert_eq!(steal_fraction(a, a), 0.0);
    }

    #[test]
    fn parses_vm_hwm() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4096 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(5120));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 4096 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mib().unwrap() > 0.0);
        assert!(cpu_times().unwrap().total > 0);
    }
}
