//! Readings from `/proc`: the server's CPU time and peak memory, and host noise (load
//! average, CPU steal), recorded with every run so a noisy run can be told apart.

use std::time::Duration;

/// Linux reports `/proc/<pid>/stat` CPU times in `USER_HZ` ticks, which is 100 on every
/// architecture the kernel exports to user space.
const USER_HZ: f64 = 100.0;

/// User + system CPU time consumed so far by process `pid`, all threads included.
pub fn process_cpu(pid: u32) -> Result<Duration, String> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("cannot read /proc/{pid}/stat: {e}"))?;
    // The command name may contain spaces; fields resume after its closing parenthesis.
    let rest = text.rsplit_once(')').map(|(_, rest)| rest).ok_or("malformed stat line")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state(0) ppid(1) ... utime(11) stime(12).
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("stat field {i} missing"))
    };
    Ok(Duration::from_secs_f64((ticks(11)? + ticks(12)?) / USER_HZ))
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM line")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("malformed VmHWM line")?;
    Ok(kib / 1024.0)
}

/// Aggregate CPU tick counters of the host (the `cpu` line of `/proc/stat`).
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    total: u64,
    steal: u64,
}

impl CpuTicks {
    /// Reads the counters now (all zero where `/proc/stat` is unavailable).
    pub fn read() -> CpuTicks {
        let Ok(text) = std::fs::read_to_string("/proc/stat") else { return CpuTicks::default() };
        let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTicks::default();
        };
        // user nice system idle iowait irq softirq steal [guest guest_nice — already counted
        // inside user/nice, so excluded from the total].
        let values: Vec<u64> =
            line.split_whitespace().skip(1).take(8).filter_map(|v| v.parse().ok()).collect();
        CpuTicks { total: values.iter().sum(), steal: values.get(7).copied().unwrap_or(0) }
    }

    /// The share of CPU time stolen by the hypervisor between `self` and `later`.
    pub fn steal_share(&self, later: &CpuTicks) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// The one-minute load average (`NaN` where unavailable).
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(f64::NAN)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}
