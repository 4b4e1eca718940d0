//! Small shared helpers: order statistics, the run digest, host facts.

use std::time::Instant;

/// Median of `values` (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in (0, 1]) of unsorted `values`; 0 when
/// empty. Infinite entries (failed requests) sort last, so a failure share
/// above `1 - q` makes the percentile infinite.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// FNV-1a over bytes: the digest of a run's modelled statistics. The
/// statistics are fed as their `Debug` text, which prints every `f64` with
/// enough digits to round-trip, so two runs digest equal only when every
/// modelled number is bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn feed(&mut self, text: &str) {
        for b in text.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Available parallelism of the host.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the benchmark measures: `git rev-parse HEAD` when run inside a
/// git checkout, otherwise `unknown`.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host CPU time the hypervisor stole from this VM while the benchmark was
/// runnable: on a shared virtual machine, time stolen by other tenants
/// stretches wall-clock figures by tens of percent from one minute to the
/// next, with no change in the program. `share` is the stolen part of all
/// CPU time the guest wanted since `start` (from `/proc/stat`: steal over
/// user + nice + system + irq + softirq + steal); a wall time `w` measured
/// over the same interval ran for `w * (1 - share)` of host CPU. Reads 0
/// where `/proc/stat` is missing or reports no steal.
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    pub fn start() -> Self {
        StealMeter(cpu_ticks())
    }

    pub fn share(&self) -> f64 {
        match (self.0, cpu_ticks()) {
            (Some((b0, s0)), Some((b1, s1))) if b1 + s1 > b0 + s0 => {
                (s1 - s0) as f64 / ((b1 - b0) + (s1 - s0)) as f64
            }
            _ => 0.0,
        }
    }
}

/// Cumulative `(busy, steal)` ticks of all CPUs.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal ...
    let busy =
        fields.first()? + fields.get(1)? + fields.get(2)? + fields.get(5)? + fields.get(6)?;
    Some((busy, *fields.get(7)?))
}
