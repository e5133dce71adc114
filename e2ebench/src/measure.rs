//! Summary statistics and process-level probes: CPU time from
//! `/proc/self/stat`, peak RSS from `/proc/self/status` (reset through
//! `/proc/self/clear_refs`).

use std::collections::BTreeMap;
use std::time::Instant;

/// Nearest-rank percentile (`q` in `[0, 1]`) of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (the mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Runs `setup` `times` times (at least once) and keeps the last result,
/// returning it with the median of the set-ups' wall seconds. Each
/// earlier result is dropped before the next set-up starts.
pub fn repeated_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(times);
    let mut kept = None;
    for _ in 0..times.max(1) {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up ran"), median(&secs))
}

/// `USER_HZ`: the kernel reports `/proc/*/stat` CPU times in these
/// ticks, fixed at 100 on every Linux ABI the benchmark builds for.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// CPU seconds (user + system) consumed so far by every thread of this
/// process, at 10 ms resolution.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated, utime and stime being
    // fields 14 and 15 of the line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_S
}

/// Resets the kernel's peak-RSS mark to the current RSS, so the next
/// [`peak_rss_mb`] covers only what follows. Returns whether the reset
/// took effect; without it the peak covers the whole process lifetime.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size (`VmHWM`) since the last reset, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metric values with their units, in name order.
#[derive(Default, Debug)]
pub struct Metrics(pub BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Counts of operations attempted and failed, plus the failure messages
/// of output checks (a failed check counts as a failed operation).
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one operation; `Err` marks it failed and keeps the message.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// Records a failure of an operation or check already counted.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.errors.push(message);
    }

    /// Share of attempted operations that succeeded.
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1.0 - self.failed.min(self.attempted) as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn process_probes_read_proc() {
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 50 {
            std::hint::black_box(spin.elapsed());
        }
        assert!(process_cpu_s() > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
